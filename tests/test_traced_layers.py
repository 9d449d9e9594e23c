"""The benchmark's per-layer metrics read the work where it is done.

The tracer in ``perfbench/tracer.py`` counts calls to the functions it
wraps.  A refactor that routes work around a wrapped function (a new
private entry point, a fast path that skips the public one) would make
that layer's metric read 0 while the work goes on.  Here one small
traced pass of each workload must call every name it called before, and
the known gaps are listed as such."""

import importlib
import importlib.util
import pkgutil
import random
import sys
import types
from pathlib import Path

import imagebinary

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# traced names with calls on each workload; every one must keep them
HOT = {
    "words": {
        "formats.parse_automaton", "formats.serialize_automaton",
        "matrix.CoordBasis.add", "matrix.Matrix.__mul__",
        "wa.span_explore", "wa.equivalent", "wa.minimize",
        "ifa.is_image_binary", "ifa.ifa_to_dfa",
        "mod2.ifa_to_mod2", "mod2.shift_register_rank_report",
    },
    "modelcheck": {
        "formats.parse_automaton", "formats.parse_markov_chain",
        "graphs.strongly_connected_components", "graphs.reachable_from", "graphs.reaches_any",
        "buchi.binariness_witness", "buchi.is_ultimately_stable",
        "mc.trim_iba", "mc.build_product", "mc.classify_scc", "mc.solve_values",
    },
    "lassos": {
        "formats.parse_automaton", "formats.serialize_automaton",
        "graphs.strongly_connected_components", "graphs.reachable_from",
        "buchi.kdis", "buchi.kdis_successor_weights", "buchi.check_ambiguity_on_lassos",
        "buchi.iba_lasso_eval", "buchi.iba_lasso_count_final", "buchi.is_ultimately_stable",
        "mc.trim_iba",
    },
}
# work done behind a name the tracer does not wrap, so the listed
# metric reads 0: coordinates come from CoordBasis.span_coords, and the
# block solve calls matrix.solve_rows, not Matrix.solve_unique
KNOWN_GAPS = {
    "words": {"matrix.CoordBasis.coords"},
    "modelcheck": {"matrix.Matrix.solve_unique"},
    "lassos": set(),
}
SCALES = {"words": 1 / 12, "modelcheck": 1 / 10, "lassos": 1 / 10}


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def traced_calls(workload, monkeypatch):
    """Calls per traced name in one pass over a small seeded job list."""
    tracer = load("tracer", monkeypatch)
    load("reference", monkeypatch)
    workloads = load("workloads", monkeypatch)
    ib = types.SimpleNamespace(**{
        info.name: importlib.import_module("imagebinary." + info.name)
        for info in pkgutil.iter_modules(imagebinary.__path__)
    })
    plan = workloads.WORKLOADS[workload][0](ib, random.Random(5), scale=SCALES[workload])
    jobs = workloads.WORKLOADS[workload][1](ib, plan)
    tr = tracer.Tracer()
    tr.install()
    try:
        state = {}
        answers = [workloads.execute(ib, job, state) for job in jobs]
    finally:
        tr.uninstall()
    assert not [a for a in answers if a[0] == "error"]
    return {tracer.traced_name(*spec): tr.calls.get(tracer.traced_name(*spec), 0)
            for spec in tracer.TRACED}


def check(workload, monkeypatch):
    calls = traced_calls(workload, monkeypatch)
    assert HOT[workload] <= set(calls), HOT[workload] - set(calls)
    cold = sorted(name for name in HOT[workload] if not calls[name])
    assert not cold, "traced names no longer called on %s: %s" % (workload, cold)
    # a gap that closes moves to HOT, so the list stays true
    assert all(calls[name] == 0 for name in KNOWN_GAPS[workload])


def test_words_pass_calls_every_hot_traced_name(monkeypatch):
    check("words", monkeypatch)


def test_modelcheck_pass_calls_every_hot_traced_name(monkeypatch):
    check("modelcheck", monkeypatch)


def test_lassos_pass_calls_every_hot_traced_name(monkeypatch):
    check("lassos", monkeypatch)
