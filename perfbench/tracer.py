"""Span tracer for the package's public layer functions.

``Tracer.install`` wraps each traced name in every ``imagebinary``
module that binds it (``is_ultimately_stable`` is bound in both
``buchi`` and ``mc``, for example), so calls between modules and inside
one module both pass through the wrapper.  A span records its name,
parent span, start and end; self time is the span minus the time of its
child spans.  Spans stay in memory in flat arrays and are written once,
at exit.  Per-name counts that need the call's arguments or result
(basis sizes, product nodes, coefficient bit lengths) are taken in
hooks after the span has ended.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from fractions import Fraction
from time import perf_counter

# (module, class or None, function) in the order the metrics are listed
TRACED = [
    ("matrix", "Matrix", "__mul__"),
    ("matrix", "Matrix", "rank"),
    ("matrix", "Matrix", "solve_unique"),
    ("matrix", "CoordBasis", "add"),
    ("matrix", "CoordBasis", "coords"),
    ("graphs", None, "strongly_connected_components"),
    ("graphs", None, "nodes_on_cycles"),
    ("graphs", None, "reachable_from"),
    ("graphs", None, "reaches_any"),
    ("wa", None, "span_explore"),
    ("wa", None, "equivalent"),
    ("wa", None, "minimize"),
    ("ifa", None, "is_image_binary"),
    ("ifa", None, "ifa_to_dfa"),
    ("mod2", None, "ifa_to_mod2"),
    ("mod2", None, "shift_register_rank_report"),
    ("buchi", None, "kdis"),
    ("buchi", None, "kdis_successor_weights"),
    ("buchi", None, "check_ambiguity_on_lassos"),
    ("buchi", None, "nba_lasso_count_final"),
    ("buchi", None, "iba_lasso_eval"),
    ("buchi", None, "iba_lasso_count_final"),
    ("buchi", None, "is_ultimately_stable"),
    ("buchi", None, "binariness_witness"),
    ("mc", None, "trim_iba"),
    ("mc", None, "build_product"),
    ("mc", None, "classify_scc"),
    ("mc", None, "solve_values"),
    ("formats", None, "parse_automaton"),
    ("formats", None, "parse_markov_chain"),
    ("formats", None, "serialize_automaton"),
]

# scaling curves: traced name -> (size label, bucket upper bounds); the
# modelcheck products are pinned to 16, 28, 40 and 56 nodes, give or take
# four, so the solve_values bounds put them in three buckets
CURVES = {
    "mc.solve_values": ("product nodes", (24, 48)),
    "buchi.kdis": ("untrimmed states", (8, 32)),
    "buchi.iba_lasso_eval": ("automaton states", (8, 32)),
    "ifa.is_image_binary": ("automaton states", (6, 12)),
}

# extra per-layer counts: name -> (unit, better)
EXTRAS = {
    "matrix.CoordBasis.add.accepted_ratio": ("ratio", "higher"),
    "wa.span_explore.basis_vectors": ("count", "lower"),
    "wa.minimize.coeff_bits_max": ("bits", "lower"),
    "ifa.ifa_to_dfa.states_out": ("count", "lower"),
    "buchi.kdis.states_untrimmed": ("count", "lower"),
    "buchi.kdis.kept_ratio": ("ratio", "higher"),
    "mc.build_product.nodes": ("count", "lower"),
    "mc.build_product.kept_ratio": ("ratio", "higher"),
    "mc.build_product.recurrent_classes": ("count", "lower"),
    "mc.solve_values.z_bits_max": ("bits", "lower"),
}


def traced_name(module, cls, fn):
    return ".".join(p for p in (module, cls, fn) if p)


def bucket_names(bounds):
    return ["le%d" % b for b in bounds] + ["gt%d" % bounds[-1]]


def per_layer_metrics():
    """Every per-layer metric a traced run reports, as (name, unit, better)."""
    out = []
    for spec in TRACED:
        name = traced_name(*spec)
        out.append((name + ".calls", "count", "lower"))
        out.append((name + ".self_s", "s", "lower"))
    out += [(name, unit, better) for name, (unit, better) in EXTRAS.items()]
    for name, (_label, bounds) in CURVES.items():
        for b in bucket_names(bounds):
            out.append(("%s.per_call_s.%s" % (name, b), "s", "lower"))
            out.append(("%s.per_call_incl_s.%s" % (name, b), "s", "lower"))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


def _bits(x):
    """Bit length of a rational's larger part; a GF(2) scalar has one bit."""
    if not isinstance(x, Fraction):
        return 1
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _matrix_bits(m):
    return max((_bits(x) for row in m.rows for x in row), default=0)


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_ids = array("H")
        self.stack = []  # [span id, time covered by children]
        self.calls = {}
        self.self_s = {}
        self.incl_s = {}
        self.counts = {}
        self.curves = {}  # (name, bucket) -> [calls, self_s, incl_s]
        self.patched = []

    # --- spans ---

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        nid = self.name_id.get(name)
        if nid is None:
            nid = self.name_id[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = self.incl_s[name] = 0.0
        sid = len(self.starts)
        self.parents.append(self.stack[-1][0] if self.stack else -1)
        self.name_ids.append(nid)
        frame = [sid, 0.0]
        self.stack.append(frame)
        t0 = perf_counter()
        self.starts.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.ends.append(t1)
            self.stack.pop()
            dur = t1 - t0
            if self.stack:
                self.stack[-1][1] += dur
            self.calls[name] += 1
            self.self_s[name] += dur - frame[1]
            self.incl_s[name] += dur
            self._last = (dur - frame[1], dur)

    def _wrap(self, name, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(tracer, name, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def count(self, key, value, reduce=None):
        if reduce is None:
            self.counts[key] = self.counts.get(key, 0) + value
        else:
            self.counts[key] = reduce(self.counts.get(key, 0), value)

    def curve(self, name, size):
        _label, bounds = CURVES[name]
        bucket = next((b for b, hi in zip(bucket_names(bounds), bounds) if size <= hi),
                      bucket_names(bounds)[-1])
        entry = self.curves.setdefault((name, bucket), [0, 0.0, 0.0])
        self_s, incl = self._last
        entry[0] += 1
        entry[1] += self_s
        entry[2] += incl

    # --- patching ---

    def install(self, package="imagebinary"):
        mods = {name: m for name, m in sys.modules.items()
                if m is not None and (name == package or name.startswith(package + "."))}
        for module, cls, fn in TRACED:
            name = traced_name(module, cls, fn)
            owner = mods[package + "." + module]
            hook = HOOKS.get(name)
            if cls is not None:
                klass = getattr(owner, cls)
                orig = klass.__dict__[fn]
                setattr(klass, fn, self._wrap(name, orig, hook))
                self.patched.append((klass, fn, orig))
                continue
            orig = getattr(owner, fn)
            wrapper = self._wrap(name, orig, hook)
            for m in mods.values():
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self.patched.append((m, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self.patched):
            setattr(owner, attr, orig)
        self.patched = []

    # --- results ---

    def metrics(self, overhead_ratio):
        out = {}
        for spec in TRACED:
            name = traced_name(*spec)
            out[name + ".calls"] = (self.calls.get(name, 0), "count")
            out[name + ".self_s"] = (self.self_s.get(name, 0.0), "s")
        c = self.counts

        def ratio(num, den):
            return c.get(num, 0) / c[den] if c.get(den) else 0.0

        adds = self.calls.get("matrix.CoordBasis.add", 0)
        out["matrix.CoordBasis.add.accepted_ratio"] = (
            c.get("matrix.CoordBasis.add.accepted", 0) / adds if adds else 0.0, "ratio")
        out["buchi.kdis.kept_ratio"] = (ratio("buchi.kdis.states_kept", "buchi.kdis.states_untrimmed"), "ratio")
        out["mc.build_product.kept_ratio"] = (
            ratio("mc.build_product.nodes", "mc.build_product.candidates"), "ratio")
        for name, (unit, _better) in EXTRAS.items():
            if name not in out:
                out[name] = (c.get(name, 0), unit)
        for name, (_label, bounds) in CURVES.items():
            for b in bucket_names(bounds):
                calls, self_s, incl = self.curves.get((name, b), (0, 0.0, 0.0))
                out["%s.per_call_s.%s" % (name, b)] = (self_s / calls if calls else 0.0, "s")
                out["%s.per_call_incl_s.%s" % (name, b)] = (incl / calls if calls else 0.0, "s")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out

    def curve_table(self):
        """{name: {bucket: calls}}, so a curve point shows its base."""
        table = {}
        for (name, bucket), (calls, _s, _i) in sorted(self.curves.items()):
            table.setdefault(name, {})[bucket] = calls
        return table

    def write_spans(self, path):
        """Write every span as tab-separated text (gzip): id, parent id,
        name, start and end in seconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.starts)):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\n" % (
                    i, self.parents[i], self.names[self.name_ids[i]],
                    self.starts[i] - t0, self.ends[i] - t0))


# --- hooks: counts taken from a call's arguments and result -------------------------


def _coordbasis_add(t, name, args, result):
    if result is not None:
        t.count("matrix.CoordBasis.add.accepted", 1)


def _span_explore(t, name, args, result):
    t.count("wa.span_explore.basis_vectors", len(result[0]))


def _minimize(t, name, args, result):
    bits = max([_matrix_bits(m) for m in result.trans.values()]
               + [_matrix_bits(result.init), _matrix_bits(result.final)])
    t.count("wa.minimize.coeff_bits_max", bits, max)


def _ifa_to_dfa(t, name, args, result):
    t.count("ifa.ifa_to_dfa.states_out", result.state_count)


def _is_image_binary(t, name, args, result):
    t.curve(name, args[0].n)


def _kdis(t, name, args, result):
    t.count("buchi.kdis.states_untrimmed", result.untrimmed_state_count)
    t.count("buchi.kdis.states_kept", result.n)
    t.curve(name, result.untrimmed_state_count)


def _iba_lasso_eval(t, name, args, result):
    t.curve(name, args[0].n)


def _build_product(t, name, args, result):
    iba, chain = args
    t.count("mc.build_product.nodes", result.node_count)
    t.count("mc.build_product.candidates", iba.n * chain.state_count)
    t.count("mc.build_product.recurrent_classes", sum(1 for c in result.classes if c.recurrent))


def _solve_values(t, name, args, result):
    t.count("mc.solve_values.z_bits_max", max((_bits(x) for x in result), default=0), max)
    t.curve(name, args[0].node_count)


HOOKS = {
    "matrix.CoordBasis.add": _coordbasis_add,
    "wa.span_explore": _span_explore,
    "wa.minimize": _minimize,
    "ifa.ifa_to_dfa": _ifa_to_dfa,
    "ifa.is_image_binary": _is_image_binary,
    "buchi.kdis": _kdis,
    "buchi.iba_lasso_eval": _iba_lasso_eval,
    "mc.build_product": _build_product,
    "mc.solve_values": _solve_values,
}
