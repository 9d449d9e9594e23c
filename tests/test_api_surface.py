"""The names other code looks up by string: every function the benchmark
tracer wraps, and every name a module lists in ``__all__``.  A refactor
that moves or renames one of them fails here instead of in
``perfbench/run.py --trace 1``; one that breaks a workload verdict fails
the benchmark's own self-test, which runs here too."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import imagebinary

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_modules():
    return [
        importlib.import_module("imagebinary." + info.name)
        for info in pkgutil.iter_modules(imagebinary.__path__)
    ]


def test_every_traced_name_resolves():
    traced = load_tracer().TRACED
    assert traced
    for module, cls, fn in traced:
        owner = importlib.import_module("imagebinary." + module)
        if cls is not None:
            owner = getattr(owner, cls)
            # the tracer patches the class's own attribute
            assert fn in vars(owner), (module, cls, fn)
        assert callable(getattr(owner, fn)), (module, cls, fn)


def test_every_listed_name_exists():
    modules = package_modules()
    assert {m.__name__ for m in modules} >= {"imagebinary.buchi", "imagebinary.mc"}
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


def test_package_does_not_import_numpy():
    """Every decision is exact; numpy serves only the test oracles.  A
    fresh interpreter, since the test process may have numpy loaded."""
    code = (
        "import importlib, pkgutil, sys, imagebinary\n"
        "for info in pkgutil.iter_modules(imagebinary.__path__):\n"
        "    importlib.import_module('imagebinary.' + info.name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    src = str(Path(imagebinary.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_benchmark_selftest_passes():
    """``python3 perfbench/selftest.py``: every workload verdict matches its
    reference, corrupted references are caught, and a traced pass reports
    every per-layer metric of BENCHMARK.json."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
