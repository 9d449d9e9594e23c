"""Benchmark of imagebinary: time to a correct verdict on three workloads.

    python3 perfbench/run.py --workload words --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload runs in its own process as one closed-loop client with no
threads: it sends the next job once the previous one has its verdict.
The package is imported from ``src`` of the checkout this file lives
in; the benchmark itself needs only the standard library.

A plan, drawn from the seed, chooses the inputs; it is not timed.
Set-up (import, building the input documents, the kdis runs of
``modelcheck`` and a warm-up) is repeated ``SETUP_REPEATS`` times and
``setup_s`` is its median, scaled like the job times (see ``Loop``).
References are then computed by ``reference.py`` and never timed.  With
``--trace 0`` the loop runs passes over the job list until the jobs' own
time reaches ``--seconds`` and reports the end-to-end metrics over each
job's median time over the passes, with times scaled to the machine's
reference speed (see ``Loop``).  With ``--trace 1`` it runs one
untraced pass and then the same pass with every layer function wrapped
in spans, and reports the per-layer metrics; the counts of a traced run
depend only on the seed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A wrong answer or an unexpected
error makes the exit code 1; a checkout without the package makes it 2.
Per-run details (provenance, job counts per kind, the tail percentile,
failures, layer times, references) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
PROBE_EVERY_S = 0.05
PROBE_RUNS = 3
PROBE_REF_S = 0.0011  # probe_time() on an idle 2-core Xeon KVM guest, Python 3.11
PACKAGE_MODULES = ("errors", "fields", "matrix", "graphs", "wa", "ifa", "mod2",
                   "buchi", "mc", "formats", "fixtures")

sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "correct_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The package cannot be imported from this checkout."""


def import_package():
    """Import imagebinary afresh from the checkout's src directory (the
    import is part of set-up, so earlier copies are dropped first)."""
    for name in [n for n in sys.modules if n == "imagebinary" or n.startswith("imagebinary.")]:
        del sys.modules[name]
    if not (SRC / "imagebinary" / "__init__.py").is_file():
        raise SetupError("no package at %s" % (SRC / "imagebinary"))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("imagebinary")
    if Path(pkg.__file__).resolve().parent != SRC / "imagebinary":
        raise SetupError("imported imagebinary from %s, not from the checkout" % pkg.__file__)
    return types.SimpleNamespace(**{m: importlib.import_module("imagebinary." + m)
                                    for m in PACKAGE_MODULES})


def set_up(workload, plan):
    """Import, build the job list from the plan and warm up on the
    smallest job of each kind.  Returns (modules, jobs, seconds taken)."""
    t0 = perf_counter()
    ib = import_package()
    jobs = workloads.WORKLOADS[workload][1](ib, plan)
    for i, job in enumerate(jobs):
        job.id = i
    state = {}
    for kind in sorted({job.kind for job in jobs}):
        job = min((j for j in jobs if j.kind == kind), key=job_size)
        if job.group is not None and job.group not in state:
            # a lasso query runs on the output of its acceptor's kdis job
            workloads.execute(ib, next(j for j in jobs if j.group == job.group), state)
        workloads.execute(ib, job, state)
    return ib, jobs, perf_counter() - t0


def job_size(job):
    """Size of a job's input documents: the warm-up uses the smallest job
    of each kind, so that it costs about the same for every seed."""
    return sum(len(v) for v in job.data.values() if isinstance(v, str))


def compute_references(jobs):
    for job in jobs:
        job.ref = job.reference(job)


def verdict(job, answer):
    """Does the answer match the reference?  A check that raises counts
    as a mismatch."""
    if answer[0] == "error":
        return False
    try:
        return bool(job.check(job, answer))
    except Exception:  # a malformed answer must read as wrong, not crash the run
        return False


def probe():
    """Fixed pure-Python work in the package's style (exact rational
    elimination on a 7 x 8 matrix, then dict and tuple traffic); its time
    tracks the speed of the machine, not of the package."""
    n = 7
    rows = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(n)] + [Fraction(i + 1)]
            for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    seen = {}
    for i in range(400):
        key = (i % 13, i % 7)
        seen[key] = seen.get(key, 0) + 1
    return rows, seen


def probe_time():
    """Fastest of PROBE_RUNS probe runs, in seconds."""
    best = None
    for _ in range(PROBE_RUNS):
        t0 = perf_counter()
        probe()
        dt = perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


class Loop:
    """Runs jobs in list order, wrapping around, and records each job's
    time and verdict.  Verdicts are cached per (job, answer), so passes
    after the first cost no checking.

    The speed of a 2-core Xeon KVM guest drifts by up to 2x, over tenths
    of a second and over minutes, with no load of its own: one job took
    74 ms and 140 ms within a minute, and back-to-back 0.16 s blocks of
    ``probe`` calls ranged from 0.12 s to 0.22 s, in CPU time as in wall
    time.  Probing every 0.5 s left the median job time of one seed
    spreading by 11% between runs; every 0.05 s, by 4%.  So the loop times
    ``probe`` after every PROBE_EVERY_S of job time, and ``typical``
    keeps each job's median time over the passes, scaled to the machine's
    reference speed: dt * PROBE_REF_S / (mean of the two probes around
    the job).  The median, unlike the fastest pass, does not pick the
    probe's luckiest misreading, and does not fall as a faster machine
    state fits more passes into the run.  The unscaled figures are kept
    in the per-run report."""

    def __init__(self, ib, jobs):
        self.ib = ib
        self.jobs = jobs
        self.state = {}
        self.verdicts = {}
        self.runs = []  # (job id, seconds, index of the probe before it)
        self.probes = []
        self.attempted = 0
        self.kinds = {}
        self.failures = []
        self.next = 0

    def typical(self, scaled=True):
        """{job id: median time}, scaled to the reference speed or raw."""
        out = {}
        for job_id, dt, k in self.runs:
            if scaled:
                dt *= PROBE_REF_S / ((self.probes[k] + self.probes[k + 1]) / 2)
            out.setdefault(job_id, []).append(dt)
        return {job_id: statistics.median(v) for job_id, v in out.items()}

    def run(self, count=None, seconds=None, tracer=None):
        busy = since_probe = 0.0
        done = 0
        self.probes.append(probe_time())
        while (count is None or done < count) and (seconds is None or busy < seconds):
            job = self.jobs[self.next % len(self.jobs)]
            self.next += 1
            t0 = perf_counter()
            if tracer is None:
                answer = workloads.execute(self.ib, job, self.state)
            else:
                answer = tracer.call("job." + job.kind, workloads.execute, self.ib, job, self.state)
            dt = perf_counter() - t0
            busy += dt
            since_probe += dt
            done += 1
            self.attempted += 1
            self.runs.append((job.id, dt, len(self.probes) - 1))
            if since_probe >= PROBE_EVERY_S:
                self.probes.append(probe_time())
                since_probe = 0.0
            self.kinds[job.kind] = self.kinds.get(job.kind, 0) + 1
            key = (job.id, answer)
            ok = self.verdicts.get(key)
            if ok is None:
                ok = self.verdicts[key] = verdict(job, answer)
            if not ok:
                self.failures.append({"job": job.id, "kind": job.kind, "answer": repr(answer)[:300],
                                      "reference": repr(job.ref)[:300]})
        self.probes.append(probe_time())
        return busy


def tail(times):
    """Time of the job with ten slower ones beyond it, and its percentile."""
    ordered = sorted(times)
    n = len(ordered)
    idx = max(0, n - 11)
    return ordered[idx], 100.0 * (idx + 1) / n


def git_rev():
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref_path = ROOT / ".git" / text[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + text[5:]):
                    return line.split()[0]
        return text
    except OSError:
        return "unknown (not a git checkout)"


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "imagebinary").glob("*.py")))


def workload_reason(workload):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    except (OSError, ValueError, KeyError, StopIteration):
        return ""


def run_workload(workload, seed, seconds, trace):
    plan = workloads.WORKLOADS[workload][0](import_package(), random.Random(seed))
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        before = probe_time()
        ib, jobs, dt = set_up(workload, plan)
        raw_setups.append(dt)
        setups.append(dt * PROBE_REF_S / ((before + probe_time()) / 2))
    compute_references(jobs)
    pool_kinds = {}
    for job in jobs:
        pool_kinds[job.kind] = pool_kinds.get(job.kind, 0) + 1

    loop = Loop(ib, jobs)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "why": workload_reason(workload), "git_rev": git_rev(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "src_imagebinary_lines": src_lines(),
        "client": "one closed-loop client, no threads",
        "jobs_per_pass": len(jobs), "jobs_per_pass_by_kind": pool_kinds,
        "setup_s_runs": setups, "raw_setup_s_runs": raw_setups,
    }
    if trace:
        untraced = loop.run(count=len(jobs))
        loop.next = 0
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = loop.run(count=len(jobs), tracer=tr)
        finally:
            tr.uninstall()
        metrics = tr.metrics(traced / untraced)
        job_s = sum(tr.incl_s[n] for n in tr.names if n.startswith("job."))
        report["layers"] = {
            n: {"calls": tr.calls[n], "self_s": tr.self_s[n], "inclusive_s": tr.incl_s[n],
                "inclusive_share": tr.incl_s[n] / job_s}
            for n in sorted(tr.names, key=lambda n: -tr.incl_s[n])
        }
        by_layer = {}
        for n in tr.names:
            layer = "untraced" if n.startswith("job.") else n.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + tr.self_s[n] / job_s
        report["self_share_by_layer"] = dict(sorted(by_layer.items(), key=lambda kv: -kv[1]))
        report["curve_calls"] = tr.curve_table()
        report["traced_s"], report["untraced_s"] = traced, untraced
        OUT.mkdir(exist_ok=True)
        tr.write_spans(OUT / ("spans-%s-%d.tsv.gz" % (workload, seed)))
    else:
        busy = loop.run(seconds=seconds)
        times = list(loop.typical().values())
        raw = list(loop.typical(scaled=False).values())
        tail_s, tail_pct = tail(times)
        failed_frac = len(loop.failures) / loop.attempted
        values = {
            "jobs_per_s": (1.0 - failed_frac) * len(times) / sum(times),
            "job_p50_ms": statistics.median(times) * 1000.0,
            "job_tail_ms": tail_s * 1000.0,
            "correct_frac": 1.0 - failed_frac,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        report.update({
            "busy_s": busy, "passes": loop.attempted / len(jobs), "distinct_jobs_timed": len(times),
            "tail_percentile": tail_pct, "jobs_beyond_tail": len(times) - 1 - max(0, len(times) - 11),
            "failed_frac": failed_frac,
            "probe_ref_s": PROBE_REF_S, "probe_median_s": statistics.median(loop.probes),
            "raw_job_p50_ms": statistics.median(raw) * 1000.0,
            "raw_jobs_per_s": (1.0 - failed_frac) * len(raw) / sum(raw),
            "raw_job_tail_ms": tail(raw)[0] * 1000.0,
        })
    report.update({
        "attempted": loop.attempted, "failed": len(loop.failures),
        "attempted_by_kind": loop.kinds, "failures": loop.failures[:20],
        "references": {"seed": seed, "answers": {job.id: repr(job.ref) for job in jobs}},
    })
    OUT.mkdir(exist_ok=True)
    path = OUT / ("report-%s-%d-trace%d.json" % (workload, seed, trace))
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return report, metrics


def print_result(report, metrics):
    w = report["workload"]
    for name, (value, unit) in metrics.items():
        print("%s %s %.6g %s" % (w, name, value, unit))
    if "tail_percentile" in report:
        print("%s job_tail_ms is p%.2f of %d distinct jobs (%d beyond it); failed_frac %.6g"
              % (w, report["tail_percentile"], report["distinct_jobs_timed"], report["jobs_beyond_tail"],
                 report["failed_frac"]))
    if "layers" in report:
        top = [(n, v["inclusive_share"]) for n, v in report["layers"].items() if not n.startswith("job.")]
        print("%s inclusive share of job time: %s" % (w, ", ".join("%s %.1f%%" % (n, 100 * v) for n, v in top[:8])))
        print("%s self share by layer: %s" % (w, ", ".join(
            "%s %.1f%%" % (n, 100 * v) for n, v in report["self_share_by_layer"].items())))
    print("%s provenance: rev %s, nproc %s, python %s, seed %d, src/imagebinary %d lines, jobs per pass %s"
          % (w, report["git_rev"][:12], report["nproc"], report["python"], report["seed"],
             report["src_imagebinary_lines"], report["jobs_per_pass_by_kind"]))
    for f in report["failures"][:5]:
        print("%s FAILED job %s (%s): got %s, reference %s" % (w, f["job"], f["kind"], f["answer"], f["reference"]))


def run_all(seed, seconds, trace):
    """Each workload in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            return proc.returncode or 1
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"]["%s.%s" % (w, name)] = m
    print(json.dumps(total))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        report, metrics = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        sys.stderr.write("perfbench: %s\n" % (exc,))
        return 2
    print_result(report, metrics)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
