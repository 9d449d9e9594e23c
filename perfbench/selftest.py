"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For each workload it runs one pass over a small seeded job list and
requires every verdict to match its reference, then corrupts one
reference per job kind and requires the check to catch it, both for the
single verdict and for a whole pass.  It also runs one traced pass and
requires every per-layer metric that BENCHMARK.json lists, and checks
that the end-to-end metrics match BENCHMARK.json.  Exit code 0 when all
of this holds.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SCALES = {"words": 1 / 12, "lassos": 1 / 6, "modelcheck": 1 / 10}


def corrupt(value):
    """A reference that no correct answer can match."""
    if isinstance(value, tuple):
        if len(value) == 1:
            return ("corrupted",)
        return value[:-1] + (corrupt(value[-1]),)
    if isinstance(value, int):
        return -1
    return str(value) + "?"


def build(name, seed):
    ib = run.import_package()
    plan = workloads.WORKLOADS[name][0](ib, random.Random(seed), scale=SCALES[name])
    jobs = workloads.WORKLOADS[name][1](ib, plan)
    for i, job in enumerate(jobs):
        job.id = i
    run.compute_references(jobs)
    return ib, jobs


def check_workload(name, seed, problems):
    ib, jobs = build(name, seed)
    loop = run.Loop(ib, jobs)
    loop.run(count=len(jobs))
    for f in loop.failures:
        problems.append("%s: job %s (%s) got %s, reference %s"
                        % (name, f["job"], f["kind"], f["answer"], f["reference"]))
    answers = {job_id: answer for (job_id, answer) in loop.verdicts}
    kinds = sorted({job.kind for job in jobs})
    for kind in kinds:
        job = next(j for j in jobs if j.kind == kind)
        good = job.ref
        job.ref = corrupt(good)
        if run.verdict(job, answers[job.id]):
            problems.append("%s: corrupted %s reference %r was not caught" % (name, kind, job.ref))
        again = run.Loop(ib, jobs)
        again.run(count=len(jobs))
        if [f["job"] for f in again.failures] != [job.id]:
            problems.append("%s: a pass with a corrupted %s reference reported failures %s"
                            % (name, kind, [f["job"] for f in again.failures]))
        job.ref = good
    print("%s: %d jobs, kinds %s, %d failures; corrupted references caught for %d kinds"
          % (name, len(jobs), kinds, len(loop.failures), len(kinds)))
    return ib, jobs


def check_trace(name, ib, jobs, listed, problems):
    loop = run.Loop(ib, jobs)
    tr = tracing.Tracer()
    tr.install()
    try:
        loop.run(count=len(jobs), tracer=tr)
    finally:
        tr.uninstall()
    metrics = tr.metrics(1.0)
    if set(metrics) != listed:
        problems.append("%s: traced metrics differ from BENCHMARK.json: %s"
                        % (name, sorted(set(metrics) ^ listed)))
    if loop.failures:
        problems.append("%s: traced pass failed %d jobs" % (name, len(loop.failures)))
    if any(getattr(f, "__wrapped__", None) for f in vars(ib.buchi).values()):
        problems.append("%s: tracer left wrappers installed" % name)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [m["name"] for m in spec["end_to_end"]] != list(run.END_TO_END):
        problems.append("end_to_end metrics differ from BENCHMARK.json")
    listed = [m["name"] for m in spec["per_layer"]]
    if listed != [name for name, _u, _b in tracing.per_layer_metrics()]:
        problems.append("per_layer metrics differ from BENCHMARK.json")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("workloads differ from BENCHMARK.json")
    for name in workloads.WORKLOADS:
        ib, jobs = check_workload(name, 7, problems)
        check_trace(name, ib, jobs, set(listed), problems)
    for p in problems:
        print("PROBLEM:", p)
    print("selftest %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
