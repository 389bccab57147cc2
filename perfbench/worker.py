"""One pass over a workload's job list, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

run.py starts one worker per pass, with the load pinned in its
environment, so that every pass pays what a CLI invocation pays and its
peak RSS is its own. The worker prints one JSON line: the pass's wall and
CPU time, the job outcomes, the process's peak RSS and, when traced, the
per-layer metrics and the budget-probe result. A traced worker runs the
traced pass and then, untimed, a memory pass for the tracemalloc peaks.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_pass(jobs, tracer=None) -> dict:
    """Run and check every job; a job that raises or fails its check is
    recorded with its problem, and the pass goes on."""
    outcomes = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.begin_job()
        t0, c0 = time.perf_counter(), time.process_time()
        output_bytes = 0
        try:
            result = job.run()
            output_bytes = len(getattr(result, "out", b""))  # captured CLI stdout
            problem = job.check(result)
        except Exception as exc:  # the failure is the job's result
            problem = f"{type(exc).__name__}: {exc}"
        outcomes.append(
            {
                "job": job.name,
                "wall_s": time.perf_counter() - t0,
                "cpu_s": time.process_time() - c0,
                "problem": problem,
                "output_bytes": output_bytes,
            }
        )
    return {
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
        "jobs": outcomes,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import sievelab.cli

    import_s = time.perf_counter() - t0
    import numpy
    import scipy

    src = (ROOT / "src").resolve()
    if not Path(sievelab.cli.__file__).resolve().is_relative_to(src):
        print(f"sievelab was imported from {sievelab.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    import jobs
    import spans

    job_list = jobs.build(args.workload, args.seed)
    record: dict = {"import_s": import_s}
    tracer = None
    if args.trace:
        record["budget_refusals"], record["refusal_stderr"] = jobs.budget_probe()
        tracer = spans.Tracer()
        restore = spans.install(tracer)
    record.update(run_pass(job_list, tracer))
    if tracer is not None:
        restore()
        spans.install(tracer, memory=True)
        record["memory_jobs"] = run_pass(job_list)["jobs"]
        layers = tracer.layer_metrics()
        layers["cli.output_bytes"] = sum(j["output_bytes"] for j in record["jobs"])
        layers["trace.harness_s"] = record["wall_s"] - tracer.root_covered()
        record["layers"] = layers
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
