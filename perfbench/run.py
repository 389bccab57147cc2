"""sievelab benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports sievelab from `src/`.

Workloads (job lists in jobs.py):
  sieve-window  large weight windows through `sieve` and `goldbach-scan`
  crosscheck    the oracle replays: per-n weights, scans, Monte Carlo
  prime-tables  prime correlation kernels and large CSV outputs

A run starts fresh worker processes, one pass over the job list each,
while the next pass still fits in --seconds, so every pass pays what a CLI
invocation pays. With --trace 0 every pass is untraced and the run reports
the medians over passes of wall_s, cpu_s and peak_rss_mb, and setup_s, the
median time of a fresh-process `import sievelab.cli` (each worker times
its own; separate imports top the samples up to SETUP_SAMPLES). With
--trace 1 untraced and traced passes alternate, at least one of each; the
traced ones give the per-layer metrics (medians), and trace.overhead_s is
their median wall time minus the untraced one. Each traced worker then
runs an untimed memory pass for the tracemalloc peaks, and the budget
probe runs outside both.

Which end-to-end metric each layer metric should move (elsewhere: none):
  sieve.moment_sums, sieve.weight_array, primes.sieve_range self_s
      -> wall_s, cpu_s on sieve-window
  sieve.lambda_tuples.repeat_calls, primes.sieve_range.repeat_cells,
  sieve.naive_weight.self_s, variational.*.self_s -> wall_s on crosscheck
  primes.goldbach_numbers.*, primes.gap_counts.*, reportio.csv_lines.*,
  cli.main.self_s -> wall_s, peak_rss_mb on prime-tables
  setup.scipy_import_s -> setup_s

Every job checks its result. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it records
the environment and ops_failed_frac. Per-pass detail goes to
perfbench/out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("sieve-window", "crosscheck", "prime-tables")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "primes.sieve_range.calls": "count",
    "primes.sieve_range.self_s": "s",
    "primes.sieve_range.cells": "count",
    "primes.sieve_range.repeat_cells": "count",
    "primes.goldbach_numbers.self_s": "s",
    "primes.goldbach_numbers.peak_mb": "MB",
    "primes.gap_counts.self_s": "s",
    "primes.gap_counts.pair_tests": "count",
    "primes.normalized_gaps.self_s": "s",
    "sieve.lambda_tuples.calls": "count",
    "sieve.lambda_tuples.self_s": "s",
    "sieve.lambda_tuples.tuples": "count",
    "sieve.lambda_tuples.repeat_calls": "count",
    "sieve.weight_array.calls": "count",
    "sieve.weight_array.self_s": "s",
    "sieve.weight_array.grid_points": "count",
    "sieve.moment_sums.calls": "count",
    "sieve.moment_sums.self_s": "s",
    "sieve.moment_sums.peak_mb": "MB",
    "sieve.weight.calls": "count",
    "sieve.weight.self_s": "s",
    "sieve.naive_weight.calls": "count",
    "sieve.naive_weight.self_s": "s",
    "sieve.goldbach_window_scan.calls": "count",
    "sieve.goldbach_window_scan.self_s": "s",
    "sieve.tao_domination_check.self_s": "s",
    "sieve.budget_refusals": "count",
    "variational.simplex_mc_integrals.self_s": "s",
    "variational.simplex_mc_integrals.samples": "count",
    "variational.fourier_kernel_check.self_s": "s",
    "variational.projection_ratio_exact.self_s": "s",
    "tuples.surfing.self_s": "s",
    "tuples.mirror_union.calls": "count",
    "graphs.empirical_polignac_density.self_s": "s",
    "cells.scan_singleton_cells.self_s": "s",
    "cells.scan_singleton_cells.positions": "count",
    "reportio.csv_lines.self_s": "s",
    "reportio.csv_lines.rows": "count",
    "reportio.csv_lines.peak_mb": "MB",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "setup.scipy_import_s": "s",
    "trace.overhead_s": "s",
    "trace.harness_s": "s",
}

SETUP_SAMPLES = 5  # each untraced worker gives one; the rest run alone
SCIPY_SAMPLES = 3
# The BLAS calls here are small: a second BLAS thread cost fourier_kernel_check
# 40-120% more CPU time with no steady gain in wall time.
BLAS_THREADS = 1
DEADLINE_S = 170  # a run must end within 180 s
IMPORT_TIMEOUT_S = 60

IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import sievelab.cli; "
    "print(time.perf_counter() - t)"
)


def pinned_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("WORKBENCH_THREADS", None)  # every sieve job passes --threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def scipy_import_s(importtime_log: str) -> float:
    """Seconds spent in scipy's own modules, from `python -X importtime`."""
    total_us = 0
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the column header
        name = fields[2].strip()
        if name == "scipy" or name.startswith("scipy."):
            total_us += int(fields[0])
    return total_us / 1e6


def time_setup(env: dict, importtime: bool) -> float:
    """One fresh-process import of sievelab.cli: its seconds, or with
    importtime the seconds spent importing scipy."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    proc = subprocess.run(
        cmd + ["-c", IMPORT_TIMER], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=IMPORT_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import sievelab.cli failed:\n{proc.stderr[-2000:]}")
    return scipy_import_s(proc.stderr) if importtime else float(proc.stdout)


def run_worker(workload: str, seed: int, traced: bool, env: dict, timeout: float) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(int(traced))],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["traced"] = traced
    record["process_s"] = time.perf_counter() - t0
    return record


def measure(workload, seed, seconds, kinds, env, deadline) -> list[dict]:
    """Run passes, cycling through `kinds` (traced or not), while the next
    one, judged by the last pass of its kind, still ends within `seconds`.
    Every kind runs at least once."""
    passes: list[dict] = []
    last: dict[bool, float] = {}
    start = time.perf_counter()
    for i in itertools.count():
        traced = kinds[i % len(kinds)]
        elapsed = time.perf_counter() - start
        if i >= len(kinds) and elapsed + last[traced] > seconds:
            break
        record = run_worker(workload, seed, traced, env, deadline - time.perf_counter())
        last[traced] = record["process_s"]
        passes.append(record)
    return passes


def tally(passes: list[dict]) -> tuple[int, int, list[str]]:
    """Jobs attempted and failed over all passes, with the problems."""
    outcomes = [job for p in passes for job in p["jobs"] + p.get("memory_jobs", [])]
    problems = [f"{j['job']}: {j['problem']}" for j in outcomes if j["problem"]]
    return len(outcomes), len(problems), problems


def layer_medians(traced_passes: list[dict]) -> dict[str, float]:
    """Median over traced passes of each per-layer value; absent is 0."""
    return {
        name: statistics.median(p["layers"].get(name, 0) for p in traced_passes)
        for name in PER_LAYER
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "sievelab" / "__init__.py").is_file():
        print(f"no sievelab sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    env = pinned_env()
    traced_run = bool(args.trace)

    try:
        time_setup(env, False)  # untimed: writes bytecode, warms the file cache
        if traced_run:
            setup = [time_setup(env, True) for _ in range(SCIPY_SAMPLES)]
        kinds = [False, True] if traced_run else [False]
        passes = measure(args.workload, args.seed, args.seconds, kinds, env, deadline)
        if not traced_run:
            setup = [p["import_s"] for p in passes]
            setup += [time_setup(env, False) for _ in range(SETUP_SAMPLES - len(setup))]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if traced_run:
        values = layer_medians(traced)
        values["setup.scipy_import_s"] = statistics.median(setup)
        values["trace.overhead_s"] = statistics.median(
            p["wall_s"] for p in traced
        ) - statistics.median(p["wall_s"] for p in plain)
        values["sieve.budget_refusals"] = traced[0]["budget_refusals"]
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END
    attempted, failed, problems = tally(passes)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        **passes[0]["versions"],
        "ops_failed_frac": failed / attempted,
        "problems": problems[:10],
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    sidecar = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    sidecar.write_text(
        json.dumps({"info": info, "setup": setup, "metrics": values, "passes": passes}, indent=1)
    )
    info["sidecar"] = str(sidecar.relative_to(ROOT))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
