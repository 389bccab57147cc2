"""The benchmark's workloads: job lists, each job with its correctness check.

A job is a call into sievelab's public functions, either a library call or
a `cli.main` invocation with its stdout and stderr captured. Its check
returns None when the result is right, else a one-line reason. Module
attributes (`sieve.weight`, `cli.main`) are looked up at call time so that
the traced pass sees the wrapped functions.

Every workload ends with `light_touch`: small calls into every layer, so
that each per-layer span exists on every workload while the main jobs carry
the weight of the workload's own layers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from sievelab import cli, primes, sieve, tuples, variational
from sievelab.variational import KernelParams

# sha256 of the output bytes at the commit that introduced this benchmark.
# `sieve` keys leave out --threads: the bytes must not depend on it. Every
# offset difference of these tuples has only prime factors <= w_bound = 7,
# so tightening the weight's support to pairwise-coprime tuples cannot move
# them.
DIGESTS = {
    "sieve --N 2e7 --delta 0.25 --tuple 0,2,6 --base 1.1 --slope 3 --cutoff 2.9":
        "7688dc5bfa824d37436e1421d68f4c0229c50d1dfacefd7bae9f8e70cec00f28",
    "sieve --N 2e7 --delta 0.25 --tuple 0,2,6 --base 1.1 --slope 3 --cutoff 2.9 --unrestricted":
        "ea01827d63b5860b3374bfd008bc169874f870b02a60480895dc7583a8883502",
    "sieve --N 2e7 --delta 0.39 --tuple 0,2,6,8 --base 1.1 --slope 3 --cutoff 3.8 --unrestricted":
        "a82faa155ab4b9b232608517e209819fa5db1443bce10a15428409e5d757aee3",
    "sieve --N 2e7 --delta 0.33 --tuple 0,4,6,10,12,16 --base 1.1 --slope 3 --cutoff 5.7 --unrestricted":
        "1f40224e847fbe531579c414f8632d896d73c23f64885ee227e41d7ac904b3ee",
    "sieve --N 2e5 --delta 0.25 --tuple 0,2,6 --base 1.1 --slope 3 --cutoff 2.9":
        "c52cb3fef18a64cb9cc0d36c1704c16fc5af3513c2564da04b68d4e30c2b03e2",
    "primes --limit 1e6 --goldbach-gaps":
        "4b208ee7a376925ce5f25a9f00872514d9f90bed5f249d1ad6683965bf3084aa",
    "primes --limit 2e6 --normalized-gaps":
        "d4141a072edda328149c309e6a61afdd5d3a30e548e6ee746bc12bd99a135b44",
    "primes --limit 2e7 --stats":
        "a5a76604d5cba5ebcd22c89fb6e67b6c91ac73ecad8dcdcd550bcd055323791e",
    "primes --limit 1e6 --gap-counts --max-diff 1e4":
        "7ffac34eee383fec70638d31c7463ee39fe29f063179fe74b6cc3beaf23b20f6",
    "density --limit 1e6 --max-diff 1e4":
        "b0d0662f508d26bb2bd2caa98fc45f57799045b938c8d8ab1c84622b4444f7dc",
    "gaps --tuple 0,2,6,8,12,18,20,26 --theta 0.667 --lo 3 --hi 1e6 --min-singletons 2":
        "099ce6c0e14c40fef0af2a8aebc50695ea48edf9b17149a4d9902f22d5399146",
    "primes --limit 2e4 --goldbach-gaps":
        "3116dc84fce34345179fbc68c3f4264c98a77f5f332d0634c7214ecc47c72732",
    "primes --limit 2e4 --normalized-gaps":
        "3c02abe42b560028e86d91c60d60095e5a320ab0a3f9dfff2e7d4d0d9e256d6e",
    "density --limit 2e4 --max-diff 200 --format csv":
        "3bc9b43361e0669441261ae60f29e619507625089d11d0968e85f6dfb5ef3724",
    "gaps --tuple 0,2,6,8,12,18,20,26 --theta 0.667 --lo 3 --hi 2e4 --min-singletons 2":
        "ea125a24f2fd403a86689478a4b0f477890e46f2d5602c96eafde0428cf262e5",
    # sha256 of goldbach_gaps(5e6).values as little-endian int64
    "goldbach_gaps(5e6)":
        "65ab6cf54c7a08b665dd23eeae390f06297fdfaf8d098bfb34d7f054e5dc081b",
}

# projection_ratio_exact at this commit; quadrature is deterministic
PROJECTION_RATIO = {2: 0.6816760110242613, 3: 0.5419119167486731}

# ROADMAP configs that the tuple-count budget refuses with exit code 3
REFUSED = (
    "sieve --N 1e7 --delta 0.45 --tuple 0,4,6,10,16,22,24,30 --threads 1",
    "sieve --N 1e7 --delta 0.45 --tuple 0,4,6,10,12,16 --threads 1",
)


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass(frozen=True)
class CliRun:
    code: int
    out: bytes
    err: str


def run_cli(argv: str) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv.split())
    return CliRun(code, out.getvalue().encode(), err.getvalue())


def _exit_problem(r: CliRun) -> str | None:
    if r.code != 0:
        tail = r.err.strip().splitlines()[-1:] or [""]
        return f"exit code {r.code}: {tail[0]}"
    return None


def _digest_problem(key: str, data: bytes) -> str | None:
    got = hashlib.sha256(data).hexdigest()
    if got != DIGESTS[key]:
        return f"output sha256 {got[:16]} differs from the recorded {DIGESTS[key][:16]}"
    return None


def cli_job(argv: str, threads: int | None = None) -> Job:
    """A CLI job whose output bytes must match the recorded digest."""
    full = argv if threads is None else f"{argv} --threads {threads}"

    def check(r: CliRun):
        return _exit_problem(r) or _digest_problem(argv, r.out)

    return Job(full, lambda: run_cli(full), check)


def goldbach_scan_job(argv: str) -> Job:
    """Mirrored offsets break the small-prime property, so ROADMAP item 3
    may move these bytes; check the split and Cauchy-Schwarz instead."""

    def check(r: CliRun):
        problem = _exit_problem(r)
        if problem:
            return problem
        res = json.loads(r.out)["result"]
        if res["witness_count"] < 1 or not res["cs_holds"]:
            return f"witness_count {res['witness_count']}, cs_holds {res['cs_holds']}"
        return None

    return Job(argv, lambda: run_cli(argv), check)


# --- library jobs -----------------------------------------------------------


def _acceptance_weight_config(rng: random.Random, k: int) -> sieve.SieveConfig:
    """The acceptance-01 config generator."""
    menu = {
        1: [(0,)],
        2: [(0, 2), (0, 4), (0, 6)],
        3: [(0, 2, 6), (0, 4, 6), (0, 2, 8)],
    }
    while True:
        N = rng.randrange(5000, 200001)
        delta = rng.uniform(0.18, 0.45)
        if int(N**delta) < 4:
            continue
        params = KernelParams(
            k=k,
            base=rng.uniform(1.01, 1.8),
            slope=rng.uniform(0.5, 8.0),
            cutoff=rng.uniform(0.4 * k, 1.2 * k),
        )
        cfg = sieve.make_config(
            N, delta=delta, offsets=rng.choice(menu[k]), params=params, strict=False
        )
        if len(sieve.lambda_tuples(cfg)) >= 2:
            return cfg


def weight_job(name: str, cfg: sieve.SieveConfig, n_max: int) -> Job:
    """`weight` against the `naive_weight` oracle for n in [1, n_max]."""

    def run():
        table = primes.sieve_range(1, n_max + 32, want_spf=True)
        worst = 0.0
        for n in range(1, n_max + 1):
            fast = sieve.weight(cfg, n, table=table)
            slow = sieve.naive_weight(cfg, n)
            worst = max(worst, abs(fast - slow))
        return worst

    return Job(name, run, lambda worst: None if worst <= 1e-12 else f"max |diff| {worst:.3g}")


def _scan_config() -> sieve.SieveConfig:
    """The acceptance-09 config."""
    return sieve.make_config(
        10**4, delta=0.25, offsets=(0, 2),
        params=KernelParams(k=2, base=1.01, slope=1.0, cutoff=2.0), strict=False,
    )


def goldbach_sweep_job(name: str, targets: range) -> Job:
    def run():
        cfg = _scan_config()
        return [N for N in targets if sieve.goldbach_window_scan(cfg, N=N).witness_count < 1]

    return Job(name, run, lambda missing: f"no witness for {missing[:5]}" if missing else None)


def _swap_config() -> sieve.SieveConfig:
    """The acceptance-05 config."""
    return sieve.make_config(
        50000, delta=0.45, offsets=(0, 2, 6),
        params=KernelParams(k=3, base=1.1, slope=3.0, cutoff=2.9), strict=False,
    )


def tao_job(name: str, hi: int) -> Job:
    """The acceptance-05 profile swap over n in [1, hi]."""

    def run():
        alt = KernelParams(k=3, base=1.4, slope=5.0, cutoff=1.8)
        return sieve.tao_domination_check(_swap_config(), alt, 0, 2, 1, hi)

    def check(rep):
        if rep.n_scanned != hi or rep.n_checked < 1:
            return f"scanned {rep.n_scanned}, checked {rep.n_checked}"
        if rep.violations or rep.max_abs_diff != 0.0:
            return f"{rep.violations} violations, max |diff| {rep.max_abs_diff:.3g}"
        return None

    return Job(name, run, check)


def mc_tails_job(name: str, ks: range, n_samples: int, seed: int) -> Job:
    """Monte Carlo tails stay below the closed-form bounds within 3 stderr."""

    def run():
        bad = []
        for k in ks:
            p = KernelParams(k=k, base=2.0, slope=8.0 * k, cutoff=0.5)
            b1, b2 = variational.tail_bounds_absolute(p)
            mc = variational.simplex_mc_integrals(p, n_samples, seed=seed)
            if mc.tail1.value > b1 + 3 * mc.tail1.stderr:
                bad.append((k, "tail1"))
            if mc.tail2.value > b2 + 3 * mc.tail2.stderr:
                bad.append((k, "tail2"))
        return bad

    return Job(name, run, lambda bad: f"tail bound violations {bad}" if bad else None)


def projection_job(k: int) -> Job:
    params = {
        2: KernelParams(k=2, base=1.01, slope=1.0, cutoff=2.0),
        3: KernelParams(k=3, base=1.01, slope=1.0, cutoff=3.0),
    }[k]

    def check(ratio):
        want = PROJECTION_RATIO[k]
        if abs(ratio - want) > 1e-9 * abs(want):
            return f"ratio {ratio!r} differs from the recorded {want!r}"
        return None

    return Job(f"projection_ratio_exact(k={k})", lambda: variational.projection_ratio_exact(params), check)


def fourier_job(n_samples: int, tolerance: float) -> Job:
    def check(rep):
        if len(rep.entries) != 3 or not rep.all_passed:
            return "frequency-domain identity failed: " + ", ".join(
                f"{e.name} {e.abs_diff:.3g}" for e in rep.entries
            )
        return None

    return Job(
        f"fourier_kernel_check(n_samples={n_samples})",
        lambda: variational.fourier_kernel_check(n_samples=n_samples, tolerance=tolerance),
        check,
    )


def surfing_job(name: str, per_k: int, seed: int) -> Job:
    """The acceptance-07 instances: admissible union and the size recursion."""

    def run():
        rng = random.Random(seed)
        failures = 0
        for k in range(1, 5):
            size = tuples.surfing_start_size(k)
            odd = [int(p) for p in primes._small_primes(2 * k) if p > 2]
            ell, seq = size, [size]
            for p in odd:
                ell -= (2 * ell) // p
                seq.append(ell)
            for _ in range(per_k):
                picks = rng.sample(range(1, 20001), 2 * size)
                trace = tuples.surfing([2 * v for v in picks[:size]], [2 * v for v in picks[size:]], k)
                if (
                    len(trace.x) != k
                    or len(trace.y) != k
                    or set(trace.x) & set(trace.y)
                    or not tuples.is_admissible(trace.union)
                    or list(trace.ell_sequence) != seq
                ):
                    failures += 1
        return failures

    return Job(name, run, lambda failures: f"{failures} failed instances" if failures else None)


def goldbach_gaps_job() -> Job:
    key = "goldbach_gaps(5e6)"

    def check(rep):
        if rep.max_gap != 2 or int(np.diff(rep.values).max()) != rep.max_gap:
            return f"max gap {rep.max_gap}"
        return _digest_problem(key, rep.values.astype("<i8").tobytes())

    return Job(key, lambda: primes.goldbach_gaps(5 * 10**6), check)


# --- workloads ---------------------------------------------------------------

SIEVE_COMMON = "sieve --N 2e7 --delta 0.25 --tuple 0,2,6 --base 1.1 --slope 3 --cutoff 2.9"


def light_touch(seed: int) -> list[Job]:
    return [
        cli_job("primes --limit 2e4 --goldbach-gaps"),
        cli_job("primes --limit 2e4 --normalized-gaps"),
        cli_job("density --limit 2e4 --max-diff 200 --format csv"),
        cli_job("gaps --tuple 0,2,6,8,12,18,20,26 --theta 0.667 --lo 3 --hi 2e4 --min-singletons 2"),
        cli_job("sieve --N 2e5 --delta 0.25 --tuple 0,2,6 --base 1.1 --slope 3 --cutoff 2.9", threads=1),
        weight_job("weight-vs-naive(light)", _swap_config(), 100),
        goldbach_sweep_job("goldbach_window_scan(light)", range(100, 121, 2)),
        tao_job("tao_domination_check(light)", 2000),
        mc_tails_job("simplex_mc_integrals(light)", range(2, 3), 10**4, seed),
        projection_job(2),
        # the coarsest grid, 400 frequencies, truncates to about 3e-3
        fourier_job(1, 1e-2),
        surfing_job("surfing(light)", 1, seed),
    ]


def sieve_window(seed: int) -> list[Job]:
    """Window throughput of `sieve`: moment sums, weight arrays, segment
    prime masks. The inputs are fixed so their bytes can be pinned."""
    return [
        cli_job(SIEVE_COMMON, threads=1),
        cli_job(f"{SIEVE_COMMON} --unrestricted", threads=1),
        cli_job(f"{SIEVE_COMMON} --unrestricted", threads=2),
        cli_job("sieve --N 2e7 --delta 0.39 --tuple 0,2,6,8 --base 1.1 --slope 3 --cutoff 3.8 --unrestricted", threads=1),
        cli_job("sieve --N 2e7 --delta 0.33 --tuple 0,4,6,10,12,16 --base 1.1 --slope 3 --cutoff 5.7 --unrestricted", threads=1),
        goldbach_scan_job("goldbach-scan --N 4e6 --tuple 0,2,6 --base 1.1 --slope 3 --cutoff 2.9"),
    ]


def crosscheck(seed: int) -> list[Job]:
    """The oracle replays: thousands of small per-n calls into `sieve` and
    `primes`, and the Monte Carlo and quadrature of `variational`."""
    # 24 configs of 1000 points: the per-config cost follows R = N^delta,
    # and more, shorter configs keep the total steady across seeds
    rng = random.Random(seed)
    weight_jobs = [
        weight_job(f"weight-vs-naive[{i}]", _acceptance_weight_config(rng, i % 3 + 1), 1000)
        for i in range(24)
    ]
    return weight_jobs + [
        goldbach_sweep_job("goldbach_window_scan(N=100..6000)", range(100, 6001, 2)),
        tao_job("tao_domination_check(1..5e5)", 500_000),
        mc_tails_job("simplex_mc_integrals(k=2..8)", range(2, 9), 200_000, seed),
        projection_job(3),
        fourier_job(10**4, 1e-4),
        surfing_job("surfing(800)", 200, seed),
    ]


def prime_tables(seed: int) -> list[Job]:
    """Prime correlation kernels, `graphs`, `cells` and large CSV outputs.
    The inputs are fixed so their bytes can be pinned."""
    return [
        goldbach_gaps_job(),
        cli_job("primes --limit 1e6 --goldbach-gaps"),
        cli_job("primes --limit 2e6 --normalized-gaps"),
        cli_job("primes --limit 2e7 --stats"),
        cli_job("primes --limit 1e6 --gap-counts --max-diff 1e4"),
        cli_job("density --limit 1e6 --max-diff 1e4"),
        cli_job("gaps --tuple 0,2,6,8,12,18,20,26 --theta 0.667 --lo 3 --hi 1e6 --min-singletons 2"),
    ]


WORKLOADS = {
    "sieve-window": sieve_window,
    "crosscheck": crosscheck,
    "prime-tables": prime_tables,
}


def build(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](seed) + light_touch(seed)


def budget_probe() -> tuple[int, list[str]]:
    """Run the refused configs; return the exit-3 count and their stderr."""
    refusals, errors = 0, []
    for argv in REFUSED:
        r = run_cli(argv)
        refusals += r.code == 3
        errors.append(f"{argv} -> exit {r.code}: {r.err.strip()}")
    return refusals, errors
