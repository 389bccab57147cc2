"""End-to-end acceptance checks for the whole workbench.

Twelve numbered checks, one per core guarantee, each printing a single
PASS/FAIL line (straight to the real stdout so the verdicts survive pytest
capture).  They are intentionally heavier than the unit suites: full-range
scans, frozen reference values, and independent brute-force oracles.
Check 01 has two silent companions: one holds two fast paths to bit
equality on the same configs, the other holds the grid path to the
definition where two divisors may share a prime.
"""

import contextlib
import io
import math
import random
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad

from sievelab import graphs, primes, sieve, tuples, variational
from sievelab.cli import main as cli_main
from sievelab.variational import KernelParams


_CAPSYS = None


@pytest.fixture(autouse=True)
def _verdict_channel(capsys):
    # the verdict lines must reach the terminal even under pytest capture
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def announce(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"acceptance {num:02d} {name}: {verdict} ({detail})\n"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.stdout.write(line)


# ---------------------------------------------------------------------------
# 01: the fast divisor-sum weight equals naive enumeration everywhere


def _random_weight_config(rng: random.Random, k: int) -> sieve.SieveConfig:
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
            N,
            delta=delta,
            offsets=rng.choice(menu[k]),
            params=params,
            strict=False,
        )
        # keep only configs whose weight is not identically one
        if len(sieve.lambda_tuples(cfg)) >= 2:
            return cfg


def test_01_weight_equals_enumeration():
    t0 = time.perf_counter()
    rng = random.Random(20260823)
    table = primes.sieve_range(1, 10**4 + 32, want_spf=True)
    worst = 0.0
    n_cfg = 20
    for idx in range(n_cfg):
        cfg = _random_weight_config(rng, idx % 3 + 1)
        for n in range(1, 10**4 + 1):
            fast = sieve.weight(cfg, n, table=table)
            slow = sieve.naive_weight(cfg, n)
            worst = max(worst, abs(fast - slow))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 60
    announce(
        1,
        "weight-equals-enumeration",
        ok,
        f"{n_cfg} configs x 10^4 points, max |diff| = {worst:.3g}, {elapsed:.1f}s",
    )
    assert ok


def test_01_weight_is_the_grid_entry_bit_for_bit():
    # weight and weight_array read one class table in one order, so on
    # test 01's configs they agree exactly, not to a tolerance
    rng = random.Random(20260823)
    for idx in range(20):
        cfg = _random_weight_config(rng, idx % 3 + 1)
        start, step, w = sieve.weight_array(cfg, 1, 1000, restrict=False)
        assert (start, step, len(w)) == (1, 1, 1000)
        fast = [sieve.weight(cfg, n) for n in range(1, 1001)]
        assert np.array_equal(np.array(fast), w)


def test_01_weight_keeps_only_pairwise_coprime_divisors():
    # test 01's offsets differ by products of primes <= 7, so no tuple whose
    # d_i share a prime >= 11 has a class there; with offsets (0, 22) the
    # tuples (11, 11), ..., (23, 23) do, and at n = 2101 one of them holds
    params = KernelParams(k=2, base=1.1, slope=3.0, cutoff=1.9)
    cfg = sieve.make_config(10**7, delta=0.45, offsets=(0, 22), params=params)
    assert cfg.R == 1412
    start, step, w = sieve.weight_array(cfg, 1, 3000, restrict=False)
    assert (start, step, len(w)) == (1, 1, 3000)
    slow = np.array([sieve.naive_weight(cfg, n) for n in range(1, 3001)])
    assert np.max(np.abs(w - slow)) <= 1e-12


# ---------------------------------------------------------------------------
# 02: closed-form integrals match direct quadrature


def test_02_closed_forms_match_quadrature():
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 9))
        base = 1.0 + 9.0 * rng.random() + 1e-6
        slope = 100.0 * rng.random() + 1e-6
        cutoff = rng.random() * 10.0 * base * k / slope + 1e-9
        p = KernelParams(k=k, base=base, slope=slope, cutoff=cutoff)
        f = variational.closed_forms(p)

        def prof(t):
            return 1.0 / (base + slope * t)

        mass_q = quad(prof, 0, cutoff, epsabs=1e-13, epsrel=1e-13)[0]
        energy_q = quad(lambda t: prof(t) ** 2, 0, cutoff, epsabs=1e-13)[0]
        center_q = (
            quad(lambda t: t * prof(t) ** 2, 0, cutoff, epsabs=1e-13)[0] / energy_q
        )
        worst = max(
            worst,
            abs(f.mass - mass_q),
            abs(f.energy - energy_q),
            abs(f.center - center_q),
        )
    ok = worst <= 1e-9
    announce(
        2,
        "closed-forms-vs-quadrature",
        ok,
        f"50 random parameter points, max |diff| = {worst:.3g}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 03: Monte Carlo tail mass stays below the closed-form bounds


def test_03_mc_tails_below_bounds():
    t0 = time.perf_counter()
    bad = []
    for k in range(2, 9):
        p = KernelParams(k=k, base=2.0, slope=8.0 * k, cutoff=0.5)
        b1, b2 = variational.tail_bounds_absolute(p)
        mc = variational.simplex_mc_integrals(p, 10**6, seed=20260823)
        if mc.tail1.value > b1 + 3 * mc.tail1.stderr:
            bad.append((k, "tail1"))
        if mc.tail2.value > b2 + 3 * mc.tail2.stderr:
            bad.append((k, "tail2"))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 300
    announce(
        3,
        "mc-tails-below-bounds",
        ok,
        f"k = 2..8 at 10^6 samples, violations = {bad}, {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 04: large-k schedule ratios sit near psi(k) log k / k and tighten with k


def test_04_schedule_quotients():
    ks = (10**4, 10**6, 10**8)
    quotients = {"proj": [], "biproj": []}
    for k in ks:
        mr = variational.moment_ratios(variational.schedule_params(k))
        scale = (1.0 / math.log(math.log(k))) * math.log(k) / k
        quotients["proj"].append(mr.proj_over_square / scale)
        quotients["biproj"].append(mr.biproj_over_proj / scale)
    in_band = all(0.5 <= q <= 2 for seq in quotients.values() for q in seq)
    trending = all(
        abs(a - 1) > abs(b - 1) and abs(b - 1) > abs(c - 1)
        for a, b, c in quotients.values()
    )
    ok = in_band and trending
    announce(
        4,
        "schedule-quotients",
        ok,
        "proj %.3f/%.3f/%.3f biproj %.3f/%.3f/%.3f at k = 1e4/1e6/1e8"
        % (*quotients["proj"], *quotients["biproj"]),
    )
    assert ok


# ---------------------------------------------------------------------------
# 05: swapping the profile on two coordinates never changes the weight when
#     both designated entries are prime and above the sieve level


def test_05_profile_swap_invariance():
    t0 = time.perf_counter()
    cfg = sieve.make_config(
        50000,
        delta=0.45,
        offsets=(0, 2, 6),
        params=KernelParams(k=3, base=1.1, slope=3.0, cutoff=2.9),
        strict=False,
    )
    alt = KernelParams(k=3, base=1.4, slope=5.0, cutoff=1.8)
    rep = sieve.tao_domination_check(cfg, alt, 0, 2, 1, 10**6)
    elapsed = time.perf_counter() - t0
    ok = (
        rep.n_scanned == 10**6
        and rep.n_checked > 10**4
        and rep.violations == 0
        and rep.max_abs_diff == 0.0
        and elapsed < 120
    )
    announce(
        5,
        "profile-swap-invariance",
        ok,
        f"{rep.n_checked} prime pairs over n <= 10^6, "
        f"violations = {rep.violations}, {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 06: weighted prime density in the scan window tracks the variational target


def test_06_weighted_prime_density():
    t0 = time.perf_counter()
    params = KernelParams(k=3, base=1.01, slope=1.0, cutoff=3.0)
    cfg = sieve.make_config(10**7, delta=0.25, offsets=(0, 2, 6), params=params)
    rep = sieve.moment_sums(cfg, cfg.N, 2 * cfg.N - 1, restrict=True)
    empirical = rep.ratios[0]
    target = cfg.delta * variational.projection_ratio_exact(params)
    quotient = empirical / target
    elapsed = time.perf_counter() - t0
    ok = empirical > 0 and (1 / 3) <= quotient <= 3 and elapsed < 600
    announce(
        6,
        "weighted-prime-density",
        ok,
        f"empirical {empirical:.4f} vs target {target:.4f}, "
        f"quotient {quotient:.3f}, {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 07: surfing always lands on an admissible union and the published size
#     recursion


def test_07_surfing_extraction():
    rng = random.Random(20260823)
    failures = 0
    runs = 0
    for k in range(1, 5):
        size = tuples.surfing_start_size(k)
        m = len([p for p in primes._small_primes(2 * k)])
        for _ in range(200):
            runs += 1
            picks = rng.sample(range(1, 20001), 2 * size)
            xs = [2 * v for v in picks[:size]]
            ys = [2 * v for v in picks[size:]]
            trace = tuples.surfing(xs, ys, k)
            # size recursion: l <- l - floor(2l/p), odd primes ascending
            ell, seq = size, [size]
            for p in primes._small_primes(2 * k):
                p = int(p)
                if p == 2:
                    continue
                ell = ell - (2 * ell) // p
                seq.append(ell)
            if (
                len(trace.x) != k
                or len(trace.y) != k
                or set(trace.x) & set(trace.y)
                or not tuples.is_admissible(trace.union)
                or trace.union.k != 2 * k
                or list(trace.ell_sequence) != seq
                or trace.m != m
            ):
                failures += 1
    ok = failures == 0
    announce(
        7,
        "surfing-extraction",
        ok,
        f"{runs} random instances over k = 1..4, failures = {failures}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 08: per-difference edge counts obey the exact N - d lattice formula


def test_08_edge_count_formula():
    rng = random.Random(20260823)
    failures = 0
    for _ in range(100):
        density = rng.uniform(0.05, 0.95)
        avoided = {2 * d for d in range(1, 100) if rng.random() < density}
        for N in range(2, 101):
            g = graphs.build_graph(N, avoided)
            got = graphs.edge_count_by_difference(g)
            for d in range(1, N):
                want = 0 if 2 * d in avoided else N - d
                if got[2 * d] != want:
                    failures += 1
    ok = failures == 0
    announce(
        8,
        "edge-count-formula",
        ok,
        f"100 random predicates x all N <= 100, failures = {failures}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 09: the mirrored window scan always finds a two-prime split, and the
#     sums-of-two-primes gap record matches a per-target brute search


def test_09_goldbach_scan_and_gaps():
    t0 = time.perf_counter()
    cfg = sieve.make_config(
        10**4,
        delta=0.25,
        offsets=(0, 2),
        params=KernelParams(k=2, base=1.01, slope=1.0, cutoff=2.0),
        strict=False,
    )
    missing = [
        N
        for N in range(100, 10**4 + 1, 2)
        if sieve.goldbach_window_scan(cfg, N=N).witness_count < 1
    ]

    lib = primes.goldbach_gaps(10**6)
    table = primes.sieve_range(0, 10**6 + 1)
    mask, plist = table.is_prime, table.primes
    member = np.zeros(10**6 + 1, dtype=bool)
    odd = np.arange(5, 10**6 + 1, 2)
    member[odd] = mask[odd - 2]  # odd sums need the prime 2
    for n in range(4, 10**6 + 1, 2):
        for p in plist:
            if 2 * p > n:
                break
            if mask[n - p]:
                member[n] = True
                break
    vals = np.flatnonzero(member)
    gaps = np.diff(vals)
    brute_max = int(gaps.max())
    i = int(np.argmax(gaps))
    brute_at = (int(vals[i]), int(vals[i + 1]))
    elapsed = time.perf_counter() - t0
    ok = (
        not missing
        and np.array_equal(vals, lib.values)
        and brute_max == lib.max_gap
        and brute_at == lib.max_at
        and elapsed < 120
    )
    announce(
        9,
        "goldbach-scan-and-gaps",
        ok,
        f"witness misses = {len(missing)}, max gap {lib.max_gap} at "
        f"{lib.max_at} == brute {brute_max} at {brute_at}, {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 10: every even difference up to 10^4 is realized below 10^6, and the
#     twin count agrees exactly with a direct mask intersection


def test_10_difference_census():
    t0 = time.perf_counter()
    rep = graphs.empirical_polignac_density(10**6, threshold=1, max_diff=10**4)
    table = primes.sieve_range(0, 10**6 + 1)
    m = table.is_prime
    brute_twins = int(np.count_nonzero(m[:-2] & m[2:]))
    elapsed = time.perf_counter() - t0
    ok = (
        rep.exception_count == 0
        and rep.counts[2] == brute_twins == 8169
        and elapsed < 60
    )
    announce(
        10,
        "difference-census",
        ok,
        f"exceptions = {rep.exception_count}, twins {rep.counts[2]} "
        f"== brute {brute_twins}, {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 11: the frequency-domain identity holds on all built-in test functions


def test_11_fourier_identity():
    rep = variational.fourier_kernel_check(tolerance=1e-4)
    diffs = [e.abs_diff for e in rep.entries]
    ok = rep.all_passed and len(rep.entries) == 3 and max(diffs) < 1e-4
    announce(
        11,
        "fourier-identity",
        ok,
        f"{len(rep.entries)} test functions, max |lhs - rhs| = {max(diffs):.3g}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 12: identical CLI invocations produce byte-identical files


def test_12_cli_reproducibility(tmp_path):
    runs = {
        "sieve": [
            "sieve", "--N", "20000", "--delta", "0.3", "--tuple", "0,2,6",
            "--base", "1.1", "--slope", "3.0", "--cutoff", "2.9",
            "--threads", "2", "--satz", "2",
        ],
        "variational": [
            "variational", "--k", "4", "--mc-samples", "2e4", "--seed", "11",
        ],
        "density": ["density", "--limit", "1e5", "--max-diff", "200"],
    }
    mismatched = []
    for name, argv in runs.items():
        out = []
        for tag in ("a", "b"):
            path = tmp_path / f"{name}-{tag}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv + ["--output", str(path)])
            assert code == 0
            out.append(path.read_bytes())
        if out[0] != out[1]:
            mismatched.append(name)
    ok = not mismatched
    announce(
        12,
        "cli-reproducibility",
        ok,
        f"{len(runs)} subcommands rerun, mismatches = {mismatched}",
    )
    assert ok
