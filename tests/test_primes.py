"""Prime-table tests: trial-division oracles, brute-force cross-checks."""

import contextlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import fftconvolve

from sievelab import cells, cli, primes, sieve
from sievelab.errors import InvariantViolationError, ResourceBudgetError
from sievelab.primes import (
    MAX_GAP_DIFF,
    SEGMENT,
    GapSequence,
    gap_counts,
    goldbach_gaps,
    goldbach_numbers,
    normalized_gaps,
    primorial,
    sieve_range,
)
from sievelab.variational import KernelParams


def _trial_primes(limit):
    """Independent pure-Python prime list for oracle use."""
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


ORACLE_PRIMES_1K = np.array(_trial_primes(1000), dtype=np.int64)


def trial_division_mask(lo, hi):
    """Primality of [lo, hi) by chunked vectorized trial division (hi <= 1e6+1)."""
    assert hi <= 1_000_001
    n = np.arange(lo, hi, dtype=np.int64)
    composite = np.zeros(n.size, dtype=bool)
    for start in range(0, n.size, 20_000):
        chunk = n[start : start + 20_000]
        rem = chunk[None, :] % ORACLE_PRIMES_1K[:, None]
        hit = (rem == 0) & (chunk[None, :] != ORACLE_PRIMES_1K[:, None])
        composite[start : start + 20_000] = hit.any(axis=0)
    return (n >= 2) & ~composite


def fft_two_sums(mask):
    """Oracle: the n < mask.size that are a sum of two members of the set
    mask marks, read off a full FFT self-convolution (counts stay far inside
    float64 exactness)."""
    pvec = mask.astype(np.float64)
    reachable = fftconvolve(pvec, pvec)[: mask.size] > 0.5
    return np.flatnonzero(reachable).astype(np.int64)


def fft_goldbach_numbers(limit):
    """Oracle: sums of two primes up to limit."""
    if limit < 4:
        return np.zeros(0, dtype=np.int64)
    return fft_two_sums(sieve_range(0, limit + 1).is_prime)


def shift_and_gap_counts(limit, max_diff):
    """Oracle: all-pair counts by one shifted AND of the prime mask per m,
    int64 indexed by m = 0..max_diff (no pair at m = 0 or past the table)."""
    mask = sieve_range(0, limit + 1).is_prime
    out = np.zeros(max_diff + 1, dtype=np.int64)
    for m in range(1, min(max_diff, mask.size - 1) + 1):
        out[m] = np.count_nonzero(mask[m:] & mask[:-m])
    return out


def test_sieve_matches_trial_division_to_1e6():
    table = sieve_range(0, 1_000_001)
    oracle = trial_division_mask(0, 1_000_001)
    assert np.array_equal(table.is_prime, oracle)


def test_sieve_segment_boundaries_do_not_change_results():
    # windows straddling the internal segment size must agree with a full run
    seg = 1 << 20
    full = sieve_range(0, seg + 200)
    window = sieve_range(seg - 100, seg + 200)
    assert np.array_equal(window.is_prime, full.is_prime[seg - 100 :])
    assert np.array_equal(window.primes, full.primes[full.primes >= seg - 100])


def test_sieve_offset_window_against_oracle():
    lo, hi = 999_000, 1_000_001
    table = sieve_range(lo, hi)
    assert np.array_equal(table.is_prime, trial_division_mask(lo, hi))


def assert_sieve_matches_trial_division(lo, hi):
    table = sieve_range(lo, hi)
    oracle = trial_division_mask(lo, hi)
    assert np.array_equal(table.is_prime, oracle)
    assert table.primes.dtype == np.int64
    assert np.array_equal(table.primes, lo + np.flatnonzero(oracle))


@settings(max_examples=60, deadline=None)
@given(
    lo=st.integers(0, 70_000),
    width=st.integers(1, 70_000),
    segment=st.integers(1, 64),
)
@example(lo=30_000, width=70_000, segment=64)  # two wheel periods of 30030
@example(lo=60_059, width=3, segment=1)  # across 60060 = 2 * 30030
def test_odd_sieve_matches_trial_division(lo, width, segment):
    # windows cross multiples of 30030 (one wheel period of 15015 odd cells)
    # and many edges of SEGMENT odd cells
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "SEGMENT", segment)
        assert_sieve_matches_trial_division(lo, lo + width)


@settings(max_examples=60, deadline=None)
@given(
    lo=st.integers(-70_000, 1),
    width=st.integers(1, 70_000),
    segment=st.integers(1, 64),
)
@example(lo=-30_031, width=30_030, segment=64)  # wholly below 2, a wheel period
@example(lo=-7, width=9, segment=1)  # -7 .. 1, hi = 2
@example(lo=-1, width=4, segment=1)  # -1, 0, 1, 2
def test_sieve_below_two_matches_trial_division(lo, width, segment):
    # a table may start below 0 or lie wholly below 2; those cells are False
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "SEGMENT", segment)
        assert_sieve_matches_trial_division(lo, lo + width)


@settings(max_examples=100, deadline=None)
@given(lo=st.integers(-300, 300), bits=st.lists(st.booleans(), min_size=1, max_size=300))
@example(lo=0, bits=[True] * 9)  # keeps 2
@example(lo=1, bits=[True, False, True])  # odd lo, keeps 2
@example(lo=2, bits=[False, True, False, True])  # drops 2
def test_prime_list_is_read_off_the_mask(lo, bits):
    # any mask that sets no value below 2 and no even value but 2, as
    # sieve_range and thinned tables write them, whatever it says of odd
    # composites
    n = lo + np.arange(len(bits))
    mask = np.array(bits) & (n >= 2) & ((n % 2 == 1) | (n == 2))
    table = primes.PrimeTable(lo, mask)
    assert table.hi == lo + mask.size
    assert table.primes.dtype == np.int64
    assert np.array_equal(table.primes, lo + np.flatnonzero(mask))
    assert table.count() == table.primes.size


def test_mask_readers_never_list_primes(monkeypatch):
    # gap counts, cell scans, the Tao check, W-strided moment segments and
    # primes --stats read only the mask, so no table they sieve holds a
    # prime list
    tables = []

    def recording(lo, hi, **kw):
        tables.append(sieve_range(lo, hi, **kw))
        return tables[-1]

    monkeypatch.setattr(primes, "sieve_range", recording)  # form_masks and cli read it here
    gap_counts(5000, 100)
    part = cells.split_into_cells((0, 2), 2)
    cells.scan_singleton_cells(part, 3, 5000, min_singletons=2)
    params = KernelParams(k=3, base=1.1, slope=3.0, cutoff=2.9)
    cfg = sieve.make_config(50000, delta=0.45, offsets=(0, 2, 6), params=params)
    alt = KernelParams(k=3, base=1.4, slope=5.0, cutoff=1.8)
    sieve.tao_domination_check(cfg, alt, 0, 2, 1, 50000)
    sieve.moment_sums(cfg, 1, 50000, restrict=True)
    for limit, largest in [(1, 0), (2, 2), (3, 3), (5000, 4999)]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["primes", "--limit", str(limit), "--stats"]) == 0
        assert out.getvalue().endswith(f"largest_prime,{largest}\n")
    assert cfg.W > 1 and len(tables) == 8  # one table per call
    assert [t.lo for t in tables if "primes" in vars(t)] == []


def test_sieve_every_window_below_40():
    # 1 and the wheel primes 3..13 sit in these windows
    for hi in range(1, 41):
        for lo in range(hi):
            assert_sieve_matches_trial_division(lo, hi)


def test_two_is_the_only_even_prime():
    table = sieve_range(0, 100_000)
    evens = table.primes[table.primes % 2 == 0]
    assert evens.tolist() == [2]


def test_base_primes_are_cached_read_only():
    # every sieve_range with 5930 <= hi <= 6241 reads the primes up to 77
    base = primes._small_primes(77)
    assert primes._small_primes(77) is base and not base.flags.writeable
    assert base.tolist() == _trial_primes(77)
    assert primes._small_primes(1).tolist() == []


def test_sieve_budget_error_names_budget(monkeypatch):
    # refused before any allocation, naming the constant and its value
    with pytest.raises(ResourceBudgetError, match="DEFAULT_SIEVE_BUDGET = 200000000;"):
        sieve_range(0, 200_000_002)
    monkeypatch.setattr(primes, "DEFAULT_SIEVE_BUDGET", 1_000_000)
    with pytest.raises(ResourceBudgetError, match="budget"):
        sieve_range(0, 2_000_000)


def test_budget_counts_window_not_endpoint(monkeypatch):
    # a short window far out allocates little, whatever hi is
    table = sieve_range(10**12, 10**12 + 200)
    assert table.primes[0] == 10**12 + 39
    # the base sieve up to sqrt(hi) still counts against the budget
    monkeypatch.setattr(primes, "DEFAULT_SIEVE_BUDGET", 10**5)
    with pytest.raises(ResourceBudgetError):
        sieve_range(10**12, 10**12 + 200)


def test_contains_means_prime_membership():
    table = sieve_range(0, 100)
    assert 97 in table
    assert 91 not in table  # 7 * 13, in range but composite
    assert 200 not in table  # out of range
    assert -5 not in table


def test_sieve_rejects_bad_range():
    with pytest.raises(ValueError):
        sieve_range(10, 10)
    with pytest.raises(ValueError):
        sieve_range(5, -1)
    # a negative lo is a range like any other: its cells below 2 are False
    assert sieve_range(-1, 5).primes.tolist() == [2, 3]


ORACLE_PRIME_SET = frozenset(ORACLE_PRIMES_1K.tolist())


@settings(max_examples=400, deadline=None)
@given(
    lo=st.integers(-60, 60),
    width=st.integers(1, 400),
    shift=st.integers(-45, 125),
    step=st.sampled_from([s * sign for s in range(1, 8) for sign in (1, -1)]),
    count=st.integers(1, 40),  # count = 0 comes from an example below
)
@example(lo=-5, width=50, shift=2, step=2, count=4)  # -3, -1, 1, 3
@example(lo=-5, width=50, shift=10, step=-2, count=5)  # 5, 3, 1, -1, -3
@example(lo=0, width=50, shift=-3, step=2, count=4)  # -3 below lo
@example(lo=0, width=50, shift=5, step=-2, count=5)  # -1 below lo
@example(lo=10, width=40, shift=0, step=3, count=0)
@example(lo=10, width=40, shift=30, step=3, count=4)  # 49 is the last cell
@example(lo=10, width=40, shift=30, step=3, count=5)  # 52 past the end
@example(lo=10, width=40, shift=-5, step=1, count=8)  # 5 below lo
@example(lo=10, width=40, shift=4, step=-7, count=2)  # 7 below lo
def test_along_matches_per_value_oracle(lo, width, shift, step, count):
    table = sieve_range(lo, lo + width)
    values = [lo + shift + j * step for j in range(count)]
    if any(not lo <= v < lo + width for v in values):
        with pytest.raises(IndexError):
            table.along(lo + shift, step, count)
        return
    got = table.along(lo + shift, step, count)
    assert got.dtype == bool and got.shape == (count,)
    assert got.tolist() == [v in ORACLE_PRIME_SET for v in values]
    # a view of the table's own mask, never a copy
    assert got.base is table.is_prime and not got.flags.writeable
    assert np.shares_memory(got, table.is_prime) == (count > 0)


def test_along_rejects_zero_step_and_negative_count():
    table = sieve_range(0, 50)
    with pytest.raises(ValueError):
        table.along(3, 0, 2)
    with pytest.raises(ValueError):
        table.along(3, 1, -1)


@pytest.mark.parametrize("lo, hi", [(0, 5000), (10**12, 10**12 + 500)])
def test_want_spf_is_ignored(lo, hi):
    plain, asked = sieve_range(lo, hi), sieve_range(lo, hi, want_spf=True)
    assert np.array_equal(asked.is_prime, plain.is_prime)
    assert np.array_equal(asked.primes, plain.primes)
    assert not hasattr(asked, "spf")


def test_goldbach_numbers_small_cases():
    assert goldbach_numbers(4).tolist() == [4]
    assert goldbach_numbers(12).tolist() == [4, 5, 6, 7, 8, 9, 10, 12]
    assert goldbach_numbers(3).tolist() == []


def test_goldbach_numbers_against_brute_force():
    limit = 2000
    primes = _trial_primes(limit)
    brute = sorted(
        {p + q for p in primes for q in primes if p + q <= limit}
    )
    assert goldbach_numbers(limit).tolist() == brute


@given(st.integers(min_value=0, max_value=600), st.integers(min_value=1, max_value=13))
@settings(max_examples=60, deadline=None)
def test_goldbach_numbers_match_fft_oracle(limit, segment):
    # blocks of 1..13 even numbers put block edges and early exits in the table
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "SEGMENT", segment)
        got = goldbach_numbers(limit)
    assert np.array_equal(got, fft_goldbach_numbers(limit))


@given(
    st.integers(min_value=0, max_value=600),
    st.integers(min_value=1, max_value=13),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_goldbach_kernel_is_exact_on_thinned_primes(limit, segment, seed):
    # Every even n in 4..600 is a sum of two primes, so against the true
    # primes a kernel that marks too many even n looks right.  Dropping odd
    # primes at random leaves even n that are no such sum, and blocks that
    # only stop when p reaches their top.
    sieve = primes.sieve_range
    keep = np.random.default_rng(seed).random(limit + 3) < 0.6
    keep[2] = True  # the kernel reads 4 = 2 + 2 and odd n = 2 + (n - 2)

    def thinned(lo, hi):
        table = sieve(lo, hi)
        mask = table.is_prime & keep[lo:hi]
        return primes.PrimeTable(lo, mask)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "SEGMENT", segment)
        mp.setattr(primes, "sieve_range", thinned)
        got = goldbach_numbers(limit)
        want = fft_two_sums(thinned(0, limit + 1).is_prime)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("limit", [4, 5, 6, 2 * SEGMENT + 3])
def test_goldbach_numbers_match_fft_oracle_at_edges(limit):
    # 2 * SEGMENT and 2 * SEGMENT + 2 open the second block of even numbers
    assert np.array_equal(goldbach_numbers(limit), fft_goldbach_numbers(limit))


def test_goldbach_numbers_match_fft_oracle_at_1e6():
    assert np.array_equal(goldbach_numbers(10**6), fft_goldbach_numbers(10**6))


def test_goldbach_gaps_examples():
    rep = goldbach_gaps(12)
    assert rep.max_gap == 2
    assert rep.max_at == (10, 12)
    assert rep.values[:-1].tolist() == [4, 5, 6, 7, 8, 9, 10]
    assert rep.gaps.tolist() == [1, 1, 1, 1, 1, 1, 2]
    single = goldbach_gaps(4)
    assert single.values.tolist() == [4] and single.gaps.size == 0
    # every even in [4, 100] is a sum of two primes, so no gap exceeds 2
    assert goldbach_gaps(100).max_gap <= 2


def test_goldbach_gap_report_holds_only_values():
    # gaps is read from values, so the report keeps one array alive
    goldbach_gaps(100)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = goldbach_gaps(10**6)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= rep.values.nbytes + 512 * 1024
    assert np.array_equal(rep.gaps, np.diff(rep.values))
    assert rep.max_gap == int(rep.gaps.max()) == 2


def test_gap_counts_examples_and_brute_force():
    counts = gap_counts(20, max_diff=6)
    # pairs (5,3), (7,5), (13,11), (19,17) at difference 2
    assert counts[2] == 4
    assert counts[1] == 1  # only (3, 2)
    limit = 500
    primes = _trial_primes(limit)
    brute = np.zeros(21, dtype=np.int64)
    for p in primes:
        for q in primes:
            if 1 <= p - q <= 20:
                brute[p - q] += 1
    assert np.array_equal(gap_counts(limit, max_diff=20), brute)


@pytest.mark.parametrize("limit, max_diff", [(2, 1), (20, 6), (500, 21), (20, 10**4)])
def test_gap_counts_is_an_int64_array_indexed_by_difference(limit, max_diff):
    counts = gap_counts(limit, max_diff)
    assert isinstance(counts, np.ndarray) and counts.dtype == np.int64
    assert counts.shape == (max_diff + 1,)
    assert counts[0] == 0


@given(st.integers(min_value=4, max_value=600), st.integers(min_value=1, max_value=700))
@settings(max_examples=80, deadline=None)
def test_gap_counts_match_shift_oracle(limit, max_diff):
    want = shift_and_gap_counts(limit, max_diff)
    assert np.array_equal(gap_counts(limit, max_diff), want)


@pytest.mark.parametrize(
    "limit, max_diff",
    [(500, 20), (20, 10**6), (SEGMENT + 37, 60), (2 * SEGMENT + 37, 60)],
)
def test_gap_counts_match_shift_oracle_at_edges(limit, max_diff):
    # max_diff far past the table; a table just past SEGMENT; and pairs that
    # cross the first block edge, at 2 * SEGMENT - 60
    want = shift_and_gap_counts(limit, max_diff)
    assert np.array_equal(gap_counts(limit, max_diff), want)


@given(st.integers(min_value=4, max_value=600), st.integers(min_value=1, max_value=200))
@settings(max_examples=60, deadline=None)
def test_gap_counts_across_many_block_edges(limit, max_diff):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "SEGMENT", 16)
        got = gap_counts(limit, max_diff)
    assert np.array_equal(got, shift_and_gap_counts(limit, max_diff))


def test_gap_count_transforms_hold_no_padding(monkeypatch):
    # the odd mask of 2500 cells, reach 50 lags: blocks of n - reach = 462
    # cells; each extended slice fills its transform of n = 512 unless the
    # mask ends first, and the last block, its own extension, makes one
    monkeypatch.setattr(primes, "SEGMENT", 256)
    calls = []
    rfft = np.fft.rfft
    monkeypatch.setattr(
        np.fft, "rfft", lambda a, n: calls.append((a.size, n)) or rfft(a, n)
    )
    assert np.array_equal(gap_counts(5000, 100), shift_and_gap_counts(5000, 100))
    want = []
    for lo in range(0, 2500, 462):
        if lo + 462 < 2500:
            want += [(462, 512), (min(512, 2500 - lo), 512)]
        else:
            want.append((2500 - lo, 512))
    assert calls == want
    assert want[-2:] == [(512, 512), (190, 512)]


@pytest.mark.parametrize("limit", [2, 3, 4, 5, 97, 10**5])
def test_gap_counts_sum_to_all_pairs(limit):
    # with max_diff >= limit every unordered pair of primes <= limit is
    # counted once, at its difference
    pi = sieve_range(0, limit + 1).count()
    assert gap_counts(limit, limit).sum() == math.comb(pi, 2)
    assert gap_counts(limit, limit + 3).sum() == math.comb(pi, 2)


def test_gap_counts_odd_difference_is_the_pair_through_2():
    assert gap_counts(5, 3)[3] == 1  # (2, 5)
    assert gap_counts(4, 3)[3] == 0  # 5 is past the limit
    assert gap_counts(5, 3).tolist() == [0, 1, 1, 1]


def test_gap_counts_max_diff_cap():
    with pytest.raises(ResourceBudgetError) as info:
        gap_counts(100, MAX_GAP_DIFF + 1)
    msg = str(info.value)
    assert f"max_diff {MAX_GAP_DIFF + 1}" in msg
    assert f"MAX_GAP_DIFF = {MAX_GAP_DIFF}" in msg and "--max-diff" in msg


def test_gap_counts_raise_on_inexact_transform(monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a: irfft(*a) + 0.3)
    with pytest.raises(InvariantViolationError, match="nearest integer"):
        gap_counts(100, 10)


@given(st.integers(min_value=50, max_value=400))
@settings(max_examples=20, deadline=None)
def test_gap_counts_nondecreasing_in_limit(limit):
    small = gap_counts(limit, max_diff=10)
    large = gap_counts(limit + 50, max_diff=10)
    assert np.all(large >= small)


def test_normalized_gaps_entries():
    seq = normalized_gaps(7)
    assert seq.p.tolist() == [2, 3, 5]
    assert seq.gap.tolist() == [1, 2, 2]
    assert seq.normalized.tolist() == pytest.approx(
        [1 / math.log(2), 2 / math.log(3), 2 / math.log(5)]
    )
    assert len(normalized_gaps(5)) == 2  # pairs (2,3) and (3,5)
    # the gaps between neighbours in the prime sequence
    assert np.array_equal(normalized_gaps(100).gap, np.diff(_trial_primes(100)))


def test_normalized_gaps_csv_round_trip():
    seq = normalized_gaps(30)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["primes", "--limit", "30", "--normalized-gaps"]) == 0
    lines = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
    assert lines[0] == "p,gap,normalized"
    assert len(lines) == len(seq) + 1
    p, gap, norm = lines[1].split(",")
    assert (int(p), int(gap)) == (2, 1)
    assert abs(float(norm) - 1 / math.log(2)) < 1e-11


def test_gap_sequence_normalization_identity():
    seq = normalized_gaps(10_000)
    assert np.allclose(seq.normalized * np.log(seq.p), seq.gap, rtol=1e-12)
    assert isinstance(seq, GapSequence)


def test_primorial_values():
    assert primorial(10) == 210
    assert primorial(1) == 1
    assert primorial(2) == 2
    assert primorial(7) == 210
    assert primorial(23) == 223_092_870


def test_primorial_overflow_names_prime(monkeypatch):
    with pytest.raises(OverflowError, match=r"prime \d+"):
        primorial(200)
    with pytest.raises(OverflowError, match="PRIMORIAL_BITS = 64; lower --w-bound"):
        primorial(200)
    # 2*3*5*7 = 210 needs 8 bits
    monkeypatch.setattr(primes, "PRIMORIAL_BITS", 7)
    with pytest.raises(OverflowError):
        primorial(7)
    monkeypatch.setattr(primes, "PRIMORIAL_BITS", 8)
    assert primorial(7) == 210
