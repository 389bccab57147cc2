"""Prime tables and prime-derived sequences.

Segmented Eratosthenes sieving with an optional smallest-prime-factor table,
sums-of-two-primes scans, prime-pair difference counts, and normalized prime
gaps.  Every other module consumes these tables; nothing here knows about
sieve weights or tuples.

Both correlation kernels are exact: sums of two primes by a smallest-prime
search, pair counts by a blocked FFT autocorrelation whose rounding is
checked (InvariantViolationError) rather than argued.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError, ResourceBudgetError
from .reportio import csv_lines

# Hard ceiling on table cells; sieving beyond this raises ResourceBudgetError.
DEFAULT_SIEVE_BUDGET = 200_000_000
# Marking is done in fixed-size segments so the hot loop stays cache-sized.
SEGMENT = 1 << 20
# Ceiling on max_diff: gap_counts returns one map entry per difference.
MAX_GAP_DIFF = 2_000_000
# Width a primorial modulus may reach before primorial refuses it.
PRIMORIAL_BITS = 64


def _small_primes(limit: int) -> np.ndarray:
    """All primes <= limit by a plain in-memory sieve (used for base primes)."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


@dataclass
class PrimeTable:
    """Primality (and optionally smallest-prime-factor) data for [lo, hi).

    Attributes
    ----------
    lo, hi : int
        Half-open range covered by the table.
    is_prime : ndarray of bool
        ``is_prime[n - lo]`` for n in [lo, hi).
    primes : ndarray of int64
        Sorted primes in [lo, hi).
    spf : ndarray of int64 or None
        Smallest prime factor per cell; by convention spf(1) = 1, spf(0) = 0.
    """

    lo: int
    hi: int
    is_prime: np.ndarray
    primes: np.ndarray
    spf: np.ndarray | None = None

    def __contains__(self, n: int) -> bool:
        """Set semantics: n is one of the primes in [lo, hi)."""
        return self.lo <= n < self.hi and bool(self.is_prime[n - self.lo])

    def is_prime_at(self, n: int) -> bool:
        if not self.lo <= n < self.hi:
            raise IndexError(f"{n} outside table range [{self.lo}, {self.hi})")
        return bool(self.is_prime[n - self.lo])

    def along(self, first: int, step: int, count: int) -> np.ndarray:
        """Primality of first + j*step for j < count (step may be negative).

        Values below 2 read False; any other value outside [lo, hi) raises
        IndexError, as is_prime_at does.  When no value lies below 2 the
        result is a read-only strided view of is_prime, not a copy.
        """
        if step == 0 or count < 0:
            raise ValueError(f"need step != 0 and count >= 0, got {step}, {count}")
        # the values >= 2 are the j in [j0, j1): a prefix or a suffix
        if step > 0:
            j0, j1 = min(count, max(0, (step + 1 - first) // step)), count
        else:
            j0, j1 = 0, min(count, max(0, (first - 2) // -step + 1))
        if j0 == j1:
            return np.zeros(count, dtype=bool)
        a = first + j0 * step
        for v in (a, first + (j1 - 1) * step):
            self.is_prime_at(v)  # IndexError outside [lo, hi)
        view = self.is_prime[a - self.lo :: step][: j1 - j0]
        if j1 - j0 == count:
            view.flags.writeable = False
            return view
        out = np.zeros(count, dtype=bool)
        out[j0:j1] = view
        return out

    def spf_at(self, n: int) -> int:
        if self.spf is None:
            raise ValueError("table was built without a smallest-prime-factor array")
        if not self.lo <= n < self.hi:
            raise IndexError(f"{n} outside table range [{self.lo}, {self.hi})")
        return int(self.spf[n - self.lo])

    def distinct_primes(self, n: int) -> list[int]:
        """Distinct prime factors of n, via repeated spf division.

        Quotients must stay inside [lo, hi), so full factorizations need a
        table starting at or below 2; windowed tables raise IndexError once
        a quotient drops below lo.
        """
        if n < 1:
            raise ValueError("distinct_primes requires n >= 1")
        out: list[int] = []
        while n > 1:
            p = self.spf_at(n)
            out.append(p)
            while n % p == 0:
                n //= p
        return out

    def count(self) -> int:
        return int(self.primes.size)


def sieve_range(lo: int, hi: int, want_spf: bool = False) -> PrimeTable:
    """Sieve the half-open range [lo, hi).

    The allocated cells (the window length and the sqrt(hi) base-prime
    sieve both count) may not exceed DEFAULT_SIEVE_BUDGET; more raises
    ResourceBudgetError.

    Parameters
    ----------
    lo, hi : int
        Range bounds, 0 <= lo < hi.
    want_spf : bool
        Also build the smallest-prime-factor array (doubles memory).

    Returns
    -------
    PrimeTable
    """
    if lo < 0 or hi <= lo:
        raise ValueError(f"need 0 <= lo < hi, got lo={lo}, hi={hi}")
    cells = max(hi - lo, math.isqrt(hi - 1))
    if cells > DEFAULT_SIEVE_BUDGET:
        raise ResourceBudgetError(
            f"sieve_range({lo}, {hi}) needs {cells} cells, over the budget "
            f"DEFAULT_SIEVE_BUDGET = {DEFAULT_SIEVE_BUDGET}; lower --limit or --N"
        )
    n = hi - lo
    is_p = np.ones(n, dtype=bool)
    for v in (0, 1):
        if lo <= v < hi:
            is_p[v - lo] = False
    base = _small_primes(math.isqrt(hi - 1))
    for seg_lo in range(lo, hi, SEGMENT):
        seg_hi = min(seg_lo + SEGMENT, hi)
        for p in base:
            p = int(p)
            start = max(p * p, ((seg_lo + p - 1) // p) * p)
            if start < seg_hi:
                is_p[start - lo : seg_hi - lo : p] = False

    spf = None
    if want_spf:
        spf = np.zeros(n, dtype=np.int64)
        # Descending order: the smallest prime factor is written last and wins.
        for p in base[::-1]:
            p = int(p)
            start = max(2 * p, ((lo + p - 1) // p) * p)
            if start < hi:
                spf[start - lo :: p] = p
        untouched = spf == 0
        vals = lo + np.flatnonzero(untouched)
        # Cells no base prime reached are primes (or 0/1); spf is the value.
        spf[untouched] = np.maximum(vals, 0)
        if lo <= 0 < hi:
            spf[0 - lo] = 0
        if lo <= 1 < hi:
            spf[1 - lo] = 1

    primes = (lo + np.flatnonzero(is_p)).astype(np.int64)
    return PrimeTable(lo=lo, hi=hi, is_prime=is_p, primes=primes, spf=spf)


def goldbach_numbers(limit: int) -> np.ndarray:
    """All n <= limit expressible as a sum of two primes, ascending.

    Odd n is such a sum exactly when n - 2 is prime.  Even n take primes
    p in ascending order, as in Oliveira e Silva, Herzog and Pardi (Math.
    Comp. 2014): each unresolved n >= 2p tests n - p, and an even n below
    2p has tried every prime up to n/2, so the result is exact.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if limit < 4:
        return np.zeros(0, dtype=np.int64)
    table = sieve_range(0, limit + 1)
    is_p = table.is_prime
    reachable = np.zeros(limit + 1, dtype=bool)
    reachable[5::2] = is_p[3 : limit - 1 : 2]
    open_n = np.arange(4, limit + 1, 2, dtype=np.int64)
    for p in table.primes:
        # open_n ascends: those below 2p are decided misses and drop out
        open_n = open_n[np.searchsorted(open_n, 2 * p) :]
        if open_n.size == 0:
            break
        hit = is_p[open_n - p]
        reachable[open_n[hit]] = True
        open_n = open_n[~hit]
    return np.flatnonzero(reachable).astype(np.int64)


@dataclass
class GoldbachGapReport:
    """Consecutive gaps in the sums-of-two-primes sequence up to a limit."""

    limit: int
    values: np.ndarray
    gaps: np.ndarray  # gaps[i] = values[i+1] - values[i]
    max_gap: int
    max_at: tuple[int, int] | None  # (value, next value) attaining max_gap

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return [(int(v), int(g)) for v, g in zip(self.values[:-1], self.gaps)]


def goldbach_gaps(limit: int) -> GoldbachGapReport:
    """Gaps between consecutive sums-of-two-primes up to limit."""
    values = goldbach_numbers(limit)
    gaps = np.diff(values)
    if gaps.size == 0:
        return GoldbachGapReport(limit, values, gaps, 0, None)
    i = int(np.argmax(gaps))
    return GoldbachGapReport(
        limit=limit,
        values=values,
        gaps=gaps,
        max_gap=int(gaps[i]),
        max_at=(int(values[i]), int(values[i + 1])),
    )


def gap_counts(
    limit: int,
    max_diff: int,
    consecutive_only: bool = False,
) -> dict[int, int]:
    """Count prime pairs at each difference m = 1..max_diff below limit.

    By default every pair (p, p') with p - p' = m and p <= limit is counted,
    not only consecutive primes; pass consecutive_only=True to restrict to
    gaps between neighbours in the prime sequence.  The returned map has an
    entry for every m in 1..max_diff (zero when no pair exists), so
    max_diff over MAX_GAP_DIFF raises ResourceBudgetError.

    All pairs correlate blocks of the prime indicator with the block
    extended by max_diff cells, by real FFT of one power-of-two length n,
    the first at or above SEGMENT (or the table, if shorter) + max_diff.
    Each block holds n - max_diff cells, so a transform holds no padding
    beyond the shifts.  Extra memory is O(SEGMENT + max_diff).  A value
    0.25 or more from its rounded count raises InvariantViolationError.
    """
    if limit < 2:
        raise ValueError("limit must be >= 2")
    if max_diff < 1:
        raise ValueError("max_diff must be >= 1")
    if max_diff > MAX_GAP_DIFF:
        raise ResourceBudgetError(
            f"max_diff {max_diff} asks for that many pair counts, over the "
            f"cap MAX_GAP_DIFF = {MAX_GAP_DIFF}; lower --max-diff"
        )
    table = sieve_range(0, limit + 1)
    if consecutive_only:
        vals, cnts = np.unique(np.diff(table.primes), return_counts=True)
        got = {int(v): int(c) for v, c in zip(vals, cnts)}
        return {m: got.get(m, 0) for m in range(1, max_diff + 1)}
    mask = table.is_prime
    # no two cells of the table are more than limit apart
    reach = min(max_diff, limit)
    total = np.zeros(reach + 1, dtype=np.int64)
    # the transform must hold a block plus every shift of it without
    # wrapping, also where the extended slice is cut at the table's end
    n = 1 << (min(mask.size, SEGMENT) + reach - 1).bit_length()
    for lo in range(0, mask.size, n - reach):
        block = mask[lo : lo + n - reach]
        spec = np.fft.rfft(mask[lo : lo + block.size + reach], n)
        spec *= np.conj(np.fft.rfft(block, n))
        corr = np.fft.irfft(spec, n)[: reach + 1]
        counts = np.rint(corr)
        worst = float(np.max(np.abs(corr - counts)))
        if worst >= 0.25:
            raise InvariantViolationError(
                f"FFT pair count lies {worst:.3g} from the nearest integer"
            )
        total += counts.astype(np.int64)
    return {m: int(total[m]) if m <= reach else 0 for m in range(1, max_diff + 1)}


@dataclass
class GapSequence:
    """Per-prime gap records (p_n, gap, gap / log p_n) for p_{n+1} <= limit."""

    limit: int
    p: np.ndarray
    gap: np.ndarray
    normalized: np.ndarray

    def __len__(self) -> int:
        return int(self.p.size)

    def entries(self) -> list[tuple[int, int, float]]:
        return [
            (int(a), int(b), float(c))
            for a, b, c in zip(self.p, self.gap, self.normalized)
        ]

    def to_csv(self, fh) -> None:
        """Write `p,gap,normalized` rows, reals at 12 significant digits."""
        columns = [self.p, self.gap, self.normalized]
        fh.write(csv_lines(["p", "gap", "normalized"], columns))


def normalized_gaps(limit: int) -> GapSequence:
    """Gaps between consecutive primes, normalized by log of the lower prime."""
    if limit < 2:
        raise ValueError("limit must be >= 2")
    table = sieve_range(0, limit + 1)
    primes = table.primes
    p = primes[:-1]
    gap = np.diff(primes)
    normalized = gap / np.log(p.astype(np.float64))
    return GapSequence(limit=limit, p=p, gap=gap, normalized=normalized)


def primorial(bound: float) -> int:
    """Product of all primes <= bound.

    The result is an exact Python integer but is required to fit in
    PRIMORIAL_BITS bits; the first prime pushing it over raises
    OverflowError so callers cannot silently build an impractically wide
    modulus.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    prod = 1
    for p in _small_primes(int(bound)):
        prod *= int(p)
        if prod.bit_length() > PRIMORIAL_BITS:
            raise OverflowError(
                f"primorial({bound}) needs {prod.bit_length()} bits at prime "
                f"{int(p)}, over PRIMORIAL_BITS = {PRIMORIAL_BITS}; lower --w-bound"
            )
    return prod


def largest_prime_factor(m: int) -> int:
    """Largest prime factor of m >= 1, with the convention that 1 maps to 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return 1
    best = 1
    for d in (2, 3):
        while m % d == 0:
            best = d
            m //= d
    d = 5
    while d * d <= m:
        for step in (0, 2):  # 6k-1, 6k+1
            dd = d + step
            while m % dd == 0:
                best = dd
                m //= dd
        d += 6
    if m > 1:
        best = max(best, m)
    return best
