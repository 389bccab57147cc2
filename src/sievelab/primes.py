"""Prime tables and prime-derived sequences.

Segmented Eratosthenes sieving of the odd cells from a 3*5*7*11*13 wheel,
sums-of-two-primes scans, prime-pair difference counts, and normalized
prime gaps.  Every other module consumes these tables; nothing here knows
about sieve weights or tuples.

Both correlation kernels are exact and read the odd-prime mask, as 2 is
the one even prime: sums of two primes by a smallest-prime search, pair
counts by a blocked FFT autocorrelation whose rounding is checked
(InvariantViolationError) rather than argued, plus the pairs through 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvariantViolationError, ResourceBudgetError

# Hard ceiling on table cells; sieving beyond this raises ResourceBudgetError.
DEFAULT_SIEVE_BUDGET = 200_000_000
# Blocks of this many cells (odd cells in sieve_range) keep hot loops cache-sized.
SEGMENT = 1 << 20
# Ceiling on max_diff: gap_counts returns one int64 count per difference.
MAX_GAP_DIFF = 2_000_000
# Width a primorial modulus may reach before primorial refuses it.
PRIMORIAL_BITS = 64
# Which of the odd values 1, 3, ..., 30029 are coprime to 3*5*7*11*13.
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL = np.gcd(np.arange(1, 30030, 2), math.prod(_WHEEL_PRIMES)) == 1


@lru_cache(maxsize=64)
def _small_primes(limit: int) -> np.ndarray:
    """All primes <= limit by a plain in-memory sieve (used for base primes),
    as a read-only int64 array cached per limit: sieve_range asks for the
    same base primes for every hi below the next square."""
    primes = np.zeros(0, dtype=np.int64)
    if limit >= 2:
        mask = np.ones(limit + 1, dtype=bool)
        mask[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if mask[p]:
                mask[p * p :: p] = False
        primes = np.flatnonzero(mask).astype(np.int64)
    primes.flags.writeable = False
    return primes


@dataclass
class PrimeTable:
    """Primality data for [lo, hi), hi = lo + is_prime.size.

    is_prime[n - lo] says whether n is prime; no cell below 2 and no even
    cell but 2 is set.  lo may be negative, or hi at most 2: the cells below
    2 read False like any composite, so no reader clamps its values.  The
    mask is the table: primes, the sorted list, is read off it on first use
    and kept, so code that reads only the mask never lists.
    """

    lo: int
    is_prime: np.ndarray

    @property
    def hi(self) -> int:
        return self.lo + self.is_prime.size

    @cached_property
    def primes(self) -> np.ndarray:
        """Sorted int64 primes in [lo, hi): the odd cells, 2 first when set."""
        o0 = self.lo | 1
        idx = np.flatnonzero(self.is_prime[o0 - self.lo :: 2])
        at = int(2 in self)
        out = np.empty(at + idx.size, dtype=np.int64) if at else idx
        out[:at] = 2
        np.multiply(idx, 2, out=out[at:])
        out[at:] += o0
        return out

    def __contains__(self, n: int) -> bool:
        """Set semantics: n is one of the primes in [lo, hi)."""
        return self.lo <= n < self.hi and bool(self.is_prime[n - self.lo])

    def is_prime_at(self, n: int) -> bool:
        if not self.lo <= n < self.hi:
            raise IndexError(f"{n} outside table range [{self.lo}, {self.hi})")
        return bool(self.is_prime[n - self.lo])

    def along(self, first: int, step: int, count: int) -> np.ndarray:
        """Primality of first + j*step for j < count (step may be negative),
        as a read-only strided view of is_prime.  A value outside [lo, hi)
        raises IndexError, as is_prime_at does."""
        if step == 0 or count < 0:
            raise ValueError(f"need step != 0 and count >= 0, got {step}, {count}")
        if count:
            for v in (first, first + (count - 1) * step):
                self.is_prime_at(v)
        view = self.is_prime[first - self.lo :: step][:count]
        view.flags.writeable = False
        return view

    def count(self) -> int:
        return int(np.count_nonzero(self.is_prime))


def sieve_range(lo: int, hi: int, want_spf: bool = False) -> PrimeTable:
    """Sieve the half-open range [lo, hi).

    Odd cells are sieved in a scratch array, half the window: it starts
    from the wheel (15015 odd cells a period), each base prime p > 13
    crosses off its odd multiples from p*p, SEGMENT odd cells at a time,
    and one strided assignment writes it into is_prime (2 is set apart).
    Any lo < hi is taken, a negative lo or a window wholly below 2 too; the
    cells below 2 are False.  No prime list is built: PrimeTable.primes
    reads one off the mask.

    The allocated cells (the window length and the sqrt(hi) base-prime
    sieve both count) may not exceed DEFAULT_SIEVE_BUDGET; more raises
    ResourceBudgetError.  The odd scratch array leaves that count unchanged.

    Parameters
    ----------
    lo, hi : int
        Range bounds, lo < hi.
    want_spf : bool
        Accepted and ignored: perfbench's replays pass it.

    Returns
    -------
    PrimeTable
    """
    if hi <= lo:
        raise ValueError(f"need lo < hi, got lo={lo}, hi={hi}")
    root = math.isqrt(max(hi - 1, 0))
    cells = max(hi - lo, root)
    if cells > DEFAULT_SIEVE_BUDGET:
        raise ResourceBudgetError(
            f"sieve_range({lo}, {hi}) needs {cells} cells, over the budget "
            f"DEFAULT_SIEVE_BUDGET = {DEFAULT_SIEVE_BUDGET}; lower --limit or --N"
        )
    n = hi - lo
    # odd[j]: o0 + 2j is prime; the wheel strikes the multiples of 3..13
    o0, h = lo | 1, hi // 2 - lo // 2
    is_p = np.zeros(n, dtype=bool)  # before the scratch, which keeps peak RSS down
    k = (lo // 2) % _WHEEL.size  # the wheel cell of o0, lo < 0 included
    odd = np.tile(_WHEEL, -(-(k + h) // _WHEEL.size))[k : k + h]
    odd[: max(0, (3 - o0) // 2)] = False  # the odd values below 2
    odd[[(q - o0) // 2 for q in _WHEEL_PRIMES if lo <= q < hi]] = True
    base = _small_primes(root)
    sieving = base[base > _WHEEL_PRIMES[-1]].tolist()
    for j0 in range(0, h, SEGMENT):
        j1, v0 = min(j0 + SEGMENT, h), o0 + 2 * j0
        for p in sieving:
            # the first odd multiple of p that is >= max(p * p, v0)
            i = (p * max(p, -(-v0 // p) | 1) - o0) // 2
            if i < j1:
                odd[i:j1:p] = False
    is_p[o0 - lo :: 2] = odd
    if lo <= 2 < hi:
        is_p[2 - lo] = True
    return PrimeTable(lo=lo, is_prime=is_p)


def form_masks(forms, start: int, step: int, count: int):
    """(masks, hits) on the grid n = start + j*step, j < count: masks[a][j]
    is whether s*n + b is prime, (s, b) = forms[a], each an along view of
    one table over [least value read, greatest value read].  hits yields
    each mask's ascending j on demand: by bisection of the table's primes
    for a unit step, else by a scan of the mask (short on a W-strided
    grid), so a reader of the masks alone never lists primes."""
    reads = [(s * start + b, s * step) for s, b in forms]
    last = max(count - 1, 0)
    ends = [first + j * d for first, d in reads for j in (0, last)]
    table = sieve_range(min(ends), max(ends) + 1)
    masks = [table.along(first, d, count) for first, d in reads]

    def hits(read, mask):
        first, d = read
        if abs(d) != 1:
            return np.flatnonzero(mask)
        low, primes = min(first, first + d * last), table.primes
        p = primes[primes.searchsorted(low) : primes.searchsorted(low + count)]
        return p - first if d == 1 else (first - p)[::-1]

    return masks, map(hits, reads, masks)


def goldbach_numbers(limit: int) -> np.ndarray:
    """All n <= limit expressible as a sum of two primes, ascending.

    Odd n is such a sum exactly when n - 2 is prime.  Apart from 4 = 2 + 2,
    even n = 2m is a sum of two odd primes p <= n - p, and n - p is prime
    exactly when odd[m - (p + 1)/2] is set, where odd[i] says 2i + 1 is
    prime.  So the m are taken in blocks of SEGMENT, and each block ORs in
    the odd mask shifted by (p + 1)/2 for ascending odd primes p, over the
    m >= p of the block, as Oliveira e Silva, Herzog and Pardi (Math. Comp.
    2014) search the smallest prime over segmented bitmaps.  A block stops
    once every m in it is resolved or p reaches its top: by then each open
    m has tried every odd prime up to m = n/2, so the result is exact.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if limit < 4:
        return np.zeros(0, dtype=np.int64)
    table = sieve_range(0, limit + 1)
    is_p = table.is_prime
    odd = np.ascontiguousarray(is_p[1::2])
    half = limit // 2 + 1
    even = np.zeros(half, dtype=bool)  # even[m]: 2m is a sum of two primes
    even[2] = True
    odd_primes = table.primes[1:]
    for m0 in range(0, half, SEGMENT):
        m1 = min(m0 + SEGMENT, half)
        first = max(m0, 3)  # every m in the block below first is decided
        for p in odd_primes:
            p = int(p)
            if p >= m1:
                break
            a, s = max(first, p), (p + 1) // 2
            even[a:m1] |= odd[a - s : m1 - s]
            first += int(np.argmin(even[first:m1]))  # stops at the first open m
            if even[first]:
                break
    reachable = np.zeros(limit + 1, dtype=bool)
    reachable[::2] = even
    reachable[5::2] = is_p[3 : limit - 1 : 2]
    return np.flatnonzero(reachable).astype(np.int64, copy=False)


@dataclass
class GoldbachGapReport:
    """Consecutive gaps in the sums-of-two-primes sequence up to a limit.

    The report holds one array, values; gaps is computed from it on each
    read.  At limit 10^6 that is 578,496 int64 values (4.6 MB), not twice
    that.
    """

    limit: int
    values: np.ndarray
    max_gap: int
    max_at: tuple[int, int] | None  # (value, next value) attaining max_gap

    @property
    def gaps(self) -> np.ndarray:
        """gaps[i] = values[i+1] - values[i], a new array on each read."""
        return np.diff(self.values)


def goldbach_gaps(limit: int) -> GoldbachGapReport:
    """Gaps between consecutive sums-of-two-primes up to limit.

    The differences are taken once, only to find the largest, and are not
    kept: the report holds values alone.
    """
    values = goldbach_numbers(limit)
    gaps = np.diff(values)
    if gaps.size == 0:
        return GoldbachGapReport(limit, values, 0, None)
    i = int(np.argmax(gaps))
    return GoldbachGapReport(
        limit=limit,
        values=values,
        max_gap=int(gaps[i]),
        max_at=(int(values[i]), int(values[i + 1])),
    )


def gap_counts(limit: int, max_diff: int) -> np.ndarray:
    """Count prime pairs at each difference m = 1..max_diff below limit.

    counts[m] is the number of pairs (p, p') with p - p' = m and p <= limit,
    all pairs, not only consecutive primes (normalized_gaps has those).  The
    result is int64 of length max_diff + 1, indexed by m: counts[0] = 0, and
    an m with no pair reads 0.  It holds a count per difference, so max_diff
    over MAX_GAP_DIFF raises ResourceBudgetError.

    A pair at odd m is (2, m + 2), read off is_prime.  A pair at even m = 2s
    is lag s of the odd mask odd[i] = is_prime(2i + 1): blocks of it
    correlate with the block extended by reach = max_diff // 2 cells, by
    real FFT of one power-of-two length n, the first at or above SEGMENT (or
    the mask, if shorter) + reach.  Each block holds n - reach cells, so a
    transform holds no padding beyond the shifts; the last block is its own
    extension, one forward transform.  Extra memory is O(SEGMENT +
    max_diff).  A value 0.25 or more from its rounded count raises
    InvariantViolationError.
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
    odd = table.is_prime[1::2]  # odd[i]: 2i + 1 is prime
    # no two odd cells of the table are more than odd.size - 1 lags apart
    reach = min(max_diff // 2, odd.size - 1)
    total = np.zeros(reach + 1, dtype=np.int64)
    # the transform must hold a block plus every shift of it without
    # wrapping, also where the extended slice is cut at the mask's end
    n = 1 << (min(odd.size, SEGMENT) + reach - 1).bit_length()
    for lo in range(0, odd.size, n - reach):
        block = odd[lo : lo + n - reach]
        ext = odd[lo : lo + block.size + reach]  # the same cells for the last block
        spec = np.fft.rfft(block, n)
        spec = (np.fft.rfft(ext, n) if ext.size > block.size else spec) * np.conj(spec)
        corr = np.fft.irfft(spec, n)[: reach + 1]
        counts = np.rint(corr)
        worst = float(np.max(np.abs(corr - counts)))
        if worst >= 0.25:
            raise InvariantViolationError(
                f"FFT pair count lies {worst:.3g} from the nearest integer"
            )
        total += counts.astype(np.int64)
    by_m = np.zeros(max_diff + 1, dtype=np.int64)
    by_m[2 : 2 * reach + 1 : 2] = total[1:]  # m = 2s: lag s of the odd mask
    through_2 = table.is_prime[3 : max_diff + 3 : 2]  # odd m: only (2, m + 2)
    by_m[1 : 2 * through_2.size : 2] = through_2
    return by_m


@dataclass
class GapSequence:
    """Per-prime gap records (p_n, gap, gap / log p_n) for p_{n+1} <= limit."""

    limit: int
    p: np.ndarray
    gap: np.ndarray
    normalized: np.ndarray

    def __len__(self) -> int:
        return int(self.p.size)


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
    # n is prime when coprime to prod (the primes below n); each prime at least
    # doubles prod, so the walk overflows by the PRIMORIAL_BITS-th prime, any bound
    for n in range(2, int(bound) + 1):
        if math.gcd(n, prod) == 1:
            prod *= n
            if prod.bit_length() > PRIMORIAL_BITS:
                raise OverflowError(
                    f"primorial({bound}) needs {prod.bit_length()} bits at prime "
                    f"{n}, over PRIMORIAL_BITS = {PRIMORIAL_BITS}; lower --w-bound"
                )
    return prod
