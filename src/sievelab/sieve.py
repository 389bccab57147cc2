"""Divisor-sum sieve weights and their moment sums at desk scale.

The weight of n is the sum of lambda_d = mu(prod d_i) F(log d_i / log R)
over divisors d_i | n + h_i, F read through `KernelParams.value` (formula
in `variational`).  One cached `Support` per (R, W, params) holds the
Moebius table, the divisors and the one table of lambda, with an exact
tuple count (a refusal, ResourceBudgetError or CLI exit code 3, names it).
The d_i of a support tuple are pairwise coprime and coprime to W, so the
tuple holds on exactly one residue class of n modulo prod(d_i), which
`divisor_class` solves by the coprime CRT.  The class table of (a, m,
lambda), cached per Support and offsets, is what the fast paths read:
`weight` is a per-n lookup in it, and `weight_array` finds each class's
first grid position (`_place`) and adds lambda along the progression.
`naive_weight`, which evaluates F over the divisors of each n + h_i, is
the independent oracle.  One grid core sums w^2 over each pair of masks
of the forms s*n + b that are prime, read off one table; the moment sums
(n + h) and the mirrored scan (also N - n - h, its x sums read off the
pair table) share it, and the profile-swap domination check reads its
masks likewise.  The core holds no window-length weight array: it places,
squares and sums one leaf of BLOCK points at a time, keeps w^2 only at
the hits, and merges the leaf sums by math.fsum.  So the bits of a sum are
fixed by BLOCK and MOMENT_SEGMENT, not by numpy's internal summation loop,
and an fsum of leaf sums has an error bound no larger than numpy's
pairwise sum of the whole array.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import threading
from collections.abc import ItemsView
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from .errors import ParameterConditionError, ResourceBudgetError
from .primes import _small_primes, form_masks, form_reads, primorial
from .reportio import report_dict
from .tuples import OffsetTuple, as_tuple, is_admissible, mirror_union
from .variational import KernelParams

MAX_SUPPORT_TUPLES = 5_000_000
MAX_MOMENT_SPAN = 400_000_000
SUPPORT_CACHE_SIZE = 32
BLOCK = 1 << 17  # grid points placed per pass, and the grid core's leaf: 1 MB of float64
MOMENT_SEGMENT = 1 << 21  # moment_sums n-values per segment


@dataclass(frozen=True)
class SieveConfig:
    """Frozen bundle: window size N, truncation R = floor(N^delta), the
    small-prime modulus W (a primorial) with its residue b0, the offsets,
    and the test-function parameters (params.k must equal len(offsets))."""

    N: int
    delta: float
    R: int
    w_bound: int
    W: int
    b0: int
    offsets: OffsetTuple
    params: KernelParams

    @property
    def k(self) -> int:
        return self.offsets.k

    @property
    def support(self) -> Support:
        """The cached Support of (R, W, params); see build_support."""
        return build_support(self.R, self.W, self.params)

    @functools.cached_property
    def mirror_params(self) -> KernelParams:
        """params with k doubled, which weigh goldbach_window_scan's 2k-point
        mirrored unions; built once per config."""
        return replace(self.params, k=2 * self.k)

    as_dict = report_dict


def make_config(
    N: int,
    delta: float = 0.25,
    offsets=(0, 2, 6),
    params: KernelParams | None = None,
    w_bound: int = 7,
    b0: int | None = None,
    strict: bool = True,
) -> SieveConfig:
    """Validate and assemble a SieveConfig.

    strict enforces N >= 100*R so that entries prime and > R exist in
    quantity; pass strict=False for deliberately tiny windows.  b0 defaults
    to the smallest positive residue with gcd(b0 + h, W) = 1 for every
    offset; a ParameterConditionError names the obstruction if none exists.
    """
    offsets = as_tuple(offsets)
    if N < 4:
        raise ParameterConditionError(f"N must be at least 4, got {N}")
    if not 0 < delta < 0.5:
        raise ParameterConditionError(f"delta must lie in (0, 0.5), got {delta}")
    adm = is_admissible(offsets)
    if not adm:
        raise ParameterConditionError(
            f"offsets are not admissible: all classes mod {adm.prime} occupied"
        )
    R = int(N**delta + 1e-9)
    if R < 2:
        raise ParameterConditionError(
            f"truncation N^delta = {R} is below 2; increase N or delta"
        )
    if strict and N < 100 * R:
        raise ParameterConditionError(
            f"N = {N} is below 100*R = {100 * R}; pass strict=False to allow"
        )
    W = primorial(w_bound)
    if params is None:
        params = KernelParams(k=offsets.k)
    if params.k != offsets.k:
        raise ParameterConditionError(
            f"params.k = {params.k} does not match the {offsets.k} offsets"
        )
    if b0 is None:
        for b in range(1, W + 1):
            if all(math.gcd(b + h, W) == 1 for h in offsets):
                b0 = b
                break
        else:
            raise ParameterConditionError(
                f"no residue b0 mod {W} keeps every b0 + h coprime to W"
            )
    else:
        bad = [h for h in offsets if math.gcd(b0 + h, W) != 1]
        if bad:
            raise ParameterConditionError(
                f"gcd(b0 + h, W) > 1 for offsets {bad} with b0 = {b0}, W = {W}"
            )
    return SieveConfig(
        N=int(N), delta=float(delta), R=R, w_bound=int(w_bound), W=W, b0=int(b0),
        offsets=offsets, params=params,
    )


@dataclass(frozen=True, eq=False)
class Support:
    """The divisor support of the weight for one (R, W, params).

    mu is the Moebius function on [0, R], read-only and zero off the
    support (d not squarefree, or sharing a prime with W).  divisors are
    the d with mu[d] != 0 in ascending order (1 included).  visits is the
    exact number of ordered k-tuples of divisors with product <= R, which
    the enumeration walks; coeff, read-only and in enumeration order, maps
    each tuple with a nonzero coefficient to it: the one table of lambda.
    """

    mu: np.ndarray
    divisors: tuple[int, ...]
    visits: int
    coeff: MappingProxyType[tuple[int, ...], float]


@functools.lru_cache(maxsize=SUPPORT_CACHE_SIZE)
def build_support(R: int, W: int, params: KernelParams) -> Support:
    """The Support of (R, W, params), built once and cached.

    The enumeration takes d from the divisors per coordinate, pruning on
    the running product bound prod(d) <= R, and stores mu(prod(d)) times
    params.value, dropping the tuples where that is 0 (two d_i sharing a
    prime, or F zero there).  Before it starts, the tuples it would visit
    are counted (the last coordinate by bisection, each (slots, bound) pair
    once), and a count over MAX_SUPPORT_TUPLES raises ResourceBudgetError.
    """
    small = _small_primes(R).tolist()
    mu = np.ones(R + 1, dtype=np.int8)
    mu[0] = 0
    for p in small:
        if W % p == 0:
            mu[::p] = 0
        else:
            mu[::p] *= -1
            mu[:: p * p] = 0
    mu.flags.writeable = False
    divisors = tuple(np.flatnonzero(mu).tolist())

    @functools.cache
    def count(slots: int, bound: int) -> int:
        top = bisect.bisect_right(divisors, bound)
        if slots == 1:
            return top
        return sum(count(slots - 1, bound // d) for d in divisors[:top])

    visits = count(params.k, R)
    if visits > MAX_SUPPORT_TUPLES:
        raise ResourceBudgetError(
            f"the divisor-tuple enumeration would visit {visits} tuples, over "
            f"MAX_SUPPORT_TUPLES = {MAX_SUPPORT_TUPLES}; lower --delta "
            f"(R = {R}) or the tuple size (k = {params.k})"
        )
    log_r = math.log(R)
    mu_of = mu.tolist()
    out = {}
    tup = [1] * params.k
    ts = [0.0] * params.k

    def rec(i, prod):
        if i == params.k:
            # mu(prod) is the tuple's sign, and 0 when two d_i share a prime
            lam = mu_of[prod] * params.value(ts)
            if lam != 0.0:
                out[tuple(tup)] = lam
            return
        for d in divisors:
            if prod * d > R:
                break
            tup[i] = d
            ts[i] = math.log(d) / log_r if d > 1 else 0.0
            rec(i + 1, prod * d)
        tup[i] = 1
        ts[i] = 0.0

    rec(0, 1)
    return Support(mu, divisors, visits, MappingProxyType(out))


def lambda_tuples(cfg: SieveConfig) -> ItemsView[tuple[int, ...], float]:
    """All divisor tuples carrying a nonzero coefficient, with the values."""
    return cfg.support.coeff.items()


def divisor_class(offsets, d):
    """The class (a, m), m = prod(d_i) and 0 <= a < m, of the n with every
    d_i | n + h_i, by the coprime CRT; pow(m, -1, 1) = 0 covers d_i = 1.  A
    support tuple's d_i are pairwise coprime; two that share a prime make
    pow raise ValueError."""
    a, m = 0, 1
    for d_i, h in zip(d, offsets):
        a += m * ((-h - a) * pow(m, -1, d_i) % d_i)
        m *= d_i
    return a, m


@functools.lru_cache(maxsize=SUPPORT_CACHE_SIZE)
def _classes(support: Support, offsets: tuple[int, ...]) -> tuple:
    """(a, m, lambda) for each tuple of the Support, n = a mod m its class,
    in enumeration order: the class table that every weight path reads.
    Keyed on the Support object, so each lookup goes through build_support
    and its tuple budget."""
    return tuple((*divisor_class(offsets, d), lam) for d, lam in support.coeff.items())


def weight(cfg: SieveConfig, n: int, table=None) -> float:
    """Sieve weight of any integer n: the sum of the lambda whose class
    holds n, read from the class table in its order, so the value equals
    weight_array's at n bit for bit.  table is accepted and unused:
    perfbench's replays still pass a prime table."""
    total = 0.0
    for a, m, lam in _classes(cfg.support, cfg.offsets.offsets):
        if n % m == a:
            total += lam
    return total


def naive_weight(cfg: SieveConfig, n: int) -> float:
    """Definitional oracle: scan all candidate divisors of each n + h_i by
    remainder tests and sum the coefficients tuple by tuple.  Any integer
    n: d | n + h is a congruence whatever the sign of n + h, and an entry 0
    is divisible by every d.  Slow on purpose; keep ranges small."""
    entries = [n + h for h in cfg.offsets]
    sup = cfg.support
    log_r = math.log(cfg.R)
    per_coord = [[d for d in sup.divisors if m % d == 0] for m in entries]
    total = 0.0
    for tup in itertools.product(*per_coord):
        prod = math.prod(tup)
        if prod > cfg.R:
            continue
        sign = int(sup.mu[prod])  # 0 when two d_i share a prime
        if sign == 0:
            continue
        total += sign * cfg.params.value([math.log(d) / log_r for d in tup])
    return total


def _progressions(classes, start: int, step: int) -> list:
    """(first, m, c) for each (a, m, c) in classes: on the grid n = start +
    j*step the class holds at j = first mod m, first = (a - start) *
    step^-1 mod m, as each m is coprime to step (W or 1)."""
    return [((a - start) * pow(step, -1, m) % m, m, c) for a, m, c in classes]


def _fill(out: np.ndarray, progressions, j0: int) -> np.ndarray:
    """out[i] = sum of c over the progressions that hold at j = j0 + i,
    added from 0 in their order, so a value has the same bits whichever
    run of the grid out covers."""
    out.fill(0.0)
    for first, m, c in progressions:
        out[(first - j0) % m :: m] += c
    return out


def _place(classes, start: int, step: int, count: int) -> np.ndarray:
    """values[j] = sum of c over the (a, m, c) in classes with n = a mod m,
    at n = start + j*step (j < count), filled BLOCK points (cache-resident)
    at a time."""
    progressions = _progressions(classes, start, step)
    w = np.empty(count)
    for b in range(0, count, BLOCK):
        _fill(w[b : b + BLOCK], progressions, b)
    return w


def _grid(cfg: SieveConfig, lo: int, hi: int, restrict: bool):
    """(start, step, count): weight_array's grid over [lo, hi]."""
    step = cfg.W if restrict else 1
    start = lo + (cfg.b0 - lo) % step
    return start, step, max((hi - start) // step + 1, 0)


def weight_array(cfg: SieveConfig, lo: int, hi: int, restrict: bool = True):
    """Weights for all n in [lo, hi], vectorized.

    Returns (start, step, values): n = start + j*step runs over the grid
    (step = W with n = b0 mod W when restrict, else 1), values[j] the weight.
    """
    start, step, count = _grid(cfg, lo, hi, restrict)
    classes = _classes(cfg.support, cfg.offsets.offsets) if count else ()
    return start, step, _place(classes, start, step, count)


@dataclass(frozen=True)
class MomentReport:
    """Accumulated moment sums over one n-window.

    prime_sq_sums[i] = sum of 1_prime(n + h_i) * w(n)^2; pair_sq_sums[i][j]
    the doubly-restricted version (diagonal = prime_sq_sums).  satz(m)
    forms sum((number of prime entries) - (m-1)) * w^2 from these.
    """

    n_lo: int
    n_hi: int
    restricted: bool
    n_count: int
    sum_w2: float
    prime_sq_sums: tuple[float, ...]
    pair_sq_sums: tuple[tuple[float, ...], ...]

    derived = ("ratios", "pair_max_ratio")
    as_dict = report_dict

    @property
    def ratios(self) -> tuple[float, ...]:
        if self.sum_w2 == 0:
            return tuple(0.0 for _ in self.prime_sq_sums)
        return tuple(s / self.sum_w2 for s in self.prime_sq_sums)

    @property
    def pair_max_ratio(self) -> float:
        k = len(self.prime_sq_sums)
        if self.sum_w2 == 0 or k < 2:
            return 0.0
        return max(
            self.pair_sq_sums[i][j] / self.sum_w2
            for i in range(k)
            for j in range(i + 1, k)
        )

    def satz(self, m: int) -> float:
        return math.fsum(self.prime_sq_sums) - (m - 1) * self.sum_w2


class _Scratch(threading.local):
    """Per-thread buffers that the grid core reuses from one segment to
    the next, so that malloc neither returns their pages nor faults them
    back in."""

    def take(self, dtype: str, sizes) -> list[np.ndarray]:
        """Buffers of dtype with the given sizes, laid end to end in one
        array that grows only when too short."""
        held = self.__dict__.get(dtype)
        if held is None or held.size < sum(sizes):
            held = self.__dict__[dtype] = np.empty(sum(sizes), dtype)
        ends = itertools.accumulate(sizes)
        return [held[end - n : end] for n, end in zip(sizes, ends)]


def _w2_gram(gathered, masks, hits) -> list[list[float]]:
    """g[a][b] = sum of w2 where masks a and b both hold (g[a][a]: mask a
    alone), each unordered pair summed once.  gathered[a] is w2 at mask a's
    hits, ascending, and hits yields those hit positions in turn; read
    through another mask, gathered[a] keeps the elements of w2[m_a & m_b]
    in their order, so every entry is bit-identical to that sum."""
    k = len(masks)
    g = [[0.0] * k for _ in masks]
    for a, w2_a in enumerate(gathered):
        g[a][a] = float(w2_a.sum())
    for a, idx in zip(range(k - 1), hits):  # the last mask's hits are not read
        for b in range(a + 1, k):
            g[a][b] = g[b][a] = float(gathered[a].compress(masks[b][idx]).sum())
    return g


class _Segment(NamedTuple):
    """The grid core's result on one grid: hits(a) lists mask a's hits."""

    count: int
    sum_w2: float
    masks: list
    hits: Callable[[int], np.ndarray]
    gram: list[list[float]]
    sum_active: float | None  # w^2 summed where some mask holds


def _moment_segment(cfg: SieveConfig, lo: int, hi: int, restrict: bool, forms,
                    params: KernelParams, offsets: tuple[int, ...], scratch: _Scratch,
                    active: bool = False) -> _Segment:
    """The grid core on weight_array's grid over [lo, hi], w placed from
    the class table of (R, W, params) on offsets, the masks read by
    form_reads and the Gram from _w2_gram; sum_active only with active.

    The masks are read first, so a table over the sieve budget is refused
    before any weight is placed.  w^2 is never held whole: the grid is cut
    into leaves of BLOCK points, each placed (_fill) in one buffer, squared
    and summed by np.sum, and the sum of w^2 is the math.fsum of those leaf
    sums, so its bits are fixed by BLOCK (and, in moment_sums, by
    MOMENT_SEGMENT), with an error bound no larger than that of one np.sum
    of the whole array.  From each leaf, w^2 at each mask's hits
    (PrimeTable.hits) is copied into one buffer per mask, in order, and the
    later masks are read at those hits, so numpy's sums of those buffers are
    the Gram of the whole-array gathers, bit for bit; a window of one leaf
    gathers whole and keeps its hits.  With active, w^2 wherever some mask
    holds is summed per leaf and the leaf sums merged by math.fsum likewise.
    The buffers come from scratch.
    """
    start, step, count = _grid(cfg, lo, hi, restrict)
    table, reads = form_reads(forms, start, step, count)
    masks = [table.along(first, d, count) for first, d in reads]
    classes = _classes(build_support(cfg.R, cfg.W, params), offsets) if count else ()
    progressions = _progressions(classes, start, step)
    n_leaf = min(count, BLOCK)
    one_leaf = count == n_leaf  # then its gathers are whole and need no buffer
    if one_leaf:
        hits = [table.hits(first, d, count) for first, d in reads]
        per_mask = [0] * len(hits)
    else:
        per_mask = [int(np.count_nonzero(m)) for m in masks]
    w, *gathered = scratch.take("float64", [n_leaf, *per_mask])
    hit = np.empty(n_leaf if active else 0, dtype=bool)
    filled = [0] * len(masks)

    def leaf(j0: int, n: int) -> tuple:
        """w^2 on [j0, j0 + n) gathered at the hits; its sum and active sum."""
        w2 = _fill(w[:n], progressions, j0)
        np.square(w2, out=w2)
        leaf_hits = hits if one_leaf else [table.hits(first + j0 * d, d, n) for first, d in reads]
        for a, idx in enumerate(leaf_hits):
            if one_leaf:
                gathered[a] = w2[idx]
            else:
                w2.take(idx, out=gathered[a][filled[a] : filled[a] + len(idx)], mode="clip")
                filled[a] += len(idx)
        if not active:
            return w2.sum(), 0.0
        hit[:n] = False
        for idx in leaf_hits:
            hit[idx] = True
        return w2.sum(), w2[hit[:n]].sum()

    sums = [leaf(j0, min(BLOCK, count - j0)) for j0 in range(0, count, BLOCK)]

    def mask_hits(a: int) -> np.ndarray:
        """Mask a's hits: the one leaf's, else listed again."""
        return hits[a] if one_leaf else table.hits(*reads[a], count)

    gram = _w2_gram(gathered, masks, map(mask_hits, range(len(masks))))
    sum_active = math.fsum(s for _, s in sums) if active else None
    return _Segment(count, math.fsum(s for s, _ in sums), masks, mask_hits, gram, sum_active)


def moment_sums(
    cfg: SieveConfig, lo: int, hi: int, restrict: bool = True, threads: int = 1
) -> MomentReport:
    """Moment sums over n in [lo, hi] (n = b0 mod W when restrict).

    The range splits into segments of MOMENT_SEGMENT n-values, each run
    through the grid core on a pool of `threads` workers (below 1 raises
    ValueError); partial sums merge by compensated summation in segment
    order, so totals do not depend on the thread count.  A span over
    MAX_MOMENT_SPAN raises ResourceBudgetError.
    """
    if hi - lo > MAX_MOMENT_SPAN:
        raise ResourceBudgetError(
            f"window span {hi - lo} exceeds MAX_MOMENT_SPAN = {MAX_MOMENT_SPAN}; "
            f"lower --N"
        )
    k = cfg.k
    _classes(cfg.support, cfg.offsets.offsets)  # filled before the workers read it
    bounds = list(range(lo, hi + 1, MOMENT_SEGMENT)) + [hi + 1]
    jobs = [(a, b - 1) for a, b in zip(bounds, bounds[1:])]

    offsets, scratch = cfg.offsets.offsets, _Scratch()
    forms = [(1, h) for h in offsets]

    def segment(ab):
        seg = _moment_segment(cfg, *ab, restrict, forms, cfg.params, offsets, scratch)
        return seg.count, seg.sum_w2, seg.gram

    with ThreadPoolExecutor(max_workers=threads) as ex:
        parts = list(ex.map(segment, jobs))
    n_count = sum(p[0] for p in parts)
    sum_w2 = math.fsum(p[1] for p in parts)
    pair = tuple(
        tuple(math.fsum(p[2][i][j] for p in parts) for j in range(k))
        for i in range(k)
    )
    prime_sums = tuple(pair[i][i] for i in range(k))
    return MomentReport(lo, hi, restrict, n_count, sum_w2, prime_sums, pair)


@dataclass(frozen=True)
class TaoCheckReport:
    n_lo: int
    n_hi: int
    index_pair: tuple[int, int]
    n_scanned: int
    n_checked: int
    violations: int
    max_abs_diff: float

    derived = ("passed",)
    as_dict = report_dict

    @property
    def passed(self) -> bool:
        return self.violations == 0


def tao_domination_check(
    cfg: SieveConfig, alt_params: KernelParams, i: int, j: int, lo: int, hi: int
) -> TaoCheckReport:
    """Compare the weight against a hybrid whose coordinate factors at
    positions i and j switch to alt_params where d > 1.

    The hybrid agrees with the original on every tuple with d_i = d_j = 1,
    the only tuples that reach an n with n + h_i and n + h_j both prime and
    above R, so the weights must match exactly there.  lambda - lambda_alt,
    over the Support tuples where they differ, is placed on [lo, hi] one
    BLOCK of n at a time and read at those n: any nonzero entry is a
    violation.

    The hybrid multiplies factor(t) of cfg.params and alt_params, so the
    check assumes F is that product, as KernelParams.value computes it: a
    subclass that overrides value alone gets a hybrid of mixed factors.
    """
    if i == j or not (0 <= i < cfg.k and 0 <= j < cfg.k):
        raise ParameterConditionError(f"need distinct indices below {cfg.k}")
    if alt_params.k != cfg.k:
        raise ParameterConditionError("alt_params.k must match the offsets")
    log_r = math.log(cfg.R)
    swapped = []
    for dt, lam in cfg.support.coeff.items():
        if dt[i] == dt[j] == 1:
            continue
        ts = [math.log(d) / log_r for d in dt]
        factors = (
            (alt_params if c in (i, j) and d > 1 else cfg.params).factor(ts[c])
            for c, d in enumerate(dt)
        )
        # lambda is mu(d_1...d_k) times a positive product of factors
        lam_alt = math.copysign(math.prod(factors), lam)
        if lam_alt == lam:
            continue
        swapped.append((*divisor_class(cfg.offsets, dt), lam - lam_alt))

    h_i, h_j = cfg.offsets.offsets[i], cfg.offsets.offsets[j]
    n_scanned = max(0, hi - lo + 1)
    cand = np.logical_and(*form_masks([(1, h_i), (1, h_j)], lo, 1, n_scanned)[0])
    # both entries must also exceed R: n > R - min(h_i, h_j)
    cand[: max(0, cfg.R - min(h_i, h_j) + 1 - lo)] = False
    checked = np.flatnonzero(cand)
    violations, max_abs = 0, 0.0
    for b in range(0, n_scanned, BLOCK):  # the difference, one block at a time
        at = checked[checked.searchsorted(b) : checked.searchsorted(b + BLOCK)] - b
        diff = np.abs(_place(swapped, lo + b, 1, min(BLOCK, n_scanned - b))[at])
        violations += int(np.count_nonzero(diff))
        max_abs = max(max_abs, float(diff.max(initial=0.0)))
    return TaoCheckReport(
        n_lo=lo, n_hi=hi, index_pair=(i, j), n_scanned=n_scanned,
        n_checked=len(checked), violations=violations, max_abs_diff=max_abs,
    )


@dataclass(frozen=True)
class GoldbachScanReport:
    """Mirrored-window scan over n in [ceil(N/2), N].

    For offsets h in the base tuple the hit indicator is 1_prime(n + h);
    for a mirrored offset N - h it is 1_prime(N - n - h).  x_count(n) is
    the number of hits.  A witness is an (n, h_i, h_j) with n + h_i and
    N - n - h_j both prime.
    """

    N: int
    n_lo: int
    n_hi: int
    union: OffsetTuple
    sum_w2: float
    sum_w2_active: float  # restricted to n with at least one hit
    sum_xw2: float
    sum_x2w2: float
    pair_sum_same: float  # ordered pairs inside the base or mirrored block
    pair_sum_mixed: float  # ordered cross pairs
    cs_holds: bool
    witness: tuple[int, int, int] | None
    witness_count: int

    as_dict = report_dict


def goldbach_window_scan(cfg: SieveConfig, N: int | None = None) -> GoldbachScanReport:
    """Scan the upper half window with the mirrored offset union.

    The weight lives on the 2k-point union of the offsets and their
    reflections N - h; n runs unrestricted over [ceil(N/2), N].  Reports
    the hit-weighted sums, their Cauchy-Schwarz pieces split into same-block
    and cross-block pairs, and the first prime-pair witness.
    """
    if N is None:
        N = cfg.N
    if N % 2 or N < 8:
        raise ParameterConditionError(f"window target must be even and >= 8, got {N}")
    union = mirror_union(cfg.offsets, N)
    lo, hi = (N + 1) // 2, N
    base, k = cfg.offsets.offsets, cfg.k
    # the base block reads n + h, the mirrored block N - n - h
    forms = [(1, h) for h in base] + [(-1, N - h) for h in base]
    seg = _moment_segment(
        cfg, lo, hi, False, forms, cfg.mirror_params, union.offsets, _Scratch(), active=True
    )
    sum_w2, masks, gram, sum_active = seg.sum_w2, seg.masks, seg.gram, seg.sum_active
    # x(n) hits: x w^2 sums to the Gram's trace, x^2 adds pairs of distinct hits
    sum_xw2 = math.fsum(gram[a][a] for a in range(2 * k))
    pairs = [0.0, 0.0]  # ordered pairs inside one block, across the blocks
    for a, b in itertools.permutations(range(2 * k), 2):
        pairs[(a < k) != (b < k)] += gram[a][b]
    same, mixed = pairs
    sum_x2w2 = sum_xw2 + same + mixed
    cs = sum_xw2**2 <= sum_active * sum_x2w2 * (1 + 1e-12) + 1e-300
    witness, witness_count = None, 0
    for i in range(k):
        at = seg.hits(i)  # a gather of the mirrored views, not an AND
        for j in range(k):
            both = np.compress(masks[k + j][at], at)
            witness_count += both.size
            if both.size and witness is None:
                witness = (lo + int(both[0]), base[i], base[j])
    return GoldbachScanReport(
        N=N, n_lo=lo, n_hi=hi, union=union, sum_w2=sum_w2,
        sum_w2_active=sum_active, sum_xw2=sum_xw2, sum_x2w2=sum_x2w2,
        pair_sum_same=same, pair_sum_mixed=mixed, cs_holds=bool(cs),
        witness=witness, witness_count=witness_count,
    )
