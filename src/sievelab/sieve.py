"""Divisor-sum sieve weights and their moment sums at desk scale.

The weight of n is a sum, over tuples of divisors d_i | n + h_i, of
mu-signed values of a multivariate test function evaluated at the points
log d_i / log R.  Three implementations coexist on purpose: a per-n
divisor-walk (`weight`), a definitional oracle (`naive_weight`), and a
vectorized path that enumerates the divisor tuples once globally and adds
each coefficient along its arithmetic progression (`weight_array`).  All
three read one `Support` (Moebius table, divisors, support primes and the
nonzero divisor tuples), built once per (R, W, params) and cached.  Its
tuple count is exact, so a refusal (ResourceBudgetError, CLI exit code 3)
names the number of tuples the enumeration would visit.  The moment sums,
the two-parameter domination check, and the mirrored-window scan are built
on top.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterConditionError, ResourceBudgetError
from .primes import _small_primes, primorial, sieve_range
from .tuples import OffsetTuple, as_tuple, is_admissible, mirror_union
from .variational import KernelParams

MAX_SUPPORT_TUPLES = 5_000_000
MAX_MOMENT_SPAN = 400_000_000
SUPPORT_CACHE_SIZE = 32


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

    def as_dict(self) -> dict:
        return {
            "N": self.N,
            "delta": self.delta,
            "R": self.R,
            "w_bound": self.w_bound,
            "W": self.W,
            "b0": self.b0,
            "offsets": self.offsets.serialize(),
            "params": self.params.as_dict(),
        }


def default_params(k: int) -> KernelParams:
    return KernelParams(k=k, base=2.0, slope=10.0, cutoff=0.4)


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
        params = default_params(offsets.k)
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


def coordinate_factor(params: KernelParams, t: float) -> float:
    """One factor of the test function: the integral of the scaled profile
    from t to its support end cutoff/k; zero once t reaches cutoff/k."""
    cap = params.coord_cap
    if t >= cap:
        return 0.0
    sk = params.slope * params.k
    return math.log(
        (params.base + params.slope * params.cutoff) / (params.base + sk * t)
    ) / sk


def test_function_value(params: KernelParams, ts) -> float:
    """Product of coordinate factors, hard-capped at coordinate sum 1/base."""
    if len(ts) != params.k:
        raise ParameterConditionError(
            f"expected {params.k} coordinates, got {len(ts)}"
        )
    if sum(ts) > params.sum_cap:
        return 0.0
    val = 1.0
    for t in ts:
        val *= coordinate_factor(params, t)
        if val == 0.0:
            return 0.0
    return val


@dataclass(frozen=True, eq=False)
class Support:
    """The divisor support of the weight for one (R, W, params).

    mu is the Moebius function on [0, R], read-only and zero off the
    support (d not squarefree, or sharing a prime with W).  divisors are
    the d with mu[d] != 0 in ascending order (1 included), primes the
    primes <= R not dividing W.  visits is the exact number of ordered
    k-tuples of divisors with product <= R, which the enumeration walks;
    tuples holds those with a nonzero coefficient, in enumeration order.
    """

    mu: np.ndarray
    divisors: tuple[int, ...]
    primes: tuple[int, ...]
    visits: int
    tuples: tuple[tuple[tuple[int, ...], float], ...]


@functools.lru_cache(maxsize=SUPPORT_CACHE_SIZE)
def build_support(R: int, W: int, params: KernelParams) -> Support:
    """The Support of (R, W, params), built once and cached.

    The enumeration takes d from the divisors per coordinate, pruning on
    the running product bound prod(d) <= R, and drops tuples whose
    test-function value vanishes (coordinate beyond its cap, or capped
    sum).  Before it starts, the tuples it would visit are counted (the
    last coordinate by bisection, each (slots, bound) pair once), and a
    count over MAX_SUPPORT_TUPLES raises ResourceBudgetError.
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
    out = []
    tup = [1] * params.k
    ts = [0.0] * params.k

    def rec(i, prod, sign):
        if i == params.k:
            val = test_function_value(params, ts)
            if val != 0.0:
                out.append((tuple(tup), sign * val))
            return
        for d in divisors:
            if prod * d > R:
                break
            tup[i] = d
            ts[i] = math.log(d) / log_r if d > 1 else 0.0
            rec(i + 1, prod * d, sign * mu_of[d])
        tup[i] = 1
        ts[i] = 0.0

    rec(0, 1, 1)
    support_primes = tuple(p for p in small if W % p)
    return Support(mu, divisors, support_primes, visits, tuple(out))


def lambda_tuples(cfg: SieveConfig) -> tuple[tuple[tuple[int, ...], float], ...]:
    """All divisor tuples carrying a nonzero coefficient, with the values."""
    return cfg.support.tuples


def lambda_coeff(cfg: SieveConfig, d) -> float:
    """Coefficient of one divisor tuple; zero outside the support.

    Support: every d_i squarefree, prod(d_i) <= R, gcd(prod, W) = 1.
    """
    d = tuple(int(v) for v in d)
    if len(d) != cfg.k:
        raise ParameterConditionError(f"expected {cfg.k} divisors, got {len(d)}")
    if any(v < 1 for v in d):
        raise ParameterConditionError("divisors must be >= 1")
    if math.prod(d) > cfg.R:
        return 0.0
    sign = math.prod(int(cfg.support.mu[v]) for v in d)
    log_r = math.log(cfg.R)
    ts = [math.log(v) / log_r for v in d]
    return sign * test_function_value(cfg.params, ts)


def _distinct_support_primes(m: int, cfg: SieveConfig, table) -> list[int]:
    """Distinct primes of m that are <= R and coprime to W."""
    # spf walking needs every quotient in range, hence the lo <= 2 condition
    if (
        table is not None
        and table.spf is not None
        and table.lo <= 2
        and m < table.hi
    ):
        return [p for p in table.distinct_primes(m) if p <= cfg.R and cfg.W % p != 0]
    return [p for p in cfg.support.primes if m % p == 0]


def weight(cfg: SieveConfig, n: int, table=None, coord_factor=None) -> float:
    """Sieve weight of n by depth-first walk over divisor tuples.

    coord_factor, when given, replaces the per-coordinate test-function
    factor: called as coord_factor(i, t).  The simplex cap of cfg.params
    still applies.  table is an optional smallest-prime-factor table
    covering the n + h_i.
    """
    entries = [n + h for h in cfg.offsets]
    if any(m < 1 for m in entries):
        raise ParameterConditionError(f"n + h must be >= 1; n = {n}")
    if coord_factor is None:
        coord_factor = lambda i, t: coordinate_factor(cfg.params, t)
    log_r = math.log(cfg.R)
    tau = cfg.params.sum_cap
    prime_lists = [_distinct_support_primes(m, cfg, table) for m in entries]

    total = 0.0

    def rec(i, prod, sign, tsum, fac):
        nonlocal total
        if i == cfg.k:
            total += sign * fac
            return
        # d_i = 1 branch first, then squarefree products of the prime list
        base = coord_factor(i, 0.0)
        if base != 0.0:
            rec(i + 1, prod, sign, tsum, fac * base)
        primes = prime_lists[i]

        def grow(j, d, dsign):
            for idx in range(j, len(primes)):
                p = primes[idx]
                nd = d * p
                if prod * nd > cfg.R:
                    continue
                t = math.log(nd) / log_r
                if tsum + t <= tau:
                    f = coord_factor(i, t)
                    if f != 0.0:
                        rec(i + 1, prod * nd, sign * dsign * -1, tsum + t, fac * f)
                grow(idx + 1, nd, dsign * -1)

        grow(0, 1, 1)

    rec(0, 1, 1, 0.0, 1.0)
    return total


def naive_weight(cfg: SieveConfig, n: int) -> float:
    """Definitional oracle: scan all candidate divisors of each n + h_i by
    remainder tests and sum the coefficients tuple by tuple.  Slow on
    purpose; keep ranges small."""
    entries = [n + h for h in cfg.offsets]
    if any(m < 1 for m in entries):
        raise ParameterConditionError(f"n + h must be >= 1; n = {n}")
    sup = cfg.support
    log_r = math.log(cfg.R)
    per_coord = [[d for d in sup.divisors if m % d == 0] for m in entries]
    total = 0.0
    for tup in itertools.product(*per_coord):
        prod = math.prod(tup)
        if prod > cfg.R:
            continue
        sign = math.prod(int(sup.mu[d]) for d in tup)
        ts = [math.log(d) / log_r for d in tup]
        total += sign * test_function_value(cfg.params, ts)
    return total


def _crt_merge(a1: int, m1: int, a2: int, m2: int):
    """Solve x = a1 mod m1, x = a2 mod m2; None when inconsistent."""
    g = math.gcd(m1, m2)
    if (a2 - a1) % g != 0:
        return None
    l = m1 // g * m2
    step = pow(m1 // g, -1, m2 // g) if m2 // g > 1 else 0
    x = (a1 + (a2 - a1) // g % (m2 // g) * step % (m2 // g) * m1) % l
    return x, l


def weight_array(cfg: SieveConfig, lo: int, hi: int, restrict: bool = True):
    """Weights for all n in [lo, hi], vectorized.

    Returns (start, step, values): n = start + j*step runs over the grid
    (step = W with n = b0 mod W when restrict, else step 1), values[j] the
    weight.  Each globally enumerated divisor tuple solves its system of
    congruences n = -h_i mod d_i once and adds its coefficient along the
    resulting progression.
    """
    step = cfg.W if restrict else 1
    start = lo + (cfg.b0 - lo) % step
    w = np.zeros(max((hi - start) // step + 1, 0))
    if len(w) == 0:
        return start, step, w
    for dt, lam in lambda_tuples(cfg):
        a, m = (cfg.b0, cfg.W) if restrict else (0, 1)
        for d, h in zip(dt, cfg.offsets):
            if d == 1:
                continue
            merged = _crt_merge(a, m, (-h) % d, d)
            if merged is None:
                break
            a, m = merged
        else:
            # positions j with start + j*step = a (mod m): step divides m,
            # and a = start (mod step) since both are b0 mod W when restricted
            stride = m // step
            first = (a - start) // step % stride
            w[first::stride] += lam
    return start, step, w


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

    def csv_row(self, cfg: SieveConfig) -> list:
        row = [cfg.N, cfg.delta, cfg.k, cfg.W, cfg.b0, self.sum_w2]
        row.extend(self.prime_sq_sums)
        row.extend(self.ratios)
        row.append(self.pair_max_ratio)
        return row

    @staticmethod
    def csv_header(k: int) -> list:
        head = ["N", "delta", "k", "W", "b0", "sum_w2"]
        head += [f"sum_prime_w2_{i}" for i in range(k)]
        head += [f"ratio_{i}" for i in range(k)]
        head.append("pair_max_ratio")
        return head

    def as_dict(self) -> dict:
        return {
            "n_lo": self.n_lo,
            "n_hi": self.n_hi,
            "restricted": self.restricted,
            "n_count": self.n_count,
            "sum_w2": self.sum_w2,
            "prime_sq_sums": list(self.prime_sq_sums),
            "pair_sq_sums": [list(r) for r in self.pair_sq_sums],
            "ratios": list(self.ratios),
            "pair_max_ratio": self.pair_max_ratio,
        }


def _w2_gram(w2: np.ndarray, masks) -> list[list[float]]:
    """g[a][b] = sum of w2 where masks a and b both hold (g[a][a]: mask a
    alone), each unordered pair summed once."""
    g = [[0.0] * len(masks) for _ in masks]
    for a, m_a in enumerate(masks):
        g[a][a] = float(w2[m_a].sum())
        for b in range(a + 1, len(masks)):
            g[a][b] = g[b][a] = float(w2[m_a & masks[b]].sum())
    return g


def _moment_segment(cfg: SieveConfig, seg_lo: int, seg_hi: int, restrict: bool):
    """(grid points, sum of w^2, Gram of the prime masks) on one segment."""
    start, step, w = weight_array(cfg, seg_lo, seg_hi, restrict=restrict)
    h = cfg.offsets.offsets
    table = sieve_range(max(0, seg_lo + h[0]), seg_hi + h[-1] + 1)
    masks = [table.along(start + off, step, len(w)) for off in h]
    np.square(w, out=w)
    return len(w), float(w.sum()), _w2_gram(w, masks)


def moment_sums(
    cfg: SieveConfig,
    lo: int,
    hi: int,
    restrict: bool = True,
    threads: int | None = None,
    segment_size: int = 1 << 21,
) -> MomentReport:
    """Moment sums over n in [lo, hi] (n = b0 mod W when restrict).

    The range splits into fixed segments evaluated independently (optionally
    on a thread pool); partial sums merge by compensated summation in
    segment order, so totals do not depend on the thread count.  A span
    over MAX_MOMENT_SPAN raises ResourceBudgetError.
    """
    if lo < 1:
        raise ParameterConditionError(f"window start must be >= 1, got {lo}")
    if hi - lo > MAX_MOMENT_SPAN:
        raise ResourceBudgetError(
            f"window span {hi - lo} exceeds MAX_MOMENT_SPAN = {MAX_MOMENT_SPAN}; "
            f"lower --N"
        )
    k = cfg.k
    lambda_tuples(cfg)  # touch the cache before any threads fork
    bounds = list(range(lo, hi + 1, segment_size)) + [hi + 1]
    jobs = [(a, b - 1) for a, b in zip(bounds, bounds[1:])]
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = list(
                ex.map(lambda ab: _moment_segment(cfg, *ab, restrict), jobs)
            )
    else:
        parts = [_moment_segment(cfg, a, b, restrict) for a, b in jobs]
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

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def as_dict(self) -> dict:
        return {
            "n_lo": self.n_lo,
            "n_hi": self.n_hi,
            "index_pair": list(self.index_pair),
            "n_scanned": self.n_scanned,
            "n_checked": self.n_checked,
            "violations": self.violations,
            "max_abs_diff": self.max_abs_diff,
            "passed": self.passed,
        }


def tao_domination_check(
    cfg: SieveConfig,
    alt_params: KernelParams,
    i: int,
    j: int,
    lo: int,
    hi: int,
) -> TaoCheckReport:
    """Compare the weight against a hybrid whose coordinate factors at
    positions i and j switch to alt_params away from t = 0.

    The hybrid agrees with the original on every tuple with d_i = d_j = 1,
    so on n where both n + h_i and n + h_j are prime and above R the two
    weights must match exactly (those entries then admit no divisor in the
    support besides 1).  Any nonzero difference is a violation.
    """
    if i == j or not (0 <= i < cfg.k and 0 <= j < cfg.k):
        raise ParameterConditionError(f"need distinct indices below {cfg.k}")
    if alt_params.k != cfg.k:
        raise ParameterConditionError("alt_params.k must match the offsets")

    def hybrid(ci, t):
        if ci in (i, j) and t != 0.0:
            return coordinate_factor(alt_params, t)
        return coordinate_factor(cfg.params, t)

    lo = max(lo, 1)
    max_h = cfg.offsets.offsets[-1]
    # start the table at 2 so factor chains can be walked inside it
    table = sieve_range(2, hi + max_h + 1, want_spf=True)
    h_i, h_j = cfg.offsets.offsets[i], cfg.offsets.offsets[j]
    n_scanned = max(0, hi - lo + 1)
    cand = table.along(lo + h_i, 1, n_scanned) & table.along(lo + h_j, 1, n_scanned)
    # both entries must also exceed R: n > R - min(h_i, h_j)
    cand[: max(0, cfg.R - min(h_i, h_j) + 1 - lo)] = False
    n_checked = violations = 0
    max_diff = 0.0
    for n in (lo + np.flatnonzero(cand)).tolist():
        n_checked += 1
        w = weight(cfg, n, table=table)
        w_alt = weight(cfg, n, table=table, coord_factor=hybrid)
        diff = abs(w - w_alt)
        if diff > 0.0:
            violations += 1
            max_diff = max(max_diff, diff)
    return TaoCheckReport(
        n_lo=lo, n_hi=hi, index_pair=(i, j), n_scanned=n_scanned,
        n_checked=n_checked, violations=violations, max_abs_diff=max_diff,
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

    def as_dict(self) -> dict:
        return {
            "N": self.N,
            "n_lo": self.n_lo,
            "n_hi": self.n_hi,
            "union": self.union.serialize(),
            "sum_w2": self.sum_w2,
            "sum_w2_active": self.sum_w2_active,
            "sum_xw2": self.sum_xw2,
            "sum_x2w2": self.sum_x2w2,
            "pair_sum_same": self.pair_sum_same,
            "pair_sum_mixed": self.pair_sum_mixed,
            "cs_holds": self.cs_holds,
            "witness": list(self.witness) if self.witness else None,
            "witness_count": self.witness_count,
        }


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
    scan_params = replace(cfg.params, k=union.k)
    scan_cfg = replace(cfg, offsets=union, params=scan_params)
    lo, hi = (N + 1) // 2, N
    start, step, w = weight_array(scan_cfg, lo, hi, restrict=False)
    base = list(cfg.offsets)
    # largest value read: n + h at n = N, or N - n - h at n = lo
    table = sieve_range(2, max(N + base[-1], N - lo - base[0]) + 1)
    k = cfg.k
    # n = start + j: the base block reads n + h, the mirrored block N - n - h
    hit_masks = [table.along(start + h, 1, len(w)) for h in base]
    hit_masks += [table.along(N - start - h, -1, len(w)) for h in base]
    x = np.zeros(len(w), dtype=np.int64)
    for m in hit_masks:
        x += m
    w2 = np.square(w, out=w)
    sum_w2 = float(w2.sum())
    sum_active = float(w2[x > 0].sum())
    sum_xw2 = float((x * w2).sum())
    sum_x2w2 = float((x * x * w2).sum())
    gram = _w2_gram(w2, hit_masks)
    same = mixed = 0.0
    for a, b in itertools.permutations(range(2 * k), 2):
        if (a < k) == (b < k):
            same += gram[a][b]
        else:
            mixed += gram[a][b]
    cs = sum_xw2**2 <= sum_active * sum_x2w2 * (1 + 1e-12) + 1e-300
    witness = None
    witness_count = 0
    for idx_i, idx_j in itertools.product(range(k), repeat=2):
        both = hit_masks[idx_i] & hit_masks[k + idx_j]
        c = int(both.sum())
        witness_count += c
        if c and witness is None:
            witness = (start + int(np.argmax(both)), base[idx_i], base[idx_j])
    return GoldbachScanReport(
        N=N, n_lo=lo, n_hi=hi, union=union, sum_w2=sum_w2,
        sum_w2_active=sum_active, sum_xw2=sum_xw2, sum_x2w2=sum_x2w2,
        pair_sum_same=same, pair_sum_mixed=mixed, cs_holds=bool(cs),
        witness=witness, witness_count=witness_count,
    )
