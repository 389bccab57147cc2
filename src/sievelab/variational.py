"""Profile-function calculus for the multivariate sieve test function.

The one-dimensional profile is 1/(base + slope*t) on [0, cutoff] and zero
outside.  The k-dimensional test function is the product of scaled copies
profile(k*t_i), restricted to the simplex sum(t_i) <= 1/base.  The sieve
evaluates the F of its coefficients only through KernelParams.factor and
value, so this module alone knows the formula.  It also holds the
closed-form integrals of the profile, the two tail bounds, the
moment-ratio estimates driving the prime-detection bookkeeping, a
boundary-weighted variant of the second ratio, Monte Carlo cross-checks for
small k, exact low-dimensional quadrature, and a Fourier-side identity check.
The quadrature reads one cached Gauss-Legendre table, graded in log(base +
slope*k*t) near the profile's pole; only projection_ratio_exact(k=3) imports
scipy, for its adaptive nquad.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterConditionError
from .reportio import report_dict

GRADED_NODES = 32
MC_BATCHES = 20  # simplex_mc_integrals batch means behind each stderr
PAIR_GRID = 257  # _pair_mass_grid nodes
FREQ_MAX = 200.0  # _identity_sides truncates to |xi| <= FREQ_MAX
# rows per block of _identity_sides' quotient matrix, and of its phase
# matrix, which never takes a one-row block (at least 2 rows, a one-row
# tail folded into the block before it)
FREQ_ROWS = 8


@dataclass(frozen=True)
class KernelParams:
    """The truncated-hyperbola profile and the test function F built on it.

    base > 1 is the additive part of the denominator, slope the linear
    growth rate, cutoff the right end of the support.  eta is an inner
    margin retained for reporting only (the smooth-envelope error term);
    it does not enter any closed form here.  factor and value evaluate F.
    """

    k: int
    base: float = 2.0
    slope: float = 10.0
    cutoff: float = 0.4
    eta: float = 0.0

    derived = ("sum_cap", "log_ratio", "tail_threshold")
    as_dict = report_dict

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ParameterConditionError(f"k must be an integer >= 1, got {self.k}")
        if not self.base > 1:
            raise ParameterConditionError(f"base must exceed 1, got {self.base}")
        if not self.slope > 0:
            raise ParameterConditionError(f"slope must be positive, got {self.slope}")
        if not self.cutoff > 0:
            raise ParameterConditionError(f"cutoff must be positive, got {self.cutoff}")
        if not 0 <= self.eta < 1 / self.base:
            raise ParameterConditionError(
                f"eta must lie in [0, {1 / self.base}), got {self.eta}"
            )

    @property
    def sum_cap(self) -> float:
        """Simplex bound on the coordinate sum, 1/base."""
        return 1.0 / self.base

    @property
    def log_ratio(self) -> float:
        """log(1 + slope*cutoff/base); the profile mass equals this / slope."""
        return math.log1p(self.slope * self.cutoff / self.base)

    @property
    def coord_cap(self) -> float:
        """Per-coordinate support bound cutoff/k of the scaled profile."""
        return self.cutoff / self.k

    @property
    def tail_threshold(self) -> float:
        """(1 - cutoff/k)/base; coordinate sums above it form the tail."""
        return (1.0 - self.cutoff / self.k) / self.base

    def factor(self, t: float) -> float:
        """One factor of F: the integral of the scaled profile from t to its
        support end coord_cap; zero once t reaches coord_cap."""
        if t >= self.coord_cap:
            return 0.0
        sk = self.slope * self.k
        top = self.base + self.slope * self.cutoff
        return math.log(top / (self.base + sk * t)) / sk

    def value(self, ts) -> float:
        """F at the coordinates ts: the product of the factors, 0 above sum_cap."""
        if len(ts) != self.k:
            raise ParameterConditionError(
                f"expected {self.k} coordinates, got {len(ts)}"
            )
        if sum(ts) > self.sum_cap:
            return 0.0
        val = 1.0
        for t in ts:
            val *= self.factor(t)
            if val == 0.0:
                return 0.0
        return val


@dataclass(frozen=True)
class KernelIntegrals:
    """Closed-form integrals of the profile.

    mass = integral of the profile, energy = integral of its square,
    center = energy-weighted mean position.  tail1_rel / tail2_rel are the
    tail bounds relative to the main terms k^-k * energy^k and
    k^-(k+1) * energy^(k-1) * mass^2; math.inf when the center-of-mass
    condition fails.
    """

    mass: float
    energy: float
    center: float
    tail1_rel: float
    tail2_rel: float

    as_dict = report_dict


def closed_forms(params: KernelParams) -> KernelIntegrals:
    """Evaluate mass, energy, center and relative tail bounds in closed form.

    mass = log_ratio/slope; energy = (1 - e^-log_ratio)/(base*slope);
    center = (base/slope) * (log_ratio/(1 - e^-log_ratio) - 1).  The two
    relative tails share the expression (cutoff/(k*base)) / slack^2 with
    slack = tail_threshold - center; they are inf when slack <= 0.
    """
    alpha = params.log_ratio
    one_minus = -math.expm1(-alpha)  # 1 - e^-alpha, stable near 0
    mass = alpha / params.slope
    energy = one_minus / (params.base * params.slope)
    center = (params.base / params.slope) * (alpha / one_minus - 1.0)
    slack = params.tail_threshold - center
    if slack > 0:
        rel = (params.cutoff / (params.k * params.base)) / slack**2
    else:
        rel = math.inf
    return KernelIntegrals(mass, energy, center, rel, rel)


def tail_bounds(params: KernelParams) -> tuple[float, float]:
    """Relative tail bounds; error out when the center-of-mass condition fails.

    The bounds only hold when the energy-weighted center stays below the
    tail threshold (1 - cutoff/k)/base.
    """
    forms = closed_forms(params)
    if not math.isfinite(forms.tail1_rel):
        raise ParameterConditionError(
            "center-of-mass condition violated: "
            f"center {forms.center:.6g} >= threshold {params.tail_threshold:.6g}"
        )
    return forms.tail1_rel, forms.tail2_rel


def tail_bounds_absolute(params: KernelParams) -> tuple[float, float]:
    """Tail bounds multiplied back by their main terms (small k only)."""
    forms = closed_forms(params)
    rel1, rel2 = tail_bounds(params)
    k = params.k
    main1 = float(k) ** (-k) * forms.energy**k
    main2 = float(k) ** (-(k + 1)) * forms.energy ** (k - 1) * forms.mass**2
    return main1 * rel1, main2 * rel2


class MomentRatios(NamedTuple):
    # proj_over_square: squared one-variable projection over the full square
    # integral, in lower-bound form (1 - tail); can go nonpositive when the
    # tail bound is weak.  biproj_over_proj: two-variable projection square
    # over the one-variable one, tail-free product form.
    proj_over_square: float
    biproj_over_proj: float


def moment_ratios(params: KernelParams) -> MomentRatios:
    """Product-form moment ratios of the k-dimensional test function.

    Both ratios collapse to mass^2/(k*energy); the first carries the
    (1 - tail) correction from truncating the simplex.  Requires k >= 2 and
    the center-of-mass condition.
    """
    if params.k < 2:
        raise ParameterConditionError("moment ratios need k >= 2")
    forms = closed_forms(params)
    rel1, _ = tail_bounds(params)
    core = forms.mass**2 / (params.k * forms.energy)
    return MomentRatios(core * (1.0 - rel1), core)


def constrained_minimizer_ratio(params: KernelParams) -> float:
    """Second moment ratio with the boundary weight (1 - sum t)^-2 kept.

    Bulk coordinates sit near center/k each, so the k-2 free coordinates
    contribute weight (1 - (k-2)*center/k)^-2; on the tail the weight is at
    most (1 - sum_cap)^-2.  Always >= the unweighted biproj_over_proj ratio.
    """
    if params.k < 2:
        raise ParameterConditionError("minimizer ratio needs k >= 2")
    forms = closed_forms(params)
    rel1, _ = tail_bounds(params)
    core = forms.mass**2 / (params.k * forms.energy)
    bulk_sum = (params.k - 2) * forms.center / params.k
    if bulk_sum >= 1:
        raise ParameterConditionError(
            f"boundary weight singular: bulk coordinate sum {bulk_sum:.6g} >= 1"
        )
    bulk_weight = (1.0 - bulk_sum) ** -2
    tail_weight = (1.0 - params.sum_cap) ** -2
    return core * (bulk_weight + rel1 * tail_weight)


def schedule_params(k: int, c: float = 1.0, psi: float | None = None) -> KernelParams:
    """Large-k parameter schedule: base = 1/psi(k), slope = base^2 * log k,
    cutoff chosen so log_ratio = log k - c*log log k exactly.

    psi defaults to 1/log log k, which forces k >= 16 so that base > 1.
    A custom psi is a value in (0, 1).
    """
    if not isinstance(k, (int, np.integer)) or k < 2:
        raise ParameterConditionError(f"k must be an integer >= 2, got {k}")
    if c <= 0:
        raise ParameterConditionError(f"c must be positive, got {c}")
    if psi is None:
        loglog = math.log(math.log(k))
        if loglog <= 1:
            raise ParameterConditionError(
                f"default schedule needs log log k > 1, i.e. k >= 16; got {k}"
            )
        psi_val = 1.0 / loglog
    else:
        psi_val = float(psi)
        if not 0 < psi_val < 1:
            raise ParameterConditionError(f"psi(k) must lie in (0, 1), got {psi_val}")
    base = 1.0 / psi_val
    slope = base**2 * math.log(k)
    alpha = math.log(k) - c * math.log(math.log(k))
    if alpha <= 0:
        raise ParameterConditionError(
            f"schedule exponent log k - c*log log k = {alpha:.6g} must be positive"
        )
    cutoff = base * math.expm1(alpha) / slope
    return KernelParams(k=int(k), base=base, slope=slope, cutoff=cutoff)


# ---------------------------------------------------------------------------
# Monte Carlo cross-checks


class McEstimate(NamedTuple):
    value: float
    stderr: float


@dataclass(frozen=True)
class SimplexMcResult:
    """Monte Carlo estimates of the five integrals of the k-dim test function.

    square        = integral of F^2 over the capped simplex
    proj_square   = integral over the remaining k-1 coordinates of
                    (integral of F in the first coordinate)^2
    biproj_square = same with the first and last coordinates integrated out
    tail1         = integral of (product profile)^2 over coordinate sums
                    above the tail threshold (no simplex cap, per the bound)
    tail2         = the projected analogue, inner integral unrestricted
    """

    params: KernelParams
    n_samples: int
    seed: int
    square: McEstimate
    proj_square: McEstimate
    biproj_square: McEstimate
    tail1: McEstimate
    tail2: McEstimate

    def estimates(self) -> dict:
        return self._column("value")

    def stderrs(self) -> dict:
        return self._column("stderr")

    def _column(self, part: str) -> dict:
        """{integral name: its McEstimate's value or stderr}, in field order."""
        return {
            name: getattr(v, part)
            for name, v in vars(self).items()
            if isinstance(v, McEstimate)
        }


def _scaled_profile(params: KernelParams, pts: np.ndarray) -> np.ndarray:
    """profile(k*t) on an array of coordinates, zero outside [0, coord_cap]."""
    inside = (pts >= 0) & (pts <= params.coord_cap)
    return np.where(inside, 1.0 / (params.base + params.slope * params.k * pts), 0.0)


def _cum_mass(params: KernelParams, u: np.ndarray) -> np.ndarray:
    """Integral of profile(k*t) from 0 to u, for u in [0, coord_cap]."""
    ak = params.slope * params.k
    return np.log1p(ak * np.asarray(u) / params.base) / ak


def _cum_energy(params: KernelParams, u: np.ndarray) -> np.ndarray:
    """Integral of profile(k*t)^2 from 0 to u, for u in [0, coord_cap]."""
    ak = params.slope * params.k
    return (1.0 / params.base - 1.0 / (params.base + ak * np.asarray(u))) / ak


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_{n-1}(x) by the three-term recurrence, n >= 1."""
    p_prev, p = np.ones_like(x), x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, p_prev


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes (ascending) and weights on [-1, 1],
    cached per order.

    Newton's method on the three-term recurrence finds the roots of P_n in
    [0, 1) from Tricomi's first guess cos(pi(i - 1/4)/(n + 1/2)), written
    as sin(pi(n + 1 - 2i)/(2n + 1)) so that the middle root of an odd order
    starts, and stays, at exactly 0.  After four steps a fifth would move
    no root of any order up to 2400 by more than 1.2e-16; the count is
    fixed, so the bits do not depend on a convergence test.  The weights are
    2(1 - x^2)/(n(x P_n - P_{n-1}))^2, i.e. 2/((1 - x^2) P_n'(x)^2), and the
    negative half is the mirror image, so the rule is exactly symmetric.
    Each order takes O(n) memory and O(n^2) time (Hale and Townsend, SIAM
    J. Sci. Comput. 2013, give O(n) methods; the recurrence is enough at
    n <= 2400).
    """
    i = np.arange(1, (n + 1) // 2 + 1)
    x = np.sin(np.pi * (n + 1 - 2 * i) / (2 * n + 1))  # descending in [0, 1)
    for _ in range(4):
        p, p_prev = _legendre_pair(n, x)
        x = x - p * (x * x - 1.0) / (n * (x * p - p_prev))
    p, p_prev = _legendre_pair(n, x)
    w = 2.0 * (1.0 - x) * (1.0 + x) / (n * (x * p - p_prev)) ** 2
    m = n // 2  # the roots with a mirror image; an odd order adds 0
    nodes = np.concatenate((-x[:m], x[::-1]))
    weights = np.concatenate((w[:m], w[::-1]))
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _graded_rule(params: KernelParams, lo, hi):
    """Nodes s and weights on [lo, hi] (trailing node axis added): Gauss-
    Legendre in v = log1p(slope*k*s/base), graded toward the pole of
    profile(k*s) at s = -base/(slope*k)."""
    ak, base = params.slope * params.k, params.base
    x, wx = _gauss_legendre(GRADED_NODES)
    v_lo = np.log1p(ak * np.asarray(lo, dtype=float)[..., None] / base)
    half = 0.5 * (np.log1p(ak * np.asarray(hi, dtype=float)[..., None] / base) - v_lo)
    v = v_lo + half * (x + 1.0)
    return base * np.expm1(v) / ak, half * wx * base * np.exp(v) / ak


def _split_graded_rule(params: KernelParams, lo, hi, r):
    """Nodes t and weights on [lo, hi], split at the midpoint: the left half
    graded toward the pole of profile(k*t), the right half, mirrored with
    s = r - t, toward the pole of a factor in r - t."""
    r = np.asarray(r, dtype=float)
    mid = 0.5 * (lo + hi)
    t1, w1 = _graded_rule(params, lo, mid)
    s2, w2 = _graded_rule(params, r - hi, r - mid)
    return np.concatenate((t1, r[..., None] - s2), -1), np.concatenate((w1, w2), -1)


def _pair_mass_grid(params: KernelParams):
    """Tabulate h(r) = double integral of profile(k*s)*profile(k*t) over
    s, t >= 0, s + t <= r, at PAIR_GRID nodes r up to min(2*cap, sum_cap).

    h(r) integrates profile(k*t)*G(min(cap, r - t)), G the cumulative mass:
    the piece t <= r - cap is G(cap)*G(r - cap) exactly, and the curved piece
    [max(0, r - cap), min(r, cap)] takes a split, graded rule, all r at once.
    """
    cap = params.coord_cap
    rs = np.linspace(0.0, min(2 * cap, params.sum_cap), PAIR_GRID)
    lo = np.clip(rs - cap, 0.0, None)
    t, w = _split_graded_rule(params, lo, np.minimum(rs, cap), rs)
    curved = w * _scaled_profile(params, t) * _cum_mass(params, rs[:, None] - t)
    return rs, _cum_mass(params, cap) * _cum_mass(params, lo) + curved.sum(axis=1)


def _batch_stats(batches: list[float]) -> McEstimate:
    arr = np.asarray(batches)
    err = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return McEstimate(float(arr.mean()), err)


def _sample_domain(rng, n: int, dim: int, coord_cap: float, sum_cap: float):
    """Uniform points covering the integrand support, with their volume.

    When the box [0, coord_cap]^dim fits under the sum cap, sample the box;
    otherwise sample the solid simplex of the sum cap via exponential
    spacings (the per-coordinate support bound is enforced by the profile
    vanishing outside it).
    """
    if dim * coord_cap <= sum_cap:
        pts = rng.uniform(0.0, coord_cap, size=(n, dim))
        return pts, coord_cap**dim
    e = rng.standard_exponential(size=(n, dim + 1))
    pts = sum_cap * e[:, :dim] / e.sum(axis=1, keepdims=True)
    return pts, sum_cap**dim / math.factorial(dim)


def simplex_mc_integrals(
    params: KernelParams, n_samples: int, seed: int
) -> SimplexMcResult:
    """Seeded Monte Carlo estimates of the five moment/tail integrals.

    Restricted to 2 <= k <= 10 and n_samples >= 10^4 (this is a
    cross-check oracle, not a production path).  Standard errors come from
    the spread of MC_BATCHES independent batch means.  The two projection
    integrals use closed-form inner integrals; the two-variable one is
    interpolated from the _pair_mass_grid table, except at k = 2 where it is
    the table's last node squared, with stderr 0.
    """
    if not 2 <= params.k <= 10:
        raise ParameterConditionError(
            f"Monte Carlo cross-check supports 2 <= k <= 10, got {params.k}"
        )
    if n_samples < 10**4:
        raise ParameterConditionError(
            f"n_samples must be at least 10^4, got {n_samples}"
        )
    if seed < 0:
        raise ParameterConditionError(f"seed must be non-negative, got {seed}")
    k = params.k
    cap = params.coord_cap
    tau = params.sum_cap
    eps = params.tail_threshold
    rng = np.random.default_rng(seed)
    per_batch = [
        n_samples // MC_BATCHES + (1 if b < n_samples % MC_BATCHES else 0)
        for b in range(MC_BATCHES)
    ]
    h_grid, h_vals = _pair_mass_grid(params)
    inner_mass = closed_forms(params).mass / k  # full integral of profile(k*t)

    def proj(s):  # the closed-form inner integral over the room under tau
        return _cum_mass(params, np.clip(tau - s, 0.0, cap)) ** 2

    def biproj(s):  # the two-variable one, interpolated in the pair table
        return np.interp(np.clip(tau - s, 0.0, min(2 * cap, tau)), h_grid, h_vals) ** 2

    # name: (dimension, sum cap, scale, factor of the coordinate sum s), drawn
    # in this order; the tails, capped at inf, sample the box [0, cap]^dim
    integrals = {
        "square": (k, tau, 1.0, lambda s: s <= tau),
        "proj_square": (k - 1, tau, 1.0, proj),
        "biproj_square": (k - 2, tau, 1.0, biproj),
        "tail1": (k, math.inf, 1.0, lambda s: s >= eps),
        "tail2": (k - 1, math.inf, inner_mass**2, lambda s: s >= eps),
    }
    if k == 2:  # the two-variable projection is deterministic, below
        del integrals["biproj_square"]
    batches = {name: [] for name in integrals}
    for nb in per_batch:
        for name, (dim, sum_cap, scale, factor) in integrals.items():
            pts, vol = _sample_domain(rng, nb, dim, cap, sum_cap)
            vals = np.prod(_scaled_profile(params, pts), axis=1) ** 2
            vals *= factor(pts.sum(axis=1))
            batches[name].append(scale * vol * float(vals.mean()))
    est = {name: _batch_stats(b) for name, b in batches.items()}
    if k == 2:
        est["biproj_square"] = McEstimate(float(h_vals[-1]) ** 2, 0.0)
    return SimplexMcResult(params=params, n_samples=n_samples, seed=seed, **est)


def projection_ratio_exact(params: KernelParams) -> float:
    """proj_square / square by quadrature, exact at small k.

    Supports k = 2 and k = 3 (one- and two-dimensional outer integrals with
    closed-form inner factors).  Used as a finite-size target where the
    product-form asymptotics are out of reach.  k = 2 takes the split,
    graded rule on each piece between the kinks at sum_cap - cap and
    sum_cap, mirrored about sum_cap; pieces past sum_cap, where nothing is
    left to integrate, are dropped.  k = 3 runs scipy's adaptive nquad.
    """
    k = params.k
    cap = params.coord_cap
    tau = params.sum_cap

    if k == 2:
        edges = sorted({0.0, cap, *(v for v in (tau - cap, tau) if 0.0 < v < cap)})
        lo, hi = np.array([(a, b) for a, b in zip(edges, edges[1:]) if a < tau]).T
        t, w = _split_graded_rule(params, lo, hi, tau)
        g2w = (w * _scaled_profile(params, t) ** 2).ravel()
        room = np.clip(tau - t, 0.0, cap).ravel()
        return math.fsum(g2w * _cum_mass(params, room) ** 2) / math.fsum(
            g2w * _cum_energy(params, room)
        )
    if k == 3:
        # the benchmark checks nquad's value, 1.16e-9 off the converged one
        from scipy.integrate import nquad

        base, ak = params.base, params.slope * k

        def weight_room(t2, t3):
            g2, g3 = 1.0 / (base + ak * t2), 1.0 / (base + ak * t3)
            return (g2 * g3) ** 2, min(cap, max(0.0, tau - (t2 + t3)))

        def num(t2, t3):
            w, u = weight_room(t2, t3)
            return w * (math.log1p(ak * u / base) / ak) ** 2

        def den(t2, t3):
            w, u = weight_room(t2, t3)
            return w * ((1.0 / base - 1.0 / (base + ak * u)) / ak)

        def inner_opts(t3):
            pts = [v - t3 for v in (tau - cap, tau) if 0.0 < v - t3 < cap]
            opts = {"epsabs": 1e-11, "limit": 200}
            if pts:
                opts["points"] = pts
            return opts

        outer_opts = {"epsabs": 1e-11, "limit": 200}
        n, _ = nquad(num, [(0, cap), (0, cap)], opts=[inner_opts, outer_opts])
        d, _ = nquad(den, [(0, cap), (0, cap)], opts=[inner_opts, outer_opts])
        return n / d
    raise ParameterConditionError("exact projection ratio implemented for k in {2, 3}")


# ---------------------------------------------------------------------------
# Fourier-side identity check


def _bump(t):
    t = np.asarray(t, dtype=float)
    u = t * (1.0 - t)
    safe = np.where(u > 0, u, 1.0)
    return np.where(u > 0, np.exp(4.0 - 1.0 / safe), 0.0)


def _bump_prime(t):
    t = np.asarray(t, dtype=float)
    u = t * (1.0 - t)
    safe = np.where(u > 0, u, 1.0)
    return _bump(t) * np.where(u > 0, (1.0 - 2.0 * t) / safe**2, 0.0)


def _times_bump(g, g_prime):
    """(g*bump, its derivative g'*bump + g*bump') for g, g' functions of t."""

    def f(t):
        t = np.asarray(t, dtype=float)
        return g(t) * _bump(t)

    def f_prime(t):
        t = np.asarray(t, dtype=float)
        return g_prime(t) * _bump(t) + g(t) * _bump_prime(t)

    return f, f_prime


#: name -> (function on [0, 1], its derivative); all smooth with flat ends
FOURIER_TEST_FUNCTIONS = {
    "bump": (_bump, _bump_prime),
    "poly_bump": _times_bump(lambda t: (1.0 - t) ** 2, lambda t: -2.0 * (1.0 - t)),
    "sine_bump": _times_bump(
        lambda t: np.sin(2 * np.pi * t), lambda t: 2 * np.pi * np.cos(2 * np.pi * t)
    ),
}


def _identity_sides(n_freq: int, funcs) -> list[tuple[float, float]]:
    """Both sides (lhs, rhs) of the frequency-domain energy identity for
    each (f, f_prime) of funcs, on one n_freq-node frequency grid.

    The transform uses the exponentially tilted function e^t f(t), so that
    f(t) = integral of hat(xi) * exp(-t(1 + i*xi)); the weighted double
    frequency integral with kernel (1+i*xi)(1+i*xi')/(2+i*xi+i*xi') then
    reproduces the time-domain energy of f'.  The left side is truncated to
    |xi| <= FREQ_MAX on an n_freq-node Gauss-Legendre grid, the right side is
    a Gauss-Legendre rule of 256 nodes on each half of [0, 1].

    No n_freq x 512 phase matrix is held: e^(i xi t) is built in blocks of
    max(FREQ_ROWS, 2) rows, a one-row tail joining the block before it, and
    each block is applied to every function's weighted samples by one BLAS
    matrix-vector product, so every hat is whole after one pass and has the
    bits of the whole matrix's product.  A one-row block would not: numpy
    takes it through its own dot, not BLAS gemv, and nearly every row's bits
    differ.  The left side is the real part of the sum of the n_freq x
    n_freq complex quotient matrix (1+i xi)(1+i xi') hat hat' / (2+i xi+i
    xi'), which is never held whole either: it is built FREQ_ROWS rows at a
    time in two buffers allocated once, each block's real parts summed by
    np.sum and the block sums merged by math.fsum, so its bits are fixed by
    FREQ_ROWS, with an error bound no larger than that of one np.sum of the
    matrix.
    """
    nodes, weights = _gauss_legendre(512)
    ts = 0.5 * (nodes + 1.0)  # [0, 1]
    tw = 0.5 * weights
    xi_nodes, xi_w = _gauss_legendre(n_freq)
    xis = FREQ_MAX * xi_nodes
    xiw = FREQ_MAX * xi_w
    # hat(xi) = (1/2pi) * integral e^t f(t) e^(i t xi) dt
    samples = [np.exp(ts) * np.asarray(f(ts), dtype=float) * tw for f, _ in funcs]
    hats = np.empty((len(funcs), n_freq), dtype=complex)
    cuts = list(range(0, n_freq, max(FREQ_ROWS, 2))) + [n_freq]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        del cuts[-2]  # a one-row tail joins the block before it
    for r, stop in zip(cuts, cuts[1:]):
        phase = np.exp(1j * np.outer(xis[r:stop], ts))
        for hat, g in zip(hats, samples):
            hat[r:stop] = phase @ g
    hats /= 2.0 * np.pi
    a = 1.0 + 1j * xis
    quotient = np.empty((min(FREQ_ROWS, n_freq), n_freq), dtype=complex)
    kernel = np.empty_like(quotient)
    half, half_w = _gauss_legendre(256)
    t = 0.25 * (half + 1.0)  # [0, 0.5], then shifted onto [0.5, 1]
    sides = []
    for hat, (_, f_prime) in zip(hats, funcs):
        u = a * (xiw * hat)
        sums = []
        for r in range(0, n_freq, FREQ_ROWS):
            m = min(FREQ_ROWS, n_freq - r)
            block = np.multiply.outer(u[r : r + m], u, out=quotient[:m])
            block /= np.add.outer(a[r : r + m], a, out=kernel[:m])
            sums.append(block.real.sum())
        fp = np.asarray(f_prime(np.concatenate((t, t + 0.5))), dtype=float)
        sides.append((math.fsum(sums), math.fsum(np.tile(0.25 * half_w, 2) * fp**2)))
    return sides


@dataclass(frozen=True)
class FourierCheckEntry:
    name: str
    lhs: float
    rhs: float
    abs_diff: float
    passed: bool


@dataclass(frozen=True)
class FourierCheckReport:
    n_samples: int
    seed: int
    tolerance: float
    entries: tuple[FourierCheckEntry, ...]

    derived = ("all_passed",)
    as_dict = report_dict

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)


def fourier_kernel_check(
    n_samples: int = 10**4, seed: int = 0, tolerance: float = 1e-4
) -> FourierCheckReport:
    """Run the frequency-domain identity on the built-in test functions.

    n_samples sets the frequency grid, n_samples // 8 nodes clamped to
    [400, 2400].  Below about 6000 samples that grid, not the identity,
    decides the verdict: at 3200 |lhs - rhs| reaches 2.8e-3 against the
    default 1e-4 tolerance, at 6400 at most 9.2e-7.  The evaluation is
    deterministic quadrature, so the seed only tags the report for
    provenance.  The three functions share one pass over the grid: each
    block of rows of the phase e^(i xi t), never a one-row block, is built
    once and applied to all three, and no n_freq x 512 array is held (the
    sides' tracemalloc peak is about 0.7 MB at the default 1250 frequencies
    and 1.2 MB at the 2400 clamp).  Each left side adds FREQ_ROWS rows of
    its quotient matrix at a time and merges the row blocks' sums by
    math.fsum, so lhs and abs_diff have bits fixed by FREQ_ROWS, not by
    numpy's summation loop.
    """
    if n_samples < 1:
        raise ParameterConditionError("n_samples must be positive")
    n_freq = int(min(2400, max(400, n_samples // 8)))
    sides = _identity_sides(n_freq, list(FOURIER_TEST_FUNCTIONS.values()))
    entries = []
    for name, (lhs, rhs) in zip(FOURIER_TEST_FUNCTIONS, sides):
        diff = abs(lhs - rhs)
        entries.append(FourierCheckEntry(name, lhs, rhs, diff, diff < tolerance))
    return FourierCheckReport(n_samples, seed, tolerance, tuple(entries))


def report(params: KernelParams, n_samples: int | None = None, seed: int = 0) -> dict:
    """Assemble the JSON-ready record for one parameter point."""
    forms = closed_forms(params)
    out = {
        "params": params.as_dict(),
        "closed_forms": forms.as_dict(),
        "tails": {"tail1_rel": forms.tail1_rel, "tail2_rel": forms.tail2_rel},
    }
    ratios = {}
    if params.k >= 2 and math.isfinite(forms.tail1_rel):
        ratios = moment_ratios(params)._asdict()
        ratios["constrained_minimizer"] = constrained_minimizer_ratio(params)
    out["ratios"] = ratios
    if n_samples is not None:
        mc = simplex_mc_integrals(params, n_samples, seed)
        out["mc_estimates"] = mc.estimates()
        out["mc_stderr"] = mc.stderrs()
    return out
