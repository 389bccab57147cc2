import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from sievelab import variational
from sievelab.errors import ParameterConditionError
from sievelab.variational import (
    FOURIER_TEST_FUNCTIONS,
    FREQ_MAX,
    KernelParams,
    _gauss_legendre,
    _identity_sides_on,
    _pair_mass_grid,
    _scaled_profile,
    closed_forms,
    constrained_minimizer_ratio,
    fourier_kernel_check,
    moment_ratios,
    projection_ratio_exact,
    report,
    schedule_params,
    simplex_mc_integrals,
    tail_bounds,
    tail_bounds_absolute,
)


def quad_oracle(params):
    """Closed-form-free integrals of the profile by adaptive quadrature."""
    g = lambda t: 1.0 / (params.base + params.slope * t)
    mass, _ = quad(g, 0, params.cutoff, epsabs=1e-13, limit=300)
    energy, _ = quad(lambda t: g(t) ** 2, 0, params.cutoff, epsabs=1e-13, limit=300)
    first, _ = quad(lambda t: t * g(t) ** 2, 0, params.cutoff, epsabs=1e-13, limit=300)
    return mass, energy, first / energy


def quad_pair_mass_grid(params, n_grid=257):
    """The per-node adaptive quadrature that _pair_mass_grid replaced, with
    float integrands and a relative tolerance in place of epsabs 1e-12."""
    cap, ak = params.coord_cap, params.slope * params.k
    g = lambda t: 1.0 / (params.base + ak * t)
    G = lambda u: math.log1p(ak * u / params.base) / ak
    rs = np.linspace(0.0, min(2 * cap, params.sum_cap), n_grid)
    vals = np.zeros(n_grid)
    for i in range(1, n_grid):
        r, hi = rs[i], min(rs[i], cap)
        pts = [r - cap] if 0.0 < r - cap < hi else None
        vals[i] = quad(
            lambda t: g(t) * G(min(cap, r - t)), 0.0, hi,
            points=pts, epsabs=0.0, epsrel=1e-13, limit=200,
        )[0]
    return rs, vals


def gl_projection_ratio_k3(params, m):
    """proj_square / square at k = 3 by an m x m Gauss-Legendre product rule.

    Only for sum_cap <= coord_cap, where the support is the triangle
    t2 + t3 <= sum_cap and the room left for t1 is sum_cap - t2 - t3.
    """
    tau, ak = params.sum_cap, params.slope * params.k
    assert tau <= params.coord_cap
    x, w = np.polynomial.legendre.leggauss(m)
    t3, w3 = tau * (x + 1) / 2, tau * w / 2
    span = (tau - t3)[:, None]
    t2, w2 = span * (x + 1) / 2, span * w / 2
    g2 = lambda t: (params.base + ak * t) ** -2.0
    weight = (w3 * g2(t3))[:, None] * w2 * g2(t2)
    room = tau - t2 - t3[:, None]
    mass = np.log1p(ak * room / params.base) / ak
    energy = (1.0 / params.base - 1.0 / (params.base + ak * room)) / ak
    return math.fsum((weight * mass**2).ravel()) / math.fsum((weight * energy).ravel())


class TestKernelParams:
    def test_validation(self):
        with pytest.raises(ParameterConditionError, match="k must be"):
            KernelParams(k=0, base=2, slope=1, cutoff=1)
        with pytest.raises(ParameterConditionError, match="base"):
            KernelParams(k=2, base=1.0, slope=1, cutoff=1)
        with pytest.raises(ParameterConditionError, match="slope"):
            KernelParams(k=2, base=2, slope=0, cutoff=1)
        with pytest.raises(ParameterConditionError, match="cutoff"):
            KernelParams(k=2, base=2, slope=1, cutoff=0)
        with pytest.raises(ParameterConditionError, match="eta"):
            KernelParams(k=2, base=2, slope=1, cutoff=1, eta=0.5)
        with pytest.raises(ParameterConditionError, match="eta"):
            KernelParams(k=2, base=2, slope=1, cutoff=1, eta=-0.1)

    def test_derived_properties(self):
        p = KernelParams(k=4, base=2.0, slope=3.0, cutoff=1.5)
        assert p.sum_cap == 0.5
        assert p.coord_cap == 1.5 / 4
        assert math.isclose(math.expm1(p.log_ratio), p.slope * p.cutoff / p.base)
        assert math.isclose(p.tail_threshold, (1 - 1.5 / 4) / 2.0)

    def test_as_dict_round(self):
        p = KernelParams(k=2, base=2.0, slope=1.0, cutoff=2.0)
        d = p.as_dict()
        assert d["k"] == 2 and d["sum_cap"] == 0.5
        assert set(d) >= {"base", "slope", "cutoff", "eta", "log_ratio"}


class TestProfile:
    def test_endpoint_values(self):
        # profile(k*t) at k = 2: its support is [0, cutoff/k] = [0, 1]
        p = KernelParams(k=2, base=2.0, slope=1.0, cutoff=2.0)
        vals = _scaled_profile(p, np.array([0.0, 1.0, 1.5, -0.25]))
        assert vals.tolist() == [0.5, 0.25, 0.0, 0.0]

    def test_monotone_decreasing_on_support(self):
        p = KernelParams(k=3, base=1.5, slope=4.0, cutoff=1.0)
        vals = _scaled_profile(p, np.linspace(0, p.coord_cap, 30))
        assert np.all(vals[:-1] > vals[1:])


class TestFactors:
    def test_factor_is_tail_integral_of_hyperbola(self):
        # the factor at t equals the integral of 1/(base + slope*k*u) over
        # [t, cutoff/k]; check against quadrature at assorted points
        p = KernelParams(k=3, base=1.3, slope=4.0, cutoff=1.7)
        cap = p.coord_cap
        for t in (0.0, 0.1, 0.3, cap / 2, cap * 0.95):
            ref, _ = quad(lambda u: 1.0 / (p.base + p.slope * p.k * u), t, cap)
            assert p.factor(t) == pytest.approx(ref, abs=1e-12)

    def test_factor_vanishes_at_cap(self):
        p = KernelParams(k=2, base=1.5, slope=2.0, cutoff=1.0)
        assert p.factor(p.coord_cap) == 0.0
        assert p.factor(p.coord_cap + 0.2) == 0.0
        assert p.factor(p.coord_cap - 1e-9) > 0.0
        # slope*k*(cutoff/k) need not round to slope*cutoff, so the formula
        # alone can leave a +-1e-17 factor at the cap; at k = 3 several do
        for k, cutoff in itertools.product(range(1, 13), (0.4, 0.9, 1.8, 2.1, 2.9)):
            for base, slope in ((1.1, 3.0), (1.4, 5.0), (1.01, 1.0), (2.0, 10.0)):
                p = KernelParams(k=k, base=base, slope=slope, cutoff=cutoff)
                assert p.factor(p.coord_cap) == 0.0

    def test_factor_decreasing(self):
        p = KernelParams(k=4, base=1.2, slope=6.0, cutoff=2.0)
        ts = np.linspace(0, p.coord_cap * 0.999, 40)
        vals = [p.factor(t) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_value_is_product_until_capped(self):
        p = KernelParams(k=3, base=1.1, slope=3.0, cutoff=2.9)
        ts = [0.1, 0.2, 0.3]
        expect = math.prod(p.factor(t) for t in ts)
        assert p.value(ts) == pytest.approx(expect, rel=1e-15)
        # push the sum over 1/base and the value dies
        assert p.value([0.4, 0.4, 0.2]) == 0.0

    def test_value_checks_arity(self):
        p = KernelParams(k=3, base=1.1, slope=3.0, cutoff=2.9)
        with pytest.raises(ParameterConditionError, match="coordinates"):
            p.value([0.1, 0.2])


class TestClosedForms:
    def test_exact_logarithmic_point(self):
        p = KernelParams(k=2, base=2.0, slope=1.0, cutoff=2.0)
        f = closed_forms(p)
        assert abs(f.mass - math.log(2)) < 1e-14
        assert abs(f.energy - 0.25) < 1e-14

    def test_center_small_cutoff_limit(self):
        p = KernelParams(k=2, base=2.0, slope=1.0, cutoff=1e-10)
        assert 0 < closed_forms(p).center < 1e-9

    def test_center_unit_log_ratio(self):
        # base -> 1, cutoff = e - 1, slope 1: center -> 1/(1 - 1/e) - 1
        p = KernelParams(k=2, base=1.0 + 1e-12, slope=1.0, cutoff=math.e - 1)
        want = 1.0 / (1.0 - math.exp(-1)) - 1.0
        assert abs(closed_forms(p).center - want) < 1e-6

    def test_sweep_matches_quadrature(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            k = int(rng.integers(2, 9))
            base = 1.0 + 9.0 * rng.random() + 1e-6
            slope = 100.0 * rng.random() + 1e-6
            cutoff = rng.random() * 10.0 * base * k / slope + 1e-9
            p = KernelParams(k=k, base=base, slope=slope, cutoff=cutoff)
            f = closed_forms(p)
            mass_q, energy_q, center_q = quad_oracle(p)
            assert abs(f.mass - mass_q) < 1e-10
            assert abs(f.energy - energy_q) < 1e-10
            assert abs(f.center - center_q) < 1e-9
            assert 0 < f.center < p.cutoff

    def test_tails_inf_without_raising(self):
        # cutoff at k makes the threshold zero, so no slack remains
        p = KernelParams(k=2, base=1.5, slope=1.0, cutoff=2.0)
        f = closed_forms(p)
        assert math.isinf(f.tail1_rel) and math.isinf(f.tail2_rel)


class TestTailBounds:
    def test_schedule_value_frozen(self):
        rel1, rel2 = tail_bounds(schedule_params(10**4))
        assert rel1 == rel2
        assert 0.095 < rel1 < 0.105  # frozen from the verified evaluation
        assert rel1 < 1

    def test_vanishes_with_cutoff(self):
        small = tail_bounds(KernelParams(k=5, base=2.0, slope=1.0, cutoff=1e-3))[0]
        large = tail_bounds(KernelParams(k=5, base=2.0, slope=1.0, cutoff=1e-1))[0]
        assert small < large
        assert small < 1e-3

    def test_violated_condition_raises(self):
        p = KernelParams(k=2, base=1.5, slope=1.0, cutoff=2.5)
        with pytest.raises(ParameterConditionError, match="center-of-mass"):
            tail_bounds(p)

    def test_absolute_bounds_relation(self):
        p = KernelParams(k=2, base=2.0, slope=10.0, cutoff=1.0)
        f = closed_forms(p)
        b1, b2 = tail_bounds_absolute(p)
        main1 = 2.0**-2 * f.energy**2
        main2 = 2.0**-3 * f.energy * f.mass**2
        assert math.isclose(b1 / main1, f.tail1_rel, rel_tol=1e-12)
        assert math.isclose(b2 / main2, f.tail2_rel, rel_tol=1e-12)


def norm_quotient(k, ratio):
    return ratio / ((1.0 / math.log(math.log(k))) * math.log(k) / k)


class TestScheduleAndRatios:
    def test_schedule_consistency(self):
        for k in (16, 100, 10**6):
            p = schedule_params(k)
            alpha = math.log(k) - math.log(math.log(k))
            assert math.isclose(p.log_ratio, alpha, rel_tol=1e-12)
            assert math.isclose(p.base, math.log(math.log(k)), rel_tol=1e-15)
            assert math.isclose(p.slope, p.base**2 * math.log(k), rel_tol=1e-15)

    def test_schedule_validation(self):
        with pytest.raises(ParameterConditionError, match="k >= 16"):
            schedule_params(15)
        with pytest.raises(ParameterConditionError, match="k must be"):
            schedule_params(1)
        with pytest.raises(ParameterConditionError, match="c must be"):
            schedule_params(100, c=0)
        with pytest.raises(ParameterConditionError, match="psi"):
            schedule_params(100, psi=1.5)

    def test_schedule_custom_psi(self):
        p = schedule_params(100, psi=0.5)
        assert p.base == 2.0

    def test_quotients_frozen_and_trending(self):
        # frozen from the verified closed-form evaluation
        want_proj = {10**4: 0.5190, 10**6: 0.6053, 10**8: 0.6620}
        want_biproj = {10**4: 0.5765, 10**6: 0.6560, 10**8: 0.7087}
        prev_p = prev_b = 0.0
        for k in (10**4, 10**6, 10**8):
            mr = moment_ratios(schedule_params(k))
            qp = norm_quotient(k, mr.proj_over_square)
            qb = norm_quotient(k, mr.biproj_over_proj)
            assert abs(qp - want_proj[k]) < 2e-3
            assert abs(qb - want_biproj[k]) < 2e-3
            assert 0.5 <= qp <= 2 and 0.5 <= qb <= 2
            assert qp > prev_p and qb > prev_b  # toward 1 from below
            prev_p, prev_b = qp, qb

    def test_tail_monotone_over_schedule(self):
        rels = [tail_bounds(schedule_params(10**e))[0] for e in range(3, 10)]
        assert all(a > b for a, b in zip(rels, rels[1:]))
        assert rels[0] < 1

    def test_ratio_requires_k2(self):
        with pytest.raises(ParameterConditionError, match="k >= 2"):
            moment_ratios(KernelParams(k=1, base=2.0, slope=1.0, cutoff=0.5))

    def test_minimizer_ratio_dominates(self):
        for k in (10**6, 10**8, 10**9):
            p = schedule_params(k)
            ratio = constrained_minimizer_ratio(p)
            assert ratio >= moment_ratios(p).biproj_over_proj
            assert 0.5 <= norm_quotient(k, ratio) <= 2

    def test_minimizer_frozen_values(self):
        got = [
            norm_quotient(k, constrained_minimizer_ratio(schedule_params(k)))
            for k in (10**4, 10**6, 10**8)
        ]
        want = [1.3442, 1.4008, 1.4393]
        assert all(abs(g - w) < 2e-3 for g, w in zip(got, want))


def ratio_sigma(num, den):
    r = num.value / den.value
    return abs(r) * math.sqrt(
        (num.stderr / num.value) ** 2 + (den.stderr / den.value) ** 2
    )


class TestSimplexMc:
    def test_preconditions(self):
        p1 = KernelParams(k=1, base=2.0, slope=1.0, cutoff=0.4)
        with pytest.raises(ParameterConditionError, match="2 <= k <= 10"):
            simplex_mc_integrals(p1, 10**4, 0)
        p11 = KernelParams(k=11, base=2.0, slope=1.0, cutoff=0.4)
        with pytest.raises(ParameterConditionError, match="2 <= k <= 10"):
            simplex_mc_integrals(p11, 10**4, 0)
        p = KernelParams(k=2, base=2.0, slope=1.0, cutoff=0.4)
        with pytest.raises(ParameterConditionError, match="n_samples"):
            simplex_mc_integrals(p, 9999, 0)
        with pytest.raises(ParameterConditionError, match="n_samples"):
            simplex_mc_integrals(p, 0, 0)

    def test_nonbinding_matches_factorized_forms(self):
        # cutoff below k/(k*base + 1): simplex cap slack and tails empty
        p = KernelParams(k=2, base=2.0, slope=5.0, cutoff=0.3)
        f = closed_forms(p)
        mc = simplex_mc_integrals(p, 50_000, seed=3)
        want_sq = (f.energy / 2) ** 2
        assert abs(mc.square.value - want_sq) <= 3 * mc.square.stderr
        assert abs(mc.square.value / want_sq - 1) < 0.05
        # two-variable projection collapses to a deterministic quadrature
        assert mc.biproj_square.stderr == 0.0
        assert abs(mc.biproj_square.value / (f.mass / 2) ** 4 - 1) < 1e-9
        assert mc.tail1.value == 0.0 and mc.tail2.value == 0.0

    def test_binding_matches_exact_quadrature(self):
        for k, slope, cutoff, seed in ((2, 30.0, 1.2, 11), (3, 68.5, 1.46, 11)):
            p = KernelParams(k=k, base=2.0, slope=slope, cutoff=cutoff)
            exact = projection_ratio_exact(p)
            mc = simplex_mc_integrals(p, 200_000, seed=seed)
            r = mc.proj_square.value / mc.square.value
            assert abs(r - exact) <= 3 * ratio_sigma(mc.proj_square, mc.square)

    def test_tails_below_bounds(self):
        cases = {
            2: KernelParams(k=2, base=2.0, slope=5.0, cutoff=0.3),  # empty tail
            4: KernelParams(k=4, base=1.5, slope=45.0, cutoff=1.0),
            6: KernelParams(k=6, base=2.0, slope=40.0, cutoff=0.5),
            8: KernelParams(k=8, base=2.0, slope=100.0 / 1.4599, cutoff=1.4599),
        }
        for k, p in cases.items():
            b1, b2 = tail_bounds_absolute(p)
            mc = simplex_mc_integrals(p, 2 * 10**5, seed=5)
            assert mc.tail1.value <= b1 + 3 * mc.tail1.stderr, f"k={k} tail1"
            assert mc.tail2.value <= b2 + 3 * mc.tail2.stderr, f"k={k} tail2"

    def test_ratio_formulas_within_mc_error(self):
        # empty-tail, high-variance parameter points: the product formulas
        # should agree with the sampled ratios inside 3 sigma
        for k in range(2, 7):
            cutoff = 0.001 * k
            p = KernelParams(k=k, base=2.0, slope=2.0 * 2.0 / cutoff, cutoff=cutoff)
            mr = moment_ratios(p)
            mc = simplex_mc_integrals(p, 200_000, seed=17)
            r1 = mc.proj_square.value / mc.square.value
            assert abs(r1 - mr.proj_over_square) <= 3 * ratio_sigma(
                mc.proj_square, mc.square
            ), f"k={k} proj"
            r2 = mc.biproj_square.value / mc.proj_square.value
            assert abs(r2 - mr.biproj_over_proj) <= 3 * ratio_sigma(
                mc.biproj_square, mc.proj_square
            ), f"k={k} biproj"

    def test_seeded_reproducibility(self):
        p = KernelParams(k=3, base=2.0, slope=10.0, cutoff=0.6)
        a = simplex_mc_integrals(p, 10**4, seed=9)
        b = simplex_mc_integrals(p, 10**4, seed=9)
        c = simplex_mc_integrals(p, 10**4, seed=10)
        assert a.estimates() == b.estimates()
        assert a.estimates() != c.estimates()


def pair_grid_cases():
    # k = 3..10 with slope*k/base from 390 to 1300 and the simplex cap on
    # either side of 2*coord_cap, the tail test's k = 8 point, and a seeded
    # random sweep with slope*k/base up to 1300
    cases = [
        KernelParams(k=k, base=1.0 + 0.1 * k, slope=130.0 * (1.0 + 0.1 * k),
                     cutoff=k * (0.3 + 0.1 * k) / (2.0 + 0.2 * k))
        for k in range(3, 11)
    ]
    cases.append(KernelParams(k=8, base=2.0, slope=100.0 / 1.4599, cutoff=1.4599))
    rng = np.random.default_rng(2024)
    for _ in range(8):
        k = int(rng.integers(3, 11))
        base = 1.0 + 2.0 * rng.random()
        cutoff = k * (0.2 + 1.3 * rng.random()) / (2.0 * base)
        slope = base * 1300.0 ** rng.random() / k
        cases.append(KernelParams(k=k, base=base, slope=slope, cutoff=cutoff))
    return cases


class TestPairMassGrid:
    @pytest.mark.parametrize("params", pair_grid_cases(), ids=lambda p: f"k{p.k}")
    def test_matches_per_node_quad(self, params):
        rs, vals = _pair_mass_grid(params)
        want_rs, want = quad_pair_mass_grid(params)
        assert np.array_equal(rs, want_rs) and vals[0] == 0.0
        np.testing.assert_allclose(vals[1:], want[1:], rtol=1e-10, atol=0.0)

    def test_full_triangle_is_mass_squared(self):
        # below the simplex cap the last node covers the whole square
        p = KernelParams(k=4, base=2.0, slope=300.0, cutoff=0.5)
        rs, vals = _pair_mass_grid(p)
        assert rs[-1] == 2 * p.coord_cap
        assert math.isclose(vals[-1], (closed_forms(p).mass / 4) ** 2, rel_tol=1e-14)

    def test_gauss_legendre_table_is_cached_read_only(self):
        nodes, weights = _gauss_legendre(32)
        assert _gauss_legendre(32)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable
        assert math.isclose(math.fsum(weights), 2.0, rel_tol=1e-15)


GL_ORDERS = [1, 2, 3, 32, 400, 1250]


class TestGaussLegendre:
    # Measured at GL_ORDERS: the nodes are within 5 ulp of leggauss's, the
    # weights within 8.3e-9 relative (n = 1250).  That gap is leggauss's:
    # against mpmath at 40 digits its end weights at n = 1250 are off by
    # 8.3e-9, the Newton ones by 1.4e-11.
    @pytest.mark.parametrize("n", GL_ORDERS)
    def test_matches_leggauss(self, n):
        nodes, weights = _gauss_legendre(n)
        want_nodes, want_weights = np.polynomial.legendre.leggauss(n)
        np.testing.assert_array_max_ulp(nodes, want_nodes, maxulp=8)
        np.testing.assert_allclose(weights, want_weights, rtol=2e-8, atol=0.0)

    @pytest.mark.parametrize("n", GL_ORDERS)
    def test_even_moments_are_exact(self, n):
        # the rule integrates x^(2j) exactly for 2j <= 2n - 1; measured
        # error at most 8.9e-16 (n = 32), where leggauss is off by up to
        # 5.4e-14 at n = 400 and 6.5e-14 at n = 1250
        nodes, weights = _gauss_legendre(n)
        for j in range(n):
            assert abs(math.fsum(weights * nodes ** (2 * j)) - 2 / (2 * j + 1)) < 2e-15, j

    @pytest.mark.parametrize("n", GL_ORDERS)
    def test_rule_is_ascending_and_mirror_symmetric(self, n):
        nodes, weights = _gauss_legendre(n)
        assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
        assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)


# proj_square / square at k = 2 from mpmath at 30 digits, each integral split
# at the kinks sum_cap - coord_cap and sum_cap: (base, slope, cutoff) -> ratio.
# The last five have slope*k/base from 40 to 1333; there adaptive quad at
# epsabs 1e-12 was off by up to 1.8e-7 relative.
PROJECTION_K2_MPMATH = {
    (1.01, 1.0, 2.0): 0.68167601102426147091,
    (2.0, 30.0, 1.2): 0.24986188072143196657,
    (2.0, 5.0, 0.3): 0.14614592071640584999,
    (1.25, 40.0, 1.7): 0.24123272061230070984,
    (2.0, 600.0, 1.2): 0.054128830733249043527,
    (1.5, 450.0, 1.0): 0.054433599039822233054,
    (1.1, 330.0, 0.8): 0.050347238706892133448,
    (3.0, 2000.0, 0.5): 0.025398268077418961647,
}

# The converged k = 3 ratio at KernelParams(k=3, base=1.01, slope=1, cutoff=3)
# (mpmath at 30 digits: 0.54191191611788528007).  projection_ratio_exact
# keeps scipy's nquad for k = 3, which returns 0.5419119167486731, 1.16e-9
# relative above it; the benchmark's PROJECTION_RATIO[3] records that value.
PROJECTION_K3_CONVERGED = 0.54191191611788528


class TestProjectionExact:
    @pytest.mark.parametrize("point", sorted(PROJECTION_K2_MPMATH))
    def test_k2_matches_mpmath(self, point):
        got = projection_ratio_exact(KernelParams(2, *point))
        assert got == pytest.approx(PROJECTION_K2_MPMATH[point], rel=1e-13)

    def test_k3_converged_value_and_nquad_gap(self):
        p = KernelParams(k=3, base=1.01, slope=1.0, cutoff=3.0)
        for m in (16, 32, 64):
            assert gl_projection_ratio_k3(p, m) == pytest.approx(
                PROJECTION_K3_CONVERGED, rel=1e-14
            )
        assert abs(projection_ratio_exact(p) / PROJECTION_K3_CONVERGED - 1) < 2e-9

    def test_against_nested_numeric_oracle(self):
        p = KernelParams(k=2, base=2.0, slope=30.0, cutoff=1.2)
        cap, tau = p.coord_cap, p.sum_cap
        g = lambda t: 1.0 / (p.base + p.slope * p.k * t) if 0 <= t <= cap else 0.0

        def inner_mass(u):
            return quad(g, 0, min(cap, max(u, 0.0)), epsabs=1e-13)[0]

        def inner_energy(u):
            return quad(lambda t: g(t) ** 2, 0, min(cap, max(u, 0.0)), epsabs=1e-13)[0]

        num = quad(
            lambda t2: g(t2) ** 2 * inner_mass(tau - t2) ** 2,
            0, cap, points=[tau - cap], epsabs=1e-13, limit=300,
        )[0]
        den = quad(
            lambda t2: g(t2) ** 2 * inner_energy(tau - t2),
            0, cap, points=[tau - cap], epsabs=1e-13, limit=300,
        )[0]
        assert abs(projection_ratio_exact(p) / (num / den) - 1) < 1e-8

    def test_nonbinding_equals_product_form(self):
        p = KernelParams(k=2, base=2.0, slope=5.0, cutoff=0.3)
        f = closed_forms(p)
        assert abs(projection_ratio_exact(p) - f.mass**2 / (2 * f.energy)) < 1e-10

    def test_unsupported_k(self):
        p = KernelParams(k=4, base=2.0, slope=5.0, cutoff=0.3)
        with pytest.raises(ParameterConditionError, match="k in"):
            projection_ratio_exact(p)


def full_matrix_sides(f, f_prime, n_freq):
    """Both identity sides by the whole-matrix formula: the phase matrix,
    the kernel 2 + i xi + i xi' and the outer product each built at once,
    and the quotient summed as one array."""
    nodes, weights = _gauss_legendre(512)
    ts, tw = 0.5 * (nodes + 1.0), 0.5 * weights
    xi_nodes, xi_w = _gauss_legendre(n_freq)
    xis, xiw = FREQ_MAX * xi_nodes, FREQ_MAX * xi_w
    phase = np.exp(1j * np.outer(xis, ts))
    a = 1.0 + 1j * xis
    kernel = np.add.outer(a, a)
    hat = phase @ (np.exp(ts) * np.asarray(f(ts), dtype=float) * tw) / (2.0 * np.pi)
    wh = xiw * hat
    lhs = float((np.outer(a * wh, a * wh) / kernel).sum().real)
    half, half_w = _gauss_legendre(256)
    t = 0.25 * (half + 1.0)
    fp = np.asarray(f_prime(np.concatenate((t, t + 0.5))), dtype=float)
    return lhs, math.fsum(np.tile(0.25 * half_w, 2) * fp**2)


class TestFourierCheck:
    # the last block is short at 7 rows for 400 and 1250, at 16 for 1001
    @pytest.mark.parametrize("n_freq", [400, 1001, 1250])
    @pytest.mark.parametrize("rows", [1, 7, 16, 4096])
    def test_row_blocks_match_full_matrix_bit_for_bit(self, monkeypatch, n_freq, rows):
        # the sum runs over the whole matrix, so no block size moves a bit
        monkeypatch.setattr(variational, "FREQ_ROWS", rows)
        sides = _identity_sides_on(n_freq)
        for f, fp in FOURIER_TEST_FUNCTIONS.values():
            assert sides(f, fp) == full_matrix_sides(f, fp, n_freq)

    # tracemalloc peaks measured 11.0 MB at 1250 frequencies and 20.9 MB at
    # the 2400 clamp, of which the phase matrix is 10.2 and 19.7 MB; a held
    # quotient matrix would add 25.0 and 92.2 MB
    @pytest.mark.parametrize("n_freq, bound", [(1250, 12e6), (2400, 22e6)], ids=["1250", "2400"])
    def test_sides_hold_the_phase_matrix_and_row_leaves(self, n_freq, bound):
        _identity_sides_on(n_freq)  # the Gauss-Legendre tables are cached
        tracemalloc.start()
        try:
            sides = _identity_sides_on(n_freq)
            for f, fp in FOURIER_TEST_FUNCTIONS.values():
                sides(f, fp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_three_functions_pass(self):
        rep = fourier_kernel_check(10**4, seed=0)
        assert rep.all_passed
        assert len(rep.entries) == 3
        for e in rep.entries:
            assert e.abs_diff < 1e-4
            assert e.lhs > 0 and e.rhs > 0

    def test_passes_above_grid_resolution_limit(self):
        # 6400 samples give 800 frequencies; below about 6000 the grid, not
        # the identity, decides the verdict (see the docstring)
        assert fourier_kernel_check(n_samples=6400).all_passed

    def test_rhs_matches_mpmath(self):
        # integral of f'(t)^2 over [0, 1], mpmath at 30 digits
        want = {
            "bump": 6.526646348140806977,
            "poly_bump": 0.67481904366620658279,
            "sine_bump": 8.5429583092330349662,
        }
        for name, (f, fp) in FOURIER_TEST_FUNCTIONS.items():
            _, rhs = _identity_sides_on(400)(f, fp)
            assert abs(rhs - want[name]) < 5e-15, name

    def test_zero_function(self):
        zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        lhs, rhs = _identity_sides_on(400)(zero, zero)
        assert abs(lhs) < 1e-15 and rhs == 0.0

    def test_bilinear_scaling(self):
        f, fp = FOURIER_TEST_FUNCTIONS["poly_bump"]
        sides = _identity_sides_on(600)
        lhs1, rhs1 = sides(f, fp)
        lhs2, rhs2 = sides(lambda t: 2 * f(t), lambda t: 2 * fp(t))
        assert abs(lhs2 / lhs1 - 4) < 1e-9
        assert abs(rhs2 / rhs1 - 4) < 1e-9

    @pytest.mark.parametrize("n_samples, n_freq", [(1, 400), (10**4, 1250)])
    def test_shared_grid_gives_the_per_function_sides(self, n_samples, n_freq):
        # the check builds its grid once for all three functions
        rep = fourier_kernel_check(n_samples)
        for e, (name, (f, fp)) in zip(rep.entries, FOURIER_TEST_FUNCTIONS.items()):
            assert e.name == name
            assert (e.lhs, e.rhs) == _identity_sides_on(n_freq)(f, fp)

    def test_deterministic(self):
        a = fourier_kernel_check(10**4, seed=1)
        b = fourier_kernel_check(10**4, seed=2)  # seed is provenance only
        assert [e.lhs for e in a.entries] == [e.lhs for e in b.entries]

    def test_rejects_bad_samples(self):
        with pytest.raises(ParameterConditionError, match="n_samples"):
            fourier_kernel_check(0)

    def test_derivatives_match_finite_differences(self):
        ts = np.linspace(0.05, 0.95, 41)
        h = 1e-6
        for name, (f, fp) in FOURIER_TEST_FUNCTIONS.items():
            fd = (f(ts + h) - f(ts - h)) / (2 * h)
            assert np.allclose(fp(ts), fd, rtol=1e-5, atol=1e-7), name


class TestReport:
    def test_report_shape(self):
        p = KernelParams(k=3, base=2.0, slope=10.0, cutoff=0.6)
        out = report(p, n_samples=10**4, seed=1)
        assert set(out) == {
            "params", "closed_forms", "tails", "ratios", "mc_estimates", "mc_stderr",
        }
        assert out["params"]["k"] == 3
        assert out["ratios"]["biproj_over_proj"] > 0

    def test_report_without_mc(self):
        p = KernelParams(k=1, base=2.0, slope=1.0, cutoff=0.4)
        out = report(p)
        assert "mc_estimates" not in out
        assert out["ratios"] == {}  # ratios need k >= 2
