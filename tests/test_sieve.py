"""Sieve-weight tests: the three weight paths against each other and against
definitional oracles, moment-sum accounting, the two-parameter domination
check, and the mirrored-window scan."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sievelab import cli, primes, sieve
from sievelab.errors import ParameterConditionError, ResourceBudgetError
from sievelab.primes import sieve_range
from sievelab.variational import KernelParams


def rich_config(N=50000, delta=0.45, offsets=(0, 2, 6), base=1.1, slope=3.0,
                cutoff=2.9, **kw):
    """A config whose support actually contains nontrivial divisors."""
    p = KernelParams(k=len(offsets), base=base, slope=slope, cutoff=cutoff)
    return sieve.make_config(N, delta=delta, offsets=offsets, params=p, **kw)


class TestConfig:
    def test_defaults(self):
        cfg = sieve.make_config(10**6)
        assert cfg.R == 31
        assert cfg.W == 210
        assert cfg.b0 == 11  # 11, 13, 17 all coprime to 210
        assert cfg.k == 3
        assert cfg.params.k == 3

    def test_b0_is_minimal_valid(self):
        cfg = sieve.make_config(10**6, offsets=(0, 4, 6))
        for b in range(1, cfg.b0):
            assert any(math.gcd(b + h, cfg.W) != 1 for h in cfg.offsets)
        assert all(math.gcd(cfg.b0 + h, cfg.W) == 1 for h in cfg.offsets)

    def test_explicit_b0_validated(self):
        with pytest.raises(ParameterConditionError, match="gcd"):
            sieve.make_config(10**6, b0=2)
        cfg = sieve.make_config(10**6, b0=221)  # 221, 223, 227 coprime to 210
        assert cfg.b0 == 221

    def test_delta_range(self):
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ParameterConditionError, match="delta"):
                sieve.make_config(10**6, delta=bad)

    def test_r_floor_matches_power(self):
        for N, delta in [(10**6, 0.25), (10**7, 0.25), (50000, 0.45), (81, 0.25)]:
            cfg = sieve.make_config(N, delta=delta, strict=False)
            assert cfg.R == int(N**delta + 1e-9)

    def test_too_small_r_rejected(self):
        with pytest.raises(ParameterConditionError, match="below 2"):
            sieve.make_config(100, delta=0.1, strict=False)

    def test_inadmissible_offsets_rejected(self):
        with pytest.raises(ParameterConditionError, match="admissible"):
            sieve.make_config(10**6, offsets=(0, 2, 4))

    def test_params_k_mismatch(self):
        p = KernelParams(k=2, base=2.0, slope=10.0, cutoff=0.4)
        with pytest.raises(ParameterConditionError, match="match"):
            sieve.make_config(10**6, offsets=(0, 2, 6), params=p)

    def test_strict_window_size(self):
        with pytest.raises(ParameterConditionError, match="100"):
            sieve.make_config(399, delta=0.25)
        cfg = sieve.make_config(399, delta=0.25, strict=False)
        assert cfg.R == 4

    def test_as_dict_round_trip_fields(self):
        cfg = sieve.make_config(10**6)
        d = cfg.as_dict()
        assert d["N"] == 10**6 and d["offsets"] == "0,2,6"
        assert d["params"]["k"] == 3


class TestFactors:
    def test_factor_is_tail_integral_of_hyperbola(self):
        # the factor at t equals the integral of 1/(base + slope*k*u) over
        # [t, cutoff/k]; check against quadrature at assorted points
        p = KernelParams(k=3, base=1.3, slope=4.0, cutoff=1.7)
        cap = p.coord_cap
        for t in (0.0, 0.1, 0.3, cap / 2, cap * 0.95):
            ref, _ = quad(lambda u: 1.0 / (p.base + p.slope * p.k * u), t, cap)
            assert sieve.coordinate_factor(p, t) == pytest.approx(ref, abs=1e-12)

    def test_factor_vanishes_at_cap(self):
        p = KernelParams(k=2, base=1.5, slope=2.0, cutoff=1.0)
        assert sieve.coordinate_factor(p, p.coord_cap) == 0.0
        assert sieve.coordinate_factor(p, p.coord_cap + 0.2) == 0.0
        assert sieve.coordinate_factor(p, p.coord_cap - 1e-9) > 0.0

    def test_factor_decreasing(self):
        p = KernelParams(k=4, base=1.2, slope=6.0, cutoff=2.0)
        ts = np.linspace(0, p.coord_cap * 0.999, 40)
        vals = [sieve.coordinate_factor(p, t) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_value_is_product_until_capped(self):
        p = KernelParams(k=3, base=1.1, slope=3.0, cutoff=2.9)
        ts = [0.1, 0.2, 0.3]
        expect = math.prod(sieve.coordinate_factor(p, t) for t in ts)
        assert sieve.test_function_value(p, ts) == pytest.approx(expect, rel=1e-15)
        # push the sum over 1/base and the value dies
        assert sieve.test_function_value(p, [0.4, 0.4, 0.2]) == 0.0

    def test_value_checks_arity(self):
        p = KernelParams(k=3, base=1.1, slope=3.0, cutoff=2.9)
        with pytest.raises(ParameterConditionError, match="coordinates"):
            sieve.test_function_value(p, [0.1, 0.2])


class TestSupportAndCoeffs:
    def brute_support(self, R, W):
        out = []
        for d in range(1, R + 1):
            if math.gcd(d, W) != 1:
                continue
            if any(d % (q * q) == 0 for q in range(2, int(math.isqrt(d)) + 1)):
                continue
            out.append(d)
        return tuple(out)

    def brute_mu(self, d, W):
        """Moebius by trial division, zero where d shares a prime with W."""
        if d == 0 or math.gcd(d, W) != 1:
            return 0
        sign, q = 1, 2
        while q * q <= d:
            if d % q == 0:
                d //= q
                if d % q == 0:
                    return 0
                sign = -sign
            q += 1
        return -sign if d > 1 else sign

    def test_support_against_brute(self):
        p = KernelParams(k=1, base=1.1, slope=3.0, cutoff=0.9)
        for R, W in [(30, 210), (130, 210), (60, 30), (200, 2310), (1, 210)]:
            sup = sieve.build_support(R, W, p)
            assert sup.divisors == self.brute_support(R, W)
            assert sup.mu.tolist() == [self.brute_mu(d, W) for d in range(R + 1)]
            assert not sup.mu.flags.writeable

    def test_support_excludes_squares(self):
        p = KernelParams(k=1, base=1.1, slope=3.0, cutoff=0.9)
        sup = sieve.build_support(130, 210, p).divisors
        assert 121 not in sup and 11 in sup and 143 not in sup  # 143 > 130

    def test_coeff_zero_outside_support(self):
        cfg = rich_config()
        assert sieve.lambda_coeff(cfg, (4, 1, 1)) == 0.0  # not squarefree
        assert sieve.lambda_coeff(cfg, (cfg.R + 1, 1, 1)) == 0.0  # beyond R
        assert sieve.lambda_coeff(cfg, (7, 1, 1)) == 0.0  # shares a factor with W
        big = cfg.support.divisors[-1]
        assert sieve.lambda_coeff(cfg, (big, big, 1)) == 0.0  # product beyond R

    def test_coeff_sign_follows_moebius(self):
        cfg = rich_config()
        log_r = math.log(cfg.R)
        one = sieve.lambda_coeff(cfg, (1, 1, 1))
        assert one == pytest.approx(
            sieve.test_function_value(cfg.params, [0.0, 0.0, 0.0]), rel=1e-15
        )
        v11 = sieve.lambda_coeff(cfg, (11, 1, 1))
        expect = -sieve.test_function_value(
            cfg.params, [math.log(11) / log_r, 0.0, 0.0]
        )
        assert v11 == pytest.approx(expect, rel=1e-14)

    def test_coeff_matches_enumeration(self):
        cfg = rich_config()
        enum = dict(sieve.lambda_tuples(cfg))
        assert len(enum) > 20
        for tup, lam in list(enum.items())[::5]:
            assert sieve.lambda_coeff(cfg, tup) == lam

    def test_visit_count_is_exact(self):
        cfg = rich_config()
        divisors = cfg.support.divisors
        brute = sum(
            1
            for tup in itertools.product(divisors, repeat=cfg.k)
            if math.prod(tup) <= cfg.R
        )
        assert cfg.support.visits == brute

    def test_enumeration_budget(self, monkeypatch):
        # R = 10^5, k = 3 visits 183,290 tuples: under the default limit
        p = KernelParams(k=3, base=1.01, slope=1.0, cutoff=3.0)
        cfg = sieve.SieveConfig(
            N=10**15, delta=0.33, R=10**5, w_bound=7, W=210, b0=11,
            offsets=sieve.as_tuple((0, 2, 6)), params=p,
        )
        sieve.build_support.cache_clear()
        monkeypatch.setattr(sieve, "MAX_SUPPORT_TUPLES", 183_289)
        with pytest.raises(ResourceBudgetError) as err:
            sieve.lambda_tuples(cfg)
        msg = str(err.value)
        assert "183290" in msg and "MAX_SUPPORT_TUPLES = 183289" in msg
        assert "--delta" in msg and "tuple size" in msg
        monkeypatch.setattr(sieve, "MAX_SUPPORT_TUPLES", 183_290)
        assert cfg.support.visits == 183_290
        assert len(sieve.lambda_tuples(cfg)) > 0

    def test_support_tuples_are_pairwise_coprime(self):
        # the pairs (p, p), p = 11..23, fit under R, and (11, 11) has a class
        # (11 | 22); lambda leaves them out: prod(d_i) is squarefree (Maynard)
        p = KernelParams(k=2, base=1.1, slope=3.0, cutoff=1.9)
        cfg = sieve.make_config(10**7, delta=0.45, offsets=(0, 22), params=p)
        assert (cfg.R, cfg.W) == (1412, 210)
        enum = dict(sieve.lambda_tuples(cfg))
        assert (11, 11) not in enum and (11, 1) in enum
        assert all(math.gcd(*tup) == 1 for tup in enum)
        # 2101 = 11 * 191 and 2123 = 11 * 193
        n, log_r = 2101, math.log(cfg.R)
        divs = [[d for d in range(1, cfg.R + 1) if (n + h) % d == 0
                 and self.brute_mu(d, cfg.W) != 0] for h in cfg.offsets]
        expect = sum(
            self.brute_mu(d1 * d2, cfg.W) * sieve.test_function_value(
                p, [math.log(d1) / log_r, math.log(d2) / log_r])
            for d1 in divs[0] for d2 in divs[1]
            if d1 * d2 <= cfg.R and math.gcd(d1, d2) == 1
        )
        assert expect == pytest.approx(-0.010262517146652272, abs=1e-15)
        _, _, w = sieve.weight_array(cfg, n, n, restrict=False)
        for got in (sieve.weight(cfg, n), sieve.naive_weight(cfg, n), w[0]):
            assert got == pytest.approx(expect, abs=1e-12)

    def test_coeff_arity_and_positivity_checks(self):
        cfg = rich_config()
        with pytest.raises(ParameterConditionError):
            sieve.lambda_coeff(cfg, (1, 1))
        with pytest.raises(ParameterConditionError):
            sieve.lambda_coeff(cfg, (0, 1, 1))


class TestWeightPaths:
    def check_window(self, cfg, lo, hi, restrict):
        start, step, w = sieve.weight_array(cfg, lo, hi, restrict=restrict)
        assert len(w) > 0
        # weight accepts a table, as perfbench's replays pass one, and
        # ignores it, as sieve_range ignores want_spf
        table = sieve_range(1, hi + cfg.offsets.offsets[-1] + 1, want_spf=True)
        for j in range(len(w)):
            n = start + j * step
            direct = sieve.weight(cfg, n)
            naive = sieve.naive_weight(cfg, n)
            assert direct == pytest.approx(w[j], abs=1e-12)
            assert direct == pytest.approx(naive, abs=1e-12)
            assert sieve.weight(cfg, n, table=table) == direct

    def test_three_paths_agree_restricted(self):
        self.check_window(rich_config(), 5000, 7600, restrict=True)

    def test_three_paths_agree_unrestricted(self):
        self.check_window(rich_config(), 5000, 5060, restrict=False)

    def test_three_paths_agree_k2_shared_prime(self):
        # offsets congruent mod 11 would admit the divisor pair (11, 11),
        # but the d_i of a support tuple are pairwise coprime
        p = KernelParams(k=2, base=1.01, slope=2.0, cutoff=2.1)
        cfg = sieve.make_config(50000, delta=0.45, offsets=(0, 22), params=p)
        enum = dict(sieve.lambda_tuples(cfg))
        assert (11, 11) not in enum and (11, 1) in enum
        self.check_window(cfg, 4000, 9000, restrict=True)

    def test_three_paths_agree_k1(self):
        p = KernelParams(k=1, base=1.1, slope=2.0, cutoff=0.95)
        cfg = sieve.make_config(50000, delta=0.45, offsets=(0,), params=p)
        self.check_window(cfg, 3000, 3040, restrict=False)

    @pytest.mark.parametrize("params", [
        None,  # the CLI's default test function
        KernelParams(k=6, base=1.1, slope=3.0, cutoff=5.7),
    ])
    def test_three_paths_agree_k6_roadmap_config(self, params):
        # N = 1e7, delta = 0.45: the old tuple-budget guess refused this
        offsets = (0, 4, 6, 10, 12, 16)
        cfg = sieve.make_config(10**7, delta=0.45, offsets=offsets, params=params)
        assert cfg.support.visits == 4839
        self.check_window(cfg, 10**6, 10**6 + 20 * cfg.W, restrict=True)

    def test_trivial_support_gives_constant_weight(self):
        cfg = sieve.make_config(10**6)  # R=31, cap excludes every prime > 7
        lam0 = sieve.lambda_coeff(cfg, (1, 1, 1))
        assert lam0 > 0
        for n in (11, 221, 5051):
            assert sieve.weight(cfg, n) == pytest.approx(lam0, rel=1e-15)

    @pytest.mark.parametrize("restrict", [True, False])
    @pytest.mark.parametrize("cfg", [
        rich_config(N=200000, delta=0.3, offsets=(-2, 0, 4)), rich_config(),
    ], ids=["offsets-2,0,4", "rich"])
    def test_three_paths_agree_across_zero(self, cfg, restrict):
        # every path takes any integer n: d | n + h is a congruence whatever
        # the sign of n + h, and an entry 0 is divisible by every d; the first
        # config is the pinned sieve --tuple=-2,0,4 window's (n - 2 = 0 at n = 2)
        self.check_window(cfg, -60 * (cfg.W if restrict else 1), 300, restrict)

    def test_weight_array_grid_alignment(self):
        cfg = rich_config()
        start, step, w = sieve.weight_array(cfg, 1000, 3000)
        assert step == cfg.W and start % cfg.W == cfg.b0 % cfg.W
        assert start >= 1000 and start + (len(w) - 1) * step <= 3000

    def test_weight_array_empty_range(self):
        cfg = rich_config()
        start, step, w = sieve.weight_array(cfg, 3000, 1000)
        assert len(w) == 0

    def test_weight_accepts_spf_table(self):
        # the keywords perfbench's replays pass; both are ignored
        cfg = rich_config()
        table = sieve_range(5000, 5300, want_spf=True)
        for n in range(5050, 5060):
            assert sieve.weight(cfg, n, table=table) == pytest.approx(
                sieve.weight(cfg, n), abs=1e-15
            )

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=30000),
        pick=st.integers(min_value=0, max_value=2),
    )
    def test_weight_matches_naive_oracle(self, n, pick):
        cfgs = [
            rich_config(),
            rich_config(offsets=(0, 4, 6), base=1.2, slope=1.5, cutoff=2.5),
            rich_config(offsets=(0, 6), base=1.05, slope=5.0, cutoff=1.9),
        ]
        cfg = cfgs[pick]
        assert sieve.weight(cfg, n) == pytest.approx(
            sieve.naive_weight(cfg, n), abs=1e-12
        )


def trial_division_prime(v):
    """Primality of any integer v by trial division: below 2 is not prime."""
    return v >= 2 and all(v % p for p in range(2, math.isqrt(v) + 1))


def naive_hybrid_weight(cfg, n, alt, i, j):
    """naive_weight with alt's coordinate factor at i and j where d > 1."""
    sup = cfg.support
    log_r = math.log(cfg.R)
    per_coord = [[d for d in sup.divisors if (n + h) % d == 0] for h in cfg.offsets]
    total = 0.0
    for tup in itertools.product(*per_coord):
        ts = [math.log(d) / log_r for d in tup]
        if math.prod(tup) > cfg.R or sum(ts) > cfg.params.sum_cap:
            continue
        sign = math.prod(int(sup.mu[d]) for d in tup)
        total += sign * math.prod(
            sieve.coordinate_factor(alt if c in (i, j) and d > 1 else cfg.params, t)
            for c, (d, t) in enumerate(zip(tup, ts))
        )
    return total


def whole_array_weights(cfg, lo, hi, restrict=True):
    """Oracle for weight_array: one slice-add per tuple over the whole grid."""
    step = cfg.W if restrict else 1
    start = lo + (cfg.b0 - lo) % step
    w = np.zeros(max((hi - start) // step + 1, 0))
    for dt, lam in sieve.lambda_tuples(cfg):
        a, m = (cfg.b0, cfg.W) if restrict else (0, 1)
        for d, h in zip(dt, cfg.offsets):
            if d > 1:
                merged = sieve._crt_merge(a, m, (-h) % d, d)
                if merged is None:
                    break
                a, m = merged
        else:
            stride = m // step
            w[(a - start) // step % stride :: stride] += lam
    return start, step, w


def mask_and_gram(w2, masks):
    """Oracle for _w2_gram: sum w2 over each pair's AND of masks."""
    return [[float(w2[m_a & m_b].sum()) for m_b in masks] for m_a in masks]


WINDOW_CASES = {
    "restricted": (rich_config(), 1, 200000, True),
    "unrestricted": (rich_config(), 5000, 8001, False),
    "negative offsets": (rich_config(N=200000, delta=0.3, offsets=(-2, 0, 4)), 1, 3000, False),
    "negative offsets restricted": (rich_config(N=200000, delta=0.3, offsets=(-2, 0, 4)), 1, 300000, True),
    "one point": (rich_config(), 7000, 7000, False),
    "shared prime": (rich_config(delta=0.45, offsets=(0, 22), base=1.01, slope=2.0, cutoff=2.1), 4000, 90000, True),
}


class TestBlockedKernels:
    @pytest.mark.parametrize("block", [1, 7, 64, None])
    @pytest.mark.parametrize("case", sorted(WINDOW_CASES))
    def test_blocked_weights_equal_whole_array(self, monkeypatch, block, case):
        if block is not None:
            monkeypatch.setattr(sieve, "BLOCK", block)
        cfg, lo, hi, restrict = WINDOW_CASES[case]
        start, step, w = sieve.weight_array(cfg, lo, hi, restrict=restrict)
        ref_start, ref_step, ref = whole_array_weights(cfg, lo, hi, restrict)
        assert (start, step) == (ref_start, ref_step)
        assert len(w) > 0 and np.array_equal(w, ref)

    def test_window_across_default_blocks(self):
        cfg = rich_config(N=10**6, delta=0.4)
        hi = 1 + 2 * sieve.BLOCK + 12345  # not a multiple of the block
        _, _, w = sieve.weight_array(cfg, 1, hi, restrict=False)
        _, _, ref = whole_array_weights(cfg, 1, hi, restrict=False)
        assert len(w) > 2 * sieve.BLOCK and np.array_equal(w, ref)

    @pytest.mark.parametrize("offsets, lo, size", [
        ((-2, 0, 4), 1, 3000),  # the table starts at -1
        ((-2, 0, 4), 1, (1 << 17) + 4321),  # not a multiple of BLOCK
        ((0, 2, 6, 8), 10**5, 3 * (1 << 17) + 1),
    ])
    def test_prime_positions_and_gram(self, offsets, lo, size):
        # unit-step reads find their hits by bisection of the table's primes
        cfg = rich_config(N=10**6, delta=0.3, offsets=offsets)
        hi = lo + size - 1
        forms = [(1, h) for h in offsets]
        table = sieve_range(lo + offsets[0], hi + offsets[-1] + 1)
        masks = [table.along(lo + h, 1, size) for h in offsets]
        core_masks, hits = primes.form_masks(forms, lo, 1, size)
        hits = list(hits)
        for idx, mask, core_mask in zip(hits, masks, core_masks, strict=True):
            assert np.array_equal(core_mask, mask)
            assert np.array_equal(idx, np.flatnonzero(mask))
        _, _, w = whole_array_weights(cfg, lo, hi, restrict=False)
        w2 = w * w
        ref = mask_and_gram(w2, masks)
        assert sieve._w2_gram(w2, masks, iter(hits)) == ref
        assert sieve._w2_gram(w2, masks, map(np.flatnonzero, masks)) == ref
        # the grid core end to end, against both oracles
        core_w2, core_masks, gram = sieve._moment_segment(cfg, lo, hi, False, forms)
        assert np.array_equal(core_w2, w2) and gram == ref
        assert all(map(np.array_equal, core_masks, masks))

    @pytest.mark.parametrize("lo, hi", [(1, 3000), (1, 200000)])
    def test_restricted_segment_equals_oracles(self, lo, hi):
        # on the W-strided grid the hits come from a scan of each mask
        cfg = rich_config(N=200000, delta=0.3, offsets=(-2, 0, 4))
        start, step, w = whole_array_weights(cfg, lo, hi)
        table = sieve_range(0, hi + 5)
        w2 = w * w
        masks = [table.along(start + h, step, len(w)) for h in (-2, 0, 4)]
        forms = [(1, h) for h in (-2, 0, 4)]
        core_w2, core_masks, gram = sieve._moment_segment(cfg, lo, hi, True, forms)
        assert np.array_equal(core_w2, w2) and gram == mask_and_gram(w2, masks)
        assert all(map(np.array_equal, core_masks, masks))

    @pytest.mark.parametrize("forms, start, count", [
        ([(1, 0), (-1, 100), (-1, 3000)], 1, 3000),  # values below 2 read False
        ([(-1, 10**6 + 2), (1, 6), (-1, 10**6 - 4)], 400000, 200001),
        ([(1, 2), (-1, 50)], 7, 0),  # an empty grid
    ])
    def test_mirrored_reads_find_hits_by_bisection(self, monkeypatch, forms, start, count):
        # a descending read (s = -1) yields its hits in ascending j, and the
        # one table spans [least value read, greatest value read]
        values = [s * (start + j) + b for s, b in forms for j in (0, max(count - 1, 0))]
        table = sieve_range(min(values), max(values) + 1)
        calls = []

        def spy(lo, hi, **kw):
            calls.append((lo, hi))
            return sieve_range(lo, hi, **kw)

        monkeypatch.setattr(primes, "sieve_range", spy)
        masks, hits = primes.form_masks(forms, start, 1, count)
        assert calls == [(min(values), max(values) + 1)]
        for (s, b), mask, idx in zip(forms, masks, hits, strict=True):
            ref = table.along(s * start + b, s, count)
            assert np.array_equal(mask, ref)
            assert np.array_equal(idx, np.flatnonzero(ref))


    def test_mirrored_masks_are_views_of_one_table(self, monkeypatch):
        # N - n - h goes below 2 near n = N; those reads are views too
        tables = []

        def spy(lo, hi, **kw):
            tables.append(sieve_range(lo, hi, **kw))
            return tables[-1]

        monkeypatch.setattr(primes, "sieve_range", spy)
        N = 2000
        forms = [(1, 0), (1, 2), (-1, N), (-1, N - 2)]
        masks, _ = primes.form_masks(forms, N // 2, 1, N // 2 + 1)
        (table,) = tables
        assert (table.lo, table.hi) == (-2, N + 3)
        for mask in masks:
            assert np.shares_memory(mask, table.is_prime) and not mask.flags.writeable


class TestMomentSums:
    def test_against_brute_oracle(self):
        cfg = rich_config()
        rep = sieve.moment_sums(cfg, 4000, 8000)
        table = sieve_range(2, 9000)
        acc_w2, cnt = 0.0, 0
        acc_p = [0.0] * 3
        acc_pair = [[0.0] * 3 for _ in range(3)]
        n = 4000 + (cfg.b0 - 4000) % cfg.W
        while n <= 8000:
            w = sieve.naive_weight(cfg, n)
            cnt += 1
            acc_w2 += w * w
            pr = [table.is_prime_at(n + h) for h in cfg.offsets]
            for i in range(3):
                if pr[i]:
                    acc_p[i] += w * w
                for j in range(3):
                    if pr[i] and pr[j]:
                        acc_pair[i][j] += w * w
            n += cfg.W
        assert rep.n_count == cnt
        assert rep.sum_w2 == pytest.approx(acc_w2, rel=1e-12)
        for i in range(3):
            assert rep.prime_sq_sums[i] == pytest.approx(acc_p[i], rel=1e-12)
            for j in range(3):
                assert rep.pair_sq_sums[i][j] == pytest.approx(
                    acc_pair[i][j], rel=1e-12, abs=1e-18
                )

    def test_negative_offset_reads_primality_not_wrapped_cells(self, monkeypatch):
        # n - 2 lies below each segment start: read it, do not wrap to the table's end
        cfg = rich_config(N=200000, delta=0.3, offsets=(-2, 0, 4))
        rep = sieve.moment_sums(cfg, 1, 3000, restrict=False)
        monkeypatch.setattr(sieve, "MOMENT_SEGMENT", 1000)
        seg = sieve.moment_sums(cfg, 1, 3000, restrict=False)
        assert (seg.sum_w2, seg.prime_sq_sums) == (rep.sum_w2, rep.prime_sq_sums)
        # one pair sum differs in the last bit: segments merge in another order
        for row, seg_row in zip(rep.pair_sq_sums, seg.pair_sq_sums):
            assert seg_row == pytest.approx(row, rel=1e-12)
        start, _, w = sieve.weight_array(cfg, 1, 3000, restrict=False)
        primes = set(sieve_range(0, 3010).primes.tolist())
        hits = [[n + h in primes for h in cfg.offsets] for n in range(1, 3001)]
        assert start == 1 and rep.n_count == len(hits) == len(w)
        w2 = (w * w).tolist()
        assert rep.sum_w2 == pytest.approx(math.fsum(w2), rel=1e-12)
        for i, j in itertools.product(range(3), repeat=2):
            oracle = math.fsum(v for v, hit in zip(w2, hits) if hit[i] and hit[j])
            assert rep.pair_sq_sums[i][j] == pytest.approx(oracle, rel=1e-12)
        assert rep.prime_sq_sums == tuple(rep.pair_sq_sums[i][i] for i in range(3))

    def test_thread_count_never_changes_totals(self, monkeypatch):
        cfg = rich_config()
        monkeypatch.setattr(sieve, "MOMENT_SEGMENT", 1 << 13)
        reps = [sieve.moment_sums(cfg, 1, 50000, threads=t) for t in (1, 2, 4)]
        for other in reps[1:]:
            assert other.sum_w2 == reps[0].sum_w2
            assert other.prime_sq_sums == reps[0].prime_sq_sums
            assert other.pair_sq_sums == reps[0].pair_sq_sums

    def test_thread_count_below_one_is_the_pools_error(self):
        # the CLI refuses --threads 0 itself; a library caller gets the pool's error
        with pytest.raises(ValueError, match="max_workers"):
            sieve.moment_sums(rich_config(), 1, 1000, threads=0)

    def test_unrestricted_counts_every_n(self):
        cfg = rich_config()
        rep = sieve.moment_sums(cfg, 100, 399, restrict=False)
        assert rep.n_count == 300

    def test_empty_window(self):
        cfg = rich_config()
        rep = sieve.moment_sums(cfg, 500, 400)
        assert rep.n_count == 0 and rep.sum_w2 == 0.0
        assert rep.ratios == (0.0, 0.0, 0.0)
        assert rep.pair_max_ratio == 0.0

    @pytest.mark.parametrize("restrict", [True, False])
    def test_window_across_zero_matches_brute_oracle(self, restrict):
        # n from -50: entries n + h at or below 0 are not prime, and the
        # weight there is naive_weight's
        cfg = rich_config(N=200000, delta=0.3, offsets=(-2, 0, 4))
        lo, hi = -50 * (cfg.W if restrict else 1), 400
        rep = sieve.moment_sums(cfg, lo, hi, restrict=restrict)
        ns = [n for n in range(lo, hi + 1) if not restrict or n % cfg.W == cfg.b0]
        w2 = [sieve.naive_weight(cfg, n) ** 2 for n in ns]
        hits = [[trial_division_prime(n + h) for h in cfg.offsets] for n in ns]
        assert rep.n_count == len(ns)
        assert rep.sum_w2 == pytest.approx(math.fsum(w2), rel=1e-12)
        for i, j in itertools.product(range(3), repeat=2):
            oracle = math.fsum(v for v, hit in zip(w2, hits) if hit[i] and hit[j])
            assert rep.pair_sq_sums[i][j] == pytest.approx(oracle, rel=1e-12, abs=1e-18)
        assert rep.prime_sq_sums == tuple(rep.pair_sq_sums[i][i] for i in range(3))

    def test_window_validation(self):
        cfg = rich_config()
        with pytest.raises(ResourceBudgetError, match="MAX_MOMENT_SPAN = 400000000; lower --N"):
            sieve.moment_sums(cfg, 1, 10**10)

    def test_report_identities(self):
        cfg = rich_config()
        rep = sieve.moment_sums(cfg, 1, 50000)
        assert rep.satz(2) == pytest.approx(
            sum(rep.prime_sq_sums) - rep.sum_w2, rel=1e-12
        )
        for i, r in enumerate(rep.ratios):
            assert r == pytest.approx(rep.prime_sq_sums[i] / rep.sum_w2, rel=1e-15)
        # a pair event implies both single events
        for i in range(3):
            for j in range(3):
                assert rep.pair_sq_sums[i][j] <= min(
                    rep.prime_sq_sums[i], rep.prime_sq_sums[j]
                ) * (1 + 1e-12)
        assert rep.pair_sq_sums[0][0] == rep.prime_sq_sums[0]

    def test_csv_shapes(self, tmp_path):
        # the CSV layout is the sieve command's; read it off its output
        cfg = rich_config()
        out = tmp_path / "sieve.csv"
        argv = ["sieve", "--N", "50000", "--delta", "0.45", "--tuple", "0,2,6",
                "--base", "1.1", "--slope", "3", "--cutoff", "2.9"]
        assert cli.main(argv + ["--output", str(out)]) == 0
        header, row = [l.split(",") for l in out.read_text().splitlines()
                       if not l.startswith("#")]
        assert len(header) == len(row) == 6 + 2 * cfg.k + 1
        assert header[0] == "N" and header[-1] == "pair_max_ratio"


class TestTaoDomination:
    def test_zero_violations_on_prime_pairs(self):
        cfg = rich_config()
        alt = KernelParams(k=3, base=1.4, slope=5.0, cutoff=1.8)
        rep = sieve.tao_domination_check(cfg, alt, 0, 2, 1, 50000)
        assert rep.n_checked > 50
        assert rep.violations == 0
        assert rep.max_abs_diff == 0.0
        assert rep.passed

    def test_modified_origin_breaks_equality(self):
        # control: a lambda_alt that also replaces the factor at t = 0 must
        # move the weight on the very same entries
        cfg = rich_config()
        alt = KernelParams(k=3, base=1.4, slope=5.0, cutoff=1.8)
        log_r = math.log(cfg.R)
        bad = []
        for dt, lam in sieve.lambda_tuples(cfg):
            sign = math.prod(int(cfg.support.mu[d]) for d in dt)
            val = math.prod(
                sieve.coordinate_factor(alt if c in (0, 2) else cfg.params,
                                        math.log(d) / log_r)
                for c, d in enumerate(dt)
            )
            cls = sieve.divisor_class(cfg.offsets, dt)
            if cls is not None:
                bad.append((*cls, lam - sign * val))
        start = 1 + (cfg.b0 - 1) % cfg.W
        count = (50000 - start) // cfg.W + 1
        placed = sieve._place(bad, start, cfg.W, count)
        table = sieve_range(1, 60000)
        diffs = []
        for jdx in range(count):
            n = start + jdx * cfg.W
            a, b = n + cfg.offsets.offsets[0], n + cfg.offsets.offsets[2]
            if (a > cfg.R and b > cfg.R
                    and table.is_prime_at(a) and table.is_prime_at(b)):
                diffs.append(abs(placed[jdx]))
        assert diffs and max(diffs) > 1e-6

    @pytest.mark.parametrize("offsets, i, j", [((0, 2, 6), 0, 2), ((-2, 0, 4), 1, 2)])
    def test_grid_difference_matches_naive_oracles(self, monkeypatch, offsets, i, j):
        # alt's coordinate cap lies below cfg's, so the hybrid's support lies
        # inside cfg's and both oracles sum over the same divisor tuples
        cfg = rich_config(offsets=offsets)
        alt = KernelParams(k=3, base=1.4, slope=5.0, cutoff=1.8)
        assert alt.coord_cap < cfg.params.coord_cap
        placed = []
        real_place = sieve._place

        def spy(*args):
            placed.append(real_place(*args))
            return placed[-1]

        monkeypatch.setattr(sieve, "_place", spy)
        lo, hi = 3, 1500
        rep = sieve.tao_domination_check(cfg, alt, i, j, lo, hi)
        (diff,) = placed
        assert len(diff) == hi - lo + 1
        for n in range(lo, hi + 1):
            expect = sieve.naive_weight(cfg, n) - naive_hybrid_weight(cfg, n, alt, i, j)
            assert diff[n - lo] == pytest.approx(expect, abs=1e-12)
        # the difference lives off the checked set: the check is not vacuous
        assert np.count_nonzero(diff) > 100 and rep.n_checked > 20 and rep.passed

    @pytest.mark.parametrize("cfg, i, j", [
        (rich_config(offsets=(-2, 0, 4)), 1, 2),
        # n = 5 has n, n + 2 prime above R = 3 while n - 10 < 0
        (sieve.make_config(81, delta=0.25, offsets=(-10, 0, 2), strict=False), 1, 2),
    ], ids=["rich", "R3"])
    def test_window_from_below_zero_matches_naive_oracles(self, monkeypatch, cfg, i, j):
        alt = KernelParams(k=3, base=1.4, slope=5.0, cutoff=1.8)
        placed = []
        real_place = sieve._place

        def spy(*args):
            placed.append(real_place(*args))
            return placed[-1]

        monkeypatch.setattr(sieve, "_place", spy)
        lo, hi = -20, 400
        rep = sieve.tao_domination_check(cfg, alt, i, j, lo, hi)
        (diff,) = placed
        assert len(diff) == rep.n_scanned == hi - lo + 1
        for n in range(lo, hi + 1):
            expect = sieve.naive_weight(cfg, n) - naive_hybrid_weight(cfg, n, alt, i, j)
            assert diff[n - lo] == pytest.approx(expect, abs=1e-12)
        h_i, h_j = cfg.offsets.offsets[i], cfg.offsets.offsets[j]
        checked = [
            n for n in range(lo, hi + 1)
            if all(n + h > cfg.R and trial_division_prime(n + h) for h in (h_i, h_j))
        ]
        assert rep.n_checked == len(checked) > 0 and rep.passed
        assert rep.max_abs_diff == max(abs(diff[n - lo]) for n in checked) == 0.0

    def test_table_starts_at_the_window(self, monkeypatch):
        # both masks are read off one table over the values n + h_i, n + h_j
        cfg = rich_config()
        alt = KernelParams(k=3, base=1.4, slope=5.0, cutoff=1.8)
        calls = []

        def spy(lo, hi, **kw):
            calls.append((lo, hi))
            return sieve_range(lo, hi, **kw)

        monkeypatch.setattr(primes, "sieve_range", spy)
        rep = sieve.tao_domination_check(cfg, alt, 0, 2, 10**6, 10**6 + 10**4)
        assert calls == [(10**6, 10**6 + 10**4 + 7)]
        assert rep.n_scanned == 10**4 + 1 and rep.n_checked > 0 and rep.passed

    def test_checked_set_requires_both_primes_above_r(self):
        cfg = rich_config()
        alt = KernelParams(k=3, base=1.4, slope=5.0, cutoff=1.8)
        rep = sieve.tao_domination_check(cfg, alt, 0, 1, 1, 20000)
        table = sieve_range(1, 20010)
        expect = sum(
            1
            for n in range(1, 20001)
            if n > cfg.R
            and table.is_prime_at(n)
            and table.is_prime_at(n + 2)
        )
        assert rep.n_scanned == 20000
        assert rep.n_checked == expect

    @pytest.mark.parametrize(
        "offsets, i, j", [((0, 2, 6), 0, 1), ((-2, 0, 4), 0, 1), ((-2, 0, 4), 0, 2)]
    )
    def test_checked_set_at_a_prime_truncation(self, offsets, i, j):
        # R = 41 is prime, so an entry equal to R is a prime left unchecked
        cfg = rich_config(N=10**6, delta=0.27, offsets=offsets)
        alt = KernelParams(k=3, base=1.4, slope=5.0, cutoff=1.8)
        rep = sieve.tao_domination_check(cfg, alt, i, j, 1, 3000)
        primes = set(sieve_range(0, 3010).primes.tolist())
        expect = sum(
            1
            for n in range(1, 3001)
            if all(n + offsets[c] > cfg.R and n + offsets[c] in primes for c in (i, j))
        )
        assert cfg.R == 41 and rep.n_checked == expect > 0
        assert rep.passed

    def test_index_validation(self):
        cfg = rich_config()
        alt = KernelParams(k=3, base=1.4, slope=5.0, cutoff=1.8)
        with pytest.raises(ParameterConditionError):
            sieve.tao_domination_check(cfg, alt, 1, 1, 1, 1000)
        with pytest.raises(ParameterConditionError):
            sieve.tao_domination_check(cfg, alt, 0, 3, 1, 1000)
        with pytest.raises(ParameterConditionError):
            bad = KernelParams(k=2, base=1.4, slope=5.0, cutoff=1.8)
            sieve.tao_domination_check(cfg, bad, 0, 1, 1, 1000)


class TestGoldbachScan:
    def scan(self, N=20000, offsets=(0, 2, 6), delta=0.3):
        p = KernelParams(k=len(offsets), base=1.2, slope=4.0, cutoff=2.2)
        cfg = sieve.make_config(N, delta=delta, offsets=offsets, params=p)
        return cfg, sieve.goldbach_window_scan(cfg)

    def test_witness_is_a_prime_pair(self):
        cfg, rep = self.scan()
        assert rep.witness is not None
        n, hi, hj = rep.witness
        table = sieve_range(2, 2 * cfg.N + 2)
        assert table.is_prime_at(n + hi)
        assert table.is_prime_at(cfg.N - n - hj)
        assert (n + hi) + (cfg.N - n - hj) == cfg.N - hj + hi

    def test_witness_count_matches_brute(self):
        cfg, rep = self.scan(N=2000, delta=0.35)
        table = sieve_range(2, 2 * cfg.N + 2)
        count = 0
        for n in range((cfg.N + 1) // 2, cfg.N + 1):
            for hi in cfg.offsets:
                for hj in cfg.offsets:
                    a, b = n + hi, cfg.N - n - hj
                    if b >= 2 and table.is_prime_at(a) and table.is_prime_at(b):
                        count += 1
        assert rep.witness_count == count

    def test_table_stops_at_largest_value_read(self, monkeypatch):
        # n + h with n <= N is the largest value read; the mirrored N - n - h
        # run from N/2 down to -max(h) at n = N, so a table over
        # [-max(h), 2N + 2) reports the same
        cfg, _ = self.scan()
        for N in (100, 2002, 20000):
            calls = []

            def spy(lo, hi, **kw):
                calls.append((lo, hi))
                return sieve_range(lo, hi, **kw)

            monkeypatch.setattr(primes, "sieve_range", spy)
            rep = sieve.goldbach_window_scan(cfg, N=N)
            h = max(cfg.offsets)
            assert calls == [(-h, N + h + 1)]
            monkeypatch.setattr(
                primes, "sieve_range", lambda lo, hi, **kw: sieve_range(-h, 2 * N + 2)
            )
            assert sieve.goldbach_window_scan(cfg, N=N) == rep

    def test_sums_equal_the_hit_count_oracle(self):
        # x(n), the number of prime forms at n, built here from along's masks:
        # the scan's sums come from the grid core's pair table instead
        p = KernelParams(k=3, base=1.05, slope=3.0, cutoff=4.0)
        cfg = sieve.make_config(20000, delta=0.45, offsets=(0, 2, 6), params=p)
        rep = sieve.goldbach_window_scan(cfg)
        # the scan's weight lives on the union, which need not be admissible
        union = rep.union
        scan_cfg = replace(cfg, offsets=union, params=replace(cfg.params, k=union.k))
        assert scan_cfg.R > 44
        lo, N, k = rep.n_lo, rep.N, cfg.k
        start, step, w = sieve.weight_array(scan_cfg, lo, N, restrict=False)
        assert (start, step) == (lo, 1) and np.ptp(w) > 0  # w is not constant
        table = sieve_range(-max(cfg.offsets), 2 * N + 2)  # N - N - h at n = N
        masks = [table.along(lo + h, 1, len(w)) for h in cfg.offsets]
        masks += [table.along(N - lo - h, -1, len(w)) for h in cfg.offsets]
        x = np.sum(masks, axis=0)
        w2 = w * w
        same = mixed = 0.0
        for a, b in itertools.permutations(range(2 * k), 2):
            both = float(w2[masks[a] & masks[b]].sum())
            if (a < k) == (b < k):
                same += both
            else:
                mixed += both
        expect = {
            "sum_w2": w2.sum(),
            "sum_w2_active": w2[x > 0].sum(),
            "sum_xw2": (x * w2).sum(),
            "sum_x2w2": (x * x * w2).sum(),
            "pair_sum_same": same,
            "pair_sum_mixed": mixed,
            "witness_count": sum(
                int((masks[i] & masks[k + j]).sum())
                for i, j in itertools.product(range(k), repeat=2)
            ),
        }
        for name, value in expect.items():
            assert getattr(rep, name) == pytest.approx(value, rel=1e-12), name
        assert rep.witness_count > 0 and same > 0 and mixed > 0

    def test_cauchy_schwarz_and_hit_accounting(self):
        _, rep = self.scan()
        assert rep.cs_holds
        assert rep.sum_xw2**2 <= rep.sum_w2_active * rep.sum_x2w2 * (1 + 1e-9)
        # x^2 = x + (ordered pairs of distinct hits), summed with weights
        assert rep.sum_x2w2 == pytest.approx(
            rep.sum_xw2 + rep.pair_sum_same + rep.pair_sum_mixed, rel=1e-9
        )
        assert rep.sum_w2_active <= rep.sum_w2 * (1 + 1e-12)

    def test_union_doubles_the_tuple(self):
        cfg, rep = self.scan()
        assert rep.union.k == 2 * cfg.k
        assert rep.n_lo == (cfg.N + 1) // 2 and rep.n_hi == cfg.N

    def test_pair_offsets_witness_small_even_targets(self):
        # every even target in a small strip admits a witness
        p = KernelParams(k=2, base=1.2, slope=4.0, cutoff=1.5)
        cfg = sieve.make_config(1000, delta=0.25, offsets=(0, 2), params=p)
        for N in range(100, 160, 2):
            rep = sieve.goldbach_window_scan(cfg, N=N)
            assert rep.witness is not None, N

    def test_rejects_odd_or_tiny_targets(self):
        cfg, _ = self.scan()
        with pytest.raises(ParameterConditionError, match="even"):
            sieve.goldbach_window_scan(cfg, N=999)
        with pytest.raises(ParameterConditionError, match="even"):
            sieve.goldbach_window_scan(cfg, N=6)

    def test_mirror_collision_propagates(self):
        cfg, _ = self.scan()
        with pytest.raises(ValueError, match="collision"):
            sieve.goldbach_window_scan(cfg, N=8)  # 8 - 2 = 6 collides
