"""Difference-graph tests: construction, per-difference edge counts against
the closed formula, complete-bipartite search, extremal bounds, and the
prime-difference census."""

import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievelab import graphs
from sievelab.errors import ParameterConditionError, ResourceBudgetError
from sievelab.primes import gap_counts, sieve_range
from sievelab.tuples import is_admissible, surfing, surfing_start_size


class TestBuildGraph:
    def test_all_differences_avoided_gives_edgeless(self):
        g = graphs.build_graph(10, lambda m: True)
        assert g.edge_count() == 0

    def test_empty_avoid_gives_complete(self):
        g = graphs.build_graph(10, set())
        assert g.edge_count() == 45

    def test_single_avoided_difference(self):
        g = graphs.build_graph(10, {2})
        assert g.edge_count() == 45 - 9  # N - d = 9 pairs at difference 2

    def test_predicate_called_once_per_difference(self):
        calls = []

        def avoid(m):
            calls.append(m)
            return False

        graphs.build_graph(12, avoid)
        assert sorted(calls) == list(range(2, 23, 2))
        assert len(calls) == len(set(calls))

    def test_vertices_and_edges(self):
        g = graphs.build_graph(6, {4})
        assert list(g.vertices) == [2, 4, 6, 8, 10, 12]
        assert g.has_edge(2, 4)  # difference 2 allowed
        assert not g.has_edge(2, 6)  # difference 4 avoided
        assert g.has_edge(2, 8)
        with pytest.raises(ParameterConditionError):
            g.has_edge(3, 4)
        with pytest.raises(ParameterConditionError):
            g.has_edge(2, 14)

    def test_no_self_loops_and_symmetry(self):
        g = graphs.build_graph(15, {6, 10})
        assert not g.adjacency.diagonal().any()
        assert (g.adjacency == g.adjacency.T).all()

    @pytest.mark.parametrize("N", [1, 2, 3, 7, 100, 1000])
    def test_adjacency_matches_scipy_toeplitz(self, N):
        from scipy.linalg import toeplitz

        rng = np.random.default_rng(N)
        avoid = {2 * d for d in range(1, N) if rng.random() < 0.5}
        g = graphs.build_graph(N, avoid)
        want = toeplitz(g.diff_has_edge)
        np.fill_diagonal(want, False)
        assert g.adjacency.dtype == bool and g.adjacency.flags.c_contiguous
        assert np.array_equal(g.adjacency, want)

    def test_budget(self):
        with pytest.raises(ResourceBudgetError):
            graphs.build_graph(10_001, set())
        with pytest.raises(ParameterConditionError):
            graphs.build_graph(0, set())

    def test_budget_refusal_names_constant(self):
        with pytest.raises(
            ResourceBudgetError, match="N = 10001 exceeds MAX_DENSE_N = 10000"
        ):
            graphs.build_graph(10_001, set())


class TestEdgeCounts:
    def formula(self, N, avoid_set, d):
        return 0 if 2 * d in avoid_set else N - d

    def test_matches_formula_small(self):
        g = graphs.build_graph(10, {2})
        counts = graphs.edge_count_by_difference(g)
        assert counts[2] == 0
        assert counts[4] == 8
        assert counts[18] == 1

    def test_matches_formula_random_family(self):
        rng = random.Random(4257)
        for _ in range(25):
            N = rng.randrange(2, 60)
            avoid = {2 * d for d in range(1, N) if rng.random() < 0.4}
            g = graphs.build_graph(N, avoid)
            counts = graphs.edge_count_by_difference(g)
            for d in range(1, N):
                assert counts[2 * d] == self.formula(N, avoid, d)

    def test_counts_sum_to_edge_total(self):
        rng = random.Random(99)
        for _ in range(10):
            N = rng.randrange(2, 80)
            avoid = {2 * d for d in range(1, N) if rng.random() < 0.5}
            g = graphs.build_graph(N, avoid)
            assert sum(graphs.edge_count_by_difference(g).values()) == g.edge_count()

    def test_difference_beyond_range_absent(self):
        g = graphs.build_graph(10, set())
        counts = graphs.edge_count_by_difference(g)
        assert 20 not in counts and 2 * 9 in counts


class TestKttSearch:
    def test_complete_graph_contains_k22(self):
        g = graphs.build_graph(10, set())
        res = graphs.contains_ktt(g, 2)
        assert res.found and res.exact
        left, right = res.left, res.right
        assert len(left) == len(right) == 2
        assert not set(left) & set(right)
        assert all(g.has_edge(x, y) for x in left for y in right)

    def test_edgeless_contains_nothing(self):
        g = graphs.build_graph(10, lambda m: True)
        for t in (1, 2, 3):
            res = graphs.contains_ktt(g, t)
            assert not res.found and res.exact

    def test_k11_is_an_edge(self):
        g = graphs.build_graph(5, {2, 4, 6})
        res = graphs.contains_ktt(g, 1)
        assert res.found
        (x,), (y,) = res.left, res.right
        assert g.has_edge(x, y)

    def test_single_difference_graph_has_no_k22(self):
        # only difference 2 present: a path through the evens; any two
        # vertices share at most one neighbor, so no 4-cycle exists
        N = 20
        g = graphs.build_graph(N, lambda m: m != 2)
        res = graphs.contains_ktt(g, 2)
        assert not res.found and res.exact

    def test_two_difference_graph_k22_matches_brute_force(self):
        for avoid_complement in ({2, 4}, {2, 8}, {4, 6}):
            g = graphs.build_graph(14, lambda m, keep=avoid_complement: m not in keep)
            res = graphs.contains_ktt(g, 2)
            brute = False
            verts = list(g.vertices)
            for left in combinations(verts, 2):
                for right in combinations([v for v in verts if v not in left], 2):
                    if all(g.has_edge(x, y) for x in left for y in right):
                        brute = True
                        break
                if brute:
                    break
            assert res.found == brute, avoid_complement

    @given(
        st.integers(2, 12),
        st.sets(st.integers(1, 11).map(lambda d: 2 * d)),
        st.booleans(),
        st.sampled_from([2, 3]),
    )
    @settings(max_examples=120, deadline=None)
    def test_exact_search_matches_brute_force(self, N, diffs, keep, t):
        # diffs are the kept differences or the avoided ones, so sparse
        # graphs without a K_{t,t} are drawn as often as dense ones
        g = graphs.build_graph(N, (lambda m: m not in diffs) if keep else diffs)
        res = graphs.contains_ktt(g, t)
        verts = [int(v) for v in g.vertices]
        brute = any(
            all(g.has_edge(x, y) for x in left for y in right)
            for left in combinations(verts, t)
            for right in combinations([v for v in verts if v not in left], t)
        )
        assert res.exact and res.found == brute
        if res.found:
            assert len(res.left) == len(res.right) == t
            assert not set(res.left) & set(res.right)
            assert all(g.has_edge(x, y) for x in res.left for y in res.right)

    def test_k33_in_dense_graph(self):
        g = graphs.build_graph(30, {8})
        res = graphs.contains_ktt(g, 3)
        assert res.found and res.exact
        assert len(res.left) == len(res.right) == 3

    def test_heuristic_large_t(self):
        g = graphs.build_graph(60, set())
        res = graphs.contains_ktt(g, 5)
        assert res.found  # complete graph: found immediately, witness valid
        assert all(g.has_edge(x, y) for x in res.left for y in res.right)

    def test_heuristic_negative_flagged_incomplete(self, monkeypatch):
        # degrees up to 8 keep the candidate pool alive, but the short
        # difference window admits no K_{4,4}; the sampler must say so
        # without claiming exhaustiveness
        g = graphs.build_graph(30, lambda m: m > 8)
        monkeypatch.setattr(graphs, "HEURISTIC_TRIES", 50)
        res = graphs.contains_ktt(g, 4)
        assert not res.found and not res.exact

    def test_degree_pruning_negative_is_exact(self):
        # max degree 2 rules out either side of a K_{4,4} outright
        g = graphs.build_graph(30, lambda m: m != 2)
        res = graphs.contains_ktt(g, 4)
        assert not res.found and res.exact

    def test_budget_raises(self, monkeypatch):
        # only differences 2 and 4 present: K_{3,3}-free but degree 4, so
        # the exhaustive search has real work to do and must hit the budget
        g = graphs.build_graph(400, lambda m: m > 4)
        monkeypatch.setattr(graphs, "DEFAULT_SEARCH_BUDGET", 10)
        with pytest.raises(ResourceBudgetError):
            graphs.contains_ktt(g, 3)

    @pytest.mark.parametrize("N, reach, t", [(400, 4, 3), (30, 8, 4)])
    def test_budget_refusal_names_constant(self, monkeypatch, N, reach, t):
        # the exhaustive search (t <= 3) and the sampler refuse alike
        g = graphs.build_graph(N, lambda m: m > reach)
        monkeypatch.setattr(graphs, "DEFAULT_SEARCH_BUDGET", 10)
        with pytest.raises(
            ResourceBudgetError,
            match="visited 11 nodes, over DEFAULT_SEARCH_BUDGET = 10$",
        ):
            graphs.contains_ktt(g, t)

    def test_t_validation(self):
        g = graphs.build_graph(5, set())
        with pytest.raises(ParameterConditionError):
            graphs.contains_ktt(g, 0)


class TestSurfingCompatibility:
    def test_surfed_subsets_keep_cross_pairs_as_edges(self, monkeypatch):
        # a found biclique gives disjoint pools whose cross differences all
        # avoid the forbidden set; surfing then extracts admissible
        # same-size subsets, and the cross pairs must stay edges
        k = 2
        size = surfing_start_size(k)
        avoid = {12}
        g = graphs.build_graph(120, avoid)
        monkeypatch.setattr(graphs, "HEURISTIC_TRIES", 5000)
        res = graphs.contains_ktt(g, size)
        assert res.found
        trace = surfing(res.left, res.right, k)
        assert len(trace.x) == len(trace.y) == k
        assert is_admissible(sorted(trace.x + trace.y))
        for x in trace.x:
            for y in trace.y:
                assert abs(x - y) not in avoid
                assert g.has_edge(x, y)


class TestKstBound:
    def test_t1_is_linear(self):
        assert graphs.kst_bound(100, 1) == pytest.approx(100.0)

    def test_t2_value(self):
        assert graphs.kst_bound(100, 2) == pytest.approx(
            math.sqrt(2) * 100**1.5, rel=1e-12
        )
        assert graphs.kst_bound(100, 2) == pytest.approx(1414.2, rel=1e-4)

    def test_linear_in_c(self):
        assert graphs.kst_bound(50, 3, c=2.0) == pytest.approx(
            2 * graphs.kst_bound(50, 3, c=1.0), rel=1e-15
        )

    def test_validation(self):
        with pytest.raises(ParameterConditionError):
            graphs.kst_bound(0, 2)
        with pytest.raises(ParameterConditionError):
            graphs.kst_bound(10, 2, c=0.0)

    def test_no_k22_graph_respects_bound_with_allowance(self):
        # single-difference graphs are K_{2,2}-free; their edge count N-1
        # sits far below the t=2 bound
        for N in (20, 50, 100):
            g = graphs.build_graph(N, lambda m: m != 2)
            assert g.edge_count() <= graphs.kst_bound(N, 2) + N


class TestCoverageBound:
    @pytest.mark.parametrize(
        "edges,expect", [(0, 0), (1, 1), (2, 1), (3, 2), (5, 2), (6, 3), (10, 4), (11, 4)]
    )
    def test_table(self, edges, expect):
        assert graphs.coverage_bound(edges) == expect

    @given(st.integers(min_value=0, max_value=10**12))
    @settings(max_examples=200)
    def test_triangular_inversion(self, e):
        t = graphs.coverage_bound(e)
        assert t * (t + 1) // 2 <= e
        assert (t + 1) * (t + 2) // 2 > e

    def test_negative_rejected(self):
        with pytest.raises(ParameterConditionError):
            graphs.coverage_bound(-1)

    def test_dominates_distinct_differences_present(self):
        rng = random.Random(7)
        for _ in range(10):
            N = rng.randrange(2, 60)
            avoid = {2 * d for d in range(1, N) if rng.random() < 0.6}
            g = graphs.build_graph(N, avoid)
            present = sum(
                1 for c in graphs.edge_count_by_difference(g).values() if c > 0
            )
            assert graphs.coverage_bound(g.edge_count()) >= present


@pytest.fixture(scope="module")
def census_small():
    return graphs.empirical_polignac_density(20000, threshold=1, max_diff=600)


class TestPolignacCensus:
    def test_counts_match_direct_scan(self, census_small):
        table = sieve_range(0, 20001)
        mask = table.is_prime
        for m in (2, 6, 100, 600):
            assert census_small.counts[m] == int(
                np.count_nonzero(mask[m:] & mask[:-m])
            )

    def test_counts_are_the_gap_counts_array(self, census_small):
        want = gap_counts(20000, 600)
        assert census_small.counts.dtype == np.int64
        assert np.array_equal(census_small.counts, want)

    def test_every_small_even_realized(self, census_small):
        assert census_small.exceptions.dtype == np.int64
        assert np.array_equal(census_small.exceptions, np.zeros(0, dtype=np.int64))
        assert census_small.exception_count == 0

    def test_huge_threshold_makes_everything_exceptional(self):
        rep = graphs.empirical_polignac_density(5000, threshold=10**9, max_diff=100)
        assert rep.exceptions.dtype == np.int64
        assert np.array_equal(rep.exceptions, np.arange(2, 101, 2))

    def test_cumulative_matches_exceptions(self):
        rep = graphs.empirical_polignac_density(2000, threshold=70, max_diff=400)
        assert rep.exception_count > 0
        for M, c in zip(rep.grid, rep.exception_cumulative):
            assert c == sum(1 for m in rep.exceptions if m <= M)

    def test_kappa_curves_shape(self, census_small):
        assert set(census_small.kappa_curves) == {"0.5", "0.6", "0.7", "0.8", "0.9"}
        for curve in census_small.kappa_curves.values():
            assert len(curve) == len(census_small.grid)
        i = census_small.grid.index(census_small.max_diff)
        assert census_small.kappa_curves["0.5"][i] == pytest.approx(
            math.sqrt(census_small.max_diff)
        )

    def test_as_dict_labels_proxy(self, census_small):
        d = census_small.as_dict()
        assert "proxy" in d["label"]
        assert d["exceptions"] == []
        assert "kappa_curves" in d and "threshold" in d

    def test_validation(self):
        with pytest.raises(ParameterConditionError):
            graphs.empirical_polignac_density(1000, threshold=0, max_diff=100)
        with pytest.raises(ParameterConditionError):
            graphs.empirical_polignac_density(1000, threshold=1, max_diff=7)
