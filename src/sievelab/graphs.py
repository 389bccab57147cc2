"""Difference graphs on the even numbers 2..2N and their edge counting.

Vertices are the evens up to 2N; an unordered pair is an edge exactly when
its difference avoids a caller-supplied set of even values.  Edge counts per
difference follow a closed formula, complete-bipartite subgraphs are searched
for directly, and the classical extremal bound for graphs without them is
provided for comparison.  A prime-difference census with threshold
classification rounds out the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterConditionError, ResourceBudgetError
from .primes import gap_counts
from .reportio import report_dict

MAX_DENSE_N = 10_000
DEFAULT_SEARCH_BUDGET = 2_000_000  # contains_ktt node visits
HEURISTIC_TRIES = 20_000  # random left sets contains_ktt samples for t > 3
DENSITY_GRID = 25  # geometric cutoffs in the Polignac census


@dataclass(frozen=True)
class DiffGraph:
    """Undirected graph on vertices 2, 4, ..., 2N keyed by differences.

    diff_has_edge[d] (1 <= d < N) says whether pairs at difference 2d are
    edges; index 0 is always False.  The dense adjacency matrix is stored
    explicitly (hence the N budget) so that counting routines can work from
    the actual structure rather than the construction formula.
    """

    N: int
    diff_has_edge: np.ndarray
    adjacency: np.ndarray

    @property
    def vertices(self) -> np.ndarray:
        return np.arange(2, 2 * self.N + 1, 2, dtype=np.int64)

    def vertex_index(self, v: int) -> int:
        if not (2 <= v <= 2 * self.N) or v % 2:
            raise ParameterConditionError(f"{v} is not a vertex (even, <= {2 * self.N})")
        return v // 2 - 1

    def has_edge(self, x: int, y: int) -> bool:
        i, j = self.vertex_index(x), self.vertex_index(y)
        return bool(self.adjacency[i, j])

    def edge_count(self) -> int:
        return int(np.triu(self.adjacency, 1).sum())


def build_graph(N: int, avoid) -> DiffGraph:
    """Graph on the evens up to 2N; pairs whose difference lies in `avoid`
    are non-edges.  `avoid` is a predicate on even integers or a container;
    it is consulted once per difference 2d, d = 1..N-1.
    """
    if N < 1:
        raise ParameterConditionError(f"N must be >= 1, got {N}")
    if N > MAX_DENSE_N:
        raise ResourceBudgetError(
            f"N = {N} exceeds MAX_DENSE_N = {MAX_DENSE_N}, the dense adjacency budget"
        )
    member = avoid if callable(avoid) else (lambda m, s=frozenset(avoid): m in s)
    diff = np.zeros(N, dtype=bool)
    for d in range(1, N):
        diff[d] = not member(2 * d)
    # row i is diff[|i - j|]: N-wide windows over diff mirrored about index 0
    adjacency = sliding_window_view(np.concatenate((diff[:0:-1], diff)), N)[::-1].copy()
    np.fill_diagonal(adjacency, False)
    return DiffGraph(N=N, diff_has_edge=diff, adjacency=adjacency)


def edge_count_by_difference(g: DiffGraph) -> dict[int, int]:
    """Count edges at each difference 2d by scanning the adjacency diagonals.

    Counts come from the stored matrix, not the construction rule, so this
    doubles as a structural self-check against the N - d closed formula.
    """
    out = {}
    for d in range(1, g.N):
        out[2 * d] = int(np.diagonal(g.adjacency, offset=d).sum())
    return out


@dataclass(frozen=True)
class KttSearchResult:
    """Outcome of a complete-bipartite K_{t,t} subgraph search.

    A witness (left, right) always satisfies: disjoint t-sets of vertices
    with every cross pair an edge.  `exact` is True when a negative answer
    is exhaustive; heuristic negatives carry exact=False.
    """

    t: int
    found: bool
    left: tuple[int, ...] | None
    right: tuple[int, ...] | None
    exact: bool
    nodes_visited: int


def _verify_biclique(g: DiffGraph, left, right) -> bool:
    return all(g.has_edge(x, y) for x in left for y in right)


def contains_ktt(g: DiffGraph, t: int) -> KttSearchResult:
    """Search for two disjoint t-sets with all t*t cross pairs present.

    t <= 3 runs an exhaustive branch-and-prune over left-side candidate
    sets (highest degree first, shrinking common neighborhoods); its
    negative answers are exact.  Larger t samples HEURISTIC_TRIES random
    candidate sets (seed 0) and reports negatives as non-exhaustive.  Node
    visits beyond DEFAULT_SEARCH_BUDGET raise ResourceBudgetError.
    """
    if t < 1:
        raise ParameterConditionError(f"t must be >= 1, got {t}")
    n = g.N
    verts = g.vertices
    adj = g.adjacency
    degrees = adj.sum(axis=1)
    order = np.argsort(-degrees, kind="stable")
    # vertices of degree < t can sit on neither side of a K_{t,t}
    order = [int(i) for i in order if degrees[i] >= t]
    visited = 0

    def visit():
        nonlocal visited
        visited += 1
        if visited > DEFAULT_SEARCH_BUDGET:
            raise ResourceBudgetError(
                f"subgraph search visited {visited} nodes, over "
                f"DEFAULT_SEARCH_BUDGET = {DEFAULT_SEARCH_BUDGET}"
            )

    def witness_from(left_idx, common_mask):
        right_idx = [int(i) for i in np.flatnonzero(common_mask)[:t]]
        left = tuple(int(verts[i]) for i in left_idx)
        right = tuple(int(verts[i]) for i in right_idx)
        assert _verify_biclique(g, left, right)
        return left, right

    if t <= 3:
        # common excludes every chosen vertex: each was cleared at its level
        def rec(start, chosen, common):
            for pos in range(start, len(order)):
                i = order[pos]
                visit()
                new_common = common & adj[i]
                new_common[i] = False
                if int(new_common.sum()) < t:
                    continue
                if len(chosen) + 1 == t:
                    return witness_from(chosen + [i], new_common)
                deeper = rec(pos + 1, chosen + [i], new_common)
                if deeper:
                    return deeper
            return None

        hit = rec(0, [], np.ones(n, dtype=bool))
        if hit:
            return KttSearchResult(t, True, hit[0], hit[1], True, visited)
        return KttSearchResult(t, False, None, None, True, visited)

    rng = np.random.default_rng(0)
    pool = np.array(order, dtype=np.int64)
    if len(pool) < 2 * t:
        return KttSearchResult(t, False, None, None, True, 0)
    for _ in range(HEURISTIC_TRIES):
        visit()
        left_idx = rng.choice(pool, size=t, replace=False)
        common = np.ones(n, dtype=bool)
        for i in left_idx:
            common &= adj[int(i)]
        common[left_idx] = False
        if int(common.sum()) >= t:
            left, right = witness_from([int(i) for i in left_idx], common)
            return KttSearchResult(t, True, left, right, True, visited)
    return KttSearchResult(t, False, None, None, False, visited)


def kst_bound(n: int, t: int, c: float = 1.0) -> float:
    """Edge ceiling c * t^(1/t) * n^(2 - 1/t) for graphs with no K_{t,t}.

    The additive linear allowance is left to the caller; this is only the
    leading term.
    """
    if n < 1 or t < 1:
        raise ParameterConditionError("n and t must be >= 1")
    if not c > 0:
        raise ParameterConditionError(f"c must be positive, got {c}")
    return c * t ** (1.0 / t) * float(n) ** (2.0 - 1.0 / t)


def coverage_bound(edge_total: int) -> int:
    """Largest t whose t(t+1)/2 minimum edge demand fits in edge_total.

    Covering t distinct differences with pairs from a common pool needs at
    least that many edges; this inverts the triangular number exactly.
    """
    if edge_total < 0:
        raise ParameterConditionError("edge_total must be >= 0")
    return (math.isqrt(8 * edge_total + 1) - 1) // 2


KAPPA_GRID = (0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass(frozen=True)
class PolignacDensityReport:
    """Threshold census of even prime differences, with power-law curves.

    An even m counts as realized when at least `threshold` prime pairs below
    `limit` differ by m.  This is a finite-scale stand-in for an infinitude
    property: realized-at-threshold is necessary, never sufficient, and all
    outputs carry the proxy label.  counts is the gap_counts array: int64,
    counts[m] for m = 0..max_diff, odd m included.  exceptions is an int64
    array too, the evens m with counts[m] < threshold in ascending order.
    """

    limit: int
    threshold: int
    max_diff: int
    counts: np.ndarray
    exceptions: np.ndarray
    grid: tuple[int, ...]
    exception_cumulative: tuple[int, ...]
    kappa_curves: dict[str, tuple[float, ...]]
    label: str = "finite-scale proxy; realized-at-threshold is not infinitude"

    derived = ("exception_count",)
    as_dict = report_dict

    @property
    def exception_count(self) -> int:
        return len(self.exceptions)


def empirical_polignac_density(
    limit: int,
    threshold: int = 1,
    max_diff: int = 10_000,
) -> PolignacDensityReport:
    """Classify even differences up to max_diff by prime-pair count.

    counts[m] is the number of prime pairs below `limit` at difference m
    (all pairs, not only consecutive).  Evens with counts below `threshold`
    are the exceptions; their cumulative count is tabulated on a geometric
    grid of DENSITY_GRID cutoffs M against the curves M^kappa.
    """
    if max_diff < 2 or max_diff % 2:
        raise ParameterConditionError(
            f"max_diff must be even and >= 2, got {max_diff}"
        )
    if threshold < 1:
        raise ParameterConditionError(f"threshold must be >= 1, got {threshold}")
    counts = gap_counts(limit, max_diff)
    # the evens under threshold, ascending as searchsorted needs
    exceptions = 2 * np.flatnonzero(counts[2::2] < threshold) + 2
    # geometric grid of cutoffs, always ending at max_diff
    raw = np.geomspace(2, max_diff, DENSITY_GRID)
    grid = sorted({int(round(v / 2)) * 2 for v in raw} | {max_diff})
    cumulative = np.searchsorted(exceptions, grid, side="right")
    curves = {
        f"{kappa:.1f}": tuple(float(M) ** kappa for M in grid)
        for kappa in KAPPA_GRID
    }
    return PolignacDensityReport(
        limit=limit,
        threshold=threshold,
        max_diff=max_diff,
        counts=counts,
        exceptions=exceptions,
        grid=tuple(grid),
        exception_cumulative=tuple(cumulative.tolist()),
        kappa_curves=curves,
    )
