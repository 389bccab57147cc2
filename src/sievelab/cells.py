"""Cell partitions of offset tuples and gap-compatible subsequence search.

An offset tuple splits into equal contiguous cells; per-cell prime counts at
a shifted position feed a counting statistic whose positivity forces several
cells to hold exactly one prime.  Separately, a longest-subsequence dynamic
program finds increasing runs whose consecutive differences all sit near a
supplied set of gap values.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterConditionError, ResourceBudgetError
from .primes import PrimeTable, sieve_range
from .reportio import report_dict
from .tuples import OffsetTuple, as_tuple

SCAN_BUDGET = 200_000_000


def _cell_count_for(theta: float, m: int) -> tuple[int, int]:
    """(a, number of cells) with a = ceil(2/theta), cells = a*m + 1."""
    if not 0 < theta <= 1:
        raise ParameterConditionError(f"theta must lie in (0, 1], got {theta}")
    if m < 1:
        raise ParameterConditionError(f"m must be >= 1, got {m}")
    # guard the ceiling against float noise in 2/theta (e.g. theta = 2/3)
    a = math.ceil(2.0 / theta - 1e-9)
    return a, a * m + 1


@dataclass(frozen=True)
class CellPartition:
    """Sorted offsets split into equal contiguous cells.

    Built by partition_tuple, cells has a*m + 1 entries with
    a = ceil(2/theta) and each cell holds k / (a*m + 1) consecutive
    offsets.  Free-form splits from split_into_cells carry theta = a =
    None; the rest of the module only needs the cells and m.
    """

    offsets: OffsetTuple
    m: int
    cells: tuple[OffsetTuple, ...]
    theta: float | None = None
    a: int | None = None

    @property
    def k(self) -> int:
        return self.offsets.k

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def cell_size(self) -> int:
        return self.k // self.n_cells


def _equal_cells(t: OffsetTuple, n_cells: int, hint: str = "") -> tuple[OffsetTuple, ...]:
    """t split into n_cells contiguous cells of k / n_cells offsets each;
    hint is appended to the error when n_cells does not divide k."""
    if t.k % n_cells:
        raise ParameterConditionError(
            f"cell count {n_cells} does not divide k = {t.k}{hint}"
        )
    size = t.k // n_cells
    return tuple(
        OffsetTuple(t.offsets[i * size : (i + 1) * size]) for i in range(n_cells)
    )


def partition_tuple(offsets, theta: float, m: int) -> CellPartition:
    """Split sorted offsets into a*m + 1 contiguous equal-size cells."""
    t = as_tuple(offsets)
    a, n_cells = _cell_count_for(theta, m)
    lower = (t.k // n_cells) * n_cells
    upper = lower + n_cells
    nearest = lower if lower > 0 and t.k - lower <= upper - t.k else upper
    cells = _equal_cells(t, n_cells, f"; nearest valid k is {nearest}")
    return CellPartition(offsets=t, m=m, cells=cells, theta=theta, a=a)


def split_into_cells(offsets, n_cells: int, m: int = 1) -> CellPartition:
    """Equal contiguous split into an arbitrary cell count.

    Bypasses the a = ceil(2/theta) shape constraint; counting and scanning
    work the same either way.  The cell count must still divide k.
    """
    t = as_tuple(offsets)
    if n_cells < 1:
        raise ParameterConditionError(f"n_cells must be >= 1, got {n_cells}")
    if m < 1:
        raise ParameterConditionError(f"m must be >= 1, got {m}")
    return CellPartition(offsets=t, m=m, cells=_equal_cells(t, n_cells))


@dataclass(frozen=True)
class CellCounts:
    """Primes per cell at one shifted position."""

    n: int
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def n_occupied(self) -> int:
        return sum(1 for c in self.counts if c > 0)

    @property
    def n_singleton(self) -> int:
        return sum(1 for c in self.counts if c == 1)


def cell_prime_counts(part: CellPartition, n: int, table: PrimeTable) -> CellCounts:
    """Count primes among n + h per cell, using the supplied table."""
    top = n + part.offsets.offsets[-1]
    lo_val = n + part.offsets.offsets[0]
    if lo_val < table.lo or top >= table.hi:
        raise ParameterConditionError(
            f"entries n + h span [{lo_val}, {top}] outside table "
            f"range [{table.lo}, {table.hi})"
        )
    counts = tuple(
        sum(1 for h in cell if table.is_prime_at(n + h)) for cell in part.cells
    )
    return CellCounts(n=n, counts=counts)


@dataclass(frozen=True, eq=False)  # arrays have no truth value for __eq__
class SingletonScan:
    """Positions whose cell counts meet a singleton quota, with the counts.

    ns is an int64 array of the positions; counts[i, j] (int64, shape
    (len(ns), number of cells), also when empty) counts primes in cell j
    at ns[i].
    """

    lo: int
    hi: int
    min_singletons: int
    restricted: bool
    ns: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.ns)


def _cell_count_matrix(part: CellPartition, lo, hi, modulus, residue):
    """Positions n in [lo, hi] (n = residue mod modulus when modulus is
    given), as a range, and the primes among n + h per cell: per_cell[j, i]
    counts cell j at ns[i].  The span (the prime table's length) and the
    count matrix's entries must each stay within SCAN_BUDGET."""
    if lo < 1 or hi < lo:
        raise ParameterConditionError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    if modulus is not None and modulus < 1:
        raise ParameterConditionError(f"modulus must be >= 1, got {modulus}")
    if modulus is None and residue:
        raise ParameterConditionError(
            f"residue {residue} restricts nothing without a modulus; "
            "pass --modulus with --residue"
        )
    step = modulus or 1
    ns = range(lo + (residue - lo) % step, hi + 1, step)
    entries = len(part.cells) * len(ns)
    if max(hi - lo, entries) > SCAN_BUDGET:
        raise ResourceBudgetError(
            f"scan of span {hi - lo} needs {len(part.cells)} cells x {len(ns)} "
            f"positions = {entries} count entries; the larger exceeds "
            f"SCAN_BUDGET = {SCAN_BUDGET}; narrow --lo/--hi"
        )
    h = part.offsets.offsets
    table = sieve_range(lo + h[0], hi + h[-1] + 1)
    per_cell = np.zeros((len(part.cells), len(ns)), dtype=np.int64)
    for j, cell in enumerate(part.cells):
        for off in cell:
            per_cell[j] += table.along(ns.start + off, step, len(ns))
    return ns, per_cell


def scan_singleton_cells(
    part: CellPartition,
    lo: int,
    hi: int,
    min_singletons: int,
    modulus: int | None = None,
    residue: int = 0,
) -> SingletonScan:
    """All n in [lo, hi] with at least min_singletons cells holding exactly
    one prime.  Pass modulus (and residue) to restrict n to a residue class.
    """
    ns, per_cell = _cell_count_matrix(part, lo, hi, modulus, residue)
    singles = (per_cell == 1).sum(axis=0)
    keep = np.flatnonzero(singles >= min_singletons)
    return SingletonScan(
        lo=lo,
        hi=hi,
        min_singletons=min_singletons,
        restricted=bool(modulus),
        ns=ns.start + ns.step * keep,
        counts=per_cell[:, keep].T,
    )


@dataclass(frozen=True)
class CellStatReport:
    """Windowed sum of the occupancy-minus-collision statistic.

    Per position the statistic is (number of occupied cells) - m - (number
    of ordered pairs of distinct primes sharing a cell); summed as-is when
    unweighted, or against caller-supplied squared weights as a labeled
    substitute for the original weighting.
    """

    lo: int
    hi: int
    m: int
    total: float
    n_positive: int
    best_n: int | None
    weighted: bool
    label: str

    as_dict = report_dict


def cell_statistic_sum(
    part: CellPartition,
    lo: int,
    hi: int,
    weight_fn=None,
    modulus: int | None = None,
    residue: int = 0,
) -> CellStatReport:
    """Sum over the window of the per-position cell statistic.

    The statistic at n is (occupied cells) - m - (ordered distinct prime
    pairs inside a cell); a positive value forces at least m + 1 singleton
    cells at that n.  weight_fn(n) -> w multiplies each term by w^2 and
    marks the report as a weighted substitute.
    """
    ns, per_cell = _cell_count_matrix(part, lo, hi, modulus, residue)
    label = "indicator form; original weighting out of scope"
    occupied = (per_cell > 0).sum(axis=0)
    pairs = (per_cell * (per_cell - 1)).sum(axis=0)
    stat = occupied - part.m - pairs
    if weight_fn is None:
        weights2 = np.ones(len(ns))
    else:
        weights2 = np.array([float(weight_fn(n)) ** 2 for n in ns])
        label = "weighted substitute; squared caller weights, not the original"
    total = float(np.dot(stat, weights2))
    positive = np.flatnonzero(stat > 0)
    best_n = ns[int(positive[np.argmax(stat[positive])])] if len(positive) else None
    return CellStatReport(
        lo=lo,
        hi=hi,
        m=part.m,
        total=total,
        n_positive=int(len(positive)),
        best_n=best_n,
        weighted=weight_fn is not None,
        label=label,
    )


@dataclass(frozen=True)
class BetaSequence:
    """Strictly increasing nonnegative reals."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ParameterConditionError("sequence must be nonempty")
        if vals[0] < 0:
            raise ParameterConditionError("values must be nonnegative")
        if any(a >= b for a, b in zip(vals, vals[1:])):
            raise ParameterConditionError("values must be strictly increasing")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SubsequenceResult:
    found: bool
    min_len: int
    indices: tuple[int, ...]
    values: tuple[float, ...]

    @property
    def length(self) -> int:
        return len(self.indices)


def beta_subsequence_check(
    betas: BetaSequence | tuple | list,
    gap_set,
    tol: float,
    min_len: int,
) -> SubsequenceResult:
    """Longest increasing subsequence whose consecutive differences each lie
    within tol of some element of gap_set; found iff its length >= min_len.

    tol = inf is the sentinel for "the gap set is all positive reals": every
    difference is then compatible and gap_set is ignored.  Longest-path DP
    over the compatibility DAG; ties break toward earlier predecessors, so
    the reported subsequence is deterministic.
    """
    if not isinstance(betas, BetaSequence):
        betas = BetaSequence(tuple(betas))
    if not tol > 0:
        raise ParameterConditionError(f"tol must be positive, got {tol}")
    if min_len < 1:
        raise ParameterConditionError(f"min_len must be >= 1, got {min_len}")
    vals = betas.values
    gaps = sorted(float(g) for g in gap_set)

    def compatible(diff: float) -> bool:
        if math.isinf(tol):
            return True
        i = bisect.bisect_left(gaps, diff)
        for j in (i - 1, i):
            if 0 <= j < len(gaps) and abs(diff - gaps[j]) <= tol:
                return True
        return False

    n = len(vals)
    best = [1] * n
    parent = [-1] * n
    for i in range(1, n):
        for j in range(i):
            if best[j] + 1 > best[i] and compatible(vals[i] - vals[j]):
                best[i] = best[j] + 1
                parent[i] = j
    end = max(range(n), key=lambda i: (best[i], -i))
    chain = []
    while end != -1:
        chain.append(end)
        end = parent[end]
    chain.reverse()
    indices = tuple(chain)
    return SubsequenceResult(
        found=len(indices) >= min_len,
        min_len=min_len,
        indices=indices,
        values=tuple(vals[i] for i in indices),
    )
