"""Admissible offset tuples and the residue-class surfing construction.

An offset tuple is admissible when, for every prime p, its offsets miss at
least one residue class mod p (only p <= k can fail).  `surfing` extracts,
from two large disjoint sets of even numbers, equal-sized subsets whose union
is admissible, by repeatedly deleting the lightest residue class modulo each
odd prime up to 2k and trimming to a precomputed size schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvariantViolationError
from .primes import _small_primes


@dataclass(frozen=True)
class OffsetTuple:
    """Strictly increasing integer offsets h_1 < ... < h_k."""

    offsets: tuple[int, ...]

    def __post_init__(self):
        if len(self.offsets) == 0:
            raise ValueError("offset tuple must be nonempty")
        if any(b <= a for a, b in zip(self.offsets, self.offsets[1:])):
            raise ValueError(f"offsets must be strictly increasing, got {self.offsets}")

    @property
    def k(self) -> int:
        return len(self.offsets)

    @property
    def span(self) -> int:
        return self.offsets[-1] - self.offsets[0]

    def serialize(self) -> str:
        """One line, comma-separated ascending offsets."""
        return ",".join(str(h) for h in self.offsets)

    @classmethod
    def parse(cls, text: str) -> "OffsetTuple":
        parts = [p.strip() for p in text.strip().split(",") if p.strip() != ""]
        if not parts:
            raise ValueError("empty offset tuple text")
        try:
            offsets = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"cannot parse offsets from {text!r}") from exc
        return cls(offsets)

    def __iter__(self):
        return iter(self.offsets)


def as_tuple(value) -> OffsetTuple:
    """Coerce an OffsetTuple, iterable of ints, or serialized text."""
    if isinstance(value, OffsetTuple):
        return value
    if isinstance(value, str):
        return OffsetTuple.parse(value)
    return OffsetTuple(tuple(sorted(int(v) for v in value)))


@dataclass(frozen=True)
class AdmissibilityResult:
    admissible: bool
    prime: int | None = None  # witness: prime whose classes are all occupied
    occupied: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.admissible


def is_admissible(t: OffsetTuple | tuple | list) -> AdmissibilityResult:
    """Check all residue classes; a prime p > k can never be fully occupied."""
    t = as_tuple(t)
    for p in _small_primes(t.k):
        p = int(p)
        residues = {h % p for h in t.offsets}
        if len(residues) == p:
            return AdmissibilityResult(False, prime=p, occupied=tuple(sorted(residues)))
    return AdmissibilityResult(True)


def mirror_union(t: OffsetTuple | tuple | list, n: int) -> OffsetTuple:
    """Union of the offsets with their reflections n - h, as a 2k-tuple.

    Raises ValueError naming the colliding pair when any offset equals a
    reflection (the union would have fewer than 2k elements).
    """
    t = as_tuple(t)
    mirrored = {n - h: h for h in t.offsets}
    for h in t.offsets:
        if h in mirrored:
            raise ValueError(
                f"mirror collision for n={n}: offset {h} equals {n}-{mirrored[h]}"
            )
    return OffsetTuple(tuple(sorted(list(t.offsets) + list(mirrored))))


@dataclass(frozen=True)
class SurfingStep:
    prime: int
    removed_class: int
    removed_count: int  # members of the union lost to the class deletion
    size_before: int  # common size of each side before the step
    size_after: int  # trimmed size l_{i+1} after the step


@dataclass(frozen=True)
class SurfingTrace:
    k: int
    m: int  # number of primes <= 2k
    steps: tuple[SurfingStep, ...]
    ell_sequence: tuple[int, ...]  # l_0 = 3^m * k, l_1, ..., l_final
    x: tuple[int, ...]  # k survivors from the first set
    y: tuple[int, ...]  # k survivors from the second set

    @property
    def union(self) -> OffsetTuple:
        return OffsetTuple(tuple(sorted(self.x + self.y)))


def _lightest_class(values, p: int) -> tuple[int, int]:
    """(class, count): the residue class mod p holding the fewest of values,
    ties to the smallest residue, and how many it holds."""
    counts = [0] * p
    for v in values:
        counts[v % p] += 1
    return min(enumerate(counts), key=lambda rc: rc[1])  # first minimum


def surfing_start_size(k: int) -> int:
    """Required input size 3^m * k where m counts primes <= 2k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    m = len(_small_primes(2 * k))
    return 3**m * k


def surfing(u, t, k: int) -> SurfingTrace:
    """Extract admissible k+k subsets from two disjoint even-number pools.

    Parameters
    ----------
    u, t : iterable of int
        Disjoint sets of positive even integers, each of size 3^m * k with
        m = number of primes <= 2k.
    k : int
        Target size of each extracted side.

    Returns
    -------
    SurfingTrace
        Full per-prime record plus the final sides x, y; x + y is always an
        admissible 2k-tuple.

    Notes
    -----
    For each odd prime p <= 2k in ascending order, the residue class of the
    running union holding the fewest members (ties: smallest residue) is
    deleted from both sides, and both sides are trimmed to
    l_new = l - floor(2*l/p) = ceil(l*(1 - 2/p)).  Pigeonhole guarantees the
    lightest class holds at most floor(2*l/p) members, so the trim is always
    feasible.  Evenness reserves a class mod 2, and primes above 2k cannot be
    covered by only 2k values, so the final union is admissible.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    xs = sorted(int(v) for v in u)
    ys = sorted(int(v) for v in t)
    for side, name in ((xs, "first"), (ys, "second")):
        if any(v <= 0 or v % 2 for v in side):
            raise ValueError(f"{name} pool must contain positive even integers only")
    if set(xs) & set(ys):
        raise ValueError("pools must be disjoint")
    m = len(_small_primes(2 * k))
    ell = 3**m * k
    if len(xs) != ell or len(ys) != ell:
        raise ValueError(
            f"each pool must have exactly 3^{m} * {k} = {ell} elements, "
            f"got {len(xs)} and {len(ys)}"
        )

    odd_primes = [int(p) for p in _small_primes(2 * k) if p > 2]
    steps: list[SurfingStep] = []
    ell_seq = [ell]
    for p in odd_primes:
        cls, removed = _lightest_class(xs + ys, p)
        if removed > (2 * ell) // p:
            raise InvariantViolationError(
                f"pigeonhole failed at p={p}: lightest class {cls} has {removed} members"
            )
        ell_next = ell - (2 * ell) // p
        xs = [v for v in xs if v % p != cls][:ell_next]
        ys = [v for v in ys if v % p != cls][:ell_next]
        steps.append(SurfingStep(p, cls, removed, ell, ell_next))
        ell = ell_next
        ell_seq.append(ell)

    if ell < k:
        raise InvariantViolationError(f"size schedule ended below k: {ell} < {k}")
    x, y = tuple(xs[:k]), tuple(ys[:k])
    trace = SurfingTrace(
        k=k,
        m=m,
        steps=tuple(steps),
        ell_sequence=tuple(ell_seq),
        x=x,
        y=y,
    )
    if not is_admissible(trace.union):
        raise InvariantViolationError("surfing produced a non-admissible union")
    return trace


def densest_tuple(k: int, search_width: int | None = None) -> OffsetTuple:
    """Greedy small-span admissible k-tuple (not guaranteed optimal).

    Candidates 0..width are thinned by deleting, for each prime p <= k whose
    classes are all occupied, the least-occupied residue class; the k
    surviving candidates with the smallest span are then shifted to start
    at 0.  Widens automatically when no window of k candidates survives.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if search_width is not None and search_width < k:
        raise ValueError("search_width must be at least k")
    width = search_width
    if width is None:
        width = max(8, 2 * k * max(1, math.ceil(math.log(k + 1))))
    for _ in range(32):
        cands = list(range(width + 1))
        for p in _small_primes(k):
            p = int(p)
            cls, count = _lightest_class(cands, p)
            if count > 0:
                cands = [v for v in cands if v % p != cls]
        if len(cands) >= k:
            best = min(
                (cands[i + k - 1] - cands[i], i) for i in range(len(cands) - k + 1)
            )
            window = cands[best[1] : best[1] + k]
            result = OffsetTuple(tuple(v - window[0] for v in window))
            check = is_admissible(result)
            if not check:
                raise InvariantViolationError(
                    f"greedy construction produced non-admissible tuple {result.offsets}"
                )
            return result
        if search_width is not None:
            break
        width *= 2
    raise ValueError(f"no admissible {k}-tuple found within width {width}")
