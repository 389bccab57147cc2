"""Spans and counters for the traced pass, recorded from outside sievelab.

The boundary functions named in BOUNDARIES are wrapped at run time. A
wrapper replaces the function under every name that holds it in every
loaded sievelab module, because `sieve`, `cells` and `graphs` bind
`from .primes import ...` names of their own. Each call records a span
(name, start, end, parent); a few boundaries also add work counts.

Only boundary functions are wrapped. Hot helpers such as `csv_cell` or
`coordinate_factor` run millions of times per pass, and wrapping them would
cost more than the work they do. For the same reason the memory peaks come
from a pass of their own: tracemalloc slows every allocation it traces, and
`csv_lines` allocates millions of strings.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass

MB = 1024 * 1024
PACKAGE = "sievelab"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span, its duration minus the part of it that its children cover.

    Children may overlap each other (pool threads), so the covered part is
    the union of their intervals, clipped to the parent's interval.
    """
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        clipped = [
            (max(c.start, span.start), min(c.end, span.end)) for c in kids
        ]
        busy = covered((a, b) for a, b in clipped if b > a)
        out.append(span.end - span.start - busy)
    return out


class RangeSet:
    """Union of half-open integer ranges [lo, hi)."""

    def __init__(self):
        self._ranges: list[tuple[int, int]] = []  # sorted, disjoint

    def add(self, lo: int, hi: int) -> int:
        """Insert [lo, hi) and return how many of its cells were present."""
        overlap = 0
        keep = []
        for a, b in self._ranges:
            if b < lo or a > hi:
                keep.append((a, b))
                continue
            overlap += max(0, min(b, hi) - max(a, lo))
            lo, hi = min(a, lo), max(b, hi)
        keep.append((lo, hi))
        keep.sort()
        self._ranges = keep
        return overlap


class Tracer:
    """Spans and counters of one traced pass.

    Spans nest by a per-thread stack. A span opened on a thread whose stack
    is empty takes the innermost open fan-out span as parent: that links
    the work of `moment_sums` pool threads to the `moment_sums` call.
    Repeat state (ranges sieved, enumerations seen) is kept per job.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.peak_mb: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._fanout: list[int] = []
        self.begin_job()

    def begin_job(self) -> None:
        with self._lock:
            self._sieved = RangeSet()
            self._enumerated: set = set()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, fanout: bool = False) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._fanout[-1] if self._fanout else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, self.clock(), math.nan, parent))
            if fanout:
                self._fanout.append(idx)
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack().pop()
        with self._lock:
            if idx in self._fanout:
                self._fanout.remove(idx)

    def add(self, name: str, value: int) -> None:
        with self._lock:
            self.counts[name] += value

    def note_peak(self, name: str, mb: float) -> None:
        with self._lock:
            self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), mb)

    def sieved(self, lo: int, hi: int) -> int:
        """Record a sieved range; return the cells this job sieved before."""
        with self._lock:
            return self._sieved.add(lo, hi)

    def seen(self, key) -> bool:
        """Record an enumeration key; True if this job enumerated it before."""
        with self._lock:
            if key in self._enumerated:
                return True
            self._enumerated.add(key)
            return False

    def layer_metrics(self) -> dict[str, float]:
        """calls and self_s per boundary, plus the counters and peaks."""
        out: dict[str, float] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            out[f"{span.name}.calls"] = out.get(f"{span.name}.calls", 0) + 1
            out[f"{span.name}.self_s"] = out.get(f"{span.name}.self_s", 0.0) + own
        out.update(self.counts)
        out.update({f"{name}.peak_mb": mb for name, mb in self.peak_mb.items()})
        return out

    def root_covered(self) -> float:
        """Wall time covered by spans that have no parent."""
        return covered((s.start, s.end) for s in self.spans if s.parent is None)


# --- counters, called with the bound arguments and the result of a call ---


def _sieve_range(t: Tracer, args, table) -> None:
    t.add("primes.sieve_range.cells", table.hi - table.lo)
    t.add("primes.sieve_range.repeat_cells", t.sieved(table.lo, table.hi))


def _gap_counts(t: Tracer, args, counts) -> None:
    t.add("primes.gap_counts.pair_tests", args["limit"] * args["max_diff"])


def _lambda_tuples(t: Tracer, args, tuples) -> None:
    cfg = args["cfg"]
    t.add("sieve.lambda_tuples.tuples", len(tuples))
    # the enumeration reads only R, W and the test-function parameters
    if t.seen((cfg.R, cfg.W, cfg.params)):
        t.add("sieve.lambda_tuples.repeat_calls", 1)


def _weight_array(t: Tracer, args, result) -> None:
    t.add("sieve.weight_array.grid_points", len(result[2]))


def _simplex_mc(t: Tracer, args, result) -> None:
    t.add("variational.simplex_mc_integrals.samples", args["n_samples"])


def _scan_cells(t: Tracer, args, result) -> None:
    lo, hi, modulus = args["lo"], args["hi"], args["modulus"]
    if modulus:
        start = lo + (args["residue"] - lo) % modulus
        positions = len(range(start, hi + 1, modulus))
    else:
        positions = hi - lo + 1
    t.add("cells.scan_singleton_cells.positions", positions)


def _csv_lines(t: Tracer, args, text) -> None:
    t.add("reportio.csv_lines.rows", text.count("\n") - 1)


@dataclass(frozen=True)
class Boundary:
    counter: object = None  # callable(tracer, bound arguments, result)
    fanout: bool = False  # runs children on pool threads
    memory: bool = False  # the memory pass records its tracemalloc peak


BOUNDARIES = {
    "primes.sieve_range": Boundary(_sieve_range),
    "primes.goldbach_numbers": Boundary(memory=True),
    "primes.gap_counts": Boundary(_gap_counts),
    "primes.normalized_gaps": Boundary(),
    "sieve.lambda_tuples": Boundary(_lambda_tuples),
    "sieve.weight_array": Boundary(_weight_array),
    "sieve.moment_sums": Boundary(fanout=True, memory=True),
    "sieve.weight": Boundary(),
    "sieve.naive_weight": Boundary(),
    "sieve.goldbach_window_scan": Boundary(),
    "sieve.tao_domination_check": Boundary(),
    "variational.simplex_mc_integrals": Boundary(_simplex_mc),
    "variational.fourier_kernel_check": Boundary(),
    "variational.projection_ratio_exact": Boundary(),
    "tuples.surfing": Boundary(),
    "tuples.mirror_union": Boundary(),
    "graphs.empirical_polignac_density": Boundary(),
    "cells.scan_singleton_cells": Boundary(_scan_cells),
    "reportio.csv_lines": Boundary(_csv_lines, memory=True),
    "cli.main": Boundary(),
}


def traced(tracer: Tracer, name: str, fn, boundary: Boundary):
    """fn wrapped to record a span and its counters."""
    signature = inspect.signature(fn) if boundary.counter else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name, boundary.fanout)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if signature is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            boundary.counter(tracer, bound.arguments, result)
        return result

    return wrapper


def peak_probed(tracer: Tracer, name: str, fn):
    """fn wrapped to record its tracemalloc peak; tracing runs only
    inside the call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracemalloc.is_tracing():  # inside another probed call
            return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            tracer.note_peak(name, tracemalloc.get_traced_memory()[1] / MB)
        finally:
            tracemalloc.stop()
        return result

    return wrapper


def install(tracer: Tracer, memory: bool = False):
    """Rebind boundary functions, under each of their names, in every loaded
    module of the package: all of them with spans and counters, or with
    memory=True only the memory boundaries, with their peaks. Returns a
    function that puts the originals back."""
    modules = [
        m for name, m in sys.modules.items()
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
    rebound = []
    for name, boundary in BOUNDARIES.items():
        if memory and not boundary.memory:
            continue
        module_name, attr = name.rsplit(".", 1)
        original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
        if memory:
            wrapper = peak_probed(tracer, name, original)
        else:
            wrapper = traced(tracer, name, original, boundary)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    rebound.append((module, key, original))

    def restore() -> None:
        for module, key, original in rebound:
            setattr(module, key, original)

    return restore
