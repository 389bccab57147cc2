"""Tests for the benchmark's own arithmetic: self time, repeat counts,
failure tallies, and the agreement of BENCHMARK.json with the code.

    python3 -m pytest perfbench/tests
"""

import json
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from spans import RangeSet, Span, Tracer, covered, self_times  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert covered([(4, 9), (1, 6)]) == 8.0


def test_self_time_of_nested_spans():
    spans_ = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 6.0, 0),
    ]
    assert self_times(spans_) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_with_overlapping_cross_thread_children():
    # two pool threads run at once; a child may end after its parent
    spans_ = [
        Span("moment_sums", 0.0, 10.0, None),
        Span("seg1", 1.0, 6.0, 0),
        Span("seg2", 4.0, 9.0, 0),
        Span("late", 9.5, 12.0, 0),
    ]
    assert self_times(spans_)[0] == pytest.approx(10.0 - 8.0 - 0.5)


def test_pool_thread_spans_link_to_the_fanout_parent():
    clock = FakeClock()
    t = Tracer(clock)
    outer = t.open("cli.main")
    fan = t.open("sieve.moment_sums", fanout=True)
    child = {}

    def pool_work():
        child["idx"] = t.open("sieve.weight_array")
        inner = t.open("primes.sieve_range")
        t.close(inner)
        t.close(child["idx"])

    th = threading.Thread(target=pool_work)
    th.start()
    th.join(timeout=10)
    assert not th.is_alive()
    t.close(fan)
    t.close(outer)
    after = t.open("primes.sieve_range")  # pool closed: nests normally again
    t.close(after)
    parents = [s.parent for s in t.spans]
    assert parents == [None, outer, fan, child["idx"], None]


def test_layer_metrics_sum_self_time_and_count_calls():
    clock = FakeClock()
    t = Tracer(clock)
    for start in (0.0, 10.0):
        clock.now = start
        a = t.open("cli.main")
        clock.now = start + 1
        b = t.open("reportio.csv_lines")
        clock.now = start + 4
        t.close(b)
        clock.now = start + 5
        t.close(a)
    m = t.layer_metrics()
    assert m["cli.main.calls"] == 2
    assert m["cli.main.self_s"] == pytest.approx(4.0)
    assert m["reportio.csv_lines.self_s"] == pytest.approx(6.0)
    assert t.root_covered() == pytest.approx(10.0)


def test_range_set_counts_cells_sieved_before():
    r = RangeSet()
    assert r.add(2, 100) == 0
    assert r.add(2, 100) == 98
    assert r.add(50, 150) == 50
    assert r.add(150, 160) == 0  # adjacent, merged
    assert r.add(200, 300) == 0
    assert r.add(0, 400) == 158 + 100


def _fake_sieve_range(lo, hi, want_spf=False):
    return SimpleNamespace(lo=lo, hi=hi)


def _fake_lambda_tuples(cfg):
    return [((1,), 1.0), ((2,), -0.5)]


def test_repeat_cells_are_counted_per_job():
    t = Tracer()
    sieve_range = spans.traced(
        t, "primes.sieve_range", _fake_sieve_range, spans.BOUNDARIES["primes.sieve_range"]
    )
    sieve_range(2, 101)
    sieve_range(2, 101, want_spf=True)
    sieve_range(51, 151)
    t.begin_job()
    sieve_range(2, 101)
    assert t.counts["primes.sieve_range.cells"] == 99 * 3 + 100
    assert t.counts["primes.sieve_range.repeat_cells"] == 99 + 50


def test_repeat_calls_key_on_what_the_enumeration_reads():
    t = Tracer()
    lambda_tuples = spans.traced(
        t, "sieve.lambda_tuples", _fake_lambda_tuples, spans.BOUNDARIES["sieve.lambda_tuples"]
    )
    cfg = SimpleNamespace(R=66, W=210, params=("k", 3), offsets=(0, 2, 6))
    mirrored = SimpleNamespace(R=66, W=210, params=("k", 3), offsets=(0, 2, 94, 100))
    lambda_tuples(cfg)
    lambda_tuples(cfg=mirrored)  # other offsets, same enumeration
    lambda_tuples(SimpleNamespace(R=67, W=210, params=("k", 3)))
    t.begin_job()
    lambda_tuples(cfg)
    assert t.counts["sieve.lambda_tuples.tuples"] == 8
    assert t.counts["sieve.lambda_tuples.repeat_calls"] == 1


def _job(name, run_fn, check):
    return SimpleNamespace(name=name, run=run_fn, check=check)


def test_ops_failed_counts_failed_checks_and_raising_jobs():
    def boom():
        raise ValueError("bad input")

    jobs = [
        _job("ok", lambda: 2, lambda r: None if r == 2 else "wrong"),
        _job("wrong", lambda: 3, lambda r: None if r == 2 else f"got {r}"),
        _job("raises", boom, lambda r: None),
    ]
    record = worker.run_pass(jobs)
    assert [j["problem"] for j in record["jobs"]] == [None, "got 3", "ValueError: bad input"]
    attempted, failed, problems = run.tally([record, record])
    assert (attempted, failed) == (6, 4)
    assert failed / attempted == pytest.approx(2 / 3)
    assert problems[0] == "wrong: got 3"


def test_scipy_import_time_sums_scipy_self_times():
    log = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |   numpy.core",
            "import time:       250 |        300 |     scipy._lib",
            "import time:        50 |        350 |   scipy",
            "import time:      1000 |       1350 | scipy.signal",
            "import time:         7 |          7 | scipyx",
        ]
    )
    assert run.scipy_import_s(log) == pytest.approx(1300e-6)


def test_install_rebinds_every_name_and_restores():
    import sievelab.cli  # noqa: F401  loads every module that holds a boundary
    from sievelab import cells, primes

    original = primes.sieve_range
    t = Tracer()
    restore = spans.install(t)
    try:
        assert cells.sieve_range is primes.sieve_range is not original
        part = cells.partition_tuple((0, 2, 6), theta=1.0, m=1)
        cells.scan_singleton_cells(part, 1, 1000, min_singletons=1)
    finally:
        restore()
    assert cells.sieve_range is primes.sieve_range is original
    names = [s.name for s in t.spans]
    assert names == ["cells.scan_singleton_cells", "primes.sieve_range"]
    assert t.spans[1].parent == 0
    assert t.counts["cells.scan_singleton_cells.positions"] == 1000


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    timed = {name[: -len(".self_s")] for name in run.PER_LAYER if name.endswith(".self_s")}
    assert timed == set(spans.BOUNDARIES) - {"tuples.mirror_union"}
