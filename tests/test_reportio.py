"""Report dict views and stable JSON against the two walks they replaced,
and the column-major CSV writer against the row-wise writer it replaced."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sievelab import cells, graphs, reportio, sieve, variational
from sievelab.reportio import (
    CSV_BLOCK_ROWS,
    csv_cell,
    csv_lines,
    report_dict,
    stable_json,
)
from sievelab.tuples import as_tuple
from sievelab.variational import KernelParams

# one small instance of each report, with the derived values its view adds
PARAMS = KernelParams(k=2, base=1.01, slope=1.0, cutoff=3.0, eta=0.5)
CONFIG = sieve.make_config(
    2000, offsets=(0, 2), params=PARAMS, w_bound=7, strict=False
)
REPORTS = {
    "KernelParams": (lambda: PARAMS, ("sum_cap", "log_ratio", "tail_threshold")),
    "KernelIntegrals": (lambda: variational.closed_forms(PARAMS), ()),
    "FourierCheckReport": (
        lambda: variational.fourier_kernel_check(n_samples=3200, seed=4),
        ("all_passed",),
    ),
    "SieveConfig": (lambda: CONFIG, ()),
    "MomentReport": (
        lambda: sieve.moment_sums(CONFIG, 1, 3000, threads=1),
        ("ratios", "pair_max_ratio"),
    ),
    "TaoCheckReport": (
        lambda: sieve.tao_domination_check(
            CONFIG, KernelParams(k=2, base=1.2, slope=2.0, cutoff=2.0), 0, 1, 1, 3000
        ),
        ("passed",),
    ),
    "GoldbachScanReport": (lambda: sieve.goldbach_window_scan(CONFIG, N=600), ()),
    "CellStatReport": (
        lambda: cells.cell_statistic_sum(
            cells.partition_tuple((0, 2, 6), theta=1.0, m=1), 3, 2000
        ),
        (),
    ),
    "PolignacDensityReport": (
        lambda: graphs.empirical_polignac_density(20000, max_diff=200),
        ("exception_count",),
    ),
}


def json_ready(value) -> bool:
    """Only dicts, lists and scalars: no tuple, dataclass or OffsetTuple."""
    if isinstance(value, dict):
        return all(json_ready(v) for v in value.values())
    if isinstance(value, list):
        return all(json_ready(v) for v in value)
    return value is None or isinstance(value, (bool, int, float, str, np.number))


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_view_is_fields_then_named_derived_values(name):
    make, derived = REPORTS[name]
    report = make()
    assert type(report).__name__ == name
    view = report.as_dict()
    assert list(view) == [f.name for f in dataclasses.fields(report)] + list(derived)
    assert json_ready(view)
    for key in derived:
        expected = getattr(report, key)
        assert view[key] == (list(expected) if isinstance(expected, tuple) else expected)
    text = stable_json(view)
    assert stable_json(json.loads(text)) == text


def test_view_writes_nested_reports_and_offset_tuples():
    view = CONFIG.as_dict()
    assert view["offsets"] == "0,2"
    assert view["params"] == PARAMS.as_dict()
    scan = sieve.goldbach_window_scan(CONFIG, N=600)
    assert scan.as_dict()["union"] == "0,2,598,600"
    assert scan.as_dict()["witness"] == list(scan.witness)
    fourier = variational.fourier_kernel_check(n_samples=3200)
    entries = fourier.as_dict()["entries"]
    assert entries == [reportio.report_dict(e) for e in fourier.entries]
    assert [list(e) for e in entries] == [
        [f.name for f in dataclasses.fields(variational.FourierCheckEntry)]
    ] * len(fourier.entries)


# Oracle: the two walks that report_dict and stable_json made before they
# shared one.  _view gave the dict view; _canonical mapped a view for JSON.
def _view(value):
    if hasattr(value, "serialize"):
        return value.serialize()
    if dataclasses.is_dataclass(value):
        return oracle_report_dict(value)
    if isinstance(value, tuple):
        return [_view(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _view(v) for k, v in value.items()}
    return value


def _canonical(obj):
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return float("%.12g" % f) if math.isfinite(f) else str(f)
    return obj


def oracle_report_dict(report) -> dict:
    names = [f.name for f in dataclasses.fields(report)]
    names += getattr(report, "derived", ())
    return {name: _view(getattr(report, name)) for name in names}


def oracle_stable_json(obj) -> str:
    """What the CLI wrote: the view of obj, mapped by _canonical."""
    return json.dumps(
        _canonical(_view(obj)), sort_keys=True, indent=2, allow_nan=False
    ) + "\n"


def same(got, want) -> bool:
    """got holds only plain Python types and equals want value for value;
    NaN matches NaN, and -0.0 only -0.0."""
    if isinstance(want, dict):
        return type(got) is dict and list(got) == list(want) and all(
            same(got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return type(got) is list and len(got) == len(want) and all(map(same, got, want))
    if isinstance(want, (bool, np.bool_)):
        return type(got) is bool and got == want
    if isinstance(want, (int, np.integer)):
        return type(got) is int and got == want
    if isinstance(want, (float, np.floating)):
        if math.isnan(want):
            return type(got) is float and math.isnan(got)
        sign = math.copysign(1, got) == math.copysign(1, want)
        return type(got) is float and got == want and sign
    return type(got) is type(want) and got == want


@dataclasses.dataclass(frozen=True)
class Nested:
    """A report holding drawn values, with a derived value of its own."""

    first: object
    second: object

    derived = ("both",)

    @property
    def both(self):
        return (self.first, self.second)


SPECIALS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e-300, 1e300]
any_float = st.one_of(st.sampled_from(SPECIALS), st.floats())
float32 = st.floats(width=32)
int_dtypes = [(np.int64, -(2**63), 2**63 - 1), (np.int32, -(2**31), 2**31 - 1),
              (np.uint64, 0, 2**64 - 1)]
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), any_float,
    st.text(alphabet="ab-", max_size=3),
    *(st.integers(lo, hi).map(d) for d, lo, hi in int_dtypes),
    st.booleans().map(np.bool_), any_float.map(np.float64), float32.map(np.float32),
)


def arrays():
    def of(elements, dtype):
        shapes = st.sampled_from([(-1,), (-1, 1)])
        return st.tuples(st.lists(elements, max_size=5), shapes).map(
            lambda vs: np.array(vs[0], dtype=dtype).reshape(vs[1])
        )

    return st.one_of(
        *(of(st.integers(lo, hi), d) for d, lo, hi in int_dtypes),
        of(st.booleans(), bool), of(float32, np.float32), of(any_float, np.float64),
        of(st.one_of(st.integers(2**63, 2**80), any_float), object),
    )


# The old _view left a list as it was, so lists hold scalars and lists only;
# tuples, dicts and reports hold anything.
plain_lists = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3))
offset_tuples = st.sampled_from([(0, 2), (0, 2, 6), (0, 4, 6, 10)]).map(as_tuple)
values = st.recursive(
    st.one_of(scalars, arrays(), offset_tuples, plain_lists),
    lambda inner: st.one_of(
        st.dictionaries(st.text(alphabet="xyz", max_size=3), inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.builds(Nested, inner, inner),
    ),
    max_leaves=12,
)


@given(values, values)
@settings(max_examples=300, deadline=None)
def test_one_walk_matches_the_two_it_replaced(first, second):
    report = Nested(first, second)
    assert same(report_dict(report), oracle_report_dict(report))
    assert stable_json(report) == oracle_stable_json(report)
    assert stable_json(first) == oracle_stable_json(first)


def test_json_keys_written_as_str_and_sorted_as_str():
    obj = {10: 1.5, 2: (np.int64(3), np.float32(0.1)), "a": np.arange(3)}
    assert stable_json(obj) == oracle_stable_json(obj)
    assert list(json.loads(stable_json(obj))) == ["10", "2", "a"]


def test_int_and_bool_arrays_take_one_tolist(monkeypatch):
    # no per-element walk: the elements of an int or bool array never reach it
    seen = []
    walk = reportio._plain

    def spy(value, real):
        seen.append(type(value))
        return walk(value, real)

    monkeypatch.setattr(reportio, "_plain", spy)
    big = np.arange(10_000)
    assert stable_json({"a": big, "b": big > 5}) == oracle_stable_json(
        {"a": big, "b": big > 5}
    )
    assert seen == [dict, np.ndarray, np.ndarray]


def rowwise_csv_lines(header, rows) -> str:
    """Oracle: the row-wise writer, csv_cell on every cell."""
    out = [",".join(str(h) for h in header)]
    for row in rows:
        out.append(",".join(csv_cell(v) for v in row))
    return "\n".join(out) + "\n"


def check_against_oracle(columns):
    header = [f"c{j}" for j in range(len(columns))]
    rows = list(zip(*columns))
    assert csv_lines(header, columns) == rowwise_csv_lines(header, rows)


SPECIAL_FLOATS = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e-300, 1e300,
    5e-324, 0.1, 1 / 3, -2.5,
]
floats = st.one_of(
    st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=True, allow_infinity=True)
)


def column(n):
    """A strategy for one column of n values, of every kind a caller passes."""

    def values(elements):
        return st.lists(elements, min_size=n, max_size=n)

    def ints(dtype):
        info = np.iinfo(dtype)
        return values(st.integers(int(info.min), int(info.max))).map(
            lambda v: np.array(v, dtype=dtype)
        )

    # magnitudes and signs mixed in one column, so cell widths vary in a block
    mixed = st.one_of(
        st.integers(-9, 9), st.integers(-(10**6), 10**6), st.integers(-(2**63), 2**63 - 1)
    )
    return st.one_of(
        *(ints(d) for d in (np.int64, np.int32, np.uint8, np.uint64)),
        values(mixed).map(lambda v: np.array(v, dtype=np.int64)),
        values(st.booleans()).map(lambda v: np.array(v, dtype=bool)),
        values(floats).map(lambda v: np.array(v, dtype=np.float64)),
        # arrays of other kinds go through csv_cell like Python lists
        values(st.text(alphabet="abc\0,é", max_size=3)).map(
            lambda v: np.array(v, dtype=str)
        ),
        values(st.integers(2**63, 2**80)).map(lambda v: np.array(v, dtype=object)),
        # Python lists: ints and floats mixed keep each value's own form
        values(st.one_of(st.integers(-(2**70), 2**70), floats)),
        values(st.text(alphabet="abc xyz-_.%\0,é", max_size=6)),
        values(st.integers(2**63, 2**80)),
        values(st.booleans()),
    )


@st.composite
def tables(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    k = draw(st.integers(min_value=1, max_value=5))
    return [draw(column(n)) for _ in range(k)]


@given(tables(), st.integers(min_value=1, max_value=13))
@settings(max_examples=300, deadline=None)
def test_columns_match_rowwise_oracle(columns, block_rows):
    # small blocks put block edges inside the drawn tables
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reportio, "CSV_BLOCK_ROWS", block_rows)
        check_against_oracle(columns)


def test_rows_across_full_size_blocks():
    rng = np.random.default_rng(0)
    n = 2 * CSV_BLOCK_ROWS + 3
    check_against_oracle(
        [np.arange(n), rng.normal(size=n), rng.integers(0, 2, size=n).astype(bool)]
    )


@pytest.mark.parametrize(
    "dtype", [np.int64, np.int32, np.int8, np.uint16, np.uint64, np.bool_,
              np.float64, np.float32]
)
def test_array_extremes_match_oracle(dtype):
    if dtype is np.bool_:
        values = np.array([True, False, True])
    elif np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        values = np.array([info.min, info.max, 0, 1], dtype=dtype)
    else:
        with np.errstate(over="ignore"):  # 1e300 becomes inf in float32
            values = np.array(SPECIAL_FLOATS, dtype=dtype)
    check_against_oracle([values, np.arange(values.size)])


def test_int_and_bool_columns_never_reach_csv_cell(monkeypatch):
    # no per-cell fallback: digit arithmetic writes every value of these
    # columns, whose widths vary from 1 digit to 20 inside each block
    n = 10**5
    rng = np.random.default_rng(2)
    shifts = rng.integers(0, 64, size=n)
    columns = [
        rng.integers(-(2**63), 2**63, size=n, dtype=np.int64) >> shifts,
        rng.integers(0, 2**64, size=n, dtype=np.uint64) >> shifts.astype(np.uint64),
        rng.integers(0, 2, size=n).astype(bool),
    ]
    header = ["i", "u", "b"]
    want = rowwise_csv_lines(header, zip(*columns))
    seen = []
    cell = reportio.csv_cell

    def spy(v):
        seen.append(v)
        return cell(v)

    monkeypatch.setattr(reportio, "csv_cell", spy)
    assert csv_lines(header, columns) == want
    assert seen == []


def test_float_specials_written_by_fmt12():
    col = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-300, 1e300])
    assert csv_lines(["x"], [col]) == "x\nnan\ninf\n-inf\n-0\n1e-300\n1e+300\n"


def test_mixed_python_list_is_not_upcast():
    text = csv_lines(["v"], [[1, 2.5, 2**64, True]])
    assert text == "v\n1\n2.5\n18446744073709551616\n1\n"


def test_zero_rows_give_header_and_newline():
    assert csv_lines(["a", "b"], [np.zeros(0, dtype=np.int64), []]) == "a,b\n"
    assert csv_lines(["a"], [np.zeros(0)]) == rowwise_csv_lines(["a"], [])


def test_unequal_columns_rejected():
    with pytest.raises(ValueError, match="differ in length"):
        csv_lines(["a", "b"], [np.arange(3), [1, 2]])
