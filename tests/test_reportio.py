"""Report dict views, and the column-major CSV writer against the row-wise
writer it replaced."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sievelab import cells, graphs, reportio, sieve, variational
from sievelab.reportio import CSV_BLOCK_ROWS, csv_cell, csv_lines, stable_json
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

    return st.one_of(
        *(ints(d) for d in (np.int64, np.int32, np.uint8, np.uint64)),
        values(st.booleans()).map(lambda v: np.array(v, dtype=bool)),
        values(floats).map(lambda v: np.array(v, dtype=np.float64)),
        # arrays of other kinds go through csv_cell like Python lists
        values(st.text(alphabet="abc", max_size=3)).map(
            lambda v: np.array(v, dtype=str)
        ),
        values(st.integers(2**63, 2**80)).map(lambda v: np.array(v, dtype=object)),
        # Python lists: ints and floats mixed keep each value's own form
        values(st.one_of(st.integers(-(2**70), 2**70), floats)),
        values(st.text(alphabet="abc xyz-_.%", max_size=6)),
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
