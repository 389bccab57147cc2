"""Column-major CSV writer against the row-wise writer it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sievelab import reportio
from sievelab.reportio import CSV_BLOCK_ROWS, csv_cell, csv_lines


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
