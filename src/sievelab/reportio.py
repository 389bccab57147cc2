"""Deterministic report formatting: plain values, 12-significant-digit
CSV and stable JSON.

Reports hold numbers (ints, floats, numpy arrays, nested reports); one walk
turns them into plain values, for the dict view (report_dict, bound as each
report class's as_dict) and for stable_json.  Reruns with identical inputs
must produce byte-identical files, so floats are canonicalized through
%.12g everywhere and JSON keys are always sorted.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np


def fmt12(x) -> str:
    return "%.12g" % float(x)


def view_names(report) -> list:
    """A report's view: its dataclass fields in order, then each name in
    its class's `derived` tuple (properties computed from the fields)."""
    return [f.name for f in dataclasses.fields(report)] + list(
        getattr(report, "derived", ())
    )


def report_dict(report) -> dict:
    """The dict view of a report dataclass, as plain values: bools, ints,
    floats (unrounded), str, None, lists and dicts with str keys.

    Numpy scalars become Python ones, tuples and arrays lists (an int or
    bool array by one .tolist()), nested dataclasses get the same view,
    and a value with a serialize() method (an OffsetTuple) is that text.
    """
    return _plain(report, float)


def _plain(value, real):
    """value as plain Python values, each float mapped by real."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return real(value)
    if isinstance(value, np.ndarray):
        plain = value.tolist()
        return plain if value.dtype.kind in "iub" else _plain(plain, real)
    if hasattr(value, "serialize"):
        return value.serialize()
    if dataclasses.is_dataclass(value):
        return {name: _plain(getattr(value, name), real) for name in view_names(value)}
    if isinstance(value, dict):
        return {str(k): _plain(v, real) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v, real) for v in value]
    return value


def _json_float(x) -> float | str:
    # json.dumps would emit bare Infinity/NaN tokens, which is not JSON
    return float(fmt12(x)) if math.isfinite(x) else str(float(x))


def stable_json(obj) -> str:
    """Sorted-key JSON of obj (a report dataclass, or dicts and lists that
    may hold reports and arrays) from the same walk as report_dict, with
    each float rounded to 12 significant digits and a non-finite one
    written as the string "nan", "inf" or "-inf"."""
    plain = _plain(obj, _json_float)
    return json.dumps(plain, sort_keys=True, indent=2, allow_nan=False) + "\n"


def csv_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt12(v)
    return str(v)


# %-format per numpy dtype kind; %d writes bools as 1/0 like csv_cell
_COLUMN_FORMATS = {"i": "%d", "u": "%d", "b": "%d", "f": "%.12g"}
# Rows per %-operation; bounds the Python values alive at once.
CSV_BLOCK_ROWS = 1 << 16


def csv_lines(header: list, columns) -> str:
    """CSV text: the header row, then one row per index of the columns.

    A numpy int, uint, bool or float column is converted to Python values
    by .tolist() and written by %d or %.12g; any other column goes through
    csv_cell value by value, so a Python list mixing ints and floats keeps
    each value's own form.  One %-operation on the row format, repeated,
    writes CSV_BLOCK_ROWS rows at a time.  The bytes equal those of
    csv_cell applied cell by cell.
    """
    formats, values = [], []
    for col in columns:
        kind = col.dtype.kind if isinstance(col, np.ndarray) else None
        if kind in _COLUMN_FORMATS:
            formats.append(_COLUMN_FORMATS[kind])
            values.append(col)
        else:
            formats.append("%s")
            values.append([csv_cell(v) for v in col])
    lengths = {len(v) for v in values}
    if len(lengths) > 1:
        raise ValueError(f"CSV columns differ in length: {[len(v) for v in values]}")
    n_rows = lengths.pop() if lengths else 0
    row = ",".join(formats) + "\n"
    out = [",".join(str(h) for h in header) + "\n"]
    for lo in range(0, n_rows, CSV_BLOCK_ROWS):
        m = min(CSV_BLOCK_ROWS, n_rows - lo)
        # the block's cells interleaved row by row, for the row format m times
        cells = [None] * (m * len(values))
        for j, col in enumerate(values):
            block = col[lo : lo + m]
            cells[j :: len(values)] = (
                block.tolist() if isinstance(block, np.ndarray) else block
            )
        out.append((row * m) % tuple(cells))
    return "".join(out)
