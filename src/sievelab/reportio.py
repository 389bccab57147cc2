"""Deterministic report formatting: the dict view of a report,
12-significant-digit CSV and stable JSON.

A report's dict view (report_dict, bound as each report class's as_dict)
is its dataclass fields in order, then the derived values its class names
in `derived`.  Reruns with identical inputs must produce byte-identical
files, so floats are canonicalized through %.12g everywhere and JSON keys
are always sorted.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np


def fmt12(x) -> str:
    return "%.12g" % float(x)


def round12(x: float) -> float:
    return float(fmt12(x))


def report_dict(report) -> dict:
    """The dict view of a report dataclass: each field, then each name in
    the class's `derived` tuple (properties computed from the fields).

    Tuples and numpy arrays become lists, dict values and nested
    dataclasses get the same view, and a value with a serialize() method
    (an OffsetTuple) is written as that text.
    """
    names = [f.name for f in dataclasses.fields(report)]
    names += getattr(report, "derived", ())
    return {name: _view(getattr(report, name)) for name in names}


def _view(value):
    if hasattr(value, "serialize"):
        return value.serialize()
    if dataclasses.is_dataclass(value):
        return report_dict(value)
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
        # json.dumps would emit bare Infinity/NaN tokens, which is not JSON
        return round12(f) if math.isfinite(f) else str(f)
    return obj


def stable_json(obj) -> str:
    """Sorted-key JSON with floats rounded to 12 significant digits."""
    return json.dumps(_canonical(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


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
