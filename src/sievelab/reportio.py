"""Deterministic report formatting: plain values, 12-significant-digit
CSV and stable JSON.

Reports hold numbers (ints, floats, numpy arrays, nested reports); one walk
turns them into plain values, for the dict view (report_dict, bound as each
report class's as_dict) and for stable_json.  Reruns with identical inputs
must produce byte-identical files, so floats are canonicalized through
%.12g everywhere and JSON keys are always sorted.

CSV columns are written a block of rows at a time into one byte matrix:
numpy integer and bool columns by digit arithmetic on the array, float
columns by %.12g, anything else by csv_cell, with the same bytes as
csv_cell applied cell by cell.
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


# Rows per block; bounds the block's byte matrix and keep mask (rows by the
# bytes of the widest row) and the Python values of its float and text cells.
CSV_BLOCK_ROWS = 1 << 16


def _digit_cells(block: np.ndarray):
    """An int, uint or bool block as its decimal text: a byte matrix with a
    '-' column, kept at the negatives, then one column per digit of the
    largest magnitude, leading zeros not kept."""
    neg = block < 0
    mag = block.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # mod 2**64: the int64 minimum too
    top = int(mag.max(initial=0))
    mag = mag.astype(np.min_scalar_type(top))  # narrow words divide faster
    width = len(str(top))
    # digit-major, so each pass writes one contiguous row
    text = np.empty((width + 1, block.size), np.uint8)
    keep = np.empty(text.shape, bool)
    text[0], keep[0] = ord("-"), neg
    for k in range(width, 0, -1):
        # mag is now value // 10**(width - k), and digit k is kept when
        # that quotient is not 0 (the last digit always is)
        np.greater(mag, 0, out=keep[k])
        np.divmod(mag, 10, out=(mag, text[k]))
    keep[width] = True
    text[1:] += ord("0")
    return text.T, keep.T


def _float_cells(block: np.ndarray):
    """A float block as %.12g text: one left-justified %-operation per
    block.  %.12g writes at most 19 characters ("-1.23456789012e-308")
    and never a space, so the padding is the spaces."""
    text = ("%-19.12g" * block.size) % tuple(block.tolist())
    cells = np.frombuffer(text.encode(), np.uint8).reshape(block.size, 19)
    return cells, cells != ord(" ")


def _text_cells(cells: list):
    """Strings as UTF-8 bytes, each row padded to the longest; the keep
    mask follows each cell's length, so a NUL or any other byte in a cell
    is kept."""
    data = [c.encode() for c in cells]
    lengths = np.fromiter(map(len, data), np.intp, len(data))
    keep = np.arange(lengths.max(initial=0)) < lengths[:, None]
    text = np.zeros(keep.shape, np.uint8)
    text[keep] = np.frombuffer(b"".join(data), np.uint8)
    return text, keep


def _block_cells(block):
    """One column's block as a byte matrix and keep mask, one row per
    value: the kept bytes of a row, in order, are that value's csv_cell."""
    kind = block.dtype.kind if isinstance(block, np.ndarray) else None
    if kind in ("i", "u", "b"):
        return _digit_cells(block)
    if kind == "f":
        return _float_cells(block)
    return _text_cells([csv_cell(v) for v in block])


def csv_lines(header: list, columns) -> str:
    """CSV text: the header row, then one row per index of the columns.

    Each block of CSV_BLOCK_ROWS rows becomes one byte matrix and keep
    mask, each column's cells then a ',' or newline column, and the block's
    text is the kept bytes in row order.  A numpy int, uint or bool column
    is written by digit arithmetic on the array, a float column by one
    %.12g operation per block; any other column goes through csv_cell
    value by value, so a Python list mixing ints and floats keeps each
    value's own form.  The bytes equal those of csv_cell applied cell by
    cell.
    """
    lengths = {len(col) for col in columns}
    if len(lengths) > 1:
        raise ValueError(f"CSV columns differ in length: {[len(c) for c in columns]}")
    n_rows = lengths.pop() if lengths else 0
    out = [",".join(str(h) for h in header) + "\n"]
    for lo in range(0, n_rows, CSV_BLOCK_ROWS):
        m = min(CSV_BLOCK_ROWS, n_rows - lo)
        texts, keeps = [], []
        for j, col in enumerate(columns):
            text, keep = _block_cells(col[lo : lo + m])
            end = "\n" if j == len(columns) - 1 else ","
            texts += [text, np.full((m, 1), ord(end), np.uint8)]
            keeps += [keep, np.ones((m, 1), bool)]
        text, keep = np.concatenate(texts, axis=1), np.concatenate(keeps, axis=1)
        out.append(text[keep].tobytes().decode())
    return "".join(out)
