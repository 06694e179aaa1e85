"""Deterministic JSON and CSV writers.

Documents must survive a parse/re-emit cycle byte for byte: keys are
sorted, floats carry 17 significant digits (enough to round-trip any
double), negative zero is normalized, and non-finite values map to null
in JSON (CSV spells them nan/inf, since CSV is never re-parsed into
floats by the tools here).

canonical_json and csv_document write any document a value at a time,
and stay the reference; table_blocks writes the tables of the CLI's
sweeps to the same bytes from their columns, a block of rows per %, each
column in one spelling: once, for one value repeated, else "%.17g", as
strs, or cell by cell by the reference's writers.

_quote, the JSON spelling of a string, is encode_basestring_ascii of
CPython's C module _json: the very function json.encoder re-exports, so
strings are written as json.dumps writes them without a process
importing the json package.
"""

from __future__ import annotations

import math
from _json import encode_basestring_ascii as _quote
from collections.abc import Iterable, Iterator, Sequence

# Rows per block of table_blocks: one % of the repeated row template
# renders a block.  A 5000-row scatter sweep through cli.main took 23-25 ms
# at 256 rows as at 1024 (best of 21, 2-vCPU VM), and traced a peak of
# 1.0 MB against 1.4-1.7 MB: a block's text is all that waits to be written.
_TABLE_BLOCK = 256


def fmt_float(x: float) -> str:
    """A float in 17 significant digits, enough to round-trip any double.

    The + 0.0 turns -0.0 into 0.0, which %.17g spells "0"; nan, inf and
    -inf come out as those words.
    """
    return "%.17g" % (x + 0.0)


def _json_scalar(value: object) -> str:
    """The JSON text of None, a bool, an int, a float or a str.

    A float is spelled inline as fmt_float spells it, so that a table
    cell costs one call; nan, inf and -inf are null.
    """
    if isinstance(value, float):
        return "%.17g" % (value + 0.0) if math.isfinite(value) else "null"
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return repr(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _ser(value: object, out: list[str]) -> None:
    if isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _ser(item, out)
        out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if i:
                out.append(",")
            out.append(_quote(key))
            out.append(":")
            _ser(value[key], out)
        out.append("}")
    else:
        out.append(_json_scalar(value))


def canonical_json(doc: object) -> str:
    """Serialize with sorted keys and round-trip-stable floats."""
    out: list[str] = []
    _ser(doc, out)
    return "".join(out)


def _csv_cell(cell: object) -> str:
    """One CSV cell: floats spelled as fmt_float does, ints by repr, else str."""
    if isinstance(cell, float):
        return "%.17g" % (cell + 0.0)
    if isinstance(cell, int):
        return repr(cell)
    return str(cell)


def csv_document(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Join the header and each row's _csv_cell texts with commas."""
    lines = [",".join(header)]
    lines += (",".join(map(_csv_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def table_blocks(
    fields: Sequence[str], blocks: Iterable[Sequence[Sequence[object]]], fmt: str
) -> Iterator[str]:
    """A table of one cell per distinct field and row, as CSV or JSON, in blocks.

    Each of blocks holds one column per field, all of one length: a
    sequence of that column's cells, row by row.  Joined, the text blocks
    are byte for byte what csv_document(fields, rows) writes for "csv",
    and canonical_json({"rows": [dict(zip(fields, row)) ...]}) plus a
    newline for "json", rows being the blocks' rows in order.  Each
    _TABLE_BLOCK rows of a block are yielded as soon as they are
    rendered, the first after the header or the document's opening, then
    the document's end; a block of another column count than the fields,
    or of columns of unequal length, raises ValueError.
    """
    width = len(fields)
    if fmt == "csv":
        order: Sequence[int] = range(width)
        keys = [""] * width
        frame, opening, closing, cut = "%s\n", ",".join(fields) + "\n", "", 0
    else:
        order = sorted(range(width), key=fields.__getitem__)
        keys = [_quote(fields[i]).replace("%", "%%") + ":" for i in order]
        # every row opens with its separator; the first one's is cut
        frame, opening, closing, cut = ",{%s}", '{"rows":[', "]}\n", 1
    for columns in blocks:
        if len(columns) != width or len(set(map(len, columns))) != 1:
            raise ValueError(
                f"every table block must hold {width} columns of one length, one per field"
            )
        columns = [columns[i] for i in order]
        for lo in range(0, len(columns[0]), _TABLE_BLOCK):
            text = _block_text(
                [column[lo : lo + _TABLE_BLOCK] for column in columns], fmt, keys, frame
            )
            if opening:
                text, opening = opening + text[cut:], ""
            yield text
        del columns  # so that the next block is computed with this one gone
    yield opening + closing


def _block_text(columns: list, fmt: str, keys: list[str], frame: str) -> str:
    """The rows of columns, rendered by one % of their row template repeated.

    frame is a row's text around its cells, with "%s" where they go.  A
    column of one exact float or one exact str, repeated, or of nan floats
    alone, is spelled once by _csv_cell or _json_scalar, straight into the
    template.  Any other column of exact floats (all finite, in JSON) is
    spelled "%.17g", after one x + 0.0 pass if it holds a zero so that -0
    prints as 0; one of exact strs goes in as it is in CSV and through
    _quote in JSON; any other column is spelled cell by cell by _csv_cell
    or _json_scalar.
    """
    spell = _csv_cell if fmt == "csv" else _json_scalar
    rows = len(columns[0])
    templated = []
    spelling = []
    for column in columns:
        kinds = set(map(type, column))
        # 1 == 1.0 == True spell differently, so only one exact kind folds;
        # distinct nan objects are unequal, so a float column of nans alone
        # (no x == x) folds too
        if (kinds == {float} or kinds == {str}) and (
            column.count(column[0]) == rows
            or (kinds == {float} and not any(map(float.__eq__, column, column)))
        ):
            spelling.append(spell(column[0]).replace("%", "%%"))
            continue
        # nan and inf make the sum non-finite, and so, harmlessly, may overflow
        if kinds == {float} and (fmt == "csv" or math.isfinite(sum(column))):
            if 0.0 in column:
                column = [x + 0.0 for x in column]
            spelling.append("%.17g")
        else:
            if kinds != {str}:
                column = list(map(spell, column))
            elif fmt != "csv":
                column = list(map(_quote, column))
            spelling.append("%s")
        templated.append(column)
    cells: list = [None] * (len(templated) * rows)
    for place, column in enumerate(templated):
        cells[place :: len(templated)] = column
    cell_text = ",".join(map(str.__add__, keys, spelling))
    return (frame % cell_text) * rows % tuple(cells)
