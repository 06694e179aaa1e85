"""Deterministic JSON and CSV writers.

Documents must survive a parse/re-emit cycle byte for byte: keys are
sorted, floats carry 17 significant digits (enough to round-trip any
double), negative zero is normalized, and non-finite values map to null
in JSON (CSV spells them nan/inf, since CSV is never re-parsed into
floats by the tools here).

canonical_json and csv_document write any document a value at a time;
table_document writes the tables of the CLI's sweeps a column at a time,
to the same bytes.
"""

from __future__ import annotations

import math
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Iterable, Sequence

# %.17g spells the non-finite floats this way; JSON writes them as null.
_JSON_NULLS = {"nan": "null", "inf": "null", "-inf": "null"}

# Rows rendered per pass of table_document.
_CHUNK = 512


def fmt_float(x: float) -> str:
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        return "0"
    return format(x, ".17g")


def _ser(value: Any, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(repr(value))
    elif isinstance(value, float):
        if math.isfinite(value):
            out.append(fmt_float(value))
        else:
            out.append("null")
    elif isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, (list, tuple)):
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
        raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_json(doc: Any) -> str:
    """Serialize with sorted keys and round-trip-stable floats."""
    out: list[str] = []
    _ser(doc, out)
    return "".join(out)


def _csv_cell(cell: Any) -> str:
    """One CSV cell: floats through fmt_float, ints through repr, else str."""
    if isinstance(cell, float):
        return fmt_float(cell)
    if isinstance(cell, int):
        return repr(cell)
    return str(cell)


def csv_document(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Join the header and each row's _csv_cell texts with commas."""
    lines = [",".join(header)]
    lines += (",".join(map(_csv_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _column_text(column: Sequence[Any], fmt: str) -> list[str]:
    """The cells of one table column as text, a whole column per call.

    A column of floats goes through "%.17g" on x + 0.0, which is fmt_float
    for every double: the + 0.0 turns -0.0 into 0.0, and %.17g already
    spells nan, inf and -inf as fmt_float does.  Any other column is written
    cell by cell as csv_document or canonical_json would write it.
    """
    kinds = set(map(type, column))
    if kinds == {float}:
        text = list(map("%.17g".__mod__, map((0.0).__radd__, column)))
        return list(map(_JSON_NULLS.get, text, text)) if fmt == "json" else text
    if kinds == {str}:
        return list(map(_quote, column)) if fmt == "json" else list(column)
    return list(map(canonical_json if fmt == "json" else _csv_cell, column))


def table_document(
    fields: Sequence[str], rows: Iterable[Sequence[Any]], fmt: str
) -> str:
    """A table of one cell per distinct field and row, as CSV or JSON.

    Byte for byte what csv_document(fields, rows) writes for "csv", and
    canonical_json({"rows": [dict(zip(fields, row)) ...]}) plus a newline
    for "json".  Cells are rendered a column of _CHUNK rows at a time and
    joined by one row template, with the JSON keys encoded and sorted
    once.  The document is joined once, so a long table holds about one
    document's worth of text at a time.
    """
    if fmt == "json":
        order = sorted(range(len(fields)), key=fields.__getitem__)
        keys = [_quote(fields[i]).replace("%", "%%") + ":%s" for i in order]
        # every row opens with its separator; the first one's is cut below
        template = ",{" + ",".join(keys) + "}"
        parts = ['{"rows":[']
    else:
        order = range(len(fields))
        template = ",".join(["%s"] * len(fields)) + "\n"
        parts = [",".join(fields) + "\n"]
    rows = iter(rows)
    while chunk := list(islice(rows, _CHUNK)):
        columns = list(zip(*chunk))
        text = [_column_text(columns[i], fmt) for i in order]
        parts += map(template.__mod__, zip(*text))
    if fmt == "json":
        if len(parts) > 1:
            parts[1] = parts[1][1:]
        parts.append("]}\n")
    return "".join(parts)
