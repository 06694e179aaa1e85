"""Deterministic JSON and CSV writers.

Documents must survive a parse/re-emit cycle byte for byte: keys are
sorted, floats carry 17 significant digits (enough to round-trip any
double), negative zero is normalized, and non-finite values map to null
in JSON (CSV spells them nan/inf, since CSV is never re-parsed into
floats by the tools here).

canonical_json and csv_document write any document a value at a time,
and stay the reference; table.table_blocks writes the tables of the
CLI's sweeps to the same bytes from their columns, with the scalar
writers here.

_quote, the JSON spelling of a string, is encode_basestring_ascii of
CPython's C module _json: the very function json.encoder re-exports, so
strings are written as json.dumps writes them without a process
importing the json package.
"""

from __future__ import annotations

import math
from _json import encode_basestring_ascii as _quote
from collections.abc import Sequence


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
