"""The energy grid of a sweep and the block writer of the CLI's tables.

A sweep, or a document in CSV, loads this module; a single point in
JSON needs neither and never compiles them.  Grid computes a sweep's
energies as they are read; table_blocks writes a table from its columns
to the bytes of serialize's reference writers, a block of rows per %,
each column in one spelling: once, for one value repeated, else "%.17g",
as strs, or cell by cell by serialize's scalar writers.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence

from .serialize import _csv_cell, _json_scalar, _quote

# Rows per block of table_blocks: one % of the repeated row template
# renders a block.  A 5000-row scatter sweep through cli.main took 23-25 ms
# at 256 rows as at 1024 (best of 21, 2-vCPU VM), and traced a peak of
# 1.0 MB against 1.4-1.7 MB: a block's text is all that waits to be written.
_TABLE_BLOCK = 256


class Grid(Sequence):
    """The points of a sweep grid, each computed when it is read.

    Point i of steps is kmin * (kmax / kmin) ** (i / n) on a log scale,
    with n = steps - 1 and a point that rounds past kmax taken as kmax;
    exp(hi - (hi - lo) * (n - i) / n) of the logs lo, hi of kmin and kmax
    where that ratio overflows; and kmin + span * i / n on a linear
    scale.  Points 0 and n are kmin and kmax exactly.  A slice is computed
    as one list, so a sweep that reads its grid a block at a time holds
    one block of it.
    """

    def __init__(self, kmin: float, kmax: float, steps: int, log: bool):
        self.kmin, self.kmax, self.steps, self.log = kmin, kmax, steps, log

    def __len__(self) -> int:
        return self.steps

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._points(range(self.steps)[index])
        i = range(self.steps)[index]  # IndexError past the ends, as a list's
        return self._points(range(i, i + 1))[0]

    def __iter__(self) -> Iterator[float]:
        # the sweeps slice the grid; a reader that walks it gets every point at once
        return iter(self[:])

    def _points(self, indices: range) -> list[float]:
        kmin, kmax, last = self.kmin, self.kmax, self.steps - 1
        n = last or 1  # one point is kmin alone, whatever the formula
        if self.log:
            ratio = kmax / kmin
            if ratio < math.inf:
                # with kmin a few ulps below kmax a point can round past kmax,
                # and next to the float max even to inf: such a point is kmax
                points = [
                    k if (k := kmin * ratio ** (i / n)) <= kmax else kmax
                    for i in indices
                ]
            else:  # the ratio overflows, not the points: step in logs
                # down from hi: exp(lo + (hi - lo)) may overflow
                lo, hi = math.log(kmin), math.log(kmax)
                points = [math.exp(hi - (hi - lo) * (n - i) / n) for i in indices]
        else:
            span = kmax - kmin
            # span * (i / n) only where span * i overflows: the two round
            # differently, and span * i / n keeps the bits of every other grid
            points = [
                kmin + (span * i / n if span * i < math.inf else span * (i / n))
                for i in indices
            ]
        # the log step can land an ulp off kmin, and every formula off kmax
        if last in indices:
            points[indices.index(last)] = kmax
        if 0 in indices:
            points[indices.index(0)] = kmin
        return points


def table_blocks(
    fields: Sequence[str], blocks: Iterable[Sequence[Sequence[object]]], fmt: str
) -> Iterator[str]:
    """A table of one cell per distinct field and row, as CSV or JSON, in blocks.

    Each of blocks holds one column per field, all of one length: a
    sequence of that column's cells, row by row.  Joined, the text blocks
    are byte for byte what serialize.csv_document(fields, rows) writes for
    "csv", and serialize.canonical_json({"rows": [dict(zip(fields, row))
    ...]}) plus a newline for "json", rows being the blocks' rows in
    order.  Each _TABLE_BLOCK rows of a block are yielded as soon as they
    are rendered, the first after the header or the document's opening,
    then the document's end; a block of another column count than the
    fields, or of columns of unequal length, raises ValueError.
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
