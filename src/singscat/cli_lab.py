"""The mollifier lab's commands: mollify and resonance.

cli.main imports this module when one of them runs, and each command
imports the mollifier, and with it numpy; mollify's table adds table.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from types import SimpleNamespace

from .cli import UsageError, resolve_choice
from .core import PotentialSpec
from .errors import (
    MissingChoice,
    NoConvergence,
    PrecisionLoss,
    TransferOverflow,
    UndefinedRegime,
)
from .junction import junction_matrix
from .serialize import canonical_json

# Longest --eps list; an eps row that runs to mollifier.N_CELLS_CAP takes
# 0.74-1.19 s in process on a 2-vCPU VM, so 64 such rows take 47-77 s.
MAX_EPS = 64

MOLLIFY_FIELDS = ["eps", "M11", "M12", "M21", "M22", "det_err", "deviation", "flag"]


def cmd_mollify(args: SimpleNamespace) -> Iterator[str]:
    # table is compiled before the mollifier loads numpy: compiled after,
    # its parser's scratch memory lands on top of numpy's heap and raised
    # a mollify process's peak RSS by 0.45 MB
    from .table import table_blocks
    from .mollifier import SHAPES, certify_convergence, convergence_sweep

    p = PotentialSpec(args.m, args.c)
    shape = SHAPES[args.shape]
    try:
        eps_list = [float(part) for part in args.eps.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --eps list: {args.eps!r}") from exc
    if len(eps_list) > MAX_EPS:
        raise UsageError(f"--eps takes at most {MAX_EPS} widths, got {len(eps_list)}")
    _, choice = resolve_choice(p, args)
    reference = None
    if args.reference == "junction":
        try:
            reference = junction_matrix(p, choice)
        except (UndefinedRegime, MissingChoice):
            reference = None
    rows = convergence_sweep(p, shape, eps_list, args.k, reference=reference)
    verdict, slope, r2 = certify_convergence(rows)
    flag = "non_convergent" if verdict == "non_convergent" else "ok"
    cells = [
        [row.eps] + [math.nan] * 6 + [row.error]
        if row.error
        else [row.eps, *sum(row.matrix.rows(), []), row.det_err, row.deviation, flag]
        for row in rows
    ]
    computed = sum(1 for row in rows if not row.error)
    if computed >= 3:
        summary = {"slope": slope, "r2": r2, "verdict": verdict}
        print(canonical_json(summary), file=sys.stderr)
    if computed == 0:
        if all(row.error == TransferOverflow.tag for row in rows):
            raise TransferOverflow("every eps value overflowed")
        if all(row.error == PrecisionLoss.tag for row in rows):
            raise PrecisionLoss("every eps value lost its phase to rounding")
        raise NoConvergence("no eps value produced a transfer matrix")
    # the eps table is CSV by default, as a sweep is
    yield from table_blocks(MOLLIFY_FIELDS, [list(zip(*cells))], args.format or "csv")


def cmd_resonance(args: SimpleNamespace) -> Iterator[str]:
    from .mollifier import SHAPES, resonant_search

    level, parity = resonant_search(SHAPES[args.shape], args.n)
    doc = {"n": args.n, "c_n": level, "parity": parity}
    yield canonical_json(doc) + "\n"
