"""The scatter and radial commands: one energy, or a sweep of them.

cli.main imports this module when scatter or radial runs.  A single
point in JSON loads nothing more than its kernel module, scatter or
radial; a sweep, or CSV output, adds table, the grid and the writer.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from types import SimpleNamespace

from .cli import UsageError, resolve_choice
from .core import PotentialSpec, ShellPotentialSpec
from .junction import junction_matrix
from .serialize import canonical_json

# Largest --ksteps grid; a sweep this long takes 0.75-1.1 s end to end for
# scatter and 0.29-0.46 s for radial, in CSV or JSON, on a 2-vCPU VM.
MAX_KSTEPS = 100_000

# Energies per block of a radial sweep: one text block of the table writer.
_RADIAL_BLOCK = 256

SCATTER_FIELDS = ["k", "re_r", "im_r", "re_t", "im_t", "R", "T", "flux_residual"]
RADIAL_FIELDS = ["k", "a", "delta0", "sigma0"]


def _k_grid(args: SimpleNamespace) -> Sequence[float] | None:
    """None for single-point mode, else the sweep grid, a table.Grid."""
    sweeping = args.kmin is not None or args.kmax is not None
    if args.k is not None and sweeping:
        raise UsageError("give either --k or a --kmin/--kmax sweep, not both")
    if not sweeping:
        if args.k is None:
            raise UsageError("an energy is required: --k or --kmin/--kmax")
        if args.ksteps is not None or args.kscale is not None:
            raise UsageError("--ksteps and --kscale shape a sweep, not a single --k")
        if not 0.0 < args.k < math.inf:
            raise UsageError(f"k must be positive and finite, got {args.k}")
        return None
    if args.kmin is None or args.kmax is None:
        raise UsageError("sweeps need both --kmin and --kmax")
    if not 0.0 < args.kmin <= args.kmax < math.inf:
        raise UsageError("sweeps need 0 < kmin <= kmax < inf")
    steps = 50 if args.ksteps is None else args.ksteps
    if not 1 <= steps <= MAX_KSTEPS:
        raise UsageError(f"ksteps must be in 1..{MAX_KSTEPS}, got {steps}")
    from .table import Grid

    return Grid(args.kmin, args.kmax, steps, args.kscale != "lin")


def _emit(
    fields: list[str], blocks: Iterable[Sequence], fmt: str | None, sweep: bool
) -> Iterable[str]:
    """The one columns -> document path of scatter and radial.

    blocks hold one column per field, as table.table_blocks takes them.
    A single point (sweep False, one block of one row) is a JSON object
    by default, or a header plus one CSV row.  A sweep is a CSV table by
    default, or JSON {"rows": [...]}.
    """
    if not sweep and fmt != "csv":
        (columns,) = blocks
        return [canonical_json(dict(zip(fields, next(zip(*columns))))) + "\n"]
    from .table import table_blocks

    return table_blocks(fields, blocks, fmt or "csv")


def cmd_scatter(args: SimpleNamespace) -> Iterator[str]:
    from .scatter import _amplitude_columns, scattering_amplitudes

    p = PotentialSpec(args.m, args.c)
    _, choice = resolve_choice(p, args)
    matrix = junction_matrix(p, choice)
    grid = _k_grid(args)
    if grid is None:
        k, r, t, rr, tt, _, flux = scattering_amplitudes(matrix, args.k)
        row = (k, r.real, r.imag, t.real, t.imag, rr, tt, flux)
        yield from _emit(SCATTER_FIELDS, [list(zip(row))], args.format, sweep=False)
        return

    def columns(block: tuple) -> tuple:
        ks, errors, r, t, rr, tt, flux = block
        return (ks, [z.real for z in r], [z.imag for z in r], [z.real for z in t],
                [z.imag for z in t], rr, tt, flux, errors or [""] * len(ks))

    blocks = map(columns, _amplitude_columns(matrix, grid))
    yield from _emit(SCATTER_FIELDS + ["error"], blocks, args.format, sweep=True)


def cmd_radial(args: SimpleNamespace) -> Iterator[str]:
    from .radial import _s_wave_columns, s_wave_solve

    p = PotentialSpec(args.m, args.c)
    shell = ShellPotentialSpec(p, args.a)
    _, choice = resolve_choice(p, args)
    # regime errors exit 3 before grid errors; a sweep takes this junction
    matrix = junction_matrix(p, choice)
    grid = _k_grid(args)

    # RADIAL_FIELDS are the first four fields of a RadialResult
    if grid is None:
        row = s_wave_solve(shell, args.k, choice)[:4]
        yield from _emit(RADIAL_FIELDS, [list(zip(row))], args.format, sweep=False)
        return

    def columns(ks: list[float]) -> tuple:
        delta0, sigma0, errors = _s_wave_columns(matrix, shell.a, ks)
        n = len(ks)
        return ks, [shell.a] * n, delta0, sigma0, errors or [""] * n

    cuts = range(0, len(grid), _RADIAL_BLOCK)
    blocks = map(columns, (grid[i : i + _RADIAL_BLOCK] for i in cuts))
    yield from _emit(RADIAL_FIELDS + ["error"], blocks, args.format, sweep=True)
