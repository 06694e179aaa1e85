"""Command line front end.

Six subcommands cover the library surface: junction, scatter, bound,
radial, mollify, resonance.  Each takes only the options it reads.
junction, bound and resonance always print one JSON document.  scatter
and radial print a single point as JSON and a sweep as CSV, mollify its
eps table as CSV; these three take --format to pick either.
Exit codes: 0 success, 2 bad arguments, 3 no junction / no scattering
state, 4 numerical failure.

Only mollify and resonance import numpy, with the mollifier; junction,
bound, scatter, radial and every usage error run without it.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from collections.abc import Iterable

from .core import PotentialSpec, ShellPotentialSpec
from .errors import (
    BracketError,
    InsufficientData,
    MissingChoice,
    NoConvergence,
    NoScatteringState,
    PrecisionLoss,
    SingscatError,
    TransferOverflow,
    UndefinedRegime,
)
from .junction import IvChoice, RegimeKind, classify_regime, junction_matrix
from .radial import _s_wave
from .scatter import bound_states as solve_bound_states
from .scatter import _amplitude_rows, scattering_amplitudes
from .serialize import canonical_json, table_document
from .sweep import sweep_map

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REGIME = 3
EXIT_NUMERIC = 4

# Largest --ksteps grid; a scatter or radial sweep this long takes about
# 1.5 s end to end on a 2-vCPU VM.
MAX_KSTEPS = 100_000

SCATTER_FIELDS = ["k", "re_r", "im_r", "re_t", "im_t", "R", "T", "flux_residual"]
RADIAL_FIELDS = ["k", "a", "delta0", "sigma0"]
MOLLIFY_FIELDS = ["eps", "M11", "M12", "M21", "M22", "det_err", "deviation", "flag"]

# The keys of mollifier.SHAPES, sorted: --shape's choices, known without
# building the shapes.
SHAPE_NAMES = ("cosine", "gauss", "tophat", "triangle")


class UsageError(SingscatError):
    """Bad command line input."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose parse errors raise UsageError instead of exiting.

    A value such as -1e-3, -.5E2, -inf or -NaN counts as a negative
    number, not an option: argparse on its own only knows -1 and -0.5 as
    numbers.  No option string looks like a number, so none is shadowed.
    Subparsers are built from this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|infinity|nan)$",
            re.IGNORECASE,
        )

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the result document to this path")

    # (m, c) of the point potential and the case IV choice
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--m", type=float, required=True)
    point.add_argument("--c", type=float, required=True)
    point.add_argument("--iv-a", type=int, choices=(1, -1), dest="iv_a")
    point.add_argument("--iv-b", type=float, dest="iv_b")

    # the output format of the subcommands whose rows go through _emit
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--format", choices=("json", "csv"))

    kgrid = argparse.ArgumentParser(add_help=False)
    kgrid.add_argument("--k", type=float, help="single energy k > 0")
    kgrid.add_argument("--kmin", type=float)
    kgrid.add_argument("--kmax", type=float)
    # defaults 50 and log, applied by _k_grid, which refuses either with --k
    kgrid.add_argument("--ksteps", type=int)
    kgrid.add_argument("--kscale", choices=("log", "lin"))

    parser = _Parser(
        prog="singscat",
        description="Point scattering for powers of the delta potential.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "junction", parents=[common, point], help="classify (m, c) and print its matrix"
    )
    sub.add_parser(
        "scatter",
        parents=[common, point, table, kgrid],
        help="reflection/transmission at one energy or over a grid",
    )
    sub.add_parser(
        "bound", parents=[common, point], help="negative-energy states of (m, c)"
    )
    p_radial = sub.add_parser(
        "radial",
        parents=[common, point, table, kgrid],
        help="s-wave phase shift of a singular shell",
    )
    p_radial.add_argument("--a", type=float, required=True, help="shell radius")

    p_mollify = sub.add_parser(
        "mollify",
        parents=[common, point, table],
        help="effective junction of the mollified potential over an eps list",
    )
    p_mollify.add_argument("--shape", choices=SHAPE_NAMES, required=True)
    p_mollify.add_argument(
        "--eps", required=True, help="comma list of widths, strictly decreasing"
    )
    p_mollify.add_argument("--k", type=float, default=1.0)
    p_mollify.add_argument(
        "--reference",
        choices=("junction", "none"),
        default="junction",
        help="deviation baseline: the closed-form junction matrix, or none",
    )

    p_resonance = sub.add_parser(
        "resonance",
        parents=[common],
        help="resonant couplings of the m=2 scaling limit for a shape",
    )
    p_resonance.add_argument("--shape", choices=SHAPE_NAMES, required=True)
    p_resonance.add_argument("--n", type=int, required=True)

    return parser


def _resolve_choice(args: argparse.Namespace) -> IvChoice | None:
    """The case IV choice of the flags; they are refused in any other regime."""
    regime = classify_regime(PotentialSpec(args.m, args.c))
    given = [
        flag
        for flag, value in (("--iv-a", args.iv_a), ("--iv-b", args.iv_b))
        if value is not None
    ]
    if given and regime.kind is not RegimeKind.INDETERMINATE:
        flags = ", ".join(given)
        raise UsageError(f"only m > 2 with c < 0 (indeterminate) takes {flags}")
    if len(given) == 1:
        raise UsageError("the indeterminate regime needs both --iv-a and --iv-b")
    return IvChoice(args.iv_a, args.iv_b) if given else None


def _k_grid(args: argparse.Namespace) -> list[float] | None:
    """None for single-point mode, else the sweep grid."""
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
    if steps == 1:
        return [args.kmin]
    if args.kscale != "lin":
        ratio = args.kmax / args.kmin
        grid = [args.kmin * ratio ** (i / (steps - 1)) for i in range(steps)]
    else:
        span = args.kmax - args.kmin
        grid = [args.kmin + span * i / (steps - 1) for i in range(steps)]
    # both formulas can land an ulp off kmax at the last point
    grid[-1] = args.kmax
    if not all(map(math.isfinite, grid)):
        raise UsageError("the energy grid overflows; narrow --kmin/--kmax")
    return grid


def cmd_junction(args: argparse.Namespace) -> str:
    p = PotentialSpec(args.m, args.c)
    regime = classify_regime(p)
    matrix = junction_matrix(p, _resolve_choice(args))
    doc = {
        "regime": regime.kind.value,
        "n": regime.n,
        "junction": matrix.rows(),
        "det": matrix.det(),
    }
    return canonical_json(doc) + "\n"


def _emit(fields: list[str], rows: Iterable, fmt: str | None, sweep: bool) -> str:
    """The one rows -> document path of every tabular subcommand.

    A single point (sweep False, one row) is a JSON object by default, or
    a header plus one CSV row.  A sweep is a CSV table by default, or
    JSON {"rows": [...]}.
    """
    if fmt == "csv" or (fmt is None and sweep):
        return table_document(fields, rows, "csv")
    if sweep:
        return table_document(fields, rows, "json")
    return canonical_json(dict(zip(fields, next(iter(rows))))) + "\n"


def cmd_scatter(args: argparse.Namespace) -> str:
    p = PotentialSpec(args.m, args.c)
    matrix = junction_matrix(p, _resolve_choice(args))
    grid = _k_grid(args)
    if grid is None:
        k, r, t, rr, tt, _, flux = scattering_amplitudes(matrix, args.k)
        row = (k, r.real, r.imag, t.real, t.imag, rr, tt, flux)
        return _emit(SCATTER_FIELDS, [row], args.format, sweep=False)
    rows = (
        (k, r.real, r.imag, t.real, t.imag, rr, tt, flux, error)
        for k, (error, r, t, rr, tt, flux) in zip(grid, _amplitude_rows(matrix, grid))
    )
    return _emit(SCATTER_FIELDS + ["error"], rows, args.format, sweep=True)


def cmd_bound(args: argparse.Namespace) -> str:
    p = PotentialSpec(args.m, args.c)
    matrix = junction_matrix(p, _resolve_choice(args))
    spectrum = solve_bound_states(matrix)
    if spectrum.kind == "discrete":
        doc = {
            "spectrum": [
                {"kappa": kappa, "energy": energy}
                for kappa, energy in zip(spectrum.kappas, spectrum.energies)
            ]
        }
    else:
        doc = {"spectrum": spectrum.kind}
    return canonical_json(doc) + "\n"


def cmd_radial(args: argparse.Namespace) -> str:
    p = PotentialSpec(args.m, args.c)
    a = ShellPotentialSpec(p, args.a).a
    # regime errors surface before grid errors; _k_grid makes every k > 0
    junction = junction_matrix(p, _resolve_choice(args))
    grid = _k_grid(args)

    def solve(k: float) -> list:
        delta0, sigma0, *_ = _s_wave(junction, a, k)
        return [k, a, delta0, sigma0]

    if grid is None:
        return _emit(RADIAL_FIELDS, [solve(args.k)], args.format, sweep=False)
    rows = sweep_map(
        lambda k: solve(k) + [""],
        grid,
        lambda k, tag: [k, a, math.nan, math.nan, tag],
    )
    return _emit(RADIAL_FIELDS + ["error"], rows, args.format, sweep=True)


def cmd_mollify(args: argparse.Namespace) -> str:
    from .mollifier import SHAPES, certify_convergence, convergence_sweep

    p = PotentialSpec(args.m, args.c)
    shape = SHAPES[args.shape]
    try:
        eps_list = [float(part) for part in args.eps.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --eps list: {args.eps!r}") from exc
    choice = _resolve_choice(args)
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
    return _emit(MOLLIFY_FIELDS, cells, args.format, sweep=True)


def cmd_resonance(args: argparse.Namespace) -> str:
    from .mollifier import SHAPES, resonant_search

    level, parity = resonant_search(SHAPES[args.shape], args.n)
    doc = {"n": args.n, "c_n": level, "parity": parity}
    return canonical_json(doc) + "\n"


_COMMANDS = {
    "junction": cmd_junction,
    "scatter": cmd_scatter,
    "bound": cmd_bound,
    "radial": cmd_radial,
    "mollify": cmd_mollify,
    "resonance": cmd_resonance,
}


def _fail(exc: Exception) -> int:
    """Print the JSON error document of exc; return its exit code."""
    numeric = (
        NoConvergence, TransferOverflow, PrecisionLoss, BracketError, InsufficientData
    )
    if isinstance(exc, UndefinedRegime):
        code, doc = EXIT_REGIME, {"error": exc.tag, "reason": exc.reason}
    elif isinstance(exc, (MissingChoice, NoScatteringState)):
        code, doc = EXIT_REGIME, {"error": exc.tag}
    elif isinstance(exc, numeric):
        code, doc = EXIT_NUMERIC, {"error": exc.tag, "message": str(exc)}
    else:
        code, doc = EXIT_USAGE, {"error": "invalid_argument", "message": str(exc)}
    sys.stdout.write(canonical_json(doc) + "\n")
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text = _COMMANDS[args.command](args)
    except SystemExit as exc:  # only --help exits, after printing its text
        return exc.code
    except (SingscatError, ValueError) as exc:
        return _fail(exc)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            return _fail(UsageError(f"cannot write --out file: {exc}"))
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main_entry() -> None:
    # OpenBLAS starts a thread per CPU when numpy loads, and the 2x2
    # products gain nothing from them; a value the caller set is kept
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    raise SystemExit(main(sys.argv[1:]))
