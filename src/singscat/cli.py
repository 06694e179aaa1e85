"""Command line front end.

Six subcommands cover the library surface: junction, scatter, bound,
radial, mollify, resonance.  Single results are JSON documents on
stdout, sweeps are CSV; --format overrides the default either way.
Exit codes: 0 success, 2 bad arguments, 3 no junction / no scattering
state, 4 numerical failure.  A flat key=value config file can preset the
global options, with command line flags taking precedence.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

from .core import PotentialSpec, ShellPotentialSpec
from .errors import (
    BracketError,
    InsufficientData,
    MissingChoice,
    NoConvergence,
    NoScatteringState,
    SingscatError,
    TransferOverflow,
    UndefinedRegime,
    error_tag,
)
from .junction import (
    DEFAULT_RESONANCE_TOL,
    IvChoice,
    RegimeKind,
    classify_regime,
    junction_matrix,
)
from .mollifier import (
    DEFAULT_TOL_REL,
    SHAPES,
    certify_convergence,
    convergence_sweep,
    resonant_search,
)
from .radial import s_wave_solve
from .scatter import scattering_amplitudes, transmission_curve
from .scatter import bound_states as solve_bound_states
from .serialize import canonical_json, csv_document
from .sweep import sweep_map

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REGIME = 3
EXIT_NUMERIC = 4

# Largest --ksteps grid; a scatter sweep this long takes a few seconds.
MAX_KSTEPS = 100_000

SCATTER_FIELDS = ["k", "re_r", "im_r", "re_t", "im_t", "R", "T", "flux_residual"]
RADIAL_FIELDS = ["k", "a", "delta0", "sigma0"]
MOLLIFY_FIELDS = ["eps", "M11", "M12", "M21", "M22", "det_err", "deviation", "flag"]


class UsageError(SingscatError):
    """Bad command line or config input."""


@dataclass
class RunConfig:
    resonance_tol: float = DEFAULT_RESONANCE_TOL
    int_tol: float = DEFAULT_TOL_REL
    format: str | None = None
    out: str | None = None
    iv_default: bool = False
    iv_a: int | None = None
    iv_b: float | None = None


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise UsageError(f"not a boolean: {raw!r}")


_CONFIG_PARSERS = {
    "resonance_tol": float,
    "int_tol": float,
    "format": str,
    "out": str,
    "iv_default": _parse_bool,
    "iv_a": int,
    "iv_b": float,
}


def load_config(path: str) -> dict:
    """Read a flat key=value file; blank lines and # comments are skipped."""
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _CONFIG_PARSERS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](raw.strip())
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}") from exc
    if "format" in values and values["format"] not in ("json", "csv"):
        raise UsageError("config format must be json or csv")
    if "iv_a" in values and values["iv_a"] not in (1, -1):
        raise UsageError("config iv_a must be +1 or -1")
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the --config file, then command line flags."""
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in load_config(args.config).items():
            setattr(cfg, key, value)
    for key in _CONFIG_PARSERS:
        value = getattr(args, key, None)
        # None is a flag not given; False is --iv-default not given
        if value is not None and value is not False:
            setattr(cfg, key, value)
    return cfg


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the result document to this path")
    common.add_argument("--format", choices=("json", "csv"))
    common.add_argument("--config", help="flat key=value settings file")
    common.add_argument(
        "--resonance-tol",
        type=float,
        dest="resonance_tol",
        help="relative tolerance matching m=2 resonant couplings",
    )
    common.add_argument(
        "--int-tol",
        type=float,
        dest="int_tol",
        help="relative tolerance of the cell integrator",
    )

    # (m, c) of the point potential and the case IV choice
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--m", type=float, required=True)
    point.add_argument("--c", type=float, required=True)
    point.add_argument("--iv-a", type=int, choices=(1, -1), dest="iv_a")
    point.add_argument("--iv-b", type=float, dest="iv_b")
    point.add_argument(
        "--iv-default",
        action="store_true",
        dest="iv_default",
        help="resolve the indeterminate regime with (a, b) = (+1, 0)",
    )

    kgrid = argparse.ArgumentParser(add_help=False)
    kgrid.add_argument("--k", type=float, help="single energy k > 0")
    kgrid.add_argument("--kmin", type=float)
    kgrid.add_argument("--kmax", type=float)
    kgrid.add_argument("--ksteps", type=int, default=50)
    kgrid.add_argument("--kscale", choices=("log", "lin"), default="log")

    parser = argparse.ArgumentParser(
        prog="singscat",
        description="Point scattering for powers of the delta potential.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "junction", parents=[common, point], help="classify (m, c) and print its matrix"
    )
    sub.add_parser(
        "scatter",
        parents=[common, point, kgrid],
        help="reflection/transmission at one energy or over a grid",
    )
    sub.add_parser(
        "bound", parents=[common, point], help="negative-energy states of (m, c)"
    )
    p_radial = sub.add_parser(
        "radial",
        parents=[common, point, kgrid],
        help="s-wave phase shift of a singular shell",
    )
    p_radial.add_argument("--a", type=float, required=True, help="shell radius")

    p_mollify = sub.add_parser(
        "mollify",
        parents=[common, point],
        help="effective junction of the mollified potential over an eps list",
    )
    p_mollify.add_argument("--shape", choices=sorted(SHAPES), required=True)
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
    p_resonance.add_argument("--shape", choices=sorted(SHAPES), required=True)
    p_resonance.add_argument("--n", type=int, required=True)
    p_resonance.add_argument("--c-min", type=float, dest="c_min")
    p_resonance.add_argument("--c-max", type=float, dest="c_max")

    return parser


def _resolve_choice(p: PotentialSpec, cfg: RunConfig) -> IvChoice | None:
    regime = classify_regime(p, cfg.resonance_tol)
    if regime.kind is not RegimeKind.INDETERMINATE:
        return None
    if cfg.iv_a is not None or cfg.iv_b is not None:
        if cfg.iv_a is None or cfg.iv_b is None:
            raise UsageError("the indeterminate regime needs both --iv-a and --iv-b")
        return IvChoice(cfg.iv_a, cfg.iv_b)
    if cfg.iv_default:
        return IvChoice(1, 0.0)
    return None


def _k_grid(args: argparse.Namespace) -> list[float] | None:
    """None for single-point mode, else the sweep grid."""
    sweeping = args.kmin is not None or args.kmax is not None
    if args.k is not None and sweeping:
        raise UsageError("give either --k or a --kmin/--kmax sweep, not both")
    if not sweeping:
        if args.k is None:
            raise UsageError("an energy is required: --k or --kmin/--kmax")
        if not args.k > 0.0:
            raise UsageError(f"k must be positive, got {args.k}")
        return None
    if args.kmin is None or args.kmax is None:
        raise UsageError("sweeps need both --kmin and --kmax")
    if not (args.kmin > 0.0 and args.kmax >= args.kmin):
        raise UsageError("sweeps need 0 < kmin <= kmax")
    if not 1 <= args.ksteps <= MAX_KSTEPS:
        raise UsageError(f"ksteps must be in 1..{MAX_KSTEPS}, got {args.ksteps}")
    if args.ksteps == 1:
        return [args.kmin]
    steps = args.ksteps
    if args.kscale == "log":
        ratio = args.kmax / args.kmin
        return [args.kmin * ratio ** (i / (steps - 1)) for i in range(steps)]
    span = args.kmax - args.kmin
    return [args.kmin + span * i / (steps - 1) for i in range(steps)]


def cmd_junction(args: argparse.Namespace, cfg: RunConfig) -> str:
    p = PotentialSpec(args.m, args.c)
    regime = classify_regime(p, cfg.resonance_tol)
    matrix = junction_matrix(p, _resolve_choice(p, cfg), cfg.resonance_tol)
    doc = {
        "regime": regime.kind.value,
        "n": regime.n,
        "junction": matrix.rows(),
        "det": matrix.det(),
    }
    return canonical_json(doc) + "\n"


def _emit(fields: list[str], rows: list[list], fmt: str | None, sweep: bool) -> str:
    """The one rows -> document path of every tabular subcommand.

    A single point (sweep False, one row) is a JSON object by default, or
    a header plus one CSV row.  A sweep is a CSV table by default, or
    JSON {"rows": [...]}.
    """
    if fmt == "csv" or (fmt is None and sweep):
        return csv_document(fields, rows)
    if sweep:
        return canonical_json({"rows": [dict(zip(fields, row)) for row in rows]}) + "\n"
    return canonical_json(dict(zip(fields, rows[0]))) + "\n"


def _scatter_row(res) -> list:
    """SCATTER_FIELDS of a result, for single points and sweeps alike."""
    r, t = res.r, res.t
    flux = [res.reflect_prob, res.transmit_prob, res.flux_residual]
    return [res.k, r.real, r.imag, t.real, t.imag] + flux


def cmd_scatter(args: argparse.Namespace, cfg: RunConfig) -> str:
    p = PotentialSpec(args.m, args.c)
    matrix = junction_matrix(p, _resolve_choice(p, cfg), cfg.resonance_tol)
    grid = _k_grid(args)
    if grid is None:
        row = _scatter_row(scattering_amplitudes(matrix, args.k))
        return _emit(SCATTER_FIELDS, [row], cfg.format, sweep=False)
    rows = [
        [row.k] + [math.nan] * 7 + [row.error]
        if row.error
        else _scatter_row(row.result) + [""]
        for row in transmission_curve(matrix, grid)
    ]
    return _emit(SCATTER_FIELDS + ["error"], rows, cfg.format, sweep=True)


def cmd_bound(args: argparse.Namespace, cfg: RunConfig) -> str:
    p = PotentialSpec(args.m, args.c)
    matrix = junction_matrix(p, _resolve_choice(p, cfg), cfg.resonance_tol)
    spectrum = solve_bound_states(matrix)
    if spectrum.kind == "discrete":
        doc = {
            "spectrum": [
                {"kappa": kappa, "energy": -kappa * kappa}
                for kappa in spectrum.kappas
            ]
        }
    else:
        doc = {"spectrum": spectrum.kind}
    return canonical_json(doc) + "\n"


def cmd_radial(args: argparse.Namespace, cfg: RunConfig) -> str:
    p = PotentialSpec(args.m, args.c)
    shell = ShellPotentialSpec(p, args.a)
    choice = _resolve_choice(p, cfg)
    junction_matrix(p, choice, cfg.resonance_tol)  # surface regime errors up front
    grid = _k_grid(args)

    def solve(k: float) -> list:
        res = s_wave_solve(shell, k, choice, cfg.resonance_tol)
        return [res.k, res.a, res.delta0, res.sigma0]

    if grid is None:
        return _emit(RADIAL_FIELDS, [solve(args.k)], cfg.format, sweep=False)

    def one(k: float) -> list:
        try:
            return solve(k) + [""]
        except SingscatError as exc:
            return [k, args.a, math.nan, math.nan, error_tag(exc)]

    rows = sweep_map(one, grid)
    return _emit(RADIAL_FIELDS + ["error"], rows, cfg.format, sweep=True)


def cmd_mollify(args: argparse.Namespace, cfg: RunConfig) -> str:
    p = PotentialSpec(args.m, args.c)
    shape = SHAPES[args.shape]
    try:
        eps_list = [float(part) for part in args.eps.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --eps list: {args.eps!r}") from exc
    reference = None
    if args.reference == "junction":
        try:
            reference = junction_matrix(p, _resolve_choice(p, cfg), cfg.resonance_tol)
        except (UndefinedRegime, MissingChoice):
            reference = None
    rows = convergence_sweep(
        p, shape, eps_list, args.k, reference=reference, tol_rel=cfg.int_tol
    )
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
        raise NoConvergence("no eps value produced a transfer matrix")
    return _emit(MOLLIFY_FIELDS, cells, cfg.format, sweep=True)


def cmd_resonance(args: argparse.Namespace, cfg: RunConfig) -> str:
    if (args.c_min is None) != (args.c_max is None):
        raise UsageError("bracket overrides need both --c-min and --c-max")
    bracket = None
    if args.c_min is not None:
        bracket = (args.c_min, args.c_max)
    level, parity = resonant_search(SHAPES[args.shape], args.n, bracket)
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


def _error_doc(exc: Exception) -> tuple[int, str]:
    if isinstance(exc, UndefinedRegime):
        return EXIT_REGIME, canonical_json(
            {"error": "undefined_regime", "reason": exc.reason}
        )
    if isinstance(exc, (MissingChoice, NoScatteringState)):
        return EXIT_REGIME, canonical_json({"error": error_tag(exc)})
    if isinstance(exc, (NoConvergence, TransferOverflow, BracketError, InsufficientData)):
        return EXIT_NUMERIC, canonical_json(
            {"error": error_tag(exc), "message": str(exc)}
        )
    return EXIT_USAGE, canonical_json(
        {"error": "invalid_argument", "message": str(exc)}
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        cfg = resolve_config(args)
        text = _COMMANDS[args.command](args, cfg)
    except (SingscatError, ValueError) as exc:
        code, doc = _error_doc(exc)
        sys.stdout.write(doc + "\n")
        return code
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            code, doc = _error_doc(UsageError(f"cannot write --out file: {exc}"))
            sys.stdout.write(doc + "\n")
            return code
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main_entry() -> None:
    raise SystemExit(main(sys.argv[1:]))
