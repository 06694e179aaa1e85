"""Command line front end.

Six subcommands cover the library surface: junction, scatter, bound,
radial, mollify, resonance.  Each takes only the options it reads.
junction, bound and resonance always print one JSON document.  scatter
and radial print a single point as JSON and a sweep as CSV, mollify its
eps table as CSV; these three take --format to pick either.
Exit codes: 0 success, 2 bad arguments or output that cannot be written,
3 no junction / no scattering state, 4 numerical failure or memory
exhausted.

Each command imports the modules it runs when it runs.  Loading this
module loads core, errors, junction and serialize, all that junction and
a refused command line need; scatter and bound add scatter (and the
sweep module it uses), radial adds radial, and mollify and resonance add
the mollifier and, with it, numpy.  No command loads the
json package.

Each command yields its document's text: a sweep a block of rows at a
time, as table_blocks renders them from the sweep's columns, so that a
long table is never held whole.  main writes each block as it comes: to
stdout in pieces of at most 4096 characters, so that Ctrl-C ends a
sweep whose reader has stopped reading, or to a temporary file beside
--out that replaces it once the last block is written.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import re
import stat
import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from types import SimpleNamespace

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
from .junction import IvChoice, Regime, RegimeKind, classify_regime, junction_matrix
from .serialize import canonical_json, table_blocks

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REGIME = 3
EXIT_NUMERIC = 4

# Largest --ksteps grid; a sweep this long takes 0.75-1.1 s end to end for
# scatter and 0.29-0.46 s for radial, in CSV or JSON, on a 2-vCPU VM.
MAX_KSTEPS = 100_000

# Energies per block of a radial sweep: one text block of the table writer.
_RADIAL_BLOCK = 256

# Longest --eps list; an eps row that runs to mollifier.N_CELLS_CAP takes
# 0.74-1.19 s in process on a 2-vCPU VM, so 64 such rows take 47-77 s.
MAX_EPS = 64

SCATTER_FIELDS = ["k", "re_r", "im_r", "re_t", "im_t", "R", "T", "flux_residual"]
RADIAL_FIELDS = ["k", "a", "delta0", "sigma0"]
MOLLIFY_FIELDS = ["eps", "M11", "M12", "M21", "M22", "det_err", "deviation", "flag"]

# The keys of mollifier.SHAPES, sorted: --shape's choices, known without
# building the shapes.
SHAPE_NAMES = ("cosine", "gauss", "tophat", "triangle")


class UsageError(SingscatError):
    """Bad command line input."""


# The grammar of the command line, which main parses, --help prints and
# tools/size.py and the tests read.  An option is (name, dest, type,
# choices, required, default, help): each takes one value, which type
# (float, int or str) converts and which choices, unless None, must hold.
# The groups below are shared by the subcommands that take them.
_OUT = (("--out", "out", str, None, False, None, "write the result document to this path"),)
# (m, c) of the point potential and the case IV choice
_POINT = (
    ("--m", "m", float, None, True, None, "exponent m of the potential c * delta^m"),
    ("--c", "c", float, None, True, None, "coupling c of the potential"),
    ("--iv-a", "iv_a", int, (1, -1), False, None, "case IV sign a, for m > 2 with c < 0"),
    ("--iv-b", "iv_b", float, None, False, None, "case IV number b, for m > 2 with c < 0"),
)
# the output format of the subcommands whose rows go through _emit
_FORMAT = (("--format", "format", str, ("json", "csv"), False, None, "document format"),)
# --ksteps and --kscale default to 50 and log in _k_grid, which refuses either with --k
_KGRID = (
    ("--k", "k", float, None, False, None, "single energy k > 0"),
    ("--kmin", "kmin", float, None, False, None, "lowest energy of a sweep"),
    ("--kmax", "kmax", float, None, False, None, "highest energy of a sweep"),
    ("--ksteps", "ksteps", int, None, False, None, "energies in a sweep (50)"),
    ("--kscale", "kscale", str, ("log", "lin"), False, None, "spacing of a sweep (log)"),
)
_SHAPE = (("--shape", "shape", str, SHAPE_NAMES, True, None, "mollifier shape"),)

# Each subcommand's help line and its options, in the order --help lists them.
_GRAMMAR = {
    "junction": ("classify (m, c) and print its matrix", (*_OUT, *_POINT)),
    "scatter": (
        "reflection/transmission at one energy or over a grid",
        (*_OUT, *_POINT, *_FORMAT, *_KGRID),
    ),
    "bound": ("negative-energy states of (m, c)", (*_OUT, *_POINT)),
    "radial": (
        "s-wave phase shift of a singular shell",
        (*_OUT, *_POINT, *_FORMAT, *_KGRID,
         ("--a", "a", float, None, True, None, "shell radius")),
    ),
    "mollify": (
        "effective junction of the mollified potential over an eps list",
        (
            *_OUT, *_POINT, *_FORMAT, *_SHAPE,
            ("--eps", "eps", str, None, True, None,
             "comma list of widths, strictly decreasing"),
            ("--k", "k", float, None, False, 1.0, "energy k > 0 (1.0)"),
            ("--reference", "reference", str, ("junction", "none"), False, "junction",
             "deviation baseline: the closed-form junction matrix, or none"),
        ),
    ),
    "resonance": (
        "resonant couplings of the m=2 scaling limit for a shape",
        (*_OUT, *_SHAPE, ("--n", "n", int, None, True, None, "level index n")),
    ),
}

_HELP = ("-h", "--help")

# A value such as -1e-3, -.5E2, -inf or -NaN is a negative number, not an
# option; no option name looks like a number, so none is shadowed.
_NEGATIVE_NUMBER = r"(?i)^-(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|infinity|nan)$"


def _option_of(token: str, names: Sequence[str]) -> tuple | None:
    """What token is among the option names: None for a value, else
    (name, value), value being what follows "=" or runs on after -h, or
    None.

    The token may be a name or the prefix of one name alone; a prefix of
    several is refused.  A token that starts with "-" but names no option
    gives (None, None), unless it is a negative number or holds a space,
    which make it a value.
    """
    if not token.startswith("-"):
        return None
    if token in names:
        return token, None
    if len(token) == 1:
        return None
    name, eq, value = token.partition("=")
    if eq and name in names:
        return name, value
    if token[1] == "-":
        found = [(full, value if eq else None) for full in names if full.startswith(name)]
    else:  # -h, with what runs on after it
        found = [(full, token[2:]) for full in names if full == token[:2]]
    if len(found) > 1:
        matches = ", ".join(full for full, _ in found)
        raise UsageError(f"ambiguous option: {token} could match {matches}")
    if found:
        return found[0]
    # re compiles the pattern on its first use, which a plain decimal such
    # as -2.5 does not need
    negative = token[1:].replace(".", "", 1).isdecimal() or re.match(_NEGATIVE_NUMBER, token)
    return None if negative or " " in token else (None, None)


def _help(name: str, value: str | None, command: str | None) -> None:
    """Print the usage of command, or of singscat for None, and a line per
    command or option, and exit.

    A value after "=", or one run on to -h other than more h's, is refused.
    """
    if value is not None:
        rest = value.lstrip("h") if name == "-h" else value
        if rest or not value:
            raise UsageError(f"argument -h/--help: ignored explicit argument {rest!r}")
    if command is None:
        usage = "singscat [-h] {%s} ..." % ",".join(_GRAMMAR)
        about = "Point scattering for powers of the delta potential."
        rows = [(name, line) for name, (line, _) in _GRAMMAR.items()]
    else:
        about, options = _GRAMMAR[command]
        usage, rows = f"singscat {command} [-h]", []
        for name, dest, _, choices, required, _, line in options:
            metavar = "{%s}" % ",".join(map(str, choices)) if choices else dest.upper()
            usage += f" {name} {metavar}" if required else f" [{name} {metavar}]"
            rows.append((f"{name} {metavar}", line))
    rows.insert(0, ("-h, --help", "show this help message and exit"))
    sys.stdout.write(f"usage: {usage}\n\n{about}\n\n")
    sys.stdout.writelines(f"  {left:<22}  {line}\n" for left, line in rows)
    raise SystemExit(EXIT_OK)


def _check_choice(name: str, value, choices) -> None:
    if value not in choices:
        spelled = ", ".join(map(repr, choices))
        raise UsageError(f"argument {name}: invalid choice: {value!r} (choose from {spelled})")


def _parse(argv: list[str]) -> SimpleNamespace:
    """The subcommand and options of argv; -h or --help prints its text
    and exits 0.

    Before the subcommand only -h and --help are options.  Its options
    are read left to right, a repeated one keeping its last value, and
    each value is converted and checked as it is read.  The required
    options are checked after all of them, and a token that is neither
    the subcommand nor one of its options, nor an option's value, is
    refused last.  A refusal raises UsageError with argparse's message.
    """
    extras = []
    for at, token in enumerate(argv):
        reading = (None, None) if token == "--" else _option_of(token, _HELP)
        # a "--" with a token after it is read as the subcommand
        if reading is None or token == "--" and at + 1 < len(argv):
            break
        if reading[0] is not None:
            _help(*reading, None)
        extras.append(token)
    else:
        raise UsageError("the following arguments are required: command")
    _check_choice("command", token, _GRAMMAR)
    command, argv = token, argv[at + 1 :]
    options = {option[0]: option for option in _GRAMMAR[command][1]}
    args = SimpleNamespace(command=command, **{o[1]: o[5] for o in options.values()})
    # every ambiguous prefix is refused before any value is read; "--"
    # names no option, every token after it is a value, and there is no
    # value past the last token
    cut = argv.index("--") if "--" in argv else len(argv)
    readings = [_option_of(token, (*_HELP, *options)) for token in argv[:cut]]
    readings += [(None, None), *[None] * (len(argv) - cut - 1), (None, None)]
    given, at = set(), 0
    while at < len(argv):
        name, value = readings[at] or (None, None)
        at += 1
        if name is None:
            extras.append(argv[at - 1])
            continue
        if name in _HELP:
            _help(name, value, command)
        if value is None:
            if readings[at] is not None:
                raise UsageError(f"argument {name}: expected one argument")
            value, at = argv[at], at + 1
        _, dest, kind, choices, _, _, _ = options[name]
        try:
            value = kind(value)
        except ValueError:
            raise UsageError(
                f"argument {name}: invalid {kind.__name__} value: {value!r}"
            ) from None
        if choices is not None:
            _check_choice(name, value, choices)
        setattr(args, dest, value)
        given.add(name)
    missing = [name for name, option in options.items() if option[4] and name not in given]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _resolve_choice(
    p: PotentialSpec, args: SimpleNamespace
) -> tuple[Regime, IvChoice | None]:
    """The regime of p and the case IV choice of the flags, which are
    refused in any other regime."""
    regime = classify_regime(p)
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
    return regime, (IvChoice(args.iv_a, args.iv_b) if given else None)


class _Grid(Sequence):
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


def _k_grid(args: SimpleNamespace) -> Sequence[float] | None:
    """None for single-point mode, else the sweep grid, a _Grid."""
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
    return _Grid(args.kmin, args.kmax, steps, args.kscale != "lin")


def cmd_junction(args: SimpleNamespace) -> Iterator[str]:
    p = PotentialSpec(args.m, args.c)
    regime, choice = _resolve_choice(p, args)
    matrix = junction_matrix(p, choice)
    doc = {
        "regime": regime.kind.value,
        "n": regime.n,
        "junction": matrix.rows(),
        "det": matrix.det(),
    }
    yield canonical_json(doc) + "\n"


def _emit(
    fields: list[str], blocks: Iterable[Sequence], fmt: str | None, sweep: bool
) -> Iterable[str]:
    """The one columns -> document path of every tabular subcommand.

    blocks hold one column per field, as table_blocks takes them.  A
    single point (sweep False, one block of one row) is a JSON object by
    default, or a header plus one CSV row.  A sweep is a CSV table by
    default, or JSON {"rows": [...]}.
    """
    if fmt == "csv" or (fmt is None and sweep):
        return table_blocks(fields, blocks, "csv")
    if sweep:
        return table_blocks(fields, blocks, "json")
    (columns,) = blocks
    return [canonical_json(dict(zip(fields, next(zip(*columns))))) + "\n"]


def cmd_scatter(args: SimpleNamespace) -> Iterator[str]:
    from .scatter import _amplitude_columns, scattering_amplitudes

    p = PotentialSpec(args.m, args.c)
    _, choice = _resolve_choice(p, args)
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


def cmd_bound(args: SimpleNamespace) -> Iterator[str]:
    from .scatter import bound_states

    p = PotentialSpec(args.m, args.c)
    _, choice = _resolve_choice(p, args)
    matrix = junction_matrix(p, choice)
    spectrum = bound_states(matrix)
    if spectrum.kind == "discrete":
        doc = {
            "spectrum": [
                {"kappa": kappa, "energy": energy}
                for kappa, energy in zip(spectrum.kappas, spectrum.energies)
            ]
        }
    else:
        doc = {"spectrum": spectrum.kind}
    yield canonical_json(doc) + "\n"


def cmd_radial(args: SimpleNamespace) -> Iterator[str]:
    from .radial import _s_wave_columns, s_wave_solve

    p = PotentialSpec(args.m, args.c)
    shell = ShellPotentialSpec(p, args.a)
    _, choice = _resolve_choice(p, args)
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


def cmd_mollify(args: SimpleNamespace) -> Iterator[str]:
    from .mollifier import SHAPES, certify_convergence, convergence_sweep

    p = PotentialSpec(args.m, args.c)
    shape = SHAPES[args.shape]
    try:
        eps_list = [float(part) for part in args.eps.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --eps list: {args.eps!r}") from exc
    if len(eps_list) > MAX_EPS:
        raise UsageError(f"--eps takes at most {MAX_EPS} widths, got {len(eps_list)}")
    _, choice = _resolve_choice(p, args)
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
    yield from _emit(MOLLIFY_FIELDS, [list(zip(*cells))], args.format, sweep=True)


def cmd_resonance(args: SimpleNamespace) -> Iterator[str]:
    from .mollifier import SHAPES, resonant_search

    level, parity = resonant_search(SHAPES[args.shape], args.n)
    doc = {"n": args.n, "c_n": level, "parity": parity}
    yield canonical_json(doc) + "\n"


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
    elif isinstance(exc, MemoryError):
        code, doc = EXIT_NUMERIC, {"error": "out_of_memory"}
    else:
        code, doc = EXIT_USAGE, {"error": "invalid_argument", "message": str(exc)}
    sys.stdout.write(canonical_json(doc) + "\n")
    return code


def _write_out(path: str, blocks: Iterable[str]) -> None:
    """Write the blocks to the file at path.

    The text goes to a temporary file in the directory of path (or of the
    file a symlink at path names), which replaces that file once the last
    block is written: a run that fails leaves no file, and no half-written
    one.  An existing file keeps its mode, and a read-only one is refused
    as open(path, "w") refuses it.  A path that is not a regular file,
    such as /dev/null or a pipe, is written in place.
    """
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(blocks)
        return
    if mode is not None:
        os.close(os.open(target, os.O_WRONLY))
    temp = os.path.join(os.path.dirname(target), f".singscat-{os.getpid()}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        if mode is not None:
            os.fchmod(fd, stat.S_IMODE(mode))
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(blocks)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        blocks = _COMMANDS[args.command](args)
        # every refusal, those of the first block's rows too, comes before
        # the first byte is written
        blocks = chain([next(blocks)], blocks)
        if args.out:
            try:
                _write_out(args.out, blocks)
            except OSError as exc:  # spelled as if open(args.out, "w") failed
                named = OSError(exc.errno, exc.strerror, args.out)
                raise UsageError(f"cannot write --out file: {named}") from exc
        else:
            # Python runs a signal's handler at its next check, such as
            # after a call returns, and none falls between a block's
            # rendering and a write of it: a Ctrl-C that landed while a
            # block was rendered would wait for that write, which never
            # returns on a full pipe no longer read.  In pieces, the range()
            # call and each piece's write are checks, and a piece of at most
            # PIPE_BUF bytes (the text is ASCII) blocked on a pipe fails
            # whole with EINTR, on which Python runs the handler.
            for text in blocks:
                for lo in range(0, len(text), 4096):
                    sys.stdout.write(text[lo : lo + 4096])
    except SystemExit as exc:  # only --help exits, after printing its text
        return exc.code
    except (SingscatError, ValueError, MemoryError) as exc:
        return _fail(exc)
    return EXIT_OK


def main_entry() -> None:
    """The singscat command: main on sys.argv, then stdout flushed.

    A failure to write stdout, a closed pipe or a full device, exits 2 with
    the error document on stderr.  stdout's descriptor then points at
    os.devnull, as the "Note on SIGPIPE" in the signal module's
    documentation does, so that the flush at interpreter exit does not fail
    again on what is still buffered.  Ctrl-C ends the process by SIGINT
    under its default action, with no traceback: the shell sees status 130.

    Every object the process made is frozen before the exit, so that the
    collections of interpreter shutdown skip them.  atexit handlers, the
    flushes of stdout and stderr and module teardown still run, as they
    would not after os._exit.
    """
    # OpenBLAS starts a thread per CPU when numpy loads, and the 2x2
    # products gain nothing from them; a value the caller set is kept
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except OSError as exc:  # from stdout: main turns --out's errors into documents
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        doc = {"error": "invalid_argument", "message": f"cannot write stdout: {exc}"}
        with contextlib.suppress(OSError):  # stderr may share the closed pipe
            sys.stderr.write(canonical_json(doc) + "\n")
        code = EXIT_USAGE
    except KeyboardInterrupt:
        import signal

        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
        code = 128 + signal.SIGINT  # the shell's status for it, should SIGINT be blocked
    gc.freeze()
    raise SystemExit(code)
