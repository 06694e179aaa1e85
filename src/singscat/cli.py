"""Command line front end.

Six subcommands cover the library surface: junction, scatter, bound,
radial, mollify, resonance.  Each takes only the options it reads.
junction, bound and resonance always print one JSON document.  scatter
and radial print a single point as JSON and a sweep as CSV, mollify its
eps table as CSV; these three take --format to pick either.
Exit codes: 0 success, 2 bad arguments or output that cannot be written,
3 no junction / no scattering state, 4 numerical failure or memory
exhausted.

A process compiles only the code its command can run.  This module
holds what every command runs: the grammar table and its parser, the
regime and case IV check, the error documents and the writing of
stdout, and the two one-document commands, junction and bound.  Loading
it loads core, errors, junction and serialize, all that junction and a
refused command line need.  main imports the module of any other
command when it runs (_COMMANDS): bound adds scatter, and the sweep
module scatter uses; scatter and radial add cli_energy and their own
kernel module, scatter or radial; and mollify and resonance add cli_lab,
the mollifier and, with it, numpy.  A sweep, CSV output and mollify's
table add table, the grid and the table writer; --out adds cli_out, its
writer, and --help cli_help, its text.  scatter's array kernel,
amplitude_kernel, loads only where numpy already is, so no closed-form
command compiles it.  No command loads the json package.

Each command yields its document's text: a sweep a block of rows at a
time, as table.table_blocks renders them from the sweep's columns, so
that a long table is never held whole.  main writes each block as it
comes: to stdout in pieces of at most 4096 characters, so that Ctrl-C
ends a sweep whose reader has stopped reading, or to a temporary file
beside --out that replaces it once the last block is written.
"""

from __future__ import annotations

import contextlib
import gc
import os
import re
import sys
from collections.abc import Iterator, Sequence
from importlib import import_module
from itertools import chain
from types import SimpleNamespace

from .core import PotentialSpec
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
from .serialize import canonical_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REGIME = 3
EXIT_NUMERIC = 4

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
# the output format of the subcommands whose documents may be tables
_FORMAT = (("--format", "format", str, ("json", "csv"), False, None, "document format"),)
# --ksteps and --kscale default to 50 and log in cli_energy._k_grid, which
# refuses either with --k
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
    from .cli_help import write_usage

    write_usage(_GRAMMAR, command)
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


def resolve_choice(
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


def cmd_junction(args: SimpleNamespace) -> Iterator[str]:
    p = PotentialSpec(args.m, args.c)
    regime, choice = resolve_choice(p, args)
    matrix = junction_matrix(p, choice)
    doc = {
        "regime": regime.kind.value,
        "n": regime.n,
        "junction": matrix.rows(),
        "det": matrix.det(),
    }
    yield canonical_json(doc) + "\n"


def cmd_bound(args: SimpleNamespace) -> Iterator[str]:
    from .scatter import bound_states

    p = PotentialSpec(args.m, args.c)
    _, choice = resolve_choice(p, args)
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


# Each subcommand, grouped by the module that defines its cmd_<name>;
# main imports that module when the subcommand runs.
_COMMANDS = {
    "cli": ("junction", "bound"),
    "cli_energy": ("scatter", "radial"),
    "cli_lab": ("mollify", "resonance"),
}
# Each subcommand's module.
_MODULE = {command: module for module, names in _COMMANDS.items() for command in names}


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


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        module = import_module(f"{__package__}.{_MODULE[args.command]}")
        blocks = getattr(module, f"cmd_{args.command}")(args)
        # every refusal, those of the first block's rows too, comes before
        # the first byte is written
        blocks = chain([next(blocks)], blocks)
        if args.out:
            from .cli_out import write_out

            try:
                write_out(args.out, blocks)
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
