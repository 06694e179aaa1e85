"""Print one SHA-256 per benchmark workload over every output of its replay.

    python tools/replay.py [--parent REV]

Without --parent it replays the source tree next to it.  For each
workload of perfbench/workloads.py it runs the first CYCLES cycles of
each seed in SEEDS, in this process with numpy loaded, and hashes every
op's output: floats (complex parts included) as float.hex, everything
else as repr, walking tuples and lists.  The cli_oneshot ops run through
cli.main in this process instead of a child, so that every workload runs
the same kernels.  It prints one line per workload:

    <workload> <sha256> <outputs hashed>

then one line named cli_sweep_formats: the same hash over every sweep
argv (one with --kmin) of the CLI_WORKLOADS cycles, each run through
cli.main in CSV and in JSON, so that every table is replayed in both
formats; then one line named cli_grammar: the same hash over a corpus
of command lines that grammar_argvs enumerates from this tree's CLI
grammar table, each run through cli.main with a temporary directory as
the working directory, a usage text hashed by its exit code alone; and
then one line named cli_without_numpy: the same hash over
the outputs of the COMMANDS argvs of the CLI_WORKLOADS cycles, run
through cli.main in a child process that never imports numpy, so that
the CLI's scalar kernel is replayed too; and last one line named
cli_regime_energies: the same hash over the regime x energy corpus of
regime_argvs, run through cli.main in this process and then in a child
that never imports numpy.  A child fails, and so does the replay, if
numpy is loaded when its last argv has run.  Any op that
leaves the cyclic garbage collector disabled ends the replay with exit
status 1 and a message that names the op.

With --parent REV, the commit REV is cloned from this repository into a
temporary directory (a local clone, no network), checked out and
removed afterwards, as tools/bench_pairs.py clones it.  Both trees are
replayed by this script, each in a process of its own, and each line
becomes

    <name> <parent sha256> <parent count> <change sha256> <change count> same|DIFFERENT

The exit status is then 1 if any name's hash or count differs, or is
missing on one side, else 0.  --tree, --without-numpy and --regime-outputs
are what the replay's own child processes run.

Two trees whose lines agree gave the same bits on every output, but for
the sign and payload of a nan, which float.hex does not show.
perfbench/workloads.py is imported, never changed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from collections.abc import Iterable, Iterator
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
CYCLES = 2
# The subcommands and workloads of the pass without numpy: every CLI
# sweep and point of the closed forms, none of the mollifier lab's
CLI_WORKLOADS = ("cli_oneshot", "closed_form_sweep")
COMMANDS = ("scatter", "radial", "junction", "bound")
WITHOUT_NUMPY = "cli_without_numpy"
SWEEP_FORMATS = "cli_sweep_formats"
GRAMMAR = "cli_grammar"
REGIME = "cli_regime_energies"

# The regime x energy corpus: (m, c) and the case IV flags of one spec per
# junction class, then two shells whose c a passes the float maximum at
# a = 2 and 1e5; the radial radii; the single energies, two of them
# refused; and two sweeps, a log one whose kmax / kmin overflows and a
# linear one.
REGIME_SPECS = (
    ("--m", "0.5", "--c", "3"),  # no effect
    ("--m", "1", "--c", "2"),  # delta, repulsive
    ("--m", "1", "--c", "-2"),  # delta, attractive
    ("--m", "2", "--c", repr(-((2 * math.pi) ** 2))),  # m = 2 level n = 2: +I
    ("--m", "3", "--c", "-1", "--iv-a", "1", "--iv-b", "0.5"),  # case IV
    ("--m", "3", "--c", "-1", "--iv-a", "-1", "--iv-b", "0.5"),
    ("--m", "2", "--c", repr(-(math.pi**2))),  # sign flip: -I
    ("--m", "1.5", "--c", "1"),  # undefined
    ("--m", "1", "--c", "1e308"),
    ("--m", "1", "--c", "-1e308"),
)
REGIME_RADII = ("1e-3", "1", "2", "1e5")
REGIME_ENERGIES = ("5e-324", "1e-300", "1e-30", "1", "1e28", "1e300", "-1", "nan")
REGIME_SWEEPS = (
    ("--kmin", "5e-324", "--kmax", "1.7e308", "--ksteps", "9"),
    ("--kmin", "1e-300", "--kmax", "1e300", "--ksteps", "9", "--kscale", "lin"),
)

# Prints, as one JSON line, the grammar table of the singscat under the
# src directory argv[1]: per subcommand, each option's name, the name of
# its type, its choices and whether it is required.
_GRAMMAR_PROBE = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
from singscat.cli import _GRAMMAR
print(json.dumps({
    command: [(name, kind.__name__, choices, required)
              for name, _, kind, choices, required, _, _ in options]
    for command, (_, options) in _GRAMMAR.items()
}))
"""


def load_workloads(tree: Path = ROOT, numpy: bool = True):
    """perfbench/workloads.py of tree, with tree's src first on the path,
    and numpy loaded unless numpy is False."""
    for path in (tree / "perfbench", tree / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    if numpy:
        import numpy  # noqa: F401  the array kernels run once numpy is loaded
    import workloads

    return workloads


def outputs(workload: str, seed: int, cycles: int = CYCLES, tree: Path = ROOT) -> Iterator:
    """The outputs of a workload's first cycles at seed, op by op."""
    W = load_workloads(tree)
    stream = W.cycles(workload, seed)
    for cycle in range(cycles):
        for index, op in enumerate(next(stream)):
            output = W.capture_main(op.params["argv"]) if op.kind == "cli" else W.run_op(op)
            name = f"{workload} seed {seed} cycle {cycle} op {index} ({op.kind})"
            yield collector_on(output, name)


def cli_argvs(W) -> Iterator[list[str]]:
    """The argvs of the CLI ops of CLI_WORKLOADS' first CYCLES cycles of
    each seed in SEEDS, from the workloads module W."""
    for workload in CLI_WORKLOADS:
        for seed in SEEDS:
            stream = W.cycles(workload, seed)
            for _ in range(CYCLES):
                for op in next(stream):
                    if op.kind in ("cli", "main"):
                        yield op.params["argv"]


def cli_outputs(tree: Path = ROOT) -> Iterator:
    """The outputs of cli.main on the COMMANDS argvs of cli_argvs,
    without loading numpy."""
    W = load_workloads(tree, numpy=False)
    for argv in cli_argvs(W):
        if argv[0] in COMMANDS:
            yield collector_on(W.capture_main(argv), " ".join(argv))


def sweep_outputs(tree: Path = ROOT) -> Iterator:
    """The outputs of cli.main on each sweep argv of cli_argvs, in CSV
    and then in JSON, whatever --format the argv names."""
    W = load_workloads(tree)
    for argv in cli_argvs(W):
        if "--kmin" in argv:
            if "--format" in argv:
                at = argv.index("--format")
                argv = argv[:at] + argv[at + 2 :]
            for fmt in ("csv", "json"):
                run = [*argv, "--format", fmt]
                yield collector_on(W.capture_main(run), " ".join(run))


def grammar() -> dict:
    """The CLI grammar table of this tree, as _GRAMMAR_PROBE prints it.

    It is read in a process of its own, so that both trees of --parent
    replay the same corpus.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _GRAMMAR_PROBE, str(ROOT / "src")],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout)


def grammar_argvs(table: dict) -> Iterator[list[str]]:
    """The command lines of the cli_grammar corpus over a grammar table.

    For each subcommand, each option is written as its name, as its
    shortest unique prefix and its longest ambiguous one (where it has
    them), each followed by no value, a valid value, "-1", "--bogus",
    a bad type ("x") and a bad choice, and in the name=value form with the
    same values and with none; the other required options come first,
    with valid values.  Then each required option is left out, the stray
    tokens --bogus, x, - and -- follow a valid command line, -h comes
    before and after a bad value, and options come before the
    subcommand.  The corpus opens with the empty command line.
    """
    yield []
    for command, options in table.items():
        names = ["--help", *(option[0] for option in options)]
        valid = {
            name: str(choices[0]) if choices else "x" if kind == "str" else "1"
            for name, kind, choices, _ in options
        }
        required = [[name, valid[name]] for name, _, _, needed in options if needed]
        base = [command, *chain.from_iterable(required)]
        for name, kind, choices, _ in options:
            rest = [command, *chain.from_iterable(pair for pair in required if pair[0] != name)]
            matching = {
                name[:end]: sum(other.startswith(name[:end]) for other in names)
                for end in range(3, len(name))
            }
            unique = [prefix for prefix, count in matching.items() if count == 1]
            ambiguous = [prefix for prefix, count in matching.items() if count > 1]
            values = [valid[name], "-1", "--bogus"]
            values += ["x"] if kind != "str" else []
            values += ["3" if kind == "int" else "bogus"] if choices else []
            for spelled in [name, *unique[:1], *ambiguous[-1:]]:
                yield [*rest, spelled]
                for value in values:
                    yield [*rest, spelled, value]
            yield [*rest, f"{name}="]
            for value in values:
                yield [*rest, f"{name}={value}"]
        for pair in required:
            yield [command, *chain.from_iterable(other for other in required if other is not pair)]
        for stray in ("--bogus", "x", "-", "--"):
            yield [*base, stray]
        typed = next(name for name, kind, _, _ in options if kind != "str")
        yield [command, "-h", typed, "x"]
        yield [command, typed, "x", "-h"]
        yield [*base[1:3], command, *base[3:]]
        yield ["--bogus", *base]
        yield ["-h", *base]


def grammar_outputs(tree: Path = ROOT) -> Iterator:
    """The outputs of cli.main on each command line of the cli_grammar
    corpus, run in a temporary working directory that takes any --out
    file; a usage text is replaced by its exit code alone."""
    W, cwd = load_workloads(tree), os.getcwd()
    with tempfile.TemporaryDirectory(prefix="replay_") as scratch:
        os.chdir(scratch)
        try:
            for argv in grammar_argvs(grammar()):
                code, out, err = W.capture_main(argv)
                output = code if out.startswith("usage:") else (code, out, err)
                yield collector_on(output, " ".join(argv))
        finally:
            os.chdir(cwd)


def regime_argvs() -> Iterator[list[str]]:
    """The command lines of the cli_regime_energies corpus: per spec of
    REGIME_SPECS, bound, then scatter and radial at each radius of
    REGIME_RADII over each energy and sweep, in CSV and in JSON."""
    grids = [("--k", k) for k in REGIME_ENERGIES] + list(REGIME_SWEEPS)
    for spec in REGIME_SPECS:
        yield ["bound", *spec]
        for head in [["scatter"], *(["radial", "--a", a] for a in REGIME_RADII)]:
            for grid in grids:
                for fmt in ("csv", "json"):
                    yield [*head, *spec, *grid, "--format", fmt]


def regime_outputs(tree: Path = ROOT, numpy: bool = True) -> Iterator:
    """The outputs of cli.main on each command line of regime_argvs,
    with numpy loaded unless numpy is False."""
    W = load_workloads(tree, numpy=numpy)
    for argv in regime_argvs():
        yield collector_on(W.capture_main(argv), " ".join(argv))


def regime_outputs_without_numpy(tree: Path = ROOT) -> Iterator:
    """regime_outputs of a child that never imports numpy, read back from
    the JSON line it prints per output; SystemExit if the child fails."""
    child = subprocess.run(
        [sys.executable, __file__, "--tree", str(tree), "--regime-outputs"],
        stdout=subprocess.PIPE, text=True,
    )
    if child.returncode != 0:
        raise SystemExit(f"replay: the {REGIME} child exited {child.returncode}")
    return (tuple(json.loads(line)) for line in child.stdout.splitlines())


def collector_on(output, op: str):
    """output, if the op named op left the cyclic garbage collector on;
    else SystemExit, naming op."""
    if not gc.isenabled():
        raise SystemExit(f"replay: {op} left the garbage collector disabled")
    return output


def tokens(value, out: list[str]) -> list[str]:
    """out, extended by float.hex of each float in value and repr of
    everything else, in order.

    A tuple or list opens with its type's name and length, so that two
    nestings of the same leaves hash apart.
    """
    if isinstance(value, float):
        out.append(float.hex(value))
    elif isinstance(value, complex):
        out += (float.hex(value.real), float.hex(value.imag))
    elif isinstance(value, (tuple, list)):
        out.append(f"{type(value).__name__}[{len(value)}]")
        for item in value:
            tokens(item, out)
    else:
        out.append(repr(value))
    return out


def digest(values: Iterable) -> tuple[str, int]:
    """SHA-256 over the tokens of every value, and how many values."""
    sha, count = hashlib.sha256(), 0
    for value in values:
        sha.update("\0".join(tokens(value, [])).encode("utf-8") + b"\n")
        count += 1
    return sha.hexdigest(), count


def parse(text: str) -> dict[str, tuple[str, str]]:
    """The (sha256, count) of each name in the lines of a replay."""
    digests = {}
    for line in text.splitlines():
        name, sha, count = line.split()
        digests[name] = (sha, count)
    return digests


def compare(
    parent: dict[str, tuple[str, str]], change: dict[str, tuple[str, str]]
) -> tuple[list[str], int]:
    """The --parent report's lines, and its exit status: 1 if any name's
    hash or count differs between the two sides, or is missing on one."""
    lines, status = [], 0
    for name in dict.fromkeys([*parent, *change]):
        before, after = parent.get(name, ("-", "-")), change.get(name, ("-", "-"))
        same = before == after and "-" not in before
        status |= not same
        verdict = "same" if same else "DIFFERENT"
        lines.append(f"{name} {before[0]} {before[1]} {after[0]} {after[1]} {verdict}")
    return lines, status


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, capture_output=True, text=True, check=True
    ).stdout.strip()


@contextlib.contextmanager
def parent_tree(rev: str) -> Iterator[Path]:
    """A local clone of this repository checked out at rev, removed on exit."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    scratch = Path(tempfile.mkdtemp(prefix="replay_"))
    try:
        parent = scratch / "parent"
        git("clone", "--quiet", "--shared", "--no-checkout", str(ROOT), str(parent))
        git("checkout", "--quiet", sha, cwd=parent)
        yield parent
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_tree(tree: Path) -> dict[str, tuple[str, str]]:
    """The digests of a replay of tree, in a process of its own."""
    proc = subprocess.run(
        [sys.executable, __file__, "--tree", str(tree)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return parse(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="commit whose replay to compare with this tree's")
    parser.add_argument("--tree", type=Path, default=ROOT, help="source tree to replay")
    parser.add_argument(
        "--without-numpy", action="store_true", help=f"print the {WITHOUT_NUMPY} line alone"
    )
    parser.add_argument(
        "--regime-outputs", action="store_true",
        help=f"print the {REGIME} outputs without numpy, one JSON line each",
    )
    args = parser.parse_args(argv)
    if args.parent is not None:
        with parent_tree(args.parent) as parent:
            lines, status = compare(run_tree(parent), run_tree(ROOT))
        print(*lines, sep="\n")
        return status
    if args.without_numpy or args.regime_outputs:
        if args.without_numpy:
            print(WITHOUT_NUMPY, *digest(cli_outputs(args.tree)), flush=True)
        else:
            for output in regime_outputs(args.tree, numpy=False):
                print(json.dumps(output))
        if "numpy" in sys.modules:
            print("numpy was loaded by the replay without numpy", file=sys.stderr)
            return 1
        return 0
    workloads = load_workloads(args.tree)
    for workload in workloads.WORKLOADS:
        values = (out for seed in SEEDS for out in outputs(workload, seed, tree=args.tree))
        print(workload, *digest(values), flush=True)
    print(SWEEP_FORMATS, *digest(sweep_outputs(args.tree)), flush=True)
    print(GRAMMAR, *digest(grammar_outputs(args.tree)), flush=True)
    child = subprocess.run(
        [sys.executable, __file__, "--tree", str(args.tree), "--without-numpy"],
        stdout=subprocess.PIPE, text=True,
    )
    print(child.stdout, end="", flush=True)
    if child.returncode != 0:
        return child.returncode
    values = chain(regime_outputs(args.tree), regime_outputs_without_numpy(args.tree))
    print(REGIME, *digest(values), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
