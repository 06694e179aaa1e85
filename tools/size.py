"""Print the package's size readings as one JSON line.

    python tools/size.py

takes no options and reads the source tree next to it:

- src_lines: the lines of src/singscat/*.py, as wc -l counts them
- code_lines: those of them that hold code, not blank, comment-only or
  part of a docstring, so that a cut shows whether it falls in code
- functions: the defs and lambdas there, so that a removed helper shows
- parameters: the parameters of every def and lambda there, counting
  positional-only, positional and keyword-only ones, *args and **kwargs
- public_names: len(singscat.__all__)
- cli_slots: the (subcommand, option) pairs of the CLI's grammar table,
  cli._GRAMMAR, -h/--help left out
- startup_lines: per canned command line of STARTUP_ARGVS, the lines of
  the singscat modules its process loads, the package's __init__.py
  among them: what a process that writes no bytecode compiles.  Each
  argv runs through cli.main in a child process of its own, which
  reports the files of the singscat modules in sys.modules.

Neither singscat nor singscat.cli loads numpy on import, so neither does
this script; the children of the lab commands do.
"""

from __future__ import annotations

import ast
import io
import json
import subprocess
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# tokens that hold no code: comments and the layout around lines
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}


def count_code_lines(source: str) -> int:
    """Lines of a module's source with a token that is neither a comment,
    layout nor a docstring: a line of a string that is not a docstring
    counts, and so does a line with code before its comment."""
    docstrings = {
        (body[0].lineno, body[0].col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        )
        and (body := node.body)
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    }
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE or (
            token.type == tokenize.STRING and token.start in docstrings
        ):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def functions(source: str) -> list[ast.AST]:
    """The def and lambda nodes of a module's source."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    return [node for node in ast.walk(ast.parse(source)) if isinstance(node, kinds)]


def count_parameters(source: str) -> int:
    """Parameters of every def and lambda in a module's source."""
    total = 0
    for node in functions(source):
        args = node.args
        total += len(args.posonlyargs) + len(args.args) + len(args.kwonlyargs)
        total += (args.vararg is not None) + (args.kwarg is not None)
    return total


def cli_slots(grammar: dict) -> int:
    """(subcommand, option) pairs of a grammar table such as cli._GRAMMAR."""
    return sum(len(options) for _, options in grammar.values())


# One cheap run of each subcommand, a single point and a sweep of the two
# that take either.
STARTUP_ARGVS = {
    "junction": ["junction", "--m", "1", "--c", "-2"],
    "bound": ["bound", "--m", "1", "--c", "-2"],
    "scatter_k": ["scatter", "--m", "1", "--c", "-1", "--k", "2.5"],
    "scatter_sweep": ["scatter", "--m", "1", "--c", "-1", "--kmin", "0.1", "--kmax", "10"],
    "radial_k": ["radial", "--m", "1", "--c", "-2", "--a", "1", "--k", "2.5"],
    "radial_sweep": [
        "radial", "--m", "1", "--c", "-2", "--a", "1", "--kmin", "0.1", "--kmax", "10"
    ],
    "mollify": [
        "mollify", "--m", "1", "--c", "-1", "--shape", "tophat", "--eps", "0.1,0.01"
    ],
    "resonance": ["resonance", "--shape", "tophat", "--n", "1"],
}

# Runs cli.main of the singscat under the src directory argv[1] on the
# rest of argv, its document discarded, then prints as one JSON line the
# exit code and the files of the singscat modules loaded.
_LOADED_FILES = r"""
import json, os, sys
sys.path.insert(0, sys.argv[1])
from singscat import cli
real, sys.stdout = sys.stdout, open(os.devnull, "w")
code = cli.main(sys.argv[2:])
files = [m.__file__ for n, m in sys.modules.items() if n.partition(".")[0] == "singscat"]
real.write(json.dumps([code, sorted(files)]) + "\n")
"""


def startup_lines(src: Path) -> dict[str, int]:
    """{name: lines} of the singscat modules that each argv of
    STARTUP_ARGVS loads, run on the tree under src."""
    lines = {}
    for name, argv in STARTUP_ARGVS.items():
        proc = subprocess.run(
            [sys.executable, "-c", _LOADED_FILES, str(src), *argv],
            capture_output=True, text=True, check=True, timeout=120,
        )
        code, files = json.loads(proc.stdout)
        if code != 0:
            raise RuntimeError(f"singscat {' '.join(argv)} exited {code}")
        lines[name] = sum(Path(file).read_bytes().count(b"\n") for file in files)
    return lines


def main() -> None:
    sys.path.insert(0, str(SRC))
    import singscat
    from singscat.cli import _GRAMMAR

    texts = [path.read_bytes() for path in sorted((SRC / "singscat").glob("*.py"))]
    reading = {
        "src_lines": sum(text.count(b"\n") for text in texts),
        "code_lines": sum(count_code_lines(text.decode("utf-8")) for text in texts),
        "functions": sum(len(functions(text)) for text in texts),
        "parameters": sum(count_parameters(text) for text in texts),
        "public_names": len(singscat.__all__),
        "cli_slots": cli_slots(_GRAMMAR),
        "startup_lines": startup_lines(SRC),
    }
    print(json.dumps(reading))


if __name__ == "__main__":
    main()
