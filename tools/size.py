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

Neither singscat nor singscat.cli loads numpy on import, so neither does
this script.
"""

from __future__ import annotations

import ast
import io
import json
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
    }
    print(json.dumps(reading))


if __name__ == "__main__":
    main()
