"""Print the package's size readings as one JSON line.

    python tools/size.py

takes no options and reads the source tree next to it:

- src_lines: the lines of src/singscat/*.py, as wc -l counts them
- parameters: the parameters of every def and lambda there, counting
  positional-only, positional and keyword-only ones, *args and **kwargs
- public_names: len(singscat.__all__)
- cli_slots: the (subcommand, option) pairs of cli.build_parser(),
  -h/--help left out

Neither singscat nor singscat.cli loads numpy on import, so neither does
this script.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def count_parameters(source: str) -> int:
    """Parameters of every def and lambda in a module's source."""
    total = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            total += len(args.posonlyargs) + len(args.args) + len(args.kwonlyargs)
            total += (args.vararg is not None) + (args.kwarg is not None)
    return total


def cli_slots(parser: argparse.ArgumentParser) -> int:
    """(subcommand, option) pairs of a parser, help actions left out."""
    (subparsers,) = (
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return sum(
        not isinstance(action, argparse._HelpAction)
        for sub in subparsers.choices.values()
        for action in sub._actions
    )


def main() -> None:
    sys.path.insert(0, str(SRC))
    import singscat
    from singscat.cli import build_parser

    texts = [path.read_bytes() for path in sorted((SRC / "singscat").glob("*.py"))]
    reading = {
        "src_lines": sum(text.count(b"\n") for text in texts),
        "parameters": sum(count_parameters(text) for text in texts),
        "public_names": len(singscat.__all__),
        "cli_slots": cli_slots(build_parser()),
    }
    print(json.dumps(reading))


if __name__ == "__main__":
    main()
