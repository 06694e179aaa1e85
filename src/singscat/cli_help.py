"""The text of --help, which cli loads only when --help is given."""

from __future__ import annotations

import sys


def write_usage(grammar: dict, command: str | None) -> None:
    """Write to stdout the usage of command, or of singscat for None, and
    a line per command or option of grammar, a table such as cli._GRAMMAR.
    """
    if command is None:
        usage = "singscat [-h] {%s} ..." % ",".join(grammar)
        about = "Point scattering for powers of the delta potential."
        rows = [(name, line) for name, (line, _) in grammar.items()]
    else:
        about, options = grammar[command]
        usage, rows = f"singscat {command} [-h]", []
        for name, dest, _, choices, required, _, line in options:
            metavar = "{%s}" % ",".join(map(str, choices)) if choices else dest.upper()
            usage += f" {name} {metavar}" if required else f" [{name} {metavar}]"
            rows.append((f"{name} {metavar}", line))
    rows.insert(0, ("-h, --help", "show this help message and exit"))
    sys.stdout.write(f"usage: {usage}\n\n{about}\n\n")
    sys.stdout.writelines(f"  {left:<22}  {line}\n" for left, line in rows)
