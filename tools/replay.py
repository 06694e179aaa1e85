"""Print one SHA-256 per benchmark workload over every output of its replay.

    python tools/replay.py

takes no options and replays the source tree next to it.  For each
workload of perfbench/workloads.py it runs the first CYCLES cycles of
each seed in SEEDS, in this process with numpy loaded, and hashes every
op's output: floats (complex parts included) as float.hex, everything
else as repr, walking tuples and lists.  The cli_oneshot ops run through
cli.main in this process instead of a child, so that every workload runs
the same kernels.  It prints one line per workload:

    <workload> <sha256> <outputs hashed>

Two trees whose lines agree gave the same bits on every output, but for
the sign and payload of a nan, which float.hex does not show.
perfbench/workloads.py is imported, never changed.
"""

from __future__ import annotations

import hashlib
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
CYCLES = 2


def load_workloads():
    """perfbench/workloads.py, with this tree's src first on the path."""
    for path in (ROOT / "perfbench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import numpy  # noqa: F401  the array kernels run once numpy is loaded
    import workloads

    return workloads


def outputs(workload: str, seed: int, cycles: int = CYCLES) -> Iterator:
    """The outputs of a workload's first cycles at seed, op by op."""
    W = load_workloads()
    stream = W.cycles(workload, seed)
    for _ in range(cycles):
        for op in next(stream):
            if op.kind == "cli":
                yield W.capture_main(op.params["argv"])
            else:
                yield W.run_op(op)


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


def main() -> None:
    workloads = load_workloads()
    for workload in workloads.WORKLOADS:
        sha, count = digest(out for seed in SEEDS for out in outputs(workload, seed))
        print(workload, sha, count, flush=True)


if __name__ == "__main__":
    main()
