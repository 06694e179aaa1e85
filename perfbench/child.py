"""Traced stand-in for ``python -m singscat`` in the cli_oneshot workload.

Times the imports as spans, wraps the library with the span recorder and
runs ``cli.main`` on the given argv.  Stdout is left to the CLI; the spans
go to stderr as one last line starting with ``PERFBENCH_SPANS``.

    python perfbench/child.py junction --m 1 --c -2
"""

import json
import sys
import time

_t0 = time.perf_counter_ns()
import numpy  # noqa: E402

_t1 = time.perf_counter_ns()
import singscat.cli  # noqa: E402

_t2 = time.perf_counter_ns()

from spans import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    with tracer:
        code = singscat.cli.main(sys.argv[1:])
    rows = [("import.numpy", _t0, _t1, -1, -1), ("import.singscat", _t1, _t2, -1, -1)]
    rows += [(name, s, e, p + 2 if p >= 0 else -1, size) for name, s, e, p, _, size in tracer.rows()]
    sys.stdout.flush()
    sys.stderr.write("PERFBENCH_SPANS " + json.dumps(rows) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
