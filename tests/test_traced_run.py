"""A traced benchmark run of the one-process-per-op workload, end to end.

A traced run reports every per-layer value of BENCHMARK.json on its last
stdout line as strict JSON: the in-process probes, and the values taken
from child spans, fresh-interpreter imports and the traced/plain
comparison.  A probe that loses a public name or a span reports a reason
instead of a number, and a run can exit 0 with a last line that is not a
result, so both are checked here.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _refuse(constant: str):
    raise ValueError(f"{constant} is not strict JSON")


def _finite_number(value) -> bool:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and math.isfinite(value)


def test_traced_cli_oneshot_run_reports_every_per_layer_value():
    # about 8 s; the run writes only under the ignored .perfbench_out/
    argv = ["--workload", "cli_oneshot", "--seed", "0", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_refuse)
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    with open(ROOT / "BENCHMARK.json") as f:
        names = [m["name"] for m in json.load(f)["per_layer"]]
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    not_numbers = {
        name: values.get(name) for name in names if not _finite_number(values.get(name))
    }
    assert not_numbers == {}
