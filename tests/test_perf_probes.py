"""The benchmark's in-process per-layer probes, run against the library.

A traced benchmark run reports every per-layer value of BENCHMARK.json on
its last line as strict JSON; a probe that loses a public name or a span
reports a reason string instead, and the result is then incomplete.
"""

from __future__ import annotations

import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import probes  # noqa: E402

# measured outside the in-process probes: in fresh interpreters, or from
# the span tracer of a whole traced run
_ELSEWHERE = ("import.", "trace.", "self_frac.")


def _finite_number(value) -> bool:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and math.isfinite(value)


def test_every_per_layer_probe_reports_a_finite_number():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [m["name"] for m in json.load(f)["per_layer"]]
    values, lost = probes.run_all()
    assert lost == []
    wanted = [name for name in names if not name.startswith(_ELSEWHERE)]
    assert wanted
    not_numbers = {
        name: values.get(name) for name in wanted if not _finite_number(values.get(name))
    }
    assert not_numbers == {}
    json.dumps(values, allow_nan=False)
