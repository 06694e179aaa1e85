"""Metric names, units and summaries of the singscat benchmark.

This module imports nothing from singscat, so the launcher can use it
before the library is known to exist.  ``BENCHMARK.json`` lists the same
names; a test keeps the two in step.
"""

from __future__ import annotations

import math
import statistics

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("peak_rss_mb", "MB"),
)

# Mirrors workloads.LAB_SHAPES and the regime tags of workloads.LAB_REGIMES.
SHAPES = ("tophat", "triangle", "cosine", "gauss")
REGIMES = ("no_effect", "standard_delta", "undefined", "resonant_square", "indeterminate")
LEVEL_SHAPES = ("tophat", "gauss")
CLI_PROBES = ("junction", "scatter_sweep", "radial_sweep", "mollify", "resonance")
MODULES = (
    "import", "cli", "core", "errors", "junction", "mollifier", "radial",
    "scatter", "serialize", "sweep",
)

PER_LAYER = (
    (("import.python_s", "s"), ("import.numpy_s", "s"), ("import.singscat_s", "s"))
    + tuple((f"cli.main_ms.{name}", "ms") for name in CLI_PROBES)
    + (
        ("serialize.json_us_per_row", "us"),
        ("serialize.csv_us_per_row", "us"),
        ("junction.matrix_us", "us"),
        ("scatter.amplitudes_us", "us"),
        ("scatter.curve_us_per_k", "us"),
        ("scatter.chain_us_per_junction", "us"),
        ("scatter.bound_us", "us"),
        ("radial.solve_us_per_k", "us"),
        ("core.free_transfer_us", "us"),
        ("sweep.overhead_us_per_item", "us"),
        ("mollifier.fixed_cells_ns_per_cell", "ns"),
    )
    + tuple(
        (f"mollifier.transfer_ms.{shape}.{regime}", "ms")
        for shape in SHAPES
        for regime in REGIMES
    )
    + tuple(
        (f"mollifier.transfer_cells.{shape}.{regime}", "count")
        for shape in SHAPES
        for regime in REGIMES
    )
    + tuple((f"mollifier.resonance_s_per_level.{shape}", "s") for shape in LEVEL_SHAPES)
    + (
        ("trace.overhead_s", "s"),
        ("trace.overhead_frac", "ratio"),
        ("trace.spans", "count"),
    )
    + tuple((f"self_frac.{module}", "ratio") for module in MODULES)
    + (("self_frac.outside_spans", "ratio"),)
)

PER_LAYER_UNITS = dict(PER_LAYER)

# Per-layer metrics the benchmark names but cannot measure, with the reason.
# Traced runs print them as MISSING; they are not in BENCHMARK.json.
NOT_MEASURED = {
    "mollifier.rows_flagged_frac": (
        "no lab sweep flags a row by design at a cost the run can carry: "
        "no_convergence rows run to the 2^22-cell cap (about 4 s each), and "
        "inputs that overflow instead lose det on their clean rows"
    ),
}


def tail(samples: list[float]) -> tuple[float, int]:
    """Value at the highest whole percentile with >= 10 samples beyond it.

    Nearest-rank percentile.  Returns (value, percentile); with ten samples
    or fewer no percentile qualifies and the maximum is returned as p100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    pct = math.floor(100 * (n - 10) / n)
    while pct > 0 and n - math.ceil(pct * n / 100) < 10:
        pct -= 1
    return ordered[max(0, math.ceil(pct * n / 100) - 1)], pct


def end_to_end(setup_walls: list[float], durations: list[float], peak_rss_kb: int) -> dict:
    """End-to-end metrics of one untraced run, as name -> (value, unit)."""
    units = dict(END_TO_END)
    tail_value, _ = tail(durations)
    values = {
        "setup_s": statistics.median(setup_walls),
        "ops_per_s": len(durations) / sum(durations),
        "op_s.p50": statistics.median(durations),
        "op_s.tail": tail_value,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    return {name: (values[name], units[name]) for name, _ in END_TO_END}
