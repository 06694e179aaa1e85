"""Run the benchmark on several seeds; print each metric's median and spread.

Run from the root of a singscat checkout:

    python3 perfbench/spread.py --workload mollifier_lab --seeds 1-10 --out spread.json

The spread is (Q3 - Q1) / median over the runs, quartiles as
``statistics.quantiles(values, n=4)`` gives them, next to the bound that
BENCHMARK.json fixes for the metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def summarize(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="a-b range or comma list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run's result here as JSON")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
        ]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        result["wall_s"] = time.perf_counter() - start
        runs.append(result)
        print(
            f"seed {seed}: correct={result['correct']} failed={result['failed']} "
            f"wall {result['wall_s']:.1f} s",
            flush=True,
        )

    names = list(runs[0]["metrics"])
    table = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs if r["metrics"][name]["value"] is not None]
        if not values:
            continue
        median, spread = summarize(values)
        table[name] = {"median": median, "spread": spread, "unit": runs[0]["metrics"][name]["unit"]}
        bound = bounds.get(name)
        note = "" if bound is None else f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{name:48s} median {median:12.6g} {table[name]['unit']:6s} spread {spread:.4f}{note}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "runs": runs, "summary": table}, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
