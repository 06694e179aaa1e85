"""Run the benchmark on a parent commit and on this checkout, in alternating pairs.

    python tools/bench_pairs.py --parent HEAD~1 --out BENCH_<n>.json [--seed 101]

The parent is cloned from this repository into a temporary directory (a
local clone, no network), checked out at --parent and removed afterwards.
The change is this checkout's working tree, uncommitted edits included.
For each workload of BENCHMARK.json, pair i of PAIRS runs `python3
perfbench/run.py --workload W --seed <seed + i> --seconds S --trace 0`
once in each tree, S being BENCHMARK.json's run_seconds, the parent
first in even pairs and the change first in odd ones, and keeps the last
stdout line of each run: its end-to-end metrics and failed count.  Each
side also keeps the provenance line run.py prints first, whose src_sha256
identifies the source tree that ran.

The output file holds, per workload, every pair's metrics, and per
metric the parent's and the change's median and quartiles, the change in
percent of the medians, how many pairs the change won (strictly better
in the metric's direction from BENCHMARK.json), and two verdicts:
gain_met, at least nine tenths of the pairs won and the medians apart by
more than the parent's q3 - q1 in the better direction, and
within_bound, the change's median no worse than the parent's by more
than the metric's bound, a fraction of the parent's median.  It also holds
tools/size.py's reading of each tree, or null where a tree has no such
script, and under "machine" what every run shared, recorded once per
run by machine(): numpy's CPU flags and SIMD targets, the OpenBLAS core,
whether bytecode writing is on, and start-up floors: the bare
interpreter, importing singscat.cli and numpy, the mollifier lab's first
lookup after numpy, and a whole `singscat junction` process.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10

# Prints, as one JSON line, numpy's FMA3, AVX2 and AVX512F flags, the SIMD
# targets numpy dispatches to on this CPU, the core that numpy's OpenBLAS
# chose (read from its shared library, null where none is found) and
# whether this interpreter writes bytecode.
_MACHINE_PROBE = r"""
import ctypes, json, sys
import numpy
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

def openblas_core():
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None

print(json.dumps({
    "numpy_cpu": {f: bool(__cpu_features__.get(f)) for f in ("FMA3", "AVX2", "AVX512F")},
    "numpy_simd_found": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)],
    "openblas_core": openblas_core(),
    "bytecode_writing": not sys.dont_write_bytecode,
}))
"""

# Start-up floors: interpreter arguments, each timed as a whole process.
STARTUP = {
    "python_S_pass": ["-S", "-c", "pass"],
    "python_pass": ["-c", "pass"],
    "import_singscat_cli": ["-c", "import singscat.cli"],
    "import_numpy": ["-c", "import numpy"],
    # the mollifier lab's import floor: numpy, and the modules its first name loads
    "import_lab": ["-c", "import numpy, singscat; singscat.convergence_sweep"],
    "singscat_junction": ["-m", "singscat", "junction", "--m", "1", "--c", "-2"],
}
STARTUP_REPEATS = 9


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, capture_output=True, text=True, check=True
    ).stdout.strip()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), the inclusive method: q1 and q3 are the medians'
    linear interpolations between order statistics, as numpy's default."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(
    pairs: list[dict], better: dict[str, str], bounds: dict[str, float]
) -> dict:
    """Per metric: medians, quartiles, percent change, pairs won and verdicts.

    pairs are {"parent": {metric: value}, "change": {metric: value}};
    better maps each metric to "lower" or "higher", and bounds to the
    fraction of the parent's median by which it may worsen.
    """
    out = {}
    for name, direction in better.items():
        before = [pair["parent"][name] for pair in pairs]
        after = [pair["change"][name] for pair in pairs]
        sign = -1.0 if direction == "lower" else 1.0
        won = sum(sign * (b - a) > 0.0 for a, b in zip(before, after))
        (p1, pm, p3), (c1, cm, c3) = quartiles(before), quartiles(after)
        gain = sign * (cm - pm)  # positive when the change's median is better
        out[name] = {
            "better": direction,
            "parent": {"q1": p1, "median": pm, "q3": p3},
            "change": {"q1": c1, "median": cm, "q3": c3},
            "change_pct": 100.0 * (cm - pm) / pm if pm else None,
            "pairs_won": won,
            "pairs": len(pairs),
            "gain_met": 10 * won >= 9 * len(pairs) and gain > p3 - p1,
            "within_bound": -gain <= bounds[name] * abs(pm),
        }
    return out


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics and failed count of one untraced run in tree,
    and the provenance run.py printed (its git SHA, src/ hash and lines)."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run.py in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    provenance = json.loads(lines[0].removeprefix("provenance "))
    result = json.loads(lines[-1])
    row = {name: entry["value"] for name, entry in result["metrics"].items()}
    row["failed"] = result["failed"]
    row["attempted"] = result["attempted"]
    return row, provenance


def machine() -> dict:
    """The _MACHINE_PROBE fields, plus "startup_s": the best of
    STARTUP_REPEATS wall times of each STARTUP process, in seconds.  Both
    run this interpreter with this checkout's src/ on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )

    def run(args: list[str]) -> str:
        return subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
            text=True, check=True,
        ).stdout

    doc = json.loads(run(["-c", _MACHINE_PROBE]).strip().splitlines()[-1])
    doc["startup_s"] = {}
    for name, args in STARTUP.items():
        times = []
        for _ in range(STARTUP_REPEATS):
            start = time.perf_counter()
            run(args)
            times.append(time.perf_counter() - start)
        doc["startup_s"][name] = min(times)
    return doc


def size_reading(tree: Path) -> dict | None:
    script = tree / "tools" / "size.py"
    if not script.is_file():
        return None
    out = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--seed", type=int, default=101, help="seed of the first pair")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {entry["name"]: entry["better"] for entry in spec["end_to_end"]}
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    parent_sha = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    doc = {
        "parent": {"rev": args.parent, "sha": parent_sha},
        "change": {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))},
        "seconds": seconds,
        "machine": machine(),
        "workloads": {},
    }
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        parent = scratch / "parent"
        git("clone", "--quiet", "--shared", "--no-checkout", str(ROOT), str(parent))
        git("checkout", "--quiet", parent_sha, cwd=parent)
        doc["size"] = {"parent": size_reading(parent), "change": size_reading(ROOT)}
        for workload in (entry["name"] for entry in spec["workloads"]):
            pairs = []
            for i in range(PAIRS):
                seed = args.seed + i
                order = [("parent", parent), ("change", ROOT)]
                if i % 2:
                    order.reverse()
                pair = {"seed": seed, "first": order[0][0]}
                for side, tree in order:
                    pair[side], doc[side]["provenance"] = run_bench(
                        tree, workload, seed, seconds
                    )
                    print(f"{workload} seed {seed} {side}: {json.dumps(pair[side])}", flush=True)
                pairs.append(pair)
            doc["workloads"][workload] = {
                "pairs": pairs,
                "failed": {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")},
                "summary": summarize(pairs, better, bounds),
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
