"""Runs one workload in a fresh interpreter and reports raw results.

Started by run.py with the pinned environment; prints one JSON object as
its last stdout line.  Untraced, it runs the whole cycles that --seconds
buys at the reference speed and reports every op duration, wall and in
reference seconds (speed.py), with set-up samples (a fresh ``import
singscat``) taken between ops all through the run.  Traced, it times the
imports, runs one cycle with the span recorder installed, the same cycle
again without it (the difference is the tracing overhead), then the
per-layer probes.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import metrics
import probes
import speed
import workloads as W
from spans import Tracer, merge_spans

OUT_DIR = ".perfbench_out"
MAX_PROBLEMS = 20
SETUP_SAMPLES = 3
# Reference seconds (speed.py) of one cycle of each workload at the commit
# that defined the benchmark.  An untraced run does ceil(--seconds /
# CYCLE_S) whole cycles, so that every run of a workload times the same
# ops however fast the machine or the library is, and op_s.tail is always
# the same rank of the same mix.
CYCLE_S = {"cli_oneshot": 11.5, "closed_form_sweep": 4.1, "mollifier_lab": 20.0}
IMPORT_REPEATS = 5


def pin_to_one_cpu() -> None:
    """Keep this worker and its children on the CPU it is running on.

    The workloads are single-threaded and run at most one child at a time,
    so one CPU loses them nothing.  It keeps the reference kernel
    (speed.py) on the core that runs the op it scales.  With the default
    affinity a child, such as a cli_oneshot op, may run on the other core,
    and on the 2-vCPU VM of results/BASELINE.md the kernel then tracked
    cli_oneshot ops no better than no kernel at all.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            cpu = int(handle.read().rpartition(")")[2].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass  # no /proc or no affinity: run unpinned


def fresh_python(code: str) -> float:
    """Wall seconds of a fresh interpreter that runs code."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
    return time.perf_counter() - start


def check(op: W.Op, outcome) -> list[str]:
    try:
        in_process = W.capture_main(op.params["argv"]) if op.kind == "cli" else None
        return W.check_op(op, outcome, in_process)
    except Exception:
        return ["check crashed: " + traceback.format_exc(limit=3)]


def measured_run(op: W.Op, during: bool, traced_children: bool = False):
    """(wall s, reference s, kernel samples, outcome, problems) of one op (speed.py).

    An op that raises has failed; the run goes on.
    """

    def call():
        try:
            return W.run_op(op, traced_children), []
        except Exception as exc:  # a failed op, not a failed run
            return None, [f"raised {exc!r}"]

    wall, ref, samples, (outcome, problems) = speed.measure(call, during)
    return wall, ref, samples, outcome, problems


def untraced(workload: str, seed: int, seconds: float) -> dict:
    """Whole cycles worth `seconds` at the reference speed (CYCLE_S).

    A set-up sample is taken before an op whenever another 1/SETUP_SAMPLES
    of the run's ops have run, so the samples span the run.
    Ops and set-up samples are timed with the reference kernel around them
    (speed.py); ops of the worker's own process also with the kernel
    during them.
    """
    durations, scaled, kernel, problems = [], [], [], []
    setup, setup_wall = [], []
    failed = 0
    during = workload != "cli_oneshot"
    cycles = max(1, math.ceil(seconds / CYCLE_S[workload]))
    stream = W.cycles(workload, seed)
    ops = next(stream)
    total = cycles * len(ops)
    speed.sample()  # first numpy calls, not a sample
    gc.freeze()  # modules and inputs stay out of the collections below
    for i in range(total):
        if i and i % len(ops) == 0:
            ops = next(stream)
        op = ops[i % len(ops)]
        if i >= len(setup) * total / SETUP_SAMPLES:
            wall, ref, _, _ = speed.measure(lambda: fresh_python("import singscat"), False)
            setup_wall.append(wall)
            setup.append(ref)
        gc.collect()  # each op pays for its own garbage, not the last one's
        wall, ref, samples, outcome, probs = measured_run(op, during)
        durations.append(wall)
        scaled.append(ref)
        kernel += samples
        probs = probs or check(op, outcome)
        if probs:
            failed += 1
            problems.append(f"{op.kind} {op.params.get('argv', '')}: {probs}")
    who = resource.RUSAGE_CHILDREN if workload == "cli_oneshot" else resource.RUSAGE_SELF
    return {
        "setup_s": setup,
        "setup_wall_s": setup_wall,
        "durations": durations,
        "scaled": scaled,
        "kernel_samples": len(kernel),
        "speed_factor": speed.NOMINAL_S / statistics.median(kernel),
        "nominal_s": speed.NOMINAL_S,
        "attempted": len(durations),
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
        "cycles": cycles,
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
    }


def _child_spans(stderr: str):
    for line in stderr.splitlines():
        if line.startswith(W.SPAN_MARK):
            return json.loads(line[len(W.SPAN_MARK):])
    return []


def import_costs() -> dict:
    """Interpreter start, numpy and singscat import, each a median."""

    def median(code):
        return statistics.median(fresh_python(code) for _ in range(IMPORT_REPEATS))

    python, numpy, singscat = median("pass"), median("import numpy"), median("import singscat")
    return {
        "import.python_s": python,
        "import.numpy_s": numpy - python,
        "import.singscat_s": singscat - numpy,
    }


def traced(workload: str, seed: int) -> dict:
    layer = import_costs()
    ops = next(W.cycles(workload, seed))
    cli = workload == "cli_oneshot"
    tracer = Tracer()
    traced_s, traced_ref, plain_s, plain_ref, problems = [], [], [], [], []
    failed = 0
    with tracer:
        for i, op in enumerate(ops):
            tracer.op_id = i
            wall, ref, _, outcome, probs = measured_run(op, False, traced_children=cli)
            traced_s.append(wall)
            traced_ref.append(ref)
            if cli and outcome is not None:
                merge_spans(tracer, _child_spans(outcome[2]), i)
            tracer.op_id = -1  # spans of the checks are not counted
            probs = probs or check(op, outcome)
            if probs:
                failed += 1
                problems.append(f"{op.kind}: {probs}")
    for op in ops:
        wall, ref, _, _, _ = measured_run(op, False)
        plain_s.append(wall)
        plain_ref.append(ref)

    total_ns = 1e9 * sum(traced_s)
    own = tracer.self_times()
    by_module = dict.fromkeys(metrics.MODULES, 0)
    covered = spans = 0
    for i, (name, start, end, parent, op, _) in enumerate(tracer.rows()):
        if op < 0:
            continue
        spans += 1
        module = name.partition(".")[0]
        by_module[module] = by_module.get(module, 0) + own[i]
        if parent < 0:
            covered += end - start
    layer.update({f"self_frac.{m}": by_module[m] / total_ns for m in metrics.MODULES})
    layer["self_frac.outside_spans"] = max(0.0, total_ns - covered) / total_ns
    layer["trace.overhead_s"] = sum(traced_ref) - sum(plain_ref)
    layer["trace.overhead_frac"] = layer["trace.overhead_s"] / sum(plain_ref)
    layer["trace.spans"] = spans

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans_{workload}_seed{seed}.csv.gz"))
    del tracer, own

    probe_values, lost = probes.run_all()
    layer.update(probe_values)
    return {
        "attempted": len(ops),
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
        "traced_s": sum(traced_s),
        "untraced_s": sum(plain_s),
        "traced_ref_s": sum(traced_ref),
        "untraced_ref_s": sum(plain_ref),
        "per_layer": layer,
        "lost_probes": lost,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    pin_to_one_cpu()
    src = os.path.realpath("src") + os.sep
    if not os.path.realpath(W.S.__file__).startswith(src):
        print(f"singscat was imported from {W.S.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.trace:
        result = traced(args.workload, args.seed)
    else:
        result = untraced(args.workload, args.seed, args.seconds)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
