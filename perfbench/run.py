"""singscat benchmark: one command, end-to-end or per-layer metrics.

Run from the root of a singscat checkout:

    python3 perfbench/run.py --workload closed_form_sweep --seed 1 --seconds 24 --trace 0

``--workload all`` runs every workload in turn.  Each workload runs in its
own fresh worker process, with SINGSCAT_THREADS unset and BLAS/OpenMP
pinned to one thread.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` the per-layer ones.  The lines
before it give each metric with its unit, the failed fraction and where
the run came from.  A full report goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import time
from importlib import metadata

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli_oneshot", "closed_form_sweep", "mollifier_lab")
# A run may last twice --seconds (the cycles on a slow machine) plus this:
# the set-up samples, the checks, and in traced runs the second cycle and
# the probes.
LIMIT_MARGIN_S = 120.0
OUT_DIR = ".perfbench_out"


def pinned_env(root: str) -> dict:
    """Environment for this process and every child it starts."""
    env = dict(os.environ)
    env.pop("SINGSCAT_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def provenance(root: str) -> dict:
    src = os.path.join(root, "src")
    lines = 0
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as handle:
                    data = handle.read()
                lines += data.count(b"\n")
                digest.update(name.encode() + b"\0" + data)
    sha = None
    try:
        top, _, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        ).stdout.strip().partition("\n")
        if top and os.path.realpath(top) == os.path.realpath(root):
            sha = head or None
    except OSError:
        pass
    deps = None
    pyproject = os.path.join(root, "pyproject.toml")
    if os.path.isfile(pyproject):
        with open(pyproject, encoding="utf-8") as handle:
            text = handle.read()
        block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.S | re.M)
        if block:
            deps = re.findall(r'"([^"]+)"', block.group(1))

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "runtime_dependencies": deps,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def run_worker(workload, seed, seconds, trace, env, deadline) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload} worker ran past the time limit")
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"{workload} worker exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def metric_doc(values: dict, units: dict) -> dict:
    doc = {}
    for name, unit in units.items():
        value = values.get(name, "not measured")
        if isinstance(value, (int, float)):
            doc[name] = {"value": value, "unit": unit}
        else:
            doc[name] = {"value": None, "unit": unit, "missing": value}
    return doc


def run_one(workload, seed, seconds, trace, env, started) -> tuple[dict, list[str]]:
    """Result object and report lines for one workload."""
    deadline = started + 2 * seconds + LIMIT_MARGIN_S
    lines = [f"perfbench workload={workload} seed={seed} seconds={seconds} trace={trace}"]
    raw = run_worker(workload, seed, seconds, trace, env, deadline)
    attempted, failed = raw["attempted"], raw["failed"]
    if trace:
        doc = metric_doc(raw["per_layer"], metrics.PER_LAYER_UNITS)
        lines.append(
            f"trace overhead {raw['traced_ref_s'] - raw['untraced_ref_s']:.4f} s: traced "
            f"{raw['traced_ref_s']:.4f} s vs untraced {raw['untraced_ref_s']:.4f} s for the same "
            f"{attempted} ops, in reference seconds (speed.py); wall {raw['traced_s']:.4f} s "
            f"vs {raw['untraced_s']:.4f} s"
        )
        for reason in raw["lost_probes"]:
            lines.append(f"probe group missing: {reason}")
        for name, reason in metrics.NOT_MEASURED.items():
            lines.append(f"{name} MISSING ({reason})")
    else:
        e2e = metrics.end_to_end(raw["setup_s"], raw["scaled"], raw["peak_rss_kb"])
        doc = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}
        _, pct = metrics.tail(raw["durations"])
        lines.append(
            f"{attempted} ops in {raw['cycles']} cycles; setup_s is the median of "
            f"{len(raw['setup_s'])} fresh `import singscat` spread through the run; "
            f"op_s.tail is p{pct} of {attempted} samples"
        )
        lines.append(
            f"speed factor {raw['speed_factor']:.4f} (median): each op's wall time is scaled by "
            f"{raw['nominal_s']} s / the reference kernel's time around it (speed.py), "
            f"and so is each set-up sample"
        )
        wall = metrics.end_to_end(raw["setup_wall_s"], raw["durations"], raw["peak_rss_kb"])
        lines.append(
            "wall times: " + ", ".join(
                f"{name} {value:.6g} {unit}" for name, (value, unit) in wall.items() if unit != "MB"
            )
        )
    for name, entry in doc.items():
        if entry["value"] is None:
            lines.append(f"{name} MISSING ({entry['missing']})")
        else:
            lines.append(f"{name} {entry['value']:.6g} {entry['unit']}")
    lines.append(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} ops failed their check)")
    for problem in raw["problems"]:
        lines.append(f"FAILED {problem}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": doc}
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "singscat", "__init__.py")):
        print("perfbench: run from a singscat checkout (no src/singscat here)", file=sys.stderr)
        return 2
    env = pinned_env(root)
    os.environ.clear()
    os.environ.update(env)
    prov = provenance(root)
    print("provenance " + json.dumps(prov, sort_keys=True))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    os.makedirs(OUT_DIR, exist_ok=True)
    for workload in names:
        started = time.perf_counter()
        try:
            result, lines = run_one(workload, args.seed, args.seconds, args.trace, env, started)
        except (RuntimeError, subprocess.SubprocessError, OSError, KeyError, ValueError) as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        report = os.path.join(OUT_DIR, f"{workload}_seed{args.seed}_trace{args.trace}.json")
        with open(report, "w", encoding="utf-8") as handle:
            json.dump({"provenance": prov, "report": lines, "result": result}, handle, indent=1)
        print("\n".join(lines))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
