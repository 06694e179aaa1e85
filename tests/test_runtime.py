"""The runtime: numpy alone (no process loads scipy), and every name the
benchmark probes looks up."""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Runs `python -m singscat <argv>` in-process, then reports on stderr
# whether any scipy module was loaded along the way.
_RUN_AND_REPORT = """
import runpy, sys
sys.argv = ["singscat", *sys.argv[1:]]
try:
    runpy.run_module("singscat", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
else:
    code = 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(f"exit={code} scipy={loaded}", file=sys.stderr)
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=False,
    )


def test_import_loads_no_scipy():
    proc = _python("-c", "import sys, singscat; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ("junction", "--m", "1", "--c", "-2"),
        ("resonance", "--shape", "gauss", "--n", "1"),
    ],
    ids=["junction", "resonance"],
)
def test_cli_process_loads_no_scipy(argv):
    proc = _python("-c", _RUN_AND_REPORT, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip().splitlines()[-1] == "exit=0 scipy=[]"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in 3.11")
def test_runtime_dependencies_are_numpy_alone():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]

    def names(deps):
        return [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in deps]

    assert names(project["dependencies"]) == ["numpy"]
    assert "scipy" in names(project["optional-dependencies"]["test"])


def test_every_benchmark_probe_target_exists():
    # perfbench reports a probe whose target is gone as MISSING, and a
    # workload whose call is gone as failed ops, instead of failing, so a
    # rename would otherwise pass unnoticed
    source = (ROOT / "perfbench" / "probes.py").read_text(encoding="utf-8")
    targets = set(re.findall(r'lookup\("([\w.]+)"\)', source))
    assert len(targets) >= 10
    # workloads.py calls the package as S, the CLI module as cli, and
    # imports from singscat.serialize by name
    source = (ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8")
    targets |= set(re.findall(r"\b(?:S|cli)\.\w+", source))
    (imported,) = re.findall(r"^from singscat\.serialize import (.+)$", source, re.M)
    targets |= {f"serialize.{name.strip()}" for name in imported.split(",")}
    assert {"S.s_wave_solve", "cli.main", "serialize.canonical_json"} <= targets
    missing = []
    for target in sorted(targets):
        module_name, _, name = target.rpartition(".")
        package = "singscat" if module_name == "S" else f"singscat.{module_name}"
        if not hasattr(importlib.import_module(package), name):
            missing.append(target)
    assert missing == []
