"""The repository's measuring scripts under tools/."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_size_counts_every_kind_of_parameter(tmp_path):
    fixture = tmp_path / "fixture.py"
    fixture.write_text(
        "def plain(a, b=1):\n"
        "    return lambda x, *rest: x\n"  # 2 + 2
        "def every(p, /, q, *args, r, s=0, **kwargs):\n"  # 6
        "    pass\n"
        "class C:\n"
        "    def method(self):\n"  # 1
        "        async def inner(*, only): pass\n"  # 1
        "no_args = lambda: None\n",  # 0
        encoding="utf-8",
    )
    assert _load("size").count_parameters(fixture.read_text(encoding="utf-8")) == 12


def test_size_prints_one_json_line_without_loading_numpy():
    script = (
        "import runpy, sys; runpy.run_path(sys.argv[1], run_name='__main__'); "
        "print('numpy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, str(TOOLS / "size.py")],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.splitlines()
    assert out[1] == "False"
    reading = json.loads(out[0])
    assert list(reading) == ["src_lines", "parameters", "public_names", "cli_slots"]
    assert all(type(value) is int and value > 0 for value in reading.values())
