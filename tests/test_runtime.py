"""The runtime: numpy alone (no process loads scipy), numpy only on the
array paths, no typing or json, only the modules a command runs, and every
name the benchmark probes looks up."""

from __future__ import annotations

import ast
import functools
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Runs `python -m singscat <argv>` in-process, then reports on stderr
# whether any scipy module, whether numpy and whether dataclasses were
# loaded along the way, on the next line which singscat modules were, and
# on a last line which of argparse, gettext and locale were.
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
numpy, dataclasses = ("numpy" in sys.modules), ("dataclasses" in sys.modules)
print(f"exit={code} scipy={loaded} numpy={numpy} dataclasses={dataclasses}", file=sys.stderr)
print(sorted(m for m in sys.modules if m.startswith("singscat.")), file=sys.stderr)
print([m for m in ("argparse", "gettext", "locale") if m in sys.modules], file=sys.stderr)
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


# Imports the package and reports which singscat modules that loaded.  Then
# looks up through the package every public name of the closed-form modules
# and reports how many there were and whether scipy, dataclasses or numpy
# was loaded along the way.
_IMPORT_AND_RESOLVE = """
import sys, singscat
print(sorted(m for m in sys.modules if m.startswith("singscat")))
modules = [getattr(singscat, m) for m in ("core", "errors", "junction", "radial", "scatter")]
names = [n for n in singscat.__all__ if any(hasattr(m, n) for m in modules)]
for name in names:
    getattr(singscat, name)
print(len(names), *(m in sys.modules for m in ("scipy", "dataclasses", "numpy")))
"""


def _import_and_resolve() -> dict:
    proc = _python("-c", _IMPORT_AND_RESOLVE)
    assert proc.returncode == 0, proc.stderr
    bare, report = proc.stdout.splitlines()
    # a bare import loads no submodule, and each of the 35 public names of
    # the closed-form modules resolves
    assert bare == "['singscat']"
    count, *loaded = report.split()
    assert count == "35"
    return dict(zip(("scipy", "dataclasses", "numpy"), loaded))


def test_import_loads_no_scipy():
    assert _import_and_resolve()["scipy"] == "False"


def test_import_loads_no_dataclasses():
    # the records are tuples; dataclasses alone cost a third of the import
    assert _import_and_resolve()["dataclasses"] == "False"


def test_import_loads_no_numpy():
    assert _import_and_resolve()["numpy"] == "False"


def test_lazy_loader_refuses_unknown_names():
    code = (
        "import sys, singscat\n"
        "try:\n"
        "    singscat.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "print('numpy' in sys.modules, 'singscat.mollifier' in sys.modules)\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "module 'singscat' has no attribute 'no_such_name'",
        "False False",
    ]


_SWEEP = ("--kmin", "1e-3", "--kmax", "1e3", "--ksteps", "150", "--format", "json")

# What loading cli loads, which is all that junction and a refused command
# line need; every other command imports its own modules when it runs:
# bound its kernel module, scatter and radial cli_energy and theirs, and
# the lab commands cli_lab and the mollifier.  table, the grid and the
# table writer, comes only with a sweep, CSV output or mollify's table,
# and cli_out, the writer of --out, only with --out.
_CLI = ("cli", "core", "errors", "junction", "serialize")
_BOUND = (*_CLI, "scatter", "sweep")
_SCATTER = (*_BOUND, "cli_energy")
_RADIAL = (*_CLI, "cli_energy", "radial")
_LAB = (*_CLI, "cli_lab", "mollifier")

# The closed-form ops of the benchmark's one-process-per-op cycle, those
# that exit 3 by design among them, a scatter sweep, a usage error, the
# lab commands, a single point in CSV and one written to --out: (id,
# argv, exit code, numpy loaded, singscat modules loaded).
_CLI_RUNS = [
    ("junction", ("junction", "--m", "1", "--c", "-2"), 0, False, _CLI),
    ("resonance", ("resonance", "--shape", "gauss", "--n", "1"), 0, True, _LAB),
    ("mollify", ("mollify", "--m", "1", "--c", "-1", "--shape", "tophat", "--eps",
     "1e-1,1e-2", "--k", "1"), 0, True, (*_LAB, "table")),
    ("junction_undefined", ("junction", "--m", "1.5", "--c", "1"), 3, False, _CLI),
    ("bound", ("bound", "--m", "1", "--c", "-2"), 0, False, _BOUND),
    ("scatter_k", ("scatter", "--m", "1", "--c", "-1", "--k", "2.5"), 0, False,
     _SCATTER),
    ("scatter_k_csv", ("scatter", "--m", "1", "--c", "-1", "--k", "2.5", "--format",
     "csv"), 0, False, (*_SCATTER, "table")),
    ("scatter_k_out", ("scatter", "--m", "1", "--c", "-1", "--k", "2.5", "--out",
     os.devnull), 0, False, (*_SCATTER, "cli_out")),
    ("scatter_k_no_state", ("scatter", "--m", "3", "--c", "-1", "--iv-a", "-1",
     "--iv-b", "0", "--k", "2.5"), 3, False, _SCATTER),
    ("radial_k", ("radial", "--m", "1", "--c", "-2", "--a", "1", "--k", "2.5"), 0,
     False, _RADIAL),
    ("radial_k_csv", ("radial", "--m", "1", "--c", "-2", "--a", "1", "--k", "2.5",
     "--format", "csv"), 0, False, (*_RADIAL, "table")),
    ("radial_sweep", ("radial", "--m", "1", "--c", "-2", "--a", "1", *_SWEEP), 0,
     False, (*_RADIAL, "table")),
    ("scatter_sweep", ("scatter", "--m", "1", "--c", "-1", *_SWEEP), 0, False,
     (*_SCATTER, "table")),
    # no energy: refused by cmd_scatter, after it imported scatter
    ("usage_error", ("scatter", "--m", "1", "--c", "-1"), 2, False, _SCATTER),
]
_CLI_IDS = [run[0] for run in _CLI_RUNS]


@functools.cache
def _cli_process_report(argv: tuple) -> tuple[str, str, str]:
    """The three report lines of _RUN_AND_REPORT, one process per argv."""
    proc = _python("-c", _RUN_AND_REPORT, *argv)
    assert proc.returncode == 0, proc.stderr
    libraries, modules, parsing = proc.stderr.strip().splitlines()[-3:]
    return libraries, modules, parsing


# No process loads scipy or dataclasses.  Only the lab commands, among
# these, load numpy.
@pytest.mark.parametrize(
    "argv, code, numpy", [run[1:4] for run in _CLI_RUNS], ids=_CLI_IDS
)
def test_cli_process_loads_no_scipy(argv, code, numpy):
    libraries, _, _ = _cli_process_report(argv)
    assert libraries == f"exit={code} scipy=[] numpy={numpy} dataclasses=False"


# junction loads no scatter, radial or sweep, radial no scatter, the lab
# commands none of the three, and no process without numpy loads scatter's
# array kernel, amplitude_kernel.
@pytest.mark.parametrize(
    "argv, modules", [(run[1], run[4]) for run in _CLI_RUNS], ids=_CLI_IDS
)
def test_cli_process_loads_only_the_modules_of_its_command(argv, modules):
    _, loaded, _ = _cli_process_report(argv)
    assert loaded == repr(sorted(f"singscat.{name}" for name in modules))


# The command line is parsed from cli's grammar table: no process loads
# argparse, nor the gettext and locale modules that argparse's messages load.
@pytest.mark.parametrize("argv", [run[1] for run in _CLI_RUNS], ids=_CLI_IDS)
def test_cli_process_loads_no_argparse_gettext_or_locale(argv):
    _, _, parsing = _cli_process_report(argv)
    assert parsing == "[]"


# Runs `python -m singscat <argv>` in-process, then reports on stderr the
# threads of the process and the OpenBLAS thread setting it ended with.
_THREADS_AFTER_RUN = """
import os, runpy, sys
sys.argv = ["singscat", *sys.argv[1:]]
try:
    runpy.run_module("singscat", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
threads = len(os.listdir("/proc/self/task"))
print(threads, os.environ.get("OPENBLAS_NUM_THREADS"), file=sys.stderr)
"""


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counts threads in /proc (Linux)"
)
@pytest.mark.parametrize("setting", [None, "2"], ids=["unset", "set_by_user"])
def test_cli_process_caps_openblas_threads_unless_set(setting, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    if setting is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", setting)
    proc = _python("-c", _THREADS_AFTER_RUN, "resonance", "--shape", "tophat", "--n", "1")
    assert proc.returncode == 0, proc.stderr
    threads, kept = proc.stderr.split()
    if setting is None:
        assert (threads, kept) == ("1", "1")
    else:
        assert kept == setting


# Prints the float.hex of estimate_order and certify_convergence, in
# reference mode and in gap mode, on four synthetic sweeps whose
# np.polyfit slopes differed in the last bit between OpenBLAS's default
# kernel and its Sandybridge one.
_ORDER_FITS = """
import math
from singscat import Mat2
from singscat.mollifier import ConvergenceRow, certify_convergence, estimate_order
eps_list = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
for seed in (2, 3, 4, 5):
    devs = [e**0.8 * (1.0 + 0.5 * math.sin(seed * i)) for i, e in enumerate(eps_list)]
    ref = [ConvergenceRow(e, Mat2.identity(), d, 0.0) for e, d in zip(eps_list, devs)]
    gap = [
        ConvergenceRow(e, Mat2(1.0, math.fsum(devs[i:]), 0.0, 1.0), math.nan, 0.0)
        for i, e in enumerate(eps_list)
    ]
    _, *ref_fit = certify_convergence(ref)
    _, *gap_fit = certify_convergence(gap)
    print(*(x.hex() for x in (*estimate_order(ref), *ref_fit, *gap_fit)))
"""


def test_order_fits_have_the_same_bits_on_every_blas_kernel(monkeypatch):
    outputs = []
    for coretype in (None, "Sandybridge"):
        monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
        if coretype is not None:
            monkeypatch.setenv("OPENBLAS_CORETYPE", coretype)
        proc = _python("-c", _ORDER_FITS)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].split()) == 4 * 6
    assert outputs[0] == outputs[1]


def _imports_of(package: str, tree: ast.AST) -> list[int]:
    """Line numbers of the imports of package, or of its modules, under tree."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.partition(".")[0] == package for name in names):
            lines.append(node.lineno)
    return lines


def _parse(module: str) -> ast.Module:
    path = ROOT / "src" / "singscat" / f"{module}.py"
    return ast.parse(path.read_text(encoding="utf-8"))


def test_no_module_imports_typing():
    # every annotation is a string (PEP 563), so none needs typing at run time
    importers = [
        f"{path.name}:{line}"
        for path in sorted((ROOT / "src" / "singscat").glob("*.py"))
        for line in _imports_of("typing", _parse(path.stem))
    ]
    assert importers == []


def test_only_core_tells_what_a_number_is():
    # core's _float and _integer are the one number test: no other module
    # imports numbers or asks isinstance(..., Real or Integral)
    found = []
    for path in sorted((ROOT / "src" / "singscat").glob("*.py")):
        tree = _parse(path.stem)
        found += [f"{path.name}:{line} import" for line in _imports_of("numbers", tree)]
        found += [
            f"{path.name}:{node.lineno} isinstance"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) == "isinstance"
            and re.search(r"\b(Real|Integral)\b", ast.unparse(node.args[-1]))
        ]
    assert [place for place in found if not place.startswith("core.py:")] == []
    assert any(place.startswith("core.py:") for place in found)


def _unused_imports(tree: ast.Module) -> list[str]:
    """"line name" for each name imported under tree that the module neither
    reads nor lists in its __all__; __future__ imports are not names.  The
    names __all__ lists are the strs in its value and in the values of the
    module-level names that its value reads."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assigned = {
        ast.unparse(node.targets[0]): node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
    }
    if "__all__" in assigned:
        value = assigned["__all__"]
        sources = [value] + [assigned[n.id] for n in ast.walk(value)
                             if isinstance(n, ast.Name) and n.id in assigned]
        read |= {node.value for source in sources for node in ast.walk(source)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).partition(".")[0]
                if name not in read:
                    unused.append(f"{node.lineno} {name}")
    return unused


def test_every_import_is_used_or_exported():
    unused = [
        f"{path.name}:{entry}"
        for path in sorted((ROOT / "src" / "singscat").glob("*.py"))
        for entry in _unused_imports(_parse(path.stem))
    ]
    assert unused == []
    # the check flags a leftover, as an import of sweep_map that the lab's
    # rows no longer call would be
    tree = _parse("mollifier")
    tree.body += ast.parse("from .sweep import sweep_map").body
    assert _unused_imports(tree) == [
        f"{line} sweep_map" for line in _imports_of("sweep", tree)
    ]


def _unreferenced_privates(trees: dict[str, ast.Module]) -> list[str]:
    """"module name" for each module-level _name function or class that no
    code under trees reads, looks up as an attribute or imports, outside
    its own body; names in docstrings do not count, and dunders are
    Python's to call."""
    used = [
        (top, {
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name
            for node in ast.walk(top)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        })
        for tree in trees.values()
        for top in tree.body
    ]
    return [
        f"{module} {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and not any(node.name in names for top, names in used if top is not node)
    ]


def test_every_private_function_is_used():
    trees = {
        path.stem: _parse(path.stem)
        for path in sorted((ROOT / "src" / "singscat").glob("*.py"))
    }
    assert _unreferenced_privates(trees) == []
    # the check flags a leftover, as the column writer that table_document
    # no longer calls would be, though a docstring still names it
    trees["serialize"].body += ast.parse(
        "def _column_text(column, fmt):\n"
        "    return [_column_text(cell, fmt) for cell in column]\n"
    ).body
    trees["cli"].body += ast.parse('"""see serialize._column_text"""').body
    assert _unreferenced_privates(trees) == ["serialize _column_text"]


def _private_imports(tree: ast.Module) -> list[str]:
    """"module.name" for each _name imported from a sibling module."""
    return [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]


# The modules of the command line: cli and those it imports when a command
# or an option needs them.
_CLI_MODULES = sorted(path.stem for path in (ROOT / "src" / "singscat").glob("cli*.py"))


def test_cli_imports_no_private_name_but_the_column_functions():
    # The CLI reaches the library through public names.  The exceptions are
    # the two column functions, scatter._amplitude_columns and
    # radial._s_wave_columns: they stream a sweep's columns a block at a
    # time, where a record per energy would be built and dropped
    allowed = {"scatter._amplitude_columns", "radial._s_wave_columns"}
    assert _CLI_MODULES == ["cli", "cli_energy", "cli_help", "cli_lab", "cli_out"]
    imported = {module: set(_private_imports(_parse(module))) for module in _CLI_MODULES}
    # cmd_scatter and cmd_radial import them in their bodies, where the
    # check looks too
    assert imported == {module: set() for module in _CLI_MODULES} | {"cli_energy": allowed}
    # the check flags a leftover, such as a private helper of radial
    for module in _CLI_MODULES:
        tree = _parse(module)
        tree.body += ast.parse("def cmd_radial():\n    from .radial import _principal_shift").body
        assert set(_private_imports(tree)) - allowed == {"radial._principal_shift"}


def test_cli_and_transmission_curve_import_no_numpy():
    # scatter._amplitude_columns alone picks the amplitude kernel, from
    # whether numpy is already loaded; the lab commands get numpy from
    # the mollifier
    for module in (*_CLI_MODULES, "table"):
        assert _imports_of("numpy", _parse(module)) == [], module
    (curve,) = [
        node
        for node in _parse("scatter").body
        if isinstance(node, ast.FunctionDef) and node.name == "transmission_curve"
    ]
    assert _imports_of("numpy", curve) == []


# -S keeps the site hook, which may import typing or json itself, out of
# the child; the report after the import and after each run says whether
# the module is loaded.
_LOADED_AFTER_RUNS = """
import sys
from singscat import cli
report = [%(module)r in sys.modules]
for argv in %(runs)r:
    cli.main(list(argv))
    report.append(%(module)r in sys.modules)
print(report, file=sys.stderr)
"""

_CLOSED_FORM_RUNS = [
    ("junction", "--m", "1", "--c", "-2"),
    ("bound", "--m", "1", "--c", "-2"),
    ("scatter", "--m", "1", "--c", "-1", "--k", "2.5"),
    ("radial", "--m", "1", "--c", "-2", "--a", "1", "--k", "2.5"),
    ("radial", "--m", "1", "--c", "-2", "--a", "1", *_SWEEP),
    ("scatter", "--m", "1", "--c", "-1", *_SWEEP),
    ("scatter", "--m", "1", "--c", "-1"),  # a usage error: no energy
]


def _loaded_after_closed_form_runs(module: str) -> str:
    script = _LOADED_AFTER_RUNS % {"module": module, "runs": _CLOSED_FORM_RUNS}
    proc = _python("-S", "-c", script)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.strip().splitlines()[-1]


# Runs cli.main on argv with stdout discarded, then reports on stderr the
# exit code, the peak RSS of the process in kB and whether numpy loaded.
# VmHWM starts afresh at exec, where ru_maxrss keeps the parent's peak.
_PEAK_AFTER_RUN = """
import sys
from singscat import cli

class Discard:
    def write(self, text):
        return len(text)

    def flush(self):
        pass

sys.stdout = Discard()
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as status:
    (peak,) = [line.split()[1] for line in status if line.startswith("VmHWM:")]
print(code, peak, "numpy" in sys.modules, file=sys.stderr)
"""


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="reads VmHWM in /proc (Linux)"
)
def test_longest_json_sweeps_peak_within_10_mb_of_junction():
    # a sweep's text is written a block at a time, never held whole: at
    # 100,000 steps only the grid and one block grow with the table
    grid = ("--kmin", "1e-3", "--kmax", "1e3", "--ksteps", "100000", "--format", "json")
    peaks = {}
    for name, argv in [
        ("junction", ("junction", "--m", "1", "--c", "-2")),
        ("scatter", ("scatter", "--m", "1", "--c", "-1", *grid)),
        ("radial", ("radial", "--m", "1", "--c", "-2", "--a", "1", *grid)),
    ]:
        proc = _python("-c", _PEAK_AFTER_RUN, *argv)
        assert proc.returncode == 0, proc.stderr
        code, peak, numpy = proc.stderr.split()
        assert (code, numpy) == ("0", "False")
        peaks[name] = int(peak) / 1024
    assert peaks["scatter"] - peaks["junction"] <= 10.0, peaks
    assert peaks["radial"] - peaks["junction"] <= 10.0, peaks


def test_closed_form_cli_runs_load_no_typing():
    expected = repr([False] * (1 + len(_CLOSED_FORM_RUNS)))
    assert _loaded_after_closed_form_runs("typing") == expected


def test_closed_form_cli_runs_load_no_json():
    # strings are quoted by json.encoder's own C function, taken from _json
    import json.encoder

    from singscat import serialize

    assert serialize._quote is json.encoder.encode_basestring_ascii
    expected = repr([False] * (1 + len(_CLOSED_FORM_RUNS)))
    assert _loaded_after_closed_form_runs("json") == expected


def _top_level_bindings(module) -> set[str]:
    """The names a module's own source binds at its top level: by def,
    class or assignment, not by import."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_every_public_name_resolves_and_is_listed():
    import singscat

    assert [name for name in singscat.__all__ if not hasattr(singscat, name)] == []
    assert set(singscat.__all__) <= set(dir(singscat))
    assert len(set(singscat.__all__)) == len(singscat.__all__) == len(singscat._OWNER)
    # each name is its owner module's own object, and the owner is the
    # module that defines it, not one that imports it and so loads more
    wrong = []
    for name, owner in singscat._OWNER.items():
        module = importlib.import_module(f"singscat.{owner}")
        value = getattr(singscat, name)
        if value is not getattr(module, name) or name not in _top_level_bindings(module):
            wrong.append((name, owner))
        elif isinstance(value, (type, types.FunctionType)) and value.__module__ != module.__name__:
            wrong.append((name, owner))
    assert wrong == []
    # a lazy name is cached once looked up
    assert "numeric_transfer" in vars(singscat)
    with pytest.raises(AttributeError, match="no_such_name"):
        singscat.no_such_name


# Per public name: in a package imported afresh, which singscat modules
# looking the name up loads.  Dropping every singscat module from
# sys.modules before each lookup makes the import as fresh as a new process.
_LOADED_BY_LOOKUP = """
import sys
for name in sys.argv[1:]:
    for module in [m for m in sys.modules if m.split(".")[0] == "singscat"]:
        del sys.modules[module]
    import singscat
    getattr(singscat, name)
    print(name, *sorted(m for m in sys.modules if m.split(".")[0] == "singscat"))
"""


def test_a_lookup_loads_only_the_defining_module_and_its_imports():
    lookups = ("convergence_sweep", "transmission_curve", "s_wave_solve")
    proc = _python("-c", _LOADED_BY_LOOKUP, *lookups)
    assert proc.returncode == 0, proc.stderr
    loaded = {name: rest for name, *rest in map(str.split, proc.stdout.splitlines())}
    package = ["singscat", "singscat.core", "singscat.errors"]
    assert loaded == {
        # the lab neither runs nor loads junction, radial, scatter or sweep
        "convergence_sweep": [*package, "singscat.mollifier"],
        "transmission_curve": [*package, "singscat.scatter", "singscat.sweep"],
        "s_wave_solve": [*package, "singscat.junction", "singscat.radial"],
    }


def test_cli_shape_names_are_the_shape_registry():
    from singscat import cli, mollifier

    assert cli.SHAPE_NAMES == tuple(sorted(mollifier.SHAPES))


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


def test_a_failing_property_prints_its_example(tmp_path):
    # Under "error" in filterwarnings, hypothesis's report of a failure
    # touched mypy_extensions.TypedDict, whose DeprecationWarning turned the
    # report into an INTERNALERROR: no falsifying example was printed and
    # the tests after it never ran.  So run a failing property with the
    # repo's settings and check that its example and the next test show.
    (tmp_path / "pyproject.toml").write_bytes((ROOT / "pyproject.toml").read_bytes())
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "\n"
        "@settings(database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n"
        "\n"
        "def test_after():\n"
        "    pass\n",
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example: test_fails(" in out
    assert "1 failed, 1 passed" in out
