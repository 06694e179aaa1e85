"""The repository's measuring scripts under tools/."""

from __future__ import annotations

import contextlib
import gc
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

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
    size, source = _load("size"), fixture.read_text(encoding="utf-8")
    assert size.count_parameters(source) == 12
    assert len(size.functions(source)) == 6  # four defs and two lambdas


def test_size_counts_code_lines_apart_from_blanks_comments_and_docstrings():
    lines = [
        '"""Module docstring,',
        "",
        'over three lines."""',
        "",
        "# a comment alone",
        "import math  # code before a comment",  # 1
        "",
        "def f(x):",  # 2
        '    """One-line docstring."""',
        "    text = '''a string,",  # 3
        "    not a docstring'''",  # 4
        "        # an indented comment",
        "    return (x +",  # 5
        "            1)",  # 6
        "class C:",  # 7
        "    '''Class docstring",
        "    over two lines.'''",
        "    def g(self): '''doc after code'''",  # 8
    ]
    source = "\n".join(lines) + "\n"
    assert _load("size").count_code_lines(source) == 8


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
    startup = reading.pop("startup_lines")
    assert list(reading) == [
        "src_lines", "code_lines", "functions", "parameters", "public_names", "cli_slots"
    ]
    assert all(type(value) is int and value > 0 for value in reading.values())
    assert reading["code_lines"] < reading["src_lines"]
    assert list(startup) == list(_load("size").STARTUP_ARGVS)
    # junction loads the fewest modules, and no process loads them all
    assert min(startup.values()) == startup["junction"] > 0
    assert max(startup.values()) < reading["src_lines"]


def test_size_startup_lines_sum_the_modules_each_process_loads(tmp_path):
    # a package whose cli.main loads one module more for bound, and a
    # module of its own for each lab command
    package = tmp_path / "singscat"
    package.mkdir()
    files = {
        "__init__.py": "",
        "cli.py": (
            "import importlib\n"
            "EXTRA = {'bound': 'b', 'mollify': 'lab', 'resonance': 'lab'}\n"
            "def main(argv):\n"
            "    if argv[0] in EXTRA:\n"
            "        importlib.import_module('singscat.' + EXTRA[argv[0]])\n"
            "    return 0\n"
        ),
        "b.py": "x = 1\n" * 10,
        "lab.py": "y = 2\n" * 100,
        "unused.py": "z = 3\n" * 1000,
    }
    for name, text in files.items():
        (package / name).write_text(text, encoding="utf-8")
    size = _load("size")
    lines = size.startup_lines(tmp_path)
    assert list(lines) == list(size.STARTUP_ARGVS)
    assert lines == {name: 6 for name in size.STARTUP_ARGVS} | {
        "bound": 16, "mollify": 106, "resonance": 106
    }
    # a command that fails is no reading
    (package / "cli.py").write_text("def main(argv):\n    return 2\n", encoding="utf-8")
    with pytest.raises(RuntimeError, match="singscat junction .* exited 2"):
        size.startup_lines(tmp_path)


def test_bench_pairs_summary_counts_medians_quartiles_and_pairs_won():
    bench = _load("bench_pairs")
    before = [0.30, 0.34, 0.31, 0.33, 0.32]
    after = [0.27, 0.29, 0.32, 0.28, 0.26]
    pairs = [
        {"parent": {"op": a, "rate": 1.0 / a}, "change": {"op": b, "rate": 1.0 / b}}
        for a, b in zip(before, after)
    ]
    summary = bench.summarize(
        pairs, {"op": "lower", "rate": "higher"}, {"op": 0.25, "rate": 0.24}
    )
    op = summary["op"]
    assert op["parent"] == {"q1": 0.31, "median": 0.32, "q3": 0.33}
    assert op["change"] == {"q1": 0.27, "median": 0.28, "q3": 0.29}
    assert op["pairs_won"] == 4 and op["pairs"] == 5 and op["better"] == "lower"
    assert abs(op["change_pct"] - 100.0 * (0.28 - 0.32) / 0.32) < 1e-12
    # a higher-is-better metric wins the same pairs here
    assert summary["rate"]["pairs_won"] == 4
    assert summary["rate"]["parent"]["median"] == 1.0 / 0.32
    # the inclusive quartiles interpolate between order statistics
    assert bench.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench.quartiles([5.0]) == (5.0, 5.0, 5.0)
    # a tie is not a win
    tie = [{"parent": {"op": 1.0}, "change": {"op": 1.0}}]
    assert bench.summarize(tie, {"op": "lower"}, {"op": 0.25})["op"]["pairs_won"] == 0


def _verdicts(bench, before, after, better, bound):
    pairs = [{"parent": {"m": a}, "change": {"m": b}} for a, b in zip(before, after)]
    entry = bench.summarize(pairs, {"m": better}, {"m": bound})["m"]
    return entry["gain_met"], entry["within_bound"]


def test_bench_pairs_verdicts_follow_the_pairs_rule_and_the_bound():
    bench = _load("bench_pairs")
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]  # q3 - q1 = 0.175
    # 10 of 10 pairs won, medians 0.5 apart: a gain, in either direction
    assert _verdicts(bench, parent, [x + 0.5 for x in parent], "higher", 0.1) == (True, True)
    assert _verdicts(bench, parent, [x - 0.5 for x in parent], "lower", 0.1) == (True, True)
    # 9 of 10 won is enough, 8 of 10 is not
    nine = [x + 0.5 for x in parent[:9]] + [parent[9] - 0.5]
    eight = [x + 0.5 for x in parent[:8]] + [x - 0.5 for x in parent[8:]]
    assert _verdicts(bench, parent, nine, "higher", 0.1)[0] is True
    assert _verdicts(bench, parent, eight, "higher", 0.1)[0] is False
    # every pair won, but the medians 0.1 apart, inside the parent's spread
    assert _verdicts(bench, parent, [x + 0.1 for x in parent], "higher", 0.1)[0] is False
    # ties count for neither side
    assert _verdicts(bench, parent, parent, "higher", 0.1) == (False, True)
    # a 5 % loss is within a 0.1 bound and outside a 0.04 one, either way
    worse_high, worse_low = [0.95 * x for x in parent], [1.05 * x for x in parent]
    assert _verdicts(bench, parent, worse_high, "higher", 0.1) == (False, True)
    assert _verdicts(bench, parent, worse_high, "higher", 0.04) == (False, False)
    assert _verdicts(bench, parent, worse_low, "lower", 0.1) == (False, True)
    assert _verdicts(bench, parent, worse_low, "lower", 0.04) == (False, False)


def test_bench_pairs_records_the_machine_once_with_every_key(monkeypatch):
    bench = _load("bench_pairs")
    fake = {
        "numpy_cpu": {"FMA3": True, "AVX2": True, "AVX512F": False},
        "numpy_simd_found": ["X86_V3"],
        "openblas_core": "Haswell",
        "bytecode_writing": False,
    }
    calls = []

    def run(argv, **kwargs):
        calls.append(argv[1:])
        out = json.dumps(fake) if argv[2] == bench._MACHINE_PROBE else ""
        return subprocess.CompletedProcess(argv, 0, stdout=out, stderr="")

    monkeypatch.setattr(bench.subprocess, "run", run)
    machine = bench.machine()
    assert list(machine) == [*fake, "startup_s"]
    assert {key: machine[key] for key in fake} == fake
    assert list(machine["startup_s"]) == [
        "python_S_pass", "python_pass", "import_singscat_cli", "import_numpy",
        "import_lab", "singscat_junction",
    ]
    assert all(type(best) is float and best >= 0.0 for best in machine["startup_s"].values())
    # the probe once, then each start-up process best of nine
    assert calls[0] == ["-c", bench._MACHINE_PROBE]
    assert calls[1:] == [args for args in bench.STARTUP.values() for _ in range(9)]


def test_replay_repeats_its_hash_and_tells_one_ulp_apart():
    replay = _load("replay")
    first, again = (list(replay.outputs("mollifier_lab", 1, cycles=1)) for _ in range(2))
    sha, count = replay.digest(first)
    assert (sha, count) == replay.digest(again) and count == len(first) == 22
    # one ulp more in one entry of one lab product
    rows, verdict = first[0]
    m11, *rest = rows[0].matrix
    bumped = type(rows[0].matrix)(math.nextafter(m11, math.inf), *rest)
    first[0] = ([rows[0]._replace(matrix=bumped), *rows[1:]], verdict)
    assert replay.digest(first)[0] != sha
    # nestings of the same leaves hash apart
    assert replay.tokens([(1.0,), 2.0], []) != replay.tokens([(1.0, 2.0)], [])
    assert replay.tokens([0.1, 1j, "x", None], []) == [
        "list[4]", "0x1.999999999999ap-4", "0x0.0p+0", "0x1.0000000000000p+0", "'x'", "None"
    ]


def test_replay_compares_the_two_trees_name_by_name():
    replay = _load("replay")
    change = {"closed_form_sweep": ("aa11", "228"), "cli_without_numpy": ("bb22", "90")}
    lines, status = replay.compare(dict(change), change)
    assert status == 0 and lines == [
        "closed_form_sweep aa11 228 aa11 228 same",
        "cli_without_numpy bb22 90 bb22 90 same",
    ]
    # a hash, a count or a name on one side only is a difference
    for parent in (
        {**change, "cli_without_numpy": ("bb23", "90")},
        {**change, "cli_without_numpy": ("bb22", "91")},
        {"closed_form_sweep": change["closed_form_sweep"]},
    ):
        lines, status = replay.compare(parent, change)
        assert status == 1 and [line.rsplit(" ", 1)[1] for line in lines] == [
            "same", "DIFFERENT"
        ]
    assert replay.compare({}, {"x": ("cc33", "1")}) == (["x - - cc33 1 DIFFERENT"], 1)
    assert replay.parse("mollifier_lab e4bf 132\ncli_without_numpy 5d92 90\n") == {
        "mollifier_lab": ("e4bf", "132"), "cli_without_numpy": ("5d92", "90")
    }


def test_replay_with_a_parent_exits_one_when_a_hash_differs(monkeypatch, capsys, tmp_path):
    replay = _load("replay")
    parent_dir = tmp_path / "parent"
    digests = {
        parent_dir: {"cli_oneshot": ("aa11", "60"), "cli_without_numpy": ("bb22", "90")},
        replay.ROOT: {"cli_oneshot": ("aa11", "60"), "cli_without_numpy": ("bb22", "90")},
    }

    @contextlib.contextmanager
    def parent_tree(rev):
        assert rev == "HEAD~1"
        yield parent_dir

    monkeypatch.setattr(replay, "parent_tree", parent_tree)
    monkeypatch.setattr(replay, "run_tree", digests.__getitem__)
    assert replay.main(["--parent", "HEAD~1"]) == 0
    assert capsys.readouterr().out.split() == [
        "cli_oneshot", "aa11", "60", "aa11", "60", "same",
        "cli_without_numpy", "bb22", "90", "bb22", "90", "same",
    ]
    digests[replay.ROOT]["cli_without_numpy"] = ("bb23", "90")
    assert replay.main(["--parent", "HEAD~1"]) == 1
    assert capsys.readouterr().out.splitlines()[1] == "cli_without_numpy bb22 90 bb23 90 DIFFERENT"


def _op(kind: str, *argv: str) -> SimpleNamespace:
    return SimpleNamespace(kind=kind, params={"argv": list(argv)} if argv else {})


def _fake_workloads(ops: list[SimpleNamespace]) -> SimpleNamespace:
    """A workloads module whose every cycle is ops; cli.main echoes argv."""
    def cycles(workload, seed):
        while True:
            yield ops

    def capture_main(argv):
        return 0, " ".join(argv), ""

    return SimpleNamespace(cycles=cycles, capture_main=capture_main, run_op=lambda op: op.kind)


def test_replay_runs_each_sweep_in_both_formats(monkeypatch):
    replay = _load("replay")
    ops = [
        _op("main", "scatter", "--kmin", "1", "--format", "json"),
        _op("main", "scatter", "--k", "1"),
        _op("cli", "radial", "--kmin", "2"),
        _op("curve"),
    ]
    monkeypatch.setattr(replay, "load_workloads", lambda tree, numpy=True: _fake_workloads(ops))
    outputs = list(replay.sweep_outputs())
    assert outputs[:4] == [
        (0, "scatter --kmin 1 --format csv", ""),
        (0, "scatter --kmin 1 --format json", ""),
        (0, "radial --kmin 2 --format csv", ""),
        (0, "radial --kmin 2 --format json", ""),
    ]
    assert len(outputs) == 4 * len(replay.CLI_WORKLOADS) * len(replay.SEEDS) * replay.CYCLES


def test_replay_fails_naming_an_op_that_leaves_the_collector_disabled(monkeypatch):
    replay = _load("replay")
    fake = _fake_workloads([_op("curve"), _op("swave"), _op("main", "scatter", "--kmin", "1")])
    fake.run_op = lambda op: gc.disable() if op.kind == "swave" else op.kind
    fake.capture_main = lambda argv: gc.disable()
    monkeypatch.setattr(replay, "load_workloads", lambda tree, numpy=True: fake)
    assert gc.isenabled()
    try:
        outputs = replay.outputs("closed_form_sweep", 5, cycles=1)
        assert next(outputs) == "curve"
        with pytest.raises(SystemExit, match=r"^replay: closed_form_sweep seed 5 cycle 0 op 1 "
                                             r"\(swave\) left the garbage collector disabled$"):
            next(outputs)
        gc.enable()
        with pytest.raises(SystemExit, match="^replay: scatter --kmin 1 --format csv left"):
            next(replay.sweep_outputs())
        gc.enable()
        with pytest.raises(SystemExit, match="^replay: scatter --kmin 1 left"):
            next(replay.cli_outputs())
    finally:
        gc.enable()


def test_replay_grammar_corpus_spells_each_option_every_way():
    replay = _load("replay")
    table = {
        "cmd": [
            ["--alpha", "float", None, True],
            ["--also", "str", ["p", "q"], False],
            ["--beta", "int", [1, -1], False],
        ]
    }
    corpus = list(replay.grammar_argvs(table))
    assert corpus[0] == []
    rest = ["cmd", "--alpha", "1"]
    for argv in (
        # --also: its name, its shortest unique prefix, its longest
        # ambiguous one and the = form, each with no value and with values
        [*rest, "--also"], [*rest, "--also", "p"], [*rest, "--als", "-1"],
        [*rest, "--al", "--bogus"], [*rest, "--also=bogus"], [*rest, "--also="],
        # a bad type and a bad choice of an int
        [*rest, "--beta", "x"], [*rest, "--b", "3"], [*rest, "--beta=1"],
        # the required option itself, and left out
        ["cmd", "--alpha", "x"], ["cmd", "--alp", "-1"], ["cmd", "--alpha=-1"], ["cmd"],
        # strays, -h around a bad value, options before the subcommand
        [*rest, "--"], [*rest, "-"], [*rest, "x"], [*rest, "--bogus"],
        ["cmd", "-h", "--alpha", "x"], ["cmd", "--alpha", "x", "-h"],
        ["--alpha", "1", "cmd"], ["--bogus", *rest], ["-h", *rest],
    ):
        assert argv in corpus, argv
    # no ambiguous prefix for an option that has none, no bad type for a str
    assert ["cmd", "--alph", "1"] not in corpus and [*rest, "--also", "x"] not in corpus


def test_replay_hashes_a_usage_text_by_its_exit_code_alone(monkeypatch, tmp_path):
    replay = _load("replay")
    fake = _fake_workloads([])
    fake.capture_main = lambda argv: (0, "usage: singscat", "") if "-h" in argv else (
        2, " ".join(argv), ""
    )
    monkeypatch.setattr(replay, "load_workloads", lambda tree, numpy=True: fake)
    monkeypatch.setattr(replay, "grammar", lambda: {"cmd": [["--n", "int", None, True]]})
    monkeypatch.chdir(tmp_path)
    outputs = list(replay.grammar_outputs())
    assert outputs[:2] == [(2, "", ""), (2, "cmd --n", "")]
    assert outputs[-1] == 0 and outputs.count(0) == 3  # the three with -h
    assert list(tmp_path.iterdir()) == []


def test_replay_reads_the_grammar_table_of_the_cli():
    from singscat.cli import _GRAMMAR

    table = _load("replay").grammar()
    assert list(table) == list(_GRAMMAR)
    assert table["scatter"][3] == ["--iv-a", "int", [1, -1], False]
    assert sum(map(len, table.values())) == 46


def test_replay_regime_corpus_crosses_every_class_with_every_energy():
    replay = _load("replay")
    corpus = list(replay.regime_argvs())
    grids = len(replay.REGIME_ENERGIES) + len(replay.REGIME_SWEEPS)
    per_spec = 1 + (1 + len(replay.REGIME_RADII)) * grids * 2
    assert len(corpus) == len(replay.REGIME_SPECS) * per_spec == 1010
    assert len({tuple(argv) for argv in corpus}) == len(corpus)
    for argv in (
        ["bound", "--m", "1.5", "--c", "1"],
        ["scatter", "--m", "2", "--c", repr(-(math.pi**2)), "--k", "5e-324", "--format", "csv"],
        ["radial", "--a", "2", "--m", "1", "--c", "1e308", "--k", "1e-30", "--format", "json"],
        ["radial", "--a", "1e-3", "--m", "3", "--c", "-1", "--iv-a", "-1", "--iv-b", "0.5",
         "--kmin", "5e-324", "--kmax", "1.7e308", "--ksteps", "9", "--format", "csv"],
        ["radial", "--a", "1e5", "--m", "0.5", "--c", "3", "--kmin", "1e-300",
         "--kmax", "1e300", "--ksteps", "9", "--kscale", "lin", "--format", "json"],
    ):
        assert argv in corpus, argv


def test_replay_regime_corpus_gives_the_same_bytes_with_and_without_numpy():
    # the in-process pass runs scatter's array kernel and the child its
    # scalar one; every output of a valid sweep, flagged rows included,
    # must agree
    replay = _load("replay")
    inside = list(replay.regime_outputs())
    outside = list(replay.regime_outputs_without_numpy())
    assert len(inside) == len(outside) == 1010
    assert inside == outside
    # successes, refused energies (2), the undefined spec (3) and
    # numerical refusals (4) all occur
    assert {code for code, _, _ in inside} == {0, 2, 3, 4}
