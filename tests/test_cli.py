"""Black-box checks of the command-line surface.

Golden files under tests/golden/ freeze the exact bytes of representative
documents; everything else is exit codes, headers, and round trips.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
import select
import signal
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singscat.cli import _GRAMMAR, _fail, main
from singscat.cli_energy import MAX_KSTEPS, _k_grid
from singscat.cli_lab import MAX_EPS
from singscat.errors import BracketError, TransferOverflow
from singscat.mollifier import MAX_LEVEL
from singscat.serialize import canonical_json
from singscat.table import _TABLE_BLOCK

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden_text(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


# ---------------------------------------------------------------- goldens


def test_golden_junction(capsys):
    code, out, _ = run(capsys, "junction", "--m", "1", "--c", "-2")
    assert code == 0
    assert out == golden_text("junction_delta.json")


def test_golden_scatter_single(capsys):
    code, out, _ = run(capsys, "scatter", "--m", "1", "--c", "-1", "--k", "1")
    assert code == 0
    assert out == golden_text("scatter_single.json")


def test_golden_scatter_sweep(capsys):
    code, out, _ = run(
        capsys,
        "scatter", "--m", "1", "--c", "-1",
        "--kmin", "0.5", "--kmax", "2", "--ksteps", "3", "--kscale", "lin",
        "--format", "csv",
    )
    assert code == 0
    assert out == golden_text("scatter_sweep.csv")


def test_golden_radial(capsys):
    code, out, _ = run(
        capsys, "radial", "--m", "1", "--c", "-2", "--a", "1", "--k", "1"
    )
    assert code == 0
    assert out == golden_text("radial_shell.json")


def test_golden_bound(capsys):
    code, out, _ = run(capsys, "bound", "--m", "1", "--c", "-2")
    assert code == 0
    assert out == golden_text("bound_delta.json")


def test_golden_resonance(capsys):
    code, out, _ = run(capsys, "resonance", "--shape", "tophat", "--n", "1")
    assert code == 0
    assert out == golden_text("resonance_tophat.json")


def test_golden_mollify(capsys):
    code, out, err = run(
        capsys,
        "mollify", "--m", "1", "--c", "-1",
        "--shape", "tophat", "--eps", "1e-1,1e-2,1e-3", "--k", "1",
    )
    assert code == 0
    assert out == golden_text("mollify_tophat.csv")
    summary = json.loads(err)
    assert summary["verdict"] == "convergent"
    assert abs(summary["slope"] - 1.0) < 0.2
    assert summary["r2"] >= 0.98


def test_json_documents_round_trip_byte_identical(capsys):
    for name in (
        "junction_delta.json",
        "scatter_single.json",
        "radial_shell.json",
        "bound_delta.json",
        "resonance_tophat.json",
    ):
        text = golden_text(name)
        assert canonical_json(json.loads(text)) + "\n" == text


def test_runs_are_deterministic(capsys):
    args = ("scatter", "--m", "1", "--c", "-1", "--kmin", "0.1", "--kmax", "10",
            "--ksteps", "7")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_a_refusal_or_help_leaves_later_parses_unchanged(capsys):
    sweep = ("scatter", "--m", "1", "--c", "-1", "--kmin", "0.1", "--kmax", "10",
             "--ksteps", "7", "--format", "json")
    first = run(capsys, *sweep)
    assert run(capsys, "scatter", "--m", "1")[0] == 2
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "scatter", "--help")[0] == 0
    assert run(capsys, *sweep) == first


# ------------------------------------------------------------- exit codes


def test_exit_zero_on_success(capsys):
    code, _, _ = run(capsys, "junction", "--m", "0.3", "--c", "5")
    assert code == 0


def test_exit_two_on_bad_arguments(capsys):
    code, out, _ = run(capsys, "junction", "--m", "0", "--c", "1")
    assert code == 2
    assert json.loads(out)["error"] == "invalid_argument"

    code, out, _ = run(capsys, "scatter", "--m", "1", "--c", "1", "--k", "0")
    assert code == 2

    code, out, _ = run(
        capsys, "scatter", "--m", "1", "--c", "1",
        "--kmin", "0", "--kmax", "1", "--ksteps", "5",
    )
    assert code == 2

    # argparse's own rejections leave with the same JSON document
    for argv in (
        ("junction", "--m", "1"),
        ("nonsense",),
        ("junction", "--m", "1", "--c", "-2", "--config", "x"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "invalid_argument"
        assert doc["message"]
        assert err == ""


def test_help_exits_zero_with_its_usage_text(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: singscat")
    code, out, _ = run(capsys, "scatter", "--help")
    assert code == 0
    assert "--kmin" in out


def _refused(message: str) -> str:
    return canonical_json({"error": "invalid_argument", "message": message}) + "\n"


_COMMANDS = "'junction', 'scatter', 'bound', 'radial', 'mollify', 'resonance'"
_DELTA = '{"det":1,"junction":[[1,0],[%s,1]],"n":null,"regime":"standard_delta"}\n'

# Edge command lines with the exit code and stdout that argparse gave them
# (Python 3.11); None stands for a usage text.
_PINNED = [
    ("junction --m 1 --c=", 2, _refused("argument --c: invalid float value: ''")),
    ("junction --m=1 --c=-2", 0, _DELTA % "-2"),
    ("scatter --m 1 --c -1 --kmi 1 --kma 2 --kst 2", 0,
     "k,re_r,im_r,re_t,im_t,R,T,flux_residual,error\n"
     "1,-0.20000000000000001,0.40000000000000002,0.80000000000000004,"
     "0.40000000000000002,0.20000000000000004,0.80000000000000016,"
     "2.2204460492503131e-16,\n"
     "2,-0.1111111111111111,0.31426968052735443,0.88888888888888884,"
     "0.31426968052735443,0.1111111111111111,0.88888888888888884,0,\n"),
    ("scatter --m 1 --c -1 --k 1", 0, golden_text("scatter_single.json")),
    ("scatter --m 1 --c -1 --km 1 --k 1", 2,
     _refused("ambiguous option: --km could match --kmin, --kmax")),
    ("junction --m 1 --c 1 --i 1", 2,
     _refused("ambiguous option: --i could match --iv-a, --iv-b")),
    ("junction --m 1 --c 5 --c -2", 0, _DELTA % "-2"),
    ("junction --m 1 --c -1e-3", 0, _DELTA % "-0.001"),
    ("junction --m 1 --c -.5E2", 0, _DELTA % "-50"),
    ("junction --m 1 --c -inf", 2, _refused("coupling must be finite, got -inf")),
    ("junction --m 1 --c -NaN", 2, _refused("coupling must be finite, got nan")),
    ("junction --m 1 --c -infx", 2, _refused("argument --c: expected one argument")),
    ("junction --m 1 --c", 2, _refused("argument --c: expected one argument")),
    ("junction --m x --c y", 2, _refused("argument --m: invalid float value: 'x'")),
    ("resonance --shape gauss --n 1.5", 2,
     _refused("argument --n: invalid int value: '1.5'")),
    ("junction --m 3 --c -1 --iv-a 3 --iv-b 0", 2,
     _refused("argument --iv-a: invalid choice: 3 (choose from 1, -1)")),
    ("scatter --m 1 --c -1 --k 1 --format xml", 2,
     _refused("argument --format: invalid choice: 'xml' (choose from 'json', 'csv')")),
    ("resonance --n 1 --shape cube", 2, _refused(
        "argument --shape: invalid choice: 'cube' "
        "(choose from 'cosine', 'gauss', 'tophat', 'triangle')")),
    ("junction", 2, _refused("the following arguments are required: --m, --c")),
    ("junction --km 1", 2, _refused("the following arguments are required: --m, --c")),
    ("junction --m 1 --c 1 --bogus x", 2, _refused("unrecognized arguments: --bogus x")),
    ("junction --m 1 --c 1 -- 3", 2, _refused("unrecognized arguments: -- 3")),
    ("junction --m 1 --c 1 -", 2, _refused("unrecognized arguments: -")),
    ("junction --m 1 --c 1 -x", 2, _refused("unrecognized arguments: -x")),
    ("--bogus junction --m 1 --c 1", 2, _refused("unrecognized arguments: --bogus")),
    ("", 2, _refused("the following arguments are required: command")),
    ("1", 2, _refused(f"argument command: invalid choice: '1' (choose from {_COMMANDS})")),
    ("--m 1 junction", 2,
     _refused(f"argument command: invalid choice: '1' (choose from {_COMMANDS})")),
    ("-hx", 2, _refused("argument -h/--help: ignored explicit argument 'x'")),
    ("junction --m x --help", 2, _refused("argument --m: invalid float value: 'x'")),
    ("-h", 0, None),
    ("--he", 0, None),
    ("junction --help", 0, None),
    ("mollify -h --m x", 0, None),
]


@pytest.mark.parametrize("argv, code, stdout", _PINNED, ids=[case[0] for case in _PINNED])
def test_edge_command_lines_give_their_pinned_exit_and_document(capsys, argv, code, stdout):
    got, out, err = run(capsys, *argv.split())
    assert (got, err) == (code, "")
    if stdout is None:
        assert out.startswith("usage: singscat")
    else:
        assert out == stdout


@pytest.mark.parametrize(
    "argv, message",
    [
        # the parent said "must be positive", which inf is
        ("radial --m 1 --c -1 --a inf --k 1",
         "shell radius must be positive and finite, got inf"),
        ("mollify --m 1 --c -1 --shape tophat --eps inf,1e-2",
         "eps must be positive and finite, got inf"),
        # the parent checked the order first: "eps_list must decrease strictly"
        ("mollify --m 1 --c -1 --shape tophat --eps nan,1e-2",
         "eps must be positive and finite, got nan"),
    ],
)
def test_refusals_of_inf_and_nan_name_the_rule_they_apply(capsys, argv, message):
    assert run(capsys, *argv.split())[:2] == (2, _refused(message))


@pytest.mark.parametrize(
    "argv, message",
    [
        ("scatter --m 1 --c -1 --k=--", "argument --k: invalid float value: '--'"),
        ("mollify --m 1 --c -1 --shape tophat --eps=--", "bad --eps list: '--'"),
        ("junction --m 1 --c 1 --iv-a=--", "argument --iv-a: invalid int value: '--'"),
        ("resonance --shape=-- --n 1", "argument --shape: invalid choice: '--' "
         "(choose from 'cosine', 'gauss', 'tophat', 'triangle')"),
    ],
)
def test_two_dashes_after_equals_are_a_value_like_any_other(capsys, argv, message):
    # argparse stored an empty list for them, on which scatter, mollify and
    # resonance raised a traceback
    assert run(capsys, *argv.split())[:2] == (2, _refused(message))


def test_exit_three_on_regime_errors(capsys):
    code, out, _ = run(capsys, "junction", "--m", "1.5", "--c", "-1")
    assert code == 3
    doc = json.loads(out)
    assert doc["error"] == "undefined_regime"
    assert doc["reason"]

    code, out, _ = run(capsys, "junction", "--m", "3", "--c", "-1")
    assert code == 3
    assert json.loads(out)["error"] == "missing_choice"

    code, out, _ = run(
        capsys,
        "scatter", "--m", "3", "--c", "-1",
        "--iv-a", "-1", "--iv-b", "0", "--k", "1",
    )
    assert code == 3
    assert json.loads(out)["error"] == "no_scattering_state"


def test_case_iv_scatter_at_large_k_is_computed(capsys):
    code, out, _ = run(
        capsys,
        "scatter", "--m", "3", "--c", "-1",
        "--iv-a", "-1", "--iv-b", "1", "--k", "1e28",
    )
    assert code == 0
    assert abs(json.loads(out)["T"] - 4e28) <= 1e-12 * 4e28
    code, out, _ = run(
        capsys,
        "scatter", "--m", "3", "--c", "-1",
        "--iv-a", "-1", "--iv-b", "1e-10", "--k", "1e300",
    )
    assert code == 4
    assert json.loads(out)["error"] == "overflow"


def test_case_iv_flux_residual_is_relative_to_max_of_1_r_t(capsys):
    # R = T = 4k/b^2 = 4e28: the bare T - R + 1 is the rounding of R and
    # printed 1; relative to max(1, R, T) it is 1 / 4e28
    iv = ["scatter", "--m", "3", "--c", "-1", "--iv-a", "-1", "--iv-b", "1"]
    code, out, _ = run(capsys, *iv, "--k", "1e28")
    assert code == 0
    point = json.loads(out)
    assert point["flux_residual"] == 1.0 / point["T"]
    sweep = ["--kmin", "1e28", "--kmax", "1e32", "--ksteps", "3", "--format", "json"]
    code, out, _ = run(capsys, *iv, *sweep)
    assert code == 0
    rows = json.loads(out)["rows"]  # numpy is loaded: the array kernel
    assert rows[0] == dict(point, error="")
    assert all(abs(row["flux_residual"]) <= 1e-15 for row in rows)


def test_zero_coupling_is_free_flight_even_where_eps_power_overflows(capsys):
    # eps^-m is past the float range at eps = 1e-320, but c = 0 multiplies it
    code, out, _ = run(
        capsys,
        "mollify", "--m", "1", "--c", "0", "--shape", "gauss",
        "--eps", "1e-320", "--k", "1",
    )
    assert code == 0
    header, row = out.splitlines()
    assert row.split(",")[1:] == ["1", "0", "0", "1", "0", "0", "ok"]


def test_overflowing_row_leaves_stderr_empty(capsys):
    # at eps = 1e-9 the lower-left entry of a cell propagator overflows
    code, out, err = run(
        capsys,
        "mollify", "--m", "3", "--c", "1", "--shape", "triangle",
        "--eps", "1e-1,1e-9", "--k", "1",
    )
    assert code == 0
    assert out.splitlines()[-1].endswith(",overflow")
    assert err == ""


def test_exit_four_on_numerical_failure(capsys):
    # sqrt(k) eps / 2 is past 2^34 for every eps: no row keeps a digit of
    # its phase, so the command fails as a whole
    code, out, _ = run(
        capsys,
        "mollify", "--m", "0.5", "--c", "1", "--shape", "tophat",
        "--eps", "1e-1,1e-2,1e-3", "--k", "1e40",
    )
    assert code == 4
    doc = json.loads(out)
    assert doc["error"] == "precision_loss"
    assert doc["message"]
    # a bound state whose energy -kappa^2 overflows is refused, not printed
    # as null
    code, out, _ = run(capsys, "bound", "--m", "1", "--c", "-1e308")
    assert code == 4
    assert json.loads(out)["error"] == "overflow"
    # rows that fail with different tags leave as no_convergence: one row
    # loses its phase at k = 1e24, the other overflows in its well
    code, out, _ = run(
        capsys,
        "mollify", "--m", "3", "--c", "1", "--shape", "tophat",
        "--eps", "1e-1,1e-9", "--k", "1e24",
    )
    assert code == 4
    assert json.loads(out)["error"] == "no_convergence"
    # a level the scan cannot isolate leaves through the same exit code
    assert _fail(BracketError("no sign change between -1 and -5")) == 4
    assert json.loads(capsys.readouterr().out) == {
        "error": "bracket_error", "message": "no sign change between -1 and -5"
    }


def test_mollify_rows_past_the_phase_limit_are_flagged(capsys):
    # at k = 1e24 the eps = 0.1 phase sqrt(k) eps / 2 = 5e10 is past 2^34;
    # the narrower rows are computed
    code, out, _ = run(
        capsys,
        "mollify", "--m", "1", "--c", "-1", "--shape", "tophat",
        "--eps", "1e-1,1e-2,1e-3", "--k", "1e24",
    )
    assert code == 0
    flags = [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]]
    assert flags == ["precision_loss", "ok", "ok"]


def test_mollify_overflowing_strip_flags_rows_and_exits_four(capsys):
    # at k = -1e4 the transfer across the eps = 1 gauss (half width 8)
    # overflows; every row is flagged overflow, and so is the command
    code, out, _ = run(
        capsys,
        "mollify", "--m", "1", "--c", "-1", "--shape", "gauss",
        "--eps", "1,0.5,0.1", "--k=-1e4",
    )
    assert code == 4
    assert json.loads(out)["error"] == "overflow"


@pytest.mark.parametrize(
    "argv",
    [
        ["--m", "1", "--c", "-1", "--shape", "gauss", "--eps", "1e-320"],
        ["--m", "3", "--c", "-1", "--iv-a", "1", "--iv-b", "0.5", "--shape", "tophat", "--eps", "1e-110"],
    ],
)
def test_mollify_eps_power_overflow_is_flagged_not_a_traceback(capsys, argv):
    # eps^-m is past the float range: the row is an overflow, and a sweep
    # of nothing else exits 4 with its error document
    code, out, _ = run(capsys, "mollify", *argv, "--k", "1")
    assert code == 4
    assert json.loads(out) == {"error": "overflow", "message": "every eps value overflowed"}
    eps = argv.index("--eps") + 1
    argv = argv[:eps] + ["1e-1," + argv[eps]] + argv[eps + 1 :]
    code, out, _ = run(capsys, "mollify", *argv, "--k", "1")
    assert code == 0
    flags = [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]]
    assert flags[1] == "overflow" and flags[0] != "overflow"


def test_radial_phase_beyond_rounding_is_refused(capsys):
    code, out, _ = run(
        capsys, "radial", "--m", "1", "--c", "1", "--a", "1e300", "--k", "1e10"
    )
    assert code == 4
    assert json.loads(out)["error"] == "precision_loss"


@pytest.mark.parametrize("m, c", [("1", "-2"), ("0.5", "1")])
def test_radial_cross_section_that_overflows_is_refused(capsys, m, c):
    # 4 pi / k overflows: inf * sin^2(delta0), and inf * 0 = nan for the
    # identity junction of (0.5, 1)
    point = ("radial", "--m", m, "--c", c, "--a", "1")
    code, out, _ = run(capsys, *point, "--k", "1e-320")
    assert code == 4
    assert json.loads(out)["error"] == "overflow"
    code, out, _ = run(
        capsys, *point, "--kmin", "1e-320", "--kmax", "1", "--ksteps", "3",
        "--kscale", "lin",
    )
    assert code == 0
    first, *rest = out.splitlines()[1:]
    assert first.endswith(",nan,nan,overflow")
    assert all(line.endswith(",") for line in rest)


# ------------------------------------------------------------------ flags

_POINT_OPTIONS = {"--out", "--m", "--c", "--iv-a", "--iv-b"}
_KGRID_OPTIONS = {"--k", "--kmin", "--kmax", "--ksteps", "--kscale"}
_SUBCOMMAND_OPTIONS = {
    "junction": _POINT_OPTIONS,
    "bound": _POINT_OPTIONS,
    "scatter": _POINT_OPTIONS | _KGRID_OPTIONS | {"--format"},
    "radial": _POINT_OPTIONS | _KGRID_OPTIONS | {"--format", "--a"},
    "mollify": _POINT_OPTIONS
    | {"--format", "--shape", "--eps", "--k", "--reference"},
    "resonance": {"--out", "--shape", "--n"},
}


def _subcommand_options() -> dict[str, set[str]]:
    """The option strings of each subcommand, -h and --help included."""
    return {
        name: {"-h", "--help", *(option[0] for option in options)}
        for name, (_, options) in _GRAMMAR.items()
    }


def test_each_subcommand_takes_only_the_options_it_reads():
    options = {
        name: strings - {"-h", "--help"}
        for name, strings in _subcommand_options().items()
    }
    assert options == _SUBCOMMAND_OPTIONS
    assert sum(map(len, options.values())) == 46


def test_no_tolerance_is_a_knob():
    """Tolerances are module constants: no public function takes one as a
    parameter and no subcommand takes one as an option."""
    import ast

    src = Path(__file__).parent.parent / "src" / "singscat"

    def public(name: str) -> bool:
        return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))

    def functions(body):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and public(node.name):
                yield node
            elif isinstance(node, ast.ClassDef) and public(node.name):
                yield from functions(node.body)

    knobs = [
        f"{path.name}:{func.name}({arg.arg})"
        for path in sorted(src.glob("*.py"))
        for func in functions(ast.parse(path.read_text(encoding="utf-8")).body)
        for arg in ast.walk(func.args)
        if isinstance(arg, ast.arg) and "tol" in arg.arg
    ]
    assert knobs == []
    options = set().union(*_subcommand_options().values())
    assert [option for option in options if option.endswith("-tol")] == []


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("junction", "--m", "1", "--c", "-2"), ("--format", "csv")),
        (("junction", "--m", "1", "--c", "-2"), ("--int-tol", "1e-3")),
        (("bound", "--m", "1", "--c", "-2"), ("--format", "csv")),
        (("bound", "--m", "1", "--c", "-2"), ("--int-tol", "1e-3")),
        (("scatter", "--m", "1", "--c", "-1", "--k", "1"), ("--int-tol", "1e-3")),
        (("radial", "--m", "1", "--c", "-2", "--a", "1", "--k", "1"),
         ("--int-tol", "1e-3")),
        (("resonance", "--shape", "tophat", "--n", "1"), ("--format", "csv")),
        (("resonance", "--shape", "tophat", "--n", "1"), ("--int-tol", "1e-3")),
        (("resonance", "--shape", "tophat", "--n", "1"), ("--resonance-tol", "1e-6")),
        (("resonance", "--shape", "tophat", "--n", "1"),
         ("--c-min", "-5", "--c-max", "-1")),
        (("junction", "--m", "3", "--c", "-1", "--iv-a", "1", "--iv-b", "0"),
         ("--iv-default",)),
        (("mollify", "--m", "1", "--c", "-1", "--shape", "tophat",
          "--eps", "1e-1,1e-2", "--reference", "none"), ("--int-tol", "1e-3")),
        (("junction", "--m", "2", "--c", "-9.869604401089358"),
         ("--resonance-tol", "1e-6")),
    ],
)
def test_options_a_subcommand_does_not_read_are_refused(capsys, argv, flag):
    assert run(capsys, *argv)[0] == 0
    code, out, _ = run(capsys, *argv, *flag)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "invalid_argument"
    assert flag[0] in doc["message"]


@pytest.mark.parametrize("value", ["-1e-3", "-1E3", "-.5e-2", "-2.5e-1", "-1."])
def test_negative_numbers_in_exponent_notation_parse(capsys, value):
    code, out, _ = run(capsys, "junction", "--m", "1", "--c", value)
    assert code == 0
    assert json.loads(out)["junction"][1][0] == float(value) + 0.0
    assert run(capsys, "junction", "--m", "1", f"--c={value}")[1] == out
    code, out, _ = run(
        capsys, "bound", "--m", "3", "--c", "-1", "--iv-a", "1", "--iv-b", value
    )
    assert code == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (("junction", "--m", "1", "--c", "-inf"), "coupling must be finite, got -inf"),
        (("junction", "--m", "1", "--c", "-Infinity"),
         "coupling must be finite, got -inf"),
        (("junction", "--m", "1", "--c", "-NaN"), "coupling must be finite, got nan"),
        (("scatter", "--m", "1", "--c", "-1", "--k", "-inf"),
         "k must be positive and finite, got -inf"),
        (("bound", "--m", "3", "--c", "-1", "--iv-a", "1", "--iv-b", "-inf"),
         "b must be finite, got -inf"),
        (("junction", "--m", "1", "--c", "-infx"),
         "argument --c: expected one argument"),
    ],
)
def test_negative_infinity_and_nan_parse_as_values(capsys, argv, message):
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert json.loads(out) == {"error": "invalid_argument", "message": message}


def test_neutral_iv_choice_gives_the_identity_junction(capsys):
    code, out, _ = run(
        capsys, "junction", "--m", "3", "--c", "-1", "--iv-a", "1", "--iv-b", "0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["regime"] == "indeterminate"
    assert doc["junction"] == [[1, 0], [0, 1]]


def test_iv_flags_build_the_chosen_junction(capsys):
    code, out, _ = run(
        capsys, "junction", "--m", "3", "--c", "-1", "--iv-a", "-1", "--iv-b", "0.5"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["junction"] == [[-1, 0], [0.5, 1]]
    assert doc["det"] == -1


def test_resonant_scatter_flips_sign_only(capsys):
    code, out, _ = run(
        capsys, "scatter", "--m", "2", "--c", "-9.869604401089358", "--k", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["T"] == 1
    assert doc["R"] == 0
    assert doc["re_t"] == -1
    assert doc["im_t"] == 0


def test_single_point_csv_has_no_error_column(capsys):
    code, out, _ = run(
        capsys, "scatter", "--m", "1", "--c", "-1", "--k", "1", "--format", "csv"
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header == "k,re_r,im_r,re_t,im_t,R,T,flux_residual"


def test_sweep_csv_headers(capsys):
    _, out, _ = run(
        capsys,
        "scatter", "--m", "1", "--c", "-1",
        "--kmin", "1", "--kmax", "2", "--ksteps", "2", "--format", "csv",
    )
    assert out.splitlines()[0] == "k,re_r,im_r,re_t,im_t,R,T,flux_residual,error"

    _, out, _ = run(
        capsys,
        "radial", "--m", "1", "--c", "-2", "--a", "1",
        "--kmin", "1", "--kmax", "2", "--ksteps", "2", "--format", "csv",
    )
    assert out.splitlines()[0] == "k,a,delta0,sigma0,error"

    _, out, _ = run(
        capsys,
        "mollify", "--m", "1", "--c", "-1", "--shape", "tophat",
        "--eps", "1e-1,1e-2", "--k", "1",
    )
    assert out.splitlines()[0] == "eps,M11,M12,M21,M22,det_err,deviation,flag"


def test_failed_sweep_rows_are_flagged_not_fatal(capsys):
    code, out, _ = run(
        capsys,
        "scatter", "--m", "3", "--c", "-1", "--iv-a", "-1", "--iv-b", "0",
        "--kmin", "1", "--kmax", "4", "--ksteps", "3", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    for line in lines[1:]:
        assert line.endswith(",no_scattering_state")
        assert "nan" in line
        assert line.count(",") == lines[0].count(",")


def test_out_flag_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = run(
        capsys, "junction", "--m", "1", "--c", "-2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == golden_text("junction_delta.json")


def test_out_into_missing_directory_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "result.json"
    code, out, _ = run(
        capsys, "junction", "--m", "1", "--c", "-2", "--out", str(target)
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "invalid_argument"
    assert "result.json" in doc["message"]
    assert not target.exists()


_SWEEP_ARGV = (
    "scatter", "--m", "1", "--c", "-1", "--kmin", "1e-3", "--kmax", "1e3",
    "--ksteps", "700", "--format", "json",
)


def test_out_replaces_its_file_only_when_the_run_succeeds(capsys, tmp_path):
    target = tmp_path / "result.json"
    target.write_text("old", encoding="utf-8")
    target.chmod(0o640)
    # refused before any row: the file is left as it was
    code, out, _ = run(capsys, *_SWEEP_ARGV[:3], "--out", str(target))
    assert code == 2 and json.loads(out)["error"] == "invalid_argument"
    assert target.read_text(encoding="utf-8") == "old"
    code, out, _ = run(capsys, *_SWEEP_ARGV, "--out", str(target))
    assert (code, out) == (0, "")
    assert run(capsys, *_SWEEP_ARGV)[1] == target.read_text(encoding="utf-8")
    # the file keeps its mode, and no temporary file is left beside it
    assert target.stat().st_mode & 0o777 == 0o640
    assert [path.name for path in tmp_path.iterdir()] == ["result.json"]


def test_out_through_a_symlink_writes_the_file_it_names(capsys, tmp_path):
    target, link = tmp_path / "result.json", tmp_path / "link.json"
    target.write_text("old", encoding="utf-8")
    link.symlink_to(target)
    code, out, _ = run(capsys, "junction", "--m", "1", "--c", "-2", "--out", str(link))
    assert (code, out) == (0, "")
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8") == golden_text("junction_delta.json")


@pytest.mark.skipif(not os.path.exists("/proc/self/fd"), reason="descriptor links (Linux)")
@pytest.mark.parametrize("path", ["/dev/stdout", "/proc/self/fd/1"])
def test_out_onto_stdout_as_a_pipe_writes_the_pipe(path):
    # the parent resolved the link to /proc/<pid>/fd/pipe:[...], which is
    # no file: exit 2, "No such file or directory"
    for argv in [("junction", "--m", "1", "--c", "-1"), _SWEEP_ARGV]:
        want = _fresh(*argv)
        assert _fresh(*argv, "--out", path) == want, argv
        assert want[0] == 0


def test_out_onto_a_directory_is_refused_and_names_the_path(capsys, tmp_path):
    target = tmp_path / "result.json"
    target.mkdir()
    code, out, _ = run(capsys, *_SWEEP_ARGV, "--out", str(target))
    assert code == 2
    doc = json.loads(out)
    assert doc == {
        "error": "invalid_argument",
        "message": f"cannot write --out file: [Errno 21] Is a directory: {str(target)!r}",
    }
    assert target.is_dir() and [path.name for path in tmp_path.iterdir()] == ["result.json"]


def test_a_sweep_failing_after_its_first_block_leaves_no_out_file(capsys, tmp_path, monkeypatch):
    # rows past the first block cannot raise; were one to, its error
    # document is printed and --out is left as it was
    import singscat.scatter as scatter

    def failing_columns(matrix, grid):
        n = 2 * _TABLE_BLOCK
        yield grid[:n], None, [0j] * n, [1 + 0j] * n, [0.0] * n, [1.0] * n, [0.0] * n
        raise TransferOverflow("late failure")

    monkeypatch.setattr(scatter, "_amplitude_columns", failing_columns)
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, *_SWEEP_ARGV, "--out", str(target))
    assert code == 4
    assert json.loads(out) == {"error": "overflow", "message": "late failure"}
    assert list(tmp_path.iterdir()) == []


def _python(*args: str, **kwargs) -> subprocess.Popen:
    """A Python process on this checkout's src, stderr piped."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")])
    )}
    return subprocess.Popen([sys.executable, *args], env=env, stderr=subprocess.PIPE,
                            **kwargs)


def _singscat(*argv: str, **kwargs) -> subprocess.Popen:
    """A singscat process on this checkout's src, stderr piped."""
    return _python("-m", "singscat", *argv, **kwargs)


def _read_within(child: subprocess.Popen, pipe, size: int = 0, seconds: float = 60.0) -> bytes:
    """size bytes of one of child's pipes, or all to its end if size is 0.

    A child that gives neither within seconds is killed, and the test fails
    instead of waiting on the pipe for good.
    """
    deadline = time.monotonic() + seconds
    data = b""
    while not size or len(data) < size:
        if not select.select([pipe], [], [], max(0.0, deadline - time.monotonic()))[0]:
            child.kill()
            pytest.fail(f"the child's pipe gave {len(data)} bytes in {seconds} s, no more")
        piece = os.read(pipe.fileno(), size - len(data) if size else 65536)
        if not piece:
            break
        data += piece
    return data


def _fresh(*argv: str) -> tuple[int, str, str]:
    """run's (exit code, stdout, stderr), from a singscat process."""
    with _singscat(*argv, stdout=subprocess.PIPE) as child:
        out, err = child.communicate(timeout=120)
    return child.returncode, out.decode(), err.decode()


# A document of every subcommand, a sweep of each kind, and each refusal
_PARITY = [
    ("junction", "--m", "1", "--c", "-2"),
    ("bound", "--m", "1", "--c", "-2"),
    ("scatter", "--m", "1", "--c", "-1", "--k", "1"),
    ("radial", "--m", "1", "--c", "-2", "--a", "1", "--k", "1"),
    ("scatter", "--m", "1", "--c", "-1", "--kmin", "0.1", "--kmax", "10",
     "--ksteps", "200", "--format", "csv"),
    ("scatter", "--m", "1", "--c", "-1", "--kmin", "0.1", "--kmax", "10",
     "--ksteps", "7", "--format", "json"),
    ("radial", "--m", "1", "--c", "-2", "--a", "1", "--kmin", "0.1", "--kmax", "10",
     "--ksteps", "20", "--format", "json"),
    ("mollify", "--m", "1", "--c", "-1", "--shape", "tophat",
     "--eps", "1e-1,1e-2,1e-3", "--k", "1"),
    ("resonance", "--shape", "tophat", "--n", "1"),
    ("junction", "--m", "1.5", "--c", "1"),
    ("scatter", "--m", "1"),
]


def test_a_fresh_process_gives_what_main_gives_in_process(capsys, tmp_path):
    codes = set()
    for argv in _PARITY:
        want = run(capsys, *argv)
        assert _fresh(*argv) == want, argv
        codes.add(want[0])
    assert codes == {0, 2, 3}
    sweep = _PARITY[4]
    # its one text block went to the pipe in several pieces
    assert len(run(capsys, *sweep)[1]) > 3 * 4096
    want = run(capsys, *sweep, "--out", str(tmp_path / "main.csv"))
    assert _fresh(*sweep, "--out", str(tmp_path / "fresh.csv")) == want == (0, "", "")
    assert (tmp_path / "fresh.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()


def test_the_exit_freezes_every_object_and_still_runs_atexit_handlers():
    # the parent froze nothing (False); os._exit would skip the handler
    script = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
        "sys.argv[1:] = ['junction', '--m', '1', '--c', '-2']\n"
        "from singscat.cli import main_entry\n"
        "main_entry()\n"
    )
    with _python("-c", script, stdout=subprocess.PIPE) as child:
        out, err = child.communicate(timeout=120)
    assert child.returncode == 0 and err == b""
    assert out.decode() == golden_text("junction_delta.json") + "True\n"


_LONG_SWEEP = ("scatter", "--m", "1", "--c", "-2", "--kmin", "0.1", "--kmax", "10",
               "--ksteps", "10000")


def test_a_stdout_pipe_closed_after_the_first_bytes_exits_two_without_a_traceback():
    # the parent ended in BrokenPipeError, a traceback and exit 1
    with _singscat(*_LONG_SWEEP, stdout=subprocess.PIPE) as child:
        assert len(_read_within(child, child.stdout, 100)) == 100
        child.stdout.close()
        err = _read_within(child, child.stderr).decode()
        code = child.wait(timeout=120)
    assert code == 2 and "Traceback" not in err
    assert json.loads(err) == {
        "error": "invalid_argument", "message": "cannot write stdout: [Errno 32] Broken pipe"
    }


def test_ctrl_c_ends_by_sigint_without_a_traceback():
    # A Ctrl-C that lands while a block is rendered must not wait for that
    # block's write to the full pipe, which this test has stopped reading:
    # the parent hung so in about one trial in four, and twelve trials
    # catch that in most runs.  The child starts with SIGINT's default
    # action, which Python turns into KeyboardInterrupt, even where this
    # process ignores SIGINT.
    for trial in range(12):
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            child = _singscat(*_LONG_SWEEP, stdout=subprocess.PIPE)
        finally:
            signal.signal(signal.SIGINT, previous)
        with child:
            assert len(_read_within(child, child.stdout, 100)) == 100
            child.send_signal(signal.SIGINT)
            err = _read_within(child, child.stderr, seconds=2.0).decode()
            code = child.wait(timeout=60)
        assert (trial, code, err) == (trial, -signal.SIGINT, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [_LONG_SWEEP, ("junction", "--m", "1.5", "--c", "1")],
                         ids=["sweep", "refusal"])
def test_stdout_on_a_full_device_exits_two_without_a_traceback(argv):
    # the parent ended in OSError (ENOSPC), a traceback and exit 1, for a
    # sweep's rows and for a refusal's document alike; the short document
    # fails only at the flush
    with open("/dev/full", "w") as full, _singscat(*argv, stdout=full) as child:
        err = _read_within(child, child.stderr).decode()
        code = child.wait(timeout=120)
    assert code == 2 and "Traceback" not in err
    assert json.loads(err) == {
        "error": "invalid_argument",
        "message": "cannot write stdout: [Errno 28] No space left on device",
    }


def test_memory_exhausted_exits_four_with_its_document(capsys, monkeypatch):
    # the parent let MemoryError escape main, as _k_grid raised it for a
    # 100,000-step sweep under ulimit -v 21000: a traceback and exit 1
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr("singscat.cli_energy._k_grid", exhausted)
    code, out, err = run(capsys, *_SWEEP_ARGV)
    assert (code, json.loads(out), err) == (4, {"error": "out_of_memory"}, "")


def test_sweeps_are_written_a_block_at_a_time(capsys, monkeypatch):
    import singscat.scatter as scatter

    sizes = [scatter._BLOCK, scatter._BLOCK, 3 * _TABLE_BLOCK + 10]
    argv = [*_SWEEP_ARGV]
    argv[argv.index("--ksteps") + 1] = str(sum(sizes))
    blocks_taken, writes = [], []
    amplitude_columns = scatter._amplitude_columns

    def counted_columns(matrix, grid):
        for block in amplitude_columns(matrix, grid):
            blocks_taken.append(len(block[0]))
            yield block

    class Stdout:
        def write(self, text):
            writes.append((len(blocks_taken), text))

    monkeypatch.setattr(scatter, "_amplitude_columns", counted_columns)
    monkeypatch.setattr(sys, "stdout", Stdout())
    assert main(argv) == 0
    monkeypatch.undo()
    assert blocks_taken == sizes
    # in pieces of at most 4096 characters, every row of a kernel block
    # before the next one is taken
    assert max(len(text) for _, text in writes) <= 4096
    written = [""] * (len(sizes) + 1)
    for taken, text in writes:
        written[taken] += text
    assert [text.count('"k":') for text in written] == [0, *sizes]
    assert "".join(written) == run(capsys, *argv)[1]


def test_m2_couplings_past_the_matching_window_exit_four(capsys):
    # RESONANCE_TOL * sqrt(-c) / pi reaches half the level spacing at
    # c = -(2^49 pi)^2, about -3.13e30; past it every coupling matches a level
    code, out, _ = run(capsys, "junction", "--m", "2", "--c", "-1e31")
    assert code == 4
    doc = json.loads(out)
    assert doc["error"] == "precision_loss"
    assert "-1e+31" in doc["message"]
    # -1e18 is 0.18 from a level in nu, which a window relative to nu matched
    for coupling in ("-1e16", "-1e18", "-1e20"):
        assert run(capsys, "junction", "--m", "2", "--c", coupling)[0] == 3
    level = repr(-((1000 * math.pi) ** 2))
    code, out, _ = run(capsys, "junction", "--m", "2", "--c", level)
    assert code == 0
    doc = json.loads(out)
    assert (doc["regime"], doc["n"]) == ("resonant_square", 1000)


def test_mollify_reference_none_reports_nan_deviation(capsys):
    code, out, _ = run(
        capsys,
        "mollify", "--m", "1", "--c", "-1", "--shape", "tophat",
        "--eps", "1e-1,1e-2,1e-3", "--k", "1", "--reference", "none",
    )
    assert code == 0
    for line in out.splitlines()[1:]:
        assert line.split(",")[6] == "nan"


def test_mollify_divergent_band_is_flagged(capsys):
    code, out, err = run(
        capsys,
        "mollify", "--m", "1.5", "--c", "-1", "--shape", "tophat",
        "--eps", "1e-1,1e-2,1e-3,1e-4", "--k", "1",
    )
    assert code == 0
    for line in out.splitlines()[1:]:
        assert line.endswith(",non_convergent")
    assert json.loads(err)["verdict"] == "non_convergent"


def test_bound_empty_and_degenerate_documents(capsys):
    _, out, _ = run(capsys, "bound", "--m", "1", "--c", "3")
    assert json.loads(out)["spectrum"] == "empty"

    _, out, _ = run(
        capsys, "bound", "--m", "4", "--c", "-1", "--iv-a", "-1", "--iv-b", "0"
    )
    assert json.loads(out)["spectrum"] == "continuum_degenerate"


# ------------------------------------------------------------ input bounds


def test_ksteps_past_the_bound_is_refused(capsys):
    argv = ("--m", "1", "--c", "-1", "--kmin", "1", "--kmax", "2")
    for cmd, extra in (("scatter", ()), ("radial", ("--a", "1"))):
        code, out, _ = run(
            capsys, cmd, *argv, *extra, "--ksteps", str(MAX_KSTEPS + 1)
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "invalid_argument"
        assert str(MAX_KSTEPS) in doc["message"]


def test_eps_lists_past_the_bound_are_refused_before_any_row(capsys, monkeypatch):
    import singscat.mollifier as mollifier

    argv = ("mollify", "--m", "1", "--c", "-1", "--shape", "tophat", "--k", "1")
    widths = [repr(0.5 * 0.9**i) for i in range(MAX_EPS + 1)]
    code, out, _ = run(capsys, *argv, "--eps", ",".join(widths[:MAX_EPS]))
    assert code == 0
    assert len(out.splitlines()) == 1 + MAX_EPS
    calls = []
    monkeypatch.setattr(mollifier, "convergence_sweep", lambda *a, **kw: calls.append(a))
    code, out, _ = run(capsys, *argv, "--eps", ",".join(widths))
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "invalid_argument"
    assert str(MAX_EPS) in doc["message"]
    assert calls == []


@pytest.mark.parametrize(
    "energy",
    [
        ("--k", "inf"),
        ("--k", "nan"),
        ("--kmin", "1", "--kmax", "inf", "--ksteps", "3"),
        ("--kmin", "nan", "--kmax", "1", "--ksteps", "3"),
        ("--kmin", "1", "--kmax", "nan", "--ksteps", "3"),
    ],
)
def test_non_finite_energies_are_refused(capsys, energy):
    for cmd, extra in (("scatter", ()), ("radial", ("--a", "1"))):
        code, out, _ = run(capsys, cmd, "--m", "1", "--c", "-1", *extra, *energy)
        assert code == 2
        assert json.loads(out)["error"] == "invalid_argument"


@pytest.mark.parametrize(
    "argv",
    [
        ("junction", "--c", "-1", "--m", "x"),
        ("junction", "--m", "1", "--c", "1e"),
        ("junction", "--m", "3", "--c", "-1", "--iv-b", "0", "--iv-a", "2"),
        ("junction", "--m", "3", "--c", "-1", "--iv-a", "1", "--iv-b", "x"),
        ("scatter", "--m", "1", "--c", "-1", "--k", "x"),
        ("scatter", "--m", "1", "--c", "-1", "--kmax", "2", "--kmin", "x"),
        ("scatter", "--m", "1", "--c", "-1", "--kmin", "1", "--kmax", "2",
         "--ksteps", "2.5"),
        ("radial", "--m", "1", "--c", "-1", "--a", "1", "--kmin", "1", "--kmax", "2",
         "--kscale", "exp"),
        ("radial", "--m", "1", "--c", "-1", "--k", "1", "--a", "x"),
        ("scatter", "--m", "1", "--c", "-1", "--k", "1", "--format", "xml"),
        ("mollify", "--m", "1", "--c", "-1", "--eps", "1e-1,1e-2", "--shape", "box"),
        ("mollify", "--m", "1", "--c", "-1", "--shape", "gauss", "--eps", "1e-1,1e-2",
         "--reference", "exact"),
        ("mollify", "--m", "1", "--c", "-1", "--shape", "gauss",
         "--eps", "1e-1,x"),
    ],
)
def test_tolerances_and_brackets_are_checked_at_parse_time(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "invalid_argument"
    assert argv[-2] in doc["message"]


@pytest.mark.parametrize(
    "point, energy, message",
    [
        (("1", "-1"), ("--k", "1", "--kmin", "1", "--kmax", "2"), "not both"),
        (("1", "-1"), (), "an energy is required"),
        (("1", "-1"), ("--kmin", "1"), "both --kmin and --kmax"),
        (("3", "-1"), ("--k", "1", "--iv-a", "1"), "needs both --iv-a and --iv-b"),
        (("1", "-1"), ("--k", "1", "--ksteps", "7"), "not a single --k"),
        (("1", "-1"), ("--k", "1", "--kscale", "lin"), "not a single --k"),
    ],
    ids=["k_and_sweep", "no_energy", "kmin_alone", "iv_a_alone", "k_and_ksteps",
         "k_and_kscale"],
)
def test_incomplete_or_conflicting_flags_are_refused(capsys, point, energy, message):
    m, c = point
    for cmd, extra in (("scatter", ()), ("radial", ("--a", "1"))):
        code, out, _ = run(capsys, cmd, "--m", m, "--c", c, *extra, *energy)
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "invalid_argument"
        assert message in doc["message"]


_POINT_ARGS = {
    "junction": (),
    "scatter": ("--k", "1"),
    "bound": (),
    "radial": ("--a", "1", "--k", "1"),
    "mollify": ("--shape", "tophat", "--eps", "1e-1,1e-2", "--reference", "none"),
}


@pytest.mark.parametrize("command", sorted(_POINT_ARGS))
@pytest.mark.parametrize(
    "flags",
    [
        ("--iv-a", "-1"),
        ("--iv-b", "5"),
        ("--iv-a", "-1", "--iv-b", "0.5"),
        ("--iv-a", "1", "--iv-b", "0"),
    ],
)
@pytest.mark.parametrize("m, c", [("1", "-2"), ("0.5", "1"), ("1.5", "-1")])
def test_indeterminate_flags_are_refused_in_other_regimes(capsys, command, flags, m, c):
    argv = (command, "--m", m, "--c", c, *_POINT_ARGS[command])
    code, out, _ = run(capsys, *argv, *flags)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "invalid_argument"
    assert all(flag in doc["message"] for flag in flags if flag.startswith("--"))


@pytest.mark.parametrize("command", sorted(_POINT_ARGS))
@pytest.mark.parametrize(
    "flags", [("--iv-a", "-1", "--iv-b", "0.5"), ("--iv-a", "1", "--iv-b", "0")]
)
def test_indeterminate_flags_are_read_in_their_regime(capsys, command, flags):
    argv = (command, "--m", "3", "--c", "-1", *_POINT_ARGS[command], *flags)
    assert run(capsys, *argv)[0] == 0


def test_ksteps_bound_admits_long_sweeps(capsys):
    code, out, _ = run(
        capsys, "scatter", "--m", "1", "--c", "-1",
        "--kmin", "1e-3", "--kmax", "1e3", "--ksteps", "5000",
    )
    assert code == 0
    assert len(out.splitlines()) == 5001
    # one step is the one energy kmin
    code, out, _ = run(
        capsys, "scatter", "--m", "1", "--c", "-1",
        "--kmin", "1", "--kmax", "2", "--ksteps", "1",
    )
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["1"]


@pytest.mark.parametrize("command", [("scatter",), ("radial", "--a", "1")])
@pytest.mark.parametrize(
    "kmin, kmax, kscale", [("0.3", "0.7", "log"), ("0.13", "1.2", "lin")]
)
def test_sweeps_start_and_end_exactly_on_kmin_and_kmax(capsys, command, kmin, kmax, kscale):
    # kmin * ratio ** 1.0 and kmin + span * 1.0 land an ulp off kmax here
    code, out, _ = run(
        capsys, *command, "--m", "1", "--c", "-1",
        "--kmin", kmin, "--kmax", kmax, "--ksteps", "3", "--kscale", kscale,
    )
    assert code == 0
    ks = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert [ks[0], ks[-1]] == [float(kmin), float(kmax)]


@pytest.mark.parametrize("command", [("scatter",), ("radial", "--a", "1")])
@pytest.mark.parametrize(
    "kmin, kmax", [("1e-200", "1e200"), ("1e-300", "1e300"), ("5e-324", "1.7e308")]
)
def test_log_sweeps_whose_ratio_overflows_are_computed(capsys, command, kmin, kmax):
    # kmax / kmin is past the float range, but no point of the grid is
    code, out, _ = run(
        capsys, *command, "--m", "1", "--c", "-1",
        "--kmin", kmin, "--kmax", kmax, "--ksteps", "3", "--format", "csv",
    )
    assert code == 0
    ks = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert ks == [float(kmin), pytest.approx(math.sqrt(float(kmin) * float(kmax))),
                  float(kmax)]


@pytest.mark.parametrize("command", [("scatter",), ("radial", "--a", "1")])
@pytest.mark.parametrize(
    "grid",
    [
        # span * i overflows in the linear formula, not span * (i / (steps - 1))
        ("--kmin", "1", "--kmax", "1e308", "--ksteps", "4", "--kscale", "lin"),
        # ratio 1 + 2^-52: kmin * ratio ** x rounds to inf past x = 1/2
        ("--kmin", "1.7976931348623155e308", "--kmax", "1.7976931348623157e308",
         "--ksteps", "1000"),
        # kmin * ratio ** x rounds an ulp or two past kmax at interior points
        ("--kmin", "1.7742673154863374e308", "--kmax", "1.7742673154863384e308",
         "--ksteps", "50"),
    ],
)
def test_grids_of_finite_points_next_to_the_float_max_are_swept(capsys, command, grid):
    code, out, _ = run(
        capsys, *command, "--m", "1", "--c", "-1", *grid, "--format", "csv"
    )
    assert code == 0
    ks = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert len(ks) == int(grid[grid.index("--ksteps") + 1])
    assert all(0.0 < a <= b < math.inf for a, b in zip(ks, ks[1:]))


def test_log_grids_over_the_whole_float_range_are_finite_and_rising():
    top = 1.7976931348623157e308
    for kmin in (5e-324, 1e-320, 2.2250738585072014e-308, 1e-200, 0.5):
        for kmax in (1e200, 1.7e308, math.nextafter(top, 0.0), top):
            if kmax / kmin < math.inf:
                continue
            for steps in (2, 3, 7, 1000, MAX_KSTEPS):
                args = SimpleNamespace(
                    k=None, kmin=kmin, kmax=kmax, ksteps=steps, kscale=None
                )
                grid = _k_grid(args)
                assert len(grid) == steps and (grid[0], grid[-1]) == (kmin, kmax)
                assert all(0.0 < a <= b < math.inf for a, b in zip(grid, grid[1:]))


def _ulps_below(x: float, n: int) -> float:
    return struct.unpack("<d", struct.pack("<q", struct.unpack("<q", struct.pack("<d", x))[0] - n))[0]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(st.floats(1e307, 1.7976931348623157e308), st.floats(1e-300, 1e300)),
    st.one_of(st.integers(0, 4096), st.floats(5e-324, 1.0)),
    st.integers(2, 2000),
)
def test_log_grids_rise_within_their_ends(kmax, below, steps):
    # below is kmin's distance from kmax in ulps, or kmin / kmax; a few
    # thousand ulps apart, kmin * ratio ** x can round past kmax
    kmin = _ulps_below(kmax, below) if isinstance(below, int) else max(5e-324, kmax * below)
    args = SimpleNamespace(k=None, kmin=kmin, kmax=kmax, ksteps=steps, kscale=None)
    grid = _k_grid(args)
    assert len(grid) == steps and (grid[0], grid[-1]) == (kmin, kmax)
    assert all(kmin <= a <= b <= kmax for a, b in zip(grid, grid[1:]))


def _grid_list(kmin: float, kmax: float, steps: int, scale: str) -> list[float]:
    """The grid as one list, as _k_grid built it before its points were lazy."""
    if steps == 1:
        return [kmin]
    n = steps - 1
    if scale == "log":
        ratio = kmax / kmin
        if ratio < math.inf:
            grid = [
                k if (k := kmin * ratio ** (i / n)) <= kmax else kmax
                for i in range(steps)
            ]
        else:
            lo, hi = math.log(kmin), math.log(kmax)
            grid = [math.exp(hi - (hi - lo) * j / n) for j in range(steps)]
            grid.reverse()
    else:
        span = kmax - kmin
        grid = [
            kmin + (span * i / n if span * i < math.inf else span * (i / n))
            for i in range(steps)
        ]
    grid[0], grid[-1] = kmin, kmax
    return grid


@pytest.mark.parametrize("steps", [1, 2, 2047, 2048, 2049, MAX_KSTEPS])
@pytest.mark.parametrize(
    "kmin, kmax",
    [
        (1e-3, 1e3),
        (0.1, 10.0),
        (5e-324, 1.7976931348623157e308),  # the log ratio overflows
        (2.5, 2.5),
        (_ulps_below(1.7742673154863384e308, 7), 1.7742673154863384e308),
        (_ulps_below(1.0, 3), 1.0),
    ],
    ids=["wide", "narrow", "overflowing_ratio", "one_value", "ulps_below_max", "ulps_below_1"],
)
def test_grid_points_read_lazily_equal_the_whole_list(kmin, kmax, steps):
    for scale in ("log", "lin"):
        want = [x.hex() for x in _grid_list(kmin, kmax, steps, scale)]
        args = SimpleNamespace(k=None, kmin=kmin, kmax=kmax, ksteps=steps, kscale=scale)
        grid = _k_grid(args)
        assert len(grid) == steps
        # a kernel block at a time, one at a time, and whole
        blocks = [x for lo in range(0, steps, 2048) for x in grid[lo : lo + 2048]]
        assert [x.hex() for x in blocks] == want
        picks = sorted({0, 1, steps // 2, steps - 2, steps - 1} & set(range(steps)))
        assert [grid[i].hex() for i in picks] == [want[i] for i in picks]
        assert [grid[i - steps].hex() for i in picks] == [want[i] for i in picks]
        assert [x.hex() for x in grid] == want
        with pytest.raises(IndexError):
            grid[steps]


def test_a_long_sweep_holds_one_block_of_its_grid_at_a_time(monkeypatch):
    # the parent built the 100,000 points as one list and held two kernel
    # blocks of columns at once: a traced peak of about 4.5 MB
    import tracemalloc

    class Sink:
        def write(self, text):
            pass

    argv = ["scatter", "--m", "1", "--c", "-2", "--kmin", "0.1", "--kmax", "10",
            "--format", "json", "--ksteps"]
    monkeypatch.setattr(sys, "stdout", Sink())
    assert main([*argv, "10"]) == 0  # the imports, and the parser, before the trace
    tracemalloc.start()
    try:
        assert main([*argv, str(MAX_KSTEPS)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_resonance_level_past_the_bound_is_refused(capsys):
    code, out, _ = run(
        capsys, "resonance", "--shape", "tophat", "--n", str(MAX_LEVEL + 1)
    )
    assert code == 2
    assert json.loads(out)["error"] == "invalid_argument"
    for n in range(1, 5):
        code, out, _ = run(capsys, "resonance", "--shape", "tophat", "--n", str(n))
        assert code == 0
        assert json.loads(out)["n"] == n


def test_single_points_have_no_error_column_and_sweeps_do(capsys):
    point = ("--m", "1", "--c", "-1", "--a", "1")
    _, out, _ = run(capsys, "radial", *point, "--k", "2", "--format", "csv")
    assert out.splitlines()[0] == "k,a,delta0,sigma0"
    assert len(out.splitlines()) == 2
    _, out, _ = run(
        capsys, "radial", *point, "--kmin", "1", "--kmax", "2", "--ksteps", "3",
        "--format", "json",
    )
    rows = json.loads(out)["rows"]
    assert [row["error"] for row in rows] == ["", "", ""]
    _, out, _ = run(capsys, "scatter", "--m", "1", "--c", "-1", "--k", "2")
    assert "error" not in json.loads(out)


# ------------------------------------------------------------------- fuzz

# each pool is (plain values, odd values); a value is odd one time in ten
_FLOATS = (
    ["1", "-1", "2", "-2", "0.5", "-0.5", "1.5", "3", "4", "1e-3", "0", "-0",
     "1e308", "-1e308", "1.7976931348623157e308", "-1.7976931348623157e308",
     "5e-324", "-5e-324"],
    ["1e400", "nan", "-nan", "inf", "-inf", "x", ""],
)
# the pools of the options that are not plain floats; the lab runs the top
# hat only, on widths of 1e-3 or more, and levels up to 1, to stay cheap
_VALUES = {
    "--m": (
        ["1", "2", "0.5", "1.5", "3", "4", "1e-3", "1e308", "5e-324"],
        ["0", "-1", "nan", "x"],
    ),
    "--a": (["1", "0.5", "3", "1e-3", "1e308", "5e-324"], ["0", "-1", "inf", "nan", "x"]),
    "--iv-a": (["1", "-1"], ["0", "2", "x", ""]),
    "--format": (["json", "csv"], ["xml", ""]),
    "--kscale": (["log", "lin"], ["exp", ""]),
    "--ksteps": (["1", "2", "7"], ["0", "-1", str(MAX_KSTEPS + 1), "1e3", "x", ""]),
    "--reference": (["junction", "none"], ["oracle"]),
    "--shape": (["tophat"], ["sphere", ""]),
    "--eps": (
        ["0.1", "0.1,0.01", "0.1,0.01,0.001", "0.01,0.1", "0.1,0.1", "0.1,,0.01", "1e308"],
        ["-0.1", "0", "nan", "inf", "x", "", ","],
    ),
    "--n": (["1", "-1", "0", "33"], ["x", ""]),
}
# options drawn together: the case IV pair, and the three shapes of a k grid
_GROUPS = {
    "--iv-a": [[], [], [], [], ["--iv-a", "--iv-b"], ["--iv-a"], ["--iv-b"]],
    "--kmin": [
        ["--k"], ["--kmin", "--kmax"], ["--kmin", "--kmax", "--ksteps", "--kscale"],
        ["--k", "--kmin", "--kmax"], ["--kmin"], ["--k", "--ksteps"], [],
    ],
}


def _fuzzed_options() -> dict[str, dict[str, bool]]:
    """{option: required} per subcommand; --out would write files."""
    return {
        name: {option[0]: option[4] for option in options if option[0] != "--out"}
        for name, (_, options) in _GRAMMAR.items()
    }


_FUZZED = _fuzzed_options()


def _argv(rng) -> list[str]:
    """A subcommand and its options, each with a value from its pool.

    A required option is left out one time in ten, any other comes one
    time in three, and a group of _GROUPS comes in one of its forms.  One
    time in ten a stray token follows.  rng is a random.Random that
    hypothesis seeds: its draws are uniform, where hypothesis's own lean to
    the ends of each range.
    """
    command = rng.choice(sorted(_FUZZED))
    options = _FUZZED[command]
    groups = [forms for option, forms in _GROUPS.items() if option in options]
    grouped = {option for forms in groups for form in forms for option in form}
    chosen = [option for forms in groups for option in rng.choice(forms)]
    for option, required in options.items():
        if option not in grouped and rng.random() < (0.9 if required else 1 / 3):
            chosen.append(option)
    argv = [command]
    for option in chosen:
        plain, odd = _VALUES.get(option, _FLOATS)
        argv += [option, rng.choice(odd if rng.random() < 0.1 else plain)]
    if rng.random() < 0.1:
        argv.append(rng.choice(["--bogus", "-1", "x", "--k"]))
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**64 - 1).map(lambda seed: _argv(random.Random(seed))))
def test_fuzzed_command_lines_exit_with_a_known_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4), argv
    if code:
        text = out.getvalue()
        assert text.count("\n") == 1 and text.endswith("\n"), argv
        assert "error" in json.loads(text), argv
    else:
        assert out.getvalue(), argv


# ------------------------------------------------------------------- docs


def test_readme_names_only_existing_options():
    text = README.read_text(encoding="utf-8")
    # only the CLI section: the install section has pip's own flags
    section = text[text.index("## Command line"):text.index("## Library")]
    flags = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    options = _subcommand_options()
    known = set().union(*options.values())
    assert flags and flags <= known, sorted(flags - known)
    # each example command line uses only its own subcommand's options
    examples = re.findall(r"^singscat (\w+)(.*)$", section, re.MULTILINE)
    assert {command for command, _ in examples} == set(options)
    for command, rest in examples:
        used = set(re.findall(r"--[a-z][a-z0-9-]*", rest))
        assert used <= options[command], (command, sorted(used - options[command]))
