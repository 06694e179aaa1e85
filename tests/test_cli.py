"""Black-box checks of the command-line surface.

Golden files under tests/golden/ freeze the exact bytes of representative
documents; everything else is exit codes, headers, and round trips.
"""

from __future__ import annotations

import argparse
import json
import math
import re
from pathlib import Path

import pytest

from singscat.cli import MAX_KSTEPS, _fail, build_parser, main
from singscat.errors import BracketError
from singscat.mollifier import MAX_LEVEL
from singscat.serialize import canonical_json

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
    (subparsers,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        name: {option for action in parser._actions for option in action.option_strings}
        for name, parser in subparsers.choices.items()
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


def test_m2_couplings_past_the_matching_window_exit_four(capsys):
    # RESONANCE_TOL * sqrt(-c) / pi reaches half the level spacing at
    # c = -(5e8 pi)^2, about -2.47e18; past it every coupling matches a level
    code, out, _ = run(capsys, "junction", "--m", "2", "--c", "-1e20")
    assert code == 4
    doc = json.loads(out)
    assert doc["error"] == "precision_loss"
    assert "-1e+20" in doc["message"]
    assert run(capsys, "junction", "--m", "2", "--c", "-1e16")[0] == 3
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


@pytest.mark.parametrize(
    "energy",
    [
        ("--k", "inf"),
        ("--k", "nan"),
        ("--kmin", "1", "--kmax", "inf", "--ksteps", "3"),
        ("--kmin", "nan", "--kmax", "1", "--ksteps", "3"),
        ("--kmin", "1e-300", "--kmax", "1e300", "--ksteps", "3"),
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
