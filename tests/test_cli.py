"""Black-box checks of the command-line surface.

Golden files under tests/golden/ freeze the exact bytes of representative
documents; everything else is exit codes, headers, and round trips.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from singscat.cli import MAX_KSTEPS, main
from singscat.mollifier import MAX_LEVEL
from singscat.serialize import canonical_json

GOLDEN = Path(__file__).parent / "golden"


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

    # argparse's own rejections keep the same code
    assert run(capsys, "junction", "--m", "1")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


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


def test_exit_four_on_numerical_failure(capsys):
    code, out, _ = run(
        capsys,
        "resonance", "--shape", "tophat", "--n", "1",
        "--c-min", "-5", "--c-max", "-1",
    )
    assert code == 4
    doc = json.loads(out)
    assert doc["error"] == "bracket_error"
    assert doc["message"]


def test_mollify_overflowing_strip_flags_rows_and_exits_four(capsys):
    # at k = -1e4 the free strips around the eps = 1 gauss (half width 8)
    # overflow; every row is flagged overflow, and so is the command
    code, out, _ = run(
        capsys,
        "mollify", "--m", "1", "--c", "-1", "--shape", "gauss",
        "--eps", "1,0.5,0.1", "--k=-1e4",
    )
    assert code == 4
    assert json.loads(out)["error"] == "overflow"


def test_radial_phase_beyond_rounding_is_refused(capsys):
    code, out, _ = run(
        capsys, "radial", "--m", "1", "--c", "1", "--a", "1e300", "--k", "1e10"
    )
    assert code == 4
    assert json.loads(out)["error"] == "precision_loss"


# ------------------------------------------------------- flags and config


def test_iv_default_supplies_neutral_choice(capsys):
    code, out, _ = run(capsys, "junction", "--m", "3", "--c", "-1", "--iv-default")
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


def test_config_file_sets_defaults_and_flags_override(capsys, tmp_path):
    off_resonance = -(((1 + 5e-7) * math.pi) ** 2)
    argv = ("junction", "--m", "2", "--c", repr(off_resonance))

    code, _, _ = run(capsys, *argv)
    assert code == 3  # default tolerance rejects the perturbed coupling

    cfg = tmp_path / "run.cfg"
    cfg.write_text("# wide matching window\nresonance_tol=1e-6\n", encoding="utf-8")
    code, out, _ = run(capsys, *argv, "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["regime"] == "resonant_square"

    code, _, _ = run(
        capsys, *argv, "--config", str(cfg), "--resonance-tol", "1e-9"
    )
    assert code == 3


def test_config_file_can_set_format(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=csv\n", encoding="utf-8")
    _, out, _ = run(
        capsys, "scatter", "--m", "1", "--c", "-1", "--k", "1", "--config", str(cfg)
    )
    assert out.splitlines()[0] == "k,re_r,im_r,re_t,im_t,R,T,flux_residual"


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense=1\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "junction", "--m", "1", "--c", "-2", "--config", str(cfg)
    )
    assert code == 2
    assert json.loads(out)["error"] == "invalid_argument"


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


def test_ksteps_bound_admits_long_sweeps(capsys):
    code, out, _ = run(
        capsys, "scatter", "--m", "1", "--c", "-1",
        "--kmin", "1e-3", "--kmax", "1e3", "--ksteps", "5000",
    )
    assert code == 0
    assert len(out.splitlines()) == 5001


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
