"""Tests of the benchmark itself: seeded inputs, metric names, tracing."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import metrics  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402
from spans import Tracer, singscat_modules  # noqa: E402

import singscat as S  # noqa: E402
from singscat import cli  # noqa: E402


def _first_cycle(workload: str, seed: int) -> str:
    return repr(next(W.cycles(workload, seed)))


def test_generator_is_deterministic_per_seed():
    for workload in W.WORKLOADS:
        assert _first_cycle(workload, 1) == _first_cycle(workload, 1)
        assert _first_cycle(workload, 1) != _first_cycle(workload, 2)


def test_cycle_shape_does_not_depend_on_seed():
    for workload in W.WORKLOADS:
        kinds = [sorted(op.kind for op in next(W.cycles(workload, s))) for s in (1, 2, 3)]
        assert kinds[0] == kinds[1] == kinds[2]


def test_speed_samples_during_an_op_are_taken_out_of_its_time():
    import signal
    import time

    def busy():
        end = time.perf_counter() + 3.5 * speed.EVERY_S
        while time.perf_counter() < end:
            pass
        return "done"

    handler = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    wall, ref, samples, result = speed.measure(busy, during=True)
    total = time.perf_counter() - start
    assert result == "done" and len(samples) >= 4
    assert abs(total - sum(samples) - wall) < 0.05
    assert ref == speed.NOMINAL_S * wall / (sum(samples) / len(samples))
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.measure(busy, during=False)[2]) == 2 * speed.AROUND


def test_untraced_runs_a_fixed_number_of_cycles():
    import worker

    for workload, cycle_s in worker.CYCLE_S.items():
        assert workload in W.WORKLOADS and cycle_s > 0
    spec = _benchmark_json()
    assert math.ceil(spec["run_seconds"] / worker.CYCLE_S["mollifier_lab"]) >= 2


def _benchmark_json() -> dict:
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert metrics.SHAPES == W.LAB_SHAPES
    assert metrics.REGIMES == tuple(regime for regime, _, _ in W.LAB_REGIMES)

    printed = metrics.end_to_end([1.0, 1.1, 0.9], [0.5 + 0.01 * i for i in range(30)], 2048)
    assert list(printed) == [name for name, _ in metrics.END_TO_END]
    assert all(value > 0 for value, _ in printed.values())
    layer = run.metric_doc({}, metrics.PER_LAYER_UNITS)
    assert list(layer) == [name for name, _ in metrics.PER_LAYER]


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(1, 31)]
    value, pct = metrics.tail(samples)
    assert pct == 66
    assert sum(1 for s in samples if s > value) == 10
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100)


def test_checks_catch_missing_rows():
    spec = {"cls": "delta_attractive", "m": 1.0, "c": -1.5}
    grid = [0.01 * (i + 1) for i in range(50)]
    op = W.Op("curve", {"spec": spec, "grid": grid})
    rows = S.transmission_curve(S.junction_matrix(S.PotentialSpec(1.0, -1.5)), grid)
    assert W.check_op(op, rows) == []
    assert W.check_op(op, rows[:-1]) and W.check_op(op, [])

    argv = ["scatter", "--m", "1", "--c", "-1.5", "--kmin", "0.1", "--kmax", "10", "--ksteps", "30"]
    for fmt in ("json", "csv"):
        code, out, _ = W.capture_main(argv + ["--format", fmt])
        assert code == 0
        assert W.check_document(spec, argv + ["--format", fmt], code, out, 0) == []
    # the csv document without its last row, and with no rows at all
    header, *body = out.split("\n")
    short = "\n".join([header] + body[:-2]) + "\n"
    assert W.check_document(spec, argv + ["--format", "csv"], 0, short, 0)
    assert W.check_document(spec, argv + ["--format", "csv"], 0, header + "\n", 0)
    single = ["scatter", "--m", "1", "--c", "-1.5", "--k", "2.0"]
    code, out, _ = W.capture_main(single)
    assert W.check_document(spec, single, code, out, 0) == []
    assert W.check_document(spec, ["scatter", "--m", "1", "--c", "-1.5", "--k", "3.0"], code, out, 0)


def _library_outputs() -> list:
    spec = S.PotentialSpec(1.0, -1.5)
    j = S.junction_matrix(spec)
    grid = [0.01 * (i + 1) for i in range(200)]
    chain = [(0.5 * i, j) for i in range(20)]
    shell = S.ShellPotentialSpec(spec, 1.0)
    outs = [
        S.transmission_curve(j, grid),
        S.transmission_curve(S.Mat2(-1.0, 0.0, 0.0, 1.0), grid[:5]),
        [S.compose_chain(chain, k) for k in grid[:10]],
        [S.s_wave_solve(shell, k) for k in grid],
        S.bound_states(j),
        S.convergence_sweep(S.PotentialSpec(2.0, -(math.pi**2)), S.GAUSSIAN, [0.5, 0.2], 1.0),
        S.resonant_search(S.TOP_HAT, 1),
    ]
    for argv in (
        ["scatter", "--m", "1", "--c", "-1", "--kmin", "0.1", "--kmax", "10", "--ksteps", "20"],
        ["radial", "--m", "1", "--c", "-2", "--a", "1", "--k", "2", "--format", "csv"],
        ["mollify", "--m", "1", "--c", "-1", "--shape", "tophat", "--eps", "1e-1,1e-2,1e-3"],
        ["junction", "--m", "1.5", "--c", "1"],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        outs.append((code, out.getvalue(), err.getvalue()))
    return outs


def test_tracer_leaves_outputs_bit_identical_and_uninstalls():
    before = {m.__name__: dict(vars(m)) for m in singscat_modules()}
    plain = repr(_library_outputs())
    tracer = Tracer()
    with tracer:
        traced = repr(_library_outputs())
        assert S.scatter.scattering_amplitudes is not before["singscat.scatter"]["scattering_amplitudes"]
    assert traced == plain
    assert repr(_library_outputs()) == plain
    for module in singscat_modules():
        for name, value in before[module.__name__].items():
            assert vars(module)[name] is value, f"{module.__name__}.{name} not restored"

    names = {row[0] for row in tracer.rows()}
    assert {"scatter.transmission_curve", "sweep.sweep_map", "cli.main", "mollifier.numeric_transfer"} <= names
    # calls between layers nest: amplitudes sit under the curve that made them
    rows = list(tracer.rows())
    amp = next(row for row in rows if row[0] == "scatter.scattering_amplitudes")
    chain = []
    parent = amp[3]
    while parent >= 0:
        chain.append(rows[parent][0])
        parent = rows[parent][3]
    assert "scatter.transmission_curve" in chain
    assert all(own >= 0 for own in tracer.self_times())
