"""Per-layer probes: unit costs of each singscat module, timed from outside.

Every probe calls public functions of one module on fixed inputs and
reports a per-call or per-item cost, the median of a few repeats.  The
inputs do not depend on the seed, so cell counts repeat exactly.  A probe
whose function has disappeared reports its metric as missing with the
reason instead of failing the run.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time

from metrics import CLI_PROBES, LEVEL_SHAPES, SHAPES
from spans import Tracer
from workloads import LAB_REGIMES, REFERENCE_EPS, capture_main

PI = math.pi
REPEATS = 5

FIXED_CELLS = 2**18

CLI_ARGV = {
    "junction": ["junction", "--m", "1", "--c", "-2"],
    "scatter_sweep": [
        "scatter", "--m", "1", "--c", "-1", "--kmin", "1e-3", "--kmax", "1e3",
        "--ksteps", "2000", "--format", "csv",
    ],
    "radial_sweep": [
        "radial", "--m", "1", "--c", "-2", "--a", "1", "--kmin", "1e-3",
        "--kmax", "1e3", "--ksteps", "2000", "--format", "csv",
    ],
    "mollify": [
        "mollify", "--m", "1", "--c", "-1", "--shape", "tophat",
        "--eps", "1e-1,1e-2,1e-3,1e-4",
    ],
    "resonance": ["resonance", "--shape", "tophat", "--n", "1"],
}


class Missing(Exception):
    """A public name a probe needs is gone."""


def lookup(path: str):
    """singscat.<module>.<name>, raising Missing when it is absent."""
    module_name, _, name = path.rpartition(".")
    try:
        module = importlib.import_module(f"singscat.{module_name}")
    except ImportError as exc:
        raise Missing(f"module singscat.{module_name} not found") from exc
    try:
        return getattr(module, name)
    except AttributeError as exc:
        raise Missing(f"singscat.{path} not found") from exc


def median_seconds(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _log_grid(lo, hi, n):
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


def scalar_probes() -> dict:
    """Per-call costs of the closed-form layers, in microseconds."""
    out = {}
    Spec = lookup("core.PotentialSpec")
    IvChoice = lookup("junction.IvChoice")
    specs = [
        (Spec(0.5, 2.0), None),
        (Spec(1.0, -1.5), None),
        (Spec(1.0, 2.0), None),
        (Spec(2.0, -(PI**2)), None),
        (Spec(2.0, -((2 * PI) ** 2)), None),
        (Spec(3.0, -1.0), IvChoice(1, -0.5)),
        (Spec(3.0, -1.0), IvChoice(-1, 1.0)),
    ] * 300
    grid = _log_grid(1e-3, 1e3, 20_000)

    def probe(name, body):
        try:
            out[name] = body()
        except Missing as exc:
            out[name] = str(exc)

    def junction_us():
        jm = lookup("junction.junction_matrix")
        return 1e6 * median_seconds(lambda: [jm(p, ch) for p, ch in specs]) / len(specs)

    def amplitudes_us():
        amp = lookup("scatter.scattering_amplitudes")
        j = lookup("junction.junction_matrix")(Spec(1.0, -1.5))
        return 1e6 * median_seconds(lambda: [amp(j, k) for k in grid], 3) / len(grid)

    def curve_us():
        curve = lookup("scatter.transmission_curve")
        j = lookup("junction.junction_matrix")(Spec(1.0, -1.5))
        return 1e6 * median_seconds(lambda: curve(j, grid), 3) / len(grid)

    def chain_us():
        compose = lookup("scatter.compose_chain")
        jm = lookup("junction.junction_matrix")
        chain = [(0.7 * i, jm(Spec(1.0, 0.05 * math.sin(i)))) for i in range(1000)]
        ks = (0.3, 0.9, 2.0, 5.0)
        return 1e6 * median_seconds(lambda: [compose(chain, k) for k in ks]) / (1000 * len(ks))

    def bound_us():
        bound = lookup("scatter.bound_states")
        jm = lookup("junction.junction_matrix")
        mats = [jm(p, ch) for p, ch in specs]
        return 1e6 * median_seconds(lambda: [bound(j) for j in mats]) / len(mats)

    def radial_us():
        solve = lookup("radial.s_wave_solve")
        shell = lookup("core.ShellPotentialSpec")(Spec(1.0, -2.0), 1.0)
        ks = grid[::4]
        return 1e6 * median_seconds(lambda: [solve(shell, k) for k in ks]) / len(ks)

    def free_us():
        free = lookup("core.free_transfer")
        pairs = [(k, 0.1 + (i % 17) * 0.05) for i, k in enumerate(grid[::4])]
        pairs += [(-k, h) for k, h in pairs[:1000]]
        return 1e6 * median_seconds(lambda: [free(k, h) for k, h in pairs]) / len(pairs)

    probe("junction.matrix_us", junction_us)
    probe("scatter.amplitudes_us", amplitudes_us)
    probe("scatter.curve_us_per_k", curve_us)
    probe("scatter.chain_us_per_junction", chain_us)
    probe("scatter.bound_us", bound_us)
    probe("radial.solve_us_per_k", radial_us)
    probe("core.free_transfer_us", free_us)
    if isinstance(out["scatter.curve_us_per_k"], float) and isinstance(
        out["scatter.amplitudes_us"], float
    ):
        out["sweep.overhead_us_per_item"] = (
            out["scatter.curve_us_per_k"] - out["scatter.amplitudes_us"]
        )
    else:
        out["sweep.overhead_us_per_item"] = "needs scatter.curve_us_per_k and scatter.amplitudes_us"
    return out


def serialize_probes() -> dict:
    out = {}
    rows = [
        [0.001 * (i + 1), 0.1 / (i + 1), -0.2, 0.3 * i, -1e-9 * i, 0.25, 0.75, 1e-17 * i, ""]
        for i in range(5000)
    ]
    header = ["k", "re_r", "im_r", "re_t", "im_t", "R", "T", "flux_residual", "error"]
    doc = {"rows": [dict(zip(header, row)) for row in rows]}
    for name, path, arg in (
        ("serialize.json_us_per_row", "serialize.canonical_json", (doc,)),
        ("serialize.csv_us_per_row", "serialize.csv_document", (header, rows)),
    ):
        try:
            fn = lookup(path)
            out[name] = 1e6 * median_seconds(lambda: fn(*arg), 3) / len(rows)
        except Missing as exc:
            out[name] = str(exc)
    return out


def cli_probes() -> dict:
    """In-process cli.main per subcommand, import excluded, in ms."""
    out = {}
    for name in CLI_PROBES:
        argv = CLI_ARGV[name]
        code, _, _ = capture_main(argv)
        if code != 0:
            out[f"cli.main_ms.{name}"] = f"cli.main {argv[0]} exited {code}"
            continue
        out[f"cli.main_ms.{name}"] = 1e3 * median_seconds(lambda: capture_main(argv), 3)
    return out


def mollifier_probes() -> dict:
    """Kernel rate, transfer cost and cells per shape x regime, levels."""
    out = {}
    Spec = lookup("core.PotentialSpec")
    shapes = lookup("mollifier.SHAPES")
    try:
        Reg = lookup("mollifier.RegularizedPotential")
        fixed = lookup("mollifier.transfer_fixed_cells")
        pot = Reg(Spec(2.0, -(PI**2)), shapes["gauss"], 1e-3)
        seconds = median_seconds(lambda: fixed(pot, 1.0, FIXED_CELLS), 3)
        out["mollifier.fixed_cells_ns_per_cell"] = 1e9 * seconds / FIXED_CELLS
    except Missing as exc:
        out["mollifier.fixed_cells_ns_per_cell"] = str(exc)

    # the lab's couplings without the seeded jitter, at k = 1
    for shape in SHAPES:
        for regime, m, c in LAB_REGIMES:
            ms_name = f"mollifier.transfer_ms.{shape}.{regime}"
            cells_name = f"mollifier.transfer_cells.{shape}.{regime}"
            try:
                sweep = lookup("mollifier.convergence_sweep")
                tracer = Tracer()
                with tracer:
                    sweep(Spec(m, c), shapes[shape], list(REFERENCE_EPS), 1.0)
            except Missing as exc:
                out[ms_name] = out[cells_name] = str(exc)
                continue
            transfer, cells = _last_transfer(tracer)
            out[ms_name] = transfer if transfer is not None else "no numeric_transfer span"
            out[cells_name] = cells if cells is not None else "no transfer_fixed_cells span"

    for shape in LEVEL_SHAPES:
        name = f"mollifier.resonance_s_per_level.{shape}"
        try:
            search = lookup("mollifier.resonant_search")
            target = shapes[shape]
            out[name] = median_seconds(lambda: search(target, 1), 1)
        except Missing as exc:
            out[name] = str(exc)
    return out


def _last_transfer(tracer: Tracer):
    """ms of the last numeric_transfer span and cells of its last fixed-cell call."""
    spans = list(tracer.rows())
    last = None
    for i, (name, *_rest) in enumerate(spans):
        if name == "mollifier.numeric_transfer":
            last = i
    if last is None:
        return None, None
    _, start, end, *_ = spans[last]
    cells = None
    for name, s, _e, _parent, _op, size in spans[last + 1:]:
        if name == "mollifier.transfer_fixed_cells" and s <= end:
            cells = size
    return (end - start) / 1e6, cells


def run_all() -> tuple[dict, list[str]]:
    """Every in-process per-layer probe.

    Returns name -> value (a string gives the reason a metric is missing),
    and the reasons of probe groups that could not run at all.
    """
    out, lost = {}, []
    for group in (scalar_probes, serialize_probes, cli_probes, mollifier_probes):
        try:
            out.update(group())
        except Missing as exc:
            lost.append(f"{group.__name__}: {exc}")
    return out, lost
