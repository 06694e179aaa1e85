"""Seeded workloads of the singscat benchmark, and the checks on every output.

A workload is an endless sequence of cycles; each cycle is a list of
operations drawn from one ``random.Random`` stream, so a seed fixes every
input.  The cost structure of a cycle (which operations, at which sizes)
does not depend on the seed, only the parameter values do.

Operations call the library through module attributes looked up at call
time (``S.transmission_curve``), so the traced run sees them.  The checks
hold on to the functions they need from import time, and compare against
closed forms or against oracles written here, never against the code
under test alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field

import singscat as S
from singscat import cli
from singscat.serialize import canonical_json, csv_document

WORKLOADS = ("cli_oneshot", "closed_form_sweep", "mollifier_lab")

# Outcomes that are flagged by design and therefore not failures.
DESIGNED_FLAGS = ("no_scattering_state", "no_convergence", "overflow")

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
SPAN_MARK = "PERFBENCH_SPANS "

PI = math.pi
FLUX_TOL = 1e-12
DELTA_T_TOL = 1e-12


@dataclass
class Op:
    """One operation: what to run and what its output must satisfy."""

    kind: str
    params: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# generators


def make_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _spec_delta(rng, sign):
    return {"m": 1.0, "c": sign * rng.uniform(0.5, 3.0)}


def junction_classes(rng: random.Random) -> list[dict]:
    """One seeded junction per regime class, plus two that fail by design."""
    n = rng.randint(1, 3)
    a = rng.choice((1, -1))
    return [
        {"cls": "no_effect", "m": rng.uniform(0.2, 0.9), "c": rng.uniform(-3, 3)},
        {"cls": "delta_attractive", **_spec_delta(rng, -1.0)},
        {"cls": "delta_repulsive", **_spec_delta(rng, 1.0)},
        {"cls": "resonant", "m": 2.0, "c": -((n * PI) ** 2) + 0.0, "n": n},
        {
            "cls": "indeterminate",
            "m": rng.uniform(2.5, 4.0),
            "c": -rng.uniform(0.5, 3.0),
            "choice": (a, rng.uniform(0.2, 2.0) * rng.choice((1, -1))),
        },
        # diag(-1, 1): no scattering state at any energy, by design
        {
            "cls": "sign_flip",
            "m": rng.uniform(2.5, 4.0),
            "c": -rng.uniform(0.5, 3.0),
            "choice": (-1, 0.0),
        },
    ]


def undefined_spec(rng: random.Random) -> dict:
    pick = rng.randrange(3)
    if pick == 0:
        return {"cls": "undefined", "m": rng.uniform(1.1, 1.9), "c": rng.uniform(-3, 3)}
    if pick == 1:
        return {"cls": "undefined", "m": 2.0, "c": -rng.uniform(12.0, 30.0)}
    return {"cls": "undefined", "m": rng.uniform(2.5, 4.0), "c": rng.uniform(0.5, 3.0)}


def _iv_args(spec: dict) -> list[str]:
    if "choice" not in spec:
        return []
    a, b = spec["choice"]
    return ["--iv-a", str(a), "--iv-b", _fmt(b)]


def _mc_args(spec: dict) -> list[str]:
    return ["--m", _fmt(spec["m"]), "--c", _fmt(spec["c"])] + _iv_args(spec)


def cli_cycle(rng: random.Random) -> list[Op]:
    """One process per op; every subcommand, sweeps of at most 200 steps."""
    specs = junction_classes(rng)
    pick = specs[rng.randrange(5)]
    delta = specs[rng.choice((1, 2))]
    attractive = specs[1]
    kmin = rng.uniform(1e-3, 1e-1)
    kmax = rng.uniform(10.0, 1e3)
    steps = str(rng.randint(100, 200))
    sweep = ["--kmin", _fmt(kmin), "--kmax", _fmt(kmax), "--ksteps", steps]
    a = _fmt(rng.uniform(0.5, 2.0))
    k = _fmt(rng.uniform(0.1, 10.0))
    mollify_c = -rng.uniform(0.5, 2.0)
    bad = undefined_spec(rng)
    ops = [
        (pick, ["junction"] + _mc_args(pick), 0),
        (attractive, ["bound"] + _mc_args(attractive), 0),
        (delta, ["scatter"] + _mc_args(delta) + ["--k", k], 0),
        (delta, ["radial"] + _mc_args(delta) + ["--a", a, "--k", k], 0),
        (pick, ["scatter"] + _mc_args(pick) + sweep + ["--format", "csv"], 0),
        (pick, ["radial"] + _mc_args(pick) + ["--a", a] + sweep + ["--format", "json"], 0),
        (
            {"cls": "delta_attractive", "m": 1.0, "c": mollify_c},
            [
                "mollify", "--m", "1", "--c", _fmt(mollify_c), "--shape", "tophat",
                "--eps", "1e-1,1e-2,1e-3,1e-4", "--k", k,
            ],
            0,
        ),
        ({"cls": "resonance", "n": 1}, ["resonance", "--shape", "tophat", "--n", "1"], 0),
        (bad, ["junction"] + _mc_args(bad), 3),
        (specs[5], ["scatter"] + _mc_args(specs[5]) + ["--k", k], 3),
    ]
    return [Op("cli", {"spec": spec, "argv": argv, "code": code}) for spec, argv, code in ops]


def _log_grid(lo: float, hi: float, n: int) -> list[float]:
    ratio = hi / lo
    return [lo * ratio ** (i / (n - 1)) for i in range(n)]


CURVE_POINTS = 20_000
SWAVE_POINTS = 10_000
CHAIN_JUNCTIONS = 1000
CHAIN_ENERGIES = 16
CLI_SWEEP_STEPS = 5000


def closed_form_cycle(rng: random.Random) -> list[Op]:
    """Curve, shell, chain, bound and in-process CLI sweeps per junction."""
    ops = []
    for i, spec in enumerate(junction_classes(rng)):
        grid = _log_grid(rng.uniform(1e-3, 1e-2), rng.uniform(1e2, 1e3), CURVE_POINTS)
        ops.append(Op("curve", {"spec": spec, "grid": grid}))
        a = rng.uniform(0.5, 2.0)
        kgrid = _log_grid(rng.uniform(1e-3, 1e-2), rng.uniform(1e1, 1e2), SWAVE_POINTS)
        ops.append(Op("swave", {"spec": spec, "a": a, "grid": kgrid}))
        links = []
        x = 0.0
        for j in range(CHAIN_JUNCTIONS):
            x += rng.uniform(0.5, 1.5)
            if j % 100 == 0:
                links.append((x, spec))
            else:
                links.append((x, {"m": 1.0, "c": rng.uniform(-0.05, 0.05)}))
        energies = [rng.uniform(0.1, 10.0) for _ in range(CHAIN_ENERGIES)]
        ops.append(Op("chain", {"spec": spec, "links": links, "energies": energies}))
        ops.append(Op("bound", {"spec": spec}))
        fmt_s, fmt_r = ("csv", "json") if i % 2 == 0 else ("json", "csv")
        sweep = [
            "--kmin", _fmt(rng.uniform(1e-3, 1e-2)), "--kmax", _fmt(rng.uniform(1e2, 1e3)),
            "--ksteps", str(CLI_SWEEP_STEPS),
        ]
        ops.append(
            Op("main", {"spec": spec, "argv": ["scatter"] + _mc_args(spec) + sweep + ["--format", fmt_s], "code": 0})
        )
        a_arg = ["--a", _fmt(rng.uniform(0.5, 2.0))]
        ops.append(
            Op("main", {"spec": spec, "argv": ["radial"] + _mc_args(spec) + a_arg + sweep + ["--format", fmt_r], "code": 0})
        )
    bad = undefined_spec(rng)
    ops.append(Op("undefined", {"spec": bad}))
    ops.append(Op("main", {"spec": bad, "argv": ["scatter"] + _mc_args(bad) + ["--k", "1"], "code": 3}))
    return ops


# (regime tag, exponent, coupling) of the lab.  The cell count a transfer
# needs, and so its cost, moves with c and k in steps of two; the seed
# jitters c and k by at most JITTER so that it changes the values but not
# the cell ladders.
LAB_REGIMES = (
    ("no_effect", 0.5, -3.0),
    ("standard_delta", 1.0, -1.0),
    ("undefined", 1.5, -1.0),
    ("resonant_square", 2.0, -(PI**2)),
    ("indeterminate", 3.0, -1.0),
)
JITTER = 1e-3
LAB_SHAPES = ("tophat", "triangle", "cosine", "gauss")
REFERENCE_EPS = (1e-1, 1e-2, 1e-3)
# Without a reference the verdict comes from gaps between consecutive
# matrices, which needs evenly spaced log eps and at least four clean rows.
GAP_EPS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
GAP_MIN_ROWS = 4
# Resonance levels per cycle: the top hat's first level, which has a closed
# form, and the first level of the gauss bump, the smooth shape whose
# level the per-layer probes time.
LAB_LEVELS = (("tophat", 1), ("gauss", 1))


def expected_verdict(shape: str, regime: str) -> str:
    """Verdict the closed forms predict for a shape x regime sweep.

    The resonant coupling -(pi)^2 is the first level of the top hat only;
    every smooth shape has its own level (resonant_search), so at -(pi)^2
    its widened junction grows like 1/eps and is certified divergent.
    """
    if regime in ("undefined", "indeterminate"):
        return "non_convergent"
    if regime == "resonant_square" and shape != "tophat":
        return "non_convergent"
    return "convergent"


def lab_cycle(rng: random.Random) -> list[Op]:
    """Certified sweeps over every shape x regime, then resonance levels."""
    ops = []
    for shape in LAB_SHAPES:
        for regime, m, coupling in LAB_REGIMES:
            if regime != "resonant_square":
                coupling *= 1.0 + JITTER * rng.uniform(-1.0, 1.0)
            gap_mode = regime in ("undefined", "indeterminate")
            ops.append(
                Op(
                    "sweep",
                    {
                        "shape": shape,
                        "regime": regime,
                        "m": m,
                        "c": coupling,
                        "k": 1.0 + JITTER * rng.uniform(-1.0, 1.0),
                        "eps": GAP_EPS if gap_mode else REFERENCE_EPS,
                        "reference": not gap_mode,
                    },
                )
            )
    ops += [Op("level", {"shape": shape, "n": n}) for shape, n in LAB_LEVELS]
    return ops


CYCLES = {
    "cli_oneshot": cli_cycle,
    "closed_form_sweep": closed_form_cycle,
    "mollifier_lab": lab_cycle,
}


def cycles(workload: str, seed: int):
    """Endless deterministic stream of op lists for a workload and seed."""
    rng = make_rng(workload, seed)
    make = CYCLES[workload]
    while True:
        yield make(rng)


# ---------------------------------------------------------------------------
# execution


def _junction(spec: dict):
    p = S.PotentialSpec(spec["m"], spec["c"])
    choice = S.IvChoice(*spec["choice"]) if "choice" in spec else None
    return S.junction_matrix(p, choice)


def capture_main(argv: list[str]) -> tuple[int, str, str]:
    """cli.main in process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_op(op: Op, traced_children: bool = False):
    """Execute one operation and return its raw outcome."""
    p = op.params
    if op.kind == "cli":
        if traced_children:
            cmd = [sys.executable, CHILD] + p["argv"]
        else:
            cmd = [sys.executable, "-m", "singscat"] + p["argv"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr
    if op.kind == "curve":
        return S.transmission_curve(_junction(p["spec"]), p["grid"])
    if op.kind == "swave":
        spec = p["spec"]
        shell = S.ShellPotentialSpec(S.PotentialSpec(spec["m"], spec["c"]), p["a"])
        choice = S.IvChoice(*spec["choice"]) if "choice" in spec else None
        return [S.s_wave_solve(shell, k, choice) for k in p["grid"]]
    if op.kind == "chain":
        chain = [(x, _junction(spec)) for x, spec in p["links"]]
        return [S.compose_chain(chain, k) for k in p["energies"]]
    if op.kind == "bound":
        return S.bound_states(_junction(p["spec"]))
    if op.kind == "main":
        return capture_main(p["argv"])
    if op.kind == "undefined":
        try:
            _junction(p["spec"])
        except S.UndefinedRegime as exc:
            return exc
        return None
    if op.kind == "sweep":
        spec = S.PotentialSpec(p["m"], p["c"])
        ref = S.junction_matrix(spec) if p["reference"] else None
        rows = S.convergence_sweep(
            spec, S.SHAPES[p["shape"]], list(p["eps"]), p["k"], reference=ref
        )
        return rows, S.certify_convergence(rows)
    if op.kind == "level":
        return S.resonant_search(S.SHAPES[p["shape"]], p["n"])
    raise ValueError(f"unknown op kind {op.kind}")


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the output is correct


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def reparse(text: str, fmt: str):
    """Parse a CLI document; None when it does not re-serialize to itself."""
    if fmt == "json":
        doc = json.loads(text)
        return doc if canonical_json(doc) + "\n" == text else None
    lines = text.split("\n")
    if lines[-1] != "":
        return None
    header = lines[0].split(",")
    rows = []
    for line in lines[1:-1]:
        row = []
        for cell in line.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    if csv_document(header, rows) != text:
        return None
    return [dict(zip(header, row)) for row in rows]


def expected_bound(spec: dict, kind: str, kappas) -> list[str]:
    """Bound spectrum of J12 k^2 + (J11 + J22) k + J21 = 0 per regime class."""
    cls, c = spec["cls"], spec["c"]
    if cls == "delta_attractive":
        want = ("discrete", [-c / 2.0])
    elif cls in ("delta_repulsive", "no_effect", "resonant"):
        want = ("empty", [])
    elif cls == "sign_flip":
        want = ("continuum_degenerate", [])
    else:
        a, b = spec["choice"]
        if a == 1:
            want = ("discrete", [-b / 2.0]) if b < 0 else ("empty", [])
        else:
            want = ("continuum_degenerate", []) if b == 0 else ("empty", [])
    if kind != want[0] or len(kappas) != len(want[1]):
        return [f"bound spectrum {kind} {list(kappas)}, expected {want}"]
    if any(not _close(x, y, 1e-12) for x, y in zip(kappas, want[1])):
        return [f"kappa {list(kappas)} != {want[1]}"]
    return []


def _check_scatter_row(spec: dict, k: float, r_prob: float, t_prob: float, flux: float) -> list[str]:
    problems = []
    # flux = T + det R - det cancels R against T, so its rounding grows with
    # them: at R ~ 1e4 (det = -1, small J21) one ulp of R is already 2e-12.
    if not abs(flux) <= FLUX_TOL * max(1.0, r_prob, t_prob):
        problems.append(f"flux residual {flux:.3e} at k={k}")
    cls = spec["cls"]
    if cls.startswith("delta"):
        want = 4.0 * k / (4.0 * k + spec["c"] ** 2)
        if not abs(t_prob - want) <= DELTA_T_TOL:
            problems.append(f"T={t_prob!r} != 4k/(4k+c^2)={want!r} at k={k}")
    elif cls in ("no_effect", "resonant") and not abs(t_prob - 1.0) <= DELTA_T_TOL:
        problems.append(f"T={t_prob!r} != 1 for a transparent junction")
    return problems


def _reference_delta0(spec: dict, k: float, a: float) -> float | None:
    """Closed-form s-wave shift of a delta shell: tan(qa + d) = q/(q cot qa + c)."""
    if not spec["cls"].startswith("delta"):
        return 0.0 if spec["cls"] in ("no_effect", "resonant") else None
    q = math.sqrt(k)
    s, co = math.sin(q * a), math.cos(q * a)
    return math.atan2(q * s, q * co + spec["c"] * s) - q * a


def _check_radial(spec, k, a, delta0, sigma0) -> list[str]:
    problems = []
    if not (-0.5 * PI < delta0 <= 0.5 * PI):
        problems.append(f"delta0 {delta0} outside (-pi/2, pi/2]")
    if not (0.0 <= sigma0 <= 4.0 * PI / k * (1.0 + 1e-12)):
        problems.append(f"sigma0 {sigma0} above 4 pi/k at k={k}")
    ref = _reference_delta0(spec, k, a)
    if ref is not None:
        gap = abs(math.remainder(delta0 - ref, PI))
        if gap > 1e-9 * max(1.0, math.sqrt(k) * a):
            problems.append(f"delta0 {delta0} vs closed form {ref} at k={k}")
    return problems


def _free(k: float, h: float):
    q = math.sqrt(k)
    return (math.cos(q * h), math.sin(q * h) / q, -q * math.sin(q * h), math.cos(q * h))


def _mul(x, y):
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def check_chain(p: dict, totals) -> list[str]:
    """Independent left-to-right product, and det = product of the dets."""
    if len(totals) != len(p["energies"]):
        return [f"{len(totals)} chain totals for {len(p['energies'])} energies"]
    mats = [(x, _junction(spec)) for x, spec in p["links"]]
    det_prod = 1.0
    for _, j in mats:
        det_prod *= j.det()
    problems = []
    for k, total in zip(p["energies"], totals):
        ref = (1.0, 0.0, 0.0, 1.0)
        prev = None
        for x, j in mats:
            if prev is not None:
                ref = _mul(_free(k, x - prev), ref)
            ref = _mul((j.m11, j.m12, j.m21, j.m22), ref)
            prev = x
        got = (total.m11, total.m12, total.m21, total.m22)
        scale = max(1.0, *(abs(v) for v in ref))
        if max(abs(g - r) for g, r in zip(got, ref)) > 1e-9 * scale:
            problems.append(f"chain product differs from reference at k={k}")
        det_scale = max(1.0, abs(got[0] * got[3]) + abs(got[1] * got[2]))
        if abs(total.det() - det_prod) > 1e-9 * det_scale:
            problems.append(f"chain det {total.det()} != {det_prod} at k={k}")
    return problems


def _arg(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def check_k_rows(argv: list[str], ks: list[float]) -> list[str]:
    """One row at --k, or --ksteps rows rising from --kmin to --kmax."""
    if "--k" in argv:
        k = float(_arg(argv, "--k"))
        if len(ks) != 1 or not _close(ks[0], k, 1e-15):
            return [f"{len(ks)} rows, expected one at k={k}"]
        return []
    kmin, kmax = float(_arg(argv, "--kmin")), float(_arg(argv, "--kmax"))
    steps = int(_arg(argv, "--ksteps"))
    if len(ks) != steps:
        return [f"{len(ks)} rows, expected --ksteps {steps}"]
    if any(b <= a for a, b in zip(ks, ks[1:])):
        return ["sweep k values do not rise"]
    if not (_close(ks[0], kmin, 1e-12) and _close(ks[-1], kmax, 1e-12)):
        return [f"sweep k runs {ks[0]}..{ks[-1]}, expected {kmin}..{kmax}"]
    return []


def check_document(spec: dict, argv: list[str], code: int, stdout: str, want_code: int) -> list[str]:
    """Exit code, byte-stable re-serialization and closed forms of a CLI run."""
    if code != want_code:
        return [f"exit {code}, expected {want_code}: {stdout.strip()[:200]}"]
    command = argv[0]
    fmt = "json"
    if "--format" in argv:
        fmt = argv[argv.index("--format") + 1]
    elif command == "mollify":
        fmt = "csv"
    doc = reparse(stdout, fmt)
    if doc is None:
        return ["stdout does not re-serialize to identical bytes"]
    if want_code == 3:
        want = "undefined_regime" if spec["cls"] == "undefined" else "no_scattering_state"
        return [] if doc.get("error") == want else [f"error doc {doc}, expected {want}"]
    problems = []
    if command == "junction":
        j = _junction(spec)
        if doc["junction"] != j.rows() or abs(abs(doc["det"]) - 1.0) > 1e-12:
            problems.append(f"junction doc {doc} does not match the closed form")
    elif command == "bound":
        spectrum = doc["spectrum"]
        if isinstance(spectrum, str):
            problems += expected_bound(spec, spectrum, [])
        else:
            problems += expected_bound(spec, "discrete", [e["kappa"] for e in spectrum])
            for e in spectrum:
                if not _close(e["energy"], -e["kappa"] ** 2, 1e-15):
                    problems.append(f"energy {e['energy']} != -kappa^2")
    elif command == "scatter":
        rows = doc if isinstance(doc, list) else doc.get("rows", [doc])
        problems += check_k_rows(argv, [row["k"] for row in rows])
        for row in rows:
            if spec["cls"] == "sign_flip":
                if row.get("error") != "no_scattering_state":
                    problems.append(f"row {row} should be flagged no_scattering_state")
            elif row.get("error", ""):
                problems.append(f"row flagged {row['error']}")
            else:
                problems += _check_scatter_row(spec, row["k"], row["R"], row["T"], row["flux_residual"])
    elif command == "radial":
        rows = doc if isinstance(doc, list) else doc.get("rows", [doc])
        problems += check_k_rows(argv, [row["k"] for row in rows])
        for row in rows:
            if row.get("error", ""):
                problems.append(f"row flagged {row['error']}")
            else:
                problems += _check_radial(spec, row["k"], row["a"], row["delta0"], row["sigma0"])
    elif command == "mollify":
        eps = [float(e) for e in _arg(argv, "--eps").split(",")]
        if [row["eps"] for row in doc] != eps:
            problems.append(f"mollify rows at eps {[row['eps'] for row in doc]}, expected {eps}")
        for row in doc:
            if row["flag"] != "ok" or not row["det_err"] <= 1e-8:
                problems.append(f"mollify row {row}")
        devs = [row["deviation"] for row in doc]
        if any(b >= a for a, b in zip(devs, devs[1:])):
            problems.append(f"tophat m=1 deviations do not shrink: {devs}")
    elif command == "resonance":
        n = spec["n"]
        if not _close(doc["c_n"], -((n * PI) ** 2), 1e-8) or doc["parity"] != (-1) ** n:
            problems.append(f"tophat level {doc} != -(n pi)^2")
    return problems[:5]


def check_lab_sweep(p: dict, outcome) -> list[str]:
    rows, (verdict, slope, _) = outcome
    want = expected_verdict(p["shape"], p["regime"])
    problems = []
    if [row.eps for row in rows] != list(p["eps"]):
        problems.append("sweep rows out of eps order")
    for row in rows:
        if row.error:
            if row.error not in DESIGNED_FLAGS or want == "convergent":
                problems.append(f"row eps={row.eps} flagged {row.error}")
        elif not row.det_err <= 1e-8:
            problems.append(f"det_err {row.det_err} at eps={row.eps}")
    clean = sum(1 for row in rows if not row.error)
    if not p["reference"] and clean < GAP_MIN_ROWS:
        # rows flagged by design leave too little data for a fit
        want = "unknown"
    if verdict != want:
        problems.append(f"{p['shape']} {p['regime']}: verdict {verdict}, expected {want}")
    elif want == "convergent":
        order = p["m"] if p["m"] < 1.0 else 1.0
        if abs(slope - order) > 0.3:
            problems.append(f"convergence order {slope:.3f}, expected {order}")
    return problems


def shoot_oracle(shape_name: str, c: float) -> float:
    """w'(s) of w'' = c phi^2 w from (1, 0) at -s, by an adaptive RK solver."""
    from scipy.integrate import solve_ivp

    shape = S.SHAPES[shape_name]
    s = shape.half_support

    def rhs(y, w):
        return [w[1], c * float(shape(y)) ** 2 * w[0]]

    sol = solve_ivp(rhs, (-s, s), [1.0, 0.0], rtol=1e-11, atol=1e-13, method="DOP853")
    return float(sol.y[1, -1])


def check_level(p: dict, outcome) -> list[str]:
    level, parity = outcome
    n = p["n"]
    if parity != (-1) ** n:
        return [f"{p['shape']} level {n} parity {parity}"]
    if p["shape"] == "tophat":
        want = -((n * PI) ** 2)
        return [] if _close(level, want, 1e-8) else [f"tophat level {level} != {want}"]
    lo, hi = shoot_oracle(p["shape"], level * (1 + 1e-6)), shoot_oracle(p["shape"], level * (1 - 1e-6))
    return [] if lo * hi < 0.0 else [f"{p['shape']} level {level}: no sign change of w'(s)"]


def check_op(op: Op, outcome, in_process=None) -> list[str]:
    """Problems with an op's outcome; an empty list means correct."""
    p = op.params
    spec = p.get("spec")
    if op.kind == "cli":
        code, stdout, stderr = outcome
        problems = []
        if in_process is not None:
            ref_code, ref_out, ref_err = in_process
            stderr = "".join(
                line for line in stderr.splitlines(True) if not line.startswith(SPAN_MARK)
            )
            if (code, stdout, stderr) != (ref_code, ref_out, ref_err):
                problems.append("process output differs from in-process cli.main")
        if p["argv"][0] == "mollify" and code == 0:
            summary = json.loads(stderr.strip().splitlines()[-1])
            if summary.get("verdict") != "convergent":
                problems.append(f"mollify summary {summary}")
        return problems + check_document(spec, p["argv"], code, stdout, p["code"])
    if op.kind == "curve":
        if len(outcome) != len(p["grid"]):
            return [f"{len(outcome)} curve rows for {len(p['grid'])} energies"]
        problems = []
        for k, row in zip(p["grid"], outcome):
            if row.k != k:
                problems.append("curve rows out of grid order")
            elif spec["cls"] == "sign_flip":
                if row.error != "no_scattering_state":
                    problems.append(f"k={k} should be flagged no_scattering_state")
            elif row.error:
                problems.append(f"k={k} flagged {row.error}")
            else:
                res = row.result
                problems += _check_scatter_row(
                    spec, k, res.reflect_prob, res.transmit_prob, res.flux_residual
                )
            if len(problems) >= 5:
                break
        return problems
    if op.kind == "swave":
        if len(outcome) != len(p["grid"]):
            return [f"{len(outcome)} s-wave results for {len(p['grid'])} energies"]
        problems = []
        for k, res in zip(p["grid"], outcome):
            problems += _check_radial(spec, k, p["a"], res.delta0, res.sigma0)
            if len(problems) >= 5:
                break
        return problems
    if op.kind == "chain":
        return check_chain(p, outcome)
    if op.kind == "bound":
        return expected_bound(spec, outcome.kind, outcome.kappas)
    if op.kind == "main":
        code, stdout, _ = outcome
        return check_document(spec, p["argv"], code, stdout, p["code"])
    if op.kind == "undefined":
        return [] if isinstance(outcome, S.UndefinedRegime) else [f"{spec} gave a junction"]
    if op.kind == "sweep":
        return check_lab_sweep(p, outcome)
    if op.kind == "level":
        return check_level(p, outcome)
    raise ValueError(f"unknown op kind {op.kind}")
