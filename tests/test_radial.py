"""s-wave scattering off spherical shell potentials."""

from __future__ import annotations

import json
import math
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import singscat.radial as radial_mod

from singscat import (
    COSINE_BUMP,
    IvChoice,
    MissingChoice,
    NonPositiveEnergy,
    PotentialSpec,
    PrecisionLoss,
    RegularizedPotential,
    ShellPotentialSpec,
    TransferOverflow,
    UndefinedRegime,
    free_propagators,
    junction_matrix,
    radial_wavefunction,
    s_wave_solve,
)
from singscat.cli import main
from singscat.core import PHASE_ULP_FRACTION
from singscat.radial import _principal_shift


def _shell(m: float, c: float, a: float = 1.0) -> ShellPotentialSpec:
    return ShellPotentialSpec(PotentialSpec(m, c), a)


def _delta_shell_phase(k: float, a: float, c: float) -> float:
    """Oracle: delta-shell phase shift from explicit interior/exterior matching.

    Interior sin(q r), exterior B sin(q r + d); continuity plus the
    derivative jump c*u(a) give
        tan(q a + d) = q sin(q a) / (q cos(q a) + c sin(q a)).
    """
    q = math.sqrt(k)
    raw = math.atan2(q * math.sin(q * a), q * math.cos(q * a) + c * math.sin(q * a))
    d = math.remainder(raw - q * a, math.pi)
    if d <= -math.pi / 2:
        d += math.pi
    return d


def test_delta_shell_matches_closed_form():
    for k in (0.3, 1.0, 2.0, 7.5, 40.0):
        for a in (0.5, 1.0, 2.5):
            for c in (-4.0, -2.0, -0.5, 1.0, 3.0):
                res = s_wave_solve(_shell(1.0, c, a), k)
                ref = _delta_shell_phase(k, a, c)
                assert abs(res.delta0 - ref) < 1e-12
                assert abs(res.sigma0 - 4 * math.pi / k * math.sin(ref) ** 2) < 1e-12


def test_delta_shell_weak_coupling_limit():
    base = s_wave_solve(_shell(1.0, 1e-9), 1.0)
    assert abs(base.delta0) < 1e-9


def test_transparent_shell_exact_zero_shift():
    for k in (0.2, 1.0, 9.0):
        for c in (-3.0, 0.5, 12.0):
            res = s_wave_solve(_shell(0.5, c), k)
            assert res.delta0 == 0.0
            assert res.sigma0 == 0.0


def test_sign_flip_shell_invisible_in_cross_section():
    for n in (1, 2, 3):
        c = -((n * math.pi) ** 2)
        for k in (0.5, 1.0, 4.0):
            res = s_wave_solve(_shell(2.0, c), k)
            assert res.delta0 == 0.0
            assert res.sigma0 == 0.0


def test_phase_shift_on_principal_branch():
    rng = np.random.default_rng(71)
    for _ in range(300):
        k = float(rng.uniform(0.05, 60.0))
        a = float(rng.uniform(0.2, 3.0))
        c = float(rng.uniform(-8.0, 8.0))
        res = s_wave_solve(_shell(1.0, c, a), k)
        assert -math.pi / 2 < res.delta0 <= math.pi / 2
        assert res.sigma0 <= 4 * math.pi / k * (1 + 1e-15)
        assert 0.0 <= res.sigma0


def test_principal_shift_takes_the_upper_end_of_a_tie():
    # math.remainder rounds -1/2 to the even 0 and keeps -pi/2, which the
    # half-open branch (-pi/2, pi/2] moves up by pi
    assert _principal_shift(-math.pi / 2) == math.pi / 2
    assert _principal_shift(math.pi / 2) == math.pi / 2


def test_cross_section_is_branch_independent():
    res = s_wave_solve(_shell(1.0, -2.0), 1.3)
    shifted = math.sin(res.delta0 + math.pi) ** 2
    assert abs(res.sigma0 - 4 * math.pi / 1.3 * shifted) < 1e-12


def test_indeterminate_shell_requires_choice():
    with pytest.raises(MissingChoice):
        s_wave_solve(_shell(3.0, -1.0), 1.0)
    res = s_wave_solve(_shell(3.0, -1.0), 1.0, choice=IvChoice(1, -2.0))
    ref = s_wave_solve(_shell(1.0, -2.0), 1.0)
    assert abs(res.delta0 - ref.delta0) < 1e-15


def test_undefined_shell_regime_raises():
    with pytest.raises(UndefinedRegime):
        s_wave_solve(_shell(1.5, -1.0), 1.0)


def test_energy_validation():
    with pytest.raises(NonPositiveEnergy):
        s_wave_solve(_shell(1.0, -2.0), 0.0)
    with pytest.raises(NonPositiveEnergy):
        s_wave_solve(_shell(1.0, -2.0), -2.0)


def test_an_energy_that_is_not_real_and_a_shell_that_is_not_a_record_are_refused():
    # The parent raised TypeError for "1" and returned k = True for True; a
    # plain (base, a) tuple skipped the shell's checks, so a radius of -1
    # gave a result and a nan radius an overflow message
    shell = _shell(1.0, -2.0)
    for k, got in (("1", "str"), (True, "bool"), (None, "NoneType"), (1j, "complex")):
        with pytest.raises(ValueError, match=f"k must be a real number, got {got}"):
            s_wave_solve(shell, k)
    base = PotentialSpec(1.0, -1.0)
    for bad in ((base, -1.0), (base, math.nan), [base, 1.0], None):
        with pytest.raises(ValueError, match="must be a ShellPotentialSpec"):
            s_wave_solve(bad, 1.0)
    # ints and numpy's scalars are real numbers, and kept as given
    for k in (2, np.int64(2), np.float64(2.0)):
        res = s_wave_solve(shell, k)
        assert res.k is k and res.delta0 == s_wave_solve(shell, 2.0).delta0


def test_wavefunction_continuity_across_delta_shell():
    k, a, c = 1.7, 1.0, -2.0
    sol = s_wave_solve(_shell(1.0, c, a), k)
    lo = a * (1 - 1e-9)
    hi = a * (1 + 1e-9)
    (r1, big_r1, u1), (r2, big_r2, u2) = radial_wavefunction(sol, [lo, hi])
    assert abs(big_r1 - big_r2) < 1e-7
    assert abs(u1 - u2) < 1e-7


def test_wavefunction_sign_flip_across_odd_shell():
    k, a = 1.0, 1.0
    sol = s_wave_solve(_shell(2.0, -(math.pi**2), a), k)
    (_, r_in, _), (_, r_out, _) = radial_wavefunction(
        sol, [a * (1 - 1e-9), a * (1 + 1e-9)]
    )
    assert r_in * r_out < 0
    assert abs(r_in + r_out) < 1e-7


def test_wavefunction_finite_at_origin():
    k = 2.0
    sol = s_wave_solve(_shell(1.0, -2.0), k)
    q = math.sqrt(k)
    amp = sol.interior_amplitude
    samples = radial_wavefunction(sol, [1e-16, 1e-13, 1e-6, 0.5])
    for r, big_r, u in samples:
        assert math.isfinite(big_r)
        expected = amp * math.sin(q * r) / r if r > 1e-12 else amp * q
        assert abs(big_r - expected) < 1e-9 * max(1.0, abs(expected))
    assert samples[-1][2] == pytest.approx(amp * math.sin(q * 0.5), abs=1e-15)


def test_free_shell_wavefunction_is_free_wave():
    k = 1.0
    sol = s_wave_solve(_shell(0.5, 5.0), k)
    amp = sol.interior_amplitude
    for r, big_r, u in radial_wavefunction(sol, [0.3, 1.0, 1.7, 2.4]):
        assert abs(big_r - amp * math.sin(r) / r) < 1e-13


def test_reduction_agrees_with_direct_radial_integration():
    # same smooth shell potential integrated two ways: (u, u') cells via
    # u = r R, versus (R, R') directly with the 2/r first-order term
    k, a, c, eps = 1.3, 1.0, -2.0, 0.1
    pot = RegularizedPotential(PotentialSpec(1.0, c), COSINE_BUMP, eps)

    def shell_u(r: float) -> float:
        return pot(r - a)

    q = math.sqrt(k)
    r0, r1 = a / 2, 2 * a
    u0, du0 = math.sin(q * r0), q * math.cos(q * r0)

    n_cells = 48000
    h = (r1 - r0) / n_cells
    grid = [r0 + i * h for i in range(n_cells + 1)]
    mids = np.array(grid[:-1]) + h / 2
    steps = free_propagators(k - pot(mids - a), h).tolist()
    us = [(u0, du0)]
    for (m11, m12), (m21, m22) in steps:
        u, du = us[-1]
        us.append((m11 * u + m12 * du, m21 * u + m22 * du))

    def rhs(r, y):
        big_r, d_big_r = y
        return [d_big_r, -2.0 / r * d_big_r + (shell_u(r) - k) * big_r]

    y0 = [u0 / r0, du0 / r0 - u0 / (r0 * r0)]
    direct = solve_ivp(
        rhs, (r0, r1), y0, method="DOP853", rtol=1e-12, atol=1e-13,
        t_eval=grid[:: n_cells // 16],
    )
    assert direct.success
    for idx, r in zip(range(0, n_cells + 1, n_cells // 16), direct.t):
        u_cell = us[idx][0]
        assert abs(u_cell / r - direct.y[0][list(direct.t).index(r)]) < 1e-8


def test_wavefunction_rejects_nonpositive_radius():
    sol = s_wave_solve(_shell(1.0, -2.0), 1.0)
    with pytest.raises(ValueError):
        radial_wavefunction(sol, [0.0])
    with pytest.raises(ValueError):
        radial_wavefunction(sol, [-1.0])
    with pytest.raises(ValueError):
        radial_wavefunction(sol, [math.inf])
    # the parent failed this with AttributeError
    with pytest.raises(ValueError, match="must be a RadialResult, got NoneType"):
        radial_wavefunction(None, [1.0])


@pytest.mark.parametrize("k", [math.nan, math.inf])
def test_wavefunction_refuses_non_finite_energy(k):
    sol = s_wave_solve(_shell(1.0, -2.0), 1.0)._replace(k=k)
    with pytest.raises(ValueError, match="k must be finite"):
        radial_wavefunction(sol, [0.5, 2.0])


def test_phase_past_its_rounding_is_refused():
    # ulp(sqrt(k) a) first exceeds PHASE_ULP_FRACTION * pi at sqrt(k) a = 2^34
    assert math.ulp(2.0**34) > PHASE_ULP_FRACTION * math.pi >= math.ulp(2.0**33)
    edge = 2.0**34
    below = s_wave_solve(_shell(1.0, 1.0, a=math.nextafter(edge, 0.0)), 1.0)
    assert math.isfinite(below.delta0)
    for shell, k in ((_shell(1.0, 1.0, edge), 1.0), (_shell(1.0, 1.0, 1e300), 1e10)):
        with pytest.raises(PrecisionLoss):
            s_wave_solve(shell, k)
    with pytest.raises(ValueError, match="k must be finite"):
        s_wave_solve(_shell(1.0, 1.0), math.inf)
    sol = s_wave_solve(_shell(1.0, -2.0), 1.0)
    radial_wavefunction(sol, [0.5, math.nextafter(edge, 0.0)])
    with pytest.raises(PrecisionLoss):
        radial_wavefunction(sol, [0.5, edge])


def test_cross_section_that_overflows_is_refused():
    # 4 pi / k is inf below k = 4 pi / DBL_MAX; sigma0 would be inf, or
    # inf * 0 = nan for the identity junction of (0.5, 1)
    for shell in (_shell(1.0, -2.0), _shell(0.5, 1.0)):
        for k in (1e-320, 5e-324):
            with pytest.raises(TransferOverflow):
                s_wave_solve(shell, k)
        assert math.isfinite(s_wave_solve(shell, 1e-307).sigma0)


def test_small_energy_phase_shift_keeps_its_digits(capsys):
    # 1 + c a < 0 puts atan2(q alpha, beta) next to pi, and reducing it
    # mod pi used to cancel every digit of a small delta0: k = 1e-300
    # gave delta0 = sigma0 = 0 instead of sigma0 = 4 pi (c a^2 / (1 + c a))^2
    shell = _shell(1.0, -2.0)
    with mpmath.workdps(60):
        for k in (1e-13, 1e-25, 1e-31, 1e-300):
            res = s_wave_solve(shell, k)
            q = mpmath.sqrt(mpmath.mpf(k))
            u = mpmath.sin(q)
            exact = mpmath.atan(q * u / (q * mpmath.cos(q) - 2 * u)) - q
            assert abs(res.delta0 - exact) <= 1e-15 * abs(exact), k
            sigma0 = 4 * mpmath.pi / k * mpmath.sin(exact) ** 2
            assert abs(res.sigma0 - sigma0) <= 1e-14 * sigma0, k
    argv = ["radial", "--m", "1", "--c", "-2", "--a", "1", "--k", "1e-300"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["sigma0"] == 50.26548245743669


def test_signed_zero_couplings_keep_their_own_junctions():
    # PotentialSpec(1.0, 0.0) == PotentialSpec(1.0, -0.0), and the same for
    # the two IvChoice, yet their junctions' m21 differ in sign; calls in
    # alternation must each get their own, which no cache keyed by equality
    # could give
    cases = [
        (PotentialSpec(1.0, 0.0), None, 0.0),
        (PotentialSpec(1.0, -0.0), None, -0.0),
        (PotentialSpec(3.0, -1.0), IvChoice(1, 0.0), 0.0),
        (PotentialSpec(3.0, -1.0), IvChoice(1, -0.0), -0.0),
    ]
    assert cases[0][0] == cases[1][0] and cases[2][1] == cases[3][1]
    for _ in range(3):
        for p, choice, m21 in cases:
            got = junction_matrix(p, choice).m21
            assert math.copysign(1.0, got) == math.copysign(1.0, m21)
    shells = [(ShellPotentialSpec(p, 1.25), choice) for p, choice, _ in cases]
    ks = (0.5, 2.0, 30.0)
    # each expected answer from fresh copies, so the slot never helps it
    expected = [[_own_answer(shell, k, choice) for k in ks] for shell, choice in shells]
    for _ in range(3):
        for (shell, choice), own in zip(shells, expected):
            assert [_answer(shell, k, choice) for k in ks] == own


def test_a_shell_derives_its_junction_once_per_run_of_calls(monkeypatch):
    calls = []

    def counting(base, choice=None):
        calls.append(base)
        return junction_matrix(base, choice)

    monkeypatch.setattr(radial_mod, "junction_matrix", counting)
    shell = _shell(1.0, -2.0)
    for i in range(1000):
        s_wave_solve(shell, 0.01 * (i + 1))
    assert calls == [shell.base]
    calls.clear()
    a, b = _shell(1.0, -2.0), _shell(1.0, -2.0)
    for shell in (a, b, a):
        for k in (0.5, 1.0, 2.0):
            s_wave_solve(shell, k)
    assert calls == [a.base, b.base, a.base]


def test_a_refused_shell_raises_on_every_call_and_keeps_the_slot():
    s_wave_solve(_shell(1.0, -2.0), 1.0)
    kept = radial_mod._LAST[0]
    undefined = _shell(2.0, 1.0)
    for k in (0.5, 1.0, 2.0):
        with pytest.raises(UndefinedRegime):
            s_wave_solve(undefined, k)
        assert radial_mod._LAST[0] is kept


# shells over the five junction classes, with equal but distinct records
_DELTA = PotentialSpec(1.0, -2.0)
_INDETERMINATE = PotentialSpec(3.0, -1.0)
_POOL = [
    (ShellPotentialSpec(PotentialSpec(0.5, 3.0), 1.3), None),
    (ShellPotentialSpec(_DELTA, 1.3), None),
    (ShellPotentialSpec(_DELTA, 0.7), None),
    (ShellPotentialSpec(PotentialSpec(1, -2.0), 1.3), None),
    (ShellPotentialSpec(PotentialSpec(1.0, 0.0), 1.3), None),
    (ShellPotentialSpec(PotentialSpec(1.0, -0.0), 1.3), None),
    (ShellPotentialSpec(PotentialSpec(2.0, 1.0), 1.3), None),
    (ShellPotentialSpec(PotentialSpec(2.0, -(math.pi**2)), 1.3), None),
    (ShellPotentialSpec(PotentialSpec(2.0, -((2 * math.pi) ** 2)), 1.3), None),
    (ShellPotentialSpec(_INDETERMINATE, 1.3), IvChoice(1, 0.0)),
    (ShellPotentialSpec(_INDETERMINATE, 1.3), IvChoice(1, -0.0)),
    (ShellPotentialSpec(_INDETERMINATE, 1.3), IvChoice(1.0, -0.0)),
    (ShellPotentialSpec(_INDETERMINATE, 1.3), IvChoice(-1, 0.5)),
]


def _answer(shell: ShellPotentialSpec, k: float, choice: IvChoice | None):
    """s_wave_solve's fields by float.hex, or the type of its regime error."""
    try:
        res = s_wave_solve(shell, k, choice)
    except UndefinedRegime as exc:
        return type(exc)
    return list(map(float.hex, [*res[:5], *res.exterior_coeffs]))


def _own_answer(shell: ShellPotentialSpec, k: float, choice: IvChoice | None):
    """_answer on fresh copies of the records, so the junction is derived afresh."""
    fresh = ShellPotentialSpec(PotentialSpec(*shell.base), shell.a)
    return _answer(fresh, k, None if choice is None else IvChoice(*choice))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(st.integers(0, len(_POOL) - 1), st.floats(1e-3, 1e3)),
        min_size=1,
        max_size=40,
    )
)
def test_alternating_shells_each_get_their_own_junction(calls):
    sequence = [(*_POOL[index], k) for index, k in calls]
    expected = [_own_answer(shell, k, choice) for shell, choice, k in sequence]
    for (shell, choice, k), own in zip(sequence, expected):
        assert _answer(shell, k, choice) == own


def test_threads_alternating_shells_each_get_their_own_junction():
    ks = [0.25 * (i + 1) for i in range(40)]
    expected = {i: [_own_answer(s, k, ch) for k in ks] for i, (s, ch) in enumerate(_POOL)}
    wrong = []

    def worker(offset: int) -> None:
        for r in range(30):
            i = (offset + r) % len(_POOL)
            shell, choice = _POOL[i]
            if [_answer(shell, k, choice) for k in ks] != expected[i]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
