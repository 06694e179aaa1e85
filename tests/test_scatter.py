"""Scattering amplitudes, bound states, and junction chains."""

from __future__ import annotations

import cmath
import gc
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from singscat import scatter
from singscat import (
    BoundSpectrum,
    ChainOrderError,
    IvChoice,
    Mat2,
    NonPositiveEnergy,
    NoScatteringState,
    PiecewiseSolution,
    PotentialSpec,
    PrecisionLoss,
    TransferOverflow,
    bound_states,
    compose_chain,
    evaluate_solution,
    free_transfer,
    junction_matrix,
    scattering_amplitudes,
    transmission_curve,
)


def _solve_amplitudes(j: Mat2, k: float) -> tuple[complex, complex]:
    """Oracle: solve the two matching equations as a complex linear system."""
    q = math.sqrt(k)
    lhs = np.array(
        [
            [j.m11 - 1j * q * j.m12, -1.0],
            [j.m21 - 1j * q * j.m22, -1j * q],
        ],
        dtype=complex,
    )
    rhs = np.array([-j.m11 - 1j * q * j.m12, -j.m21 - 1j * q * j.m22], dtype=complex)
    r, t = np.linalg.solve(lhs, rhs)
    return complex(r), complex(t)


def _sample_junctions() -> list[Mat2]:
    out = [
        junction_matrix(PotentialSpec(0.5, 3.0)),
        junction_matrix(PotentialSpec(1.0, -2.0)),
        junction_matrix(PotentialSpec(1.0, 4.5)),
        junction_matrix(PotentialSpec(2.0, -(math.pi**2))),
        junction_matrix(PotentialSpec(2.0, -(4 * math.pi**2))),
        junction_matrix(PotentialSpec(3.0, -1.0), choice=IvChoice(1, 1.7)),
        junction_matrix(PotentialSpec(3.0, -1.0), choice=IvChoice(-1, 0.5)),
        junction_matrix(PotentialSpec(3.0, -1.0), choice=IvChoice(-1, -2.2)),
    ]
    return out


def test_amplitudes_match_linear_solve_oracle():
    ks = np.geomspace(1e-3, 1e3, 25)
    for j in _sample_junctions():
        for k in ks:
            res = scattering_amplitudes(j, float(k))
            r_ref, t_ref = _solve_amplitudes(j, float(k))
            assert abs(res.r - r_ref) < 1e-12 * max(1.0, abs(r_ref))
            assert abs(res.t - t_ref) < 1e-12 * max(1.0, abs(t_ref))
            assert res.reflect_prob == abs(res.r) ** 2
            assert res.transmit_prob == abs(res.t) ** 2


def test_delta_transmission_closed_form():
    for c in (-5.0, -1.0, 0.5, 2.0, 5.0):
        j = junction_matrix(PotentialSpec(1.0, c))
        for k in (1e-3, 0.1, 1.0, 10.0, 1e3):
            res = scattering_amplitudes(j, k)
            expected = 4.0 * k / (4.0 * k + c * c)
            assert abs(res.transmit_prob - expected) < 1e-12


def test_transparent_junction_exact_amplitudes():
    res = scattering_amplitudes(Mat2.identity(), 0.37)
    assert res.r == 0.0
    assert res.t == 1.0
    flipped = scattering_amplitudes(Mat2(-1.0, 0.0, 0.0, -1.0), 0.37)
    assert flipped.r == 0.0
    assert flipped.t == -1.0
    assert flipped.transmit_prob == 1.0


def test_flux_residual_vanishes_for_unimodular_junctions():
    # relative scale: det J = -1 choices push |r|^2 ~ 4k/b^2 far above 1,
    # where an absolute 1e-12 would sit below machine resolution
    ks = np.geomspace(1e-3, 1e3, 40)
    for j in _sample_junctions():
        for k in ks:
            res = scattering_amplitudes(j, float(k))
            scale = max(1.0, res.reflect_prob, res.transmit_prob)
            assert abs(res.flux_residual) <= 1e-12 * scale


def test_sign_flipped_choice_has_negative_determinant_relation():
    # det J = -1 turns the flux identity into |t|^2 - |r|^2 = -1
    j = junction_matrix(PotentialSpec(3.0, -1.0), choice=IvChoice(-1, 1.3))
    assert j.det() == -1.0
    res = scattering_amplitudes(j, 2.4)
    assert abs(res.transmit_prob - res.reflect_prob + 1.0) <= 1e-12


def test_degenerate_junction_has_no_scattering_state():
    for k in (1e-300, 1.0, 1e300):
        with pytest.raises(NoScatteringState):
            scattering_amplitudes(Mat2(-1.0, 0.0, 0.0, 1.0), k)


@pytest.mark.parametrize("b", [1.0, -1.0, 3.0])
@pytest.mark.parametrize("k", [1e28, 1e32])
def test_case_iv_junction_scatters_at_large_k(b, k):
    # D = -b: the real part of D is checked against its own terms, not
    # against q (|J11| + |J22|), which outgrows it at large k
    j = Mat2(-1.0, 0.0, b, 1.0)
    want = 4.0 * k / (b * b)
    res = scattering_amplitudes(j, k)
    assert abs(res.transmit_prob - want) <= 1e-12 * want
    (row,) = transmission_curve(j, [k])  # numpy is loaded: the array kernel
    assert row.error == "" and row.result == res


def test_transmission_past_the_float_range_is_an_overflow():
    # T = 4k/b^2 = 4e320 for b = 1e-10 at k = 1e300
    j = Mat2(-1.0, 0.0, 1e-10, 1.0)
    with pytest.raises(TransferOverflow):
        scattering_amplitudes(j, 1e300)
    rows = transmission_curve(j, [1e300, 1e20])  # the array kernel
    assert [row.error for row in rows] == ["overflow", ""]
    assert abs(rows[1].result.transmit_prob - 4e40) <= 1e-12 * 4e40
    # D is finite and not degenerate, but t = 1.67e308 + 7.29e307j, and
    # abs(t) raises OverflowError in the scalar formula
    j = Mat2(-5.532654093160611e307, -7.957364066986751e306, 1.4972526463916677e306,
             3.5613294100088293e307)
    k = 0.7468622743963478
    with pytest.raises(TransferOverflow):
        scattering_amplitudes(j, k)
    assert [row.error for row in transmission_curve(j, [k])] == ["overflow"]
    with mock.patch.dict(sys.modules, {"numpy": None}):  # the scalar kernel
        [block] = scatter._amplitude_columns(j, [k])
        assert list(block[1]) == ["overflow"]


def test_energy_must_be_positive():
    j = junction_matrix(PotentialSpec(1.0, -1.0))
    with pytest.raises(NonPositiveEnergy):
        scattering_amplitudes(j, 0.0)
    with pytest.raises(NonPositiveEnergy):
        scattering_amplitudes(j, -1.0)


def test_infinite_energy_is_refused():
    j = junction_matrix(PotentialSpec(1.0, -1.0))
    with pytest.raises(ValueError, match="finite"):
        scattering_amplitudes(j, math.inf)


def test_scattering_amplitudes_refuses_minus_inf_as_inf():
    # the parent raised NonPositiveEnergy for -inf; nan keeps it
    j = junction_matrix(PotentialSpec(1.0, -1.0))
    with pytest.raises(ValueError, match="finite k, got -inf"):
        scattering_amplitudes(j, -math.inf)
    with pytest.raises(NonPositiveEnergy):
        scattering_amplitudes(j, math.nan)


def test_transmission_curve_refuses_minus_inf_as_inf():
    # the parent gave -inf a non_positive_energy row; nan keeps it
    j = junction_matrix(PotentialSpec(1.0, -1.0))
    for grid in ([-math.inf], [0.5, -1.0, -math.inf], [math.inf, 2.0]):
        with pytest.raises(ValueError, match="finite k"):
            transmission_curve(j, grid)
    rows = transmission_curve(j, [0.5, math.nan, 1e308, 1e308])
    assert [row.error for row in rows] == ["", "non_positive_energy", "", ""]


def test_a_junction_that_is_not_a_mat2_is_refused():
    # the parent failed these with AttributeError on the tuple or None
    entries = (1.0, 0.0, -1.0, 1.0)
    for call, got in (
        (lambda: scattering_amplitudes(entries, 1.0), "tuple"),
        (lambda: transmission_curve(entries, [1.0]), "tuple"),
        (lambda: bound_states(None), "NoneType"),
    ):
        with pytest.raises(ValueError, match=f"junction must be a Mat2, got {got}"):
            call()


def test_an_energy_that_is_not_a_real_number_is_refused():
    # The parent stored the string "1" as the k of a result and of a curve
    # row, and compose_chain raised TypeError for it
    j = junction_matrix(PotentialSpec(1.0, -1.0))
    chain = [(0.0, j), (1.0, j)]
    for k, got in (("1", "str"), (True, "bool"), (None, "NoneType")):
        for call in (
            lambda: scattering_amplitudes(j, k),
            lambda: transmission_curve(j, [0.5, k, 2.0]),
            lambda: compose_chain(chain, k),
        ):
            with pytest.raises(ValueError, match=f"k must be a real number, got {got}"):
                call()
    # ints and numpy's scalars are real numbers, taken as Python floats
    for k in (2, np.int64(2), np.float64(2.0)):
        result = scattering_amplitudes(j, k)
        assert type(result.k) is float and result == scattering_amplitudes(j, 2.0)
        assert transmission_curve(j, [k])[0].result.t == scattering_amplitudes(j, 2.0).t
        assert compose_chain(chain, k) == compose_chain(chain, 2.0)


def test_transmission_curve_keeps_order_and_flags_failures():
    j = Mat2(-1.0, 0.0, 0.0, 1.0)
    rows = transmission_curve(j, [0.5, 1.0, 2.0])
    assert [row.k for row in rows] == [0.5, 1.0, 2.0]
    assert all(row.result is None for row in rows)
    assert {row.error for row in rows} == {"no_scattering_state"}

    ok = transmission_curve(junction_matrix(PotentialSpec(1.0, -1.0)), [0.5, 1.0])
    assert all(row.error == "" for row in ok)
    assert ok[0].result is not None


def test_a_curve_leaves_the_collector_as_it_found_it():
    j = junction_matrix(PotentialSpec(1.0, -1.0))
    ks = [0.5, 1.0, 2.0]
    enabled = gc.isenabled()
    try:
        gc.enable()
        transmission_curve(j, ks)
        assert gc.isenabled()
        gc.disable()
        transmission_curve(j, ks)
        assert not gc.isenabled()
        # an infinite energy in the second kernel block raises after the
        # first block's rows were built
        gc.enable()
        with pytest.raises(ValueError, match="finite k"):
            transmission_curve(j, [1.0] * scatter._BLOCK + [math.inf])
        assert gc.isenabled()
    finally:
        (gc.enable if enabled else gc.disable)()


# Counts the collections that start during a 20,000-energy curve, then
# prints the row count, that count, and whether numpy is loaded; numpy is
# imported first if the argument says so
_COUNT_COLLECTIONS = """
import gc, sys
if sys.argv[1] == "numpy":
    import numpy
from singscat import PotentialSpec, junction_matrix, transmission_curve
j = junction_matrix(PotentialSpec(1.0, -2.0))
ks = [0.1 + i * 1e-3 for i in range(20_000)]
starts = []
gc.collect()
gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(info))
rows = transmission_curve(j, ks)
gc.callbacks.clear()
print(len(rows), len(starts), "numpy" in sys.modules)
"""


@pytest.mark.parametrize("kernel", ["numpy", "scalar"])
def test_a_long_curve_runs_no_automatic_collection(kernel):
    # the parent ran 57 collections here with numpy loaded, 81 without
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _COUNT_COLLECTIONS, kernel],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        timeout=120, check=True,
    )
    assert child.stdout == f"20000 0 {kernel == 'numpy'}\n"


def test_bound_state_of_attractive_delta():
    spectrum = bound_states(junction_matrix(PotentialSpec(1.0, -2.0)))
    assert spectrum.kind == "discrete"
    assert len(spectrum.kappas) == 1
    assert abs(spectrum.kappas[0] - 1.0) <= 1e-12
    assert abs(spectrum.energies[0] + 1.0) <= 1e-12


def test_bound_state_whose_energy_overflows_is_refused():
    # kappa = -c / 2, and -kappa^2 leaves the float range once |c| passes
    # about 2.7e154
    spectrum = bound_states(junction_matrix(PotentialSpec(1.0, -2.6e154)))
    assert math.isfinite(spectrum.energies[0])
    for c in (-2.7e154, -1e308):
        with pytest.raises(TransferOverflow, match="kappa"):
            bound_states(junction_matrix(PotentialSpec(1.0, c)))


def test_repulsive_delta_has_no_bound_state():
    spectrum = bound_states(junction_matrix(PotentialSpec(1.0, 3.0)))
    assert spectrum.kind == "empty"
    assert spectrum.kappas == ()
    assert bound_states(Mat2.identity()).kind == "empty"


def test_double_root_at_kappa_zero_is_no_bound_state():
    # a = 1, b = c = 0: the quadratic kappa^2 = 0, whose Citardauq q is 0
    spectrum = bound_states(Mat2(1.0, 1.0, 0.0, -1.0))
    assert spectrum.kind == "empty"
    assert spectrum.kappas == ()


def test_degenerate_junction_binds_a_continuum():
    spectrum = bound_states(Mat2(-1.0, 0.0, 0.0, 1.0))
    assert spectrum.kind == "continuum_degenerate"
    assert spectrum.kappas == ()


def test_quadratic_matching_condition_roots():
    # J12 kappa^2 + (J11 + J22) kappa + J21 = 0 with roots 2 and 3
    j = Mat2(-5.0, 1.0, 6.0, 0.0)
    spectrum = bound_states(j)
    assert spectrum.kind == "discrete"
    assert len(spectrum.kappas) == 2
    assert abs(spectrum.kappas[0] - 2.0) <= 1e-12
    assert abs(spectrum.kappas[1] - 3.0) <= 1e-12


def test_bound_state_residuals_on_random_junctions():
    rng = np.random.default_rng(53)
    seen = 0
    for _ in range(400):
        j = Mat2(*rng.uniform(-3.0, 3.0, size=4))
        spectrum = bound_states(j)
        if spectrum.kind != "discrete":
            continue
        scale = max(1.0, abs(j.m11), abs(j.m12), abs(j.m21), abs(j.m22))
        for kappa in spectrum.kappas:
            seen += 1
            assert kappa > 0.0
            residual = j.m12 * kappa * kappa + (j.m11 + j.m22) * kappa + j.m21
            assert abs(residual) <= 1e-10 * scale * max(1.0, kappa * kappa)
        assert list(spectrum.kappas) == sorted(spectrum.kappas)
    assert seen > 50


def _two_junction_oracle(
    j1: Mat2, j2: Mat2, d: float, k: float
) -> tuple[complex, complex]:
    """Plane-wave matching across junctions at 0 and d, solved directly.

    Unknowns (r, A, B, t) for psi = e^{iqx} + r e^{-iqx} | A e^{iqx} +
    B e^{-iqx} | t e^{iqx}.
    """
    q = math.sqrt(k)
    e_p = cmath.exp(1j * q * d)
    e_m = cmath.exp(-1j * q * d)
    m = np.zeros((4, 4), dtype=complex)
    rhs = np.zeros(4, dtype=complex)
    # junction 1 at x = 0: J1 . (1 + r, iq(1 - r)) = (A + B, iq(A - B))
    m[0] = [j1.m11 - 1j * q * j1.m12, -1.0, -1.0, 0.0]
    rhs[0] = -(j1.m11 + 1j * q * j1.m12)
    m[1] = [j1.m21 - 1j * q * j1.m22, -1j * q, 1j * q, 0.0]
    rhs[1] = -(j1.m21 + 1j * q * j1.m22)
    # junction 2 at x = d
    m[2] = [
        0.0,
        (j2.m11 + 1j * q * j2.m12) * e_p,
        (j2.m11 - 1j * q * j2.m12) * e_m,
        -e_p,
    ]
    m[3] = [
        0.0,
        (j2.m21 + 1j * q * j2.m22) * e_p,
        (j2.m21 - 1j * q * j2.m22) * e_m,
        -1j * q * e_p,
    ]
    sol = np.linalg.solve(m, rhs)
    return complex(sol[0]), complex(sol[3])


def test_chain_of_two_junctions_matches_plane_wave_matching():
    j_delta = junction_matrix(PotentialSpec(1.0, -2.0))
    j_res = junction_matrix(PotentialSpec(2.0, -(math.pi**2)))
    cases = [
        (j_delta, j_delta, 0.8),
        (j_delta, j_res, 1.3),
        (j_res, j_delta, 2.0),
    ]
    for j1, j2, d in cases:
        total = compose_chain([(0.0, j1), (d, j2)], k=1.7)
        res = scattering_amplitudes(total, 1.7)
        r_ref, t_ref = _two_junction_oracle(j1, j2, d, 1.7)
        q = math.sqrt(1.7)
        # the composed matrix carries boundary data from 0- to d+, so its
        # amplitudes differ from the spatial ones by plane-wave phases
        t_spatial = res.t * cmath.exp(-1j * q * d)
        assert abs(res.r - r_ref) < 1e-12
        assert abs(t_spatial - t_ref) < 1e-12


def test_single_junction_chain_is_the_junction():
    j = junction_matrix(PotentialSpec(1.0, 2.5))
    total = compose_chain([(0.4, j)], k=1.0)
    assert total.max_abs_diff(j) == 0.0


def test_chain_positions_must_increase():
    j = junction_matrix(PotentialSpec(1.0, 1.0))
    with pytest.raises(ChainOrderError):
        compose_chain([(0.0, j), (0.0, j)], k=1.0)
    with pytest.raises(ChainOrderError):
        compose_chain([(1.0, j), (0.5, j)], k=1.0)
    assert compose_chain([], k=1.0) == Mat2.identity()


_ORDER_J = junction_matrix(PotentialSpec(1.0, 1.0))


@pytest.mark.parametrize(
    "positions, message",
    [
        # a nan past the first gap, and inf then inf (whose gap is nan),
        # are what a min() over the gaps lets through
        ([0.0, 1.0, math.nan, 3.0], "got 1.0 then nan"),
        ([math.nan, 1.0], "got nan then 1.0"),
        ([0.0, 0.5, 0.5], "got 0.5 then 0.5"),
        ([0.0, math.inf, math.inf], "got inf then inf"),
        ([-math.inf, -math.inf], "got -inf then -inf"),
        ([0.0, 1.0, 2.0, 1.5], "got 2.0 then 1.5"),
        # no gap, so nothing to order: the identity, or the one junction
        ([], None),
        ([0.4], None),
        ([math.nan], None),
        ([math.inf], None),
    ],
)
@pytest.mark.parametrize("k", [1.0, -1.0])
def test_chain_order_edge_cases(positions, message, k):
    chain = [(x, _ORDER_J) for x in positions]
    if message is None:
        want = _ORDER_J if positions else Mat2.identity()
        assert tuple(map(float.hex, compose_chain(chain, k))) == tuple(map(float.hex, want))
        return
    with pytest.raises(ChainOrderError) as refusal:
        compose_chain(chain, k)
    assert str(refusal.value) == f"positions must increase strictly, {message}"


def test_chain_refuses_a_gap_whose_phase_is_rounding_noise():
    # the parent returned a matrix for a gap whose phase sqrt(k) x = 1e11
    # evaluate_solution refuses, as it refuses the samples at that x
    j = _ORDER_J
    with pytest.raises(PrecisionLoss):
        compose_chain([(0.0, j), (1e11, j)], 1.0)
    with pytest.raises(PrecisionLoss):
        evaluate_solution(PiecewiseSolution(1.0, (1.0, 0.0), j), [1e11])
    # the widest gap is checked, at the phase limit 2^34 and not below it
    limit = 2.0**34
    with pytest.raises(PrecisionLoss):
        compose_chain([(0.0, j), (1.0, j), (1.0 + 4.0 * limit, j)], 0.0625)
    below = [(0.0, j), (limit / 2, j), (math.nextafter(1.5 * limit, 0.0), j)]
    assert all(map(math.isfinite, compose_chain(below, 1.0)))
    # where k <= 0 the phase is not taken
    assert all(map(math.isfinite, compose_chain([(0.0, j), (1e11, j)], 0.0)))


def test_chain_overflow_is_a_transfer_overflow():
    j = junction_matrix(PotentialSpec(1.0, -50.0))
    with pytest.raises(TransferOverflow):
        compose_chain([(float(i), j) for i in range(400)], k=0.5)
    # a non-finite energy is bad input, not an overflow
    with pytest.raises(ValueError):
        compose_chain([(0.0, j), (1.0, j)], k=math.inf)


def test_chain_overflow_names_the_first_junction_past_the_range():
    # the running product is checked once, after the loop; the error still
    # names the junction at which it first left the range
    j = junction_matrix(PotentialSpec(1.0, -50.0))
    chain = [(float(i), j) for i in range(400)]
    with pytest.raises(TransferOverflow, match=r"at x = 187\.0$"):
        compose_chain(chain, k=0.5)
    total = compose_chain(chain[:187], k=0.5)
    assert max(map(abs, total)) > 1e300
    # at the last junction of a chain, and in its first gap, where
    # cosh(sqrt(1) 750) itself overflows
    with pytest.raises(TransferOverflow, match=r"at x = 187\.0$"):
        compose_chain(chain[:188], k=0.5)
    with pytest.raises(TransferOverflow, match=r"at x = 750\.0$"):
        compose_chain([(0.0, j), (750.0, j), (751.0, j)], k=-1.0)


def test_chain_of_identity_junctions_is_free_propagation():
    eye = Mat2.identity()
    k = 1.9
    total = compose_chain([(-0.5, eye), (0.25, eye), (1.0, eye)], k=k)
    assert total.max_abs_diff(free_transfer(k, 1.5)) < 1e-13


def test_chain_against_unrolled_product():
    j1 = junction_matrix(PotentialSpec(1.0, -1.5))
    j2 = junction_matrix(PotentialSpec(1.0, 0.7))
    j3 = junction_matrix(PotentialSpec(2.0, -(math.pi**2)))
    k = 2.3
    total = compose_chain([(-1.0, j1), (0.5, j2), (0.75, j3)], k=k)
    by_hand = j3 @ free_transfer(k, 0.25) @ j2 @ free_transfer(k, 1.5) @ j1
    assert total.max_abs_diff(by_hand) == 0.0


def test_long_chain_equals_free_transfer_fold_bit_for_bit():
    rng = np.random.default_rng(41)
    xs = np.cumsum(rng.uniform(0.05, 1.0, 1000))
    couplings = rng.uniform(-0.1, 0.1, 1000)
    chain = [
        (float(x), junction_matrix(PotentialSpec(1.0, float(c))))
        for x, c in zip(xs, couplings)
    ]
    for k in (0.3, 2.0, 17.0):
        folded = chain[0][1]
        for (x0, _), (x1, j) in zip(chain, chain[1:]):
            folded = j @ (free_transfer(k, x1 - x0) @ folded)
        assert compose_chain(chain, k) == folded


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
def test_evaluate_solution_refuses_non_finite_energy(k):
    sol = PiecewiseSolution(k, (1.0, 0.0), Mat2.identity())
    with pytest.raises(ValueError, match="k must be finite"):
        evaluate_solution(sol, [0.5])


def test_evaluate_solution_refuses_non_finite_points():
    sol = PiecewiseSolution(0.0, (1.0, 0.0), Mat2.identity())
    with pytest.raises(ValueError):
        evaluate_solution(sol, [0.5, math.inf])
    # the parent failed this with AttributeError
    with pytest.raises(ValueError, match="must be a PiecewiseSolution, got NoneType"):
        evaluate_solution(None, [1.0])


def test_evaluate_solution_refuses_phases_past_their_rounding():
    # sqrt(k) |x| = 2^34 is where one ulp first exceeds 1e-6 pi
    edge = 2.0**34
    sol = PiecewiseSolution(1.0, (1.0, 0.0), Mat2.identity())
    below = math.nextafter(edge, 0.0)
    assert len(evaluate_solution(sol, [-below, 0.5, below])) == 3
    for xs in ([0.5, edge], [-edge, 0.5]):
        with pytest.raises(PrecisionLoss):
            evaluate_solution(sol, xs)
    far = PiecewiseSolution(1e10, (1.0, 0.0), Mat2.identity())
    with pytest.raises(PrecisionLoss):
        evaluate_solution(far, [1e300])
    # decaying and flat branches have no phase to lose
    for k in (0.0, -1e-30):
        flat = PiecewiseSolution(k, (1.0, 0.0), Mat2.identity())
        evaluate_solution(flat, [edge])


def test_evaluate_solution_refuses_overflowing_branches():
    # cosh(1000) overflows; the sample used to come back as nan
    sol = PiecewiseSolution(-1.0, (1.0, 0.0), Mat2.identity())
    with pytest.raises(TransferOverflow):
        evaluate_solution(sol, [1000.0])
    with pytest.raises(TransferOverflow):
        evaluate_solution(sol, [-1.0, -1000.0])
    assert all(map(math.isfinite, evaluate_solution(sol, [700.0])[0]))


def test_evaluate_solution_free_cosine():
    sol = PiecewiseSolution(1.0, (1.0, 0.0), Mat2.identity())
    pts = evaluate_solution(sol, [-1.0, 0.0, 1.0])
    xs = [p[0] for p in pts]
    assert xs == [-1.0, 0.0, 0.0, 1.0]
    for x, psi, dpsi in pts:
        assert abs(psi - math.cos(x)) < 1e-15
        assert abs(dpsi + math.sin(x)) < 1e-15


def test_evaluate_solution_derivative_jump():
    c = -2.0
    j = junction_matrix(PotentialSpec(1.0, c))
    sol = PiecewiseSolution(1.0, (1.0, 0.0), j)
    pts = evaluate_solution(sol, [0.0])
    assert len(pts) == 2
    (x0, psi_l, dpsi_l), (x1, psi_r, dpsi_r) = pts
    assert x0 == 0.0 and x1 == 0.0
    assert psi_l == psi_r == 1.0
    assert dpsi_l == 0.0
    assert abs(dpsi_r - c * psi_l) < 1e-15


def test_bound_spectrum_energies_property():
    spectrum = BoundSpectrum("discrete", (0.5, 2.0))
    assert spectrum.energies == (-0.25, -4.0)
