"""Regularized potentials: convergence where a junction exists, certified
divergence where none does, and the resonant coupling search."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

import singscat.mollifier as mollifier_mod
from singscat import (
    BracketError,
    COSINE_BUMP,
    GAUSSIAN,
    InsufficientData,
    Mat2,
    MollifierShape,
    NoConvergence,
    PotentialSpec,
    PrecisionLoss,
    RegularizedPotential,
    SHAPES,
    TOP_HAT,
    TRIANGLE,
    TransferOverflow,
    certify_convergence,
    convergence_sweep,
    effective_junction,
    estimate_order,
    free_transfer,
    junction_matrix,
    numeric_transfer,
    resonant_search,
    scattering_amplitudes,
)
from singscat.errors import SingscatError
from singscat.mollifier import ConvergenceRow, transfer_fixed_cells


def test_shape_registry_contents():
    assert set(SHAPES) == {"tophat", "triangle", "cosine", "gauss"}
    assert SHAPES["tophat"] is TOP_HAT
    assert TOP_HAT.half_support == 0.5
    assert TRIANGLE.half_support == 1.0
    assert COSINE_BUMP.half_support == 1.0
    assert GAUSSIAN.half_support == 8.0


def test_shapes_have_unit_mass_and_are_even():
    for shape in SHAPES.values():
        s = shape.half_support
        mass, est_err = quad(shape.profile, -s, s, limit=200)
        assert abs(mass - 1.0) < 1e-10
        for x in (0.1, 0.37, 0.9 * s):
            assert shape.profile(x) == shape.profile(-x)
        assert shape.profile(s + 1e-9) == 0.0
        assert shape.profile(-s - 1e-9) == 0.0


def test_mass_rule_is_the_16_node_gauss_legendre_rule():
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert np.abs(mollifier_mod._MASS_NODES - nodes).max() <= 1e-14
    assert np.abs(mollifier_mod._MASS_WEIGHTS - weights).max() <= 1e-14


def test_shape_construction_refuses_wrong_mass_and_uneven_profiles():
    def triangle(y):
        return np.maximum(0.0, 1.0 - np.abs(y))

    with pytest.raises(ValueError, match="mass"):
        MollifierShape("heavy", 1.0, lambda y: 1.01 * triangle(y))
    with pytest.raises(ValueError):
        MollifierShape("odd", 1.0, lambda y: y * triangle(y))
    # unit mass, but tilted: only the evenness probe can catch it
    with pytest.raises(ValueError, match="not even"):
        MollifierShape("tilted", 1.0, lambda y: (1.0 + 0.3 * y) * triangle(y))
    MollifierShape("triangle", 1.0, triangle)


@pytest.mark.parametrize(
    "half_support, profile, message",
    [
        (math.nan, TOP_HAT.profile, "half support"),
        (math.inf, TOP_HAT.profile, "half support"),
        (0.0, TOP_HAT.profile, "half support"),
        (-0.5, TOP_HAT.profile, "half support"),
        (0.5, lambda y: np.full_like(y, math.nan), "mass"),
        # nan at the one probe point y = 0, which no mass node hits
        (0.5, lambda y: np.where(y == 0.0, math.nan, TOP_HAT.profile(y)), "not even"),
    ],
    ids=[
        "nan_support", "inf_support", "zero_support", "negative_support",
        "nan_profile", "nan_at_origin",
    ],
)
def test_shape_construction_refuses_non_finite_input(half_support, profile, message):
    # nan fails every comparison, so the checks must not read "> tol"
    with pytest.raises(ValueError, match=message):
        MollifierShape("x", half_support, profile)


def test_shape_construction_refuses_a_profile_that_is_not_callable():
    with pytest.raises(ValueError, match="shape x profile must be a Callable, got NoneType"):
        MollifierShape("x", 0.5, None)


@pytest.mark.parametrize("profile", [TOP_HAT.profile, GAUSSIAN.profile])
@pytest.mark.parametrize("half_support", [1e200, 1e308, 1.7976931348623157e308])
def test_shape_construction_refuses_a_huge_support_without_warning(half_support, profile):
    # the suite turns warnings into errors: the parent's mass check overflowed
    # in its outer panel centres past s = 9e307, and in the gauss's y * y
    with pytest.raises(ValueError, match="mass"):
        MollifierShape("x", half_support, profile)


def test_convergence_sweep_refuses_a_reference_that_is_not_a_mat2():
    spec = PotentialSpec(1.0, -1.0)
    for reference in ("x", (1.0, 0.0, 0.0, 1.0), Mat2.identity().rows()):
        with pytest.raises(ValueError, match="reference must be a Mat2"):
            convergence_sweep(spec, TOP_HAT, [0.1], 1.0, reference=reference)


def test_regularized_potential_values():
    pot = RegularizedPotential(PotentialSpec(1.0, -2.0), TOP_HAT, 0.1)
    assert pot(0.0) == -2.0 / 0.1
    assert pot(0.2) == 0.0
    assert pot.half_width == 0.05

    sq = RegularizedPotential(PotentialSpec(2.0, 3.0), TRIANGLE, 0.5)
    # c * eps^-2 * phi(x/eps)^2 with phi the unit triangle
    assert abs(sq(0.25) - 3.0 * 4.0 * 0.25) < 1e-15

    with pytest.raises(ValueError):
        RegularizedPotential(PotentialSpec(1.0, 1.0), TOP_HAT, 0.0)
    with pytest.raises(ValueError):
        RegularizedPotential(PotentialSpec(1.0, 1.0), TOP_HAT, -0.1)


def test_tophat_single_square_well_oracle():
    # a top hat of width eps is one constant cell: the transfer matrix is
    # the exact square-well propagator whatever the cell count
    k, c, eps = 1.0, -1.0, 0.01
    pot = RegularizedPotential(PotentialSpec(1.0, c), TOP_HAT, eps)
    exact = free_transfer(k - c / eps, eps)
    for n_cells in (64, 128, 1024, 4096):
        raw = transfer_fixed_cells(pot, k, n_cells)
        approx = Mat2(raw[0, 0], raw[0, 1], raw[1, 0], raw[1, 1])
        assert approx.max_abs_diff(exact) < 1e-12


@pytest.mark.parametrize("c", [-2e16, -1e18])
def test_tophat_rows_past_pi_per_cell_at_the_cap_converge_to_the_exact_transfer(c):
    # At the cell cap the phase per cell sqrt(max(k - U)) h is 10.7 and 75
    # rad here, past the pi where a cell of a smooth shape is resolved; a
    # top hat is constant in each cell, so its cells are exact and the row
    # converges all the same.  An early refusal on the phase alone would
    # refuse these correct rows.
    k, eps = 1.0, 0.1
    pot = RegularizedPotential(PotentialSpec(1.0, c), TOP_HAT, eps)
    assert math.sqrt(k - c / eps) * eps / mollifier_mod.N_CELLS_CAP > math.pi
    exact = free_transfer(k - c / eps, eps)
    got = numeric_transfer(pot, k)
    assert got.max_abs_diff(exact) <= 1e-13 * max(map(abs, exact))
    assert abs(got.det() - 1.0) <= 1e-13


def test_numeric_transfer_of_zero_coupling_is_free():
    for shape in SHAPES.values():
        pot = RegularizedPotential(PotentialSpec(1.0, 0.0), shape, 0.25)
        width = 2 * shape.half_support * 0.25
        got = numeric_transfer(pot, 2.0)
        assert got.max_abs_diff(free_transfer(2.0, width)) < 1e-12


def test_effective_junction_tophat_square_well_closed_form():
    k, c, eps = 1.0, -1.0, 1e-2
    pot = RegularizedPotential(PotentialSpec(1.0, c), TOP_HAT, eps)
    eff = effective_junction(pot, k)
    exact = (
        free_transfer(k, -eps / 2)
        @ free_transfer(k - c / eps, eps)
        @ free_transfer(k, -eps / 2)
    )
    assert eff.max_abs_diff(exact) < 1e-12


def test_effective_junction_approaches_delta_junction():
    k, c = 1.0, -1.0
    target = junction_matrix(PotentialSpec(1.0, c))
    for shape in (TOP_HAT, GAUSSIAN):
        pot = RegularizedPotential(PotentialSpec(1.0, c), shape, 1e-4)
        eff = effective_junction(pot, k)
        assert eff.max_abs_diff(target) < 5e-4


def test_effective_junction_transparent_limit():
    target = Mat2.identity()
    pot = RegularizedPotential(PotentialSpec(0.5, 2.0), TOP_HAT, 1e-4)
    eff = effective_junction(pot, 1.0)
    assert eff.max_abs_diff(target) < 5e-2


def test_resonant_effective_junction_first_order_structure():
    # near c = -pi^2, m = 2 the widened junction looks like
    # [[-1, eps], [-k eps / 2, -1]] to first order in eps
    k, eps = 1.0, 1e-3
    pot = RegularizedPotential(PotentialSpec(2.0, -(math.pi**2)), TOP_HAT, eps)
    eff = effective_junction(pot, k)
    assert abs(eff.m11 + 1.0) < 1e-5
    assert abs(eff.m22 + 1.0) < 1e-5
    assert abs(eff.m12 - eps) < 1e-6
    assert abs(eff.m21 + k * eps / 2) < 1e-6


def test_scattering_through_mollified_delta_matches_junction():
    k, c, eps = 1.0, -1.0, 1e-4
    exact = scattering_amplitudes(junction_matrix(PotentialSpec(1.0, c)), k)
    pot = RegularizedPotential(PotentialSpec(1.0, c), TOP_HAT, eps)
    approx = scattering_amplitudes(effective_junction(pot, k), k)
    assert abs(approx.r - exact.r) < 5e-3
    assert abs(approx.t - exact.t) < 5e-3


def test_convergence_sweep_with_reference_is_first_order():
    eps_list = [1e-1, 1e-2, 1e-3]
    target = junction_matrix(PotentialSpec(1.0, -1.0))
    rows = convergence_sweep(
        PotentialSpec(1.0, -1.0), TOP_HAT, eps_list, k=1.0, reference=target
    )
    assert [row.eps for row in rows] == eps_list
    devs = [row.deviation for row in rows]
    assert devs[0] > devs[1] > devs[2]
    for row in rows:
        assert row.error == ""
        assert row.det_err <= 1e-10
    verdict, slope, r2 = certify_convergence(rows)
    assert verdict == "convergent"
    assert abs(slope - 1.0) < 0.2
    assert r2 >= 0.98


def test_convergence_sweep_validates_eps_list():
    p = PotentialSpec(1.0, -1.0)
    with pytest.raises(ValueError):
        convergence_sweep(p, TOP_HAT, [], k=1.0)
    with pytest.raises(ValueError):
        convergence_sweep(p, TOP_HAT, [1e-2, 1e-1], k=1.0)
    with pytest.raises(ValueError):
        convergence_sweep(p, TOP_HAT, [1e-1, 1e-1], k=1.0)
    with pytest.raises(ValueError):
        convergence_sweep(p, TOP_HAT, [1e-1, 0.0], k=1.0)


def test_sweep_rows_carry_overflow_tags_instead_of_raising():
    rows = convergence_sweep(
        PotentialSpec(3.0, 1.0), TOP_HAT, [1e-1, 1e-3, 1e-6], k=1.0
    )
    tags = [row.error for row in rows]
    assert tags[-1] == "overflow"
    for row in rows:
        if row.error:
            assert row.matrix is None


def test_overflowing_strip_is_a_transfer_overflow():
    # at k = -1e4 the transfer across the gauss already overflows
    pot = RegularizedPotential(PotentialSpec(1.0, -1.0), GAUSSIAN, 1.0)
    with pytest.raises(TransferOverflow):
        effective_junction(pot, -1e4)
    rows = convergence_sweep(PotentialSpec(1.0, -1.0), GAUSSIAN, [1.0, 0.5, 0.1], -1e4)
    assert [row.error for row in rows] == ["overflow"] * 3
    # here the well keeps the transfer finite, and only the strips overflow
    pot = RegularizedPotential(PotentialSpec(1.0, -8e6), TOP_HAT, 1.0)
    numeric_transfer(pot, -4e6)
    with pytest.raises(TransferOverflow, match="stripping free flight"):
        effective_junction(pot, -4e6)


def test_lab_results_are_plain_floats():
    pot = RegularizedPotential(PotentialSpec(1.0, -1.0), TOP_HAT, 0.1)
    (row,) = convergence_sweep(
        PotentialSpec(1.0, -1.0), TOP_HAT, [0.1], 1.0, reference=Mat2.identity()
    )
    values = [*numeric_transfer(pot, 1.0), *effective_junction(pot, 1.0)]
    values += [*row.matrix, row.deviation, row.det_err]
    assert [type(v) for v in values] == [float] * 14


def test_phase_past_its_rounding_is_a_precision_loss():
    # the strips' phase sqrt(k) s eps = 5e11 is past 2^34 at k = 1e30, eps = 1e-3
    pot = RegularizedPotential(PotentialSpec(1.0, -1.0), TOP_HAT, 1e-3)
    with pytest.raises(PrecisionLoss):
        effective_junction(pot, 1e30)
    with pytest.raises(ValueError, match="k must be finite"):
        effective_junction(pot, math.inf)
    rows = convergence_sweep(PotentialSpec(0.5, 1.0), TOP_HAT, [1e-1, 1e-3], 1e40)
    assert [row.error for row in rows] == ["precision_loss"] * 2


def test_eps_power_past_the_float_range_is_a_transfer_overflow():
    # eps^-m itself overflows: 1e-320^-1 and 1e-110^-3 are past 1.8e308
    for m, c, shape, eps in ((1.0, -1.0, GAUSSIAN, 1e-320), (3.0, -1.0, TOP_HAT, 1e-110)):
        pot = RegularizedPotential(PotentialSpec(m, c), shape, eps)
        with pytest.raises(TransferOverflow, match="eps\\^-m overflows"):
            pot(0.0)
        with pytest.raises(TransferOverflow):
            effective_junction(pot, 1.0)
    rows = convergence_sweep(PotentialSpec(3.0, -1.0), TOP_HAT, [1e-1, 1e-110], 1.0)
    assert [row.error for row in rows] == ["", "overflow"]
    assert rows[0].matrix is not None and rows[1].matrix is None


def test_transfer_overflow_raises_directly():
    pot = RegularizedPotential(PotentialSpec(3.0, 1.0), TOP_HAT, 1e-6)
    with pytest.raises(TransferOverflow):
        numeric_transfer(pot, 1.0)


def test_numeric_transfer_reports_no_convergence_at_cell_cap(monkeypatch):
    monkeypatch.setattr(mollifier_mod, "N_CELLS_CAP", 256)
    pot = RegularizedPotential(PotentialSpec(1.0, -1.0), GAUSSIAN, 0.1)
    with pytest.raises(NoConvergence) as exc_info:
        numeric_transfer(pot, 1.0)
    first, second = exc_info.value.last_iterates
    assert first is not None and second is not None
    # one more doubling meets the tolerance: the cap, not the shape, failed
    monkeypatch.setattr(mollifier_mod, "N_CELLS_CAP", 512)
    numeric_transfer(pot, 1.0)



@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
def test_numeric_transfer_refuses_a_non_finite_k_in_both_forms(k):
    pot = RegularizedPotential(PotentialSpec(1.0, -1.0), GAUSSIAN, 0.1)
    for arg in (pot, [pot, pot], []):
        with pytest.raises(ValueError, match="k must be finite"):
            numeric_transfer(arg, k)


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
def test_transfer_fixed_cells_refuses_a_non_finite_k_in_both_forms(k):
    # it used to return a matrix of nan entries, where numeric_transfer refused
    pot = RegularizedPotential(PotentialSpec(1.0, -1.0), GAUSSIAN, 0.1)
    for arg in (pot, [pot, pot]):
        with pytest.raises(ValueError, match="k must be finite"):
            transfer_fixed_cells(arg, k, 64)


@pytest.mark.parametrize("n_cells", [0, -3, 1.5, 64.0])
def test_transfer_fixed_cells_refuses_a_cell_count_that_is_not_positive(n_cells):
    pot = RegularizedPotential(PotentialSpec(1.0, -1.0), GAUSSIAN, 0.1)
    for arg in (pot, [pot, pot]):
        with pytest.raises(ValueError, match="n_cells must be a positive integer"):
            transfer_fixed_cells(arg, 1.0, n_cells)
    assert transfer_fixed_cells(pot, 1.0, 1).shape == (2, 2)

def test_estimate_order_on_synthetic_rows():
    eye = Mat2.identity()
    rows = [
        ConvergenceRow(eps, eye, 2.3 * eps, 0.0) for eps in (1e-1, 1e-2, 1e-3, 1e-4)
    ]
    slope, r2 = estimate_order(rows)
    assert abs(slope - 1.0) < 1e-12
    assert abs(r2 - 1.0) < 1e-12
    with pytest.raises(InsufficientData):
        estimate_order(rows[:2])
    errored = [
        ConvergenceRow(1e-1, None, float("nan"), 0.0, error="overflow"),
        ConvergenceRow(1e-2, eye, 0.1, 0.0),
        ConvergenceRow(1e-3, eye, 0.01, 0.0),
    ]
    with pytest.raises(InsufficientData):
        estimate_order(errored)
    # equal deviations: the fit is flat and explains everything
    flat = [ConvergenceRow(eps, eye, 0.5, 0.0) for eps in (1e-1, 1e-2, 1e-3)]
    slope, r2 = estimate_order(flat)
    assert abs(slope) < 1e-12 and r2 == 1.0


def test_order_fit_refuses_eps_that_are_all_equal():
    # one eps fixes no slope, however the deviations spread
    rows = [ConvergenceRow(1e-2, Mat2.identity(), dev, 0.0) for dev in (1e-3, 2e-3, 4e-3)]
    with pytest.raises(InsufficientData, match="two distinct eps"):
        estimate_order(rows)
    assert certify_convergence(rows)[0] == "unknown"
    # gap mode: four matrices at one eps give three positive gaps
    gaps = [
        ConvergenceRow(1e-2, Mat2(1.0, 2.0**-i, 0.0, 1.0), math.nan, 0.0)
        for i in range(4)
    ]
    verdict, slope, r2 = certify_convergence(gaps)
    assert verdict == "unknown" and math.isnan(slope) and math.isnan(r2)


@st.composite
def _power_law_points(draw):
    """(eps, deviation) points of a noisy power law deviation = e^a eps^b.

    log10 eps falls in steps of 0.05-0.5.  The log noise stays within a
    quarter of |b| times the narrowest step in log eps, which keeps the
    exact slope within 31 % of b, so a relative bound on it is meaningful.
    """
    n = draw(st.integers(3, 40))
    steps = draw(st.lists(st.floats(0.05, 0.5), min_size=n - 1, max_size=n - 1))
    log10_eps = [-draw(st.floats(0.0, 2.0))]
    for step in steps:
        log10_eps.append(log10_eps[-1] - step)
    b = draw(st.floats(0.1, 4.0)) * draw(st.sampled_from([1.0, -1.0]))
    a = draw(st.floats(-10.0, 10.0))
    noise = 0.25 * abs(b) * min(steps) * math.log(10.0)
    jitter = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    points = []
    for u, j in zip(log10_eps, jitter):
        eps = 10.0**u
        points.append((eps, math.exp(a + b * math.log(eps) + noise * j)))
    return points


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_power_law_points())
def test_order_fit_matches_a_50_digit_oracle(points):
    rows = [ConvergenceRow(eps, Mat2.identity(), dev, 0.0) for eps, dev in points]
    slope, r2 = estimate_order(rows)
    with mpmath.workdps(50):
        xs = [mpmath.log(eps) for eps, _ in points]
        ys = [mpmath.log(dev) for _, dev in points]
        mx, my = mpmath.fsum(xs) / len(xs), mpmath.fsum(ys) / len(ys)
        sxx = mpmath.fsum((x - mx) ** 2 for x in xs)
        syy = mpmath.fsum((y - my) ** 2 for y in ys)
        sxy = mpmath.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
        exact_slope, exact_r2 = sxy / sxx, sxy**2 / (sxx * syy)
        assert abs(slope - exact_slope) <= 1e-12 * abs(exact_slope)
        assert abs(r2 - exact_r2) <= 1e-14


def _synthetic_rows(deviations: list[float]) -> list[ConvergenceRow]:
    eps_list = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
    return [
        ConvergenceRow(eps, Mat2.identity(), dev, 0.0)
        for eps, dev in zip(eps_list, deviations)
    ]


def test_deviations_spread_within_a_decade_are_non_convergent():
    # the fit is flat and explains nothing, so the decade test decides
    rows = _synthetic_rows([1.0, 10.0, 1.0, 10.0, 1.0])
    verdict, slope, r2 = certify_convergence(rows)
    assert verdict == "non_convergent"
    assert abs(slope) < 0.05 and r2 < 0.5
    rows = _synthetic_rows([1.0, 2.0, 1.0, 2.0, 1.0])
    verdict, slope, r2 = certify_convergence(rows)
    assert verdict == "convergent"
    assert abs(slope) < 0.05 and r2 < 0.5


def test_certified_divergence_of_intermediate_band():
    eps_list = [1e-1, 1e-2, 1e-3, 1e-4]
    ref = Mat2.identity()
    rows = convergence_sweep(
        PotentialSpec(1.5, -1.0), TOP_HAT, eps_list, k=1.0, reference=ref
    )
    verdict, slope, _ = certify_convergence(rows)
    assert verdict == "non_convergent"
    assert abs(slope + 0.5) < 0.15
    for row in rows:
        assert row.det_err <= 1e-8


def test_certified_divergence_without_reference():
    eps_list = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
    rows = convergence_sweep(PotentialSpec(3.0, -1.0), TOP_HAT, eps_list, k=1.0)
    verdict, _, _ = certify_convergence(rows)
    assert verdict == "non_convergent"
    for row in rows:
        assert row.det_err <= 1e-8


def test_all_shapes_converge_in_defined_regimes():
    eps_list = [1e-1, 1e-2, 1e-3]
    for shape in SHAPES.values():
        target = junction_matrix(PotentialSpec(1.0, -1.0))
        rows = convergence_sweep(
            PotentialSpec(1.0, -1.0), shape, eps_list, k=1.0, reference=target
        )
        verdict, slope, r2 = certify_convergence(rows)
        assert verdict == "convergent"
        assert slope > 0.7
        assert r2 >= 0.98

        rows_half = convergence_sweep(
            PotentialSpec(0.5, -3.0), shape, eps_list, k=1.0, reference=Mat2.identity()
        )
        verdict_half, slope_half, r2_half = certify_convergence(rows_half)
        assert verdict_half == "convergent"
        assert slope_half > 0.3
        assert r2_half >= 0.98


def test_resonant_search_tophat_exact_levels():
    for n in (1, 2):
        c_n, parity = resonant_search(TOP_HAT, n)
        assert abs(c_n + (n * math.pi) ** 2) < 1e-8 * (n * math.pi) ** 2
        assert parity == (-1.0 if n % 2 else 1.0)


def test_resonant_search_parity_alternates_for_smooth_shapes():
    for shape in (TRIANGLE, COSINE_BUMP):
        c_1, parity_1 = resonant_search(shape, 1)
        c_2, parity_2 = resonant_search(shape, 2)
        assert c_2 < c_1 < 0
        assert parity_1 == -1.0
        assert parity_2 == 1.0


def test_first_level_reuses_the_scan_shots(monkeypatch):
    shots = []
    real_product = mollifier_mod._cells_product

    def counting(wave_of, h, n_cells):
        shots.append(n_cells)
        return real_product(wave_of, h, n_cells)

    monkeypatch.setattr(mollifier_mod, "_cells_product", counting)
    level, _ = resonant_search(TOP_HAT, 1)
    assert abs(level + math.pi**2) < 1e-8 * math.pi**2
    # the first rung solves in the scan's bracket without shooting its ends
    # again
    assert len(shots) == 19
    shots.clear()
    resonant_search(GAUSSIAN, 1)
    assert len(shots) == 33


@pytest.mark.parametrize("shape", list(SHAPES.values()), ids=list(SHAPES))
def test_levels_9_and_10_have_parity_minus_1_to_the_n(shape):
    # levels 1-8 are pinned with their parity; the parity is read from the
    # final rung's own shot at its Brent root
    for n in (9, 10):
        _, parity = resonant_search(shape, n)
        assert parity == (-1) ** n


def test_resonant_levels_depend_on_shape():
    c_tophat, _ = resonant_search(TOP_HAT, 1)
    c_gauss, _ = resonant_search(GAUSSIAN, 1)
    assert abs(c_tophat - c_gauss) > 1e-3


def test_resonant_search_bracket_and_argument_errors():
    with pytest.raises(ValueError):
        resonant_search(TOP_HAT, 0)
    with pytest.raises(ValueError):
        resonant_search(TOP_HAT, mollifier_mod.MAX_LEVEL + 1)
    # the scan counts sign changes while found < n, so 1.5 was level 2
    with pytest.raises(ValueError, match="got 1.5"):
        resonant_search(TOP_HAT, 1.5)
    with pytest.raises(BracketError):  # cos has no root in [0, 1]
        mollifier_mod._brent(math.cos, 0.0, 1.0, 1.0, math.cos(1.0))


def test_the_lab_refuses_a_shape_name_and_a_level_that_is_not_an_integer():
    # a shape's name is not a shape: the parent failed with AttributeError,
    # or built a potential that failed only when it was evaluated
    spec = PotentialSpec(1.0, -1.0)
    for call in (
        lambda: resonant_search("gauss", 1),
        lambda: convergence_sweep(spec, "gauss", [0.1], 1.0),
        lambda: RegularizedPotential(spec, "gauss", 0.1),
    ):
        with pytest.raises(ValueError, match="must be a MollifierShape, got str"):
            call()
    # True and 1.0 equal 1, and were taken for level 1
    for n in (True, 1.0, np.float64(1.0)):
        with pytest.raises(ValueError, match="level index"):
            resonant_search(TOP_HAT, n)
    assert resonant_search(TOP_HAT, np.int64(1)) == resonant_search(TOP_HAT, 1)
    # the parent failed these with AttributeError or TypeError, or stored a
    # mutable 0-d array as eps
    profile = TOP_HAT.profile
    for call, message in (
        (lambda: RegularizedPotential((1.0, -1.0), TOP_HAT, 0.1), "PotentialSpec, got tuple"),
        (lambda: convergence_sweep((1.0, -1.0), TOP_HAT, [0.1], 1.0), "PotentialSpec, got tuple"),
        (lambda: RegularizedPotential(spec, TOP_HAT, np.array(0.1)), "eps must be positive"),
        (lambda: RegularizedPotential(spec, TOP_HAT, "0.1"), "eps must be positive"),
        (lambda: MollifierShape("x", "1", profile), "half support"),
        (lambda: MollifierShape("x", 0.5, profile, edge_order="1"), "edge order"),
        (lambda: numeric_transfer("x", 1.0), "RegularizedPotentials, got str"),
        (lambda: numeric_transfer([None], 1.0), "RegularizedPotentials, got NoneType"),
        (lambda: transfer_fixed_cells("x", 1.0, 64), "RegularizedPotentials, got str"),
        (lambda: effective_junction("x", 1.0), "RegularizedPotential, got str"),
        # and these with TypeError from list(pot) or AttributeError on a row
        (lambda: numeric_transfer(None, 1.0), "RegularizedPotentials, got NoneType"),
        (lambda: transfer_fixed_cells(5, 1.0, 64), "RegularizedPotentials, got int"),
        (lambda: estimate_order([1]), "ConvergenceRows, got int"),
        (lambda: certify_convergence([None]), "ConvergenceRows, got NoneType"),
    ):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("y", [1e200, -1e200, 1e308, -1e308, math.inf, -math.inf, math.nan])
def test_shapes_and_potentials_are_zero_far_out_without_warning(y):
    # the suite turns warnings into errors: the parent's gauss overflowed
    # in y * y, the cosine in pi * y and cos(inf), the potential in x / eps,
    # and the triangle gave nan at nan
    for shape in SHAPES.values():
        assert shape(y) == 0.0
    assert RegularizedPotential(PotentialSpec(2.0, -1.0), GAUSSIAN, 1e-3)(y) == 0.0


def test_brent_returns_an_endpoint_where_the_function_is_zero():
    def never(c):
        raise AssertionError("no shot is needed at a root endpoint")

    assert mollifier_mod._brent(never, -2.0, -1.0, 0.0, 3.0) == -2.0
    assert mollifier_mod._brent(never, -2.0, -1.0, 3.0, 0.0) == -1.0
    assert math.copysign(1.0, mollifier_mod._brent(never, -0.0, 1.0, -0.0, 1.0)) < 0


def test_level_that_never_settles_reports_its_last_two_roots(monkeypatch):
    monkeypatch.setattr(mollifier_mod, "TOL_REL", -1.0)
    with pytest.raises(NoConvergence, match="within 131072 cells") as exc_info:
        resonant_search(TOP_HAT, 1)
    roots = exc_info.value.last_iterates
    assert len(roots) == 2 and all(type(root) is float for root in roots)
    assert all(abs(root + math.pi**2) < 1e-8 * math.pi**2 for root in roots)


def test_level_lost_under_cell_refinement_is_a_bracket_error(monkeypatch):
    real_product = mollifier_mod._cells_product

    def drifting(wave_of, h, n_cells):
        # past the scan's cells, w'(s) = T[1, 0] keeps one sign near the level
        mat = real_product(wave_of, h, n_cells)
        return mat + 1e3 if n_cells > 2048 else mat

    monkeypatch.setattr(mollifier_mod, "_cells_product", drifting)
    with pytest.raises(BracketError, match="bracket lost under cell refinement"):
        resonant_search(TOP_HAT, 1)


def test_scan_without_enough_sign_changes_is_a_bracket_error(monkeypatch):
    # every shot gives w'(s) = 1, so the scan walks down to c_lo unbracketed
    shots = []

    def rising(wave_of, h, n_cells):
        shots.append(n_cells)
        return np.array([[[1.0, 0.0], [1.0, 1.0]]])

    monkeypatch.setattr(mollifier_mod, "_cells_product", rising)
    c_lo = -4.0 * (3.0 * math.pi) ** 2
    with pytest.raises(BracketError, match=f"only 0 sign changes above {c_lo}, needed 1"):
        resonant_search(TOP_HAT, 1)
    assert set(shots) == {2048}  # the scan's cells; no rung was refined


def test_brent_gives_up_after_its_step_cap():
    # a sign step at 0: each step at most halves the bracket, and halving
    # [-1, 2] down to the 1e-30 absolute tolerance takes more than 100 steps
    shots = []

    def step(x: float) -> float:
        shots.append(x)
        return 1.0 if x > 0.0 else -1.0

    with pytest.raises(NoConvergence, match="did not converge in 100 steps"):
        mollifier_mod._brent(step, -1.0, 2.0, -1.0, 1.0)
    assert len(shots) == mollifier_mod._BRENT_MAXITER == 100
    assert abs(shots[-1]) < 1e-29


def _rk_transfer(pot: RegularizedPotential, k: float) -> np.ndarray:
    """Oracle: both fundamental solutions across the support by DOP853.

    The support is integrated as two legs that meet at the origin, so no
    step straddles a kink of the profile there (the triangle has one).
    """
    half = pot.half_width

    def rhs(x, y):
        v = float(pot(x)) - k
        return [y[1], v * y[0], y[3], v * y[2]]

    y = [1.0, 0.0, 0.0, 1.0]
    for leg in ((-half, 0.0), (0.0, half)):
        sol = solve_ivp(
            rhs, leg, y, method="DOP853", rtol=1e-13, atol=1e-14, max_step=half / 64
        )
        y = sol.y[:, -1]
    return np.array([[y[0], y[2]], [y[1], y[3]]])


_ORACLE_CASES = [
    (GAUSSIAN, 2.0, -(math.pi**2)),
    (GAUSSIAN, 3.0, -1.0),
    (COSINE_BUMP, 3.0, -1.0),
    (COSINE_BUMP, 1.0, -1.0),
    (TRIANGLE, 0.5, -3.0),
    (TRIANGLE, 3.0, -1.0),
    (GAUSSIAN, 1.5, -1.0),
]


@pytest.mark.parametrize("shape, m, c", _ORACLE_CASES)
def test_numeric_transfer_matches_rk_oracle(shape, m, c):
    pot = RegularizedPotential(PotentialSpec(m, c), shape, 1e-3)
    ref = _rk_transfer(pot, 1.0)
    got = np.array(numeric_transfer(pot, 1.0).rows())
    assert np.abs(got - ref).max() <= 1e-11 * max(1.0, np.abs(ref).max())


# Bits of resonance levels n = 1..5 and 8 (with their parity) and of the
# oracle cases' transfers at eps = 1e-3, k = 1, row-major.  Any change to
# the cell product, the refinement ladder or the root finder shows here.
_PINNED_NS = (1, 2, 3, 4, 5, 8)
_PINNED_LEVELS = {
    "tophat": [
        ("-0x1.3bd3cc9be45dep+3", -1),
        ("-0x1.3bd3cc9be45dep+5", 1),
        ("-0x1.634e462f60e99p+6", -1),
        ("-0x1.3bd3cc9be45dfp+7", 1),
        ("-0x1.ed7aefb394d2cp+7", -1),
        ("-0x1.3bd3cc9be45ddp+9", 1),
    ],
    "triangle": [
        ("-0x1.019d8168af16bp+4", -1),
        ("-0x1.85fd0be8e847dp+5", 1),
        ("-0x1.a3eeae7af3f77p+6", -1),
        ("-0x1.620f7b4df67f5p+7", 1),
        ("-0x1.10c66865b8d8dp+8", -1),
        ("-0x1.4f405d60ddf0bp+9", 1),
    ],
    "cosine": [
        ("-0x1.ea9ab574c8160p+3", -1),
        ("-0x1.982e35a978278p+5", 1),
        ("-0x1.aa5c02a2c682bp+6", -1),
        ("-0x1.6bee46cdb14f5p+7", 1),
        ("-0x1.151f89c84aa5bp+8", -1),
        ("-0x1.549780ce4c20cp+9", 1),
    ],
    "gauss": [
        ("-0x1.0dd3590a40bcbp+4", -1),
        ("-0x1.b2c0456437ba0p+5", 1),
        ("-0x1.bf4134c93f54fp+6", -1),
        ("-0x1.7a53a136feb5bp+7", 1),
        ("-0x1.1e58bc0d12f83p+8", -1),
        ("-0x1.5c58a25227288p+9", 1),
    ],
}
_PINNED_TRANSFERS = [
    ("-0x1.59d7796cbc97dp+2", "-0x1.5b36fc7d7d92bp-5",
     "-0x1.4cad638f7e79fp+9", "-0x1.59d7796cbc97dp+2"),
    ("-0x1.b61a5117a3143p+2", "-0x1.a0a936f03d356p-5",
     "-0x1.c2d146f2b6f8ap+9", "-0x1.b61a5117a3144p+2"),
    ("-0x1.14adfd77f93eap-1", "0x1.c66eda082cb16p-13",
     "-0x1.98677c9062865p+11", "-0x1.14adfd77f93d5p-1"),
    ("0x1.ff7caf3946183p-1", "0x1.0607a733ba8bcp-9",
     "-0x1.00757421f3fafp+0", "0x1.ff7caf394618dp-1"),
    ("0x1.ffef28a49e5d1p-1", "0x1.06218b8bd776ep-9",
     "-0x1.0723f4c8474b9p-3", "0x1.ffef28a49e5e3p-1"),
    ("0x1.a4d99e1617e68p+0", "0x1.262bde10ccc57p-11",
     "0x1.7b4c70326124ap+11", "0x1.a4d99e1617e5cp+0"),
    ("0x1.bd97fdb1d8f79p-1", "0x1.eaa204347b74bp-7",
     "-0x1.03379ab32f63ap+4", "0x1.bd97fdb1d8f6bp-1"),
]


def test_levels_and_transfers_are_pinned_bit_for_bit():
    levels = {
        name: [
            (level.hex(), parity)
            for level, parity in (resonant_search(SHAPES[name], n) for n in _PINNED_NS)
        ]
        for name in _PINNED_LEVELS
    }
    assert levels == _PINNED_LEVELS
    transfers = []
    for shape, m, c in _ORACLE_CASES:
        pot = RegularizedPotential(PotentialSpec(m, c), shape, 1e-3)
        rows = numeric_transfer(pot, 1.0).rows()
        transfers.append(tuple(float(v).hex() for row in rows for v in row))
    assert transfers == _PINNED_TRANSFERS


# Levels 6 and 7, captured as above; with _PINNED_NS they pin levels 1..8.
_PINNED_LEVELS_6_7 = {
    "tophat": [("-0x1.634e462f60e97p+8", 1), ("-0x1.e39c514eb5afbp+8", -1)],
    "triangle": [("-0x1.804952c7641d7p+8", 1), ("-0x1.03c24aac9485fp+9", -1)],
    "cosine": [("-0x1.880cd8042dc0dp+8", 1), ("-0x1.075e8b442edc1p+9", -1)],
    "gauss": [("-0x1.9356aefae877bp+8", 1), ("-0x1.0e0fde632f0bdp+9", -1)],
}


def test_levels_6_and_7_are_pinned_bit_for_bit():
    levels = {
        name: [
            (level.hex(), parity)
            for level, parity in (resonant_search(SHAPES[name], n) for n in (6, 7))
        ]
        for name in _PINNED_LEVELS_6_7
    }
    assert levels == _PINNED_LEVELS_6_7


def _chunked_tree(wave: np.ndarray, h) -> np.ndarray:
    """The cell product as a plain pairing tree per chunk, folded in order."""
    total = None
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, wave.shape[1], mollifier_mod._CHUNK_CELLS):
            chunk = wave[:, start : start + mollifier_mod._CHUNK_CELLS]
            mats = mollifier_mod._ordered_product(mollifier_mod.free_propagators(chunk, h))
            total = mats if total is None else mats @ total
    return total


def _product_of(wave: np.ndarray, h) -> np.ndarray:
    return mollifier_mod._cells_product(
        lambda start, stop: wave[:, start:stop], h, wave.shape[1]
    )


# one lane per kind of cell: oscillating, hyperbolic, series (|k| h^2 below
# core.SERIES_WINDOW), and hyperbolic past the float range
_UNIFORM_WAVES = np.array([[1.7], [-3.0], [2e-9], [-1e6]])
_UNIFORM_H = np.array([[0.01], [0.01], [0.01], [1.0]])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 64, 2047, 2048, 2**16 + 1])
def test_uniform_lanes_reduce_to_the_pairing_tree_bit_for_bit(n, monkeypatch):
    runs = []
    real_run = mollifier_mod._run_product

    def run(cell, count):
        runs.append(len(cell))
        return real_run(cell, count)

    monkeypatch.setattr(mollifier_mod, "_run_product", run)
    wave = np.repeat(_UNIFORM_WAVES, n, axis=1)
    got = _product_of(wave, _UNIFORM_H)
    assert got.tobytes() == _chunked_tree(wave, _UNIFORM_H).tobytes()
    assert runs and set(runs) == {4}
    # one lane that is not uniform sends its whole stack to the tree
    mixed = np.vstack([wave, 1.7 + 1e-3 * np.arange(n)])
    mixed_h = np.vstack([_UNIFORM_H, [[0.01]]])
    assert _product_of(mixed, mixed_h).tobytes() == _chunked_tree(mixed, mixed_h).tobytes()
    if n > 1:
        assert not np.isfinite(got[3]).all()  # the overflowing lane


def test_signed_zeros_and_nan_payloads_are_not_merged(monkeypatch):
    # lanes equal as floats, or as nans, but not bit for bit go to the tree
    monkeypatch.setattr(mollifier_mod, "_run_product", None)
    zeros = np.array([[0.0, -0.0] * 32, [-0.0, 0.0] * 32])
    quiet = np.frombuffer(np.array([0x7FF8000000000001, 0x7FF8000000000002]).tobytes())
    nans = np.tile(quiet, 32)[None, :]
    for wave in (zeros, nans):
        got = _product_of(wave, 0.01)
        assert got.tobytes() == _chunked_tree(wave, 0.01).tobytes()


def test_smooth_shapes_settle_within_2_to_15_cells(monkeypatch):
    monkeypatch.setattr(mollifier_mod, "N_CELLS_CAP", 2**15)
    for shape in (TRIANGLE, COSINE_BUMP, GAUSSIAN):
        pot = RegularizedPotential(PotentialSpec(3.0, -1.0), shape, 1e-3)
        numeric_transfer(pot, 1.0)


# (m, c) of the mollifier lab's five regimes
_LAB_REGIMES = (
    (0.5, -3.0), (1.0, -1.0), (1.5, -1.0), (2.0, -(math.pi**2)), (3.0, -1.0)
)


@pytest.mark.parametrize(
    "shape", [TRIANGLE, COSINE_BUMP, GAUSSIAN], ids=lambda s: s.name
)
def test_smooth_lab_cases_settle_within_2_to_13_cells(shape, monkeypatch):
    # the tableau cancels the edge term h^(1 + alpha m); left in, the
    # triangle's sqrt edge at m = 0.5 takes 2^19 cells to settle
    monkeypatch.setattr(mollifier_mod, "N_CELLS_CAP", 2**13)
    for m, c in _LAB_REGIMES:
        pot = RegularizedPotential(PotentialSpec(m, c), shape, 1e-3)
        numeric_transfer(pot, 1.0)


def test_error_exponents_follow_the_edge_order():
    assert TRIANGLE.edge_order == 1.0 and COSINE_BUMP.edge_order == 2.0
    assert TOP_HAT.edge_order is None and GAUSSIAN.edge_order is None
    assert TRIANGLE.error_exponents(0.5) == [1.5, 2.0, 4.0]
    assert TRIANGLE.error_exponents(3.0) == [2.0, 4.0, 6.0]
    assert COSINE_BUMP.error_exponents(2.0) == [2.0, 4.0, 5.0]
    assert GAUSSIAN.error_exponents(0.5) == [2.0, 4.0, 6.0]


def test_declared_edge_order_is_checked_against_the_profile():
    with pytest.raises(ValueError, match="order"):
        MollifierShape("triangle", 1.0, TRIANGLE.profile, edge_order=2.0)
    with pytest.raises(ValueError, match="order"):
        MollifierShape("cosine", 1.0, COSINE_BUMP.profile, edge_order=1.0)
    with pytest.raises(ValueError, match="order"):
        MollifierShape("tophat", 0.5, TOP_HAT.profile, edge_order=1.0)
    with pytest.raises(ValueError, match="positive"):
        MollifierShape("triangle", 1.0, TRIANGLE.profile, edge_order=-1.0)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_each_shape_refuses_a_wrong_mass_and_a_wrong_edge_order(name):
    shape = SHAPES[name]

    def heavy(y):
        return 1.01 * shape.profile(y)

    with pytest.raises(ValueError, match="mass"):
        MollifierShape(name, shape.half_support, heavy, shape.edge_order)
    wrong_order = (shape.edge_order or 0.0) + 1.0
    with pytest.raises(ValueError, match="order"):
        MollifierShape(name, shape.half_support, shape.profile, wrong_order)


def test_shape_without_edge_order_converges_on_the_even_tableau():
    # a biweight bump: its edge term h^5 at m = 2 is left undeclared
    def biweight(y):
        return np.where(np.abs(y) <= 1.0, 0.9375 * (1.0 - y * y) ** 2, 0.0)

    bump = MollifierShape("biweight", 1.0, biweight)
    assert bump.error_exponents(2.0) == [2.0, 4.0, 6.0]
    pot = RegularizedPotential(PotentialSpec(2.0, -2.0), bump, 1e-3)
    ref = _rk_transfer(pot, 1.0)
    got = np.array(numeric_transfer(pot, 1.0).rows())
    assert np.abs(got - ref).max() <= 1e-11 * max(1.0, np.abs(ref).max())


def test_chunked_product_matches_single_reduction(monkeypatch):
    pot = RegularizedPotential(PotentialSpec(2.0, -3.0), GAUSSIAN, 0.1)
    whole = transfer_fixed_cells(pot, 1.3, 100)
    monkeypatch.setattr(mollifier_mod, "_CHUNK_CELLS", 16)
    chunked = transfer_fixed_cells(pot, 1.3, 100)
    assert np.abs(chunked - whole).max() <= 1e-13 * np.abs(whole).max()


def test_transfer_with_meaningless_determinant_is_refused():
    # entries near 1e260 are finite, but their determinant is rounding
    rows = convergence_sweep(
        PotentialSpec(3.0, 1500.0), TOP_HAT, [1e-2, 3e-3, 1e-3], k=1.0
    )
    assert [row.error for row in rows] == ["overflow"] * 3
    pot = RegularizedPotential(PotentialSpec(3.0, 1500.0), TOP_HAT, 1e-2)
    with pytest.raises(TransferOverflow):
        numeric_transfer(pot, 1.0)


@pytest.mark.parametrize("shape", [GAUSSIAN, COSINE_BUMP, TRIANGLE])
def test_smooth_levels_bracket_a_sign_change_of_rk_shot(shape):
    def rk_shot(c: float) -> float:
        # at eps = 1 and k = 0 the m = 2 transfer is the zero-energy shot
        pot = RegularizedPotential(PotentialSpec(2.0, c), shape, 1.0)
        return _rk_transfer(pot, 0.0)[1, 0]

    for n in (1, 2):
        level, _ = resonant_search(shape, n)
        assert rk_shot(level * (1.0 - 1e-8)) * rk_shot(level * (1.0 + 1e-8)) < 0.0


@pytest.mark.parametrize("shape", list(SHAPES.values()), ids=list(SHAPES))
def test_brent_matches_brentq_bit_for_bit(shape, monkeypatch):
    # every root refinement of levels 1-4 is solved by both and must agree
    pairs = []
    brent = mollifier_mod._brent

    def both(f, a, b, fa, fb):
        root = brent(f, a, b, fa, fb)
        pairs.append((root, brentq(f, a, b, xtol=1e-30, rtol=1e-15)))
        return root

    monkeypatch.setattr(mollifier_mod, "_brent", both)
    for n in range(1, 5):
        resonant_search(shape, n)
    assert len(pairs) >= 8
    assert [root for root, _ in pairs] == [oracle for _, oracle in pairs]


_FUNCTIONS = [
    lambda x, r: math.tanh(3.0 * (x - r)),
    lambda x, r: (x - r) ** 3 + 0.1 * (x - r),
    lambda x, r: math.exp(x) - math.exp(r),
]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.floats(-5.0, -0.01),
    st.floats(0.01, 5.0),
    st.floats(0.01, 0.99),
    st.integers(0, len(_FUNCTIONS) - 1),
)
def test_brent_matches_brentq_on_smooth_functions(a, b, where, which):
    # secant, inverse quadratic and bisection steps all get exercised here,
    # where the shooting levels alone may not tell a wrong step from a right one
    r = a + where * (b - a)

    def f(x):
        return _FUNCTIONS[which](x, r)

    root = mollifier_mod._brent(f, a, b, f(a), f(b))
    assert root == brentq(f, a, b, xtol=1e-30, rtol=1e-15)


def _numpy_tableau(iterates: list, floor: float, cap: int, exponents: list):
    """_ladder's tableau in numpy arithmetic over given iterates, from 64 cells.

    Returns (result, cells) once a stop test holds, and ("cap", cells, last
    two iterates) where the ladder raises NoConvergence; cap is at most the
    cells of the last iterate.
    """
    n, prev = 64, []
    for entries in iterates:
        row = [np.array(entries)]
        if prev:
            tol = mollifier_mod.TOL_REL * max(floor, float(np.abs(row[0]).max()))
            if float(np.abs(row[0] - prev[0]).max()) <= tol:
                return row[0], n
            with np.errstate(over="ignore", invalid="ignore"):
                for p, below in zip(exponents, prev):
                    row.append((2.0**p * row[-1] - below) / (2.0**p - 1.0))
                deep = len(prev) - 1
                if deep and float(np.abs(row[deep] - prev[deep]).max()) <= tol:
                    return row[deep], n
        if n >= cap:
            return "cap", n, (prev[0] if prev else None, row[0])
        prev = row
        n *= 2


def _float_ladder(iterates: list, floor: float, cap: int, exponents: list):
    """_numpy_tableau's outcome, from the ladder itself."""
    ladder = mollifier_mod._ladder(64, cap, floor, exponents)
    n = next(ladder)
    try:
        for entries in iterates:
            n = ladder.send(list(entries))
    except StopIteration as stop:
        result, cells = stop.value
        return np.array(result), cells
    except NoConvergence as exc:
        first, last = exc.last_iterates
        return "cap", n, (None if first is None else np.array(first), np.array(last))


_EXPONENT_SETS = sorted(
    {
        tuple(shape.error_exponents(m))
        for shape in SHAPES.values()
        for m in (0.5, 1.0, 1.5, 2.0, 3.0)
    }
)
_LADDER_ENTRIES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1.7e308, -1.7e308, 1e300, 1e-300, 5e-324, -0.0, 1.0, 3.0]),
)


@st.composite
def _ladder_runs(draw):
    """Iterates base + slope (sum of 2^(-p i)) (1 + jitter_i) of 1 or 4 entries."""
    exponents = draw(st.sampled_from(_EXPONENT_SETS))
    width = draw(st.sampled_from([1, 4]))
    base = draw(st.lists(_LADDER_ENTRIES, min_size=width, max_size=width))
    slopes = draw(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 0.5, 3.0, 1e298]),
                _LADDER_ENTRIES,
            ),
            min_size=width,
            max_size=width,
        )
    )
    powers = draw(st.lists(st.sampled_from(exponents), min_size=1, max_size=2))
    iterates = []
    for i in range(draw(st.integers(1, 8))):
        error = sum(2.0 ** (-p * i) for p in powers)
        error *= 1.0 + draw(st.sampled_from([0.0, 1e-15, 1e-11, 1e-3, 1.0]))
        iterates.append([b + s * error for b, s in zip(base, slopes)])
    return list(exponents), iterates


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(run=_ladder_runs(), floor=st.sampled_from([0.0, 1.0]), rungs=st.integers(1, 8))
# extrapolants overflow to inf, then inf - inf = nan fails the deep test
@example(run=([2.0, 4.0, 6.0], [[1.7e308 - 1e300 * 2.0**-i] for i in range(5)]),
         floor=1.0, rungs=8)
# stops on the second column at 512 cells
@example(run=([2.0, 4.0, 6.0], [[1.0 + 4.0**-i + 16.0**-i] * 4 for i in range(6)]),
         floor=1.0, rungs=8)
# subnormal and tiny entries beside one that sets the scale
@example(run=([2.0, 3.0, 4.0],
              [[5e-324, 1e-300 * (1.0 + 4.0**-i), -1e-310, 3.0 + 4.0**-i]
               for i in range(6)]),
         floor=0.0, rungs=8)
def test_float_ladder_equals_the_numpy_tableau_bit_for_bit(run, floor, rungs):
    exponents, iterates = run
    assume(all(math.isfinite(x) for entries in iterates for x in entries))
    cap = 64 * 2 ** (min(rungs, len(iterates)) - 1)
    want = _numpy_tableau(iterates, floor, cap, exponents)
    got = _float_ladder(iterates, floor, cap, exponents)
    if isinstance(want[0], str):
        assert got[:2] == want[:2]
        assert [a is None or a.tobytes() for a in got[2]] == [
            b is None or b.tobytes() for b in want[2]
        ]
    else:
        assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]


def test_zero_coupling_is_free_flight_at_every_eps():
    # eps^-m overflows at eps = 1e-320, but c = 0 makes the potential zero
    pot = RegularizedPotential(PotentialSpec(1.0, 0.0), GAUSSIAN, 1e-320)
    assert pot.scale == 0.0
    assert not np.any(pot(np.linspace(-1e-319, 1e-319, 9)))
    free = free_transfer(1.0, 2.0 * pot.half_width)
    assert numeric_transfer(pot, 1.0).max_abs_diff(free) < 1e-12
    (row,) = convergence_sweep(PotentialSpec(1.0, 0.0), GAUSSIAN, [1e-320], 1.0)
    assert row.error == "" and row.matrix.max_abs_diff(Mat2.identity()) < 1e-12


def _same_outcome(got, want) -> bool:
    """Equal bits, or the same exception type, message and last iterates."""
    if isinstance(want, Exception):
        if type(got) is not type(want) or str(got) != str(want):
            return False
        pairs = zip(
            getattr(got, "last_iterates", ()), getattr(want, "last_iterates", ())
        )
        return all(
            (a is None and b is None) or (a.tobytes() == b.tobytes()) for a, b in pairs
        )
    return [v.hex() for v in got] == [v.hex() for v in want]


def _one_at_a_time(fn, *args):
    try:
        return fn(*args)
    except SingscatError as exc:
        return exc


_DESCENDING_EPS = st.lists(
    st.floats(min_value=-4.0, max_value=-0.5), min_size=1, max_size=6, unique=True
).map(lambda logs: sorted((10.0**x for x in set(logs)), reverse=True))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    shape=st.sampled_from(sorted(SHAPES.values())),
    mc=st.sampled_from(_LAB_REGIMES + ((3.0, 1500.0),)),
    k=st.one_of(st.floats(min_value=0.25, max_value=4.0), st.just(1e30)),
    eps_list=_DESCENDING_EPS,
    capped=st.booleans(),
)
# a clean row next to rows refused by their determinant and a row whose
# entries overflow at the first rung
@example(shape=TOP_HAT, mc=(3.0, 1500.0), k=1.0, eps_list=[10.0, 1.0, 1e-2, 1e-3],
         capped=False)
# a row that loses its phase next to one that keeps it
@example(shape=TOP_HAT, mc=(0.5, -3.0), k=1e30, eps_list=[1e-1, 1e-20], capped=False)
# rows leaving at 256 and 512 cells; capped at 256, two end in NoConvergence
@example(shape=TRIANGLE, mc=(1.0, -1.0), k=1.0, eps_list=[0.3, 0.1, 0.03, 1e-3],
         capped=False)
@example(shape=TRIANGLE, mc=(1.0, -1.0), k=1.0, eps_list=[0.3, 0.1, 0.03, 1e-3],
         capped=True)
def test_lockstep_rows_equal_rows_computed_one_at_a_time(shape, mc, k, eps_list, capped):
    p = PotentialSpec(*mc)
    pots = [RegularizedPotential(p, shape, eps) for eps in eps_list]
    with pytest.MonkeyPatch.context() as patch:
        if capped:
            patch.setattr(mollifier_mod, "N_CELLS_CAP", 256)
        rows = convergence_sweep(p, shape, eps_list, k)
        alone = [_one_at_a_time(effective_junction, pot, k) for pot in pots]
        stacked = numeric_transfer(pots, k)
        singles = [_one_at_a_time(numeric_transfer, pot, k) for pot in pots]
    assert [row.eps for row in rows] == eps_list
    for row, want in zip(rows, alone):
        if isinstance(want, SingscatError):
            assert (row.error, row.matrix) == (want.tag, None)
        else:
            assert row.error == "" and _same_outcome(row.matrix, want)
            assert row.det_err.hex() == abs(want.det() - 1.0).hex()
    assert len(stacked) == len(pots)
    for got, want in zip(stacked, singles):
        assert _same_outcome(got, want)


def test_list_forms_refuse_potentials_of_different_specs_or_shapes():
    a = RegularizedPotential(PotentialSpec(1.0, -1.0), GAUSSIAN, 0.1)
    for b in (a._replace(spec=PotentialSpec(1.0, -2.0)), a._replace(shape=TOP_HAT)):
        with pytest.raises(ValueError, match="share one spec and one shape"):
            numeric_transfer([a, b], 1.0)
        with pytest.raises(ValueError, match="share one spec and one shape"):
            transfer_fixed_cells([a, b], 1.0, 64)
    assert numeric_transfer([], 1.0) == []
    with pytest.raises(ValueError, match="no potentials"):
        transfer_fixed_cells([], 1.0, 64)


@pytest.mark.parametrize("shape", [GAUSSIAN, TOP_HAT], ids=["gauss", "tophat"])
def test_list_form_stacks_at_most_a_chunk_of_cells(shape, monkeypatch):
    limit = 256
    monkeypatch.setattr(mollifier_mod, "_CHUNK_CELLS", limit)
    stacked_cells = []
    real_free = mollifier_mod.free_propagators

    def free(k, h):
        stacked_cells.append(np.size(k))
        return real_free(k, h)

    monkeypatch.setattr(mollifier_mod, "free_propagators", free)
    spec = PotentialSpec(3.0, -1.0)
    pots = [RegularizedPotential(spec, shape, 0.5 * 0.8**i) for i in range(7)]
    # 4, 2 and 1 lanes per stack, then lanes of 4 chunks each
    for n_cells in (64, 96, 256, 1024):
        stacked = transfer_fixed_cells(pots, 1.0, n_cells)
        assert len(pots) * n_cells > limit and stacked.shape == (len(pots), 2, 2)
        for pot, mat in zip(pots, stacked):
            assert mat.tobytes() == transfer_fixed_cells(pot, 1.0, n_cells).tobytes()
    assert max(stacked_cells) <= limit


@pytest.mark.parametrize("chunk", [None, 2**12], ids=["default_chunk", "small_chunk"])
def test_sweep_stacks_at_most_a_chunk_of_cells(chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(mollifier_mod, "_CHUNK_CELLS", chunk)
    limit = mollifier_mod._CHUNK_CELLS
    calls, stacked_cells = [], []
    real_fixed, real_free = transfer_fixed_cells, mollifier_mod.free_propagators

    def fixed(pots, k, n_cells):
        out = real_fixed(pots, k, n_cells)
        calls.append((len(pots), n_cells))
        # each lane's entries are those of its own call, chunked as alone
        for pot, mat in zip(pots, out):
            assert mat.tobytes() == real_fixed(pot, k, n_cells).tobytes()
        return out

    def free(k, h):
        stacked_cells.append(np.size(k))
        return real_free(k, h)

    monkeypatch.setattr(mollifier_mod, "transfer_fixed_cells", fixed)
    monkeypatch.setattr(mollifier_mod, "free_propagators", free)
    # the gauss at m = 3 needs from 2^10 to 2^14 cells over these eps
    eps_list = [0.5 * 0.8**i for i in range(40)]
    rows = convergence_sweep(PotentialSpec(3.0, -1.0), GAUSSIAN, eps_list, 1.0)
    assert all(row.error == "" for row in rows)
    assert max(stacked_cells) <= limit
    lanes_per_rung = {}
    for lanes, n in calls:
        lanes_per_rung[n] = lanes_per_rung.get(n, 0) + lanes
    assert lanes_per_rung[64] == 40 and lanes_per_rung[max(lanes_per_rung)] == 1
    if chunk is not None:
        # a rung split into several calls, and lanes longer than a chunk
        assert any(lanes * n > limit for n, lanes in lanes_per_rung.items())
        assert max(lanes_per_rung) > limit
