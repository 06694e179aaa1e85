"""Regularized potentials: convergence where a junction exists, certified
divergence where none does, and the resonant coupling search."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    pot = RegularizedPotential(PotentialSpec(1.0, -1.0), GAUSSIAN, 1.0)
    with pytest.raises(TransferOverflow):
        effective_junction(pot, -1e4)
    rows = convergence_sweep(PotentialSpec(1.0, -1.0), GAUSSIAN, [1.0, 0.5, 0.1], -1e4)
    assert [row.error for row in rows] == ["overflow"] * 3


def test_transfer_overflow_raises_directly():
    pot = RegularizedPotential(PotentialSpec(3.0, 1.0), TOP_HAT, 1e-6)
    with pytest.raises(TransferOverflow):
        numeric_transfer(pot, 1.0)


def test_numeric_transfer_reports_no_convergence_at_cell_cap(monkeypatch):
    monkeypatch.setattr(mollifier_mod, "N_CELLS_CAP", 256)
    pot = RegularizedPotential(PotentialSpec(1.0, -1.0), GAUSSIAN, 0.1)
    with pytest.raises(NoConvergence) as exc_info:
        numeric_transfer(pot, 1.0, tol_rel=1e-18)
    assert len(exc_info.value.last_iterates) >= 2


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
        c_1, parity_1 = resonant_search(shape, 1, rel_tol=1e-8)
        c_2, parity_2 = resonant_search(shape, 2, rel_tol=1e-8)
        assert c_2 < c_1 < 0
        assert parity_1 == -1.0
        assert parity_2 == 1.0


def test_resonant_levels_depend_on_shape():
    c_tophat, _ = resonant_search(TOP_HAT, 1)
    c_gauss, _ = resonant_search(GAUSSIAN, 1, rel_tol=1e-8)
    assert abs(c_tophat - c_gauss) > 1e-3


def test_resonant_search_bracket_and_argument_errors():
    with pytest.raises(ValueError):
        resonant_search(TOP_HAT, 0)
    with pytest.raises(ValueError):
        resonant_search(TOP_HAT, mollifier_mod.MAX_LEVEL + 1)
    with pytest.raises(BracketError):
        resonant_search(TOP_HAT, 1, c_bracket=(-5.0, -1.0))


def test_resonant_search_bracket_may_only_narrow_the_window():
    window = -4.0 * (3 * math.pi) ** 2  # the default scan of level 1
    below = math.nextafter(window, -math.inf)
    for bracket in ((-1e8, -9.9e7), (-12000.0, -11000.0), (below, -1.0)):
        with pytest.raises(ValueError, match="window"):
            resonant_search(TOP_HAT, 1, c_bracket=bracket)
    level, _ = resonant_search(TOP_HAT, 1, c_bracket=(window, -1.0))
    assert level == pytest.approx(-math.pi**2, rel=1e-10)


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


# Bits of every resonance level (n = 1..4, with its parity) and of the
# oracle cases' transfers at eps = 1e-3, k = 1, row-major.  Any change to
# the cell product, the refinement ladder or the root finder shows here.
_PINNED_LEVELS = {
    "tophat": [
        ("-0x1.3bd3cc9be45dep+3", -1),
        ("-0x1.3bd3cc9be45dep+5", 1),
        ("-0x1.634e462f60e99p+6", -1),
        ("-0x1.3bd3cc9be45dfp+7", 1),
    ],
    "triangle": [
        ("-0x1.019d8168af16bp+4", -1),
        ("-0x1.85fd0be8e847dp+5", 1),
        ("-0x1.a3eeae7af3f77p+6", -1),
        ("-0x1.620f7b4df67f5p+7", 1),
    ],
    "cosine": [
        ("-0x1.ea9ab574c8160p+3", -1),
        ("-0x1.982e35a978278p+5", 1),
        ("-0x1.aa5c02a2c682bp+6", -1),
        ("-0x1.6bee46cdb14f5p+7", 1),
    ],
    "gauss": [
        ("-0x1.0dd3590a40bcbp+4", -1),
        ("-0x1.b2c0456437ba0p+5", 1),
        ("-0x1.bf4134c93f54fp+6", -1),
        ("-0x1.7a53a136feb5bp+7", 1),
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
            for level, parity in (resonant_search(SHAPES[name], n) for n in range(1, 5))
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
