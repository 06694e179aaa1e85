"""Fundamental basis, free propagators, and the small matrix algebra."""

from __future__ import annotations

import math

import numpy as np
import pytest

from singscat import (
    InvalidExponent,
    Mat2,
    PiecewiseSolution,
    PotentialSpec,
    ShellPotentialSpec,
    free_propagators,
    free_transfer,
)


def fundamental_pair(k: float, x: float) -> tuple[float, float, float, float]:
    """(C, S, C', S') at x, read off the propagator [[C, S], [C', S']]."""
    (c, s), (dc, ds) = free_propagators(k, x).tolist()
    return c, s, dc, ds


def _series_cosh(x: float) -> float:
    total, term, j = 0.0, 1.0, 0
    while abs(term) > 1e-20:
        total += term
        j += 1
        term = x ** (2 * j) / math.factorial(2 * j)
    return total


def _series_sinh(x: float) -> float:
    total, term, j = 0.0, x, 0
    while abs(term) > 1e-20:
        total += term
        j += 1
        term = x ** (2 * j + 1) / math.factorial(2 * j + 1)
    return total


def test_mat2_identity_multiplication():
    a = Mat2(1.0, 2.0, 3.0, 4.0)
    eye = Mat2.identity()
    assert a @ eye == a
    assert eye @ a == a


def test_mat2_inverse_product_is_identity():
    # oracle: adjugate inverse, det from the 2x2 closed form
    rng = np.random.default_rng(7)
    for _ in range(200):
        entries = rng.uniform(-3.0, 3.0, size=4)
        a = Mat2(*entries)
        det = a.det()
        if abs(det) < 1e-3:
            continue
        inv = Mat2(a.m22 / det, -a.m12 / det, -a.m21 / det, a.m11 / det)
        assert (a @ inv).max_abs_diff(Mat2.identity()) < 1e-12
        assert (inv @ a).max_abs_diff(Mat2.identity()) < 1e-12


def test_mat2_det_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(500):
        a = Mat2(*rng.uniform(-2.0, 2.0, size=4))
        b = Mat2(*rng.uniform(-2.0, 2.0, size=4))
        assert abs((a @ b).det() - a.det() * b.det()) < 1e-12


def test_mat2_rejects_non_finite_entries():
    with pytest.raises(ValueError):
        Mat2(1.0, math.inf, 0.0, 1.0)
    with pytest.raises(ValueError):
        Mat2(math.nan, 0.0, 0.0, 1.0)


def test_fundamental_pair_trig_branch():
    c, s, dc, ds = fundamental_pair(4.0, math.pi / 2)
    assert abs(c - math.cos(math.pi)) < 1e-15
    assert abs(s) < 1e-15
    assert abs(dc) < 4e-15
    assert abs(ds - c) == 0.0


def test_fundamental_pair_hyperbolic_matches_series():
    c, s, dc, ds = fundamental_pair(-1.0, 1.0)
    assert abs(c - _series_cosh(1.0)) < 1e-15
    assert abs(s - _series_sinh(1.0)) < 1e-15
    assert abs(dc - s) < 1e-15  # -k S with k = -1
    assert ds == c


def test_fundamental_pair_zero_energy():
    c, s, dc, ds = fundamental_pair(0.0, 2.5)
    assert c == 1.0
    assert s == 2.5
    assert dc == 0.0
    assert ds == 1.0


def test_fundamental_pair_series_window_continuity():
    # |S(k, x) - S(0, x)| small when |k| x^2 is; grid keeps x moderate so
    # the cubic remainder stays under the bound
    for x in (-0.05, -0.01, 0.003, 0.02, 0.05):
        for kx2 in (1e-8, -1e-8, 1e-10, -1e-12):
            k = kx2 / (x * x)
            s_k = fundamental_pair(k, x)[1]
            s_0 = fundamental_pair(0.0, x)[1]
            assert abs(s_k - s_0) <= 1e-10


def test_fundamental_pair_derivatives_match_finite_differences():
    step = 1e-6
    for k in (-2.3, -1.0, -1e-9, 0.0, 1e-9, 1.0, 2.7):
        for x in (-1.5, -0.3, 0.2, 1.1):
            _, _, dc, ds = fundamental_pair(k, x)
            c_plus, s_plus, _, _ = fundamental_pair(k, x + step)
            c_minus, s_minus, _, _ = fundamental_pair(k, x - step)
            fd_dc = (c_plus - c_minus) / (2 * step)
            fd_ds = (s_plus - s_minus) / (2 * step)
            assert abs(fd_dc - dc) < 1e-6 * max(1.0, abs(dc))
            assert abs(fd_ds - ds) < 1e-6 * max(1.0, abs(ds))


def test_free_transfer_unit_determinant():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        k = rng.uniform(-4.0, 4.0)
        h = rng.uniform(-1.0, 1.0)
        assert abs(free_transfer(k, h).det() - 1.0) < 1e-13


def test_free_transfer_composition():
    rng = np.random.default_rng(31)
    for _ in range(500):
        k = rng.uniform(-4.0, 4.0)
        h1 = rng.uniform(-1.0, 1.0)
        h2 = rng.uniform(-1.0, 1.0)
        joined = free_transfer(k, h1 + h2)
        split = free_transfer(k, h2) @ free_transfer(k, h1)
        assert joined.max_abs_diff(split) < 1e-12


def test_free_transfer_inverse_is_negated_width():
    rng = np.random.default_rng(37)
    for _ in range(300):
        k = rng.uniform(-4.0, 4.0)
        h = rng.uniform(-1.0, 1.0)
        prod = free_transfer(k, -h) @ free_transfer(k, h)
        assert prod.max_abs_diff(Mat2.identity()) < 1e-13


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
def test_free_transfer_refuses_non_finite_energy(k):
    with pytest.raises(ValueError, match="k must be finite"):
        free_transfer(k, 1.0)


def test_free_propagators_keep_overflow_without_raising():
    # cell products inspect finiteness themselves, so the kernel reports
    # overflow and nan as entries
    mats = free_propagators([math.nan, -1e6, 1.0], [1.0, 10.0, math.inf])
    assert mats.shape == (3, 2, 2)
    assert np.isnan(mats[0]).all()
    assert mats[1, 0, 0] == math.inf and mats[1, 0, 1] == math.inf
    assert np.isnan(mats[2, 0, 0])
    with pytest.raises(ValueError):
        free_transfer(-1e6, 10.0)


def test_free_propagators_broadcast_over_k_and_h():
    ks = np.array([[-2.0], [0.0], [3.0]])
    hs = np.array([0.1, -0.7])
    mats = free_propagators(ks, hs)
    assert mats.shape == (3, 2, 2, 2)
    for i in range(3):
        for j in range(2):
            assert free_transfer(ks[i, 0], hs[j]).rows() == mats[i, j].tolist()


def test_potential_spec_validation():
    with pytest.raises(InvalidExponent):
        PotentialSpec(0.0, 1.0)
    with pytest.raises(InvalidExponent):
        PotentialSpec(-1.0, 1.0)
    with pytest.raises(InvalidExponent):
        PotentialSpec(math.nan, 1.0)
    with pytest.raises(ValueError):
        PotentialSpec(1.0, math.inf)
    spec = PotentialSpec(1.0, -2.0)
    assert (spec.m, spec.c) == (1.0, -2.0)


def test_shell_spec_needs_positive_radius():
    base = PotentialSpec(1.0, -2.0)
    with pytest.raises(ValueError):
        ShellPotentialSpec(base, 0.0)
    with pytest.raises(ValueError):
        ShellPotentialSpec(base, -1.0)


def test_piecewise_solution_invariant():
    junction = Mat2(1.0, 0.0, -2.0, 1.0)
    sol = PiecewiseSolution.from_left(1.0, (1.0, 0.0), junction)
    assert sol.right_coeffs == (1.0, -2.0)
    with pytest.raises(ValueError):
        PiecewiseSolution(1.0, (1.0, 0.0), (1.0, 0.5), junction)
