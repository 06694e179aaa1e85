"""Regime classification and junction matrices."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singscat import (
    RESONANCE_TOL,
    IvChoice,
    Mat2,
    MissingChoice,
    PotentialSpec,
    PrecisionLoss,
    Regime,
    RegimeKind,
    UndefinedRegime,
    classify_regime,
    junction_matrix,
)
from singscat.junction import EXPONENT_TOL


def _reference_kind(m: float, c: float, tol: float) -> RegimeKind:
    """Independent restatement of the case split."""
    if abs(m - 1.0) <= EXPONENT_TOL:
        return RegimeKind.STANDARD_DELTA
    if abs(m - 2.0) <= EXPONENT_TOL:
        if c > 0.0:
            return RegimeKind.UNDEFINED
        nu = math.sqrt(-c) / math.pi
        if abs(nu - round(nu)) <= tol * max(1.0, nu):
            return RegimeKind.RESONANT_SQUARE
        return RegimeKind.UNDEFINED
    if m < 1.0:
        return RegimeKind.NO_EFFECT
    if m < 2.0:
        return RegimeKind.UNDEFINED
    if c < 0.0:
        return RegimeKind.INDETERMINATE
    return RegimeKind.UNDEFINED


def test_exactly_one_regime_per_parameter_point():
    rng = np.random.default_rng(101)
    ms = rng.uniform(0.05, 4.0, size=4000)
    cs = rng.uniform(-120.0, 20.0, size=4000)
    for m, c in zip(ms, cs):
        regime = classify_regime(PotentialSpec(float(m), float(c)))
        assert regime.kind == _reference_kind(float(m), float(c), RESONANCE_TOL)


def test_subcritical_regime_is_transparent():
    for m in (0.2, 0.5, 0.999):
        for c in (-40.0, -1.0, 0.0, 3.0):
            j = junction_matrix(PotentialSpec(m, c))
            assert j == Mat2.identity()


def test_delta_regime_matrix():
    for c in (-5.0, -1.0, 0.0, 2.0, 17.5):
        j = junction_matrix(PotentialSpec(1.0, c))
        assert j == Mat2(1.0, 0.0, c, 1.0)
        assert j.det() == 1.0


def test_resonant_regime_alternating_sign():
    for n in range(1, 6):
        c = -((n * math.pi) ** 2)
        regime = classify_regime(PotentialSpec(2.0, c))
        assert regime == Regime(RegimeKind.RESONANT_SQUARE, n=n)
        j = junction_matrix(PotentialSpec(2.0, c))
        sign = -1.0 if n % 2 else 1.0
        assert j == Mat2(sign, 0.0, 0.0, sign)


def test_resonance_tolerance_window():
    n = 3
    base = -((n * math.pi) ** 2)
    # displacement in c producing a given offset in sqrt(-c)/pi
    def shifted(d_nu: float) -> float:
        return -(((n + d_nu) * math.pi) ** 2)

    inside = shifted(0.5 * RESONANCE_TOL * n)
    outside = shifted(10.0 * RESONANCE_TOL * n)
    assert classify_regime(PotentialSpec(2.0, inside)).kind is RegimeKind.RESONANT_SQUARE
    assert classify_regime(PotentialSpec(2.0, outside)).kind is RegimeKind.UNDEFINED
    # pi^2 to 15 digits is 2 units of 2^-53 off level 1, to 14 digits 20
    near, off = PotentialSpec(2.0, -9.86960440108936), PotentialSpec(2.0, -9.8696044010894)
    assert classify_regime(near) == Regime(RegimeKind.RESONANT_SQUARE, n=1)
    assert classify_regime(off).kind is RegimeKind.UNDEFINED
    # the window RESONANCE_TOL * nu is 2.8e-8 at c = -1e16; at c = -1e31 it
    # is 0.89, past half the level spacing, and is refused
    assert classify_regime(PotentialSpec(2.0, -1e16)).kind is RegimeKind.UNDEFINED
    for call in (classify_regime, junction_matrix):
        with pytest.raises(PrecisionLoss, match="-1e\\+31"):
            call(PotentialSpec(2.0, -1e31))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.integers(0, 5000), st.integers(0, 2**48)))
@example(0)
@example(1000)
def test_every_spelling_of_a_level_is_resonant(n):
    # -(n pi)^2 as a caller may write it, and its repr round trip; up to
    # nu = 2^48, half the nu where matching is refused
    level = -((n * math.pi) ** 2)
    for c in (level, -(n * n * math.pi * math.pi), -(n**2 * math.pi**2), float(repr(level))):
        assert classify_regime(PotentialSpec(2.0, c)) == Regime(RegimeKind.RESONANT_SQUARE, n=n)


def test_square_exponent_off_resonance_is_undefined():
    for c in (-1.0, -10.0, -100.0, 4.0):
        regime = classify_regime(PotentialSpec(2.0, c))
        assert regime.kind is RegimeKind.UNDEFINED
        with pytest.raises(UndefinedRegime):
            junction_matrix(PotentialSpec(2.0, c))


def test_intermediate_band_is_undefined():
    for m in (1.0 + 1e-9, 1.3, 1.5, 1.9, 2.0 - 1e-9):
        with pytest.raises(UndefinedRegime):
            junction_matrix(PotentialSpec(m, -2.0))


def test_supercritical_attractive_needs_choice():
    spec = PotentialSpec(3.0, -1.0)
    assert classify_regime(spec).kind is RegimeKind.INDETERMINATE
    with pytest.raises(MissingChoice):
        junction_matrix(spec)
    j = junction_matrix(spec, choice=IvChoice(-1, 0.7))
    assert j == Mat2(-1.0, 0.0, 0.7, 1.0)


def test_supercritical_repulsive_is_undefined():
    for c in (0.0, 1.0, 8.0):
        with pytest.raises(UndefinedRegime):
            junction_matrix(PotentialSpec(2.5, c))


def test_choice_reduces_to_delta_when_upper_sign():
    b = -3.25
    chosen = junction_matrix(PotentialSpec(4.0, -2.0), choice=IvChoice(1, b))
    delta = junction_matrix(PotentialSpec(1.0, b))
    assert chosen == delta


def test_choice_rejected_outside_indeterminate_regime():
    with pytest.raises(ValueError):
        junction_matrix(PotentialSpec(1.0, -2.0), choice=IvChoice(1, 0.0))


def test_choice_validation():
    with pytest.raises(ValueError):
        IvChoice(0, 1.0)
    with pytest.raises(ValueError):
        IvChoice(2, 1.0)
    with pytest.raises(ValueError):
        IvChoice(1, math.nan)
    # a choice that is not an IvChoice is refused in every regime
    for p in (PotentialSpec(3.0, -1.0), PotentialSpec(1.0, -2.0)):
        with pytest.raises(ValueError, match="IvChoice"):
            junction_matrix(p, (1, 0.5))


def test_undefined_regime_reports_reason():
    regime = classify_regime(PotentialSpec(1.5, -2.0))
    assert regime.kind is RegimeKind.UNDEFINED
    assert regime.reason
