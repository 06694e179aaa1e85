"""Property tests of the free-flight propagator and the chains built on it."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from singscat import (
    Mat2,
    PotentialSpec,
    compose_chain,
    free_propagators,
    free_transfer,
    junction_matrix,
)
from singscat.core import SERIES_WINDOW

# Fixed example stream and no example database, so every run checks the
# same cases.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

energies = st.floats(-25.0, 25.0, allow_nan=False)
widths = st.floats(-2.0, 2.0, allow_nan=False)


def _scale(m: np.ndarray) -> float:
    """Size of the rounding a product of propagators like m can carry."""
    return 1.0 + float(np.abs(m).max()) ** 2


@PROPERTY
@given(energies, widths)
def test_unit_determinant(k, h):
    m = free_propagators(k, h)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    assert abs(det - 1.0) <= 1e-14 * _scale(m)


@PROPERTY
@given(energies, widths)
def test_negated_width_inverts(k, h):
    prod = free_propagators(k, -h) @ free_propagators(k, h)
    assert np.abs(prod - np.eye(2)).max() <= 1e-14 * _scale(free_propagators(k, h))


@PROPERTY
@given(energies, widths, widths)
def test_widths_compose(k, h1, h2):
    joined = free_propagators(k, h1 + h2)
    split = free_propagators(k, h2) @ free_propagators(k, h1)
    scale = _scale(free_propagators(k, h1)) * _scale(free_propagators(k, h2))
    assert np.abs(joined - split).max() <= 1e-14 * scale


def _sine_solution(k: float, x: float) -> float:
    """Oracle: S(k, x) = sum_j (-k)^j x^(2j+1) / (2j+1)!, summed exactly.

    Twelve terms leave a truncation below 1e-40 for |k| x^2 <= 1e-2.
    """
    k_q, x_q = Fraction(k), Fraction(x)
    total, term = Fraction(0), x_q
    for j in range(12):
        total += term
        term *= -k_q * x_q * x_q / ((2 * j + 2) * (2 * j + 3))
    return float(total)


@PROPERTY
@given(
    st.floats(-100.0 * SERIES_WINDOW, 100.0 * SERIES_WINDOW, allow_nan=False),
    st.floats(1e-3, 2.0),
    st.sampled_from([-1.0, 1.0]),
)
def test_sine_solution_is_continuous_across_zero_energy(kx2, x, sign):
    # both sides of k = 0, inside and outside the series window, sit on
    # the one smooth S(k, x)
    x *= sign
    k = kx2 / (x * x)
    s = free_propagators(k, x)[0, 1]
    assert abs(s - _sine_solution(k, x)) <= 4e-16 * abs(x)
    # S(k, x) - S(0, x) = -k x^3 / 6 + O(k^2 x^5)
    gap = abs(s - free_propagators(0.0, x)[0, 1])
    assert gap <= abs(kx2 * x) / 6.0 * (1.0 + abs(kx2)) + 4e-16 * abs(x)


@PROPERTY
@given(st.lists(st.tuples(energies, widths), min_size=1, max_size=40))
def test_scalar_wrapper_matches_array_entries_bit_for_bit(pairs):
    ks = np.array([k for k, _ in pairs])
    hs = np.array([h for _, h in pairs])
    batch = free_propagators(ks, hs).tolist()
    for (k, h), entries in zip(pairs, batch):
        assert free_transfer(k, h).rows() == entries


links = st.lists(
    st.tuples(
        st.floats(0.01, 1.0),
        st.sampled_from([(1.0, 0.7), (1.0, -1.3), (0.5, 2.0), (2.0, -(math.pi**2))]),
    ),
    min_size=2,
    max_size=12,
)


def _chain(spec_links) -> list[tuple[float, Mat2]]:
    x, chain = 0.0, []
    for gap, (m, c) in spec_links:
        x += gap
        chain.append((x, junction_matrix(PotentialSpec(m, c))))
    return chain


@PROPERTY
@given(links, st.floats(0.05, 9.0), st.integers(1, 11))
def test_chain_splits_at_any_link(spec_links, k, cut):
    chain = _chain(spec_links)
    cut = min(cut, len(chain) - 1)
    left, right = chain[:cut], chain[cut:]
    gap = free_transfer(k, right[0][0] - left[-1][0])
    split = compose_chain(right, k) @ gap @ compose_chain(left, k)
    whole = compose_chain(chain, k)
    scale = 1.0 + max(abs(v) for row in whole.rows() for v in row)
    assert whole.max_abs_diff(split) <= 1e-12 * scale
