"""Shared numeric vocabulary for the whole package.

Everything here works on the stationary equation

    psi'' + (k - U) psi = 0

written so that the spectral parameter k multiplies psi directly; the
physical wavenumber is sqrt(k).  Units are bare (hbar = 2m = 1 absorbed
into k and U).  State vectors are (psi, psi') and every propagator or
junction is a real 2x2 matrix acting on them from the left.

free_propagators is the one evaluation of free flight: every other
module takes its propagators from it, in batches over arrays of (k, h),
or one at a time through the scalar wrapper free_transfer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidExponent

# Below this |k|*x^2 the closed forms for S lose digits (and divide 0/0 at
# k = 0), so a 3-term series takes over.  Truncation error ~ (1e-4)^3/5040.
SERIES_WINDOW = 1e-4


@dataclass(frozen=True)
class Mat2:
    """Real 2x2 matrix acting on (psi, psi') state vectors."""

    m11: float
    m12: float
    m21: float
    m22: float

    def __post_init__(self):
        for entry in (self.m11, self.m12, self.m21, self.m22):
            if not math.isfinite(entry):
                raise ValueError("matrix entries must be finite")

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1.0, 0.0, 0.0, 1.0)

    def rows(self) -> list[list[float]]:
        return [[self.m11, self.m12], [self.m21, self.m22]]

    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def apply(self, v: tuple[float, float]) -> tuple[float, float]:
        """Matrix times state vector."""
        return (
            self.m11 * v[0] + self.m12 * v[1],
            self.m21 * v[0] + self.m22 * v[1],
        )

    def max_abs_diff(self, other: "Mat2") -> float:
        return max(
            abs(self.m11 - other.m11),
            abs(self.m12 - other.m12),
            abs(self.m21 - other.m21),
            abs(self.m22 - other.m22),
        )


@dataclass(frozen=True)
class PotentialSpec:
    """Point potential c * delta^m at the origin.

    m is the power of the delta factor (m > 0), c the coupling strength.
    """

    m: float
    c: float

    def __post_init__(self):
        if not (math.isfinite(self.m) and self.m > 0.0):
            raise InvalidExponent(f"exponent must be positive and finite, got {self.m}")
        if not math.isfinite(self.c):
            raise ValueError(f"coupling must be finite, got {self.c}")


@dataclass(frozen=True)
class ShellPotentialSpec:
    """Spherical shell carrying a point potential at radius a > 0."""

    base: PotentialSpec
    a: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError(f"shell radius must be positive, got {self.a}")


def free_propagators(k, h) -> np.ndarray:
    """Free-flight propagators of (psi, psi') over broadcast arrays (k, h).

    Returns an array of shape broadcast(k, h) + (2, 2) holding

        [[C, S], [-k S, C]]

    where C, S is the uniform fundamental system of u'' + k u = 0 taken
    at width h, with C(k, 0) = 1, C'(k, 0) = 0, S(k, 0) = 0, S'(k, 0) = 1:

        k > 0:  C = cos(sqrt(k) h),   S = sin(sqrt(k) h)/sqrt(k)
        k = 0:  C = 1,                S = h
        k < 0:  C = cosh(sqrt(-k) h), S = sinh(sqrt(-k) h)/sqrt(-k)

    For |k| h^2 < SERIES_WINDOW the sine solution switches to its power
    series, which keeps S continuous in k across 0.  Extreme hyperbolic
    arguments overflow to inf and non-finite inputs give nan entries,
    without raising; callers inspect finiteness.
    """
    k = np.asarray(k, dtype=float)
    h = np.asarray(h, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = np.sqrt(np.abs(k))
        wh = w * h
        kh2 = k * h * h
        c = np.where(k > 0.0, np.cos(wh), np.cosh(wh))
        s_series = h * (1.0 - kh2 / 6.0 + kh2 * kh2 / 120.0)
        s_closed = np.where(k > 0.0, np.sin(wh), np.sinh(wh)) / w
        s = np.where(np.abs(kh2) < SERIES_WINDOW, s_series, s_closed)
    mats = np.empty(s.shape + (2, 2))
    mats[..., 0, 0] = c
    mats[..., 0, 1] = s
    mats[..., 1, 0] = -k * s
    mats[..., 1, 1] = c
    return mats


def free_transfer(k: float, h: float) -> Mat2:
    """Propagator of (psi, psi') across a potential-free interval of width h.

    The scalar form of free_propagators, entry for entry.  Unit
    determinant for every (k, h); h may be negative (backward
    propagation), and free_transfer(k, -h) inverts free_transfer(k, h).
    Raises ValueError for a non-finite k or when an entry overflows.
    """
    if not math.isfinite(k):
        raise ValueError(f"k must be finite, got {k}")
    (c, s), (dc, ds) = free_propagators(k, h).tolist()
    return Mat2(c, s, dc, ds)


@dataclass(frozen=True)
class PiecewiseSolution:
    """Solution of the point-potential problem on both half lines.

    Coefficients are in the (C, S) basis anchored at the origin, so each
    coefficient pair is literally the one-sided boundary data
    (psi(0), psi'(0)) of its branch.  The right pair must equal the
    junction matrix applied to the left pair.
    """

    k: float
    left_coeffs: tuple[float, float]
    right_coeffs: tuple[float, float]
    junction: Mat2

    def __post_init__(self):
        expected = self.junction.apply(self.left_coeffs)
        scale = max(1.0, *(abs(v) for v in expected), *(abs(v) for v in self.left_coeffs))
        gap = max(
            abs(expected[0] - self.right_coeffs[0]),
            abs(expected[1] - self.right_coeffs[1]),
        )
        if gap > 1e-9 * scale:
            raise ValueError("right coefficients are not junction * left coefficients")

    @classmethod
    def from_left(
        cls, k: float, left_coeffs: tuple[float, float], junction: Mat2
    ) -> "PiecewiseSolution":
        """Build the solution determined by left boundary data."""
        return cls(k, tuple(left_coeffs), junction.apply(left_coeffs), junction)
