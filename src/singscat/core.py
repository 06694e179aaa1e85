"""Shared numeric vocabulary for the whole package.

Everything here works on the stationary equation

    psi'' + (k - U) psi = 0

written so that the spectral parameter k multiplies psi directly; the
physical wavenumber is sqrt(k).  Units are bare (hbar = 2m = 1 absorbed
into k and U).  State vectors are (psi, psi') and every propagator or
junction is a real 2x2 matrix acting on them from the left.

free_propagators is the one evaluation of free flight: every other
module takes its propagators from it, in batches over arrays of (k, h),
or one at a time through the scalar wrapper free_transfer.  It is the
one place here that uses numpy, and imports it when called, so the
closed-form paths that never propagate run without loading numpy.

Every record of the package is a collections.namedtuple subclass with
__slots__ = ().  Where fields are checked, __new__ checks them, and
CheckedRecord routes _make and _replace through __new__.  A checked
record is built only through its own __new__; the unchecked records of
the per-energy paths are built with tuple.__new__(Record, fields).

Every module's boundary rule lives here too: _float turns a number into
a Python float once, at entry, or refuses it, and _check_type refuses a
value of the wrong type.
"""

from __future__ import annotations

import math
from collections import namedtuple
from math import isfinite
from numbers import Integral, Real

from .errors import InvalidExponent, PrecisionLoss

# Read as true by type checkers; it keeps typing off the import path.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

# Below this |k|*x^2 the closed forms for S lose digits (and divide 0/0 at
# k = 0), so a 3-term series takes over.  Truncation error ~ (1e-4)^3/5040.
SERIES_WINDOW = 1e-4

# A phase sqrt(k) x is refused once one ulp of it exceeds this fraction of
# pi.  Past that, rounding sqrt(k) x alone moves a phase shift by more than
# a millionth of its range (-pi/2, pi/2], so fewer than six of its digits
# mean anything.
PHASE_ULP_FRACTION = 1e-6
# The smallest phase with that ulp, 2^34 (about 1.7e10): a power of two
# whose ulp 2^-18 is the first one above 1e-6 pi.  One comparison against
# it per energy keeps the check off the cost of a sweep.
_PHASE_LIMIT = 2.0 ** (math.floor(math.log2(PHASE_ULP_FRACTION * math.pi)) + 53)


def _float(x, what: str) -> float:
    """float(x) for a numbers.Real that is not a bool and that a float holds;
    a 0-d array, which is not a numbers.Real, is refused too.  Otherwise
    ValueError "{what} must be a real number, got {type}", or for an int
    past the float range (10**400) "{what} must be a real number within the
    float range, got int": a message names the type, never the value."""
    if type(x) is float:
        return x
    if type(x) is bool or not isinstance(x, Real):
        raise ValueError(f"{what} must be a real number, got {type(x).__name__}")
    try:
        return float(x)
    except OverflowError:
        kind = type(x).__name__
        raise ValueError(
            f"{what} must be a real number within the float range, got {kind}"
        ) from None


def _integer(x) -> bool:
    """Whether x, a number _float takes, is a count: a numbers.Integral."""
    return isinstance(x, Integral)


def _check_type(value, kind: type, what: str) -> None:
    """ValueError "{what} must be a {kind}, got {type}" unless value is a kind."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a {kind.__name__}, got {type(value).__name__}")


def _as_list(items, what: str) -> list:
    """list(items), or ValueError "{what} must be a sequence, got {type}"
    when items cannot be iterated, as None, a number or a 0-d array."""
    try:
        items = iter(items)
    except TypeError:
        raise ValueError(
            f"{what} must be a sequence, got {type(items).__name__}"
        ) from None
    return list(items)


def _real_array(values, what: str) -> np.ndarray:
    """values as a float array, or ValueError "{what} must hold real numbers,
    got {dtype}" for a dtype other than float or int: bool, str, object or
    complex.  Floats and ints convert as np.asarray(values, dtype=float)."""
    import numpy as np

    array = np.asarray(values)
    if array.dtype.kind not in "fiu":
        raise ValueError(f"{what} must hold real numbers, got {array.dtype}")
    return np.asarray(array, dtype=float)


class CheckedRecord:
    """Mixin of a tuple record whose __new__ checks its fields.

    namedtuple's _make, which _replace calls, builds through tuple.__new__
    and would skip the checks; here both go through __new__.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Mat2(CheckedRecord, namedtuple("Mat2", "m11 m12 m21 m22")):
    """Real 2x2 matrix acting on (psi, psi') state vectors, of finite float entries."""

    __slots__ = ()

    def __new__(cls, m11: float, m12: float, m21: float, m22: float):
        if not (type(m11) is type(m12) is type(m21) is type(m22) is float):
            m11, m12, m21, m22 = [_float(x, "matrix entry") for x in (m11, m12, m21, m22)]
        if not (isfinite(m11) and isfinite(m12) and isfinite(m21) and isfinite(m22)):
            raise ValueError("matrix entries must be finite")
        return tuple.__new__(cls, (m11, m12, m21, m22))

    @staticmethod
    def identity() -> "Mat2":
        return _IDENTITY

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
        """Matrix times state vector, whose entries are taken as floats."""
        psi, dpsi = (_float(x, "state vector entry") for x in v)
        return (
            self.m11 * psi + self.m12 * dpsi,
            self.m21 * psi + self.m22 * dpsi,
        )

    def max_abs_diff(self, other: "Mat2") -> float:
        return max(
            abs(self.m11 - other.m11),
            abs(self.m12 - other.m12),
            abs(self.m21 - other.m21),
            abs(self.m22 - other.m22),
        )


_IDENTITY = Mat2(1.0, 0.0, 0.0, 1.0)


class PotentialSpec(CheckedRecord, namedtuple("PotentialSpec", "m c")):
    """Point potential c * delta^m at the origin.

    m is the power of the delta factor (m > 0), c the coupling strength,
    both kept as floats.
    """

    __slots__ = ()

    def __new__(cls, m: float, c: float):
        if not (type(m) is type(c) is float):
            try:
                m = _float(m, "exponent")
            except ValueError as exc:
                raise InvalidExponent(*exc.args) from None
            c = _float(c, "coupling")
        if not (isfinite(m) and m > 0.0):
            raise InvalidExponent(f"exponent must be positive and finite, got {m}")
        if not isfinite(c):
            raise ValueError(f"coupling must be finite, got {c}")
        return tuple.__new__(cls, (m, c))


class ShellPotentialSpec(CheckedRecord, namedtuple("ShellPotentialSpec", "base a")):
    """Spherical shell carrying a point potential at a finite radius a > 0.

    base must be a PotentialSpec; anything else raises ValueError.
    """

    __slots__ = ()

    def __new__(cls, base: PotentialSpec, a: float):
        # only an immutable record lets s_wave_solve key its junction by identity
        _check_type(base, PotentialSpec, "shell base")
        a = _float(a, "shell radius")
        if not (isfinite(a) and a > 0.0):
            raise ValueError(f"shell radius must be positive and finite, got {a}")
        return tuple.__new__(cls, (base, a))


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
    without raising; callers inspect finiteness.  Inputs of a dtype other
    than float or int, such as bool, str, object or complex, raise
    ValueError.  Each branch (cos/sin or cosh/sinh, series or closed-form
    sine) is evaluated only when some entry takes it, as np.count_nonzero
    of its mask shows; a mixed mask merges both with np.where.
    """
    import numpy as np

    k, h = _real_array(k, "k"), _real_array(h, "h")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = np.sqrt(np.abs(k))
        wh = w * h
        kh2 = k * h * h
        oscillating = k > 0.0
        c = _either(oscillating, np.cos, np.cosh, wh)
        series = np.abs(kh2) < SERIES_WINDOW
        used = np.count_nonzero(series)
        s = None  # the closed-form sine, where some entry takes it
        if used < series.size:
            s = _either(oscillating, np.sin, np.sinh, wh) / w
        if used or s is None:  # some entry takes the series, or there are none
            taylor = h * (1.0 - kh2 / 6.0 + kh2 * kh2 / 120.0)
            s = taylor if s is None else np.where(series, taylor, s)
        mats = np.empty(np.shape(s) + (2, 2))
        mats[..., 0, 0] = c
        mats[..., 0, 1] = s
        mats[..., 1, 0] = -k * s
        mats[..., 1, 1] = c
    return mats


def _either(mask, taken, other, x):
    """np.where(mask, taken(x), other(x)), calling only the functions used."""
    import numpy as np

    used = np.count_nonzero(mask)
    if used == mask.size:
        return taken(x)
    if not used:
        return other(x)
    return np.where(mask, taken(x), other(x))


def free_transfer(k: float, h: float) -> Mat2:
    """Propagator of (psi, psi') across a potential-free interval of width h.

    The scalar form of free_propagators, entry for entry.  Unit
    determinant for every (k, h); h may be negative (backward
    propagation), and free_transfer(k, -h) inverts free_transfer(k, h).
    Raises ValueError for a k that is not a finite real number, an h that
    is not a real number, or when an entry overflows.
    """
    if not isfinite(k := _float(k, "k")):
        raise ValueError(f"k must be finite, got {k}")
    (c, s), (dc, ds) = free_propagators(k, _float(h, "h")).tolist()
    return Mat2(c, s, dc, ds)


def check_phase(k: float, x: float) -> None:
    """Refuse an energy whose phase sqrt(k) x is rounding noise.

    x >= 0 is the largest distance the phase is taken over.  Raises
    ValueError for a k that is not a finite real number or an x that is
    not a real number, and PrecisionLoss when k > 0 and one ulp of
    sqrt(k) x exceeds PHASE_ULP_FRACTION pi.
    """
    if not isfinite(k := _float(k, "k")):
        raise ValueError(f"k must be finite, got {k}")
    x = _float(x, "x")
    if k > 0.0 and math.sqrt(k) * x >= _PHASE_LIMIT:
        raise PrecisionLoss(
            f"phase sqrt(k) x = {math.sqrt(k) * x!r} has an ulp above "
            f"{PHASE_ULP_FRACTION} pi"
        )


class PiecewiseSolution(namedtuple("PiecewiseSolution", "k left_coeffs junction")):
    """Solution of the point-potential problem on both half lines.

    Energy k, a float pair left_coeffs and the Mat2 junction.
    Coefficients are in the (C, S) basis anchored at the origin, so each
    coefficient pair is literally the one-sided boundary data
    (psi(0), psi'(0)) of its branch.  The left pair and the junction fix
    the solution; the right pair is the junction applied to the left.
    """

    __slots__ = ()

    @property
    def right_coeffs(self) -> tuple[float, float]:
        return self.junction.apply(self.left_coeffs)
