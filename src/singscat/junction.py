"""Junction matrices for powers of the delta potential.

A potential c * delta^m concentrated at the origin connects the two half
lines through a 2x2 matrix J acting on (psi, psi').  Which matrix (if any)
exists depends on (m, c):

    0 < m < 1           identity, any c (the potential has no effect)
    m = 1               [[1, 0], [c, 1]] (ordinary delta of strength c)
    m = 2, c = -(n*pi)^2  (-1)^n * identity (discrete resonant couplings)
    m > 2, c < 0        [[a, 0], [b, 1]] with a = +-1 and b free, so the
                        caller must pick (a, b)
    anything else       no junction exists (this includes every m in the
                        open band (1, 2), m = 2 off resonance or with
                        c > 0, and m > 2 with c >= 0)
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from math import pi, sqrt

from .core import CheckedRecord, Mat2, PotentialSpec, _check_type, _float
from .errors import MissingChoice, PrecisionLoss, UndefinedRegime

# Absolute tolerance for deciding m == 1 and m == 2.
EXPONENT_TOL = 1e-12

# Relative tolerance on nu = sqrt(-c)/pi when matching resonant levels: 8
# units of u = 2^-53.  A level spelled -(n*pi)**2, -(n*n*pi*pi) or
# -(n**2*pi**2) rounds at most three times before the square root, which
# halves those errors, and nu rounds in sqrt and in the division; the float
# pi cancels between the two.  So |nu - n| / n <= (3/2 + 2) u, and 8 u
# matches every such spelling with room to spare while a coupling off a
# level by more than rounding stays unmatched.
RESONANCE_TOL = 2.0**-50


class RegimeKind(str, Enum):
    NO_EFFECT = "no_effect"
    STANDARD_DELTA = "standard_delta"
    RESONANT_SQUARE = "resonant_square"
    INDETERMINATE = "indeterminate"
    UNDEFINED = "undefined"


class Regime(namedtuple("Regime", "kind n reason", defaults=(None, None))):
    """Classification of an (m, c) pair.

    kind is a RegimeKind.  The int n is set only for RESONANT_SQUARE, the
    str reason only for UNDEFINED; both are None otherwise.
    """

    __slots__ = ()


# The kinds as module names: on Python 3.11 a RegimeKind.X lookup takes the
# enum metaclass's slow attribute path, about ten times a module name's.
_NO_EFFECT = RegimeKind.NO_EFFECT
_STANDARD_DELTA = RegimeKind.STANDARD_DELTA
_RESONANT_SQUARE = RegimeKind.RESONANT_SQUARE
_INDETERMINATE = RegimeKind.INDETERMINATE
_UNDEFINED = RegimeKind.UNDEFINED
_new = tuple.__new__


class IvChoice(CheckedRecord, namedtuple("IvChoice", "a b")):
    """Caller-supplied resolution (a, b) of the indeterminate case, as floats."""

    __slots__ = ()

    def __new__(cls, a: float, b: float):
        if (a := _float(a, "a")) not in (1.0, -1.0):
            raise ValueError(f"a must be +1 or -1, got {a}")
        if not math.isfinite(b := _float(b, "b")):
            raise ValueError(f"b must be finite, got {b}")
        return tuple.__new__(cls, (a, b))


def classify_regime(p: PotentialSpec) -> Regime:
    """Assign the unique regime of a point potential.

    The exponent comparisons m == 1 and m == 2 use the absolute tolerance
    EXPONENT_TOL.  Resonance matching at m = 2 is relative: with
    nu = sqrt(-c)/pi, level n = round(nu) matches iff
    |nu - n| <= RESONANCE_TOL * max(1, nu).  Once that window reaches half
    the level spacing (nu >= 2^49, c <= about -3.13e30) every coupling
    would match a level, so PrecisionLoss is raised instead.  A p that is
    not a PotentialSpec raises ValueError.
    """
    _check_type(p, PotentialSpec, "p")
    m, c = p
    if abs(m - 1.0) <= EXPONENT_TOL:
        return _new(Regime, (_STANDARD_DELTA, None, None))
    if abs(m - 2.0) <= EXPONENT_TOL:
        if c > 0.0:
            return _new(Regime, (_UNDEFINED, None, "m = 2 with positive coupling"))
        nu = sqrt(-c) / pi
        window = RESONANCE_TOL * max(1.0, nu)
        if window >= 0.5:
            raise PrecisionLoss(
                f"m = 2 coupling {c!r} is too large to tell resonant levels apart"
            )
        n = round(nu)
        if abs(nu - n) <= window:
            return _new(Regime, (_RESONANT_SQUARE, n, None))
        return _new(
            Regime,
            (_UNDEFINED, None, "m = 2 coupling is not a resonant level -(n*pi)^2"),
        )
    if m < 1.0:
        return _new(Regime, (_NO_EFFECT, None, None))
    if m < 2.0:
        return _new(Regime, (_UNDEFINED, None, "exponents in the open band (1, 2)"))
    # m > 2 from here on
    if c < 0.0:
        return _new(Regime, (_INDETERMINATE, None, None))
    return _new(Regime, (_UNDEFINED, None, "m > 2 with non-negative coupling"))


def junction_matrix(p: PotentialSpec, choice: IvChoice | None = None) -> Mat2:
    """Junction matrix of a point potential.

    choice must be supplied exactly when the regime is indeterminate;
    anywhere else the matrix is fully determined and a stray choice is
    rejected.

    Raises
    ------
    UndefinedRegime
        if no junction exists for (m, c).
    MissingChoice
        if the regime is indeterminate and choice is None.
    PrecisionLoss
        if m = 2 and c is too large to match resonant levels.
    ValueError
        if p is not a PotentialSpec, or choice is neither None nor an
        IvChoice, or is given outside the indeterminate regime.
    """
    if choice is not None and not isinstance(choice, IvChoice):
        raise ValueError(f"choice must be an IvChoice or None, got {type(choice).__name__}")
    kind, n, reason = classify_regime(p)
    if kind is _INDETERMINATE:
        if choice is None:
            raise MissingChoice(
                "m > 2 with c < 0 is doubly indeterminate, supply (a, b)"
            )
        return Mat2(choice.a, 0.0, choice.b, 1.0)
    if choice is not None:
        raise ValueError("choice is only meaningful for the indeterminate regime")
    if kind is _STANDARD_DELTA:
        return Mat2(1.0, 0.0, p.c, 1.0)
    if kind is _NO_EFFECT:
        return Mat2.identity()
    if kind is _RESONANT_SQUARE:
        sign = -1.0 if n % 2 else 1.0
        return Mat2(sign, 0.0, 0.0, sign)
    raise UndefinedRegime(reason)
