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

from .core import CheckedRecord, Mat2, PotentialSpec
from .errors import MissingChoice, PrecisionLoss, UndefinedRegime

# Absolute tolerance for deciding m == 1 and m == 2.
EXPONENT_TOL = 1e-12

# Relative tolerance on sqrt(-c)/pi when matching resonant levels.
RESONANCE_TOL = 1e-9


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


# The parameterless regimes, built once; junction_matrix tests them by identity.
_NO_EFFECT = Regime(RegimeKind.NO_EFFECT)
_STANDARD_DELTA = Regime(RegimeKind.STANDARD_DELTA)
_INDETERMINATE = Regime(RegimeKind.INDETERMINATE)


class IvChoice(CheckedRecord, namedtuple("IvChoice", "a b")):
    """Caller-supplied resolution (a, b) of the doubly indeterminate case."""

    __slots__ = ()

    def __new__(cls, a: int, b: float):
        if a not in (1, -1):
            raise ValueError(f"a must be +1 or -1, got {a}")
        if not math.isfinite(b):
            raise ValueError(f"b must be finite, got {b}")
        return tuple.__new__(cls, (a, b))


def classify_regime(p: PotentialSpec) -> Regime:
    """Assign the unique regime of a point potential.

    The exponent comparisons m == 1 and m == 2 use the absolute tolerance
    EXPONENT_TOL.  Resonance matching at m = 2 is relative: with
    nu = sqrt(-c)/pi, level n = round(nu) matches iff
    |nu - n| <= RESONANCE_TOL * max(1, nu).  Once that window reaches half
    the level spacing (nu >= 5e8, c <= about -2.47e18) every coupling
    would match a level, so PrecisionLoss is raised instead.
    """
    m, c = p
    if abs(m - 1.0) <= EXPONENT_TOL:
        return _STANDARD_DELTA
    if abs(m - 2.0) <= EXPONENT_TOL:
        if c > 0.0:
            return Regime(
                RegimeKind.UNDEFINED, reason="m = 2 with positive coupling"
            )
        nu = math.sqrt(-c) / math.pi
        window = RESONANCE_TOL * max(1.0, nu)
        if window >= 0.5:
            raise PrecisionLoss(
                f"m = 2 coupling {c!r} is too large to tell resonant levels apart"
            )
        n = round(nu)
        if abs(nu - n) <= window:
            return Regime(RegimeKind.RESONANT_SQUARE, n=n)
        return Regime(
            RegimeKind.UNDEFINED,
            reason="m = 2 coupling is not a resonant level -(n*pi)^2",
        )
    if m < 1.0:
        return _NO_EFFECT
    if m < 2.0:
        return Regime(
            RegimeKind.UNDEFINED, reason="exponents in the open band (1, 2)"
        )
    # m > 2 from here on
    if c < 0.0:
        return _INDETERMINATE
    return Regime(
        RegimeKind.UNDEFINED, reason="m > 2 with non-negative coupling"
    )


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
    """
    regime = classify_regime(p)
    if regime is _INDETERMINATE:
        if choice is None:
            raise MissingChoice(
                "m > 2 with c < 0 is doubly indeterminate, supply (a, b)"
            )
        return Mat2(float(choice.a), 0.0, choice.b, 1.0)
    if choice is not None:
        raise ValueError("choice is only meaningful for the indeterminate regime")
    if regime is _STANDARD_DELTA:
        return Mat2(1.0, 0.0, p.c, 1.0)
    if regime is _NO_EFFECT:
        return Mat2.identity()
    if regime.kind is RegimeKind.RESONANT_SQUARE:
        sign = -1.0 if regime.n % 2 else 1.0
        return Mat2(sign, 0.0, 0.0, sign)
    raise UndefinedRegime(regime.reason or "no junction exists")


def resonant_couplings(n_max: int) -> list[tuple[int, float]]:
    """Couplings c_n = -(n*pi)^2, n = 0 .. n_max, that admit a junction at m = 2.

    Raises ValueError unless n_max is a non-negative integer or integral float.
    """
    if not (0 <= n_max < math.inf and n_max == int(n_max)):
        raise ValueError(f"n_max must be a non-negative integer, got {n_max}")
    # + 0.0 keeps the n = 0 entry at plain zero instead of -0.0
    return [(n, -((n * math.pi) ** 2) + 0.0) for n in range(int(n_max) + 1)]
