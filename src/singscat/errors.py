"""Exception types shared across the package.

Every failure mode that a caller may want to branch on gets its own class;
its tag is the stable snake_case name of the failure that CSV flags and
JSON error documents carry, and the CLI maps the classes onto exit codes.
"""

from __future__ import annotations


class SingscatError(Exception):
    """Base class for all package errors."""
    tag = "error"


class InvalidExponent(SingscatError, ValueError):
    """The potential exponent m is not a positive finite real number; a ValueError."""
    tag = "invalid_exponent"


class UndefinedRegime(SingscatError):
    """The (m, c) pair admits no junction matrix."""
    tag = "undefined_regime"

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class MissingChoice(SingscatError):
    """The doubly indeterminate regime needs an explicit (a, b) choice."""
    tag = "missing_choice"


class NonPositiveEnergy(SingscatError):
    """An operation defined only for k > 0 was asked for k <= 0."""
    tag = "non_positive_energy"


class NoScatteringState(SingscatError):
    """The plane-wave matching system is inconsistent for this matrix."""
    tag = "no_scattering_state"


class ChainOrderError(SingscatError):
    """Chain positions are not strictly increasing."""
    tag = "chain_order"


class NoConvergence(SingscatError):
    """Cell refinement hit its cap before successive results agreed."""
    tag = "no_convergence"

    def __init__(self, message: str, last_iterates=None):
        super().__init__(message)
        self.last_iterates = last_iterates


class TransferOverflow(SingscatError):
    """Hyperbolic growth exceeded the representable range."""
    tag = "overflow"


class PrecisionLoss(SingscatError):
    """Rounding of an argument leaves the answer without meaningful digits."""
    tag = "precision_loss"


class BracketError(SingscatError):
    """A root bracket did not isolate the requested sign change."""
    tag = "bracket_error"


class InsufficientData(SingscatError):
    """Too few usable rows to fit a convergence order."""
    tag = "insufficient_data"
