"""Exception types shared across the package.

Every failure mode that a caller may want to branch on gets its own class;
the CLI maps these onto exit codes and machine-readable tags.
"""

from __future__ import annotations


class SingscatError(Exception):
    """Base class for all package errors."""


class InvalidExponent(SingscatError):
    """The potential exponent m is not a positive finite number."""


class UndefinedRegime(SingscatError):
    """The (m, c) pair admits no junction matrix."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class MissingChoice(SingscatError):
    """The doubly indeterminate regime needs an explicit (a, b) choice."""


class NonPositiveEnergy(SingscatError):
    """An operation defined only for k > 0 was asked for k <= 0."""


class NoScatteringState(SingscatError):
    """The plane-wave matching system is inconsistent for this matrix."""


class ChainOrderError(SingscatError):
    """Chain positions are not strictly increasing."""


class NoConvergence(SingscatError):
    """Cell refinement hit its cap before successive results agreed."""

    def __init__(self, message: str, last_iterates=None):
        super().__init__(message)
        self.last_iterates = last_iterates


class TransferOverflow(SingscatError):
    """Hyperbolic growth exceeded the representable range."""


class PrecisionLoss(SingscatError):
    """Rounding of an argument leaves the answer without meaningful digits."""


class BracketError(SingscatError):
    """A root bracket did not isolate the requested sign change."""


class InsufficientData(SingscatError):
    """Too few usable rows to fit a convergence order."""


_ERROR_TAGS = {
    InvalidExponent: "invalid_exponent",
    UndefinedRegime: "undefined_regime",
    MissingChoice: "missing_choice",
    NonPositiveEnergy: "non_positive_energy",
    NoScatteringState: "no_scattering_state",
    ChainOrderError: "chain_order",
    NoConvergence: "no_convergence",
    TransferOverflow: "overflow",
    PrecisionLoss: "precision_loss",
    BracketError: "bracket_error",
    InsufficientData: "insufficient_data",
}


def error_tag(exc: BaseException) -> str:
    """Stable snake_case tag for an error, used in CSV flags and JSON docs."""
    for cls, tag in _ERROR_TAGS.items():
        if isinstance(exc, cls):
            return tag
    return "error"
