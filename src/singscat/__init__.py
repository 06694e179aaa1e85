"""Scattering theory of point potentials c * delta^m on the line.

Closed-form junction matrices for the exponents and couplings that admit
one, scattering amplitudes and bound states built on them, the s-wave
reduction for singular shells, and a mollifier lab that verifies the
closed forms numerically and certifies the divergent regimes.

Importing the package loads no numpy: the closed forms need none.  The
mollifier lab's names are loaded with singscat.mollifier, and numpy with
it, the first time one of them is looked up.
"""

from .core import (
    Mat2,
    PiecewiseSolution,
    PotentialSpec,
    ShellPotentialSpec,
    free_propagators,
    free_transfer,
)
from .errors import (
    BracketError,
    ChainOrderError,
    InsufficientData,
    InvalidExponent,
    MissingChoice,
    NoConvergence,
    NonPositiveEnergy,
    NoScatteringState,
    PrecisionLoss,
    SingscatError,
    TransferOverflow,
    UndefinedRegime,
)
from .junction import (
    RESONANCE_TOL,
    IvChoice,
    Regime,
    RegimeKind,
    classify_regime,
    junction_matrix,
    resonant_couplings,
)
from .radial import (
    RadialResult,
    radial_wavefunction,
    s_wave_solve,
)
from .scatter import (
    BoundSpectrum,
    ScatteringResult,
    SweepRow,
    bound_states,
    compose_chain,
    evaluate_solution,
    scattering_amplitudes,
    transmission_curve,
)

__version__ = "0.1.0"

__all__ = [
    "Mat2",
    "PotentialSpec",
    "ShellPotentialSpec",
    "PiecewiseSolution",
    "free_propagators",
    "free_transfer",
    "Regime",
    "RegimeKind",
    "IvChoice",
    "classify_regime",
    "junction_matrix",
    "resonant_couplings",
    "RESONANCE_TOL",
    "ScatteringResult",
    "SweepRow",
    "BoundSpectrum",
    "scattering_amplitudes",
    "transmission_curve",
    "bound_states",
    "compose_chain",
    "evaluate_solution",
    "RadialResult",
    "s_wave_solve",
    "radial_wavefunction",
    "MollifierShape",
    "RegularizedPotential",
    "ConvergenceRow",
    "TOP_HAT",
    "TRIANGLE",
    "COSINE_BUMP",
    "GAUSSIAN",
    "SHAPES",
    "numeric_transfer",
    "effective_junction",
    "convergence_sweep",
    "estimate_order",
    "certify_convergence",
    "resonant_search",
    "SingscatError",
    "InvalidExponent",
    "UndefinedRegime",
    "MissingChoice",
    "NonPositiveEnergy",
    "NoScatteringState",
    "ChainOrderError",
    "NoConvergence",
    "TransferOverflow",
    "PrecisionLoss",
    "BracketError",
    "InsufficientData",
]


# The names of __all__ not bound above are the mollifier lab's, looked up
# through __getattr__ (PEP 562), which caches each in globals().
def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import mollifier

    value = globals()[name] = getattr(mollifier, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__))
