"""Scattering theory of point potentials c * delta^m on the line.

Closed-form junction matrices for the exponents and couplings that admit
one, scattering amplitudes and bound states built on them, the s-wave
reduction for singular shells, and a mollifier lab that verifies the
closed forms numerically and certifies the divergent regimes.
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
    SingscatError,
    TransferOverflow,
    UndefinedRegime,
)
from .junction import (
    DEFAULT_RESONANCE_TOL,
    IvChoice,
    Regime,
    RegimeKind,
    classify_regime,
    junction_matrix,
    resonant_couplings,
)
from .mollifier import (
    COSINE_BUMP,
    GAUSSIAN,
    SHAPES,
    TOP_HAT,
    TRIANGLE,
    ConvergenceRow,
    MollifierShape,
    RegularizedPotential,
    certify_convergence,
    convergence_sweep,
    effective_junction,
    estimate_order,
    numeric_transfer,
    resonant_search,
)
from .radial import (
    RadialResult,
    RadialSolution,
    radial_wavefunction,
    s_wave_solution,
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
    "DEFAULT_RESONANCE_TOL",
    "ScatteringResult",
    "SweepRow",
    "BoundSpectrum",
    "scattering_amplitudes",
    "transmission_curve",
    "bound_states",
    "compose_chain",
    "evaluate_solution",
    "RadialResult",
    "RadialSolution",
    "s_wave_solve",
    "s_wave_solution",
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
    "BracketError",
    "InsufficientData",
]
