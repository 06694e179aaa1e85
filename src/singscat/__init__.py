"""Scattering theory of point potentials c * delta^m on the line.

Closed-form junction matrices for the exponents and couplings that admit
one, scattering amplitudes and bound states built on them, the s-wave
reduction for singular shells, and a mollifier lab that verifies the
closed forms numerically and certifies the divergent regimes.

Every public name loads its module on first use: importing the package
loads no submodule, and __getattr__ (PEP 562) imports the module that
defines a name the first time the name is looked up, then caches it in
the package namespace.  Only the mollifier lab's names load numpy.
"""

__version__ = "0.1.0"

__all__ = [
    # core: the 2x2 matrix, point and shell potentials, free flight
    "Mat2",
    "PotentialSpec",
    "ShellPotentialSpec",
    "PiecewiseSolution",
    "free_propagators",
    "free_transfer",
    # errors: the exceptions, each with the tag the CLI prints
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
    # junction: regimes of (m, c) and their junction matrices
    "Regime",
    "RegimeKind",
    "IvChoice",
    "classify_regime",
    "junction_matrix",
    "RESONANCE_TOL",
    # radial: the s-wave of a spherical shell
    "RadialResult",
    "s_wave_solve",
    "radial_wavefunction",
    # scatter: amplitudes, sweeps, chains and bound states
    "ScatteringResult",
    "SweepRow",
    "BoundSpectrum",
    "scattering_amplitudes",
    "transmission_curve",
    "bound_states",
    "compose_chain",
    "evaluate_solution",
    # mollifier: the lab, which loads numpy
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
]

# The modules that define the names of __all__, searched in this order.
_MODULES = ("core", "errors", "junction", "radial", "scatter", "mollifier")


def __getattr__(name: str):
    from importlib import import_module

    if name in _MODULES:  # importing a submodule binds it in the package
        return import_module(f"{__name__}.{name}")
    if name in __all__:
        for module in map(__getattr__, _MODULES):
            if hasattr(module, name):
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__))
