"""Scattering theory of point potentials c * delta^m on the line.

Closed-form junction matrices for the exponents and couplings that admit
one, scattering amplitudes and bound states built on them, the s-wave
reduction for singular shells, and a mollifier lab that verifies the
closed forms numerically and certifies the divergent regimes.

Every public name loads its module on first use: importing the package
loads no submodule, and __getattr__ (PEP 562) imports the one module
that defines a name, plus whatever that module imports, the first time
the name is looked up, then caches it in the package namespace.  Only
the mollifier lab's names load numpy.
"""

__version__ = "0.1.0"

# The public names, grouped by the module that defines each.
_EXPORTS = {
    # the 2x2 matrix, point and shell potentials, free flight
    "core": (
        "Mat2", "PotentialSpec", "ShellPotentialSpec", "PiecewiseSolution",
        "free_propagators", "free_transfer",
    ),
    # the exceptions, each with the tag the CLI prints
    "errors": (
        "SingscatError", "InvalidExponent", "UndefinedRegime", "MissingChoice",
        "NonPositiveEnergy", "NoScatteringState", "ChainOrderError", "NoConvergence",
        "TransferOverflow", "PrecisionLoss", "BracketError", "InsufficientData",
    ),
    # regimes of (m, c) and their junction matrices
    "junction": (
        "Regime", "RegimeKind", "IvChoice", "classify_regime", "junction_matrix",
        "RESONANCE_TOL",
    ),
    # the s-wave of a spherical shell
    "radial": ("RadialResult", "s_wave_solve", "radial_wavefunction"),
    # amplitudes, sweeps, chains and bound states
    "scatter": (
        "ScatteringResult", "SweepRow", "BoundSpectrum", "scattering_amplitudes",
        "transmission_curve", "bound_states", "compose_chain", "evaluate_solution",
    ),
    # the lab, which loads numpy
    "mollifier": (
        "MollifierShape", "RegularizedPotential", "ConvergenceRow",
        "TOP_HAT", "TRIANGLE", "COSINE_BUMP", "GAUSSIAN", "SHAPES",
        "numeric_transfer", "effective_junction", "convergence_sweep",
        "estimate_order", "certify_convergence", "resonant_search",
    ),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
# Each public name's module.
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:  # importing a submodule binds it in the package
        return import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_OWNER[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__))
