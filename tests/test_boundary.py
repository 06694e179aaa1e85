"""The boundary rule: every number a caller passes in, as a record field or
an argument, is a real number (a numbers.Real that is not a bool), or the
call raises ValueError, never TypeError, and never takes it as given."""

from __future__ import annotations

import numpy as np
import pytest

from singscat import (
    TOP_HAT,
    TRIANGLE,
    InvalidExponent,
    IvChoice,
    Mat2,
    MollifierShape,
    PiecewiseSolution,
    PotentialSpec,
    RegularizedPotential,
    ShellPotentialSpec,
    compose_chain,
    convergence_sweep,
    effective_junction,
    evaluate_solution,
    free_transfer,
    junction_matrix,
    numeric_transfer,
    radial_wavefunction,
    resonant_search,
    s_wave_solve,
    scattering_amplitudes,
    transmission_curve,
)
from singscat.core import check_phase
from singscat.mollifier import transfer_fixed_cells

_SPEC = PotentialSpec(1.0, -2.0)
_SHELL = ShellPotentialSpec(_SPEC, 1.0)
_JUNCTION = junction_matrix(_SPEC)
_POT = RegularizedPotential(_SPEC, TOP_HAT, 0.1)

# name: (call of the one number x, a real number it takes, the error that
# refusing x raises)
_NUMBERS = {
    "PotentialSpec.m": (lambda x: PotentialSpec(x, -2.0), 1.0, InvalidExponent),
    "PotentialSpec.c": (lambda x: PotentialSpec(1.0, x), 1.0, ValueError),
    "ShellPotentialSpec.a": (lambda x: ShellPotentialSpec(_SPEC, x), 1.0, ValueError),
    "IvChoice.a": (lambda x: IvChoice(x, 0.5), 1, ValueError),
    "IvChoice.b": (lambda x: IvChoice(-1, x), 1.0, ValueError),
    "MollifierShape.half_support": (
        lambda x: MollifierShape("x", x, TOP_HAT.profile), 0.5, ValueError
    ),
    "MollifierShape.edge_order": (
        lambda x: MollifierShape("x", 1.0, TRIANGLE.profile, edge_order=x), 1.0, ValueError
    ),
    "RegularizedPotential.eps": (
        lambda x: RegularizedPotential(_SPEC, TOP_HAT, x), 0.1, ValueError
    ),
    "Mat2.m11": (lambda x: Mat2(x, 0.0, 0.0, 1.0), 1.0, ValueError),
    "Mat2.m22": (lambda x: Mat2(1.0, 0.0, 0.0, x), 1.0, ValueError),
    "scattering_amplitudes.k": (
        lambda x: scattering_amplitudes(_JUNCTION, x), 1.0, ValueError
    ),
    "transmission_curve.k": (
        lambda x: transmission_curve(_JUNCTION, [1.0, x]), 2.0, ValueError
    ),
    "compose_chain.k": (lambda x: compose_chain([(0.0, _JUNCTION)], x), 1.0, ValueError),
    "compose_chain.position": (
        lambda x: compose_chain([(-1.0, _JUNCTION), (x, _JUNCTION)], 1.0), 1.0, ValueError
    ),
    "s_wave_solve.k": (lambda x: s_wave_solve(_SHELL, x), 1.0, ValueError),
    "free_transfer.k": (lambda x: free_transfer(x, 1.0), 1.0, ValueError),
    "free_transfer.h": (lambda x: free_transfer(1.0, x), 1.0, ValueError),
    "check_phase.k": (lambda x: check_phase(x, 1.0), 1.0, ValueError),
    "numeric_transfer.k": (lambda x: numeric_transfer(_POT, x), 1.0, ValueError),
    "numeric_transfer.k.list": (lambda x: numeric_transfer([_POT], x), 1.0, ValueError),
    "transfer_fixed_cells.k": (
        lambda x: transfer_fixed_cells(_POT, x, 64), 1.0, ValueError
    ),
    "transfer_fixed_cells.n_cells": (
        lambda x: transfer_fixed_cells(_POT, 1.0, x), 64, ValueError
    ),
    "effective_junction.k": (lambda x: effective_junction(_POT, x), 1.0, ValueError),
    "convergence_sweep.k": (
        lambda x: convergence_sweep(_SPEC, TOP_HAT, [0.1], x), 1.0, ValueError
    ),
    "convergence_sweep.eps": (
        lambda x: convergence_sweep(_SPEC, TOP_HAT, [0.1, x], 1.0), 0.01, ValueError
    ),
    "resonant_search.n": (lambda x: resonant_search(TOP_HAT, x), 1, ValueError),
    "evaluate_solution.x": (
        lambda x: evaluate_solution(
            PiecewiseSolution(1.0, (1.0, 0.0), _JUNCTION), [0.5, x]
        ),
        1.0,
        ValueError,
    ),
    "radial_wavefunction.r": (
        lambda x: radial_wavefunction(s_wave_solve(_SHELL, 1.0), [0.5, x]),
        1.0,
        ValueError,
    ),
}

# None of these is a real number: a bool is refused though it is a
# numbers.Real, a 0-d array though math.isfinite takes it, and a str though
# numpy parses it.
_NOT_NUMBERS = [True, "1", np.array(1.0), 1j, None]


@pytest.mark.parametrize("number", sorted(_NUMBERS))
def test_every_number_refuses_what_is_not_a_real_number(number):
    call, real, error = _NUMBERS[number]
    call(real)
    for value in _NOT_NUMBERS:
        if value is None and number == "MollifierShape.edge_order":
            continue  # None declares no edge term
        with pytest.raises(error):
            call(value)


def test_every_exponent_refusal_is_a_value_error():
    # InvalidExponent keeps its tag and its class, and meets the rule too
    for m in (True, "1", np.array(1.0), 1j, None, 0.0, -1.0, float("nan")):
        with pytest.raises(ValueError) as refusal:
            PotentialSpec(m, -2.0)
        assert type(refusal.value) is InvalidExponent
