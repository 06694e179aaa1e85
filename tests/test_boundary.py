"""The boundary rule: every number a caller passes in, as a record field or
an argument, is a real number (a numbers.Real that is not a bool), or the
call raises ValueError, never TypeError, and never takes it as given."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import singscat
from singscat import (
    GAUSSIAN,
    TOP_HAT,
    TRIANGLE,
    ConvergenceRow,
    InvalidExponent,
    IvChoice,
    Mat2,
    MollifierShape,
    PiecewiseSolution,
    PotentialSpec,
    RegularizedPotential,
    ShellPotentialSpec,
    bound_states,
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
from singscat.core import check_phase, free_propagators
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
    "MollifierShape.error_exponents.m": (
        lambda x: TRIANGLE.error_exponents(x), 1.0, ValueError
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
    "check_phase.x": (lambda x: check_phase(1.0, x), 1.0, ValueError),
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
    "evaluate_solution.left_coeffs": (
        lambda x: evaluate_solution(
            PiecewiseSolution(1.0, (1.0, x), _JUNCTION), [-0.5, 0.5]
        ),
        0.0,
        ValueError,
    ),
    "radial_wavefunction.r": (
        lambda x: radial_wavefunction(s_wave_solve(_SHELL, 1.0), [0.5, x]),
        1.0,
        ValueError,
    ),
}

# None of these is a real number: a bool is refused though it is a
# numbers.Real, a 0-d array though math.isfinite takes it, a str though
# numpy parses it, and an int no float holds though it is an int.
_NOT_NUMBERS = [True, "1", np.array(1.0), 1j, None, 10**400]


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


# Values of the wrong type, or of no use, for any argument: the refusals of
# the property below and of the named regressions after it.
_ODD = [
    None, "1", True, 1j, np.array(1.0), [1.0], (1.0,), object(), 10**400,
    2**70, 10**5000, np.int64(3), np.float32(1.5),
]

_ROWS = [
    ConvergenceRow(eps, _JUNCTION, 1e-3 * eps, 0.0) for eps in (0.1, 0.05, 0.025)
]

# Every callable of __all__ with valid arguments, optional ones included.
_CALLS = {
    "Mat2": (1.0, 0.0, 0.0, 1.0),
    "PotentialSpec": (1.0, -2.0),
    "ShellPotentialSpec": (_SPEC, 1.0),
    "PiecewiseSolution": (1.0, (1.0, 0.0), _JUNCTION),
    "free_propagators": (1.0, 0.5),
    "free_transfer": (1.0, 0.5),
    "SingscatError": ("message",),
    "InvalidExponent": ("message",),
    "UndefinedRegime": ("reason",),
    "MissingChoice": ("message",),
    "NonPositiveEnergy": ("message",),
    "NoScatteringState": ("message",),
    "ChainOrderError": ("message",),
    "NoConvergence": ("message", None),
    "TransferOverflow": ("message",),
    "PrecisionLoss": ("message",),
    "BracketError": ("message",),
    "InsufficientData": ("message",),
    "Regime": (singscat.RegimeKind.STANDARD_DELTA, None, None),
    "RegimeKind": ("standard_delta",),
    "IvChoice": (1, 0.5),
    "classify_regime": (_SPEC,),
    "junction_matrix": (_SPEC, None),
    "RadialResult": (1.0, 1.0, 0.5, 1.0, 1.0, (1.0, 0.0)),
    "s_wave_solve": (_SHELL, 1.0, None),
    "radial_wavefunction": (s_wave_solve(_SHELL, 1.0), [0.5, 1.5]),
    "ScatteringResult": (1.0, 0j, 1 + 0j, 0.0, 1.0, 1.0, 0.0),
    "SweepRow": (1.0, None, ""),
    "BoundSpectrum": ("none", ()),
    "scattering_amplitudes": (_JUNCTION, 1.0),
    "transmission_curve": (_JUNCTION, [1.0, 2.0]),
    "bound_states": (_JUNCTION,),
    "compose_chain": ([(0.0, _JUNCTION)], 1.0),
    "evaluate_solution": (PiecewiseSolution(1.0, (1.0, 0.0), _JUNCTION), [-0.5, 0.5]),
    "MollifierShape": ("x", 1.0, TRIANGLE.profile, 1.0),
    "RegularizedPotential": (_SPEC, TOP_HAT, 0.1),
    "ConvergenceRow": (0.1, _JUNCTION, 0.0, 0.0, ""),
    "TOP_HAT": (0.25,),
    "TRIANGLE": (0.25,),
    "COSINE_BUMP": (0.25,),
    "GAUSSIAN": (0.25,),
    "numeric_transfer": (_POT, 1.0),
    "effective_junction": (_POT, 1.0),
    "convergence_sweep": (_SPEC, TOP_HAT, [0.1, 0.05], 1.0, None),
    "estimate_order": (_ROWS,),
    "certify_convergence": (_ROWS,),
    "resonant_search": (TOP_HAT, 1),
}


def test_every_public_callable_has_valid_arguments_listed():
    # a new public name joins the property below by joining _CALLS
    callables = {name for name in singscat.__all__ if callable(getattr(singscat, name))}
    assert callables == set(_CALLS)


@pytest.mark.parametrize("name", sorted(_CALLS))
def test_odd_arguments_raise_only_the_rule_s_errors_and_never_warn(name):
    # each argument in turn takes each odd value, the others stay valid; a
    # call may take the value, or refuse it with a SingscatError or a
    # ValueError, never a TypeError or another error, and never warns
    call, valid = getattr(singscat, name), _CALLS[name]
    call(*valid)
    for place in range(len(valid)):
        for value in _ODD:
            args = valid[:place] + (value,) + valid[place + 1 :]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    call(*args)
                except (singscat.SingscatError, ValueError):
                    pass
            assert caught == [], (name, place, value)


def test_check_phase_refuses_an_x_that_is_not_a_real_number():
    check_phase(1.0, 1.0)
    check_phase(1.0, 2)
    for x in (None, "1", 1j, [1.0], object(), True, np.array(1.0), 10**400):
        with pytest.raises(ValueError, match="x must be a real number"):
            check_phase(1.0, x)


def test_free_propagators_refuse_inputs_that_are_not_real_numbers():
    for value in (None, "1", True, 1j, object(), [1.0, None], np.array([1.0 + 0j])):
        for args in ((value, 0.5), (1.0, value)):
            with pytest.raises(ValueError, match="must hold real numbers"):
                free_propagators(*args)
    # floats and ints take the one path they took, to the bit
    ints = free_propagators(np.arange(-3, 4), 2)
    floats = free_propagators(np.arange(-3.0, 4.0), 2.0)
    assert ints.tobytes() == floats.tobytes()


# sequence arguments that cannot be iterated: not a sequence, ValueError
_NOT_SEQUENCES = [None, True, 1.0, 1j, np.array(1.0), object()]
_KINDS = ["None", "bool", "float", "complex", "0-d_array", "object"]


@pytest.mark.parametrize("items", _NOT_SEQUENCES, ids=_KINDS)
def test_transmission_curve_refuses_a_k_grid_that_is_not_a_sequence(items):
    with pytest.raises(ValueError, match="k_grid must be a sequence"):
        transmission_curve(_JUNCTION, items)


@pytest.mark.parametrize("items", _NOT_SEQUENCES, ids=_KINDS)
def test_evaluate_solution_refuses_xs_that_are_not_a_sequence(items):
    solution = PiecewiseSolution(1.0, (1.0, 0.0), _JUNCTION)
    with pytest.raises(ValueError, match="xs must be a sequence"):
        evaluate_solution(solution, items)


@pytest.mark.parametrize("items", _NOT_SEQUENCES, ids=_KINDS)
def test_radial_wavefunction_refuses_rs_that_are_not_a_sequence(items):
    with pytest.raises(ValueError, match="rs must be a sequence"):
        radial_wavefunction(s_wave_solve(_SHELL, 1.0), items)


@pytest.mark.parametrize("items", _NOT_SEQUENCES, ids=_KINDS)
def test_convergence_sweep_refuses_an_eps_list_that_is_not_a_sequence(items):
    with pytest.raises(ValueError, match="eps_list must be a sequence"):
        convergence_sweep(_SPEC, TOP_HAT, items, 1.0)


@pytest.mark.parametrize("items", _NOT_SEQUENCES, ids=_KINDS)
def test_estimate_order_refuses_rows_that_are_not_a_sequence(items):
    with pytest.raises(ValueError, match="rows must be a sequence"):
        singscat.estimate_order(items)


@pytest.mark.parametrize("items", _NOT_SEQUENCES, ids=_KINDS)
def test_certify_convergence_refuses_rows_that_are_not_a_sequence(items):
    with pytest.raises(ValueError, match="rows must be a sequence"):
        singscat.certify_convergence(items)


def _bits(values) -> list[str]:
    """Each value's float.hex, or its repr where it is not a Python float."""
    return [x.hex() if type(x) is float else repr(x) for x in values]


# Single precision given for a number gives the answer of that number as a
# Python float, bit for bit and in type: the parent kept np.float32 in the
# records and let it into the arithmetic.


def test_a_float32_shell_radius_gives_the_phase_shift_of_its_float():
    # the parent's delta0 was 1.7e-6 (relative) off at k = 7
    a = np.float32(1.3)
    got = s_wave_solve(ShellPotentialSpec(_SPEC, a), 7.0)
    want = s_wave_solve(ShellPotentialSpec(_SPEC, float(a)), 7.0)
    assert _bits(got[:5]) == _bits(want[:5])


def test_a_float32_coupling_gives_the_chain_of_its_float():
    # the parent returned a Mat2 of np.float32 entries, 6.6e-8 off
    def chain(c):
        j = junction_matrix(PotentialSpec(1.0, c))
        return compose_chain([(0.0, j), (0.5, j), (1.25, j)], 2.0)

    c = np.float32(0.1)
    assert _bits(chain(c)) == _bits(chain(float(c)))


def test_a_float32_eps_gives_the_effective_junction_of_its_float():
    # the parent moved M21 by 2.2e-8, where the lab's tolerance is 1e-10
    def junction(eps):
        pot = RegularizedPotential(PotentialSpec(1.0, -1.0), GAUSSIAN, eps)
        return effective_junction(pot, 1.0)

    eps = np.float32(0.01)
    assert _bits(junction(eps)) == _bits(junction(float(eps)))


def test_a_float32_coupling_gives_bound_states_of_its_float():
    # the parent returned its kappa as np.float32(1.1)
    def kappas(c):
        return bound_states(junction_matrix(PotentialSpec(1.0, c))).kappas

    c = np.float32(-2.2)
    assert _bits(kappas(c)) == _bits(kappas(float(c)))


def test_a_float32_energy_gives_the_samples_of_its_float():
    # the parent computed psi' in single precision from the record's k
    def samples(k):
        solution = PiecewiseSolution(k, (1.0, 0.0), _JUNCTION)
        return evaluate_solution(solution, [0.5, 2.0])

    k = np.float32(1.3)
    assert _bits(sum(samples(k), ())) == _bits(sum(samples(float(k)), ()))


def test_a_float32_coefficient_gives_the_samples_of_its_float():
    # the parent computed psi and psi' in single precision from the record's
    # left coefficients, and let a str coefficient raise TypeError
    def samples(coeffs):
        solution = PiecewiseSolution(1.3, coeffs, _JUNCTION)
        return evaluate_solution(solution, [-0.5, 0.0, 2.0])

    alpha = np.float32(1.1)
    assert _bits(sum(samples((alpha, 0.0)), ())) == _bits(
        sum(samples((float(alpha), 0.0)), ())
    )
    right = PiecewiseSolution(1.3, (alpha, 0.0), _JUNCTION).right_coeffs
    assert _bits(right) == _bits(_JUNCTION.apply((float(alpha), 0.0)))
    with pytest.raises(ValueError, match="left coefficient must be a real number, got str"):
        samples((1.0, "0"))


def test_ints_past_2_53_are_taken_as_their_floats():
    # the parent refused both as "h must hold real numbers, got object"
    assert _bits(free_transfer(1.0, 2**70)) == _bits(free_transfer(1.0, float(2**70)))
    # at k = 2^-80 the gap's phase sqrt(k) 2^70 = 2^30 is under the phase
    # limit, which refuses the same gap at k = 1
    got = compose_chain([(0.0, _JUNCTION), (2**70, _JUNCTION)], 2.0**-80)
    want = compose_chain([(0.0, _JUNCTION), (float(2**70), _JUNCTION)], 2.0**-80)
    assert _bits(got) == _bits(want)


# field name in the message: a record built with the number x there
_FIELDS = {
    "exponent": lambda x: PotentialSpec(x, -2.0),
    "coupling": lambda x: PotentialSpec(1.0, x),
    "shell radius": lambda x: ShellPotentialSpec(_SPEC, x),
    "b": lambda x: IvChoice(-1, x),
}


@pytest.mark.parametrize("field", sorted(_FIELDS))
def test_an_int_past_the_float_range_is_refused_naming_its_field(field):
    # the parent formatted the value into its message, and str() of a
    # 5001-digit int raised Python's own digit-limit error instead
    with pytest.raises(ValueError) as refusal:
        _FIELDS[field](10**5000)
    message = f"{field} must be a real number within the float range, got int"
    assert str(refusal.value) == message
