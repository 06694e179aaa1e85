"""The result and input records are tuples: immutable, slot-free, checked
on every construction path, with the Name(field=value, ...) repr."""

from __future__ import annotations

import copy
import math
import pickle
import sys
from unittest import mock

import pytest

import singscat
from singscat import (
    TOP_HAT,
    TRIANGLE,
    BoundSpectrum,
    ConvergenceRow,
    InvalidExponent,
    IvChoice,
    Mat2,
    MollifierShape,
    PiecewiseSolution,
    PotentialSpec,
    RadialResult,
    Regime,
    RegimeKind,
    RegularizedPotential,
    ScatteringResult,
    ShellPotentialSpec,
    SweepRow,
    classify_regime,
    junction_matrix,
    s_wave_solve,
    scattering_amplitudes,
    transmission_curve,
)

_SPEC = PotentialSpec(1.0, -2.0)
_JUNCTION = Mat2(1.0, 0.0, -2.0, 1.0)
_RESULT = scattering_amplitudes(_JUNCTION, 2.0)

RECORDS = {
    "Mat2": _JUNCTION,
    "PotentialSpec": _SPEC,
    "ShellPotentialSpec": ShellPotentialSpec(_SPEC, 1.5),
    "PiecewiseSolution": PiecewiseSolution(1.0, (1.0, 0.0), _JUNCTION),
    "Regime": Regime(RegimeKind.RESONANT_SQUARE, n=2),
    "IvChoice": IvChoice(-1, 0.5),
    "RadialResult": RadialResult(1.0, 1.5, 0.25, 0.5, 0.75, (0.5, -0.25)),
    "ScatteringResult": _RESULT,
    "SweepRow": SweepRow(2.0, _RESULT),
    "BoundSpectrum": BoundSpectrum("discrete", (0.5, 2.0)),
    "MollifierShape": TRIANGLE,
    "RegularizedPotential": RegularizedPotential(_SPEC, TOP_HAT, 0.1),
    "ConvergenceRow": ConvergenceRow(1e-3, _JUNCTION, 1e-4, 0.0),
}

# (record, field, a value its checks refuse, the exception they raise)
REFUSALS = {
    "Mat2": ("m11", math.inf, ValueError),
    "PotentialSpec": ("m", 0.0, InvalidExponent),
    "ShellPotentialSpec": ("a", -1.0, ValueError),
    "IvChoice": ("a", 2, ValueError),
    "MollifierShape": ("edge_order", 2.0, ValueError),
    "RegularizedPotential": ("eps", 0.0, ValueError),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable_tuples(name):
    record = RECORDS[name]
    assert type(record) is getattr(singscat, name)
    assert isinstance(record, tuple)
    assert tuple(record) == tuple(getattr(record, f) for f in record._fields)
    # no instance dict: __slots__ = () on every class of the record
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.extra = 1.0


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"MollifierShape"}))
def test_repr_names_every_field(name):
    record = RECORDS[name]
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{name}({fields})"


def test_shape_repr_leaves_out_the_profile():
    assert repr(TOP_HAT) == "MollifierShape(name='tophat', half_support=0.5, edge_order=None)"
    assert repr(TRIANGLE) == "MollifierShape(name='triangle', half_support=1.0, edge_order=1.0)"


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_replace_and_make_keep_the_checks(name):
    record = RECORDS[name]
    field, bad, error = REFUSALS[name]
    with pytest.raises(error):
        record._replace(**{field: bad})
    fields = [bad if f == field else getattr(record, f) for f in record._fields]
    with pytest.raises(error):
        type(record)._make(fields)
    # a good value still goes through
    assert record._replace(**{field: getattr(record, field)}) == record
    assert type(record._replace()) is type(record)


def test_records_compare_and_unpack_as_tuples():
    assert Mat2.identity() == (1.0, 0.0, 0.0, 1.0)
    assert type(Mat2.identity()) is Mat2
    m11, m12, m21, m22 = _JUNCTION
    assert (m11, m12, m21, m22) == (1.0, 0.0, -2.0, 1.0)
    assert PotentialSpec(1.0, -2.0) == _SPEC and hash(PotentialSpec(1.0, -2.0)) == hash(_SPEC)
    assert SweepRow(2.0).result is None and SweepRow(2.0).error == ""


def test_records_cover_every_tuple_class_of_the_package():
    public = {
        name
        for name in singscat.__all__
        if isinstance(getattr(singscat, name), type)
        and issubclass(getattr(singscat, name), tuple)
    }
    assert public == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_survive_pickle_and_deepcopy(name):
    record = RECORDS[name]
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(clone) is type(record)
        assert clone == record and repr(clone) == repr(record)


def test_field_defaults_are_pinned():
    assert Regime._field_defaults == {"n": None, "reason": None}
    assert SweepRow._field_defaults == {"result": None, "error": ""}
    assert BoundSpectrum._field_defaults == {"kappas": ()}
    assert ConvergenceRow._field_defaults == {"error": ""}
    # a checked record builds through its tuple's __new__, defaults included
    assert MollifierShape._field_defaults == {"edge_order": None}
    assert MollifierShape("tophat", 0.5, TOP_HAT.profile).edge_order is None


# A plain tuple compares equal to a namedtuple, so the records that the
# per-energy paths build with tuple.__new__ have their types pinned here.


@pytest.mark.parametrize("numpy_loaded", [True, False])
def test_curve_rows_keep_their_record_types(numpy_loaded):
    if numpy_loaded:
        import numpy  # noqa: F401  the array kernel runs once numpy is loaded
    grid = [-1.0, 0.5, math.nan, 2.0]
    with mock.patch.dict(sys.modules, {} if numpy_loaded else {"numpy": None}):
        rows = transmission_curve(_JUNCTION, grid)
        rows += transmission_curve(Mat2(-1.0, 0.0, 0.0, 1.0), [2.0])
    tags = ["non_positive_energy", "", "non_positive_energy", "", "no_scattering_state"]
    assert [row.error for row in rows] == tags
    for row in rows:
        assert type(row) is SweepRow
        assert type(row.result) is (type(None) if row.error else ScatteringResult)
    assert rows[3] == SweepRow(2.0, _RESULT) and repr(rows[3]) == repr(SweepRow(2.0, _RESULT))
    assert repr(rows[4]) == repr(SweepRow(2.0, error="no_scattering_state"))


def test_s_wave_result_keeps_its_record_type():
    result = s_wave_solve(ShellPotentialSpec(_SPEC, 1.5), 2.0)
    assert type(result) is RadialResult
    assert result == RadialResult(*result) and repr(result) == repr(RadialResult(*result))


@pytest.mark.parametrize(
    "spec, kind",
    [
        (PotentialSpec(0.5, 1.0), RegimeKind.NO_EFFECT),
        (_SPEC, RegimeKind.STANDARD_DELTA),
        (PotentialSpec(3.0, -1.0), RegimeKind.INDETERMINATE),
    ],
)
def test_parameterless_regimes_equal_their_built_records(spec, kind):
    regime = classify_regime(spec)
    assert type(regime) is Regime and regime == Regime(kind)
    assert regime.kind is kind and regime.n is None and regime.reason is None


def test_records_refuse_numbers_that_are_not_real():
    # A 0-d array passes math.isfinite but can change after the record is
    # built.  With m = np.array(1.0) in a shell's base, s_wave_solve(shell,
    # 1.0) and then m[()] = 0.5 left s_wave_solve's identity-keyed junction
    # stale: delta0 read the m = 1 answer 1.5068..., where a fresh shell
    # gives 0.0.  So every number field refuses what is not numbers.Real,
    # with the error its own check raises.
    np = pytest.importorskip("numpy")
    m = np.array(1.0)
    with pytest.raises(InvalidExponent):
        ShellPotentialSpec(PotentialSpec(m, -2.0), 1.0)
    refused = [
        (lambda x: PotentialSpec(x, -2.0), InvalidExponent),
        (lambda x: PotentialSpec(1.0, x), ValueError),
        (lambda x: ShellPotentialSpec(_SPEC, x), ValueError),
        (lambda x: IvChoice(x, 0.5), ValueError),
        (lambda x: IvChoice(-1, x), ValueError),
    ]
    for build, error in refused:
        for value in (np.array(1.0), np.array(-1), complex(1.0, 0.0), "1.0"):
            with pytest.raises(error):
                build(value)
    # numpy's scalar types are registered as real numbers, and kept as
    # Python floats
    spec = PotentialSpec(np.float64(1.0), np.int64(-2))
    assert type(spec.m) is type(spec.c) is float and spec == (1.0, -2.0)
    choice = IvChoice(np.int64(-1), np.float32(0.5))
    assert type(choice.a) is type(choice.b) is float and choice == (-1.0, 0.5)
    shell = ShellPotentialSpec(spec, np.float64(1.5))
    assert type(shell.a) is float and shell.a == 1.5


def test_regime_functions_refuse_a_plain_tuple():
    # A plain (m, c) tuple once passed: classify_regime((1.0, -2.0)) gave a
    # standard delta, junction_matrix((0.5, 2)) the identity, and
    # junction_matrix((1, 2)) an AttributeError on p.c.  Like a shell's
    # base, the spec must be the record, or ValueError is raised; a plain
    # (base, a) tuple is refused as a shell before its base is read.
    for p in ((1.0, -2.0), (0.5, 2), (1, 2), [1.0, -2.0]):
        for call in (classify_regime, junction_matrix):
            with pytest.raises(ValueError, match="must be a PotentialSpec"):
                call(p)
        with pytest.raises(ValueError, match="must be a PotentialSpec"):
            ShellPotentialSpec(p, 1.5)
        with pytest.raises(ValueError, match="must be a ShellPotentialSpec, got tuple"):
            s_wave_solve((p, 1.5), 2.0)
