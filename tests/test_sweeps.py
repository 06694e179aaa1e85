"""Closed-form sweeps: the array amplitude kernel, the shell's per-energy
helper and the table writer.

The float.hex pins were captured from the scalar complex-arithmetic
implementation that the array kernel replaced; the properties compare the
kernel with CPython's complex arithmetic, with the one-energy path on
grids of one energy and with the row branch of a process without numpy,
and the table writer with csv_document and canonical_json.
"""

from __future__ import annotations

import json
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singscat import (
    IvChoice,
    Mat2,
    NonPositiveEnergy,
    NoScatteringState,
    PotentialSpec,
    ShellPotentialSpec,
    SingscatError,
    SweepRow,
    compose_chain,
    junction_matrix,
    s_wave_solve,
    scattering_amplitudes,
    transmission_curve,
)
from singscat import scatter
from singscat.cli import main
from singscat.serialize import canonical_json, csv_document, fmt_float, table_document

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

PIN_KS = (1e-8, 1e-3, 1.0, 1e3, 1e8)
SPECS = {
    "no_effect": (PotentialSpec(0.5, 3.0), None),
    "delta_attractive": (PotentialSpec(1.0, -2.0), None),
    "delta_repulsive": (PotentialSpec(1.0, 4.5), None),
    "resonant": (PotentialSpec(2.0, -(math.pi**2)), None),
    "indeterminate_plus": (PotentialSpec(3.0, -1.0), IvChoice(1, 1.7)),
    "indeterminate_minus": (PotentialSpec(3.0, -1.0), IvChoice(-1, 0.5)),
}


def _junctions() -> dict[str, Mat2]:
    """The five junction classes (all with J12 = 0) and a chain with J12 != 0."""
    out = {name: junction_matrix(p, choice) for name, (p, choice) in SPECS.items()}
    left = junction_matrix(PotentialSpec(1.0, -2.0))
    right = junction_matrix(PotentialSpec(1.0, 4.5))
    out["chain"] = compose_chain([(0.0, left), (0.9, right)], 1.3)
    return out


def _hexes(res) -> str:
    fields = (
        res.r.real, res.r.imag, res.t.real, res.t.imag,
        res.reflect_prob, res.transmit_prob, res.flux_residual,
    )
    return " ".join(float(v).hex() for v in fields)


# r.real r.imag t.real | t.imag R | T flux_residual, one string per PIN_KS
_SCATTER_PINS = {
    "no_effect": (
        "0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0"
        " 0x0.0p+0 0x0.0p+0"
        " 0x1.0000000000000p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0"
        " 0x0.0p+0 0x0.0p+0"
        " 0x1.0000000000000p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0"
        " 0x0.0p+0 0x0.0p+0"
        " 0x1.0000000000000p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0"
        " 0x0.0p+0 0x0.0p+0"
        " 0x1.0000000000000p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0"
        " 0x0.0p+0 0x0.0p+0"
        " 0x1.0000000000000p+0 0x0.0p+0",
    ),
    "delta_attractive": (
        "-0x1.ffffffaa19c49p-1 0x1.a36e2e6b65ccep-14 0x1.5798edc000000p-27"
        " 0x1.a36e2e6b65ccep-14 0x1.ffffffaa19c4ap-1"
        " 0x1.5798ede9635e8p-27 0x1.0000000000000p-52",
        "-0x1.ff7d0f16c2e0ap-1 0x1.02cb84868d3d6p-5 0x1.05e1d27a3ec00p-10"
        " 0x1.02cb84868d3d6p-5 0x1.ff7d0f16c2e0bp-1"
        " 0x1.05e1d27a3ee9cp-10 0x1.0000000000000p-52",
        "-0x1.0000000000000p-1 0x1.0000000000000p-1 0x1.0000000000000p-1"
        " 0x1.0000000000000p-1 0x1.0000000000001p-1"
        " 0x1.0000000000001p-1 0x1.0000000000000p-52",
        "-0x1.05e1d27a3ee9cp-10 0x1.02cb84868d3d6p-5 0x1.ff7d0f16c2e09p-1"
        " 0x1.02cb84868d3d6p-5 0x1.05e1d27a3ee9cp-10"
        " 0x1.ff7d0f16c2e09p-1 0x0.0p+0",
        "-0x1.5798ede9635e8p-27 0x1.a36e2e6b65ccep-14 0x1.ffffffaa19c48p-1"
        " 0x1.a36e2e6b65ccep-14 0x1.5798ede9635eap-27"
        " 0x1.ffffffaa19c48p-1 0x0.0p+0",
    ),
    "delta_repulsive": (
        "-0x1.ffffffef08402p-1 -0x1.74d3b7ae1a7cep-15 0x1.0f7bfe0000000p-29"
        " -0x1.74d3b7ae1a7cep-15 0x1.ffffffef08402p-1"
        " 0x1.0f7bfe7e24208p-29 0x0.0p+0",
        "-0x1.ffe61d45e5751p-1 -0x1.cc72f8ef651cbp-7 0x1.9e2ba1a8af000p-13"
        " -0x1.cc72f8ef651cbp-7 0x1.ffe61d45e5752p-1"
        " 0x1.9e2ba1a8afbd4p-13 0x1.0000000000000p-52",
        "-0x1.ab8be054741fap-1 -0x1.7c0a8e83f5717p-2 0x1.51d07eae2f818p-3"
        " -0x1.7c0a8e83f5717p-2 0x1.ab8be054741f9p-1"
        " 0x1.51d07eae2f815p-3 -0x1.0000000000000p-52",
        "-0x1.4a1ad7123a4c0p-8 -0x1.21f7b141499bep-4 0x1.fd6bca51db8b6p-1"
        " -0x1.21f7b141499bep-4 0x1.4a1ad7123a4c0p-8"
        " 0x1.fd6bca51db8b6p-1 0x0.0p+0",
        "-0x1.b2dd8bf2fd1f3p-25 -0x1.d7dbf2f737197p-13 0x1.fffffe4d22741p-1"
        " -0x1.d7dbf2f737197p-13 0x1.b2dd8bf2fd1f4p-25"
        " 0x1.fffffe4d22742p-1 0x1.0000000000000p-52",
    ),
    "resonant": (
        "-0x0.0p+0 0x0.0p+0 -0x1.0000000000000p+0"
        " 0x0.0p+0 0x0.0p+0"
        " 0x1.0000000000000p+0 0x0.0p+0",
        "-0x0.0p+0 0x0.0p+0 -0x1.0000000000000p+0"
        " 0x0.0p+0 0x0.0p+0"
        " 0x1.0000000000000p+0 0x0.0p+0",
        "-0x0.0p+0 0x0.0p+0 -0x1.0000000000000p+0"
        " 0x0.0p+0 0x0.0p+0"
        " 0x1.0000000000000p+0 0x0.0p+0",
        "-0x0.0p+0 0x0.0p+0 -0x1.0000000000000p+0"
        " 0x0.0p+0 0x0.0p+0"
        " 0x1.0000000000000p+0 0x0.0p+0",
        "-0x0.0p+0 0x0.0p+0 -0x1.0000000000000p+0"
        " 0x0.0p+0 0x0.0p+0"
        " 0x1.0000000000000p+0 0x0.0p+0",
    ),
    "indeterminate_plus": (
        "-0x1.ffffff891bb14p-1 -0x1.ed7290d70616bp-14 0x1.db913b0000000p-27"
        " -0x1.ed7290d70616bp-14 0x1.ffffff891bb14p-1"
        " 0x1.db913aff2dfc2p-27 0x0.0p+0",
        "-0x1.ff4ad6120bad3p-1 -0x1.30591118977cbp-5 0x1.6a53dbe8a5a00p-10"
        " -0x1.30591118977cbp-5 0x1.ff4ad6120bad2p-1"
        " 0x1.6a53dbe8a5985p-10 -0x1.0000000000000p-53",
        "-0x1.ad83e6bc017c7p-2 -0x1.f94fe24698563p-2 0x1.293e0ca1ff41cp-1"
        " -0x1.f94fe24698563p-2 0x1.ad83e6bc017c8p-2"
        " 0x1.293e0ca1ff41cp-1 0x0.0p+0",
        "-0x1.7a864bec0f283p-11 -0x1.b812cfc7bb2ccp-6 0x1.ffa15e6d04fc3p-1"
        " -0x1.b812cfc7bb2ccp-6 0x1.7a864bec0f282p-11"
        " 0x1.ffa15e6d04fc2p-1 -0x1.0000000000000p-53",
        "-0x1.f07f8b1299eb3p-28 -0x1.64840debe2e04p-14 0x1.ffffffc1f00eap-1"
        " -0x1.64840debe2e04p-14 0x1.f07f8b1299eb1p-28"
        " 0x1.ffffffc1f00eap-1 0x0.0p+0",
    ),
    "indeterminate_minus": (
        "-0x1.0000000000000p+0 -0x1.a36e2eb1c432dp-12 0x0.0p+0"
        " 0x1.a36e2eb1c432dp-12 0x1.000002af31dc5p+0"
        " 0x1.5798ee2308c3ap-23 -0x1.fffffaa19c55dp-53",
        "-0x1.0000000000000p+0 -0x1.030dc4ea03a72p-3 0x0.0p+0"
        " 0x1.030dc4ea03a72p-3 0x1.04189374bc6a9p+0"
        " 0x1.0624dd2f1a9fbp-6 -0x1.f7efdfbf7efdep-53",
        "-0x1.0000000000000p+0 -0x1.0000000000000p+2 0x0.0p+0"
        " 0x1.0000000000000p+2 0x1.1000000000000p+4"
        " 0x1.0000000000000p+4 0x0.0p+0",
        "-0x1.0000000000000p+0 -0x1.f9f6e4990f227p+6 0x0.0p+0"
        " 0x1.f9f6e4990f227p+6 0x1.f407fffffffffp+13"
        " 0x1.f400000000000p+13 0x1.0620ab826037dp-53",
        "-0x1.0000000000000p+0 -0x1.3880000000000p+15 0x0.0p+0"
        " 0x1.3880000000000p+15 0x1.7d78400400000p+30"
        " 0x1.7d78400000000p+30 0x0.0p+0",
    ),
    "chain": (
        "-0x1.ffffffbcdf354p-1 0x1.fbe1c5f7dea7dp-14 0x1.82fc8b90eb4c8p-30"
        " 0x1.04dd680a149f4p-15 0x1.fffffff7b16c4p-1"
        " 0x1.09d27ada698d9p-30 0x1.0000000000000p-52",
        "-0x1.ff999ca98d9d1p-1 0x1.398e5e39db47fp-5 0x1.271e30ce5634cp-13"
        " 0x1.422232318a3a0p-7 0x1.fff354858e044p-1"
        " 0x1.956f4e3f7f6a4p-14 0x1.0000000000000p-51",
        "-0x1.c5a062f86bcb7p-2 0x1.b796d3b72ae81p-1 0x1.8d30362cfbdf8p-4"
        " 0x1.e9d5b54e750d0p-3 0x1.dde571d560bbcp-1"
        " 0x1.10d47154fa213p-4 -0x1.0000000000000p-52",
        "0x1.fc76b7165cf04p-1 0x1.53bf7b13ab556p-4 0x1.487a663e94380p-7"
        " 0x1.51661bc0d5e93p-4 0x1.fc7978356428ap-1"
        " 0x1.c343e54debbdcp-8 0x1.0000000000000p-52",
        "0x1.fffffda82f9b7p-1 0x1.129671ea2e6a5p-12 0x1.bc71567000000p-24"
        " 0x1.178f727fded34p-12 0x1.fffffd9d6c021p-1"
        " 0x1.3149fef76f179p-24 0x0.0p+0",
    ),
}
_S_WAVE_PINS = {
    "no_effect": (
        "0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0",
    ),
    "delta_attractive": (
        "-0x1.bb05fadb68000p-13 0x1.c0a297e558dafp+5 0x1.3fffffea7fa44p-1",
        "-0x1.1190bd873dea0p-4 0x1.bfc57efa6b75dp+5 0x1.3fdf3aa5c76fdp-1",
        "0x1.50c9019793717p+0 0x1.787e1ba9ee2e3p+3 0x1.0acc4229f8581p-1",
        "0x1.295ffe7bf2000p-8 0x1.15d0a5acd004ep-22 0x1.0436690fe32c0p+0",
        "0x1.addbcbe000000p-20 0x1.7c6f7afa40fe2p-62 0x1.00012b0b6f966p+0",
    ),
    "delta_repulsive": (
        "-0x1.d1a8dae43028ap-14 0x1.efa6fdc3c786ep+3 0x1.2afa64f90eeb4p-3",
        "-0x1.1f9a5ca174fddp-5 0x1.ef6fd293d239cp+3 0x1.2b14e00676b56p-3",
        "-0x1.17fab619a03b6p+0 0x1.3d51c8385b35ap+3 0x1.b37110ec3041bp-3",
        "-0x1.3d8bb1d953000p-7 0x1.3cc5fd5d3fc52p-20 0x1.edf8c9a46bcb7p-1",
        "-0x1.e3902a1000000p-19 0x1.e16ef0f8a2f5bp-60 0x1.fffabe6069da7p-1",
    ),
    "resonant": (
        "0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0",
    ),
    "indeterminate_plus": (
        "-0x1.776590d117ef1p-14 0x1.421f5a8ccddacp+3 0x1.3f00cc3d8c6f5p-2",
        "-0x1.cfb061a0a019ep-6 0x1.420052d510287p+3 0x1.3f1f71461d44ap-2",
        "-0x1.a9e64a6fe5da7p-1 0x1.b76ac0509b4acp+2 0x1.df8e250446185p-2",
        "-0x1.ea98249040000p-9 0x1.7a0fd59e9b4d5p-23 0x1.f90adc09e1bfap-1",
        "-0x1.6d5e342000000p-20 0x1.12d8cbc2f7c28p-62 0x1.fffe03a408772p-1",
    ),
    "indeterminate_minus": (
        "-0x1.b5dc2392a3998p-13 0x1.b63d0673ded9dp+5 0x1.364d937520c08p-1",
        "-0x1.0e733efd5b5d9p-4 0x1.b5a575718964dp+5 0x1.36666b7d0d6aap-1",
        "0x1.dd0cd30c77fc0p-1 0x1.031281b89be5bp+3 0x1.a37758dc5ab0dp-1",
        "-0x1.12ca2a36c1a40p-1 0x1.ae999d7886a76p-9 0x1.fdef409a4ee5ap-1",
        "-0x1.6eff9e430a100p-3 0x1.12598f356e8cfp-28 0x1.ffff6a7b21a64p-1",
    ),
}


def test_scattering_results_are_pinned_bit_for_bit():
    for name, junction in _junctions().items():
        singles = [_hexes(scattering_amplitudes(junction, k)) for k in PIN_KS]
        curve = [_hexes(row.result) for row in transmission_curve(junction, PIN_KS)]
        assert singles == list(_SCATTER_PINS[name]), name
        assert curve == list(_SCATTER_PINS[name]), name


def test_s_wave_results_are_pinned_bit_for_bit():
    for name, (p, choice) in SPECS.items():
        shell = ShellPotentialSpec(p, 1.3)
        got = []
        for k in PIN_KS:
            res = s_wave_solve(shell, k, choice)
            fields = (res.delta0, res.sigma0, res.interior_amplitude)
            got.append(" ".join(x.hex() for x in fields))
        assert got == list(_S_WAVE_PINS[name]), name


# alpha beta of RadialResult.exterior_coeffs, one string per PIN_KS, for the
# shell of radius 1.3; captured from the former s_wave_solution
_EXTERIOR_PINS = {
    "no_effect": (
        "0x1.10a137e6aa316p-13 0x1.a36e2e764e082p-14",
        "0x1.50acd19309dfdp-5 0x1.02d5bd1315877p-5",
        "0x1.ed577f9c51e4bp-1 0x1.11eb3682a4c5fp-2",
        "-0x1.100d60960225fp-2 -0x1.e7c800c35cd97p+4",
        "0x1.6e822b8885eb0p-4 0x1.373f17a442641p+13",
    ),
    "delta_attractive": (
        "0x1.54c985c96ed1dp-14 -0x1.a36e2e9a8a0a3p-14",
        "0x1.a4acecd1f58b4p-6 -0x1.02f7e7c6b2b25p-5",
        "0x1.011345e9c7149p-1 -0x1.bac84e9bdf37fp-1",
        "-0x1.1487689118a3dp-2 -0x1.e72a91e1589fbp+4",
        "0x1.6e83d7aaee1d1p-4 0x1.373f14b502b73p+13",
    ),
    "delta_repulsive": (
        "0x1.3e66540b4fe88p-16 0x1.a36e2eb07fc9ap-14",
        "0x1.89554ce6d390fp-8 0x1.030c93230ac51p-5",
        "0x1.a392c9094a651p-3 0x1.f523dcb35b4a3p-1",
        "-0x1.0679131fd7b55p-2 -0x1.e90f9d0f61c23p+4",
        "0x1.6e7e684955a75p-4 0x1.373f1e3e6c0ffp+13",
    ),
    "resonant": (
        "-0x1.10a137e6aa316p-13 -0x1.a36e2e764e082p-14",
        "-0x1.50acd19309dfdp-5 -0x1.02d5bd1315877p-5",
        "-0x1.ed577f9c51e4bp-1 -0x1.11eb3682a4c5fp-2",
        "0x1.100d60960225fp-2 0x1.e7c800c35cd97p+4",
        "-0x1.6e822b8885eb0p-4 -0x1.373f17a442641p+13",
    ),
    "indeterminate_plus": (
        "0x1.53b9be2a72986p-15 0x1.a36e2eabfee80p-14",
        "0x1.a3b0b30c185d2p-7 0x1.0308545951902p-5",
        "0x1.ce1452d213ea5p-2 0x1.c8e85ffb3f5e7p-1",
        "-0x1.0c5af6f1d7bcdp-2 -0x1.e847ee3faf0a4p+4",
        "0x1.6e80bfa189650p-4 0x1.373f1a22ca079p+13",
    ),
    "indeterminate_minus": (
        "-0x1.4a75d73872222p-14 0x1.a36e2e9becf3ep-14",
        "-0x1.9837f800402acp-6 0x1.02f92e662bdb8p-5",
        "-0x1.942e1a63f2c42p-1 0x1.3a4bf89aac772p-1",
        "0x1.0ef46d17612d9p-2 -0x1.e7ee2d04c42d4p+4",
        "-0x1.6e81c0808785ep-4 0x1.373f186010b3ep+13",
    ),
}


def test_s_wave_exterior_coeffs_are_pinned_bit_for_bit():
    for name, (p, choice) in SPECS.items():
        shell = ShellPotentialSpec(p, 1.3)
        got = [
            " ".join(x.hex() for x in s_wave_solve(shell, k, choice).exterior_coeffs)
            for k in PIN_KS
        ]
        assert got == list(_EXTERIOR_PINS[name]), name


def test_failing_energies_carry_the_tag_of_their_error():
    delta = junction_matrix(PotentialSpec(1.0, -1.0))
    flip = Mat2(-1.0, 0.0, 0.0, 1.0)
    for junction, k in [(delta, 0.0), (delta, -1.0), (delta, math.nan), (flip, 1.0)]:
        with pytest.raises(SingscatError) as caught:
            scattering_amplitudes(junction, k)
        (row,) = transmission_curve(junction, [k])
        assert row.result is None
        assert row.error == caught.value.tag
    assert isinstance(caught.value, NoScatteringState)
    rows = transmission_curve(delta, [0.0, -1.0, math.nan, 2.0])
    assert [row.error for row in rows] == [NonPositiveEnergy.tag] * 3 + [""]
    with pytest.raises(ValueError, match="finite"):
        scattering_amplitudes(delta, math.inf)
    with pytest.raises(ValueError, match="finite"):
        transmission_curve(delta, [1.0, math.inf])


def test_a_matching_determinant_past_the_float_range_is_refused_on_both_paths():
    # |D| = hypot(1.5e308, 1.5e308) is past the float range: abs() of the
    # complex raises OverflowError where the kernel's np.hypot gives inf
    junction = Mat2(1.5e308, 1.5e308, 0.0, 0.0)
    with pytest.raises(NoScatteringState):
        scattering_amplitudes(junction, 1.0)
    (row,) = transmission_curve(junction, [1.0])
    assert row.error == NoScatteringState.tag


def _complex_reference(junction: Mat2, k: float) -> str:
    """The amplitudes in CPython complex arithmetic, as their float.hex."""
    q = math.sqrt(k)
    j11, j12, j21, j22 = junction.m11, junction.m12, junction.m21, junction.m22
    denom = complex(k * j12 - j21, q * (j11 + j22))
    scale = k * abs(j12) + abs(j21) + q * (abs(j11) + abs(j22))
    if abs(denom) <= 1e-14 * scale:
        return NoScatteringState.tag
    r = complex(k * j12 + j21, q * (j22 - j11)) / denom
    t = j11 * (1.0 + r) + 1j * q * j12 * (1.0 - r)
    det_j = junction.det()
    rr, tt = abs(r) ** 2, abs(t) ** 2
    flux = (tt + det_j * rr - det_j) / max(1.0, rr, tt)
    fields = (r.real, r.imag, t.real, t.imag, rr, tt, flux)
    return " ".join(x.hex() for x in fields)


def _row_text(row) -> str:
    return row.error or _hexes(row.result)


entries = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 1e-9, 1e3])
junctions = st.one_of(
    st.sampled_from(list(_junctions().values()) + [Mat2(-1.0, 0.0, 0.0, 1.0)]),
    st.builds(Mat2, entries, entries, entries, entries),
    st.builds(
        Mat2, *[st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)] * 4
    ),
)
energies = st.one_of(
    st.floats(1e-10, 1e10),
    st.floats(-5.0, 5.0),
    st.sampled_from([0.0, -0.0, math.nan, 5e-324, 1.0]),
)


@PROPERTY
@given(junctions, st.lists(energies, max_size=70))
def test_curve_equals_single_energies_and_complex_arithmetic(junction, grid):
    rows = transmission_curve(junction, grid)
    assert [row.k for row in rows] == grid
    for k, row in zip(grid, rows):
        try:
            single = _row_text(transmission_curve(junction, [k])[0])
            assert single == _hexes(scattering_amplitudes(junction, k))
        except SingscatError as exc:
            assert single == exc.tag
        assert _row_text(row) == single
        if k > 0.0:
            assert single == _complex_reference(junction, k)


def _scalar_rows(junction: Mat2, ks: list) -> list:
    """_amplitude_rows as a process without numpy runs it.

    numpy counts as not loaded while sys.modules maps it to None, and any
    import of it in that time raises ImportError.
    """
    with mock.patch.dict(sys.modules, {"numpy": None}):
        return list(scatter._amplitude_rows(junction, ks))


def _rows_text(rows) -> list[str]:
    return [
        " ".join([error] + [x.hex() for x in (r.real, r.imag, t.real, t.imag, *probs)])
        for error, r, t, *probs in rows
    ]


@st.composite
def long_grids(draw):
    drawn = draw(st.lists(energies, min_size=1, max_size=40))
    # around and past one kernel block, repeat the drawn energies
    n = draw(st.sampled_from([len(drawn), 2047, 2048, 2049, 4200]))
    return [drawn[i % len(drawn)] for i in range(n)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.just(Mat2(-1.0, 0.0, 0.0, 1.0)), junctions), long_grids())
def test_row_branches_with_and_without_numpy_agree_bit_for_bit(junction, grid):
    # diag(-1, 1) half the time: a block then mixes both reasons to fail
    kernel = _rows_text(scatter._amplitude_rows(junction, grid))
    assert kernel == _rows_text(_scalar_rows(junction, grid))


def test_identity_junctions_scatter_at_the_smallest_energies(capsys):
    # |D| = scale = 2 sqrt(k) for +-identity: an absolute floor of 1e-14
    # under the degeneracy test refused every k below about 2.5e-29
    flip = Mat2(-1.0, 0.0, 0.0, 1.0)
    for sign in (1.0, -1.0):
        junction = Mat2(sign, 0.0, 0.0, sign)
        for k in (1e-30, 5e-324):
            res = scattering_amplitudes(junction, k)
            assert (res.r, res.t, res.flux_residual) == (0, sign, 0)
            assert transmission_curve(junction, [k]) == [SweepRow(k, res)]
            assert _scalar_rows(junction, [k]) == [("", res.r, res.t, 0.0, 1.0, 0.0)]
            with pytest.raises(NoScatteringState):
                scattering_amplitudes(flip, k)
            (row,) = transmission_curve(flip, [k])
            assert row.error == NoScatteringState.tag
            assert _scalar_rows(flip, [k])[0][0] == NoScatteringState.tag
    sweep = ["--kmin", "5e-324", "--kmax", "1e-30", "--ksteps", "3"]
    for m, c, t in (("0.5", "1", 1.0), ("2", repr(-(math.pi**2)), -1.0)):
        point = ["scatter", "--m", m, "--c", c]
        assert main(point + ["--k", "1e-30"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["re_r"], doc["im_r"], doc["re_t"], doc["im_t"]) == (0, 0, t, 0)
        assert main(point + sweep + ["--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [(row["re_t"], row["error"]) for row in rows] == [(t, "")] * 3
    refused = ["scatter", "--m", "3", "--c", "-1", "--iv-a", "-1", "--iv-b", "0"]
    assert main(refused + ["--k", "1e-30"]) == 3
    assert json.loads(capsys.readouterr().out) == {"error": "no_scattering_state"}
    assert main(refused + sweep + ["--format", "csv"]) == 0
    for line in capsys.readouterr().out.splitlines()[1:]:
        assert line.endswith(",no_scattering_state")


def test_curve_across_kernel_blocks_equals_complex_arithmetic():
    # |r|^2 and |t|^2 are Python's pow: x * x rounds differently about
    # once in a thousand, which a few thousand energies show
    n = 3 * scatter._BLOCK + 37
    grid = [1e-4 * 1e8 ** (i / n) for i in range(n)]
    for junction in (_junctions()["chain"], Mat2(0.3, -1.7, 2.2, 0.9)):
        rows = transmission_curve(junction, grid)
        assert [_row_text(row) for row in rows] == [
            _complex_reference(junction, k) for k in grid
        ]


def test_failed_sweep_rows_carry_no_numbers(capsys):
    argv = ["scatter", "--m", "3", "--c", "-1", "--iv-a", "-1", "--iv-b", "0",
            "--kmin", "1", "--kmax", "4", "--ksteps", "4"]
    assert main(argv + ["--format", "csv"]) == 0
    for line in capsys.readouterr().out.splitlines()[1:]:
        assert line.split(",")[1:] == ["nan"] * 7 + ["no_scattering_state"]
    assert main(argv + ["--format", "json"]) == 0
    for row in json.loads(capsys.readouterr().out)["rows"]:
        assert {key: value for key, value in row.items() if key != "k"} == {
            **dict.fromkeys(["re_r", "im_r", "re_t", "im_t", "R", "T", "flux_residual"]),
            "error": "no_scattering_state",
        }


def test_radial_sweep_rows_equal_single_energy_solves(capsys):
    argv = ["radial", "--m", "3", "--c", "-1", "--iv-a", "-1", "--iv-b", "0.5",
            "--a", "1.3", "--kmin", "1e-6", "--kmax", "1e6", "--ksteps", "41"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    shell = ShellPotentialSpec(PotentialSpec(3.0, -1.0), 1.3)
    for line in lines:
        k, a, delta0, sigma0, error = line.split(",")
        res = s_wave_solve(shell, float(k), IvChoice(-1, 0.5))
        assert [a, delta0, sigma0, error] == [
            fmt_float(res.a), fmt_float(res.delta0), fmt_float(res.sigma0), ""
        ]


special_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 2.0**70]),
)
cells_by_kind = {
    "float": special_floats,
    "str": st.one_of(
        st.sampled_from(["", "overflow", "no_scattering_state", "non_positive_energy"]),
        st.text(max_size=6),
    ),
    "int": st.integers(-(2**70), 2**70),
    "mixed": st.one_of(special_floats, st.integers(), st.text(max_size=4), st.none(),
                       st.booleans()),
}


@st.composite
def tables(draw):
    fields = draw(st.lists(st.text(max_size=5), min_size=1, max_size=6, unique=True))
    kinds = draw(st.lists(st.sampled_from(sorted(cells_by_kind)),
                          min_size=len(fields), max_size=len(fields)))
    row = st.tuples(*[cells_by_kind[kind] for kind in kinds]).map(list)
    drawn = draw(st.lists(row, max_size=12))
    # past the writer's chunk of rows, repeat the drawn rows
    n = draw(st.sampled_from([len(drawn), 511, 512, 513, 1100])) if drawn else 0
    return fields, [drawn[i % len(drawn)] for i in range(n)]


def _first_difference(got: str, want: str) -> tuple | None:
    """None for equal documents, else where they first differ.

    Keeps the report of a failing example short: pytest's own diff of two
    long documents takes minutes.
    """
    if got == want:
        return None
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    at = min(len(got), len(want)) if at is None else at
    return at, got[max(0, at - 40) : at + 40], want[max(0, at - 40) : at + 40]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tables())
def test_table_writer_equals_csv_document_and_canonical_json(table):
    fields, rows = table
    csv_text = table_document(fields, rows, "csv")
    assert _first_difference(csv_text, csv_document(fields, rows)) is None
    doc = {"rows": [dict(zip(fields, row)) for row in rows]}
    json_text = table_document(fields, iter(rows), "json")
    assert _first_difference(json_text, canonical_json(doc) + "\n") is None


def test_canonical_json_refuses_values_it_cannot_serialize():
    with pytest.raises(TypeError, match="cannot serialize object"):
        canonical_json({"row": [1.0, object()]})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_float_spells_specials_and_round_trips_at_17_digits(x):
    assert [fmt_float(v) for v in (math.nan, math.inf, -math.inf)] == [
        "nan", "inf", "-inf"
    ]
    assert fmt_float(0.0) == fmt_float(-0.0) == "0"
    assert fmt_float(-1.5) == "-1.5" and fmt_float(0.1) == "0.10000000000000001"
    text = fmt_float(x)
    digits = text.lstrip("-").split("e")[0].replace(".", "").lstrip("0")
    assert float(text) == x and len(digits) <= 17
