"""Bit pins of the closed-form kernels: s_wave_solve, junction_matrix and
compose_chain.

Each pin is the float.hex of an output (an int entry by its repr), so a
signed zero or a last bit that moves fails it.  The s-wave pins cover the
five junction classes with the sign flip diag(-1, 1), the +-identity
shortcut (no effect, even and odd resonant levels), the atan fallback of
1 + c a < 0 at small k, the largest energy below the 2^34 phase edge and
a phase sqrt(k) a that rounds to zero;
the junction pins cover every regime with signed-zero couplings.
"""

import math

import pytest

from singscat import (
    IvChoice,
    PotentialSpec,
    PrecisionLoss,
    ShellPotentialSpec,
    classify_regime,
    compose_chain,
    junction_matrix,
    s_wave_solve,
)

PI = math.pi

# name: (m, c, IvChoice fields or None, shell radius a)
SHELLS = {
    "no_effect": (0.5, 3.0, None, 1.3),
    "delta_attractive": (1.0, -2.0, None, 1.3),
    "delta_repulsive": (1.0, 1.7, None, 0.8),
    "delta_zero": (1.0, 0.0, None, 1.3),
    "delta_minus_zero": (1.0, -0.0, None, 1.3),
    "resonant_odd": (2.0, -(PI**2), None, 1.3),
    "resonant_even": (2.0, -((2 * PI) ** 2), None, 1.3),
    "indeterminate": (3.0, -1.0, (1, -0.6), 1.1),
    "sign_flip": (3.0, -1.0, (-1, 0.0), 1.1),
}

# (name, k): delta0, sigma0, interior_amplitude, alpha, beta
SWAVE_PINS = {
    ('no_effect', 0.001): (
        '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
        '0x1.50acd19309dfdp-5', '0x1.02d5bd1315877p-5',
    ),
    ('no_effect', 0.37): (
        '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
        '0x1.6bf96e26ffabap-1', '0x1.b61251946fcccp-2',
    ),
    ('no_effect', 2.0): (
        '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
        '0x1.edc41a6e9e126p-1', '-0x1.7f07fa805b079p-2',
    ),
    ('no_effect', 55.0): (
        '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
        '-0x1.b77f145cb9e00p-3', '-0x1.cf942f9e123b5p+2',
    ),
    ('delta_attractive', 0.001): (
        '-0x1.1190bd873dea0p-4', '0x1.bfc57efa6b75dp+5', '0x1.3fdf3aa5c76fdp-1',
        '0x1.a4acecd1f58b4p-6', '-0x1.02f7e7c6b2b25p-5',
    ),
    ('delta_attractive', 0.37): (
        '-0x1.337b6cb46a020p+0', '0x1.d8768f87be1a7p+4', '0x1.1f50c76eb3a83p-1',
        '0x1.987f7bfc6e0d8p-2', '-0x1.1d954adf48f12p-1',
    ),
    ('delta_attractive', 2.0): (
        '0x1.896d8744d4d1ep-1', '0x1.847781736a06ap+1', '0x1.0e8ab9366481cp-1',
        '0x1.04e8326945558p-1', '-0x1.3781719d173ebp+0',
    ),
    ('delta_attractive', 55.0): (
        '0x1.af50654066800p-7', '0x1.4c0bfc5689560p-15', '0x1.0f504d48c612dp+0',
        '-0x1.d1c962f2aea87p-3', '-0x1.ce32b27b66769p+2',
    ),
    ('delta_repulsive', 0.001): (
        '-0x1.ddb1c7223ff4ep-7', '0x1.55d05489d157dp+1', '0x1.b1f5798ef0ddbp-2',
        '0x1.5f455c73f58f0p-7', '0x1.0309f564752dep-5',
    ),
    ('delta_repulsive', 0.37): (
        '-0x1.1af57b4a4d9cdp-2', '0x1.4394b80fa1d60p+1', '0x1.c918a2ee4fd3ap-2',
        '0x1.ab83be165d102p-3', '0x1.30938ba3c0277p-1',
    ),
    ('delta_repulsive', 2.0): (
        '-0x1.2f4f526632460p-1', '0x1.f57738e049777p+0', '0x1.225ef859729acp-1',
        '0x1.06c8de0e97521p-1', '0x1.36b72a7ad140fp+0',
    ),
    ('delta_repulsive', 55.0): (
        '-0x1.dd4503e3eb800p-6', '0x1.967b872b92022p-13', '0x1.144db986e7a95p+0',
        '-0x1.7b35f54647248p-2', '0x1.b8e437d695f60p+2',
    ),
    ('delta_zero', 0.001): (
        '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
        '0x1.50acd19309dfdp-5', '0x1.02d5bd1315877p-5',
    ),
    ('delta_zero', 0.37): (
        '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
        '0x1.6bf96e26ffabap-1', '0x1.b61251946fcccp-2',
    ),
    ('delta_zero', 2.0): (
        '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
        '0x1.edc41a6e9e126p-1', '-0x1.7f07fa805b079p-2',
    ),
    ('delta_zero', 55.0): (
        '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
        '-0x1.b77f145cb9e00p-3', '-0x1.cf942f9e123b5p+2',
    ),
    ('delta_minus_zero', 0.001): (
        '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
        '0x1.50acd19309dfdp-5', '0x1.02d5bd1315877p-5',
    ),
    ('delta_minus_zero', 0.37): (
        '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
        '0x1.6bf96e26ffabap-1', '0x1.b61251946fcccp-2',
    ),
    ('delta_minus_zero', 2.0): (
        '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
        '0x1.edc41a6e9e126p-1', '-0x1.7f07fa805b079p-2',
    ),
    ('delta_minus_zero', 55.0): (
        '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
        '-0x1.b77f145cb9e00p-3', '-0x1.cf942f9e123b5p+2',
    ),
    ('resonant_odd', 0.001): (
        '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
        '-0x1.50acd19309dfdp-5', '-0x1.02d5bd1315877p-5',
    ),
    ('resonant_odd', 0.37): (
        '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
        '-0x1.6bf96e26ffabap-1', '-0x1.b61251946fcccp-2',
    ),
    ('resonant_odd', 2.0): (
        '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
        '-0x1.edc41a6e9e126p-1', '0x1.7f07fa805b079p-2',
    ),
    ('resonant_odd', 55.0): (
        '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
        '0x1.b77f145cb9e00p-3', '0x1.cf942f9e123b5p+2',
    ),
    ('resonant_even', 0.001): (
        '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
        '0x1.50acd19309dfdp-5', '0x1.02d5bd1315877p-5',
    ),
    ('resonant_even', 0.37): (
        '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
        '0x1.6bf96e26ffabap-1', '0x1.b61251946fcccp-2',
    ),
    ('resonant_even', 2.0): (
        '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
        '0x1.edc41a6e9e126p-1', '-0x1.7f07fa805b079p-2',
    ),
    ('resonant_even', 55.0): (
        '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
        '-0x1.b77f145cb9e00p-3', '-0x1.cf942f9e123b5p+2',
    ),
    ('indeterminate', 0.001): (
        '0x1.139e1b3b2fa35p-4', '0x1.c6812d6f52287p+5', '0x1.77080fd5e633fp+1',
        '0x1.a15f1c278f73cp-4', '0x1.01b49470bfecep-5',
    ),
    ('indeterminate', 0.37): (
        '0x1.42c358b2ab0fbp-1', '0x1.79a30d972c2d4p+3', '0x1.8d9e8de378d95p+0',
        '0x1.ed45f836734bdp-1', '0x1.4dd60cd3dd7f3p-3',
    ),
    ('indeterminate', 2.0): (
        '0x1.9d2c45b31eabcp-2', '0x1.efecdae81019ep-1', '0x1.d9eec8e64c790p-1',
        '0x1.d9e0d7271aa02p-1', '-0x1.122a6121e2725p-1',
    ),
    ('indeterminate', 55.0): (
        '0x1.2666ac144a200p-4', '0x1.34e2c46cff8d3p-10', '0x1.f3264504b2194p-1',
        '0x1.dc4948c262aa7p-1', '-0x1.5c5251f4a90bcp+1',
    ),
    ('sign_flip', 0.001): (
        '-0x1.1cf58bce3737ep-4', '0x1.e5c90e7b11ef7p+5', '0x1.0000000000000p+0',
        '-0x1.1ce6d5e437a8fp-5', '0x1.02e5a6a75713dp-5',
    ),
    ('sign_flip', 0.37): (
        '-0x1.5694c89621df5p+0', '0x1.014517d9273dcp+5', '0x1.0000000000000p+0',
        '-0x1.3d95c717c8b10p-1', '0x1.e891ba512dfe1p-2',
    ),
    ('sign_flip', 2.0): (
        '0x1.f0cf1c2827480p-6', '0x1.7a7ff8e373308p-8', '0x1.0000000000000p+0',
        '-0x1.fff0ef8616c4dp-1', '0x1.5f489819c97e9p-6',
    ),
    ('sign_flip', 55.0): (
        '-0x1.3720f7e6c0100p-1', '0x1.31150a1cc7ea6p-4', '0x1.0000000000000p+0',
        '-0x1.e88c54a2d8a30p-1', '-0x1.1c01be5c7b8f7p+1',
    ),
    ('delta_attractive', 1e-13): (
        '-0x1.66a580bfdc20fp-21', '0x1.c0a2987671e52p+5', '0x1.3ffffffffff1ep-1',
        '0x1.13e1c57fe45a1p-22', '-0x1.538c06c4ca54bp-22',
    ),
    ('delta_attractive', 1e-300): (
        '-0x1.ba8ffa1d32802p-498', '0x1.c0a2987672445p+5', '0x1.3fffffffffffep-1',
        '0x1.546ec0653a89ep-499', '-0x1.a2fe76a3f9474p-499',
    ),
}

# the largest k with sqrt(k) * 1.0 below 2^34, and its fields as above
EDGE = '0x1.fffffffffffffp+67', ('-0x1.893a092000000p-21', '0x1.da63f311b9cc7p-106', '0x1.ffffffffad836p-1', '0x1.e0ef4bb1f5bc0p-1', '-0x1.5f425f0c4f61dp+32')

# ((m, c), IvChoice fields or None, regime kind, n, junction entries)
JUNCTION_PINS = [
    ((0.5, 3.0), None, 'no_effect', None,
        ('0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0')),
    ((0.5, 0.0), None, 'no_effect', None,
        ('0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0')),
    ((0.5, -0.0), None, 'no_effect', None,
        ('0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0')),
    ((1.0, -2.0), None, 'standard_delta', None,
        ('0x1.0000000000000p+0', '0x0.0p+0', '-0x1.0000000000000p+1', '0x1.0000000000000p+0')),
    ((1.0, 0.0), None, 'standard_delta', None,
        ('0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0')),
    ((1.0, -0.0), None, 'standard_delta', None,
        ('0x1.0000000000000p+0', '0x0.0p+0', '-0x0.0p+0', '0x1.0000000000000p+0')),
    ((1, 2), None, 'standard_delta', None,
        ('0x1.0000000000000p+0', '0x0.0p+0', '0x1.0000000000000p+1', '0x1.0000000000000p+0')),
    ((2.0, -9.869604401089358), None, 'resonant_square', 1,
        ('-0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0', '-0x1.0000000000000p+0')),
    ((2.0, -39.47841760435743), None, 'resonant_square', 2,
        ('0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0')),
    ((2.0, -88.82643960980423), None, 'resonant_square', 3,
        ('-0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0', '-0x1.0000000000000p+0')),
    ((3.0, -1.0), (1, -0.6), 'indeterminate', None,
        ('0x1.0000000000000p+0', '0x0.0p+0', '-0x1.3333333333333p-1', '0x1.0000000000000p+0')),
    ((3.0, -1.0), (1, 0.0), 'indeterminate', None,
        ('0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0')),
    ((3.0, -1.0), (1, -0.0), 'indeterminate', None,
        ('0x1.0000000000000p+0', '0x0.0p+0', '-0x0.0p+0', '0x1.0000000000000p+0')),
    ((3.0, -1.0), (-1, 0.0), 'indeterminate', None,
        ('-0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0')),
    ((3.0, -1.0), (-1, -0.0), 'indeterminate', None,
        ('-0x1.0000000000000p+0', '0x0.0p+0', '-0x0.0p+0', '0x1.0000000000000p+0')),
    ((3.0, -1.0), (1.0, 0.5), 'indeterminate', None,
        ('0x1.0000000000000p+0', '0x0.0p+0', '0x1.0000000000000p-1', '0x1.0000000000000p+0')),
]

# k: total of _CHAIN, row major
CHAIN_PINS = {
    0.3: ('0x1.9898d482b8548p+5', '0x1.1c95ae87fb80fp+5',
        '-0x1.0bc8ce4c85dd0p+4', '-0x1.74649f3450858p+3'),
    2.0: ('0x1.02ea2f619953fp+5', '0x1.08a9c7fea4284p+6',
        '0x1.3f8c9f5041d20p+5', '0x1.46c47cb6089d6p+6'),
    17.0: ('-0x1.86baa4a0f5005p+0', '-0x1.1ad842f97b973p-3',
        '-0x1.1d56251c04dbap+2', '-0x1.0f00e922b3e3ep+0'),
    -1.5: ('0x1.48a6d959dbd7ap+28', '0x1.ab0d9f32da038p+28',
        '0x1.12abde4b90b74p+29', '0x1.64e91b6c78b28p+29'),
}


def _bits(v) -> str:
    return v.hex() if type(v) is float else repr(v)


def _spec(m, c, choice):
    return PotentialSpec(m, c), None if choice is None else IvChoice(*choice)


def _fields(result) -> tuple:
    return tuple(map(_bits, (*result[2:5], *result.exterior_coeffs)))


@pytest.mark.parametrize("name, k", sorted(SWAVE_PINS), ids=str)
def test_s_wave_solve_is_pinned_bit_for_bit(name, k):
    m, c, choice, a = SHELLS[name]
    p, iv = _spec(m, c, choice)
    result = s_wave_solve(ShellPotentialSpec(p, a), k, iv)
    assert result.k is k and result.a == a
    assert _fields(result) == SWAVE_PINS[name, k]


def test_the_largest_energy_below_the_phase_edge_is_pinned():
    k = float.fromhex(EDGE[0])
    shell = ShellPotentialSpec(PotentialSpec(1.0, -2.0), 1.0)
    assert _fields(s_wave_solve(shell, k)) == EDGE[1]
    with pytest.raises(PrecisionLoss):
        s_wave_solve(shell, math.nextafter(k, math.inf))


# (m, c, IvChoice fields or None): delta0, sigma0, interior_amplitude, alpha, beta
# of a shell at a = 5e-324 and k = 0.25, where q a = 0.5 * 5e-324 rounds to
# 0.0.  So u(a) = sin(q a) = 0.0 and J11 u(a) = -0.0 for J11 = -1: alpha and
# delta0 are +0.0 only because the +0.0 of J12 u'(a) is added to it.
ZERO_PHASE_PINS = [
    ((2.0, -(PI**2), None),
        ('0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0', '0x0.0p+0', '-0x1.0000000000000p-1')),
    ((3.0, -1.0, (-1, 0.5)),
        ('0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0', '0x0.0p+0', '0x1.0000000000000p-1')),
]


@pytest.mark.parametrize(
    "mc_choice, fields", ZERO_PHASE_PINS, ids=["odd_level", "sign_flip_b"]
)
def test_a_phase_that_rounds_to_zero_keeps_positive_zeros(mc_choice, fields):
    p, iv = _spec(*mc_choice)
    shell = ShellPotentialSpec(p, 5e-324)
    assert 0.5 * shell.a == 0.0
    assert _fields(s_wave_solve(shell, 0.25, iv)) == fields


@pytest.mark.parametrize("mc, choice, kind, n, entries", JUNCTION_PINS, ids=str)
def test_junction_matrix_is_pinned_bit_for_bit(mc, choice, kind, n, entries):
    p, iv = _spec(*mc, choice)
    regime = classify_regime(p)
    assert (regime.kind.value, regime.n, regime.reason) == (kind, n, None)
    assert tuple(map(_bits, junction_matrix(p, iv))) == entries


# 64 junctions cycling through JUNCTION_PINS' specs
_CHAIN = [
    (0.37 * i + 0.01 * (i % 7), junction_matrix(*_spec(*mc, ch)))
    for i, (mc, ch, *_) in enumerate(JUNCTION_PINS * 4)
]


@pytest.mark.parametrize("k", sorted(CHAIN_PINS))
def test_compose_chain_is_pinned_bit_for_bit(k):
    assert tuple(map(_bits, compose_chain(_CHAIN, k))) == CHAIN_PINS[k]
