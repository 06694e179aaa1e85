"""s-wave scattering off a singular spherical shell.

The radial equation for the l = 0 partial wave,

    R'' + (2/r) R' + (k - U) R = 0,

reduces under u = r R to the line problem u'' + (k - U) u = 0 with
u(0) = 0, so a shell potential at radius a is handled by the same
junction matrices as a point potential on the line.  Regularity at the
origin fixes the interior solution to a multiple of sin(sqrt(k) r); the
junction at r = a produces the exterior boundary data, and the phase
shift follows from

    tan(sqrt(k) a + delta0) = sqrt(k) u(a+) / u'(a+).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from math import atan, atan2, cos, hypot, inf, isfinite, nan, pi, remainder, sin, sqrt

from .core import (
    _PHASE_LIMIT,
    Mat2,
    ShellPotentialSpec,
    _as_list,
    _check_type,
    _float,
    check_phase,
    free_propagators,
)
from .errors import NonPositiveEnergy, PrecisionLoss, TransferOverflow
from .junction import IvChoice, junction_matrix


class RadialResult(
    namedtuple("RadialResult", "k a delta0 sigma0 interior_amplitude exterior_coeffs")
):
    """s-wave solution of a shell at energy k > 0.

    Phase shift delta0, cross section sigma0 and the reduced radial
    solution u(r), normalized to unit exterior amplitude.  Every field is
    a float but exterior_coeffs, a float pair.

    Interior: u = interior_amplitude * sin(sqrt(k) r) for r < a.
    Exterior: u = alpha C(k, r - a) + beta S(k, r - a) for r > a, with
    (alpha, beta) = exterior_coeffs the junction applied to the interior
    boundary data, which makes the exterior asymptote exactly
    sin(sqrt(k) r + delta0).
    """

    __slots__ = ()


# The per-energy path reads math's functions and these constants as module
# names, so a call looks nothing up on math; both products scale pi by a
# power of two, exactly.
_MINUS_HALF_PI = -0.5 * pi
_FOUR_PI = 4.0 * pi
_new = tuple.__new__

# Where |c a| passes the float maximum at small q a, beta / q overflows and
# the wave would normalise to zero; alpha and beta are scaled by this exact
# power of two first.  |beta| < 2^1024 and q >= sqrt(2^-1074) = 2^-537, so
# beta / q < 2^1561, and 2^-540 brings it below 2^1021.
_SHRINK = 2.0**-540


def _principal_shift(raw: float) -> float:
    """Reduce a phase mod pi into (-pi/2, pi/2]."""
    shift = remainder(raw, pi)
    if shift <= _MINUS_HALF_PI:
        shift += pi
    return shift


# (shell, choice, a, j11, j21, j22, identity) of s_wave_solve's last
# derivation: the shell's radius, its junction's entries but J12, which
# junction_matrix always gives as +0.0, and whether that junction is
# +-identity.  It is keyed by identity: equal records can differ in bits
# (c = 0.0 and -0.0), and the records are immutable, so the same objects
# always give the same junction.  Only a checked shell enters it.
# One tuple, read and replaced as a unit, so threads see a consistent slot;
# the list is changed in place, never rebound.  It starts keyed by an
# object no caller has, so that even a None shell misses.
_LAST = [(object(),) * 7]


def s_wave_solve(
    shell: ShellPotentialSpec, k: float, choice: IvChoice | None = None
) -> RadialResult:
    """Phase shift delta0 in (-pi/2, pi/2], cross section sigma0 and u(r).

    sigma0 = (4 pi / k) sin^2(delta0), bounded by 4 pi / k; the result
    carries the coefficients radial_wavefunction samples u(r) from.  Raises
    ValueError for an energy that is a bool or not a real number, an
    infinite k, or a shell that is not a ShellPotentialSpec; PrecisionLoss
    when sqrt(k) a is too large for its phase to carry meaningful digits
    (core.check_phase); and TransferOverflow when k is so small that
    sigma0 is not finite.  Calls in a row with the same shell and choice
    objects derive the junction once; junction_matrix's errors are raised
    on every call.
    """
    if type(k) is not float:
        k = _float(k, "k")
    if not (k > 0.0):
        if k == -inf:  # k = inf is refused at the phase edge below
            raise ValueError(f"k must be finite, got {k}")
        raise NonPositiveEnergy(f"s-wave scattering needs k > 0, got {k}")
    last_shell, last_choice, a, j11, j21, j22, identity = _LAST[0]
    if shell is not last_shell or choice is not last_choice:
        _check_type(shell, ShellPotentialSpec, "shell")
        base, a = shell
        j11, _, j21, j22 = junction_matrix(base, choice)
        identity = j21 == 0.0 and abs(j11) == 1.0 and j11 == j22
        _LAST[0] = (shell, choice, a, j11, j21, j22, identity)
    # Scalar on purpose: math.hypot is CPython's own, not the C library's
    # hypot that numpy calls, np.arctan2 differs from math.atan2 in the last
    # bit on some inputs, and numpy has no IEEE remainder.
    q = sqrt(k)
    qa = q * a
    if qa >= _PHASE_LIMIT:  # also k = inf; check_phase raises either error
        check_phase(k, a)
    u_a = sin(qa)
    du_a = q * cos(qa)
    # junction_matrix gives J12 = +0.0, so J12 u'(a) is -0.0 where u'(a) < 0
    # and +0.0 elsewhere; u(a) = sin(q a) is 0 only at q a = 0, where
    # u'(a) = q > 0.  So + 0.0 keeps the bits, J11 u(a) = -0.0 at J11 = -1 too.
    alpha, beta = j11 * u_a + 0.0, j21 * u_a + j22 * du_a
    # Exterior asymptotic amplitude of alpha C + beta S is hypot(alpha, beta/q).
    scale = interior = 1.0 / hypot(alpha, beta / q)
    if scale == 0.0:  # that amplitude overflowed
        alpha, beta = alpha * _SHRINK, beta * _SHRINK
        scale = 1.0 / hypot(alpha, beta / q)
        interior = scale * _SHRINK
    alpha, beta = alpha * scale, beta * scale
    if identity:
        # the exterior wave is the interior free wave up to overall sign, so
        # the shift is zero exactly, not via atan2
        delta0 = 0.0
    else:
        raw = atan2(q * alpha, beta) - qa
        # _principal_shift(raw), inline on the path every energy takes
        delta0 = remainder(raw, pi)
        if delta0 <= _MINUS_HALF_PI:
            delta0 += pi
        if abs(delta0) < 1e-6 * abs(raw) and beta != 0.0:
            # raw lies near a multiple of pi (atan2 near pi for beta < 0),
            # and reducing it cancels the digits of a small delta0; atan
            # gives the same phase mod pi without that cancellation
            delta0 = _principal_shift(atan(q * alpha / beta) - qa)
    sigma0 = (_FOUR_PI / k) * sin(delta0) ** 2
    if not isfinite(sigma0):
        raise TransferOverflow(f"4 pi / k overflows at k = {k!r}: sigma0 is not finite")
    return _new(RadialResult, (k, a, delta0, sigma0, interior, (alpha, beta)))


def _s_wave_columns(
    junction: Mat2, a: float, ks: Sequence[float]
) -> tuple[list[float], list[float], list[str] | None]:
    """The delta0 and sigma0 columns of a shell of radius a with this
    junction over energies ks > 0, and the error tags.

    The tags are None where no energy fails, else one per energy: "" for
    a good one, and for a failing one the tag of the error s_wave_solve
    raises there, PrecisionLoss's or TransferOverflow's, its numbers nan.
    Each energy takes s_wave_solve's math calls in its order, so the bits
    are the same; this loop is apart from s_wave_solve because a shared
    per-energy function slows that one's every call.
    """
    j11, _, j21, j22 = junction
    identity = j21 == 0.0 and abs(j11) == 1.0 and j11 == j22
    deltas: list[float] = []
    sigmas: list[float] = []
    failed = []
    for k in ks:
        q = sqrt(k)
        qa = q * a
        if qa >= _PHASE_LIMIT:
            failed.append((len(deltas), PrecisionLoss.tag))
            deltas.append(nan)
            sigmas.append(nan)
            continue
        if identity:
            delta0 = 0.0
        else:
            u_a = sin(qa)
            du_a = q * cos(qa)
            alpha, beta = j11 * u_a + 0.0, j21 * u_a + j22 * du_a
            scale = 1.0 / hypot(alpha, beta / q)
            if scale == 0.0:
                alpha, beta = alpha * _SHRINK, beta * _SHRINK
                scale = 1.0 / hypot(alpha, beta / q)
            alpha, beta = alpha * scale, beta * scale
            raw = atan2(q * alpha, beta) - qa
            delta0 = remainder(raw, pi)
            if delta0 <= _MINUS_HALF_PI:
                delta0 += pi
            if abs(delta0) < 1e-6 * abs(raw) and beta != 0.0:
                delta0 = _principal_shift(atan(q * alpha / beta) - qa)
        sigma0 = (_FOUR_PI / k) * sin(delta0) ** 2
        if not isfinite(sigma0):
            failed.append((len(deltas), TransferOverflow.tag))
            delta0 = sigma0 = nan
        deltas.append(delta0)
        sigmas.append(sigma0)
    if not failed:
        return deltas, sigmas, None
    errors = [""] * len(deltas)
    for at, tag in failed:
        errors[at] = tag
    return deltas, sigmas, errors


def radial_wavefunction(
    solution: RadialResult, rs
) -> list[tuple[float, float, float]]:
    """Sample (r, R, u) of an s-wave solution at finite radii r > 0.

    Inside the shell u = interior_amplitude * sqrt(k) S(k, r), outside
    u = alpha C(k, r - a) + beta S(k, r - a), both from one
    free_propagators call.  R = u/r stays finite at the origin because S
    switches to its series there.  Raises ValueError for a solution that
    is not a RadialResult, rs that are not a sequence, a non-finite energy
    or a radius that is not a positive finite number, and PrecisionLoss
    when sqrt(k) r at the largest radius (or the shell's) is too large for
    its phase to carry meaningful digits.
    """
    _check_type(solution, RadialResult, "solution")
    k = solution.k
    rs = [_float(r, "radius") for r in _as_list(rs, "rs")]
    for r in rs:
        if not 0.0 < r < inf:
            raise ValueError(f"radii must be positive and finite, got {r}")
    a = solution.a
    check_phase(k, max([a, *rs]))
    q = sqrt(k)
    lead = solution.interior_amplitude * q
    alpha, beta = solution.exterior_coeffs
    props = free_propagators(k, [r if r < a else r - a for r in rs]).tolist()
    out: list[tuple[float, float, float]] = []
    for r, ((c, s), _) in zip(rs, props):
        u = lead * s if r < a else alpha * c + beta * s
        out.append((r, u / r, u))
    return out
