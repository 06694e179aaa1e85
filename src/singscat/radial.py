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

import math
from collections import namedtuple

from .core import Mat2, ShellPotentialSpec, check_phase, free_propagators
from .errors import NonPositiveEnergy, TransferOverflow
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


def _principal_shift(raw: float) -> float:
    """Reduce a phase mod pi into (-pi/2, pi/2]."""
    shift = math.remainder(raw, math.pi)
    if shift <= -0.5 * math.pi:
        shift += math.pi
    return shift


def _s_wave(junction: Mat2, a: float, k: float) -> tuple[float, ...]:
    """The shell problem at one energy k > 0, for its junction matrix.

    Returns (delta0, sigma0, interior_amplitude, alpha, beta), with
    (alpha, beta) the exterior coefficients.  The one per-energy path of
    s_wave_solve and the CLI's radial sweep; callers check k > 0.  It
    stays scalar: math.hypot is CPython's own, not the C library's hypot
    that numpy calls, np.arctan2 differs from math.atan2 in the last bit
    on some inputs, and numpy has no IEEE remainder.
    Raises PrecisionLoss as core.check_phase does, TransferOverflow when
    4 pi / k overflows (k below about 7e-308) and sigma0 is not finite,
    and ValueError for an infinite k.
    """
    check_phase(k, a)
    q = math.sqrt(k)
    u_a = math.sin(q * a)
    du_a = q * math.cos(q * a)
    j11, j12, j21, j22 = junction
    alpha, beta = j11 * u_a + j12 * du_a, j21 * u_a + j22 * du_a
    # Exterior asymptotic amplitude of alpha C + beta S is hypot(alpha, beta/q).
    interior = 1.0 / math.hypot(alpha, beta / q)
    alpha, beta = alpha * interior, beta * interior
    if j12 == 0.0 and j21 == 0.0 and abs(j11) == 1.0 and j11 == j22:
        # junction is +-identity: the exterior wave is the interior free wave
        # up to overall sign, so the shift is zero exactly, not via atan2
        delta0 = 0.0
    else:
        raw = math.atan2(q * alpha, beta) - q * a
        delta0 = _principal_shift(raw)
        if abs(delta0) < 1e-6 * abs(raw) and beta != 0.0:
            # raw lies near a multiple of pi (atan2 near pi for beta < 0),
            # and reducing it cancels the digits of a small delta0; atan
            # gives the same phase mod pi without that cancellation
            delta0 = _principal_shift(math.atan(q * alpha / beta) - q * a)
    sigma0 = (4.0 * math.pi / k) * math.sin(delta0) ** 2
    if not math.isfinite(sigma0):
        raise TransferOverflow(f"4 pi / k overflows at k = {k!r}: sigma0 is not finite")
    return delta0, sigma0, interior, alpha, beta


def s_wave_solve(
    shell: ShellPotentialSpec, k: float, choice: IvChoice | None = None
) -> RadialResult:
    """Phase shift delta0 in (-pi/2, pi/2], cross section sigma0 and u(r).

    sigma0 = (4 pi / k) sin^2(delta0), bounded by 4 pi / k; the result
    carries the coefficients radial_wavefunction samples u(r) from.  Raises
    PrecisionLoss when sqrt(k) a is too large for its phase to carry
    meaningful digits (core.check_phase), TransferOverflow when k is so
    small that sigma0 is not finite, and ValueError for an infinite k.
    """
    if not (k > 0.0):
        raise NonPositiveEnergy(f"s-wave scattering needs k > 0, got {k}")
    base, a = shell
    delta0, sigma0, interior, alpha, beta = _s_wave(junction_matrix(base, choice), a, k)
    return tuple.__new__(RadialResult, (k, a, delta0, sigma0, interior, (alpha, beta)))


def radial_wavefunction(
    solution: RadialResult, rs
) -> list[tuple[float, float, float]]:
    """Sample (r, R, u) of an s-wave solution at finite radii r > 0.

    Inside the shell u = interior_amplitude * sqrt(k) S(k, r), outside
    u = alpha C(k, r - a) + beta S(k, r - a), both from one
    free_propagators call.  R = u/r stays finite at the origin because S
    switches to its series there.  Raises ValueError for a non-finite
    energy or a radius that is not a positive finite number, and
    PrecisionLoss when sqrt(k) r at the largest radius (or the shell's)
    is too large for its phase to carry meaningful digits.
    """
    k = solution.k
    rs = list(rs)
    for r in rs:
        if not (r > 0.0 and math.isfinite(r)):
            raise ValueError(f"radii must be positive and finite, got {r}")
    a = solution.a
    check_phase(k, max([a, *rs]))
    q = math.sqrt(k)
    lead = solution.interior_amplitude * q
    alpha, beta = solution.exterior_coeffs
    props = free_propagators(k, [r if r < a else r - a for r in rs]).tolist()
    out: list[tuple[float, float, float]] = []
    for r, ((c, s), _) in zip(rs, props):
        u = lead * s if r < a else alpha * c + beta * s
        out.append((r, u / r, u))
    return out
