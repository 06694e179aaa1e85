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
from dataclasses import dataclass

# PHASE_ULP_FRACTION is re-exported: README documents it under this module.
from .core import (
    PHASE_ULP_FRACTION,
    Mat2,
    ShellPotentialSpec,
    check_phase,
    free_propagators,
)
from .errors import NonPositiveEnergy
from .junction import DEFAULT_RESONANCE_TOL, IvChoice, junction_matrix


@dataclass(frozen=True)
class RadialSolution:
    """Reduced radial solution u(r), normalized to unit exterior amplitude.

    Interior: u = interior_amplitude * sin(sqrt(k) r) for r < a.
    Exterior: u = alpha C(k, r - a) + beta S(k, r - a) for r > a, with
    (alpha, beta) = junction applied to the interior boundary data, which
    makes the exterior asymptote exactly sin(sqrt(k) r + delta0).
    """

    shell: ShellPotentialSpec
    k: float
    junction: Mat2
    interior_amplitude: float
    exterior_coeffs: tuple[float, float]


@dataclass(frozen=True)
class RadialResult:
    """Phase shift and s-wave cross section of a shell at energy k > 0."""

    k: float
    a: float
    delta0: float
    sigma0: float
    interior_amplitude: float


def _principal_shift(raw: float) -> float:
    """Reduce a phase mod pi into (-pi/2, pi/2]."""
    shift = math.remainder(raw, math.pi)
    if shift <= -0.5 * math.pi:
        shift += math.pi
    return shift


def s_wave_solution(
    shell: ShellPotentialSpec,
    k: float,
    choice: IvChoice | None = None,
    resonance_tol: float = DEFAULT_RESONANCE_TOL,
) -> RadialSolution:
    """Solve the reduced shell problem at energy k > 0.

    Raises PrecisionLoss when sqrt(k) a is too large for its phase to
    carry meaningful digits (core.check_phase), and ValueError for an
    infinite k.
    """
    if not (k > 0.0):
        raise NonPositiveEnergy(f"s-wave scattering needs k > 0, got {k}")
    junction = junction_matrix(shell.base, choice, resonance_tol)
    a = shell.a
    check_phase(k, a)
    q = math.sqrt(k)
    u_a = math.sin(q * a)
    du_a = q * math.cos(q * a)
    alpha, beta = junction.apply((u_a, du_a))
    # Exterior asymptotic amplitude of alpha C + beta S is hypot(alpha, beta/q).
    amp = math.hypot(alpha, beta / q)
    interior = 1.0 / amp
    return RadialSolution(
        shell=shell,
        k=k,
        junction=junction,
        interior_amplitude=interior,
        exterior_coeffs=(alpha * interior, beta * interior),
    )


def s_wave_solve(
    shell: ShellPotentialSpec,
    k: float,
    choice: IvChoice | None = None,
    resonance_tol: float = DEFAULT_RESONANCE_TOL,
) -> RadialResult:
    """Phase shift delta0 in (-pi/2, pi/2] and cross section sigma0.

    sigma0 = (4 pi / k) sin^2(delta0), bounded by 4 pi / k.  Raises
    PrecisionLoss as s_wave_solution does.
    """
    sol = s_wave_solution(shell, k, choice, resonance_tol)
    q = math.sqrt(k)
    j = sol.junction
    if j.m12 == 0.0 and j.m21 == 0.0 and abs(j.m11) == 1.0 and j.m11 == j.m22:
        # junction is +-identity: the exterior wave is the interior free wave
        # up to overall sign, so the shift is zero exactly, not via atan2
        delta0 = 0.0
    else:
        alpha, beta = sol.exterior_coeffs
        delta0 = _principal_shift(math.atan2(q * alpha, beta) - q * shell.a)
    sigma0 = (4.0 * math.pi / k) * math.sin(delta0) ** 2
    return RadialResult(
        k=k,
        a=shell.a,
        delta0=delta0,
        sigma0=sigma0,
        interior_amplitude=sol.interior_amplitude,
    )


def radial_wavefunction(
    solution: RadialSolution, rs
) -> list[tuple[float, float, float]]:
    """Sample (r, R, u) of a radial solution at finite radii r > 0.

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
    a = solution.shell.a
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
