"""Scattering and bound states of point potentials on the line.

Complex amplitudes live here and only here; the matrices coming in from
the junction and propagation layers stay real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterator, Sequence

import numpy as np

from .core import Mat2, PiecewiseSolution, check_phase, free_propagators
from .errors import (
    ChainOrderError,
    NonPositiveEnergy,
    NoScatteringState,
    TransferOverflow,
    error_tag,
)

# The matching system is declared inconsistent when its determinant is
# this small relative to the matrix scale.
_DEGENERACY_TOL = 1e-14

# Energies per pass of the amplitude kernel.  A pass holds about twenty
# float arrays of this length at once, so blocks keep that memory small
# next to the rows a long sweep builds from it.
_BLOCK = 2048


@dataclass(frozen=True)
class ScatteringResult:
    """Amplitudes and flux diagnostics at one energy k > 0.

    flux_residual = |t|^2 + det(J) |r|^2 - det(J); it vanishes identically
    for unit-determinant junctions, and the signed form holds for
    det(J) = -1 as well, so the residual is the one number to watch in
    either case.
    """

    k: float
    r: complex
    t: complex
    reflect_prob: float
    transmit_prob: float
    det_j: float
    flux_residual: float


@dataclass(frozen=True)
class SweepRow:
    """One energy of a transmission sweep; error is "" when result holds."""

    k: float
    result: ScatteringResult | None = None
    error: str = ""


@dataclass(frozen=True)
class BoundSpectrum:
    """Negative-energy spectrum of a junction matrix.

    kind is "empty", "discrete" (kappas carries the decay rates, energies
    are -kappa^2) or "continuum_degenerate" (every kappa > 0 matches, so
    no discrete set exists).
    """

    kind: str
    kappas: tuple[float, ...] = ()

    @property
    def energies(self) -> tuple[float, ...]:
        return tuple(-kappa * kappa for kappa in self.kappas)


def scattering_amplitudes(
    junction: Mat2, k: float | np.ndarray
) -> ScatteringResult | Iterator[tuple]:
    """Reflection and transmission amplitudes of a junction at energy k > 0.

    The incoming wave exp(i sqrt(k) x) from the left, together with
    r exp(-i sqrt(k) x) on the left and t exp(i sqrt(k) x) on the right,
    is matched through the junction.  Writing q = sqrt(k), the unique
    solution is

        r = (q^2 J12 + J21 + i q (J22 - J11)) / D
        t = J11 (1 + r) + i q J12 (1 - r)
        D = q^2 J12 - J21 + i q (J11 + J22)

    k is one energy, or a 1-D float64 numpy array of energies.  For an
    array the result is an iterator over the energies in order, each
    giving the tuple

        (error, r, t, reflect_prob, transmit_prob, flux_residual)

    where error is "" for a good energy, and for a failing one the tag of
    its exception (errors.error_tag), with nan in the other entries.  The
    energies are computed _BLOCK at a time, as the iterator is consumed.
    One energy is an array of one, and gives its ScatteringResult or
    raises.  Each energy's numbers are bit for bit what CPython's complex
    arithmetic gives for the formulas above.

    Raises
    ------
    NonPositiveEnergy
        if k <= 0 (or k is nan).
    ValueError
        if k is infinite; an array raises at the call if any energy is.
    NoScatteringState
        if the matching system is inconsistent (D = 0), e.g. for the
        junction diag(-1, 1).
    """
    if not isinstance(k, np.ndarray) or k.ndim == 0:
        error, r, t, rr, tt, flux = next(
            scattering_amplitudes(junction, np.array([k], dtype=float))
        )
        if error == error_tag(NonPositiveEnergy()):
            raise NonPositiveEnergy(f"scattering needs k > 0, got {k}")
        if error:
            raise NoScatteringState("plane-wave matching system is inconsistent")
        return ScatteringResult(k, r, t, rr, tt, junction.det(), flux)
    k = np.asarray(k, dtype=float)
    if (k == math.inf).any():
        raise ValueError("scattering needs a finite k, got inf")
    blocks = (k[lo : lo + _BLOCK] for lo in range(0, k.size, _BLOCK))
    return chain.from_iterable(_amplitude_block(junction, block) for block in blocks)


def _amplitude_block(junction: Mat2, k: np.ndarray) -> Iterator[tuple]:
    """The rows of scattering_amplitudes for finite energies k, in arrays."""
    j11, j12, j21, j22 = junction.m11, junction.m12, junction.m21, junction.m22
    with np.errstate(all="ignore"):
        q = np.sqrt(k)
        d_re, d_im = k * j12 - j21, q * (j11 + j22)
        scale = k * abs(j12) + abs(j21) + q * (abs(j11) + abs(j22))
        # abs(complex) is hypot; max(1.0, scale) keeps 1.0 unless scale > 1.0
        tol = _DEGENERACY_TOL * np.where(scale > 1.0, scale, 1.0)
        code = np.where(k > 0.0, np.where(np.hypot(d_re, d_im) <= tol, 2, 0), 1)
        r_re, r_im = _c_quot(k * j12 + j21, q * (j22 - j11), d_re, d_im)
        # CPython 3.11 turns the float operand of a mixed float/complex
        # operation into complex(x, 0.0) and then runs the complex formula,
        # 0.0 parts included, so they are spelled out to keep signed zeros.
        a_re, a_im = _c_prod(j11, 0.0, 1.0 + r_re, 0.0 + r_im)  # j11 * (1.0 + r)
        b_re, b_im = _c_prod(0.0, 1.0, q, 0.0)  # 1j * q
        b_re, b_im = _c_prod(b_re, b_im, j12, 0.0)  # ... * j12
        b_re, b_im = _c_prod(b_re, b_im, 1.0 - r_re, 0.0 - r_im)  # ... * (1.0 - r)
        amps = np.empty((2, k.size), dtype=complex)
        amps[0].real, amps[0].imag = r_re, r_im
        amps[1].real, amps[1].imag = a_re + b_re, a_im + b_im
        amps[:, code != 0] = complex(math.nan, math.nan)
        mods = np.hypot(amps.real, amps.imag)
    tags = ["", error_tag(NonPositiveEnergy()), error_tag(NoScatteringState())]
    errors = np.array(tags, dtype=object)[code].tolist()
    # abs(.) ** 2 stays Python's pow, which rounds differently from x * x
    rr, tt = (list(map(pow, row.tolist(), repeat(2))) for row in mods)
    det_j = junction.det()
    flux = (np.array(tt) + det_j * np.array(rr) - det_j).tolist()
    return zip(errors, *amps.tolist(), rr, tt, flux)


def _c_quot(a_re, a_im, b_re, b_im):
    """a / b as CPython's _Py_c_quot (Smith's method), over arrays.

    Its zero-divisor branch (ZeroDivisionError) and its nan branch never
    apply to the rows kept: they are flagged as inconsistent first.
    """
    real_first = abs(b_re) >= abs(b_im)
    ratio = np.where(real_first, b_im / b_re, b_re / b_im)
    denom = np.where(real_first, b_re + b_im * ratio, b_re * ratio + b_im)
    re = np.where(real_first, a_re + a_im * ratio, a_re * ratio + a_im) / denom
    im = np.where(real_first, a_im - a_re * ratio, a_im * ratio - a_re) / denom
    return re, im


def _c_prod(a_re, a_im, b_re, b_im):
    """a * b as CPython's _Py_c_prod."""
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def transmission_curve(junction: Mat2, k_grid: Sequence[float]) -> list[SweepRow]:
    """scattering_amplitudes over a grid, errors flagged per row.

    Output order matches input order; a failing energy yields a flagged
    row instead of aborting the sweep.  The grid is one array call of
    scattering_amplitudes.
    """
    ks = list(k_grid)
    amplitudes = scattering_amplitudes(junction, np.array(ks, dtype=float))
    det_j = junction.det()
    return [
        SweepRow(k, error=error)
        if error
        else SweepRow(k, ScatteringResult(k, r, t, rr, tt, det_j, flux))
        for k, (error, r, t, rr, tt, flux) in zip(ks, amplitudes)
    ]


def bound_states(junction: Mat2) -> BoundSpectrum:
    """Decaying solutions exp(kappa x) / exp(-kappa x) glued by the junction.

    Matching eliminates the amplitudes and leaves

        J12 kappa^2 + (J11 + J22) kappa + J21 = 0,

    solved exactly; roots with kappa > 0 are bound states of energy
    -kappa^2.  If the equation vanishes identically every kappa matches
    and the spectrum is reported as continuum degenerate (the junction
    diag(-1, 1) does this).
    """
    a = junction.m12
    b = junction.m11 + junction.m22
    c = junction.m21
    if a == 0.0 and b == 0.0:
        if c == 0.0:
            return BoundSpectrum(kind="continuum_degenerate")
        return BoundSpectrum(kind="empty")
    if a == 0.0:
        roots = [-c / b]
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            return BoundSpectrum(kind="empty")
        sq = math.sqrt(disc)
        # Citardauq pairing avoids cancellation in the small root.
        q = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else -0.5 * sq
        if q == 0.0:
            roots = [0.0]
        else:
            roots = [q / a, c / q]
    kappas = sorted({kappa for kappa in roots if kappa > 0.0})
    if not kappas:
        return BoundSpectrum(kind="empty")
    return BoundSpectrum(kind="discrete", kappas=tuple(kappas))


def compose_chain(
    chain: Sequence[tuple[float, Mat2]], k: float
) -> Mat2:
    """Total transfer matrix of several point potentials on one line.

    chain lists (position, junction) pairs with strictly increasing
    positions.  Walking left to right, each junction acts at its own
    point and free propagation covers the gaps:

        total = J_N F(k, x_N - x_{N-1}) ... J_2 F(k, x_2 - x_1) J_1

    The gap propagators come from one free_propagators call; the product
    is then folded left to right in plain floats.

    Raises TransferOverflow when the running product leaves the
    representable range.
    """
    if not math.isfinite(k):
        raise ValueError(f"k must be finite, got {k}")
    xs = [x for x, _ in chain]
    for prev_x, x in zip(xs, xs[1:]):
        if not x > prev_x:
            raise ChainOrderError(
                f"positions must increase strictly, got {prev_x} then {x}"
            )
    gaps = free_propagators(k, [b - a for a, b in zip(xs, xs[1:])])
    gaps = gaps.reshape(-1, 4).tolist()
    total = (1.0, 0.0, 0.0, 1.0)
    for i, (x, j) in enumerate(chain):
        if i:
            total = _mul(gaps[i - 1], total)
        total = _mul((j.m11, j.m12, j.m21, j.m22), total)
        if not all(map(math.isfinite, total)):
            raise TransferOverflow(
                f"chain transfer left the representable range at x = {x}"
            )
    return Mat2(*total)


def _mul(a: tuple, b: tuple) -> tuple:
    """Row-major 2x2 product a @ b, term for term as Mat2.__matmul__."""
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def evaluate_solution(
    solution: PiecewiseSolution, xs: Sequence[float]
) -> list[tuple[float, float, float]]:
    """Sample (x, psi, psi') of a piecewise solution.

    Points left of the origin use the left branch, points right of it the
    right branch.  x = 0 produces two consecutive samples, the left limit
    first, since the junction may jump there.  Raises ValueError for a
    non-finite energy or sample point, PrecisionLoss when k > 0 and
    sqrt(k) |x| at the farthest point is too large for its phase to carry
    meaningful digits (core.check_phase), and TransferOverflow when a
    growing branch (k < 0) leaves the representable range.
    """
    k = solution.k
    xs = list(xs)
    if not all(math.isfinite(x) for x in xs):
        raise ValueError("sample points must be finite")
    check_phase(k, max(map(abs, xs), default=0.0))
    props = free_propagators(k, xs).tolist()
    out: list[tuple[float, float, float]] = []
    for x, ((c, s), _) in zip(xs, props):
        if x < 0.0:
            branches = [solution.left_coeffs]
        elif x > 0.0:
            branches = [solution.right_coeffs]
        else:
            branches = [solution.left_coeffs, solution.right_coeffs]
        for alpha, beta in branches:
            psi = alpha * c + beta * s
            dpsi = -k * alpha * s + beta * c
            if not (math.isfinite(psi) and math.isfinite(dpsi)):
                raise TransferOverflow(
                    f"solution left the representable range at x = {x}"
                )
            out.append((x, psi, dpsi))
    return out
