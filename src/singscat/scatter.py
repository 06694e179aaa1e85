"""Scattering and bound states of point potentials on the line.

Complex amplitudes live here and only here; the matrices coming in from
the junction and propagation layers stay real.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import chain, repeat

from .core import TYPE_CHECKING, Mat2, PiecewiseSolution, check_phase, free_propagators
from .errors import (
    ChainOrderError,
    NonPositiveEnergy,
    NoScatteringState,
    TransferOverflow,
)
from .sweep import sweep_map

if TYPE_CHECKING:
    import numpy as np

# The matching system is declared inconsistent when both parts of its
# determinant D are this small relative to their own terms: Re D against
# k |J12| + |J21|, Im D against q (|J11| + |J22|).
_DEGENERACY_TOL = 1e-14
# |r| and |t| from here on are refused as overflow: their squares, R and T,
# would leave the float range or come close to it.
_AMPLITUDE_MAX = 2.0**511

# Energies per pass of the amplitude kernel.  A pass holds about twenty
# float arrays of this length at once, so blocks keep that memory small
# next to the rows a long sweep builds from it.
_BLOCK = 2048


class ScatteringResult(
    namedtuple(
        "ScatteringResult", "k r t reflect_prob transmit_prob det_j flux_residual"
    )
):
    """Amplitudes and flux diagnostics at one energy k > 0.

    The amplitudes r and t are complex, every other field a float.
    flux_residual = (|t|^2 + det(J) |r|^2 - det(J)) / max(1, R, T); the
    numerator vanishes identically for unit-determinant junctions, and the
    signed form holds for det(J) = -1 as well, so the residual is the one
    number to watch in either case.  The numerator rounds like the larger
    of R and T, so it is taken relative to max(1, R, T): it is unscaled
    while R, T <= 1, and where R = T = 4e28 its rounding reads 1 and the
    residual 2.5e-29.
    """

    __slots__ = ()


class SweepRow(namedtuple("SweepRow", "k result error", defaults=(None, ""))):
    """One energy of a sweep: a ScatteringResult and error "", or None and a tag."""

    __slots__ = ()


class BoundSpectrum(namedtuple("BoundSpectrum", "kind kappas", defaults=((),))):
    """Negative-energy spectrum of a junction matrix.

    kind is "empty", "discrete" (kappas carries the decay rates as a
    tuple of floats, energies are -kappa^2) or "continuum_degenerate"
    (every kappa > 0 matches, so no discrete set exists).
    """

    __slots__ = ()

    @property
    def energies(self) -> tuple[float, ...]:
        return tuple(-kappa * kappa for kappa in self.kappas)


def scattering_amplitudes(junction: Mat2, k: float) -> ScatteringResult:
    """Reflection and transmission amplitudes of a junction at energy k > 0.

    The incoming wave exp(i sqrt(k) x) from the left, together with
    r exp(-i sqrt(k) x) on the left and t exp(i sqrt(k) x) on the right,
    is matched through the junction.  Writing q = sqrt(k), the unique
    solution is

        r = (q^2 J12 + J21 + i q (J22 - J11)) / D
        t = J11 (1 + r) + i q J12 (1 - r)
        D = q^2 J12 - J21 + i q (J11 + J22)

    in CPython's complex arithmetic; _amplitude_block transcribes these
    operations into arrays.  The float operands are spelled complex(x, 0.0),
    as CPython 3.11 promotes them in a mixed float/complex operation, so
    the signed zeros do not depend on the Python version.  Raises
    NonPositiveEnergy if k <= 0 (or nan), ValueError if k is infinite, and
    NoScatteringState if the matching system is inconsistent (D = 0), as
    for the junction diag(-1, 1): each part of D is within _DEGENERACY_TOL
    of its own terms, or |D| overflows.  Raises TransferOverflow when |r|
    or |t| reaches _AMPLITUDE_MAX.
    """
    kf = float(k)
    if kf == math.inf:
        raise ValueError("scattering needs a finite k, got inf")
    if not kf > 0.0:
        raise NonPositiveEnergy(f"scattering needs k > 0, got {k}")
    q = math.sqrt(kf)
    j11, j12, j21, j22 = junction.m11, junction.m12, junction.m21, junction.m22
    d_re, d_im = kf * j12 - j21, q * (j11 + j22)
    if math.hypot(d_re, d_im) == math.inf or (
        abs(d_re) <= _DEGENERACY_TOL * (kf * abs(j12) + abs(j21))
        and abs(d_im) <= _DEGENERACY_TOL * (q * (abs(j11) + abs(j22)))
    ):
        raise NoScatteringState("plane-wave matching system is inconsistent")
    denom = complex(d_re, d_im)
    r = complex(kf * j12 + j21, q * (j22 - j11)) / denom
    one = complex(1.0, 0.0)
    t = complex(j11, 0.0) * (one + r) + (
        1j * complex(q, 0.0) * complex(j12, 0.0) * (one - r)
    )
    try:
        mod_r, mod_t = abs(r), abs(t)
    except OverflowError:  # past the float range, where np.hypot gives inf
        mod_r = mod_t = math.inf
    if not (mod_r < _AMPLITUDE_MAX and mod_t < _AMPLITUDE_MAX):
        raise TransferOverflow(f"|r|^2 or |t|^2 leaves the float range at k = {k}")
    rr, tt = mod_r**2, mod_t**2
    det_j = junction.det()
    flux = (tt + det_j * rr - det_j) / max(1.0, rr, tt)
    return ScatteringResult(k, r, t, rr, tt, det_j, flux)


def _amplitude_rows(junction: Mat2, ks: list[float]) -> Iterator[tuple]:
    """Rows (error, r, t, reflect_prob, transmit_prob, flux_residual) of ks.

    error is "" for a good energy; a failing one gives the tag of its
    exception (SingscatError.tag) and nan for the numbers.  Raises
    ValueError at the call if any energy is infinite.  The one choice of
    amplitude kernel: once numpy is loaded, the array kernel takes the
    energies _BLOCK at a time as the rows are consumed, and
    scattering_amplitudes names the errors it flags; otherwise it takes
    each energy, and numpy stays unloaded.  The bits are the same.
    """
    if math.inf in ks:
        raise ValueError("scattering needs a finite k, got inf")

    def row(k: float) -> tuple:
        _, r, t, rr, tt, _, flux = scattering_amplitudes(junction, k)
        return "", r, t, rr, tt, flux

    def scalar_rows(ks: list[float]) -> list[tuple]:
        nan = complex(math.nan, math.nan)
        return sweep_map(row, ks, lambda k, tag: (tag, nan, nan, *[math.nan] * 3))

    np = sys.modules.get("numpy")
    if np is None:
        return iter(scalar_rows(ks))

    def block_rows(block: list[float]) -> Iterator[tuple]:
        codes, rows = _amplitude_block(junction, np.array(block, dtype=float))
        reasons = set(codes) - {0}
        if not reasons:
            return rows
        # one row per reason: the scalar formula's error at its first energy
        failed = {c: scalar_rows([block[codes.index(c)]])[0] for c in reasons}
        return (failed[code] if code else kept for code, kept in zip(codes, rows))

    blocks = (ks[lo : lo + _BLOCK] for lo in range(0, len(ks), _BLOCK))
    return chain.from_iterable(map(block_rows, blocks))


def _amplitude_block(junction: Mat2, k: np.ndarray) -> tuple[list, Iterator[tuple]]:
    """_amplitude_rows' rows for finite energies k, and a code per energy.

    The code is 0 for a good energy, else why it fails: 1 for k <= 0 (or
    nan), 2 for D = 0, 3 for |r| or |t| from _AMPLITUDE_MAX.  A failing
    energy's row holds nan and error "".
    """
    import numpy as np

    j11, j12, j21, j22 = junction.m11, junction.m12, junction.m21, junction.m22
    with np.errstate(all="ignore"):
        q = np.sqrt(k)
        d_re, d_im = k * j12 - j21, q * (j11 + j22)
        degenerate = (np.hypot(d_re, d_im) == np.inf) | (
            (abs(d_re) <= _DEGENERACY_TOL * (k * abs(j12) + abs(j21)))
            & (abs(d_im) <= _DEGENERACY_TOL * (q * (abs(j11) + abs(j22))))
        )
        code = np.where(k > 0.0, np.where(degenerate, 2, 0), 1)
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
        code[(code == 0) & ~(mods < _AMPLITUDE_MAX).all(axis=0)] = 3
        mods[:, code == 3] = math.nan
    # abs(.) ** 2 stays Python's pow, which rounds differently from x * x
    rr, tt = (list(map(pow, row.tolist(), repeat(2))) for row in mods)
    det_j = junction.det()
    rr_a, tt_a = np.array(rr), np.array(tt)
    flux = (tt_a + det_j * rr_a - det_j) / np.maximum(1.0, np.maximum(rr_a, tt_a))
    return code.tolist(), zip(repeat(""), *amps.tolist(), rr, tt, flux.tolist())


def _c_quot(a_re, a_im, b_re, b_im):
    """a / b as CPython's _Py_c_quot (Smith's method), over arrays.

    Its zero-divisor branch (ZeroDivisionError) and its nan branch never
    apply to the rows kept: they are flagged as inconsistent first.
    """
    import numpy as np

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
    row instead of aborting the sweep.  Raises ValueError if any energy
    is infinite.
    """
    ks = list(k_grid)
    det_j = junction.det()
    new = tuple.__new__
    return [
        new(SweepRow, (k, None, error))
        if error
        else new(SweepRow, (k, new(ScatteringResult, (k, r, t, rr, tt, det_j, flux)), ""))
        for k, (error, r, t, rr, tt, flux) in zip(ks, _amplitude_rows(junction, ks))
    ]


def bound_states(junction: Mat2) -> BoundSpectrum:
    """Decaying solutions exp(kappa x) / exp(-kappa x) glued by the junction.

    Matching eliminates the amplitudes and leaves

        J12 kappa^2 + (J11 + J22) kappa + J21 = 0,

    solved exactly; roots with kappa > 0 are bound states of energy
    -kappa^2.  If the equation vanishes identically every kappa matches
    and the spectrum is reported as continuum degenerate (the junction
    diag(-1, 1) does this).  Raises TransferOverflow when a bound state's
    energy -kappa^2 leaves the float range (kappa above about 1.3e154).
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
    if not math.isfinite(kappas[-1] * kappas[-1]):
        raise TransferOverflow(
            f"bound state energy -kappa^2 overflows at kappa = {kappas[-1]!r}"
        )
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
    is then folded left to right in plain floats and checked once.

    Raises TransferOverflow when the running product leaves the
    representable range, naming the x of the first junction where it did.
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
    # nothing propagates before the first junction; identity @ identity
    # is exactly the identity, so this step changes no bit
    gaps = [Mat2.identity()] + gaps.reshape(-1, 4).tolist()
    total = _fold(Mat2.identity(), gaps, chain)
    if not all(map(math.isfinite, total)):
        # A non-finite entry never leaves its column (every later entry of
        # that column adds a multiple of it), so the total is non-finite
        # exactly when some step made it so; walk again to find that step.
        total = Mat2.identity()
        for gap, step in zip(gaps, chain):
            total = _fold(total, [gap], [step])
            if not all(map(math.isfinite, total)):
                raise TransferOverflow(
                    f"chain transfer left the representable range at x = {step[0]}"
                )
    return Mat2(*total)


def _fold(total: tuple, gaps: Sequence[tuple], chain: Sequence[tuple]) -> tuple:
    """total, then gap and junction per step: J_i @ (G_i @ total), row major.

    Each product is term for term Mat2.__matmul__, in four local floats.
    """
    t11, t12, t21, t22 = total
    for (g11, g12, g21, g22), (_, (j11, j12, j21, j22)) in zip(gaps, chain):
        t11, t12, t21, t22 = (
            g11 * t11 + g12 * t21,
            g11 * t12 + g12 * t22,
            g21 * t11 + g22 * t21,
            g21 * t12 + g22 * t22,
        )
        t11, t12, t21, t22 = (
            j11 * t11 + j12 * t21,
            j11 * t12 + j12 * t22,
            j21 * t11 + j22 * t21,
            j21 * t12 + j22 * t22,
        )
    return t11, t12, t21, t22


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
    k, left, right = solution.k, solution.left_coeffs, solution.right_coeffs
    xs = list(xs)
    if not all(math.isfinite(x) for x in xs):
        raise ValueError("sample points must be finite")
    check_phase(k, max(map(abs, xs), default=0.0))
    props = free_propagators(k, xs).tolist()
    out: list[tuple[float, float, float]] = []
    for x, ((c, s), _) in zip(xs, props):
        if x < 0.0:
            branches = [left]
        elif x > 0.0:
            branches = [right]
        else:
            branches = [left, right]
        for alpha, beta in branches:
            psi = alpha * c + beta * s
            dpsi = -k * alpha * s + beta * c
            if not (math.isfinite(psi) and math.isfinite(dpsi)):
                raise TransferOverflow(
                    f"solution left the representable range at x = {x}"
                )
            out.append((x, psi, dpsi))
    return out
