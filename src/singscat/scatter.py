"""Scattering and bound states of point potentials on the line.

Complex amplitudes live here and only here; the matrices coming in from
the junction and propagation layers stay real.
"""

from __future__ import annotations

import gc
import math
import sys
from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import repeat

from .core import (
    Mat2,
    PiecewiseSolution,
    _as_list,
    _check_type,
    _float,
    check_phase,
    free_propagators,
)
from .errors import (
    ChainOrderError,
    NonPositiveEnergy,
    NoScatteringState,
    TransferOverflow,
)
from .sweep import sweep_map

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

    in CPython's complex arithmetic; amplitude_kernel._amplitude_block
    transcribes these operations into arrays.  The float operands are
    spelled complex(x, 0.0), as CPython 3.11 promotes them in a mixed
    float/complex operation, so the signed zeros do not depend on the
    Python version.  Raises
    NonPositiveEnergy if -inf < k <= 0 (or nan), ValueError if k is infinite, and
    NoScatteringState if the matching system is inconsistent (D = 0), as
    for the junction diag(-1, 1): each part of D is within _DEGENERACY_TOL
    of its own terms, or |D| overflows.  Raises TransferOverflow when |r|
    or |t| reaches _AMPLITUDE_MAX, and ValueError for a junction that is
    not a Mat2 or an energy that is a bool or not a real number.
    """
    _check_type(junction, Mat2, "junction")
    if type(k) is not float:
        k = _float(k, "k")
    if not 0.0 < k < math.inf:
        if math.isinf(k):
            raise ValueError(f"scattering needs a finite k, got {k}")
        raise NonPositiveEnergy(f"scattering needs k > 0, got {k}")
    q = math.sqrt(k)
    j11, j12, j21, j22 = junction.m11, junction.m12, junction.m21, junction.m22
    d_re, d_im = k * j12 - j21, q * (j11 + j22)
    if math.hypot(d_re, d_im) == math.inf or (
        abs(d_re) <= _DEGENERACY_TOL * (k * abs(j12) + abs(j21))
        and abs(d_im) <= _DEGENERACY_TOL * (q * (abs(j11) + abs(j22)))
    ):
        raise NoScatteringState("plane-wave matching system is inconsistent")
    denom = complex(d_re, d_im)
    r = complex(k * j12 + j21, q * (j22 - j11)) / denom
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


def _amplitude_columns(junction: Mat2, ks: Sequence[float]) -> Iterator[tuple]:
    """Per block of _BLOCK energies: (block, errors, r, t, reflect_prob,
    transmit_prob, flux_residual), the block's energies and its columns.

    Each block is sliced from ks, and its tuple made, as it is consumed.
    errors is None for a block where no energy fails, else a tag per
    energy: "" for a good one, the tag of its exception
    (SingscatError.tag) for a failing one, whose numbers are nan.  A block
    that holds an infinite energy raises ValueError.  Each block goes to
    the one choice of kernel: once numpy is loaded, the array kernel of
    amplitude_kernel, which loads only then, and scattering_amplitudes
    names the errors it flags; otherwise
    scattering_amplitudes for each energy, and numpy stays unloaded.  The
    bits are the same.
    """

    def row(k: float) -> tuple:
        _, r, t, rr, tt, _, flux = scattering_amplitudes(junction, k)
        return "", r, t, rr, tt, flux

    def scalar_rows(ks: list[float]) -> Iterator[tuple]:
        nan = complex(math.nan, math.nan)
        return sweep_map(row, ks, lambda k, tag: (tag, nan, nan, *[math.nan] * 3))

    np = sys.modules.get("numpy")
    if np is not None:
        from .amplitude_kernel import _amplitude_block

    def block_columns(block: list[float]) -> tuple:
        # one pass: a finite sum rules out both infinities (and nan)
        if not math.isfinite(sum(block, 0.0)) and (math.inf in block or -math.inf in block):
            raise ValueError("scattering needs a finite k, got an infinite one")
        if np is None:
            errors, *columns = zip(*scalar_rows(block))
            return (block, errors if any(errors) else None, *columns)
        codes, columns = _amplitude_block(junction, np.fromiter(block, float, len(block)))
        if codes is None:
            return (block, None, *columns)
        # one tag per failing code: the scalar formula's error at its first energy
        tags = {0: ""}
        for c in set(codes) - {0}:
            tags[c] = next(scalar_rows([block[codes.index(c)]]))[0]
        return (block, list(map(tags.__getitem__, codes)), *columns)

    blocks = (ks[lo : lo + _BLOCK] for lo in range(0, len(ks), _BLOCK))
    return map(block_columns, blocks)


def transmission_curve(junction: Mat2, k_grid: Sequence[float]) -> list[SweepRow]:
    """scattering_amplitudes over a grid, errors flagged per row.

    Output order matches input order; a failing energy yields a flagged
    row instead of aborting the sweep.  Raises ValueError if k_grid is not
    a sequence, any energy is infinite, a bool or not a real number, or
    the junction is not a Mat2.  The energies' types are checked in one
    C-level pass, set(map(type, ks)), which a float grid leaves as {float}.

    The rows are built with automatic garbage collection paused: the
    records are tuple subclasses, which the cyclic collector keeps tracked
    and would walk again at every pass while the list grows, though they
    can form no cycle.  The switch is process-wide, so for the length of
    the loop (about 20 ms per 20,000 energies) no thread gets an automatic
    collection, and a gc.disable() made by another thread meanwhile is
    undone at its end.  The collector is left as it was found, on return
    and on error alike.
    """
    _check_type(junction, Mat2, "junction")
    ks = _as_list(k_grid, "k_grid")
    if set(map(type, ks)) - {float}:
        ks = [_float(k, "k") for k in ks]
    det_j = junction.det()
    new = tuple.__new__
    rows: list[SweepRow] = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for block, errors, r, t, rr, tt, flux in _amplitude_columns(junction, ks):
            fields = zip(block, r, t, rr, tt, repeat(det_j), flux)
            if errors is None:
                results = map(new, repeat(ScatteringResult), fields)
            else:  # a failing energy's row holds None and its tag, and no record
                results = [
                    None if error else new(ScatteringResult, f)
                    for f, error in zip(fields, errors)
                ]
            rows += map(new, repeat(SweepRow), zip(block, results, errors or repeat("")))
    finally:
        if enabled:
            gc.enable()
    return rows


def bound_states(junction: Mat2) -> BoundSpectrum:
    """Decaying solutions exp(kappa x) / exp(-kappa x) glued by the junction.

    Matching eliminates the amplitudes and leaves

        J12 kappa^2 + (J11 + J22) kappa + J21 = 0,

    solved exactly; roots with kappa > 0 are bound states of energy
    -kappa^2.  If the equation vanishes identically every kappa matches
    and the spectrum is reported as continuum degenerate (the junction
    diag(-1, 1) does this).  Raises TransferOverflow when a bound state's
    energy -kappa^2 leaves the float range (kappa above about 1.3e154),
    and ValueError for a junction that is not a Mat2.
    """
    _check_type(junction, Mat2, "junction")
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

    The gaps are subtracted as one array, which the order check, the
    phase check of the widest gap and one free_propagators call read; the
    propagators come back as three lists, their entries C, S and -k S
    (C is the (2,2) entry too), and the product is then folded left to
    right in plain floats and checked once.

    Raises ChainOrderError naming the first pair of positions that do not
    increase (a nan position never does), PrecisionLoss when k > 0 and
    sqrt(k) times the widest gap is too large for its phase to carry
    meaningful digits (core.check_phase), TransferOverflow when the
    running product leaves the representable range, naming the x of the
    first junction where it did, and ValueError for a k that is not a
    finite real number or a chain that is not an iterable of (position,
    Mat2) pairs, each position a real number.  Positions are taken as
    floats before their gaps are subtracted, so int positions past 2^53
    round first.
    """
    if not math.isfinite(k := _float(k, "k")):
        raise ValueError(f"k must be finite, got {k}")
    xs, junctions = _links(chain)
    import numpy as np

    x = np.array(xs, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # 1e308 - -1e308, inf - inf
        widths = x[1:] - x[:-1]
    # b - a > 0 exactly when b > a: two unequal floats never differ by 0,
    # and a nan width (inf - inf, or a nan position) is not > 0
    increasing = widths > 0.0
    if not increasing.all():
        i = int(increasing.argmin())
        raise ChainOrderError(
            f"positions must increase strictly, got {xs[i]} then {xs[i + 1]}"
        )
    check_phase(k, widths.max(initial=0.0))
    # one gap per junction, as columns C, S and -k S: nothing propagates
    # before the first junction, and identity @ identity is exactly the
    # identity, so that step changes no bit
    stack = np.empty((3, widths.size + 1))
    stack[:, 0] = 1.0, 0.0, 0.0
    stack[:, 1:] = free_propagators(k, widths).reshape(-1, 4)[:, :3].T
    gaps = stack.tolist()
    total = _fold(Mat2.identity(), *gaps, junctions)
    if not all(map(math.isfinite, total)):
        # A non-finite entry never leaves its column (every later entry of
        # that column adds a multiple of it), so the total is non-finite
        # exactly when some step made it so; walk again to find that step.
        total = Mat2.identity()
        for i, x in enumerate(xs):
            step = [column[i : i + 1] for column in (*gaps, junctions)]
            total = _fold(total, *step)
            if not all(map(math.isfinite, total)):
                raise TransferOverflow(
                    f"chain transfer left the representable range at x = {x}"
                )
    return Mat2(*total)


def _links(chain) -> tuple[list, list]:
    """The positions and the junctions of a chain, checked in one pass.

    Raises ValueError unless chain is an iterable of (position, junction)
    pairs, each position a real number and each junction a Mat2.  The
    positions come back as floats; a float passes on its exact type,
    without the call to _float.
    """
    xs, junctions = [], []
    try:
        for x, junction in chain:
            if not isinstance(junction, Mat2):
                break
            xs.append(x if type(x) is float else _float(x, "position"))
            junctions.append(junction)
        else:
            return xs, junctions
    except (TypeError, ValueError):  # chain not iterable, or a link not a pair
        pass
    raise ValueError("chain must list (position, Mat2) pairs with real positions")


def _fold(
    total: tuple, c: list, s: list, minus_ks: list, junctions: Sequence[tuple]
) -> tuple:
    """total, then gap and junction per step: J_i @ (G_i @ total), row major.

    G_i is [[c_i, s_i], [minus_ks_i, c_i]], a free propagator.  Each
    product is term for term Mat2.__matmul__, in local floats.
    """
    t11, t12, t21, t22 = total
    for g11, g12, g21, (j11, j12, j21, j22) in zip(c, s, minus_ks, junctions):
        u11 = g11 * t11 + g12 * t21
        u12 = g11 * t12 + g12 * t22
        u21 = g21 * t11 + g11 * t21
        u22 = g21 * t12 + g11 * t22
        t11 = j11 * u11 + j12 * u21
        t12 = j11 * u12 + j12 * u22
        t21 = j21 * u11 + j22 * u21
        t22 = j21 * u12 + j22 * u22
    return t11, t12, t21, t22


def evaluate_solution(
    solution: PiecewiseSolution, xs: Sequence[float]
) -> list[tuple[float, float, float]]:
    """Sample (x, psi, psi') of a piecewise solution.

    Points left of the origin use the left branch, points right of it the
    right branch.  x = 0 produces two consecutive samples, the left limit
    first, since the junction may jump there.  The energy and the left
    coefficients are taken as floats.  Raises ValueError for a solution
    that is not a PiecewiseSolution, xs that are not a sequence, an energy
    or coefficient that is not a real number, or a non-finite energy or
    sample point, PrecisionLoss when k > 0 and sqrt(k) |x| at the farthest
    point is too large for its phase to carry meaningful digits
    (core.check_phase), and TransferOverflow when a growing branch (k < 0)
    leaves the representable range.
    """
    _check_type(solution, PiecewiseSolution, "solution")
    k = _float(solution.k, "k")
    left = tuple(_float(x, "left coefficient") for x in solution.left_coeffs)
    right = solution.junction.apply(left)
    xs = [_float(x, "sample point") for x in _as_list(xs, "xs")]
    if not all(map(math.isfinite, xs)):
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
