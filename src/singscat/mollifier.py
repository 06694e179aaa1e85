"""Mollified potentials and the numeric side of the junction story.

Replacing delta^m by (eps^-1 phi(x/eps))^m with a unit-mass bump phi gives
an ordinary potential whose transfer matrix can be computed by cell
propagation.  Comparing the eps -> 0 behaviour of that matrix against the
closed-form junction matrices is the whole point of this module: regimes
with a junction converge to it, the others are certified divergent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .core import Mat2, PotentialSpec, free_propagators, free_transfer
from .errors import (
    BracketError,
    InsufficientData,
    NoConvergence,
    SingscatError,
    TransferOverflow,
    error_tag,
)
from .sweep import sweep_map

# Cell refinement of the transfer integrator: start, hard cap.
N_CELLS_START = 64
N_CELLS_CAP = 2**22
# Cells per chunk of the ordered product; bounds its working memory.
_CHUNK_CELLS = 2**16

# Highest level resonant_search accepts; the bracket scan grows like
# level^2 and level 32 takes about 2 s.
MAX_LEVEL = 32

DEFAULT_TOL_REL = 1e-10
# A converged transfer whose determinant is further than this from 1 is
# refused as overflowed.
_DET_TOL = 1e-6

# Divergence certification thresholds (fitted slope of log deviation
# against log eps, and the spread test over one decade).
_DIVERGENT_SLOPE = -0.2
_DECADE_RATIO = 5.0
_DECADE_R2 = 0.5


@dataclass(frozen=True)
class MollifierShape:
    """Unit-mass even bump phi supported on [-half_support, half_support].

    The profile is vectorized over numpy arrays and returns 0 outside the
    support.  Mass and evenness are checked by quadrature at construction.
    """

    name: str
    half_support: float
    profile: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __post_init__(self):
        s = self.half_support
        mass, _ = quad(lambda y: float(self.profile(np.asarray(y))), -s, s, limit=200)
        if abs(mass - 1.0) > 1e-10:
            raise ValueError(f"shape {self.name} has mass {mass!r}, expected 1")
        probe = np.linspace(0.0, s, 17)
        if np.max(np.abs(self.profile(probe) - self.profile(-probe))) > 1e-12:
            raise ValueError(f"shape {self.name} is not even")

    def __call__(self, y) -> np.ndarray:
        return self.profile(np.asarray(y, dtype=float))


def _tophat(y: np.ndarray) -> np.ndarray:
    return np.where(np.abs(y) <= 0.5, 1.0, 0.0)


def _triangle(y: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, 1.0 - np.abs(y))


def _cosine_bump(y: np.ndarray) -> np.ndarray:
    return np.where(np.abs(y) <= 1.0, 0.5 * (1.0 + np.cos(np.pi * y)), 0.0)


_GAUSS_CUT = 8.0
_GAUSS_NORM = 1.0 / (math.sqrt(2.0 * math.pi) * math.erf(_GAUSS_CUT / math.sqrt(2.0)))


def _gauss(y: np.ndarray) -> np.ndarray:
    return np.where(
        np.abs(y) <= _GAUSS_CUT, _GAUSS_NORM * np.exp(-0.5 * y * y), 0.0
    )


TOP_HAT = MollifierShape("tophat", 0.5, _tophat)
TRIANGLE = MollifierShape("triangle", 1.0, _triangle)
COSINE_BUMP = MollifierShape("cosine", 1.0, _cosine_bump)
GAUSSIAN = MollifierShape("gauss", _GAUSS_CUT, _gauss)

SHAPES = {shape.name: shape for shape in (TOP_HAT, TRIANGLE, COSINE_BUMP, GAUSSIAN)}


@dataclass(frozen=True)
class RegularizedPotential:
    """Mollified point potential U(x) = c * eps^-m * phi(x/eps)^m."""

    spec: PotentialSpec
    shape: MollifierShape
    eps: float

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError(f"eps must be positive, got {self.eps}")

    @property
    def half_width(self) -> float:
        return self.shape.half_support * self.eps

    def __call__(self, x) -> np.ndarray:
        scale = self.spec.c * self.eps ** (-self.spec.m)
        return scale * self.shape(np.asarray(x, dtype=float) / self.eps) ** self.spec.m


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """Product mats[-1] @ ... @ mats[0] by balanced pairwise reduction."""
    # overflow is legitimate here: callers inspect finiteness and report
    with np.errstate(over="ignore", invalid="ignore"):
        while mats.shape[0] > 1:
            n = mats.shape[0]
            even = n - (n % 2)
            paired = np.matmul(mats[1:even:2], mats[0:even:2])
            if n % 2:
                paired = np.concatenate([paired, mats[even:]], axis=0)
            mats = paired
    return mats[0]


def _cell_product(
    k_eff_of: Callable[[np.ndarray], np.ndarray], left: float, h: float, n_cells: int
) -> np.ndarray:
    """Ordered product of n_cells propagators of width h starting at left.

    k_eff_of maps cell midpoints to k - v, and each cell is the exact
    free propagator core.free_propagators at that constant k - v.  Cells
    are taken in chunks of _CHUNK_CELLS multiplied into a running product,
    so memory stays bounded whatever the cell count; up to one chunk the
    product is the plain balanced reduction.  Overflowing or non-finite
    cells leave non-finite entries in the result, for the caller to refuse.
    """
    total: np.ndarray | None = None
    for start in range(0, n_cells, _CHUNK_CELLS):
        stop = min(start + _CHUNK_CELLS, n_cells)
        mids = left + (np.arange(start, stop) + 0.5) * h
        chunk = _ordered_product(free_propagators(k_eff_of(mids), h))
        if total is None:
            total = chunk
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                total = chunk @ total
    return total


def transfer_fixed_cells(
    pot: RegularizedPotential, k: float, n_cells: int
) -> np.ndarray:
    """Transfer matrix across the support with a fixed cell count.

    Midpoint sampling per cell, exact constant-cell propagators.  Returns
    the raw 2x2 array (entries may be non-finite on overflow).
    """
    half = pot.half_width
    return _cell_product(
        lambda mids: k - pot(mids), -half, 2.0 * half / n_cells, n_cells
    )


def _richardson(fine, coarse):
    """Extrapolant of two midpoint iterates at cell counts 2n and n.

    The midpoint error is even in h, so (4 T_2n - T_n) / 3 cancels its
    h^2 term.
    """
    return (4.0 * fine - coarse) / 3.0


def _checked(mat: np.ndarray, n_cells: int) -> Mat2:
    """Mat2 of a converged transfer; refuses one whose determinant is off 1.

    The exact transfer is unimodular, so a determinant further than
    _DET_TOL from 1 means the entries have outgrown their digits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        det = float(mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0])
    if not abs(det - 1.0) <= _DET_TOL:
        raise TransferOverflow(
            f"transfer determinant {det!r} is off 1 at {n_cells} cells"
        )
    return Mat2(mat[0, 0], mat[0, 1], mat[1, 0], mat[1, 1])


def numeric_transfer(
    pot: RegularizedPotential, k: float, tol_rel: float = DEFAULT_TOL_REL
) -> Mat2:
    """Transfer matrix of the mollified potential across its support.

    Doubles the cell count from 64, with a hard cap of 2^22 cells, and
    stops on the first of two tests, both in max-abs entry relative to
    the matrix scale:

    - successive midpoint iterates agree to tol_rel; the finer iterate is
      returned.  Shapes that are constant per cell, such as the top hat,
      stop here.
    - successive Richardson extrapolants (4 T_2n - T_n) / 3 agree to
      tol_rel; the finer extrapolant is returned.  Smooth shapes stop here,
      at m = 3 and eps = 1e-3 within 2^15 cells.

    Raises
    ------
    TransferOverflow
        if hyperbolic growth leaves the representable range, or the
        result's determinant is off 1 by more than 1e-6.
    NoConvergence
        if the cap is reached first (the last two iterates ride along on
        the exception).
    """
    n = N_CELLS_START
    prev: np.ndarray | None = None
    prev_ext: np.ndarray | None = None
    while True:
        cur = transfer_fixed_cells(pot, k, n)
        if not np.isfinite(cur).all():
            raise TransferOverflow(
                f"transfer entries left the representable range at {n} cells"
            )
        if prev is not None:
            scale = max(1.0, float(np.abs(cur).max()))
            if float(np.abs(cur - prev).max()) <= tol_rel * scale:
                return _checked(cur, n)
            ext = _richardson(cur, prev)
            if (
                prev_ext is not None
                and float(np.abs(ext - prev_ext).max()) <= tol_rel * scale
            ):
                return _checked(ext, n)
            prev_ext = ext
        if n >= N_CELLS_CAP:
            raise NoConvergence(
                f"no convergence to {tol_rel} within {N_CELLS_CAP} cells",
                last_iterates=(prev, cur),
            )
        prev = cur
        n *= 2


def effective_junction(
    pot: RegularizedPotential, k: float, tol_rel: float = DEFAULT_TOL_REL
) -> Mat2:
    """Junction-like matrix of a mollified potential.

    Free propagation over the half supports is stripped from both sides
    of the transfer matrix, leaving the part attributable to the bump:

        M_eps = F(k, -s eps) T F(k, -s eps)

    For regimes with a junction matrix, M_eps converges to it as
    eps -> 0.
    """
    strip = free_transfer(k, -pot.half_width)
    return strip @ numeric_transfer(pot, k, tol_rel) @ strip


@dataclass(frozen=True)
class ConvergenceRow:
    """One eps of a convergence sweep.

    deviation is the max-abs entry distance to the reference matrix (nan
    when no reference applies or the row failed); det_err is |det - 1|.
    error is "" for a computed row.
    """

    eps: float
    matrix: Mat2 | None
    deviation: float
    det_err: float
    error: str = ""


def convergence_sweep(
    p: PotentialSpec,
    shape: MollifierShape,
    eps_list: Sequence[float],
    k: float,
    reference: Mat2 | None = None,
    tol_rel: float = DEFAULT_TOL_REL,
) -> list[ConvergenceRow]:
    """Effective junction per eps, never aborting on per-row failures.

    eps_list must be strictly decreasing and positive.  Rows that
    overflow or fail to converge come back flagged with nan entries.
    """
    eps_values = [float(e) for e in eps_list]
    if not eps_values:
        raise ValueError("eps_list must not be empty")
    for earlier, later in zip(eps_values, eps_values[1:]):
        if not later < earlier:
            raise ValueError("eps_list must decrease strictly")
    if eps_values[-1] <= 0.0:
        raise ValueError("eps values must be positive")

    def one(eps: float) -> ConvergenceRow:
        try:
            m_eps = effective_junction(RegularizedPotential(p, shape, eps), k, tol_rel)
        except SingscatError as exc:
            return ConvergenceRow(
                eps=eps,
                matrix=None,
                deviation=math.nan,
                det_err=math.nan,
                error=error_tag(exc),
            )
        deviation = (
            m_eps.max_abs_diff(reference) if reference is not None else math.nan
        )
        return ConvergenceRow(
            eps=eps,
            matrix=m_eps,
            deviation=deviation,
            det_err=abs(m_eps.det() - 1.0),
        )

    return sweep_map(one, eps_values)


def estimate_order(rows: Sequence[ConvergenceRow]) -> tuple[float, float]:
    """Least-squares slope of log(deviation) against log(eps), with r^2.

    A positive slope is a convergence order, a negative one a divergence
    rate.  Needs at least three clean rows with positive deviations.
    """
    xs = []
    ys = []
    for row in rows:
        if row.error == "" and math.isfinite(row.deviation) and row.deviation > 0.0:
            xs.append(math.log(row.eps))
            ys.append(math.log(row.deviation))
    if len(xs) < 3:
        raise InsufficientData(
            f"order fit needs >= 3 usable rows, got {len(xs)}"
        )
    x = np.asarray(xs)
    y = np.asarray(ys)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), r2


def certify_convergence(
    rows: Sequence[ConvergenceRow],
) -> tuple[str, float, float]:
    """Classify a sweep as "convergent" or "non_convergent".

    Uses the reference deviations when present; without a reference the
    gaps between consecutive matrices stand in (a settling sequence has
    shrinking gaps, growth or oscillation does not).  A sweep is
    non-convergent when the fitted slope is <= -0.2, or when deviations
    within some decade of eps spread by more than 5x while the fit
    explains little (r^2 < 0.5).  Returns (verdict, slope, r2); too
    little data yields ("unknown", nan, nan).
    """
    clean = [row for row in rows if row.error == "" and row.matrix is not None]
    fit_rows = [
        row
        for row in clean
        if math.isfinite(row.deviation) and row.deviation > 0.0
    ]
    if len(fit_rows) < 3:
        fit_rows = []
        for row, finer in zip(clean, clean[1:]):
            gap = row.matrix.max_abs_diff(finer.matrix)
            if gap > 0.0:
                fit_rows.append(ConvergenceRow(row.eps, row.matrix, gap, row.det_err))
    if len(fit_rows) < 3:
        return ("unknown", math.nan, math.nan)
    slope, r2 = estimate_order(fit_rows)
    if slope <= _DIVERGENT_SLOPE:
        return ("non_convergent", slope, r2)
    if r2 < _DECADE_R2:
        devs = [(row.eps, row.deviation) for row in fit_rows]
        for eps_lo, _ in devs:
            window = [d for e, d in devs if eps_lo <= e <= 10.0 * eps_lo]
            if len(window) >= 2 and max(window) > _DECADE_RATIO * min(window):
                return ("non_convergent", slope, r2)
    return ("convergent", slope, r2)


def _zero_energy_shot(
    shape: MollifierShape, c: float, n_cells: int
) -> tuple[float, float]:
    """Propagate w'' = c phi(y)^2 w across the support from data (1, 0).

    Returns (w, w') at the right edge.  This is the scaling limit of the
    m = 2 potential, where eps drops out entirely.
    """
    s = shape.half_support
    total = _cell_product(
        lambda mids: -c * shape(mids) ** 2, -s, 2.0 * s / n_cells, n_cells
    )
    return float(total[0, 0]), float(total[1, 0])


def resonant_search(
    shape: MollifierShape,
    n: int,
    c_bracket: tuple[float, float] | None = None,
    rel_tol: float = 1e-10,
) -> tuple[float, int]:
    """n-th resonant coupling of the m = 2 scaling limit for a shape.

    Shooting at zero energy: integrate w'' = c phi(y)^2 w from (1, 0) at
    the left edge and bisect on c for w'(right edge) = 0.  Levels are
    ordered by |c|; the returned parity sign(w(s)/w(-s)) says whether the
    limiting junction is +identity or -identity.  For the top-hat shape
    the levels are exactly -(n pi)^2.

    The root is found at 2048 cells and again at each doubling.  The
    search stops when two successive roots agree to rel_tol (the top hat,
    exact per cell, stops here), or when two successive Richardson
    extrapolants (4 r_2n - r_n) / 3 do, and then returns the finer
    extrapolant.

    c_bracket optionally restricts the scan to (c_lo, c_hi); it must
    contain at least n sign changes of the shooting function.

    Raises
    ------
    ValueError
        if n is outside 1..MAX_LEVEL.
    BracketError
        if the scan does not isolate the requested level.
    NoConvergence
        if cell refinement cannot pin the level to rel_tol.
    """
    if not 1 <= n <= MAX_LEVEL:
        raise ValueError(f"level index must be in 1..{MAX_LEVEL}, got {n}")
    if c_bracket is None:
        c_hi = -1e-12
        c_lo = -4.0 * ((n + 2) * math.pi) ** 2
    else:
        c_lo, c_hi = float(c_bracket[0]), float(c_bracket[1])
        if not c_lo < c_hi:
            raise BracketError(f"empty bracket ({c_lo}, {c_hi})")
        c_hi = min(c_hi, -1e-12)

    n_cells = 2048
    step = math.pi**2 / 8.0
    if c_bracket is not None:
        step = min(step, (c_hi - c_lo) / (16.0 * (n + 1)))

    def shoot(c: float, cells: int) -> float:
        return _zero_energy_shot(shape, c, cells)[1]

    # Walk down from c_hi counting sign changes; the n-th one brackets c_n.
    lo = hi = c_hi
    g_hi = shoot(c_hi, n_cells)
    found = 0
    while found < n:
        lo = hi - step
        if lo < c_lo - 1e-12:
            raise BracketError(
                f"only {found} sign changes above {c_lo}, needed {n}"
            )
        g_lo = shoot(lo, n_cells)
        if g_lo == 0.0 or g_lo * g_hi < 0.0:
            found += 1
        if found < n:
            hi, g_hi = lo, g_lo

    def refine(cells: int, a: float, b: float) -> float:
        ga, gb = shoot(a, cells), shoot(b, cells)
        widen = 0
        while ga * gb > 0.0:
            widen += 1
            if widen > 8:
                raise BracketError("bracket lost under cell refinement")
            a -= step / 4.0
            b = min(b + step / 4.0, -1e-12)
            ga, gb = shoot(a, cells), shoot(b, cells)
        return brentq(lambda c: shoot(c, cells), a, b, xtol=1e-30, rtol=1e-15)

    root = refine(n_cells, lo, hi)
    prev_ext: float | None = None
    while True:
        n_cells *= 2
        nxt = refine(n_cells, root - step / 8.0, min(root + step / 8.0, -1e-12))
        if abs(nxt - root) <= rel_tol * abs(nxt):
            root = nxt
            break
        ext = _richardson(nxt, root)
        if prev_ext is not None and abs(ext - prev_ext) <= rel_tol * abs(ext):
            root = ext
            break
        root, prev_ext = nxt, ext
        if n_cells >= 2**20:
            raise NoConvergence(
                f"level {n} not pinned to {rel_tol} within {n_cells} cells"
            )
    w_end, _ = _zero_energy_shot(shape, root, n_cells)
    parity = 1 if w_end > 0.0 else -1
    return root, parity
