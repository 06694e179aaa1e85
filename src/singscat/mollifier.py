"""Mollified potentials and the numeric side of the junction story.

Replacing delta^m by (eps^-1 phi(x/eps))^m with a unit-mass bump phi gives
an ordinary potential whose transfer matrix can be computed by cell
propagation.  Comparing the eps -> 0 behaviour of that matrix against the
closed-form junction matrices is the whole point of this module: regimes
with a junction converge to it, the others are certified divergent.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Sequence

import numpy as np

from .core import (
    CheckedRecord,
    Mat2,
    PotentialSpec,
    check_phase,
    free_propagators,
    free_transfer,
)
from .errors import (
    BracketError,
    InsufficientData,
    NoConvergence,
    PrecisionLoss,
    SingscatError,
    TransferOverflow,
)
from .sweep import sweep_map

# Cell refinement of the transfer integrator: start, hard cap, and the
# relative tolerance its stop tests apply.
N_CELLS_START = 64
N_CELLS_CAP = 2**22
TOL_REL = 1e-10
# Cells per chunk of the ordered product; bounds its working memory.
_CHUNK_CELLS = 2**16

# Highest level resonant_search accepts; the bracket scan grows like
# level^2: level 32 takes 8202 shots for the top hat and 8435 for the
# gauss (2.5-2.8 s end to end on a 2-vCPU VM, Python 3.11, 2026-10-18).
MAX_LEVEL = 32

# A converged transfer whose determinant is further than this from 1 is
# refused as overflowed.
_DET_TOL = 1e-6


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-node Gauss-Legendre rule on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of
    the Legendre recurrence, the weights twice the squared first entries
    of its eigenvectors.  Both are symmetrized, as
    numpy.polynomial.legendre.leggauss does; that function would import
    numpy.polynomial, which costs more than this rule.
    """
    i = np.arange(1.0, n)
    nodes, vectors = np.linalg.eigh(np.diag(i / np.sqrt(4.0 * i * i - 1.0), -1))
    weights = 2.0 * vectors[0] ** 2
    return 0.5 * (nodes - nodes[::-1]), 0.5 * (weights + weights[::-1])


# Mass check of a shape: composite Gauss-Legendre rule with this many
# equal panels over the support and this many nodes per panel.  The even
# panel count puts y = 0, where the triangle has its kink, on a panel edge.
_MASS_PANELS = 64
_MASS_NODES, _MASS_WEIGHTS = _gauss_legendre(16)

# Edge-order check of a shape: the log-log slope of the profile between
# these two distances from the edge (fractions of the half support) must
# match the declared order to _EDGE_SLOPE_TOL.
_EDGE_PROBES = (1e-3, 1e-4)
_EDGE_SLOPE_TOL = 1e-2
# Columns of the refinement ladder's Romberg tableau beyond the iterates.
_TABLEAU_DEPTH = 3

# Divergence certification thresholds (fitted slope of log deviation
# against log eps, and the spread test over one decade).
_DIVERGENT_SLOPE = -0.2
_DECADE_RATIO = 5.0
_DECADE_R2 = 0.5


class MollifierShape(
    CheckedRecord,
    namedtuple(
        "MollifierShape", "name half_support profile edge_order", defaults=(None,)
    ),
):
    """Unit-mass even bump phi supported on [-half_support, half_support].

    The profile is vectorized over numpy arrays and returns 0 outside the
    support.  Construction refuses a half_support that is not positive and
    finite, then checks the mass to 1e-10 with a composite 16-node
    Gauss-Legendre rule on 64 equal panels of [-half_support,
    half_support], and evenness on 17 probe points; each failure raises
    ValueError.  A profile with kinks inside the support should have them
    on panel edges, as the triangle's at y = 0 is.

    edge_order, when given, is the order alpha at which the profile
    vanishes at the edge of its support, phi(s - d) ~ d^alpha; it puts an
    h^(1 + alpha m) term into the midpoint error of phi^m, which the
    refinement ladder cancels (error_exponents).  Construction checks it
    against the log-log slope of the profile at 1e-3 s and 1e-4 s from
    the edge, to 1e-2, and raises ValueError on a mismatch.  None, the
    default, declares no edge term: the profile jumps on a cell edge, as
    the top hat does, or is negligible at its cut, as the gauss is.
    The repr leaves the profile out.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        name, s, profile, edge_order = self
        if not (math.isfinite(s) and s > 0.0):
            raise ValueError(
                f"shape {name} half support must be positive and finite, got {s!r}"
            )
        half_panel = s / _MASS_PANELS
        centres = -s + (2.0 * np.arange(_MASS_PANELS) + 1.0) * half_panel
        nodes = centres[:, None] + half_panel * _MASS_NODES
        mass = half_panel * float(np.sum(profile(nodes) @ _MASS_WEIGHTS))
        if not abs(mass - 1.0) <= 1e-10:
            raise ValueError(f"shape {name} has mass {mass!r}, expected 1")
        probe = np.linspace(0.0, s, 17)
        if not np.max(np.abs(profile(probe) - profile(-probe))) <= 1e-12:
            raise ValueError(f"shape {name} is not even")
        if edge_order is not None:
            self._check_edge_order()
        return self

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"half_support={self.half_support!r}, edge_order={self.edge_order!r})"
        )

    def _check_edge_order(self):
        alpha = self.edge_order
        if not (math.isfinite(alpha) and alpha > 0.0):
            raise ValueError(
                f"shape {self.name} edge order must be positive, got {alpha}"
            )
        s = self.half_support
        dists = s * np.asarray(_EDGE_PROBES)
        far, near = self.profile(s - dists)
        # a profile that is zero or negative there gives a nan or inf slope
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = float(np.log(far / near) / np.log(dists[0] / dists[1]))
        if not abs(slope - alpha) <= _EDGE_SLOPE_TOL:
            raise ValueError(
                f"shape {self.name} vanishes at its edge with order {slope!r}, "
                f"declared {alpha}"
            )

    def error_exponents(self, m: float) -> list[float]:
        """Lowest powers of h in the midpoint error of phi^m, ascending.

        The smooth part contributes h^2, h^4, h^6; an edge of order alpha
        adds h^(1 + alpha m).  The first _TABLEAU_DEPTH powers are kept.
        """
        powers = {2.0, 4.0, 6.0}
        if self.edge_order is not None:
            powers.add(1.0 + self.edge_order * m)
        return sorted(powers)[:_TABLEAU_DEPTH]

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
TRIANGLE = MollifierShape("triangle", 1.0, _triangle, edge_order=1.0)
COSINE_BUMP = MollifierShape("cosine", 1.0, _cosine_bump, edge_order=2.0)
GAUSSIAN = MollifierShape("gauss", _GAUSS_CUT, _gauss)

SHAPES = {shape.name: shape for shape in (TOP_HAT, TRIANGLE, COSINE_BUMP, GAUSSIAN)}


class RegularizedPotential(
    CheckedRecord, namedtuple("RegularizedPotential", "spec shape eps")
):
    """Mollified point potential U(x) = c * eps^-m * phi(x/eps)^m."""

    __slots__ = ()

    def __new__(cls, spec: PotentialSpec, shape: MollifierShape, eps: float):
        if not (math.isfinite(eps) and eps > 0.0):
            raise ValueError(f"eps must be positive, got {eps}")
        return tuple.__new__(cls, (spec, shape, eps))

    @property
    def half_width(self) -> float:
        return self.shape.half_support * self.eps

    @property
    def scale(self) -> float:
        """The factor c * eps^-m; a zero coupling gives zero at every eps.

        Raises TransferOverflow when eps^-m leaves the float range.
        """
        c = self.spec.c
        if c == 0.0:
            return c
        try:
            return c * self.eps ** (-self.spec.m)
        except OverflowError:
            raise TransferOverflow(f"eps^-m overflows at eps = {self.eps!r}") from None

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.scale * self.shape(x / self.eps) ** self.spec.m


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """Product of the cell matrices along axis -3, last cell leftmost.

    Balanced pairwise reduction; leading axes are lanes, each reduced by
    the same pairing tree as alone.
    """
    # overflow is legitimate here: callers inspect finiteness and report
    with np.errstate(over="ignore", invalid="ignore"):
        while mats.shape[-3] > 1:
            n = mats.shape[-3]
            even = n - (n % 2)
            paired = np.matmul(mats[..., 1:even:2, :, :], mats[..., 0:even:2, :, :])
            if n % 2:
                paired = np.concatenate([paired, mats[..., even:, :, :]], axis=-3)
            mats = paired
    return mats[..., 0, :, :]


def _spec_and_shape(pots: list) -> tuple[PotentialSpec, MollifierShape]:
    """The spec and the shape every potential of a list shares."""
    if not pots:
        raise ValueError("no potentials to stack")
    spec, shape = pots[0].spec, pots[0].shape
    for pot in pots:
        if pot.spec != spec or pot.shape != shape:
            raise ValueError("stacked potentials must share one spec and one shape")
    return spec, shape


def transfer_fixed_cells(
    pot: RegularizedPotential | Sequence[RegularizedPotential], k: float, n_cells: int
) -> np.ndarray:
    """Transfer matrix across the support with a fixed cell count.

    Each of the n_cells equal cells is the exact free propagator
    core.free_propagators at k minus the potential at its midpoint.  Cells
    are taken in chunks of _CHUNK_CELLS multiplied into a running product,
    so memory stays bounded whatever the cell count; up to one chunk the
    product is the plain balanced reduction.  Returns the raw 2x2 array:
    overflowing cells leave non-finite entries, for the caller to refuse.

    pot may also be a list of RegularizedPotentials that share one spec
    and one shape, the lanes.  Their midpoints, potentials and propagators
    are then evaluated stacked over (lanes, cells), and the result is an
    array of shape (lanes, 2, 2) whose entries equal, bit for bit, those
    of each lane's own call.  Raises ValueError for a list of several
    lanes that would stack more than _CHUNK_CELLS cells, lanes times
    n_cells, and TransferOverflow when some lane's eps^-m overflows.
    """
    one = isinstance(pot, RegularizedPotential)
    pots = [pot] if one else list(pot)
    spec, shape = _spec_and_shape(pots)
    if len(pots) > 1 and len(pots) * n_cells > _CHUNK_CELLS:
        raise ValueError(
            f"{len(pots)} lanes of {n_cells} cells exceed {_CHUNK_CELLS} stacked cells"
        )
    eps = np.array([p.eps for p in pots])[:, None]
    scale = np.array([p.scale for p in pots])[:, None]
    half = shape.half_support * eps
    h = 2.0 * half / n_cells
    total: np.ndarray | None = None
    for start in range(0, n_cells, _CHUNK_CELLS):
        stop = min(start + _CHUNK_CELLS, n_cells)
        mids = -half + (np.arange(start, stop) + 0.5) * h
        potential = scale * shape(mids / eps) ** spec.m
        chunk = _ordered_product(free_propagators(k - potential, h))
        if total is None:
            total = chunk
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                total = chunk @ total
    return total[0] if one else total


def _ladder(
    n: int,
    cap: int,
    tol_rel: float,
    scale_of: Callable,
    exponents: Sequence[float],
):
    """Romberg tableau on cell doubling, as a generator of one lane.

    The ladder yields the cell count of its next midpoint-rule iterate,
    starting at n, and is then sent that iterate; _lockstep drives one
    ladder or many.  The error of the iterates is taken to expand in the
    powers h^p of exponents, ascending.  The symmetric midpoint cell
    product gives even powers h^2, h^4, ... for a smooth profile; a
    profile vanishing like d^alpha at its edge adds h^(1 + alpha m), by
    the generalized Euler-Maclaurin expansion for algebraic endpoint
    behaviour (Navot, J. Math. Phys. 40 (1961) 271; Lyness and Ninham,
    Math. Comp. 21 (1967) 162).  Row i of the tableau holds the iterate
    T_i at n 2^i cells and its extrapolants

        R[i][0] = T_i,
        R[i][j] = (2^p_j R[i][j-1] - R[i-1][j-1]) / (2^p_j - 1),

    column j free of the first j powers.  From n, cells double until the
    first of two tests holds, both against tol_rel * scale_of(iterate):

    - successive iterates agree; the finer iterate is the result.
    - the deepest column two successive rows share agrees between them;
      the finer entry is the result.

    The ladder then returns (result, cells), which StopIteration carries.
    It raises NoConvergence, with the last two iterates, once an iterate
    at cap cells passes neither test.
    """
    prev: list = []  # the previous row of the tableau
    while True:
        row = [(yield n)]
        if prev:
            tol = tol_rel * scale_of(row[0])
            if float(np.abs(row[0] - prev[0]).max()) <= tol:
                return row[0], n
            for p, below in zip(exponents, prev):
                row.append((2.0**p * row[-1] - below) / (2.0**p - 1.0))
            deep = len(prev) - 1
            if deep and float(np.abs(row[deep] - prev[deep]).max()) <= tol:
                return row[deep], n
        if n >= cap:
            raise NoConvergence(
                f"no convergence to {tol_rel} within {cap} cells",
                last_iterates=(prev[0] if prev else None, row[0]),
            )
        prev = row
        n *= 2


def _lockstep(ladders: list, rung: Callable) -> list:
    """Refine the lanes of ladders together; per lane (result, cells) or its error.

    Each rung takes the lanes whose ladders ask for the fewest cells, n,
    and sends each lane the iterate that rung(n, lanes) gives for it, in
    the order of lanes.  A lane stops when its ladder returns, when its
    iterate is a SingscatError, or with the NoConvergence its ladder
    raises at the cap.
    """
    outcomes: list = [None] * len(ladders)
    wants = {lane: next(ladder) for lane, ladder in enumerate(ladders)}
    while wants:
        n = min(wants.values())
        lanes = sorted(lane for lane, want in wants.items() if want == n)
        for lane, iterate in zip(lanes, rung(n, lanes)):
            del wants[lane]
            if isinstance(iterate, SingscatError):
                outcomes[lane] = iterate
                continue
            try:
                wants[lane] = ladders[lane].send(iterate)
            except StopIteration as stop:
                outcomes[lane] = stop.value
            except NoConvergence as exc:
                outcomes[lane] = exc
    return outcomes


def _checked(mat: np.ndarray, n_cells: int) -> Mat2:
    """Mat2 of a converged transfer; refuses one whose determinant is off 1.

    The ladder returns finite entries only; they become Python floats here.
    The exact transfer is unimodular, so a determinant further than
    _DET_TOL from 1 means the entries have outgrown their digits.
    """
    result = Mat2(*mat.ravel().tolist())
    det = result.det()
    if not abs(det - 1.0) <= _DET_TOL:
        raise TransferOverflow(
            f"transfer determinant {det!r} is off 1 at {n_cells} cells"
        )
    return result


def _entry_scale(mat: np.ndarray) -> float:
    return max(1.0, float(np.abs(mat).max()))


def _transfers(pots: list, k: float) -> list:
    """numeric_transfer of each potential: its Mat2 or the error refusing it."""
    if not pots:
        return []
    spec, shape = _spec_and_shape(pots)
    outcomes: list = [None] * len(pots)
    live = []  # indices of the potentials whose eps^-m is in range
    for i, pot in enumerate(pots):
        try:
            pot.scale
        except TransferOverflow as exc:
            outcomes[i] = exc
        else:
            live.append(i)

    def rung(n: int, lanes: list) -> list:
        # stack at most _CHUNK_CELLS cells per call; a longer lane goes alone
        per = max(1, _CHUNK_CELLS // n)
        iterates = []
        for lo in range(0, len(lanes), per):
            group = [pots[live[lane]] for lane in lanes[lo : lo + per]]
            mats = transfer_fixed_cells(group, k, n)
            for mat, finite in zip(mats, np.isfinite(mats).all(axis=(1, 2))):
                iterates.append(
                    mat
                    if finite
                    else TransferOverflow(
                        f"transfer entries left the representable range at {n} cells"
                    )
                )
        return iterates

    exponents = shape.error_exponents(spec.m)
    ladders = [
        _ladder(N_CELLS_START, N_CELLS_CAP, TOL_REL, _entry_scale, exponents)
        for _ in live
    ]
    for i, outcome in zip(live, _lockstep(ladders, rung)):
        if not isinstance(outcome, SingscatError):
            try:
                outcome = _checked(*outcome)
            except TransferOverflow as exc:
                outcome = exc
        outcomes[i] = outcome
    return outcomes


def numeric_transfer(
    pot: RegularizedPotential | Sequence[RegularizedPotential], k: float
) -> Mat2 | list:
    """Transfer matrix of the mollified potential across its support.

    transfer_fixed_cells on the refinement ladder _ladder, from 64 cells
    up to a hard cap of 2^22, with both stop tests at TOL_REL = 1e-10 in
    max-abs entry relative to max(1, max-abs entry) and the tableau's
    powers of h from the shape's error_exponents at the potential's m.
    Shapes that are constant per cell, such as the top hat, stop on
    agreeing midpoint iterates and return the finer one; smooth shapes
    stop on agreeing tableau entries, for m in 0.5..3 at eps = 1e-3 and
    k = 1 within 2^13 cells.

    pot may also be a list of potentials that share one spec and one
    shape (ValueError otherwise).  Their ladders are then refined in
    lockstep: each rung makes one stacked transfer_fixed_cells call per
    _CHUNK_CELLS cells over the lanes still refining (a lane longer than
    that goes alone), and a lane leaves the stack when its stop test
    holds or it fails.  The list form returns, for each potential, its
    Mat2 or the SingscatError that refused it; either equals what the
    one-potential call returns or raises, bit for bit.

    Raises
    ------
    TransferOverflow
        if eps^-m or hyperbolic growth leaves the representable range, or the
        result's determinant is off 1 by more than 1e-6.
    NoConvergence
        if the cap is reached first (the last two iterates ride along on
        the exception).
    """
    if not isinstance(pot, RegularizedPotential):
        return _transfers(list(pot), k)
    (outcome,) = _transfers([pot], k)
    if isinstance(outcome, SingscatError):
        raise outcome
    return outcome


def _stripped(transfer: Mat2, k: float, half_width: float) -> Mat2:
    """F(k, -half_width) transfer F(k, -half_width), for a finite k."""
    try:
        strip = free_transfer(k, -half_width)
        return strip @ transfer @ strip
    except ValueError as exc:  # k is finite, so Mat2 refused an overflowed entry
        raise TransferOverflow(
            f"stripping free flight over {half_width} overflows at k = {k}"
        ) from exc


def effective_junction(pot: RegularizedPotential, k: float) -> Mat2:
    """Junction-like matrix of a mollified potential.

    Free propagation over the half supports is stripped from both sides
    of the transfer matrix, leaving the part attributable to the bump:

        M_eps = F(k, -s eps) T F(k, -s eps)

    For regimes with a junction matrix, M_eps converges to it as
    eps -> 0.  Raises ValueError for a non-finite k, PrecisionLoss when
    the phase sqrt(k) s eps over the half support is rounding noise
    (core.check_phase), and TransferOverflow when the strips or the
    product leave the representable range.
    """
    check_phase(k, pot.half_width)
    return _stripped(numeric_transfer(pot, k), k, pot.half_width)


class ConvergenceRow(
    namedtuple("ConvergenceRow", "eps matrix deviation det_err error", defaults=("",))
):
    """One eps of a convergence sweep.

    matrix is the effective junction, a Mat2, or None when the row failed.
    The float deviation is the max-abs entry distance to the reference
    matrix (nan when no reference applies or the row failed); the float
    det_err is |det - 1|.  error is "" for a computed row, else the
    failure's tag.
    """

    __slots__ = ()


def convergence_sweep(
    p: PotentialSpec,
    shape: MollifierShape,
    eps_list: Sequence[float],
    k: float,
    reference: Mat2 | None = None,
) -> list[ConvergenceRow]:
    """Effective junction per eps, never aborting on per-row failures.

    eps_list must be strictly decreasing and positive.  Rows that
    overflow or fail to converge come back flagged with nan entries.
    Each row equals effective_junction of its own potential: its phase is
    checked first, then one list call to numeric_transfer refines the
    transfers of every row still standing together, and the strips are
    applied per row.
    """
    eps_values = [float(e) for e in eps_list]
    if not eps_values:
        raise ValueError("eps_list must not be empty")
    for earlier, later in zip(eps_values, eps_values[1:]):
        if not later < earlier:
            raise ValueError("eps_list must decrease strictly")
    if eps_values[-1] <= 0.0:
        raise ValueError("eps values must be positive")
    pots = [RegularizedPotential(p, shape, eps) for eps in eps_values]

    def phase_error(pot: RegularizedPotential) -> PrecisionLoss | None:
        try:
            check_phase(k, pot.half_width)
        except PrecisionLoss as exc:
            return exc
        return None

    refused = [phase_error(pot) for pot in pots]
    kept = [pot for pot, error in zip(pots, refused) if error is None]
    transfers = iter(numeric_transfer(kept, k))
    outcomes = [error or next(transfers) for error in refused]

    def one(item: tuple) -> ConvergenceRow:
        pot, transfer = item
        if isinstance(transfer, SingscatError):
            raise transfer  # sweep_map flags the row with its tag
        m_eps = _stripped(transfer, k, pot.half_width)
        deviation = (
            m_eps.max_abs_diff(reference) if reference is not None else math.nan
        )
        return ConvergenceRow(
            eps=pot.eps,
            matrix=m_eps,
            deviation=deviation,
            det_err=abs(m_eps.det() - 1.0),
        )

    def failed(item: tuple, tag: str) -> ConvergenceRow:
        return ConvergenceRow(item[0].eps, None, math.nan, math.nan, tag)

    return sweep_map(one, list(zip(pots, outcomes)), failed)


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


# Brent's method in resonant_search: absolute and relative root tolerance
# (the bracket is pinned to within xtol + rtol |root|) and an iteration cap.
_BRENT_XTOL = 1e-30
_BRENT_RTOL = 1e-15
_BRENT_MAXITER = 100
# Relative tolerance to which resonant_search pins a level under cell
# refinement.
_LEVEL_TOL = 1e-10


def _brent(
    f: Callable[[float], float], xpre: float, xcur: float, fpre: float, fcur: float
) -> float:
    """Root of f between xpre and xcur, where f takes the values fpre, fcur.

    Brent's method (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4) in the step order of the widely used C
    routine brentq, so that roots agree with it bit for bit: inverse
    quadratic or secant steps when they shrink the bracket fast enough,
    bisection otherwise.  Near a root the shooting function is rounding
    noise, and regula falsi variants such as Illinois settle on a
    different neighbouring float there.
    """
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise BracketError(f"no sign change between {xpre} and {xcur}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless an interpolation step qualifies
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (
                    -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                )
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise NoConvergence(f"Brent's method did not converge in {_BRENT_MAXITER} steps")


def resonant_search(shape: MollifierShape, n: int) -> tuple[float, int]:
    """n-th resonant coupling of the m = 2 scaling limit for a shape.

    Shooting at zero energy: integrate w'' = c phi(y)^2 w from (1, 0) at
    the left edge and solve w'(right edge) = 0 for c by Brent's method.
    In the m = 2 scaling limit eps drops out, so each shot is
    transfer_fixed_cells of the m = 2 potential at eps = 1 and k = 0.
    Levels are ordered by |c|; the returned parity sign(w(s)/w(-s)) says
    whether the limiting junction is +identity or -identity.  For the
    top-hat shape the levels are exactly -(n pi)^2.

    A scan at 2048 cells walks down from c = 0 in steps of pi^2 / 8 over
    the window (-4 ((n + 2) pi)^2, 0) and brackets the level.  The root is
    found in that bracket from the scan's own shots, then refined on the
    same ladder as numeric_transfer (_ladder, up to 2^20 cells, stop tests
    to _LEVEL_TOL relative to |root|), each later rung bracketing its root
    around the previous one, with the shape's error_exponents at m = 2.
    The top hat, exact per cell, stops on agreeing roots; smooth shapes on
    agreeing tableau entries.

    Raises
    ------
    ValueError
        if n is not an integer in 1..MAX_LEVEL.
    BracketError
        if the scan does not isolate the requested level.
    NoConvergence
        if cell refinement cannot pin the level to _LEVEL_TOL.
    """
    if not (1 <= n <= MAX_LEVEL and n == int(n)):
        raise ValueError(f"level index must be in 1..{MAX_LEVEL}, got {n}")
    c_lo, c_hi = -4.0 * ((n + 2) * math.pi) ** 2, -1e-12

    n_cells = 2048
    step = math.pi**2 / 8.0

    def transfer(c: float, cells: int) -> np.ndarray:
        pot = RegularizedPotential(PotentialSpec(2.0, c), shape, 1.0)
        return transfer_fixed_cells(pot, 0.0, cells)

    def shoot(c: float, cells: int) -> float:
        return float(transfer(c, cells)[1, 0])

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

    def refine(cells: int, prev: float | None) -> float:
        if prev is None:  # the scan's bracket, already shot at these cells
            a, b, ga, gb = lo, hi, g_lo, g_hi
        else:
            a, b = prev - step / 8.0, min(prev + step / 8.0, c_hi)
            ga, gb = shoot(a, cells), shoot(b, cells)
        widen = 0
        while ga * gb > 0.0:
            widen += 1
            if widen > 8:
                raise BracketError("bracket lost under cell refinement")
            a -= step / 4.0
            b = min(b + step / 4.0, c_hi)
            ga, gb = shoot(a, cells), shoot(b, cells)
        return _brent(lambda c: shoot(c, cells), a, b, ga, gb)

    roots = [None]  # None: the first rung solves in the scan's bracket

    def rung(cells: int, _lanes: list) -> list:
        roots.append(refine(cells, roots[-1]))
        return roots[-1:]

    ladder = _ladder(n_cells, 2**20, _LEVEL_TOL, abs, shape.error_exponents(2.0))
    (outcome,) = _lockstep([ladder], rung)
    if isinstance(outcome, NoConvergence):
        raise outcome
    root, n_cells = outcome
    parity = 1 if transfer(root, n_cells)[0, 0] > 0.0 else -1
    return root, parity
