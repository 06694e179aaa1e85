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
    _check_energy,
    _check_type,
    _integer,
    _real,
    check_phase,
    free_propagators,
)
from .errors import (
    BracketError,
    InsufficientData,
    NoConvergence,
    PrecisionLoss,
    SingscatError,
    TransferOverflow,
)

# Cell refinement of the transfer integrator: start, hard cap, and the
# relative tolerance that the stop tests of every ladder apply, the
# resonance levels' included.
N_CELLS_START = 64
# The cap: the test suite's ladders stop at 32,768 cells or fewer, 128x
# below it, and a row that runs to it (the triangle at m = 4, c = -1, k = 1,
# eps <= 1e-6) takes 0.74-1.19 s on a 2-vCPU VM.
N_CELLS_CAP = 2**22
TOL_REL = 1e-10
# The resonance ladder's first rung, on which the bracket scan shoots: at
# MAX_LEVEL's deepest scan point a cell spans at most 0.67 rad of phase
# sqrt(|c|) phi h (the gauss), so each oscillation spans nine cells or more.
LEVEL_CELLS_START = 2048
# Its cap: levels 1-32 of all four shapes stop at 16,384 cells or fewer,
# 8x below it.
LEVEL_CELLS_CAP = 2**17
# Cells per chunk of the ordered product; bounds its working memory.
_CHUNK_CELLS = 2**16

# Highest level resonant_search accepts; the bracket scan grows like
# level^2: level 32 takes 8201 shots for the top hat and 8434 for the
# gauss (0.7-0.9 s and 2.2-2.5 s end to end on a 2-vCPU VM, Python 3.11,
# 2026-10-19).
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
    support.  Construction refuses a half_support that is not a positive
    and finite real number and a profile that is not callable, then checks
    the mass to 1e-10 with a composite 16-node Gauss-Legendre rule on 64
    equal panels of [-half_support, half_support], and evenness on 17
    probe points; each failure raises ValueError.  Kinks of a profile inside
    the support belong on panel edges, as the triangle's at y = 0 is.

    edge_order, when given, is the order alpha at which the profile
    vanishes at the edge of its support, phi(s - d) ~ d^alpha; it puts an
    h^(1 + alpha m) term into the midpoint error of phi^m, which the
    refinement ladder cancels (error_exponents).  Construction checks it
    against the log-log slope of the profile at 1e-3 s and 1e-4 s from
    the edge, to 1e-2, and raises ValueError on a mismatch or an order
    that is not a positive real number.  None, the default, declares no
    edge term: the profile jumps on a cell edge, as the top hat does, or
    is negligible at its cut, as the gauss is.
    The repr leaves the profile out.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        name, s, profile, edge_order = self
        if not (_real(s) and math.isfinite(s) and s > 0.0):
            raise ValueError(
                f"shape {name} half support must be positive and finite, got {s!r}"
            )
        _check_type(profile, Callable, f"shape {name} profile")
        half_panel = s / _MASS_PANELS
        # above s = 9e307 the outer centres overflow; the mass check refuses
        with np.errstate(over="ignore", invalid="ignore"):
            centres = -s + (2.0 * np.arange(_MASS_PANELS) + 1.0) * half_panel
            nodes = centres[:, None] + half_panel * _MASS_NODES
        mass = half_panel * float(np.sum(self(nodes) @ _MASS_WEIGHTS))
        if not abs(mass - 1.0) <= 1e-10:
            raise ValueError(f"shape {name} has mass {mass!r}, expected 1")
        probe = np.linspace(0.0, s, 17)
        if not np.max(np.abs(self(probe) - self(-probe))) <= 1e-12:
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
        if not (_real(alpha) and math.isfinite(alpha) and alpha > 0.0):
            raise ValueError(
                f"shape {self.name} edge order must be positive, got {alpha!r}"
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
        # a profile that masks out its support with np.where may overflow
        # or take cos(inf) in the branch the mask drops
        with np.errstate(over="ignore", invalid="ignore"):
            return self.profile(np.asarray(y, dtype=float))


def _tophat(y: np.ndarray) -> np.ndarray:
    return np.where(np.abs(y) <= 0.5, 1.0, 0.0)


def _triangle(y: np.ndarray) -> np.ndarray:
    # fmax, unlike maximum, gives 0 at nan, as the other shapes do
    return np.fmax(0.0, 1.0 - np.abs(y))


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
    """Mollified point potential U(x) = c * eps^-m * phi(x/eps)^m.

    A spec that is not a PotentialSpec, a shape that is not a
    MollifierShape, or an eps that is not a positive and finite real
    number raises ValueError.
    """

    __slots__ = ()

    def __new__(cls, spec: PotentialSpec, shape: MollifierShape, eps: float):
        _check_type(spec, PotentialSpec, "spec")
        _check_type(shape, MollifierShape, "shape")
        if not (_real(eps) and math.isfinite(eps) and eps > 0.0):
            raise ValueError(f"eps must be positive, got {eps!r}")
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
        # x / eps may overflow where the shape then gives 0
        with np.errstate(over="ignore"):
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


def _stack(pot) -> tuple[bool, list, PotentialSpec | None, MollifierShape | None]:
    """Whether pot is one RegularizedPotential, its lanes, and their spec and shape.

    An empty list of lanes has no spec and no shape (None, None).  Raises
    ValueError for a pot that is neither a RegularizedPotential nor an
    iterable of them, or lanes that differ in spec or shape.
    """
    if isinstance(pot, RegularizedPotential):
        return True, [pot], pot.spec, pot.shape
    try:
        pots = list(pot)
    except TypeError:
        pots = [pot]
    for p in pots:
        if not isinstance(p, RegularizedPotential):
            name = type(p).__name__
            raise ValueError(f"potentials must be RegularizedPotentials, got {name}")
    if not pots:
        return False, pots, None, None
    spec, shape = pots[0].spec, pots[0].shape
    for p in pots:
        if p.spec != spec or p.shape != shape:
            raise ValueError("stacked potentials must share one spec and one shape")
    return False, pots, spec, shape


def _run_product(cell: np.ndarray, n: int) -> np.ndarray:
    """_ordered_product of n copies of each lane's cell, bit for bit.

    cell holds one 2x2 matrix per lane, (lanes, 2, 2).  Each level of the
    pairing tree over n equal cells is a run of equal matrices followed by
    at most two leftovers: the run pairs into its squares, and an odd run's
    last matrix joins the leftovers, which pair later @ earlier as in the
    tree.  So O(log n) contiguous products give the tree's bits; broadcast
    views would leave numpy's BLAS path and round differently.
    """
    run, count, rest = cell, n, []
    with np.errstate(over="ignore", invalid="ignore"):
        while count + len(rest) > 1:
            seq = [run] * (count % 2) + rest
            rest = [
                seq[i + 1] @ seq[i] if i + 1 < len(seq) else seq[i]
                for i in range(0, len(seq), 2)
            ]
            count //= 2
            if count:
                run = run @ run
    return run if count else rest[0]


def _cells_product(wave_of: Callable, h, n_cells: int) -> np.ndarray:
    """Ordered product of n_cells free propagators of width h, per lane.

    wave_of(start, stop) gives the wave numbers k - U of cells start to
    stop - 1, (lanes, stop - start), and h broadcasts against them.  Cells
    are taken in chunks of _CHUNK_CELLS multiplied into a running product,
    so memory stays bounded whatever the cell count; up to one chunk the
    product is the plain balanced reduction _ordered_product.  When each
    lane of a chunk holds one wave number throughout, compared as int64 so
    that signed zeros and nan payloads never merge, as the top hat's do,
    the propagators are evaluated for its first cell only and reduced by
    _run_product, with the same bits.
    """
    total: np.ndarray | None = None
    for start in range(0, n_cells, _CHUNK_CELLS):
        wave = wave_of(start, min(start + _CHUNK_CELLS, n_cells))
        bits = wave.view(np.int64)
        # the middle cell rules out a bump's lanes at one comparison each
        if (bits[:, bits.shape[1] // 2] == bits[:, 0]).all() and (
            bits == bits[:, :1]
        ).all():
            cell = free_propagators(wave[:, :1], h)[:, 0]
            chunk = _run_product(cell, wave.shape[1])
        else:
            chunk = _ordered_product(free_propagators(wave, h))
        if total is None:
            total = chunk
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                total = chunk @ total
    return total


def transfer_fixed_cells(
    pot: RegularizedPotential | Sequence[RegularizedPotential], k: float, n_cells: int
) -> np.ndarray:
    """Transfer matrix across the support with a fixed cell count.

    Each of the n_cells equal cells is the exact free propagator
    core.free_propagators at k minus the potential at its midpoint, and
    _cells_product multiplies them in order.  Returns the raw 2x2 array:
    overflowing cells leave non-finite entries, for the caller to refuse.

    pot may also be a list of RegularizedPotentials that share one spec
    and one shape, the lanes.  Their midpoints, potentials and propagators
    are then evaluated stacked over (lanes, cells), in stacks of at most
    _CHUNK_CELLS cells (a lane longer than that goes alone), and the
    result is an array of shape (lanes, 2, 2) whose entries equal, bit
    for bit, those of each lane's own call.  Raises TransferOverflow when
    some lane's eps^-m overflows, and ValueError for a k that is not a
    finite real number, an n_cells that is not a positive integer, or an
    empty list.
    """
    _check_energy(k)
    if not (_integer(n_cells) and n_cells > 0):
        raise ValueError(f"n_cells must be a positive integer, got {n_cells!r}")
    one, pots, spec, shape = _stack(pot)
    if not pots:
        raise ValueError("no potentials to stack")
    per = max(1, _CHUNK_CELLS // n_cells)
    stacks = []
    for lo in range(0, len(pots), per):
        lanes = pots[lo : lo + per]
        eps = np.array([p.eps for p in lanes])[:, None]
        scale = np.array([p.scale for p in lanes])[:, None]
        half = shape.half_support * eps
        h = 2.0 * half / n_cells

        def wave_of(start: int, stop: int) -> np.ndarray:
            mids = -half + (np.arange(start, stop) + 0.5) * h
            return k - scale * shape(mids / eps) ** spec.m

        stacks.append(_cells_product(wave_of, h, n_cells))
    total = np.concatenate(stacks)
    return total[0] if one else total


def _ladder(n: int, cap: int, floor: float, exponents: Sequence[float]):
    """Romberg tableau on cell doubling, as a generator of one lane.

    The ladder yields the cell count of its next midpoint-rule iterate,
    starting at n, and is then sent that iterate, a list of floats: the
    entries of a transfer, or one root.  numeric_transfer drives one
    ladder per lane in a single loop over the cell counts, and
    resonant_search its own.  The error of the iterates is taken to
    expand in the powers h^p of exponents, ascending.  The symmetric
    midpoint cell product gives even powers h^2, h^4, ... for a smooth
    profile; a profile vanishing like d^alpha at its edge adds
    h^(1 + alpha m), by the generalized Euler-Maclaurin expansion for
    algebraic endpoint behaviour (Navot, J. Math. Phys. 40 (1961) 271;
    Lyness and Ninham, Math. Comp. 21 (1967) 162).  Row i of the tableau
    holds the iterate T_i at n 2^i cells and its extrapolants

        R[i][0] = T_i,
        R[i][j] = (2^p_j R[i][j-1] - R[i-1][j-1]) / (2^p_j - 1),

    entry by entry, column j free of the first j powers.  From n, cells
    double until the first of two tests holds, both against TOL_REL times
    the larger of floor and the iterate's largest |entry|:

    - successive iterates agree in every entry; the finer iterate is the
      result.
    - the deepest column two successive rows share agrees between them in
      every entry; the finer entry is the result.

    A nan entry, as an extrapolant overflowing to inf - inf gives, agrees
    with nothing.  The ladder then returns (result, cells), which
    StopIteration carries.  It raises NoConvergence, with the last two
    iterates, once an iterate at cap cells passes neither test.
    """
    prev: list = []  # the previous row of the tableau
    while True:
        row = [(yield n)]
        if prev:
            tol = TOL_REL * max(floor, *map(abs, row[0]))
            if all(abs(x - y) <= tol for x, y in zip(row[0], prev[0])):
                return row[0], n
            for p, below in zip(exponents, prev):
                weight = 2.0**p
                row.append(
                    [(weight * x - y) / (weight - 1.0) for x, y in zip(row[-1], below)]
                )
            deep = len(prev) - 1
            if deep and all(abs(x - y) <= tol for x, y in zip(row[deep], prev[deep])):
                return row[deep], n
        if n >= cap:
            raise NoConvergence(
                f"no convergence to {TOL_REL} within {cap} cells",
                last_iterates=(prev[0] if prev else None, row[0]),
            )
        prev = row
        n *= 2


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
    shape (ValueError otherwise).  Their ladders are then refined by one
    loop over the cell counts: each pass makes one transfer_fixed_cells
    call over the lanes still refining, which stacks them at most
    _CHUNK_CELLS cells at a time (a lane longer than that goes alone), and
    a lane leaves the stack when its stop test holds or it fails.  The
    list form returns, for each potential, its Mat2 or the SingscatError
    that refused it; either equals what the one-potential call returns or
    raises, bit for bit, since that call runs the same loop on one lane.

    Raises
    ------
    ValueError
        if k is not a finite real number, in either form, or a lane is not
        a RegularizedPotential.
    TransferOverflow
        if eps^-m or hyperbolic growth leaves the representable range, or the
        result's determinant is off 1 by more than 1e-6.
    NoConvergence
        if the cap is reached first (the last two iterates ride along on
        the exception).
    """
    _check_energy(k)
    one, pots, spec, shape = _stack(pot)
    if not pots:
        return []
    exponents = shape.error_exponents(spec.m)
    outcomes: list = [None] * len(pots)
    ladders = {}  # lane -> its ladder, for the lanes still refining
    for lane, p in enumerate(pots):
        try:
            p.scale
        except TransferOverflow as exc:
            outcomes[lane] = exc
            continue
        ladders[lane] = _ladder(N_CELLS_START, N_CELLS_CAP, 1.0, exponents)
        next(ladders[lane])
    n = N_CELLS_START
    while ladders:
        lanes = list(ladders)
        stack = transfer_fixed_cells([pots[lane] for lane in lanes], k, n)
        for lane, entries in zip(lanes, stack.reshape(-1, 4).tolist()):
            try:
                if all(map(math.isfinite, entries)):
                    ladders[lane].send(entries)
                    continue
                outcomes[lane] = TransferOverflow(
                    f"transfer entries left the representable range at {n} cells"
                )
            except StopIteration as stop:
                result = Mat2(*stop.value[0])
                det = result.det()
                # the ladder returns finite entries only, but the exact
                # transfer is unimodular: a determinant off 1 means the
                # entries have outgrown their digits
                if not abs(det - 1.0) <= _DET_TOL:
                    result = TransferOverflow(
                        f"transfer determinant {det!r} is off 1 at {n} cells"
                    )
                outcomes[lane] = result
            except NoConvergence as exc:
                exc.last_iterates = tuple(
                    None if it is None else np.reshape(it, (2, 2))
                    for it in exc.last_iterates
                )
                outcomes[lane] = exc
            del ladders[lane]
        n *= 2
    if not one:
        return outcomes
    if isinstance(outcomes[0], SingscatError):
        raise outcomes[0]
    return outcomes[0]


def _junctions(pots: list, k: float) -> list:
    """effective_junction of each potential: its Mat2 or the error refusing it.

    In refusal order: check_phase per potential (its ValueError for a
    non-finite k is raised), one numeric_transfer list call over the
    potentials it passes, one free_propagators call for every strip
    F(k, -s eps), and per row F T F, or TransferOverflow if that overflows.
    """
    refusals = []
    for pot in pots:
        try:
            refusals.append(check_phase(k, pot.half_width))  # None: it holds
        except PrecisionLoss as exc:
            refusals.append(exc)
    kept = [pot for pot, refusal in zip(pots, refusals) if refusal is None]
    transfers = iter(numeric_transfer(kept, k))
    strips = free_propagators(k, [-pot.half_width for pot in pots]).tolist()
    outcomes = []
    for pot, refusal, ((c, s), (dc, ds)) in zip(pots, refusals, strips):
        outcome = refusal or next(transfers)
        if not isinstance(outcome, SingscatError):
            try:
                f = Mat2(c, s, dc, ds)
                outcome = f @ outcome @ f
            except ValueError:  # k is finite, so Mat2 refused an overflowed entry
                outcome = TransferOverflow(
                    f"stripping free flight over {pot.half_width} overflows at k = {k}"
                )
        outcomes.append(outcome)
    return outcomes


def effective_junction(pot: RegularizedPotential, k: float) -> Mat2:
    """Junction-like matrix of a mollified potential.

    Free propagation over the half supports is stripped from both sides
    of the transfer matrix, leaving the part attributable to the bump:

        M_eps = F(k, -s eps) T F(k, -s eps)

    For regimes with a junction matrix, M_eps converges to it as
    eps -> 0.  The one-row call of _junctions, which gives
    convergence_sweep its rows.  Raises ValueError for a pot that is not
    a RegularizedPotential or a k that is not a finite real number,
    PrecisionLoss when the phase sqrt(k) s eps over the half support is
    rounding noise (core.check_phase), then numeric_transfer's errors, and
    TransferOverflow when the strips or the product leave the
    representable range.
    """
    _check_type(pot, RegularizedPotential, "pot")
    (outcome,) = _junctions([pot], k)
    if isinstance(outcome, SingscatError):
        raise outcome
    return outcome


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

    eps_list must hold real numbers, strictly decreasing and positive, and
    a reference must be a Mat2.  Rows that overflow, lose their phase or
    fail to converge come back with matrix None, nan numbers and the
    error's tag.  One _junctions call gives every row.
    """
    if reference is not None:
        _check_type(reference, Mat2, "reference")
    eps_values = list(eps_list)
    for eps in eps_values:
        _check_type(eps, float, "eps")
    eps_values = list(map(float, eps_values))
    if not eps_values:
        raise ValueError("eps_list must not be empty")
    for earlier, later in zip(eps_values, eps_values[1:]):
        if not later < earlier:
            raise ValueError("eps_list must decrease strictly")
    if eps_values[-1] <= 0.0:
        raise ValueError("eps values must be positive")
    pots = [RegularizedPotential(p, shape, eps) for eps in eps_values]
    rows = []
    for eps, m_eps in zip(eps_values, _junctions(pots, k)):
        if isinstance(m_eps, SingscatError):
            rows.append(ConvergenceRow(eps, None, math.nan, math.nan, m_eps.tag))
            continue
        deviation = math.nan if reference is None else m_eps.max_abs_diff(reference)
        rows.append(ConvergenceRow(eps, m_eps, deviation, abs(m_eps.det() - 1.0)))
    return rows


def _order_fit(points: list) -> tuple[float, float]:
    """(slope, r^2) of the least-squares line of log deviation on log eps.

    points are (eps, deviation) pairs with finite positive deviations.  The
    line is fitted in closed form in Python floats: means first, relative
    to the first point so that equal values have an exact mean, then
    math.fsum sums of centred products (Chan, Golub and LeVeque, Am. Stat.
    37 (1983) 242).  r^2 is 1 for equal deviations.  Raises
    InsufficientData for fewer than three points or one distinct log eps.
    """
    if len(points) < 3:
        raise InsufficientData(f"order fit needs >= 3 usable rows, got {len(points)}")
    logs = [(math.log(eps), math.log(deviation)) for eps, deviation in points]
    (x0, y0), n = logs[0], len(logs)
    mx = math.fsum(x - x0 for x, _ in logs) / n
    my = math.fsum(y - y0 for _, y in logs) / n
    centred = [(x - x0 - mx, y - y0 - my) for x, y in logs]
    sxx = math.fsum(dx * dx for dx, _ in centred)
    if sxx == 0.0:
        raise InsufficientData("order fit needs two distinct eps values")
    slope = math.fsum(dx * dy for dx, dy in centred) / sxx
    ss_tot = math.fsum(dy * dy for _, dy in centred)
    ss_res = math.fsum((dy - slope * dx) ** 2 for dx, dy in centred)
    return slope, 1.0 - ss_res / ss_tot if ss_tot else 1.0


def _clean_rows(rows: Sequence[ConvergenceRow]) -> list[ConvergenceRow]:
    """The rows whose error is "", each checked to be a ConvergenceRow."""
    rows = list(rows)
    for row in rows:
        if not isinstance(row, ConvergenceRow):
            raise ValueError(f"rows must be ConvergenceRows, got {type(row).__name__}")
    return [row for row in rows if row.error == ""]


def estimate_order(rows: Sequence[ConvergenceRow]) -> tuple[float, float]:
    """Least-squares slope of log(deviation) against log(eps), with r^2.

    A positive slope is a convergence order, a negative one a divergence
    rate.  The fit is closed form in Python floats, so its bits do not
    depend on the BLAS kernel.  Needs at least three clean rows with
    finite positive deviations, at two or more distinct eps
    (InsufficientData otherwise), and ValueError for a row that is not a
    ConvergenceRow.
    """
    points = [(row.eps, row.deviation) for row in _clean_rows(rows)]
    return _order_fit([(eps, dev) for eps, dev in points if 0.0 < dev < math.inf])


def certify_convergence(rows: Sequence[ConvergenceRow]) -> tuple[str, float, float]:
    """Classify a sweep as "convergent" or "non_convergent".

    Uses the reference deviations when three or more are finite and
    positive; otherwise the positive gaps between consecutive matrices
    stand in (a settling sequence has shrinking gaps, growth or
    oscillation does not).  That one list of (eps, deviation) points feeds
    estimate_order's closed-form fit and the decade test.  A sweep is
    non-convergent when the fitted slope is <= -0.2, or when deviations
    within some decade of eps spread by more than 5x while the fit
    explains little (r^2 < 0.5).  Returns (verdict, slope, r2); data the
    fit refuses yields ("unknown", nan, nan).  Raises ValueError for a row
    that is not a ConvergenceRow.
    """
    clean = [row for row in _clean_rows(rows) if row.matrix is not None]
    points = [(r.eps, r.deviation) for r in clean if 0.0 < r.deviation < math.inf]
    if len(points) < 3:
        gaps = (
            (row.eps, row.matrix.max_abs_diff(finer.matrix))
            for row, finer in zip(clean, clean[1:])
        )
        points = [(eps, gap) for eps, gap in gaps if 0.0 < gap < math.inf]
    try:
        slope, r2 = _order_fit(points)
    except InsufficientData:
        return ("unknown", math.nan, math.nan)
    if slope <= _DIVERGENT_SLOPE:
        return ("non_convergent", slope, r2)
    if r2 < _DECADE_R2:
        for eps_lo, _ in points:
            window = [d for e, d in points if eps_lo <= e <= 10.0 * eps_lo]
            if len(window) >= 2 and max(window) > _DECADE_RATIO * min(window):
                return ("non_convergent", slope, r2)
    return ("convergent", slope, r2)


# Brent's method in resonant_search: absolute and relative root tolerance
# (the bracket is pinned to within xtol + rtol |root|) and an iteration cap.
_BRENT_XTOL = 1e-30
_BRENT_RTOL = 1e-15
_BRENT_MAXITER = 100


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
    In the m = 2 scaling limit eps drops out, so each shot is the cell
    product of transfer_fixed_cells for the m = 2 potential at eps = 1 and
    k = 0, with the same bits: c times the profile phi(mids)^2, which the
    rung's shooter evaluates once.
    Levels are ordered by |c|; the returned parity sign(w(s)/w(-s)) says
    whether the limiting junction is +identity or -identity.  For the
    top-hat shape the levels are exactly -(n pi)^2.

    A scan at LEVEL_CELLS_START cells walks down from c = 0 in steps of
    pi^2 / 8 over the window (-4 ((n + 2) pi)^2, 0) and brackets the
    level.  The root is found in that bracket from the scan's own shots,
    then refined on the same ladder as numeric_transfer (_ladder, up to
    LEVEL_CELLS_CAP cells, stop tests to TOL_REL relative to |root|),
    which is sent each rung's root directly, with the shape's
    error_exponents at m = 2.  Each later rung brackets its root within
    pi^2 / 64 of the previous one, and a bracket without a sign change is
    refused.  The top hat, exact per cell, stops on agreeing roots; smooth
    shapes on agreeing tableau entries.  The parity is the sign of w(s) in
    the shot that the final rung took at its Brent root, next to the
    returned level, which may be a tableau extrapolant that no rung shot.

    Raises
    ------
    ValueError
        if shape is not a MollifierShape, or n is not an integer (a bool
        is not) in 1..MAX_LEVEL.
    BracketError
        if the scan does not isolate the requested level, or a later
        rung's bracket holds no sign change.
    NoConvergence
        if cell refinement cannot pin the level to TOL_REL.
    """
    if not (_integer(n) and 1 <= n <= MAX_LEVEL):
        raise ValueError(f"level index must be in 1..{MAX_LEVEL}, got {n}")
    _check_type(shape, MollifierShape, "shape")
    c_lo, c_hi = -4.0 * ((n + 2) * math.pi) ** 2, -1e-12
    step = math.pi**2 / 8.0

    def shooter(cells: int):
        """shot(c) -> w'(s) on this many cells, and taken, c -> w(s) per shot."""
        h = 2.0 * shape.half_support / cells
        mids = -shape.half_support + (np.arange(cells) + 0.5) * h
        profile = shape(mids)[None, :] ** 2.0
        taken: dict = {}

        def shot(c: float) -> float:
            (w, _), (dw, _) = _cells_product(
                lambda start, stop: 0.0 - c * profile[:, start:stop], h, cells
            )[0].tolist()
            taken[c] = w
            return dw

        return shot, taken

    exponents = shape.error_exponents(2.0)
    ladder = _ladder(LEVEL_CELLS_START, LEVEL_CELLS_CAP, 0.0, exponents)
    # the scan shoots on the first rung's cells, which then solves in its bracket
    shot, taken = shooter(next(ladder))
    # Walk down from c_hi counting sign changes; the n-th one brackets c_n.
    a = b = c_hi
    gb = shot(c_hi)
    found = 0
    while found < n:
        a = b - step
        if a < c_lo - 1e-12:
            raise BracketError(
                f"only {found} sign changes above {c_lo}, needed {n}"
            )
        ga = shot(a)
        if ga == 0.0 or ga * gb < 0.0:
            found += 1
        if found < n:
            b, gb = a, ga
    try:
        while True:
            root = _brent(shot, a, b, ga, gb)
            shot, taken = shooter(ladder.send([root]))
            a, b = root - step / 8.0, min(root + step / 8.0, c_hi)
            ga, gb = shot(a), shot(b)
            if ga * gb > 0.0:
                raise BracketError("bracket lost under cell refinement")
    except StopIteration as stop:
        (level,), _ = stop.value
    except NoConvergence as exc:
        exc.last_iterates = tuple(
            None if roots is None else roots[0] for roots in exc.last_iterates
        )
        raise
    # the level may be an extrapolant; the final rung shot its own root
    parity = 1 if taken[root] > 0.0 else -1
    return level, parity
