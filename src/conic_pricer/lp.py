"""Dense linear programming kernel.

Two-phase primal simplex on a condensed tableau: one column per *nonbasic*
variable plus the right-hand side, one row per constraint plus the reduced
costs.  The full tableau's basic columns are exact unit vectors (piv/piv is
1.0 and x - x*1.0 is 0.0), so leaving them out loses nothing; the leaving
variable's column is rebuilt in the entering column's slot with the same float
operations a full pivot would make.  Every entry a pivot choice reads is
therefore the full tableau's, bit for bit (up to the sign of a zero), and the
pivot sequence is the same.  A pivot is one numpy rank-1 update that subtracts
the full outer product from every row.  Where a full pivot skips a row whose
factor is zero, the update subtracts exact zeros there, which changes no value
(a -0.0 may read +0.0).  Skipping those rows with a ``where=`` mask cost more
than the arithmetic it saved: it was half of each pivot on the benchmark's
horizon-4 tree programs (25 against 13 us on a 60 x 45 tableau, on 2 vCPU),
and removing it cut those requests by about 8%.  The pricing LPs have more
rows (two per node, security and side of the hedging cone, plus the band) than
variables (paths and envelope excesses), so the condensed tableau shrinks a
pivot from rows x (rows + variables) cells to rows x variables.

Pricing is exact steepest edge (Forrest & Goldfarb, Math. Prog. 1992): the
eligible column with the largest rc^2 / (1 + |column|^2) enters, the norm
taken fresh over the column's constraint rows at each pivot.  The tableau
stores every nonbasic column, so this is one reduction per pivot.  Ties go to
the smallest variable index; the ratio test takes the smallest ratio, ties to
the smallest basic index.  A lone eligible column enters, and a lone
minimizing row leaves, without scoring or tie-breaking.  The pricing LPs are
highly degenerate, so after ``_STALL_PIVOTS`` zero-step pivots in a row
Bland's rule picks the entering column until a pivot moves the right-hand
side; that keeps the loop finite.

Phase 1 reads only the rows, so :func:`solve` runs it once and phase 2 starts
from it; :func:`solve_ratio` runs phase 2 twice, once per sense, from copies
of one phase 1, for each sense that no candidate answers (below).  A program
is its rows as the kernel reads them, stacked once by
:meth:`LinearProgram.build`, with their magnitudes: phase 1, every restart
and every certificate read that one array.

Every optimum keeps its final basis, numbered as phase 1 numbers the
variables, and a solve can start from an optimum of rows of the same shape
whose data changed.  :func:`solve` takes one as ``warm`` (the least-loss LP
of the liquidity surface's next transaction cost); :meth:`_Slice.solve`
takes a previous pair, one per extreme (the surface's band program at the
row before, or at the level before).  An extreme's optimum solved on the
same slice before its column was rewritten (the band widening from one level
to the next) is carried first: its x and duals are put to the strong-duality
test below on the new rows, the dual residual first (a carry that fails
fails there, on the changed column, and stops), and when they pass they
are the answer, residuals recomputed, with no refactor and no pivot.  A
wider band only loosens the rows, so x stays feasible, and duals that are
zero on every changed row stay dual feasible.  Otherwise the solve restarts from the
previous basis, refactored on the new rows by one dense solve against every
column, [A | I] for the ratio program.

:meth:`_Slice.solve` carries a candidate optimum built outside the simplex
the same way: an x and duals with no basis (the one-security bounds of
:class:`conic_pricer.cone._Recursion`, and the band candidates
:func:`conic_pricer.pricing._band_candidate` makes of them).  A candidate that passes the
strong-duality test is the answer; one that fails has no basis to restart
from, so its extreme takes the shared phase 1 and gets the cold answer bit
for bit.  Every answer, carried or pivoted, passes the one test.

The surface's band program is built once per transaction cost
(:class:`_Slice`), and a level step rewrites one column of it in place: the
band scalar's, m' = (1 + level) m, which is positive at every band density
and so basic in every optimum.  An optimum solved there keeps its final tableau, and a restart
from it updates that tableau by one rank-one correction for the changed
column (Sherman-Morrison, see :func:`_update`) instead of the dense
refactor, which remains for a correction whose pivot is below ``TOL``.

A restarted basis left infeasible goes to the dual simplex: the most
negative basic value leaves, ties to the smallest basic index, and the
column with the least rc/|a| enters, ties to the smallest variable index.
Where the basis is not dual feasible either, each negative reduced cost of a
column that may enter is first raised to zero, which shifts that column's
cost.  Phase 2, on a fresh objective row of the true costs, and
certification then run as from phase 1.  A basis that is singular, or whose
dual simplex finds no feasible point or runs past one pivot per row, is
dropped for the cold phase 1, which gives the cold answer bit for bit.

Every LP is a slice, the form in which Charnes & Cooper (1962) write a
ratio: cone rows a_ub @ x <= 0 cut by one normalization den @ x = 1, the one
form :meth:`LinearProgram.build` writes.  Each cone row's basis starts from
its own slack and the one artificial is the normalization's, so every LP is
solved on its rows as supplied.  The optimum and its duals are both read
from the final basis B, not from the tableau, which drifts over many
pivots: B x_B = b and B^T y = c_B over the rows without a basic slack (a
basic slack's row has dual zero) and the basic structural columns, at most
(variables)^2 entries.  Both come from one batched ``np.linalg.solve`` over
the stack [B, B^T] (:func:`_basis_pair`): LAPACK factors each matrix of a
batch on its own, so x and y are those of two separate solves bit for bit,
for half the calls.  A singular B takes :func:`_basis_solve`'s least
squares for each instead.  The certificate's scale |c| + 1 is built once
with the rows; b and |b| + 1 follow from their number.

Every answer but ``unbounded`` is certified on the rows as supplied, or the
solve raises :class:`~conic_pricer.errors.ComputationError`; a wrong status is
never returned silently.  An optimum is certified by strong duality: primal
feasibility, dual feasibility and the duality gap within the tolerance.  An
``infeasible`` answer is certified by the Farkas ray that phase 1's final
reduced costs hold: y with y^T A >= 0, y >= 0 on the inequality rows and
y^T b < 0, which no x >= 0 can meet.  The tolerance is fixed at
``TOL = 1e-9``, for the pivot and ratio tests as for the certificates; no
caller sets it.

:func:`solve_ratio` takes the extremes of a ratio over a polyhedral cone: the
ratio is scale-free, so they are those of its numerator on the slice where
the denominator is one, a plain LP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

from .errors import ComputationError, ValidationError

TOL = 1e-9  # the one LP tolerance (see the module docstring)
# the bare reductions behind np.max and np.min, without their wrappers
_most, _least = np.maximum.reduce, np.minimum.reduce
# Zero-step pivots in a row after which Bland's rule picks the entering column.
_STALL_PIVOTS = 50
# Entries near the float range overflow in the pricing and the pivots; the
# answer is then certified or an error (NaN fails every test), never a
# warning.  Set once per solve, not per pivot.
_quiet = np.errstate(over="ignore", invalid="ignore")


@dataclass
class LinearProgram:
    """max/min  c @ x  subject to  a_ub @ x <= b_ub,  a_eq @ x == b_eq,
    x >= 0, in the one form :meth:`build` writes: the Charnes-Cooper slice,
    cone rows ``a_ub`` with b_ub = 0 cut by the normalization row
    a_eq = [den] with b_eq = [1].  The one artificial is the
    normalization's.

    The program is its rows as the kernel reads them: ``A`` stacks the cone
    rows and the normalization, once, and every solve on it leaves them as
    they are (a :class:`_Slice` rewrites one column between solves).  Row
    i's phase-1 basis starts from variable n + i: a cone row's slack, or the
    normalization's artificial for the last row."""

    sense: str
    c: np.ndarray
    A: np.ndarray  # the cone rows a_ub, then the normalization
    abs_A: np.ndarray  # |A|, the magnitudes every residual is relative to
    c_scale: np.ndarray  # |c| + 1, each dual residual's scale before |y| |A|
    # the program as written, views of A and constant right-hand sides (no
    # variable has an upper bound): what the tests and perfbench/tracing.py's
    # tableau count read
    a_ub: np.ndarray = field(init=False, repr=False)
    a_eq: np.ndarray = field(init=False, repr=False)
    b_ub: np.ndarray = field(init=False, repr=False)
    b_eq: np.ndarray = field(init=False, repr=False)
    upper: ClassVar[None] = None

    def __post_init__(self):
        self.a_ub, self.a_eq = self.A[:-1], self.A[-1:]
        self.b_ub, self.b_eq = np.zeros(self.A.shape[0] - 1), np.ones(1)

    @classmethod
    def build(cls, sense, c, a_ub, den):
        """The slice max/min c @ x over a_ub @ x <= 0, den @ x == 1, x >= 0."""
        if sense not in ("max", "min"):
            raise ValidationError(f"sense must be 'max' or 'min', got {sense!r}")
        c = np.atleast_1d(np.asarray(c, dtype=float))
        n = c.shape[0]
        a_ub = np.atleast_2d(np.asarray(a_ub, float))
        den = np.atleast_1d(np.asarray(den, float))
        if a_ub.shape[1:] != (n,) or den.shape != (n,):
            raise ValidationError("inconsistent LP dimensions")
        A = np.concatenate((a_ub, den[None]))
        abs_A, c_scale = np.abs(A), np.abs(c) + 1.0
        # a magnitude array's largest entry is finite exactly where every
        # coefficient is (a NaN reads NaN); the first non-finite array is named
        for name, mag in (("c", c_scale), ("a_ub", abs_A[:-1]), ("den", abs_A[-1])):
            if not np.isfinite(_most(mag, axis=None, initial=0.0)):
                raise ValidationError(f"non-finite coefficients in {name}")
        return cls(sense, c, A, abs_A, c_scale)


@dataclass
class LPSolution:
    """An LP's answer.  The duals of an ``infeasible`` one are its Farkas ray
    over the rows as supplied: y^T A >= 0, y >= 0 on the inequality rows,
    and y^T b < 0."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float = np.nan
    x: Optional[np.ndarray] = None
    dual_ub: Optional[np.ndarray] = None
    dual_eq: Optional[np.ndarray] = None
    gap: float = np.nan
    primal_residual: float = np.nan
    dual_residual: float = np.nan
    iterations: int = 0
    # final basis of an optimum, one variable per row kept, numbered as
    # phase 1 numbers the variables: what a restart starts from
    basis: Optional[np.ndarray] = None
    # final condensed tableau of an optimum of a _Slice with a rewritable
    # column, which a restart after a rewrite updates (see _update)
    kept: Optional["_Kept"] = field(default=None, repr=False, compare=False)


def _pivot(T, basis, nonbasic, row, k):
    """Exchange ``basis[row]`` with the variable of condensed column ``k``.

    The leaving variable's full-tableau column is the unit vector e_row; it
    takes over slot ``k`` with the entries a full pivot would give it, 1/piv
    in the pivot row and 0 - factor/piv elsewhere, computed by the same float
    operations.  Every row takes the full outer product: a row whose factor
    is zero subtracts exact zeros and keeps its values (a -0.0 may come back
    +0.0), as a full pivot that skips it would.
    """
    col = T[:, k].copy()
    T[row, k] = 1
    prow = T[row] / col[row]
    col[row] = 0
    T[:, k] = 0
    T -= np.multiply.outer(col, prow)
    T[row] = prow
    basis[row], nonbasic[k] = nonbasic[k], basis[row]


def _run_simplex(T, basis, nonbasic, limit, max_iter):
    """Steepest edge, Bland's rule after a stall (see the module docstring),
    on the condensed tableau T (last row = reduced costs of the nonbasic
    variables, last col = rhs); variables >= ``limit`` may not enter.

    Returns ("optimal" | "unbounded", iterations).
    """
    m = T.shape[0] - 1
    it = stalled = 0
    allowed = nonbasic < limit  # changes only in the slot a pivot fills
    while True:
        cand = ((T[-1, :-1] < -TOL) & allowed).nonzero()[0]
        if not cand.size:
            return "optimal", it
        if stalled < _STALL_PIVOTS and cand.size > 1:
            sq = T[:, cand]  # squared in place: the constraint rows, then rc
            sq *= sq
            score = sq[-1] / (1 + sq[:m].sum(axis=0))
            best = cand[score == score.max()]
            # no largest score (a NaN from an overflow): Bland's rule picks
            cand = best if best.size else cand
        k = cand[nonbasic[cand].argmin()] if cand.size > 1 else cand[0]
        col = T[:m, k]
        rows = (col > TOL).nonzero()[0]
        if not rows.size:
            return "unbounded", it
        ratios = T[rows, -1] / col[rows]
        step = ratios.min()
        ties = rows[ratios == step]
        if not ties.size:
            raise ComputationError("simplex ratio test read NaN; numerical breakdown")
        row = ties[basis[ties].argmin()] if ties.size > 1 else ties[0]
        _pivot(T, basis, nonbasic, row, k)
        allowed[k] = nonbasic[k] < limit
        stalled = 0 if step > 0 else stalled + 1
        it += 1
        if it > max_iter:
            raise ComputationError(
                f"simplex iteration limit ({max_iter}) exceeded; numerical breakdown"
            )


def _run_dual(T, basis, nonbasic, limit, max_iter):
    """Dual simplex on the condensed tableau T from a dual feasible basis:
    the most negative basic value leaves, ties to the smallest basic index;
    of the columns with a negative entry in its row, the one with the least
    rc / |a| enters, ties to the smallest variable index.  Variables >=
    ``limit`` may not enter.

    Returns ("optimal" | "infeasible" | "stalled", iterations): "optimal" once
    every basic value is >= -TOL, "infeasible" at a row that no column can
    lift, "stalled" past ``max_iter`` pivots.
    """
    m = T.shape[0] - 1
    it = 0
    while True:
        rhs = T[:m, -1]
        low = rhs.min() if m else 0.0
        if low >= -TOL:
            return "optimal", it
        rows = (rhs == low).nonzero()[0]
        row = rows[basis[rows].argmin()]
        a = T[row, :-1]
        cand = ((a < -TOL) & (nonbasic < limit)).nonzero()[0]
        if not cand.size:
            return "infeasible", it
        ratios = T[-1, cand] / -a[cand]
        cand = cand[ratios == ratios.min()]
        _pivot(T, basis, nonbasic, row, cand[nonbasic[cand].argmin()])
        it += 1
        if it > max_iter:
            return "stalled", it


def _set_objective(T, basis, nonbasic, c):
    """Reduced-cost row of objective ``c`` (indexed by variable) for the basis,
    accumulated over the basic rows in row order."""
    rows = c[basis].nonzero()[0]
    terms = np.empty((rows.size + 1, T.shape[1]))
    terms[0, :-1] = -c[nonbasic]
    terms[0, -1] = 0
    np.multiply(c[basis[rows], None], T[rows], out=terms[1:])
    # numpy reduces axis 0 of a row-major array of two or more columns row
    # after row, in the order of a loop over the rows
    np.add.reduce(terms, axis=0, out=T[-1])


@dataclass
class _Start:
    """A basis of a program's rows with its condensed tableau: at the end of
    phase 1 a feasible one.  Phase 1 reads neither the objective nor the
    sense, so one start serves both senses."""

    T: np.ndarray
    basis: np.ndarray
    nonbasic: np.ndarray
    iterations: int = 0


@dataclass
class _Kept:
    """An optimum's final condensed tableau (with its ``nonbasic``), kept
    with the row array it was factored on (``A``, which a :class:`_Slice`
    rewrites in place) and their rewritable column as it was then
    (``column``)."""

    A: np.ndarray
    T: np.ndarray
    nonbasic: np.ndarray
    column: np.ndarray


def _max_iter(A) -> int:
    """The simplex iteration limit on rows ``A``: 500 plus 80 per row and
    per variable, structural, slack or artificial."""
    m, n = A.shape
    return 500 + 80 * (m + n + m)


def _e_norm(m: int) -> np.ndarray:
    """The right-hand side of a program's ``m`` rows: 0 on each cone row, 1
    on the normalization, last."""
    b = np.zeros(m)
    b[-1] = 1.0
    return b


def _phase1(lp: LinearProgram):
    """Phase 1 on the rows of ``lp``, A x + s = 0 over its cone rows and
    den x + a = 1 for its normalization: the certified ``infeasible``
    answer, or a :class:`_Start` whose basis does not hold the one
    artificial, variable ``n + m - 1``.

    Variables: n structural, then variable n + i of row i, which starts its
    basis: the slack of a cone row, or for the last row the one artificial,
    the normalization's.  The cone rows take no artificial, which keeps
    phase 1 small and far less degenerate.

    No artificial is left to drive out.  The right-hand side starts as
    e_norm, 0 on every cone row and 1 on the normalization.  A pivot step of
    length 0 leaves it unchanged (its pivot row's right-hand side is +-0, so
    every row subtracts +-0), so while the artificial is basic every cone row
    reads exactly 0 and the artificial 1.  The ratio test therefore picks the
    artificial's row only at a step of positive length, and that step takes
    the artificial out.  Then every basic variable has phase-1 cost 0, so
    the value reads 0 and the reduced costs 0, the artificial's 1 (to
    rounding): phase 1 stops, and the artificial does not enter again.  It
    ends with the artificial nonbasic, or basic at 1, which is the certified
    ``infeasible``; never basic at 0."""
    m, n = lp.A.shape
    width = n + m

    # Condensed tableau: one column per nonbasic variable (``nonbasic[k]``
    # is the variable of column k) plus the rhs; the basic columns of the
    # full tableau are unit vectors and are not stored.
    nonbasic = np.arange(n)
    T = np.zeros((m + 1, n + 1))
    T[:m, :n] = lp.A
    T[m - 1, -1] = 1.0  # e_norm
    basis = n + np.arange(m)
    start = _Start(T, basis, nonbasic)

    # maximize -(the artificial)
    c1 = np.zeros(width)
    c1[-1] = -1.0
    _set_objective(T, basis, nonbasic, c1)
    status1, start.iterations = _run_simplex(T, basis, nonbasic, width, _max_iter(lp.A))
    if status1 != "optimal" or T[-1, -1] < -TOL:
        return _infeasible(lp, start, start.iterations)
    return start


def _shape(lp: LinearProgram) -> str:
    return f"{lp.A.shape[0]} rows x {lp.c.shape[0]} columns"


def _solution(y, **fields) -> LPSolution:
    """``fields`` with the multipliers ``y`` of a program's rows, split into
    those of the cone rows and of the normalization, last."""
    return LPSolution(dual_ub=y[:-1], dual_eq=y[-1:], **fields)


def _dual_residual(c, c_scale, lp: LinearProgram, y, abs_y) -> float:
    """How far multipliers ``y`` of the rows of ``lp`` (all but the last of
    them inequalities) are from dual feasibility, y^T A >= c and y >= 0 on
    the inequalities, each relative to the magnitudes entering it;
    ``c_scale`` is |c| + 1 and ``abs_y`` is |y|."""
    reduced = y @ lp.A
    np.subtract(c, reduced, out=reduced)
    scale = abs_y @ lp.abs_A
    scale += c_scale
    reduced /= scale
    sign = -float(_least(y[:-1], initial=0.0)) / (1.0 + float(_most(abs_y[:-1], initial=0.0)))
    return max(float(_most(reduced, initial=0.0)), sign)


def _infeasible(lp: LinearProgram, start: _Start, iterations: int) -> LPSolution:
    """The ``infeasible`` answer at the end of phase 1, certified by its
    Farkas ray, or :class:`ComputationError`.

    The phase-1 duals y are read from the final reduced-cost row: the
    reduced cost of row i's own slack is y_i, that of the normalization's
    artificial y_i + 1, and a basic variable's is zero.  y must meet
    y^T A >= 0, y >= 0 on the inequality rows and y^T b < 0, each relative
    to the magnitudes entering it (see :func:`_dual_residual`).
    """
    m, n = lp.A.shape
    rc = np.zeros(n + m)
    rc[start.nonbasic] = start.T[-1, :-1]
    y = rc[n:]
    y[-1] -= 1.0
    abs_y = np.abs(y)
    dual_res = _dual_residual(np.zeros(n), np.ones(n), lp, y, abs_y)
    b = _e_norm(m)
    value = float(y @ b) / (1.0 + float(abs_y @ b))
    if not (dual_res <= TOL and value < -TOL):  # NaN fails too
        raise ComputationError(
            f"LP infeasibility certification failed ({_shape(lp)}): "
            f"dual={dual_res:.3e} value={value:.3e} (tol {TOL:.3e})"
        )
    return _solution(y, status="infeasible", iterations=iterations)


def _restart(lp: LinearProgram, basis) -> Optional[_Start]:
    """A feasible start of ``lp`` at ``basis``, a previous optimum's
    basis of rows of the same shape, or None, and phase 1 runs instead.
    The basis is refactored on the rows of ``lp`` (see :func:`_refactor`)
    and resumed by :func:`_resume`; None where either refuses it.
    """
    factored = _refactor(lp, basis)
    return None if factored is None else _resume(lp, *factored)


def _refactor(lp: LinearProgram, basis):
    """The condensed tableau of ``basis`` on the rows of ``lp``, objective
    row zero, by one dense solve over every column, [A | I]:
    ``(T, basis, nonbasic)``, every nonbasic variable in index order; None
    when the basis does not fit the rows or is singular."""
    m, n = lp.A.shape
    if basis is None or basis.size != m or (basis >= n + m - 1).any():
        return None
    cols = np.hstack((lp.A, np.eye(m)))
    free = np.ones(n + m, dtype=bool)
    free[basis] = False
    nonbasic = free.nonzero()[0]
    T = np.zeros((m + 1, nonbasic.size + 1))
    try:
        T[:m] = np.linalg.solve(
            cols[:, basis], np.column_stack([cols[:, nonbasic], _e_norm(m)])
        )
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(T).all():
        return None
    return T, basis.copy(), nonbasic


def _update(lp: LinearProgram, kept: _Kept, basis, j: int) -> Optional[np.ndarray]:
    """The condensed tableau of ``basis`` on the rows of ``lp``, from
    ``kept``, its tableau on the same rows before their column ``j`` was
    rewritten, by one rank-one correction; None where j is not basic, or the
    correction's pivot 1 + d_r is below ``TOL``, and the dense refactor of
    :func:`_restart` runs instead.

    With j basic in row r, the new basis matrix is B + delta e_r^T, delta
    the column's change, so by Sherman-Morrison each column's new entries
    are its old ones less d times its row-r entry over 1 + d_r, with
    d = B^-1 delta: row r is divided by 1 + d_r, and every other row i
    subtracts d_i times the new row r, as a pivot does.  Row i's slack (or
    the normalization's artificial), variable n + i, has the unit column
    e_i, so d sums the tableau columns of delta's rows, or unit vectors
    where they are basic, weighted by delta.  The objective row is left
    stale for the caller to set.
    """
    at = (basis == j).nonzero()[0]
    if at.size != 1:
        return None
    r, (m, n) = at[0], lp.A.shape
    T, nonbasic = kept.T, kept.nonbasic
    delta = lp.A[:, j] - kept.column
    moved = delta.nonzero()[0]
    # where each variable sits: its column k >= 0, or -2 - s if basic in row s
    slot = np.empty(n + m, dtype=int)
    slot[nonbasic] = np.arange(nonbasic.size)
    slot[basis] = -2 - np.arange(m)
    k = slot[n + moved]
    column = k >= 0
    d = np.zeros(m + 1)
    d[:m] = T[:m, k[column]] @ delta[moved[column]]
    d[-2 - k[~column]] += delta[moved[~column]]
    pivot = 1.0 + d[r]
    if not pivot >= TOL:
        return None
    prow = T[r] / pivot
    d[r] = 0.0
    out = T - np.multiply.outer(d, prow)
    out[r] = prow
    return out


def _resume(lp: LinearProgram, T, basis, nonbasic) -> Optional[_Start]:
    """The feasible start of ``lp`` at ``basis``, whose condensed tableau on
    the rows of ``lp`` is ``T``, objective row aside; or None.  Where a
    basic value is negative, the dual simplex pivots to a feasible basis
    on the reduced costs of ``lp``'s objective, each negative one of a
    column that may enter first raised to zero: that shifts the column's
    cost and makes the basis dual feasible, and phase 2 prices the true
    objective again (cost shifting; Maros, *Computational Techniques of the
    Simplex Method*, 2003).  None when the dual simplex finds no feasible
    point or needs more pivots than there are rows."""
    n, m = lp.c.shape[0], basis.size
    it = 0
    if T[:m, -1].min(initial=0.0) < -TOL:
        c = np.zeros(n + m)
        c[:n] = lp.c if lp.sense == "max" else -lp.c
        _set_objective(T, basis, nonbasic, c)
        rc = T[-1, :-1]
        # the artificial, variable n + m - 1, may not enter
        np.maximum(rc, 0.0, out=rc, where=nonbasic < n + m - 1)
        # a restart needing more pivots than there are rows is no cheaper
        # than phase 1, and the cap keeps the loop finite without a
        # cycling rule
        status, it = _run_dual(T, basis, nonbasic, n + m - 1, m)
        if status != "optimal":
            return None
    return _Start(T, basis, nonbasic, it)


def _basis_solve(mat, rhs):
    """mat^-1 rhs; least squares where ``mat`` is singular."""
    try:
        return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(mat, rhs, rcond=None)[0]


def _basis_pair(mat, rhs, cost):
    """(mat^-1 rhs, mat^-T cost) by one batched solve over [mat, mat^T],
    which LAPACK factors one by one as two solves would; where either is
    singular, each by :func:`_basis_solve`."""
    both = np.empty((2,) + mat.shape)
    both[0] = mat
    both[1] = mat.T
    try:
        out = np.linalg.solve(both, np.array((rhs, cost))[:, :, None])
    except np.linalg.LinAlgError:
        return _basis_solve(mat, rhs), _basis_solve(mat.T, cost)
    return out[0, :, 0], out[1, :, 0]


def _certificate(c_obj, lp: LinearProgram, x, y):
    """Strong duality of x and max-sense multipliers y on the rows of ``lp``
    (all but the last of them <=, the normalization last):
    (c_obj x, primal residual, dual residual, gap).  Each residual is
    relative to the magnitudes entering its row or column, so badly scaled
    data certify honestly."""
    abs_y = np.abs(y)
    dual_res = _dual_residual(c_obj, lp.c_scale, lp, y, abs_y)
    return _primal_and_gap(c_obj, lp, x, y, abs_y, dual_res)


def _primal_and_gap(c_obj, lp: LinearProgram, x, y, abs_y, dual_res):
    """:func:`_certificate` of x and y (|y| ``abs_y``) on the rows of
    ``lp`` once their dual residual ``dual_res`` is known."""
    value_max = float(c_obj @ x)
    resid = lp.A @ x
    b = _e_norm(resid.size)
    resid -= b
    eq = resid[-1:]
    np.abs(eq, out=eq)
    scale = lp.abs_A @ np.abs(x)
    scale += b + 1.0  # |b| + 1
    resid /= scale
    # the largest of -x, the residuals and 0 (a NaN anywhere reads NaN)
    primal_res = float(_most(resid, initial=-_least(x, initial=0.0)))
    dual_value = float(b @ y)
    gap = abs(value_max - dual_value) / (1.0 + abs(value_max) + float(b @ abs_y))
    return value_max, primal_res, dual_res, gap


def _phase2(lp: LinearProgram, start: _Start, column: Optional[int] = None) -> LPSolution:
    """Phase 2 of ``lp`` from a copy of ``start``, certified by strong
    duality.  With ``column`` given, an optimum keeps its final tableau and
    that column of the rows as they are now (see :class:`_Slice`)."""
    T, basis, nonbasic = start.T.copy(), start.basis.copy(), start.nonbasic.copy()
    A = lp.A
    m, n = A.shape
    m_ub = m - 1
    sense_mult = 1.0 if lp.sense == "max" else -1.0
    c_obj = sense_mult * lp.c

    # Phase 2 objective; the artificial may no longer enter.
    c2 = np.zeros(n + m)
    c2[:n] = c_obj
    _set_objective(T, basis, nonbasic, c2)
    status2, it2 = _run_simplex(T, basis, nonbasic, n + m_ub, _max_iter(A))
    iterations = start.iterations + it2
    if status2 == "unbounded":
        return LPSolution(status="unbounded", iterations=iterations)

    # The optimum and its duals (max sense) from the final basis (see the
    # module docstring).
    x = np.zeros(n)
    y = np.zeros(m)
    tight = np.ones(m, dtype=bool)
    tight[basis[(basis >= n) & (basis < n + m_ub)] - n] = False
    struct = basis[basis < n]
    live = tight.nonzero()[0]
    if live.size:
        x[struct], y[live] = _basis_pair(A[live[:, None], struct], _e_norm(m)[live], c2[struct])
    value_max, primal_res, dual_res, gap = _certificate(c_obj, lp, x, y)
    if not (primal_res <= TOL and dual_res <= TOL and gap <= TOL):  # NaN fails too
        raise ComputationError(
            f"LP certification failed ({_shape(lp)}): "
            f"primal={primal_res:.3e} dual={dual_res:.3e} gap={gap:.3e} (tol {TOL:.3e})"
        )

    kept = None if column is None else _Kept(A, T, nonbasic, A[:, column].copy())
    return _solution(
        sense_mult * y, status="optimal", value=sense_mult * value_max, x=x,
        gap=gap, primal_residual=primal_res, dual_residual=dual_res,
        iterations=iterations, basis=basis, kept=kept,
    )


def _fits(lp: LinearProgram, prev: LPSolution) -> bool:
    """Whether ``prev`` is an optimum of a program of ``lp``'s shape."""
    return (prev.status == "optimal" and prev.x.shape == lp.c.shape
            and prev.dual_ub.shape == lp.a_ub.shape[:1])


def _carry(lp: LinearProgram, prev: LPSolution) -> Optional[LPSolution]:
    """``prev``, an optimum of the rows of ``lp`` before a :class:`_Slice`
    rewrote them or a candidate optimum built outside the simplex, as the
    optimum of ``lp`` when its x and duals pass :func:`_phase2`'s
    strong-duality test on the rows as they are now; else None.  The answer
    keeps ``prev``'s basis and tableau, for the next restart, and its value
    and residuals are recomputed on the rows."""
    sense_mult = 1.0 if lp.sense == "max" else -1.0
    y = sense_mult * np.concatenate([prev.dual_ub, prev.dual_eq])
    # the certificate's own tests, the dual residual first: a carry that
    # fails fails there, on the rewritten column, and stops
    c_obj, abs_y = sense_mult * lp.c, np.abs(y)
    dual_res = _dual_residual(c_obj, lp.c_scale, lp, y, abs_y)
    if not dual_res <= TOL:
        return None
    value_max, primal_res, _, gap = _primal_and_gap(c_obj, lp, prev.x, y, abs_y, dual_res)
    if not (primal_res <= TOL and gap <= TOL):
        return None
    # the constructor, not dataclasses.replace, which costs several times
    # as much per call
    return LPSolution(
        prev.status, value=sense_mult * value_max, x=prev.x, dual_ub=prev.dual_ub,
        dual_eq=prev.dual_eq, gap=gap, primal_residual=primal_res, dual_residual=dual_res,
        basis=prev.basis, kept=prev.kept,
    )


@_quiet
def solve(lp: LinearProgram, *, warm: Optional[LPSolution] = None) -> LPSolution:
    """Solve the LP, certifying optimal answers by strong duality and
    infeasible ones by a Farkas ray.

    ``warm``, an optimum of a program of the same shape whose data changed
    (the least-loss LP of a neighbouring transaction cost), starts the solve
    from its final basis, refactored on the new rows (see ``_restart``).
    Such data change in every row, so its optimum is not carried.  A warm
    solution of another shape, one that is not optimal, or a basis the
    restart refuses leaves the solve to phase 1, which gives the cold answer
    bit for bit.
    """
    start = _restart(lp, warm.basis) if warm is not None and _fits(lp, warm) else None
    if start is None:
        start = _phase1(lp)
        if isinstance(start, LPSolution):
            return start
    return _phase2(lp, start)


class _Slice:
    """The program of :func:`solve_ratio`: num @ x over the cone
    {x >= 0, a_ub @ x <= 0} cut by the slice den @ x = 1, built once and
    solved any number of times.  Its two sides, one per sense, share every
    array.

    With ``column`` given, that column of the cone rows may be rewritten in
    place between solves (:meth:`rewrite`), and every optimum keeps its
    final tableau.  Only such an optimum is tried as the answer after a
    rewrite (:func:`_carry`), and a restart from it updates that tableau by
    one rank-one correction (:func:`_update`) where :func:`_restart` would
    refactor it.
    """

    def __init__(self, num, den, a_ub, column: Optional[int] = None):
        prog = self.prog = LinearProgram.build("max", num, a_ub, den)
        self.sides = (LinearProgram("min", prog.c, prog.A, prog.abs_A, prog.c_scale), prog)
        self.column = column

    def rewrite(self, i, value: float) -> None:
        """Set entries ``i`` of the rewritable column of the cone rows to
        ``value``, in the rows and in their magnitudes."""
        j = self.column
        self.prog.A[i, j] = value
        self.prog.abs_A[i, j] = abs(value)

    @_quiet
    def solve(self, warm: Optional[tuple] = None) -> tuple[LPSolution, LPSolution]:
        """``(lo, hi)`` as :func:`solve_ratio` gives them.

        ``warm`` holds one answer per extreme, or None, to start that
        extreme from: a previous ``(lo, hi)`` of a program of the same
        shape, or candidate optima built outside the simplex, which have no
        basis.  An extreme's answer is carried, without a pivot, when it is
        a candidate or was solved on these rows, and it certifies on them as
        they are now (see ``_carry``); else the extreme restarts from its
        final basis (:meth:`_restart`).  An extreme that cannot restart,
        such as a candidate that fails its certificate, takes the shared
        phase 1 as without ``warm``, so its answer is the cold one bit for
        bit.
        """
        A, cold, out = self.prog.A, None, []
        for side, prev in zip(self.sides, warm or (None, None)):
            start = None
            if prev is not None:
                # an optimum kept on another slice's rows solved a program
                # whose data all differ (the surface's row before): its x
                # does not solve these rows, so no carry is tried
                kept = prev.kept
                if prev.basis is None or (kept is not None and kept.A is A):
                    carried = _carry(side, prev)
                    if carried is not None:
                        out.append(carried)
                        continue
                start = self._restart(side, prev)
            if start is None:
                if cold is None:
                    cold = _phase1(self.prog)
                if isinstance(cold, LPSolution):
                    return cold, cold
                start = cold
            out.append(_phase2(side, start, self.column))
        return out[0], out[1]

    def _restart(self, side: LinearProgram, prev: LPSolution) -> Optional[_Start]:
        """A start of ``side`` from ``prev``: its kept tableau updated where
        it was factored on these rows, else :func:`_restart`'s refactor."""
        kept = prev.kept
        if kept is not None and kept.A is side.A:
            T = _update(side, kept, prev.basis, self.column)
            if T is not None:
                return _resume(side, T, prev.basis.copy(), kept.nonbasic.copy())
        return _restart(side, prev.basis)


def solve_ratio(num, den, a_ub, warm: Optional[tuple] = None) -> tuple[LPSolution, LPSolution]:
    """Minimum and maximum of (num @ x) / (den @ x) over the points of the
    cone {x >= 0, a_ub @ x <= 0} with den @ x > 0, as ``(lo, hi)``.

    The ratio does not change when x is scaled, so each extreme is that of
    num @ x on the slice den @ x = 1.  Both senses start phase 2 from one
    phase 1 of the slice, so each is bit for bit what ``solve`` gives for its
    sense; certification stays per extreme.  Both read ``infeasible``, with
    one Farkas ray, when the cone does not reach the slice.  ``warm`` holds
    a candidate optimum per extreme, or None (see :meth:`_Slice.solve`): a
    candidate that certifies is the answer, and any other extreme is solved
    as without it.
    """
    return _Slice(num, den, a_ub).solve(warm)
