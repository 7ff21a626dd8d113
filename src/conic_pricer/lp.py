"""Dense linear programming kernel.

Two-phase primal simplex on a condensed tableau: one column per *nonbasic*
variable plus the right-hand side, one row per constraint plus the reduced
costs.  The full tableau's basic columns are exact unit vectors (piv/piv is
1.0 and x - x*1.0 is 0.0), so leaving them out loses nothing; the leaving
variable's column is rebuilt in the entering column's slot with the same float
operations a full pivot would make.  Every entry a pivot choice reads is
therefore the full tableau's, bit for bit, and the pivot sequence is the same.
A pivot is one numpy rank-1 update.  The pricing LPs have more rows (two per
node, security and side of the hedging cone, plus the band) than variables
(paths and envelope excesses), so this shrinks a pivot from
rows x (rows + variables) cells to rows x variables.

Pricing is exact steepest edge (Forrest & Goldfarb, Math. Prog. 1992): the
eligible column with the largest rc^2 / (1 + |column|^2) enters, the norm
taken fresh over the column's constraint rows at each pivot.  The tableau
stores every nonbasic column, so this is one reduction per pivot.  Ties go to
the smallest variable index; the ratio test takes the smallest ratio, ties to
the smallest basic index.  The pricing LPs are highly degenerate, so after
``_STALL_PIVOTS`` zero-step pivots in a row Bland's rule picks the entering
column until a pivot moves the right-hand side; that keeps the loop finite.

Phase 1 reads only the rows, so :func:`solve` runs it once and phase 2 starts
from it; :func:`solve_ratio` runs phase 2 twice, once per sense, from copies
of one phase 1.

Every optimum keeps its final basis, numbered as phase 1 numbers the
variables, and :func:`solve_ratio` can start each extreme from a previous
pair's optimum on rows of the same shape whose data changed (the liquidity
surface's band widening from one level to the next).  The previous optimum
is carried first: its x and duals are put to the strong-duality test below
on the new rows, and when they pass they are the answer, residuals
recomputed, with no refactor and no pivot.  A wider band only loosens the
rows, so x stays feasible, and duals that are zero on every changed row stay
dual feasible.  Otherwise the extreme restarts from the previous basis,
refactored on the new rows by one dense solve against every column,
[A | I] for the ratio program.  A basis left infeasible there but still dual
feasible goes to the dual simplex: the most negative basic value leaves, ties
to the smallest basic index, and the column with the least rc/|a| enters,
ties to the smallest variable index.  Phase 2 and certification then run as
from phase 1.  A basis that is singular, infeasible and not dual feasible, or
whose dual simplex finds no feasible point or runs past one pivot per row, is
dropped for the cold phase 1, which gives the cold answer bit for bit.

Every LP is solved on its rows as supplied, a row negated where its
right-hand side is negative.  The optimum and its duals are both read from the
final basis B, not from the tableau, which drifts over many pivots: B x_B = b
and B^T y = c_B over the rows without a basic slack (a basic slack's row has
dual zero) and the basic structural columns, at most (variables)^2 entries.

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

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ComputationError, ValidationError

TOL = 1e-9  # the one LP tolerance (see the module docstring)
# Zero-step pivots in a row after which Bland's rule picks the entering column.
_STALL_PIVOTS = 50


@dataclass
class LinearProgram:
    """max/min  c @ x  subject to  a_ub @ x <= b_ub,  a_eq @ x == b_eq,
    0 <= x <= upper (upper optional, may contain +inf)."""

    sense: str
    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    upper: Optional[np.ndarray] = None

    @classmethod
    def build(cls, sense, c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, upper=None):
        if sense not in ("max", "min"):
            raise ValidationError(f"sense must be 'max' or 'min', got {sense!r}")
        c = np.atleast_1d(np.asarray(c, dtype=float))
        n = c.shape[0]
        a_ub = np.zeros((0, n)) if a_ub is None else np.atleast_2d(np.asarray(a_ub, float))
        b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, float))
        a_eq = np.zeros((0, n)) if a_eq is None else np.atleast_2d(np.asarray(a_eq, float))
        b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, float))
        if a_ub.shape != (b_ub.shape[0], n) or a_eq.shape != (b_eq.shape[0], n):
            raise ValidationError("inconsistent LP dimensions")
        for name, arr in (("c", c), ("a_ub", a_ub), ("b_ub", b_ub),
                          ("a_eq", a_eq), ("b_eq", b_eq)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"non-finite coefficients in {name}")
        if upper is not None:
            upper = np.atleast_1d(np.asarray(upper, dtype=float))
            if upper.shape != (n,):
                raise ValidationError("upper bounds must have one entry per variable")
            if np.any(np.isnan(upper)) or np.any(upper < 0):
                raise ValidationError("upper bounds must be nonnegative (inf allowed)")
        return cls(sense, c, a_ub, b_ub, a_eq, b_eq, upper)


@dataclass
class LPSolution:
    """An LP's answer.  The duals of an ``infeasible`` one are its Farkas ray
    over the rows as supplied: y^T A >= 0, y >= 0 on the inequality and
    upper-bound rows, and y^T b < 0."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float = np.nan
    x: Optional[np.ndarray] = None
    dual_ub: Optional[np.ndarray] = None
    dual_eq: Optional[np.ndarray] = None
    dual_upper: Optional[np.ndarray] = None
    gap: float = np.nan
    primal_residual: float = np.nan
    dual_residual: float = np.nan
    iterations: int = 0
    # final basis of an optimum, one variable per row kept, numbered as
    # phase 1 numbers the variables: what solve_ratio restarts from
    basis: Optional[np.ndarray] = None


def _pivot(T, basis, nonbasic, row, k):
    """Exchange ``basis[row]`` with the variable of condensed column ``k``.

    The leaving variable's full-tableau column is the unit vector e_row; it
    takes over slot ``k`` with the entries a full pivot would give it, 1/piv
    in the pivot row and 0 - factor/piv elsewhere, computed by the same float
    operations.
    """
    col = T[:, k].copy()
    prow = T[row].copy()
    prow[k] = 1
    prow /= col[row]
    col[row] = 0
    # Rows whose factor is zero are left untouched, as a full pivot skips them.
    hit = (col != 0)[:, None]
    np.copyto(T[:, k : k + 1], 0, where=hit)
    np.subtract(T, np.multiply.outer(col, prow), out=T, where=hit)
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
    while True:
        cand = ((T[-1, :-1] < -TOL) & (nonbasic < limit)).nonzero()[0]
        if not cand.size:
            return "optimal", it
        if stalled < _STALL_PIVOTS:
            sub, rc = T[:m, cand], T[-1, cand]
            score = rc * rc / (1 + (sub * sub).sum(axis=0))
            cand = cand[score == score.max()]
        k = cand[nonbasic[cand].argmin()]
        col = T[:m, k]
        rows = (col > TOL).nonzero()[0]
        if not rows.size:
            return "unbounded", it
        ratios = T[rows, -1] / col[rows]
        step = ratios.min()
        ties = rows[ratios == step]
        _pivot(T, basis, nonbasic, ties[basis[ties].argmin()], k)
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
    T[-1, :-1] = -c[nonbasic]
    T[-1, -1] = 0
    for i in np.flatnonzero(c[basis]):
        T[-1] = T[-1] + c[basis[i]] * T[i]


@dataclass
class _Start:
    """A basis of an LP's rows with the sign-normalized data that phase 2
    reads: at the end of phase 1 a feasible one.  Phase 1 reads
    neither the objective nor the sense, so one start serves both senses."""

    iterations: int
    max_iter: int
    width: int
    T: np.ndarray
    basis: np.ndarray
    nonbasic: np.ndarray
    alive: np.ndarray  # rows kept (redundant equalities dropped)
    own: np.ndarray  # the slack or artificial each row's basis started from
    A: np.ndarray  # rows sign-normalized
    sigma: np.ndarray
    a_ub: np.ndarray  # with the finite upper bounds appended as rows
    b_ub: np.ndarray
    ub_vars: np.ndarray


def _folded(lp: LinearProgram):
    """``lp``'s inequality rows with its finite variable upper bounds folded
    in as extra <= rows: (a_ub, b_ub, the bounded variables)."""
    ub_vars = (
        np.flatnonzero(np.isfinite(lp.upper)) if lp.upper is not None
        else np.zeros(0, dtype=int)
    )
    if not ub_vars.size:
        return lp.a_ub, lp.b_ub, ub_vars
    a_ub = np.vstack([lp.a_ub, np.eye(lp.c.shape[0])[ub_vars]])
    return a_ub, np.concatenate([lp.b_ub, lp.upper[ub_vars]]), ub_vars


def _slack_start(lp: LinearProgram) -> _Start:
    """The rows of ``lp`` sign-normalized, with the basis phase 1
    starts from: each row's slack, or its artificial where the slack cannot
    start it."""
    n = lp.c.shape[0]
    a_ub, b_ub, ub_vars = _folded(lp)
    m_ub, m_eq = a_ub.shape[0], lp.a_eq.shape[0]
    m = m_ub + m_eq

    # Normalized rows A x (+ slack) (+ artificial) = b with b >= 0.
    A = np.vstack([a_ub, lp.a_eq]) if m else np.zeros((0, n))
    b = np.concatenate([b_ub, lp.b_eq]) if m else np.zeros(0)

    sigma = np.where(b < 0, -1.0, 1.0)
    A = A * sigma[:, None]
    b = b * sigma

    # Variables: n structural, then slack n + i of each <= row i, then the
    # artificials.  Artificials exist only where the slack cannot start the
    # basis: equality rows and sign-flipped inequality rows (surplus form).
    # This keeps phase 1 small and far less degenerate.
    needs_art = (np.arange(m) >= m_ub) | (sigma < 0)
    art_rows = np.flatnonzero(needs_art)
    surplus = art_rows[art_rows < m_ub]
    width = n + m_ub + art_rows.size
    own = n + np.arange(m)  # the variable each row's basis starts from
    own[art_rows] = n + m_ub + np.arange(art_rows.size)
    basis = own.copy()

    # Condensed tableau: one column per nonbasic variable (``nonbasic[k]``
    # is the variable of column k) plus the rhs; the basic columns of the
    # full tableau are unit vectors and are not stored.
    nonbasic = np.concatenate([np.arange(n), n + surplus])
    T = np.zeros((m + 1, nonbasic.size + 1))
    T[:m, :n] = A
    T[surplus, n + np.arange(surplus.size)] = -1.0
    T[:m, -1] = b

    return _Start(
        iterations=0, max_iter=500 + 80 * (m + width), width=width, T=T, basis=basis,
        nonbasic=nonbasic, alive=np.ones(m, dtype=bool), own=own, A=A,
        sigma=sigma, a_ub=a_ub, b_ub=b_ub, ub_vars=ub_vars,
    )


def _phase1(lp: LinearProgram):
    """Phase 1 on the rows of ``lp``: the certified ``infeasible`` answer, or
    a :class:`_Start` whose basis has every artificial driven out (rows left
    holding one are redundant and dropped)."""
    start = _slack_start(lp)
    T, basis, nonbasic = start.T, start.basis, start.nonbasic
    n, m_ub, width = lp.c.shape[0], start.a_ub.shape[0], start.width

    it1 = 0
    if width > n + m_ub:
        # Phase 1: maximize -(sum of artificials).
        c1 = np.zeros(width)
        c1[n + m_ub:] = -1.0
        _set_objective(T, basis, nonbasic, c1)
        status1, it1 = _run_simplex(T, basis, nonbasic, width, start.max_iter)
        if status1 != "optimal" or T[-1, -1] < -TOL:
            return _infeasible(lp, start, it1)

    # Drive remaining basic artificials out; drop redundant rows.
    drop_rows = []
    for i in np.flatnonzero(basis >= n + m_ub):
        cand = np.flatnonzero((np.abs(T[i, :-1]) > TOL) & (nonbasic < n + m_ub))
        if cand.size:
            _pivot(T, basis, nonbasic, i, cand[np.argmin(nonbasic[cand])])
        else:
            drop_rows.append(i)
    start.alive[drop_rows] = False
    if drop_rows:
        start.T = np.vstack([T[:-1][start.alive], T[-1:]])
        start.basis = basis[start.alive]
    start.iterations = it1
    return start


def _shape(lp: LinearProgram) -> str:
    return f"{lp.a_ub.shape[0] + lp.a_eq.shape[0]} rows x {lp.c.shape[0]} columns"


def _solution(lp: LinearProgram, start: _Start, y, **fields) -> LPSolution:
    """``fields`` with the multipliers ``y`` of ``start``'s rows, split into
    those of ``lp.a_ub``, of ``lp.a_eq`` and of the folded upper bounds."""
    m_ub, k = start.a_ub.shape[0], lp.a_ub.shape[0]
    upper = np.zeros(lp.c.shape[0])
    upper[start.ub_vars] = y[k:m_ub]
    return LPSolution(dual_ub=y[:k], dual_eq=y[m_ub:], dual_upper=upper, **fields)


def _dual_residual(c, rows, y, m_ub: int) -> float:
    """How far multipliers ``y`` of ``rows`` (the first ``m_ub`` of them
    inequalities) are from dual feasibility, y^T rows >= c and y >= 0 on the
    inequalities, each relative to the magnitudes entering it."""
    reduced = (c - y @ rows) / (1.0 + np.abs(c) + np.abs(y) @ np.abs(rows))
    y_ub = y[:m_ub]
    sign = float(np.max(-y_ub, initial=0.0)) / (1.0 + float(np.max(np.abs(y_ub), initial=0.0)))
    return max(float(np.max(reduced, initial=0.0)), sign)


def _infeasible(lp: LinearProgram, start: _Start, iterations: int) -> LPSolution:
    """The ``infeasible`` answer at the end of phase 1, certified by its
    Farkas ray, or :class:`ComputationError`.

    The phase-1 duals y are read from the final reduced-cost row: the
    reduced cost of row i's own slack is y_i, that of its own artificial
    y_i + 1, and a basic variable's is zero.  Mapped to the rows as supplied,
    y must meet y^T A >= 0, y >= 0 on the inequality rows and y^T b < 0, each
    relative to the magnitudes entering it (see :func:`_dual_residual`).
    """
    n, m_ub = lp.c.shape[0], start.a_ub.shape[0]
    rc = np.zeros(start.width)
    rc[start.nonbasic] = start.T[-1, :-1]
    y = start.sigma * (rc[start.own] - (start.own >= n + m_ub))
    rows = np.vstack([start.a_ub, lp.a_eq])
    b = np.concatenate([start.b_ub, lp.b_eq])
    dual_res = _dual_residual(np.zeros(n), rows, y, m_ub)
    value = float(y @ b) / (1.0 + float(np.abs(y) @ np.abs(b)))
    if not (dual_res <= TOL and value < -TOL):  # NaN fails too
        raise ComputationError(
            f"LP infeasibility certification failed ({_shape(lp)}): "
            f"dual={dual_res:.3e} value={value:.3e} (tol {TOL:.3e})"
        )
    return _solution(lp, start, y, status="infeasible", iterations=iterations)


def _restart(lp: LinearProgram, rows: _Start, basis) -> Optional[_Start]:
    """A feasible start of ``lp`` at ``basis``, a previous optimum's
    basis of rows of the same shape, or None, and phase 1 runs instead.
    ``rows`` is the slack start of ``lp``'s rows; it is left as it is.

    The basis is refactored on the new rows by one dense solve over
    every column, [A | I] with a surplus row's slack signed -1.  Where a basic
    value is negative and every reduced cost of ``lp``'s objective is
    nonnegative, the dual simplex pivots to a feasible basis.  None when the
    basis does not fit the rows or is singular, when it is infeasible and not
    dual feasible, or when the dual simplex finds no feasible point or needs
    more pivots than there are rows.
    """
    n, m_ub, m = lp.c.shape[0], rows.a_ub.shape[0], rows.A.shape[0]
    if basis is None or basis.size != m or np.any(basis >= n + m_ub):
        return None
    cols = np.zeros((m, rows.width))
    cols[:, :n] = rows.A
    cols[np.arange(m), rows.own] = 1.0
    surplus = np.flatnonzero(rows.sigma[:m_ub] < 0)
    cols[surplus, n + surplus] = -1.0
    free = np.ones(rows.width, dtype=bool)
    free[basis] = False
    nonbasic = np.flatnonzero(free)
    T = np.zeros((m + 1, nonbasic.size + 1))
    try:
        T[:m] = np.linalg.solve(
            cols[:, basis], np.column_stack([cols[:, nonbasic], rows.T[:m, -1]])
        )
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(T)):
        return None
    basis = basis.copy()
    it = 0
    if T[:m, -1].min(initial=0.0) < -TOL:
        c = np.zeros(rows.width)
        c[:n] = lp.c if lp.sense == "max" else -lp.c
        _set_objective(T, basis, nonbasic, c)
        if np.any(T[-1, :-1][nonbasic < n + m_ub] < -TOL):
            return None
        # a restart needing more pivots than there are rows is no cheaper
        # than phase 1, and the cap keeps the loop finite without a
        # cycling rule
        status, it = _run_dual(T, basis, nonbasic, n + m_ub, m)
        if status != "optimal":
            return None
    return replace(rows, iterations=it, T=T, basis=basis, nonbasic=nonbasic)


def _basis_solve(mat, rhs):
    """mat^-1 rhs, with two steps of iterative refinement against
    conditioning; least squares where ``mat`` is singular."""
    try:
        z = np.linalg.solve(mat, rhs)
        for _ in range(2):
            z = z + np.linalg.solve(mat, rhs - mat @ z)
    except np.linalg.LinAlgError:
        z, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    return z


def _certificate(c_obj, rows, b, m_ub: int, x, y):
    """Strong duality of x and max-sense multipliers y on ``rows`` (the
    first ``m_ub`` of them <=, the rest equalities) with right-hand side b:
    (c_obj x, primal residual, dual residual, gap).  Each residual is
    relative to the magnitudes entering its row or column, so badly scaled
    data certify honestly."""
    value_max = float(c_obj @ x)
    resid = rows @ x - b
    resid[m_ub:] = np.abs(resid[m_ub:])
    resid /= 1.0 + np.abs(b) + np.abs(rows) @ np.abs(x)
    primal_res = float(np.max(np.concatenate([-x, resid]), initial=0.0))
    dual_res = _dual_residual(c_obj, rows, y, m_ub)
    dual_value = float(b @ y)
    gap = abs(value_max - dual_value) / (1.0 + abs(value_max) + float(np.abs(b) @ np.abs(y)))
    return value_max, primal_res, dual_res, gap


def _phase2(lp: LinearProgram, start: _Start) -> LPSolution:
    """Phase 2 of ``lp`` from a copy of ``start``, certified by strong
    duality."""
    T, basis, nonbasic = start.T.copy(), start.basis.copy(), start.nonbasic.copy()
    alive, A, a_ub, b_ub = start.alive, start.A, start.a_ub, start.b_ub
    n = lp.c.shape[0]
    m_ub, m_eq = a_ub.shape[0], lp.a_eq.shape[0]
    m, width = m_ub + m_eq, start.width
    sense_mult = 1.0 if lp.sense == "max" else -1.0
    c_obj = sense_mult * lp.c

    # Phase 2 objective; artificials may no longer enter.
    c2 = np.zeros(width)
    c2[:n] = c_obj
    _set_objective(T, basis, nonbasic, c2)
    status2, it2 = _run_simplex(T, basis, nonbasic, n + m_ub, start.max_iter)
    iterations = start.iterations + it2
    if status2 == "unbounded":
        return LPSolution(status="unbounded", iterations=iterations)

    # The optimum and its duals from the final basis (see the module
    # docstring); dropped redundant rows carry dual zero.
    rows_all, b_all = np.vstack([a_ub, lp.a_eq]), np.concatenate([b_ub, lp.b_eq])
    x = np.zeros(n)
    y_norm = np.zeros(m)
    rows = alive.copy()
    rows[basis[(basis >= n) & (basis < n + m_ub)] - n] = False
    struct = basis[basis < n]
    if rows.any():
        basis_mat = A[np.ix_(rows, struct)]
        x[struct] = _basis_solve(basis_mat, start.sigma[rows] * b_all[rows])
        y_norm[rows] = _basis_solve(basis_mat.T, c2[struct])
    # duals of the rows as supplied (all-<= + eq), max sense
    y = start.sigma * y_norm
    value_max, primal_res, dual_res, gap = _certificate(c_obj, rows_all, b_all, m_ub, x, y)
    if not (primal_res <= TOL and dual_res <= TOL and gap <= TOL):  # NaN fails too
        raise ComputationError(
            f"LP certification failed ({_shape(lp)}): "
            f"primal={primal_res:.3e} dual={dual_res:.3e} gap={gap:.3e} (tol {TOL:.3e})"
        )

    return _solution(
        lp, start, sense_mult * y, status="optimal", value=sense_mult * value_max, x=x,
        gap=gap, primal_residual=primal_res, dual_residual=dual_res,
        iterations=iterations, basis=basis,
    )


def _carry(lp: LinearProgram, prev: LPSolution) -> Optional[LPSolution]:
    """``prev``, an optimum of rows of the same shape whose data changed,
    as the optimum of ``lp`` when its x and duals pass :func:`_phase2`'s
    strong-duality test on ``lp``'s rows as supplied; else None.  The answer
    keeps ``prev``'s basis, for the next restart, and its residuals are
    recomputed on the new rows."""
    if (prev.status != "optimal" or prev.x.shape != lp.c.shape
            or prev.dual_ub.shape != lp.b_ub.shape or prev.dual_eq.shape != lp.b_eq.shape):
        return None
    a_ub, b_ub, ub_vars = _folded(lp)
    sense_mult = 1.0 if lp.sense == "max" else -1.0
    y = sense_mult * np.concatenate([prev.dual_ub, prev.dual_upper[ub_vars], prev.dual_eq])
    value_max, primal_res, dual_res, gap = _certificate(
        sense_mult * lp.c, np.vstack([a_ub, lp.a_eq]), np.concatenate([b_ub, lp.b_eq]),
        a_ub.shape[0], prev.x, y,
    )
    if not (primal_res <= TOL and dual_res <= TOL and gap <= TOL):
        return None
    return replace(
        prev, value=sense_mult * value_max, gap=gap, primal_residual=primal_res,
        dual_residual=dual_res, iterations=0,
    )


def solve(lp: LinearProgram) -> LPSolution:
    """Solve the LP, certifying optimal answers by strong duality and
    infeasible ones by a Farkas ray."""
    start = _phase1(lp)
    if isinstance(start, LPSolution):
        return start
    return _phase2(lp, start)


def solve_ratio(
    num, den, a_ub, *, warm: Optional[tuple] = None
) -> tuple[LPSolution, LPSolution]:
    """Minimum and maximum of (num @ x) / (den @ x) over the points of the
    cone {x >= 0, a_ub @ x <= 0} with den @ x > 0, as ``(lo, hi)``.

    The ratio does not change when x is scaled, so each extreme is that of
    num @ x on the slice den @ x = 1.  Both senses start phase 2 from one
    phase 1 of the slice, so each is bit for bit what ``solve`` gives for its
    sense; certification stays per extreme.  Both read ``infeasible``, with
    one Farkas ray, when the cone does not reach the slice.

    ``warm``, a previous ``(lo, hi)`` of a cone of the same shape, starts
    each extreme from that extreme's answer: its optimum when it certifies on
    the new rows (see ``_carry``), else a restart from its final basis (see
    ``_restart``).  An extreme that cannot restart takes the shared phase 1
    as without ``warm``.
    """
    a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
    prog = LinearProgram.build(
        "max", num, a_ub=a_ub, b_ub=np.zeros(a_ub.shape[0]), a_eq=[den], b_eq=[1.0]
    )
    rows = cold = None
    out = []
    for k, side in enumerate((replace(prog, sense="min"), prog)):
        start = None
        if warm is not None:
            carried = _carry(side, warm[k])
            if carried is not None:
                out.append(carried)
                continue
            if rows is None:
                rows = _slack_start(prog)
            start = _restart(side, rows, warm[k].basis)
        if start is None:
            if cold is None:
                cold = _phase1(prog)
            if isinstance(cold, LPSolution):
                return cold, cold
            start = cold
        out.append(_phase2(side, start))
    return out[0], out[1]
