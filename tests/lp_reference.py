"""Full-tableau two-phase steepest-edge simplex: the reference for ``lp.solve``.

This is the layout ``conic_pricer.lp`` used before it moved to a condensed
tableau: one column for every structural, slack and artificial variable, and
a Python loop over rows in each pivot.  It prices with the same
rule as ``lp``: the eligible column with the largest rc^2 / (1 + |column|^2)
enters, by the same numpy reduction over the same entries, and after
``STALL_PIVOTS`` zero-step pivots in a row Bland's rule picks until a pivot
moves.  It stops at the primal answer (status, value, x, iterations), the
float optimum read from the final basis as ``lp`` reads it; ``lp.solve`` must
reproduce all four bit for bit, because both kernels make the same float
operations on every entry that a pivot choice or that read touches.

It also holds the general linear-fractional solver ``solve_ratio``: the
Charnes-Cooper transform over ``lp``'s phases, with constant terms, bounds
and equalities, which the whole-tree reference programs need.
``lp.solve_ratio`` only takes ratios over a cone.
"""

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from conic_pricer.errors import ComputationError, ValidationError
from conic_pricer.lp import TOL, LinearProgram, LPSolution, _phase1, _phase2, solve

STALL_PIVOTS = 50


def _pivot(T, basis, row, col):
    piv = T[row, col]
    T[row, :] = T[row, :] / piv
    for i in range(T.shape[0]):
        if i != row:
            factor = T[i, col]
            if factor != 0:
                T[i, :] = T[i, :] - factor * T[row, :]
    basis[row] = col


def _run_simplex(T, basis, blocked, tol, max_iter):
    m = T.shape[0] - 1
    width = T.shape[1] - 1
    it = stalled = 0
    while True:
        zrow = T[-1]
        cand = [j for j in range(width) if j not in blocked and zrow[j] < -tol]
        if not cand:
            return "optimal", it
        enter = cand[0]
        if stalled < STALL_PIVOTS:
            sub, rc = T[:m, cand], zrow[cand]
            score = rc * rc / (1 + (sub * sub).sum(axis=0))
            enter = cand[int(np.argmax(score))]
        leave, best_ratio, best_basis = -1, None, None
        for i in range(m):
            a = T[i, enter]
            if a > tol:
                ratio = T[i, -1] / a
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[i] < best_basis
                ):
                    leave, best_ratio, best_basis = i, ratio, basis[i]
        if leave < 0:
            return "unbounded", it
        _pivot(T, basis, leave, enter)
        stalled = 0 if best_ratio > 0 else stalled + 1
        it += 1
        if it > max_iter:
            raise ComputationError(
                f"simplex iteration limit ({max_iter}) exceeded; numerical breakdown"
            )


def _to_fraction_array(arr):
    out = np.empty(arr.shape, dtype=object)
    flat_in = arr.ravel()
    flat_out = out.ravel()
    for k, v in enumerate(flat_in):
        flat_out[k] = Fraction(float(v))
    return out


def reference_solve(lp, *, tol=1e-9, exact=False):
    """(status, value, x, iterations) of ``lp`` on the full tableau."""
    n = lp.c.shape[0]
    sense_mult = 1.0 if lp.sense == "max" else -1.0
    c_obj = sense_mult * lp.c

    ub_rows = []
    ub_rhs = []
    if lp.upper is not None:
        for i, u in enumerate(lp.upper):
            if np.isfinite(u):
                row = np.zeros(n)
                row[i] = 1.0
                ub_rows.append(row)
                ub_rhs.append(u)
    a_ub = np.vstack([lp.a_ub] + ub_rows) if ub_rows else lp.a_ub
    b_ub = np.concatenate([lp.b_ub, np.asarray(ub_rhs)]) if ub_rows else lp.b_ub

    m_ub, m_eq = a_ub.shape[0], lp.a_eq.shape[0]
    m = m_ub + m_eq

    A = np.vstack([a_ub, lp.a_eq]) if m else np.zeros((0, n))
    b = np.concatenate([b_ub, lp.b_eq]) if m else np.zeros(0)

    sigma = np.ones(m)
    slack = np.zeros((m, m_ub))
    for i in range(m_ub):
        slack[i, i] = 1.0
    for i in range(m):
        if b[i] < 0:
            sigma[i] = -1.0
            A[i] = -A[i]
            b[i] = -b[i]
            if i < m_ub:
                slack[i, i] = -1.0

    needs_art = [i >= m_ub or sigma[i] < 0 for i in range(m)]
    art_of = {}
    n_art = 0
    for i in range(m):
        if needs_art[i]:
            art_of[i] = n + m_ub + n_art
            n_art += 1
    width = n + m_ub + n_art
    full = np.zeros((m + 1, width + 1))
    if m:
        full[:m, :n] = A
        full[:m, n : n + m_ub] = slack
        for i, col in art_of.items():
            full[i, col] = 1.0
        full[:m, -1] = b
    art_cols = set(art_of.values())

    if exact:
        T = _to_fraction_array(full)
        zero = Fraction(0)
        piv_tol = zero
    else:
        T = full
        zero = 0.0
        piv_tol = tol

    basis = [art_of[i] if needs_art[i] else n + i for i in range(m)]
    max_iter = 500 + 80 * (m + width)

    it1 = 0
    if n_art:
        c1 = np.zeros(width, dtype=object if exact else float)
        for j in art_cols:
            c1[j] = Fraction(-1) if exact else -1.0
        T[-1, :width] = -c1
        T[-1, -1] = zero
        for i, bi in enumerate(basis):
            if c1[bi] != 0:
                T[-1, :] = T[-1, :] + c1[bi] * T[i, :]
        status1, it1 = _run_simplex(T, basis, set(), piv_tol, max_iter)
        phase1_val = T[-1, -1]
        feas_tol = zero if exact else max(tol, 1e-9)
        if status1 != "optimal" or phase1_val < -feas_tol:
            return "infeasible", np.nan, None, it1

    drop_rows = []
    for i in range(len(basis)):
        if basis[i] in art_cols:
            done = False
            for j in range(n + m_ub):
                if abs(T[i, j]) > (piv_tol if not exact else 0):
                    _pivot(T, basis, i, j)
                    done = True
                    break
            if not done:
                drop_rows.append(i)
    if drop_rows:
        keep = [i for i in range(len(basis)) if i not in drop_rows]
        T = np.vstack([T[keep], T[-1:]])
        basis = [basis[i] for i in keep]

    c2 = np.zeros(width, dtype=object if exact else float)
    for j in range(n):
        c2[j] = Fraction(float(c_obj[j])) if exact else c_obj[j]
    T[-1, :width] = -c2
    T[-1, -1] = zero
    for i, bi in enumerate(basis):
        if c2[bi] != 0:
            T[-1, :] = T[-1, :] + c2[bi] * T[i, :]
    status2, it2 = _run_simplex(T, basis, set(art_cols), piv_tol, max_iter)
    if status2 == "unbounded":
        return "unbounded", np.nan, None, it1 + it2

    if exact:
        x_full = np.zeros(width, dtype=object)
        for i in range(T.shape[0] - 1):
            x_full[basis[i]] = T[i, -1]
        x = np.array([float(v) for v in x_full[:n]])
        return "optimal", sense_mult * float(T[-1, -1]), x, it1 + it2

    # the float optimum is read from the final basis: B x_B = b over the kept
    # rows without a basic slack and the basic structural columns
    rows = np.ones(m, dtype=bool)
    rows[drop_rows] = False
    for bi in basis:
        if n <= bi < n + m_ub:
            rows[bi - n] = False
    struct = np.array([bi for bi in basis if bi < n], dtype=int)
    x = np.zeros(n)
    if rows.any():
        B, rhs = A[np.ix_(rows, struct)], b[rows]
        try:
            x[struct] = np.linalg.solve(B, rhs)
        except np.linalg.LinAlgError:
            x[struct] = np.linalg.lstsq(B, rhs, rcond=None)[0]
    return "optimal", sense_mult * float(c_obj @ x), x, it1 + it2


# ---------------------------------------------------------------------------
# the general linear-fractional program (Charnes-Cooper)


@dataclass
class RatioSolution:
    value: float
    x: Optional[np.ndarray]
    scale: float
    lp_solution: LPSolution = field(repr=False, default=None)
    status: str = "optimal"  # "optimal" | "infeasible" (empty feasible set)


def solve_ratio(
    num,
    den,
    *,
    num0: float = 0.0,
    den0: float = 0.0,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
    upper=None,
) -> tuple[RatioSolution, RatioSolution]:
    """Minimum and maximum of (num @ x + num0) / (den @ x + den0) over the LP
    feasible set, as ``(lo, hi)``.

    The caller must guarantee the denominator is strictly positive on the
    feasible set.  Charnes-Cooper: with y = s*x, s >= 0, constraints become
    homogeneous in (y, s) and the denominator is pinned to 1.  Both extremes
    start phase 2 from one phase 1 of that program, so each is bit for bit
    what ``solve`` gives for its sense; certification stays per extreme.  If
    the program is infeasible, the constraints alone decide: an empty
    feasible set gives status ``infeasible`` (value NaN) for both, a nonempty
    one on which the denominator vanishes raises :class:`ComputationError`.
    """
    num = np.atleast_1d(np.asarray(num, dtype=float))
    den = np.atleast_1d(np.asarray(den, dtype=float))
    n = num.shape[0]
    if den.shape[0] != n:
        raise ValidationError("numerator/denominator dimension mismatch")
    a_ub = np.zeros((0, n)) if a_ub is None else np.atleast_2d(np.asarray(a_ub, float))
    b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, float))
    a_eq = np.zeros((0, n)) if a_eq is None else np.atleast_2d(np.asarray(a_eq, float))
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, float))
    rows_ub = []
    rhs_ub = []
    if a_ub.shape[0]:
        rows_ub.append(np.hstack([a_ub, -b_ub[:, None]]))
        rhs_ub.append(np.zeros(a_ub.shape[0]))
    if upper is not None:
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        for i, u in enumerate(upper):
            if np.isfinite(u):
                row = np.zeros(n + 1)
                row[i] = 1.0
                row[n] = -u
                rows_ub.append(row[None, :])
                rhs_ub.append(np.zeros(1))
    rows_eq = [np.hstack([den, [den0]])[None, :]]
    rhs_eq = [np.ones(1)]
    if a_eq.shape[0]:
        rows_eq.append(np.hstack([a_eq, -b_eq[:, None]]))
        rhs_eq.append(np.zeros(a_eq.shape[0]))
    prog = LinearProgram.build(
        "max",
        np.hstack([num, [num0]]),
        a_ub=np.vstack(rows_ub) if rows_ub else None,
        b_ub=np.concatenate(rhs_ub) if rows_ub else None,
        a_eq=np.vstack(rows_eq),
        b_eq=np.concatenate(rhs_eq),
    )
    start = _phase1(prog)
    if isinstance(start, LPSolution):
        bare = LinearProgram.build("max", np.zeros(n), a_ub, b_ub, a_eq, b_eq, upper)
        bare = solve(bare)
        if bare.status == "infeasible":
            empty = RatioSolution(np.nan, None, np.nan, bare, status="infeasible")
            return empty, empty
        raise ComputationError("fractional program not solvable: denominator degenerate")
    hi = _dehomogenize(_phase2(prog, start), n)
    lo = _dehomogenize(_phase2(replace(prog, sense="min"), start), n)
    return lo, hi


def _dehomogenize(sol: LPSolution, n: int) -> RatioSolution:
    if sol.status != "optimal":
        raise ComputationError(f"fractional program not solvable: LP status {sol.status}")
    s = float(sol.x[n])
    if s <= TOL:
        raise ComputationError("denominator degenerate: zero scale at optimum")
    return RatioSolution(value=float(sol.value), x=sol.x[:n] / s, scale=s, lp_solution=sol)
