"""Independent reference computations that the tests hold the engine to.

None of these are on the engine's path; each recomputes a quantity the
package computes another way:

* band extremes by vertex enumeration and by the Charnes-Cooper LP, against
  the threshold scan of ``band_ratio_extreme`` / ``rho_gamma``;
* the acceptability index by bisecting rho in the level, against the closed
  form of ``dglr_eval``;
* the ratio/threshold-density correspondence, per node;
* hedged-acceptability prices from the primal side (least cash plus conic
  hedge that is acceptable), against the dual density-polytope quotes;
* discounted wealth by the explicit self-financing sum (setup cost,
  liquidation value, cumulative purchases/sales, discounted dividends),
  against the date-by-date recursion of ``wealth_process``: the two agree
  for self-financing strategies, and only for those;
* no-arbitrage bounds and good-deal prices in check-first order (the
  arbitrage search or the no-good-deal check, then the node quotes), against
  the quote-first order of ``noarb_bounds`` and ``good_deal_prices``;
* the natural filtration from each path's whole observed history at every
  date, against the date-by-date refinement of ``derive_filtration``, and
  every cell's spread scanned date by date, against the comparison with each
  path's cell head in ``EventTree.unmeasurable_cell``.
"""

from dataclasses import dataclass, field

import numpy as np

from conic_pricer import lp, pricing
from conic_pricer.acceptability import DensityBand, band_ratio_extreme, dglr_eval
from conic_pricer.cone import arbitrage_check, generators_for
from conic_pricer.errors import ComputationError, ValidationError
from conic_pricer.lattice import as_values, tail_sum
from conic_pricer.market import (
    MarketModel,
    TradingStrategy,
    _split,
    is_self_financing,
    wealth_process,
)

from cone_reference import reference_generator_matrix
from lp_reference import solve_ratio

VERTEX_CAP = 20
INDEX_GAMMA_LOW = 1e-12
INDEX_GAMMA_HIGH = 1e9
INDEX_TOL = 1e-6
CORRESPONDENCE_TOL = 1e-9


# ---------------------------------------------------------------------------
# band extremes


def band_extreme_vertices(x, w, gamma, minimize=True, cap=VERTEX_CAP):
    """Extreme of sum(w*(1+L)*x)/sum(w*(1+L)) by full enumeration over
    L in {0, gamma}^n (along each coordinate the ratio is monotone, so the
    extremes sit at vertices)."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    n = len(x)
    if n > cap:
        raise ValidationError(f"node with {n} paths exceeds vertex enumeration cap {cap}")
    best = None
    chunk = 1 << 16
    bits = np.arange(n)
    total = 1 << n
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        lam = ((idx[:, None] >> bits[None, :]) & 1) * gamma
        ww = w[None, :] * (1.0 + lam)
        vals = (ww @ x) / ww.sum(axis=1)
        cand = float(np.min(vals) if minimize else np.max(vals))
        if best is None or (cand < best if minimize else cand > best):
            best = cand
    return best


def band_extreme_lp(x, w, gamma, minimize=True):
    """The same extreme through the Charnes-Cooper LP: variables (eta on the
    node, m), band rows m <= eta <= (1+gamma) m, node normalization = 1."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    n = len(x)
    a_ub = np.zeros((2 * n, n + 1))
    for i in range(n):
        a_ub[i, i] = -1.0
        a_ub[i, n] = 1.0
        a_ub[n + i, i] = 1.0
        a_ub[n + i, n] = -(1.0 + gamma)
    lo, hi = solve_ratio(
        np.concatenate([w * x, [0.0]]),
        np.concatenate([w, [0.0]]),
        a_ub=a_ub,
        b_ub=np.zeros(2 * n),
        a_eq=np.concatenate([w, [0.0]])[None, :],
        b_eq=np.ones(1),
    )
    return (lo if minimize else hi).value


def rho_reference(tree, cash_flow, t, gamma, *, vertex_cap=VERTEX_CAP):
    """rho_gamma per node by vertex enumeration on nodes within
    ``vertex_cap`` paths and by the LP on larger ones."""
    x = tail_sum(as_values(cash_flow), t)
    p = tree.probabilities
    out = np.empty(tree.n_paths)
    for cell in tree.partitions[t]:
        idx = list(cell)
        if len(idx) <= vertex_cap:
            out[idx] = -band_extreme_vertices(x[idx], p[idx], gamma)
        else:
            out[idx] = -band_extreme_lp(x[idx], p[idx], gamma)
    return out


# ---------------------------------------------------------------------------
# acceptability index by bisection


def _rho_node(x, w, gamma):
    return -band_ratio_extreme(x, w, gamma, minimize=True)


def index_level(tree, cash_flow, t):
    """Highest acceptance level with nonpositive risk, found by bisection.

    rho is nondecreasing and continuous in gamma, so the boundary of
    {gamma : rho <= 0} is located to absolute tolerance ``INDEX_TOL``; levels
    escaping the bracket map to 0 below and +inf above.
    """
    x = tail_sum(as_values(cash_flow), t)
    p = tree.probabilities
    out = np.empty(tree.n_paths)
    slack = 1e-12
    for cell in tree.partitions[t]:
        idx = list(cell)
        xc, wc = x[idx], p[idx]
        if _rho_node(xc, wc, INDEX_GAMMA_LOW) > slack:
            out[idx] = 0.0
            continue
        if _rho_node(xc, wc, INDEX_GAMMA_HIGH) <= slack:
            out[idx] = np.inf
            continue
        lo, hi = INDEX_GAMMA_LOW, INDEX_GAMMA_HIGH
        while hi - lo > INDEX_TOL:
            mid = 0.5 * (lo + hi)
            if _rho_node(xc, wc, mid) <= slack:
                lo = mid
            else:
                hi = mid
        out[idx] = 0.5 * (lo + hi)
    return out


# ---------------------------------------------------------------------------
# ratio / threshold-density correspondence


@dataclass
class CorrespondenceReport:
    checked: int = 0
    passed: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.checked > 0 and not self.failures


def correspondence_check(tree, samples):
    """Verify, per node, that the ratio clears level gamma exactly when the
    worst band-conditional expectation is nonnegative, and that the threshold
    density (gamma on the loss set) reproduces the box-LP minimum of the
    band-weighted mass.

    ``samples`` yields (cash_flow, t, gamma) triples.  Near-boundary cases
    (either discriminant within ``CORRESPONDENCE_TOL`` of zero) count as passes.
    """
    tol = CORRESPONDENCE_TOL
    report = CorrespondenceReport()
    for cash_flow, t, gamma in samples:
        DensityBand(gamma)
        x = tail_sum(as_values(cash_flow), t)
        p = tree.probabilities
        ratio = dglr_eval(tree, cash_flow, t)
        for k, cell in enumerate(tree.partitions[t]):
            idx = list(cell)
            report.checked += 1
            mass_closed = float(p[idx] @ x[idx]) - gamma * float(
                p[idx] @ np.maximum(-x[idx], 0.0)
            )
            prog = lp.LinearProgram.build(
                "min", p[idx] * x[idx], upper=np.full(len(idx), gamma)
            )
            mass_lp = float(p[idx] @ x[idx]) + lp.solve(prog).value
            value_ok = abs(mass_closed - mass_lp) <= tol
            lhs = ratio[idx[0]] >= gamma
            rhs = band_ratio_extreme(x[idx], p[idx], gamma, minimize=True) >= 0.0
            near = abs(mass_closed) <= tol or abs(ratio[idx[0]] - gamma) <= tol
            if value_ok and ((lhs == rhs) or near):
                report.passed += 1
            else:
                report.failures.append(
                    {
                        "t": t,
                        "cell": k,
                        "gamma": gamma,
                        "mass_closed": mass_closed,
                        "mass_lp": mass_lp,
                        "ratio": float(ratio[idx[0]]),
                        "band_min_nonneg": bool(rhs),
                    }
                )
    return report


# ---------------------------------------------------------------------------
# primal hedging prices


@dataclass(frozen=True)
class OracleInterval:
    bid: float
    ask: float


def _least_acceptable_cash(x, G, q, gamma):
    """min v such that Y = v + G^T w - x is acceptable for some w >= 0.

    Acceptable means E[Y] - gamma E[Y-] >= 0; with z >= max(-Y, 0) this is
    the LP over (v+, v-, w, z) >= 0:

        min v+ - v-   s.t.   gamma q.z - q.Y <= 0,   -Y - z <= 0.

    Unbounded below means cash can be withdrawn forever: -inf.
    """
    k, m = len(x), G.shape[0]
    mass = float(q.sum())
    accept = np.concatenate([[-mass, mass], -(G @ q), gamma * q])
    dominate = np.hstack([-np.ones((k, 1)), np.ones((k, 1)), -G.T, -np.eye(k)])
    prog = lp.LinearProgram.build(
        "min",
        np.concatenate([[1.0, -1.0], np.zeros(m + k)]),
        a_ub=np.vstack([accept[None, :], dominate]),
        b_ub=np.concatenate([[-float(q @ x)], -x]),
    )
    sol = lp.solve(prog)
    if sol.status == "unbounded":
        return -np.inf
    if sol.status != "optimal":
        raise ComputationError(f"primal hedging LP: {sol.status}")
    return sol.value


def primal_price_oracle(model, cash_flow, t, gamma):
    """Hedged-acceptability bid and ask per date-t node, from the primal side.

    The ask is the least cash that, together with a conic combination of the
    round trips paying on the node, makes the discounted tail's short side
    acceptable at level ``gamma``; the bid is minus the ask of the negated
    flow.  By the acceptability-set duality this equals the band-restricted
    risk-neutral quotes, whose polytope it never builds.
    """
    tree = model.tree
    p = tree.probabilities
    _, Binv = model.discounts()
    x = tail_sum(as_values(cash_flow) * Binv, t + 1)
    G_all = reference_generator_matrix(model, t)
    out = []
    for node in tree.nodes(t):
        idx = list(tree.node_paths(node))
        G = G_all[:, idx]
        G = G[np.any(G != 0.0, axis=1)]
        q = p[idx]
        ask = _least_acceptable_cash(x[idx], G, q, gamma)
        bid = -_least_acceptable_cash(-x[idx], G, q, gamma)
        out.append(OracleInterval(bid=bid, ask=ask))
    return out


# ---------------------------------------------------------------------------
# check-first quotes


def check_first_bounds(model, cash_flow, t, *, entry="trade"):
    """``noarb_bounds`` as the arbitrage search, then the bound LPs."""
    if arbitrage_check(model, t) is not None:
        entries = tuple(
            pricing.PriceEntry(node, np.nan, np.nan, pricing.STATUS_ARBITRAGE)
            for node in model.tree.nodes(t)
        )
        return pricing.PriceQuote(time=t, gamma=None, entries=entries)
    quotes = pricing._node_quotes(model, cash_flow, generators_for(model, t, entry), None)
    return pricing.PriceQuote(time=t, gamma=None, entries=tuple(e for e, _ in quotes))


def check_first_good_deal_prices(model, cash_flow, t, gamma):
    """``good_deal_prices`` as the no-good-deal check, then the band LPs."""
    check = pricing.ngd_check(model, t, gamma)
    if not check.holds:
        entries = tuple(
            pricing.PriceEntry(node, np.inf, -np.inf, pricing.STATUS_NGD)
            for node in model.tree.nodes(t)
        )
        return pricing.PriceQuote(time=t, gamma=gamma, entries=entries, witness=check.witness)
    quotes = pricing._node_quotes(model, cash_flow, generators_for(model, t), gamma)
    return pricing.PriceQuote(time=t, gamma=gamma, entries=tuple(e for e, _ in quotes))


# ---------------------------------------------------------------------------
# accounting


def wealth_closed_form(
    model: MarketModel, phi: TradingStrategy, *, tol: float = 1e-9
) -> np.ndarray:
    """Discounted wealth via the explicit self-financing sum.

    Refuses strategies that fail the rebalance identity, since the sum only
    represents the wealth of self-financing strategies.
    """
    check = is_self_financing(model, phi, tol=tol)
    if not check:
        raise ValidationError(
            "strategy is not self-financing "
            f"(t={check.time}, path {model.tree.paths[check.path]}, "
            f"residual {check.residual:.3e})"
        )
    return _closed_form_sum(model, phi)


def _closed_form_sum(model: MarketModel, phi: TradingStrategy) -> np.ndarray:
    """The explicit sum itself, whether or not ``phi`` is self-financing."""
    tree = model.tree
    h = phi.holdings
    n, T = tree.n_paths, tree.horizon
    _, Binv = model.discounts()
    V0 = wealth_process(model, phi)[:, 0]
    out = np.zeros((n, T + 1))
    out[:, 0] = V0
    buys = np.zeros(n)
    divs = np.zeros(n)
    for t in range(1, T + 1):
        liq = np.zeros(n)
        for j, sec in enumerate(model.securities):
            d = h[t][1 + j] - h[t - 1][1 + j]
            buys += _split(
                d, Binv[:, t - 1] * sec.ask[:, t - 1], Binv[:, t - 1] * sec.bid[:, t - 1]
            )
            d_ask = sec.div_ask[:, t] - sec.div_ask[:, t - 1]
            d_bid = sec.div_bid[:, t] - sec.div_bid[:, t - 1]
            divs += _split(h[t][1 + j], Binv[:, t] * d_ask, Binv[:, t] * d_bid)
            liq += _split(
                h[t][1 + j], Binv[:, t] * sec.bid[:, t], Binv[:, t] * sec.ask[:, t]
            )
        out[:, t] = V0 + liq - buys + divs
    return out


# ---------------------------------------------------------------------------
# filtrations


def history_filtration(observables):
    """The natural filtration of ``observables`` keyed on each path's whole
    history: two paths share a date-t cell exactly when every observable
    agrees on them at all dates 0..t; cells ordered by smallest path."""
    mats = [np.asarray(o, dtype=float) for o in observables]
    n, width = mats[0].shape
    partitions = []
    for t in range(width):
        groups = {}
        for i in range(n):
            key = tuple(tuple(m[i, : t + 1]) for m in mats)
            groups.setdefault(key, []).append(i)
        partitions.append(tuple(sorted((tuple(v) for v in groups.values()), key=lambda c: c[0])))
    return partitions


def scanned_unmeasurable_cell(tree, values, tol=0.0):
    """The first (t, cell), by date and then cell, whose values in column t
    of ``values`` spread by more than ``tol`` (max - min > tol), or None,
    from every cell's max and min at every date."""
    for t in range(values.shape[1]):
        idx, n_cells = tree.cell_index(t), len(tree.partitions[t])
        hi, lo = np.full(n_cells, -np.inf), np.full(n_cells, np.inf)
        np.maximum.at(hi, idx, values[:, t])
        np.minimum.at(lo, idx, values[:, t])
        over = np.flatnonzero(hi - lo > tol)
        if over.size:
            return t, tree.partitions[t][over[0]]
    return None
