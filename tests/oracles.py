"""Independent reference computations that the tests hold the engine to.

None of these are on the engine's path.  Each recomputes a quantity that the
package, or another reference here, computes another way:

* conditional expectation given the date-t information, as the per-cell
  weighted average in ``conditional_expectation``, against which the gain
  and loss legs of ``dglr_eval`` are checked;
* the band risk measure ``rho_gamma``: minus the worst band-weighted
  conditional expectation per node, whose level sets recover the gain-loss
  ratio (rho_gamma <= 0 exactly when the ratio is at least gamma).  Per-node
  band optimization is linear-fractional.  Along any coordinate of the band
  weight L the ratio is monotone, so an optimal L loads gamma on a
  value-threshold set of the flow, and the sorted threshold scan of
  ``band_ratio_extreme`` finds the exact optimum.  The same extremes come by
  vertex enumeration and by the Charnes-Cooper LP;
* the acceptability index by bisecting rho in the level, against the closed
  form of ``dglr_eval``;
* the ratio/threshold-density correspondence, per node;
* hedged-acceptability prices from the primal side (least cash plus conic
  hedge that is acceptable), against the dual density-polytope quotes;
* a strategy's wealth date by date in ``wealth_process`` (the setup cost at
  date 0, purchases at ask and sales at bid, then the pre-rebalance
  liquidation value plus the dividend credit at every later date), and the
  rebalance identity at every intermediate date in ``is_self_financing`` (the
  bank-account change plus the signed cost of the position change equals the
  dividends received), which ``make_self_financing`` meets by construction;
* discounted wealth by the explicit self-financing sum (setup cost,
  liquidation value, cumulative purchases/sales, discounted dividends),
  against the date-by-date recursion of ``wealth_process``: the two agree
  for self-financing strategies, and only for those;
* no-arbitrage bounds and good-deal prices in check-first order (the
  arbitrage search or the no-good-deal check, then the node quotes), against
  the quote-first order of ``noarb_bounds`` and ``good_deal_prices``; the
  good-deal node quotes come from a fresh band program per node and level
  (``cold_band_quote``), against the engine's ``_BandRow``; the check runs
  even where ``good_deal_prices`` skips it, every node's bound densities
  lying in the band;
* one-security trade bounds from the simplex alone (``cold_bound_quote``),
  against the superreplication recursion's certified candidates;
* the natural filtration from each path's whole observed history at every
  date, against the date-by-date refinement of ``derive_filtration``, and
  every cell's spread scanned date by date, against the comparison with each
  path's cell head in ``EventTree.unmeasurable_cell``;
* a market's input checks one process at a time and an event tree's
  partition checks one date at a time, against the one stacked pass of
  ``MarketModel`` and the one pass over the cells of ``EventTree``.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from conic_pricer import cone, lp, pricing
from conic_pricer.acceptability import DensityBand, dglr_eval
from conic_pricer.cone import arbitrage_check, generators_for
from conic_pricer.errors import ComputationError, ValidationError
from conic_pricer.lattice import as_values, tail_sum
from conic_pricer.market import MarketModel, TradingStrategy, _split

from cone_reference import reference_generator_matrix
from lp_reference import homogeneous, solve_ratio, with_bounds

VERTEX_CAP = 20
INDEX_GAMMA_LOW = 1e-12
INDEX_GAMMA_HIGH = 1e9
INDEX_TOL = 1e-6
CORRESPONDENCE_TOL = 1e-9


# ---------------------------------------------------------------------------
# conditional expectation


def conditional_expectation(tree, x, t: int, weights=None) -> np.ndarray:
    """Per-cell weighted average of ``x``, repeated across each date-t cell.

    With ``weights`` omitted the tree probabilities are used, which gives the
    ordinary conditional expectation given the date-t information.
    """
    xv = np.asarray(x, dtype=float)
    w = tree.probabilities if weights is None else np.asarray(weights, dtype=float)
    if xv.shape != (tree.n_paths,) or w.shape != (tree.n_paths,):
        raise ValidationError("conditional_expectation expects per-path vectors")
    if np.any(w < 0):
        raise ValidationError("weights must be nonnegative")
    out = np.empty(tree.n_paths)
    for cell in tree.partitions[t]:
        idx = list(cell)
        tw = float(w[idx].sum())
        if tw <= 0.0:
            raise ValidationError(
                f"conditioning on null event: zero total weight on cell {cell} at t={t}"
            )
        out[idx] = float(np.dot(w[idx], xv[idx])) / tw
    return out


# ---------------------------------------------------------------------------
# band risk measure


def band_ratio_extreme(x, weights, gamma: float, *, minimize: bool = True) -> float:
    """Worst (or best) band-weighted average of ``x`` on one node: the extreme
    of sum(w*(1+L)*x)/sum(w*(1+L)) over 0 <= L <= gamma.

    Optimal L loads gamma on a value-threshold set of x, so scanning prefixes
    of the sorted order visits an optimal vertex.
    """
    DensityBand(gamma)
    x = np.asarray(x, dtype=float)
    w = np.asarray(weights, dtype=float)
    order = np.argsort(x) if minimize else np.argsort(-x)
    xs, ws = x[order], w[order]
    base_num, base_den = float(w @ x), float(w.sum())
    nums = base_num + gamma * np.concatenate([[0.0], np.cumsum(ws * xs)])
    dens = base_den + gamma * np.concatenate([[0.0], np.cumsum(ws)])
    vals = nums / dens
    return float(np.min(vals) if minimize else np.max(vals))


def rho_gamma(tree, cash_flow, t: int, gamma: float, *, start: Optional[int] = None) -> np.ndarray:
    """Risk of the cumulative flow from ``start`` (default: t) onward.

    Per node this is minus the minimum band-weighted conditional expectation.
    """
    x = tail_sum(as_values(cash_flow), t if start is None else start)
    p = tree.probabilities
    out = np.empty(tree.n_paths)
    for cell in tree.partitions[t]:
        idx = list(cell)
        out[idx] = -band_ratio_extreme(x[idx], p[idx], gamma)
    return out


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
            prog = homogeneous("min", p[idx] * x[idx], *with_bounds(np.full(len(idx), gamma)))
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
    prog = homogeneous(
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
    quotes = pricing._node_quotes(model, cash_flow, generators_for(model, t, entry))
    return pricing.PriceQuote(time=t, gamma=None, entries=tuple(e for e, _ in quotes))


def check_first_good_deal_prices(model, cash_flow, t, gamma):
    """``good_deal_prices`` as the no-good-deal check, then each node's band
    LP at ``gamma`` itself, handed, with one security, each extreme's bound
    candidate where its density lies in the band at ``gamma``, as
    ``good_deal_prices`` hands them."""
    check = pricing.ngd_check(model, t, gamma)
    nodes = model.tree.nodes(t)
    if not check.holds:
        entries = tuple(pricing.PriceEntry(node, np.inf, -np.inf, pricing.STATUS_NGD)
                        for node in nodes)
        return pricing.PriceQuote(time=t, gamma=gamma, entries=entries, witness=check.witness)
    rows, x = generators_for(model, t), pricing._discounted_tail(model, cash_flow, t)
    warm = [None] * len(nodes)
    if model.n_securities == 1:
        recursion = cone._Recursion(model, t, x)
        spreads = recursion.spreads()
        warm = [
            pricing._band_starts(pair, spreads[:, k], len(model.tree.node_paths(node)), gamma)
            for k, (node, pair) in enumerate(zip(nodes, recursion.candidates(rows)))
        ]
    entries = tuple(cold_band_quote(model, x, rows, node, gamma, start)
                    for node, start in zip(nodes, warm))
    return pricing.PriceQuote(time=t, gamma=gamma, entries=entries)


def cold_bound_quote(model, x, rows, node):
    """``node``'s no-arbitrage bounds of ``x`` from the simplex alone: the
    node's cone of ``rows`` and one ``lp.solve_ratio`` with no candidate,
    read by ``_entry`` (``cold_band_quote`` without the band)."""
    paths = list(model.tree.node_paths(node))
    a_ub = pricing._node_cone(rows, node.cell, paths)
    num, den = pricing._ratio_terms(model, x, node, a_ub.shape[1])
    return pricing._entry(node, *lp.solve_ratio(num, den, a_ub))


def cold_band_quote(model, x, rows, node, level, warm=None):
    """``node``'s quote of ``x`` at band ``level`` from a program built for
    it alone: the node's cone of ``rows``, ``_band_program``'s rows at the
    level, and one ``lp.solve_ratio``, handed ``warm`` (band candidates,
    see ``pricing._band_starts``) where given."""
    paths = list(model.tree.node_paths(node))
    cone_ = pricing._node_cone(rows, node.cell, paths)
    num, den = pricing._ratio_terms(model, x, node, cone_.shape[1])
    num, den, a_ub, _ = pricing._band_program(num, den, cone_, len(paths), level)
    return pricing._entry(node, *lp.solve_ratio(num, den, a_ub, warm))


# ---------------------------------------------------------------------------
# accounting


def wealth_process(model: MarketModel, phi: TradingStrategy) -> np.ndarray:
    """Date-by-date wealth of a predictable strategy (undiscounted)."""
    tree = model.tree
    phi.validate(tree)
    h = phi.holdings
    n, T = tree.n_paths, tree.horizon
    B, _ = model.discounts()
    V = np.zeros((n, T + 1))
    setup = h[1][0].copy()
    for j, sec in enumerate(model.securities):
        setup += _split(h[1][1 + j], sec.ask[:, 0], sec.bid[:, 0])
    V[:, 0] = setup
    for t in range(1, T + 1):
        v = h[t][0] * B[:, t]
        for j, sec in enumerate(model.securities):
            d_ask = sec.div_ask[:, t] - sec.div_ask[:, t - 1]
            d_bid = sec.div_bid[:, t] - sec.div_bid[:, t - 1]
            v += _split(h[t][1 + j], sec.bid[:, t] + d_ask, sec.ask[:, t] + d_bid)
        V[:, t] = v
    return V


@dataclass(frozen=True)
class SelfFinancingCheck:
    ok: bool
    time: Optional[int] = None
    path: Optional[int] = None
    residual: float = 0.0

    def __bool__(self):
        return self.ok


def is_self_financing(
    model: MarketModel, phi: TradingStrategy, *, tol: float = 1e-9
) -> SelfFinancingCheck:
    """Check the rebalance identity at every date 1..horizon-1.

    The first violating (date, path) and its residual are reported.
    """
    tree = model.tree
    phi.validate(tree)
    h = phi.holdings
    B, _ = model.discounts()
    for t in range(1, tree.horizon):
        lhs = B[:, t] * (h[t + 1][0] - h[t][0])
        rhs = np.zeros(tree.n_paths)
        for j, sec in enumerate(model.securities):
            d = h[t + 1][1 + j] - h[t][1 + j]
            lhs += _split(d, sec.ask[:, t], sec.bid[:, t])
            d_ask = sec.div_ask[:, t] - sec.div_ask[:, t - 1]
            d_bid = sec.div_bid[:, t] - sec.div_bid[:, t - 1]
            rhs += _split(h[t][1 + j], d_ask, d_bid)
        resid = lhs - rhs
        bad = np.abs(resid) > tol
        if np.any(bad):
            i = int(np.argmax(np.abs(resid)))
            return SelfFinancingCheck(False, time=t, path=i, residual=float(resid[i]))
    return SelfFinancingCheck(True)


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


def scanned_unmeasurable_cell(tree, values):
    """``(t, head, i)`` for the first cell, by date and then cell, whose
    values in column t of ``values`` spread (max > min), from every cell's
    max and min at every date: its first path and the first of its paths
    whose value differs from that one's; None when no cell spreads."""
    for t in range(values.shape[1]):
        idx, n_cells = tree.cell_index(t), len(tree.partitions[t])
        hi, lo = np.full(n_cells, -np.inf), np.full(n_cells, np.inf)
        np.maximum.at(hi, idx, values[:, t])
        np.minimum.at(lo, idx, values[:, t])
        over = np.flatnonzero(hi > lo)
        if over.size:
            head, *rest = tree.partitions[t][over[0]]
            return t, head, next(i for i in rest if values[i, t] != values[head, t])
    return None


# ---------------------------------------------------------------------------
# input checks one process and one date at a time


def two_path_message(tree, name, values, at):
    """``name is not measurable at t=..: a on path .., b on path ..`` for
    the ``(t, head, i)`` of :func:`scanned_unmeasurable_cell`."""
    t, head, i = at
    return (f"{name} is not measurable at t={t}: {values[head, t]} on path "
            f"{tree.paths[head]}, {values[i, t]} on path {tree.paths[i]}")


def reference_market_error(tree, rates, securities) -> Optional[str]:
    """The message of the first check a market of (n, T) ``rates`` and
    ``securities`` fails, or None, checking one process at a time: the
    rates' values, the security names, each security's four processes
    (shape, finite, every cell's spread scanned), the rates' measurability,
    then per security its dividends' start and Assumption A, path by path
    and each path's dates in order."""
    n, T = tree.n_paths, tree.horizon
    r = np.asarray(rates, dtype=float)
    if not np.all(np.isfinite(r) & (r >= 0)):
        return "rates must be finite and nonnegative"
    names = [sec.name for sec in securities]
    for sec in securities:
        if names.count(sec.name) > 1:
            return f"security name {sec.name!r} is used twice"
    for sec in securities:
        for name, arr in sec.processes():
            if arr.shape != (n, T + 1):
                return f"{name} has shape {arr.shape}, expected {(n, T + 1)}"
            if not np.all(np.isfinite(arr)):
                return f"{name} contains non-finite entries"
            bad = scanned_unmeasurable_cell(tree, arr)
            if bad is not None:
                return two_path_message(tree, name, arr, bad)
    bad = scanned_unmeasurable_cell(tree, r)
    if bad is not None:
        return two_path_message(tree, "rates", r, bad)
    for sec in securities:
        if np.any(sec.div_ask[:, 0] != 0) or np.any(sec.div_bid[:, 0] != 0):
            return f"{sec.name}: cumulative dividends must start at 0"
        for i in range(n):
            for t in range(T + 1):
                if sec.ask[i, t] - sec.bid[i, t] < 0:
                    return (f"Assumption A violated at path {tree.paths[i]}, t={t}: "
                            f"ask {sec.ask[i, t]} < bid {sec.bid[i, t]} for {sec.name}")
        for i in range(n):
            for t in range(1, T + 1):
                d_bid = sec.div_bid[i, t] - sec.div_bid[i, t - 1]
                d_ask = sec.div_ask[i, t] - sec.div_ask[i, t - 1]
                if d_bid - d_ask < -1e-15:
                    return (f"Assumption A violated at path {tree.paths[i]}, t={t}: "
                            f"ask dividend increment exceeds bid increment for {sec.name}")
    return None


def reference_tree_partitions(partitions, n: int):
    """The partitions of an n-path event tree checked one date at a time:
    ``(message, None)`` for the first partition check they fail, else
    ``(None, cells)`` with every date's cells sorted and ordered by head."""
    norm = []
    for t, part in enumerate(partitions):
        cells = [tuple(sorted(int(i) for i in cell)) for cell in part]
        if any(len(c) == 0 for c in cells):
            return f"empty cell in partition at t={t}", None
        if sorted(i for c in cells for i in c) != list(range(n)):
            return f"partition at t={t} does not cover the paths exactly once", None
        norm.append(tuple(sorted(cells, key=lambda c: c[0])))
    if len(norm[0]) != 1:
        return "partition at t=0 must be the single full cell", None
    for t in range(len(norm) - 1):
        for child in norm[t + 1]:
            if not any(set(child) <= set(cell) for cell in norm[t]):
                return f"partition at t={t + 1} does not refine partition at t={t}", None
    return None, norm
