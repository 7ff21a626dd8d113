"""Measure-polytope pricing programs.

All prices are conditional expectations of the discounted remaining payments
of a contract, optimized over measures expressed through their densities u
against the reference probabilities:

* the hedging-cone rows of :func:`conic_pricer.cone.generators_for`, over u
  and the nonnegative Snell-envelope excesses, for every node from the
  valuation date on - these carve out the risk-neutral densities;
* optional band rows m <= u <= (1 + gamma) m - these restrict to the
  acceptability density band.

Every row belongs to the subtree of one date-t node and is homogeneous, so
each node is priced over its own cone alone: its rows over its own paths,
envelope excesses and, with the band, its own scalar m.  The node's
conditional expectation sum_node p u x / sum_node p u does not change when u
is scaled, so its extremes are those of one plain LP on the slice where the
node's mass is one.  This is exact: a density of the whole tree restricts to
a point of each node's cone, and once every node's cone reaches its slice,
rescaling each node's point to a common m (to any common scale without the
band) glues them into one density of the whole tree with every node's ratio
unchanged.  The no-good-deal check establishes that before any good-deal
quote; a node that its no-arbitrage cone cannot charge (possible under
``entry="mark"``) gets the status ``infeasible``.  With the band, m is
bounded away from zero on the slice, so densities are strictly positive and
no epsilon is needed.  Pure no-arbitrage bounds range over the closure
(u >= 0) of the equivalent risk-neutral set, whose suprema/infima coincide
with those over the open set whenever an equivalent risk-neutral measure
exists - which is pre-checked by the arbitrage search.

The no-good-deal check is the dual of the same per-node decomposition: by LP
duality a node's band cone misses its slice exactly when the node has a
hedge (a nonnegative combination of its cone rows) whose gain-loss ratio
beats the level.  The check looks for that hedge with one small LP per node;
its weights are the witness, reported with the hedge's trading strategy.

Across levels the check has one threshold per node.  A hedge's gain-loss
ratio is its expected gain over its expected loss, so a node has a hedge
beating gamma exactly when gamma L < 1, where L is the node's least expected
loss per unit of expected gain and 1/L its best ratio (Cherny & Madan, RFS
2009).  The liquidity surface finds L by one LP per node and lambda row, free
of the level, and reads every level's status from it, a level at exactly 1/L
included.  Single-level quotes keep the check, whose least-weight hedge is
the witness they report.

``entry="mark"`` switches the valuation-date legs of hedges initiated exactly
at the pricing date to liquidation-side prices (entry spread refunded).  This
is not the transaction-priced cone (the default) but reproduces published
reference tables for intermediate-date bounds; see the README.  Its cone can
charge no node at all, even in a market free of arbitrage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import lp
from .acceptability import DensityBand, dglr_eval
from .cone import NodeRows, _arbitrage, _node_hedges, generators_for, hedge_strategy
from .errors import ValidationError
from .lattice import NodeRef, as_values, tail_sum
from .market import CashFlow, MarketModel, TradingStrategy

__all__ = [
    "STATUS_OK",
    "STATUS_NGD",
    "STATUS_ARBITRAGE",
    "STATUS_INFEASIBLE",
    "PriceEntry",
    "PriceQuote",
    "NgdResult",
    "GoodDealWitness",
    "SurfaceCell",
    "noarb_bounds",
    "ngd_check",
    "good_deal_certificate",
    "good_deal_prices",
    "forward_prices",
    "liquidity_surface",
]

STATUS_OK = "ok"
STATUS_NGD = "ngd-violated"
STATUS_ARBITRAGE = "arbitrage"
STATUS_INFEASIBLE = "infeasible"

@dataclass(frozen=True)
class PriceEntry:
    node: NodeRef
    bid: float
    ask: float
    status: str


@dataclass(frozen=True)
class PriceQuote:
    """Per-node bid/ask values at one date.

    For pure no-arbitrage bounds (``gamma`` is None) the bid field holds the
    lower and the ask field the upper bound.  A violated no-good-deal
    condition is flagged with bid = +inf / ask = -inf sentinels.
    """

    time: int
    gamma: Optional[float]
    entries: tuple[PriceEntry, ...]
    witness: Optional["GoodDealWitness"] = None

    def entry(self, cell: int = 0) -> PriceEntry:
        return self.entries[cell]

    def status(self) -> str:
        bad = [e.status for e in self.entries if e.status != STATUS_OK]
        return bad[0] if bad else STATUS_OK


@dataclass(frozen=True)
class GoodDealWitness:
    node: NodeRef
    strategy: TradingStrategy
    cash_flow: np.ndarray  # per-path discounted total, zero off the node
    dglr: float


@dataclass(frozen=True)
class NgdResult:
    holds: bool
    gamma: float
    time: int
    witness: Optional[GoodDealWitness] = None

    def __bool__(self):
        return self.holds


def _node_cone(rows: NodeRows, cell: int, paths: list):
    """The no-arbitrage cone of date-t node ``cell`` on ``paths``: its rows of
    ``rows`` over its own columns, u of its paths and then its envelope
    excesses."""
    pick = rows.owner == cell
    return np.hstack([rows.a_u[np.ix_(pick, paths)], rows.a_v[np.ix_(pick, rows.col_owner == cell)]])


def _with_band(a: np.ndarray, n: int, gamma: float):
    """The node cone ``a`` (u of its n paths first) cut down by the band
    m <= u <= (1 + gamma) m over the node's own scalar m as a last column."""
    eye, pad = np.eye(n), np.zeros((n, a.shape[1] - n))
    return np.vstack([
        np.hstack([a, np.zeros((len(a), 1))]),
        np.hstack([-eye, pad, np.ones((n, 1))]),
        np.hstack([eye, pad, np.full((n, 1), -(1.0 + gamma))]),
    ])


def _discounted_tail(model: MarketModel, cash_flow, t: int) -> np.ndarray:
    """Per-path discounted payments after date t."""
    _, Binv = model.discounts()
    return tail_sum(as_values(cash_flow) * Binv, t + 1)


def _node_quote(model: MarketModel, x, a_ub, node: NodeRef, warm=None):
    """Min and max of the node's conditional mean of ``x`` over the cone
    ``a_ub`` (u of the node's paths first) as a :class:`PriceEntry`, with the
    ``(lo, hi)`` solutions to restart the next quote of a cone of the same
    shape from (None when the cone cannot charge the node, which gets
    ``STATUS_INFEASIBLE``)."""
    p = model.probabilities
    paths = list(model.tree.node_paths(node))
    num, den = np.zeros(a_ub.shape[1]), np.zeros(a_ub.shape[1])
    num[: len(paths)] = p[paths] * x[paths]
    den[: len(paths)] = p[paths]
    lo, hi = lp.solve_ratio(num, den, a_ub, warm=warm)
    if hi.status == "infeasible":
        return PriceEntry(node, np.nan, np.nan, STATUS_INFEASIBLE), None
    return PriceEntry(node, lo.value, hi.value, STATUS_OK), (lo, hi)


def _node_quotes(
    model: MarketModel, cash_flow, rows: NodeRows, gamma: Optional[float]
) -> tuple[PriceEntry, ...]:
    """:func:`_node_quote` of each date-t node over its own cone, with the
    band at ``gamma`` unless that is None."""
    x = _discounted_tail(model, cash_flow, rows.start)
    entries = []
    for node in model.tree.nodes(rows.start):
        paths = list(model.tree.node_paths(node))
        a_ub = _node_cone(rows, node.cell, paths)
        if gamma is not None:
            a_ub = _with_band(a_ub, len(paths), gamma)
        entries.append(_node_quote(model, x, a_ub, node)[0])
    return tuple(entries)


def noarb_bounds(model: MarketModel, cash_flow, t: int, *, entry: str = "trade") -> PriceQuote:
    """Lower/upper bounds of the conditional discounted tail over the closure
    of the risk-neutral density polytope, per date-t node.

    A node that no density of the cone charges (possible under
    ``entry="mark"``) gets ``STATUS_INFEASIBLE`` and NaN bounds.  A node whose
    bound LP fails raises :class:`ComputationError`: the arbitrage search has
    already cleared the market, so the failure is the solver's, not an
    arbitrage.
    """
    rows = generators_for(model, t)
    if _arbitrage(model, rows) is not None:
        entries = tuple(
            PriceEntry(node, np.nan, np.nan, STATUS_ARBITRAGE)
            for node in model.tree.nodes(t)
        )
        return PriceQuote(time=t, gamma=None, entries=entries)
    if entry != "trade":
        rows = generators_for(model, t, entry)
    return PriceQuote(time=t, gamma=None, entries=_node_quotes(model, cash_flow, rows, None))


def good_deal_certificate(
    model: MarketModel, rows: NodeRows, weights, gamma: float
) -> Optional[GoodDealWitness]:
    """The hedge behind nonnegative ``weights`` on ``rows``, if it beats
    ``gamma``.

    The weights combine into a hedge per date-t node, scaled to a largest row
    weight of one there: the flow a_u^T w / p on the node's paths.  The node
    whose hedge has the best gain-loss ratio is kept when its gain exceeds
    gamma times its loss by more than 1e-9 * max(1, largest row value on the
    node), so that a combination of rows worth zero up to rounding is no
    witness, and :func:`conic_pricer.acceptability.dglr_eval` confirms that
    the ratio beats ``gamma``.  The witness carries the node, the hedge's
    trading strategy, its per-path discounted total and the ratio.
    """
    tree, t = model.tree, rows.start
    p = model.probabilities
    w = np.maximum(np.asarray(weights, dtype=float), 0.0)
    best = None
    for node in tree.nodes(t):
        owned = rows.owner == node.cell
        if not np.any(w[owned] > 0):
            continue
        idx = list(tree.node_paths(node))
        scaled = np.where(owned, w / np.max(w[owned]), 0.0)
        flow = scaled @ rows.a_u[:, idx] / p[idx]
        gain, loss = p[idx] @ flow, p[idx] @ np.maximum(-flow, 0.0)
        size = max(1.0, float(np.max(np.abs(rows.a_u[owned][:, idx] / p[idx]))))
        ratio = gain / loss if loss > 0 else np.inf
        if gain - gamma * loss > 1e-9 * size and (best is None or ratio > best[1]):
            best = (node, ratio, scaled, idx, flow)
    if best is None:
        return None
    node, _, scaled, idx, flow = best
    paid = np.zeros((tree.n_paths, tree.horizon + 1))
    paid[idx, -1] = flow
    ratio = float(dglr_eval(tree, paid, t)[idx[0]])
    if not ratio > gamma:
        return None
    return GoodDealWitness(node, hedge_strategy(model, rows, scaled), paid[:, -1], ratio)


def _hedge_loss_rows(G: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Rows a_ub <= 0 over a node's hedge weights w and the loss bound z of
    its paths: z >= -G^T w, and H^T w >= 0 (the hedge carries on no more
    than it holds)."""
    m = G.shape[1]
    return np.vstack([
        np.hstack([-G.T, -np.eye(m)]),
        np.hstack([-H.T, np.zeros((H.shape[1], m))]),
    ])


def _good_deal_weights(model: MarketModel, rows: NodeRows, gamma: float):
    """Weights on ``rows`` of a hedge beating ``gamma`` at the first date-t
    node that has one, or None: per node, the least total weight y >= 0 whose
    flow X = G^T y carries on no more than it holds and has
    E[X] - gamma E[z] >= 1 for a loss bound z >= max(-X, 0)."""
    p = model.probabilities
    for node in model.tree.nodes(rows.start):
        pick, paths, G, H = _node_hedges(model, rows, node)
        if not pick.size:
            continue
        q = p[paths]
        k, m = len(pick), len(paths)
        a_ub = np.vstack([_hedge_loss_rows(G, H), np.concatenate([-(G @ q), gamma * q])])
        b_ub = np.concatenate([np.zeros(m + H.shape[1]), [-1.0]])
        prog = lp.LinearProgram.build(
            "min", np.concatenate([np.ones(k), np.zeros(m)]), a_ub=a_ub, b_ub=b_ub
        )
        sol = lp.solve(prog)
        if sol.status == "optimal":
            weights = np.zeros(len(rows))
            weights[pick] = sol.x[:k]
            return weights
    return None


def _least_loss(model: MarketModel, rows: NodeRows) -> np.ndarray:
    """Per date-t node, the least expected loss L of a hedge on ``rows`` per
    unit of its expected gain: the minimum of E[z] over weights w >= 0 and a
    loss bound z >= max(-X, 0) of the flow X = G^T w, with E[X] = 1 and the
    hedge carrying on no more than it holds.

    The node's best gain-loss ratio is 1/L, so a hedge there beats gamma
    exactly when gamma L < 1.  L is +inf when no hedge gains (the LP is
    infeasible) or the node has no rows, and 0 for a lossless hedge (a
    rounding residue below 0 reads 0).  The objective is bounded below by 0,
    so the LP is never unbounded.
    """
    p = model.probabilities
    losses = []
    for node in model.tree.nodes(rows.start):
        pick, paths, G, H = _node_hedges(model, rows, node)
        if not pick.size:
            losses.append(np.inf)
            continue
        q = p[paths]
        a_ub = _hedge_loss_rows(G, H)
        prog = lp.LinearProgram.build(
            "min", np.concatenate([np.zeros(len(pick)), q]), a_ub=a_ub,
            b_ub=np.zeros(len(a_ub)), a_eq=[np.concatenate([G @ q, np.zeros(len(q))])],
            b_eq=[1.0],
        )
        sol = lp.solve(prog)
        losses.append(max(sol.value, 0.0) if sol.status == "optimal" else np.inf)
    return np.array(losses)


def _ngd(model: MarketModel, gamma: float, rows: NodeRows) -> NgdResult:
    """The no-good-deal check: violated when some date-t node has a hedge
    beating ``gamma``, with that hedge as the witness."""
    DensityBand(gamma)
    t = rows.start
    weights = _good_deal_weights(model, rows, gamma)
    if weights is None:
        return NgdResult(holds=True, gamma=gamma, time=t)
    witness = good_deal_certificate(model, rows, weights, gamma)
    return NgdResult(holds=False, gamma=gamma, time=t, witness=witness)


def ngd_check(model: MarketModel, t: int, gamma: float, *, entry: str = "trade") -> NgdResult:
    """Whether a density satisfies every cone row, the band and the
    normalization (band feasibility forces strict positivity).

    That fails exactly when some date-t node has a hedge whose gain-loss
    ratio beats gamma; the check looks for one node by node, and the hedge it
    finds is the witness.
    """
    return _ngd(model, gamma, generators_for(model, t, entry))


def good_deal_prices(
    model: MarketModel, cash_flow, t: int, gamma: float, *, entry: str = "trade"
) -> PriceQuote:
    """Bid/ask of the discounted tail over band-restricted risk-neutral
    densities; sentinel +inf/-inf quotes when no such density exists."""
    rows = generators_for(model, t, entry)
    check = _ngd(model, gamma, rows)
    if not check.holds:
        entries = tuple(
            PriceEntry(node, np.inf, -np.inf, STATUS_NGD) for node in model.tree.nodes(t)
        )
        return PriceQuote(time=t, gamma=gamma, entries=entries, witness=check.witness)
    return PriceQuote(time=t, gamma=gamma, entries=_node_quotes(model, cash_flow, rows, gamma))


def forward_prices(
    model: MarketModel, cash_flow, t: int, gamma: float, *, entry: str = "trade"
) -> PriceQuote:
    """Forward (pay-at-horizon) quotes: the spot quote scaled by the terminal
    savings account, which requires a deterministic rate process."""
    r = model.rates
    if np.any(np.abs(r - r[0:1, :]) > 1e-12):
        raise ValidationError("forward prices require deterministic rates")
    B, _ = model.discounts()
    scale = float(B[0, model.tree.horizon])
    spot = good_deal_prices(model, cash_flow, t, gamma, entry=entry)
    entries = tuple(
        PriceEntry(e.node, scale * e.bid, scale * e.ask, e.status)
        for e in spot.entries
    )
    return PriceQuote(time=t, gamma=gamma, entries=entries, witness=spot.witness)


@dataclass(frozen=True)
class SurfaceCell:
    gamma: float
    lam: float
    bid: float
    ask: float
    spread: float
    status: str


def liquidity_surface(
    model_builder: Callable[[float], MarketModel],
    payoff_builder: Callable[[MarketModel], CashFlow],
    gammas: Sequence[float],
    lambdas: Sequence[float],
    t: int = 0,
    *,
    node: int = 0,
    entry: str = "trade",
) -> list[SurfaceCell]:
    """Good-deal bid/ask/spread on a (gamma, lambda) grid, in the order of
    ``lambdas`` and, within each, of ``gammas``.

    The model, the payoff and the cone rows are built once per
    transaction-cost coefficient, then each level is repriced at the
    requested date-t node.  The no-good-deal status of every level of such a
    row comes from one threshold: each date-t node's least loss per unit of
    gain L (see :func:`_least_loss`), one LP per node and row.  A level gamma
    is violated exactly when gamma L < 1 at some node, i.e. when the node's
    best gain-loss ratio 1/L beats it; a level at exactly 1/L is not beaten
    and is priced.  No level runs the check itself, and violated cells carry
    no witness.

    The threshold covers every date-t node, but only the requested node is
    quoted: the per-node programs are independent.  Its cone is built once
    per row without the band, and each level appends its band.  The levels
    are priced in ascending order.  The first priced level of a row is solved
    from phase 1, exactly as :func:`good_deal_prices` solves it; each later
    one restarts the node's min and max LPs from the previous priced level's
    optimal bases (see :func:`conic_pricer.lp.solve_ratio`).  A wider band
    leaves those bases optimal or a few dual simplex pivots away; the quotes
    agree with a cold solve to rounding, not bit for bit.
    """
    if not gammas or not lambdas:
        raise ValidationError("surface needs nonempty gamma and lambda lists")
    for gamma in gammas:
        DensityBand(gamma)
    ascending = sorted(range(len(gammas)), key=gammas.__getitem__)
    cells = []
    for lam in lambdas:
        model = model_builder(lam)
        payoff = payoff_builder(model)
        if not 0 <= t < model.tree.horizon:
            raise ValidationError(f"start date {t} outside 0..{model.tree.horizon - 1}")
        count = len(model.tree.nodes(t))
        if not 0 <= node < count:
            raise ValidationError(f"node {node} outside 0..{count - 1} at t={t}")
        rows = generators_for(model, t, entry)
        at = model.tree.nodes(t)[node]
        x = _discounted_tail(model, payoff, t)
        paths = list(model.tree.node_paths(at))
        cone = _node_cone(rows, node, paths)
        loss = float(np.min(_least_loss(model, rows)))
        warm = None
        row = [None] * len(gammas)
        for i in ascending:
            gamma = gammas[i]
            if gamma * loss >= 1.0:
                e, warm = _node_quote(model, x, _with_band(cone, len(paths), gamma), at, warm)
            else:
                e = PriceEntry(at, np.inf, -np.inf, STATUS_NGD)
            spread = e.ask - e.bid if e.status == STATUS_OK else np.nan
            row[i] = SurfaceCell(gamma, lam, e.bid, e.ask, spread, e.status)
        cells.extend(row)
    return cells
