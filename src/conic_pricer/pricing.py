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
unchanged.  So the quote LPs establish it themselves: when every node's band
LP is feasible, no good deal holds.  A node that its no-arbitrage cone cannot
charge (possible only in bounds under ``entry="mark"``, below) gets the
status ``infeasible``.  With the band, m is bounded away from zero on the
slice, so densities are strictly positive and no epsilon is needed.  Pure
no-arbitrage bounds range over the closure (u >= 0) of the equivalent
risk-neutral set, whose suprema/infima coincide with those over the open set
whenever an equivalent risk-neutral measure exists.  The bound LPs prove that node by node when the
sum of a node's two optima charges every path of the node (Jouini & Kallal,
JET 1995); only where they cannot does the arbitrage search run.

The no-good-deal check is the dual of the same per-node decomposition: by LP
duality a node's band cone misses its slice exactly when the node has a
hedge (a nonnegative combination of its cone rows) whose gain-loss ratio
beats the level.  A band LP that reads ``infeasible`` carries such a hedge
in its Farkas ray, as the ray's multipliers of the node's cone rows.

A hedge's gain-loss ratio is its expected gain over its expected loss, so a
node has a hedge beating gamma exactly when gamma L < 1, where L is the
node's least expected loss per unit of expected gain and 1/L its best ratio
(Cherny & Madan, RFS 2009).  L comes from one LP per node, free of the level
(:func:`conic_pricer.cone._node_least_loss`), and one tie rule reads every
level's status from it (:func:`_beats`): L is certified only to ``lp.TOL``,
so a level within that distance of 1/L reads as 1/L, which no hedge beats.
:func:`ngd_check` and :func:`liquidity_surface` both decide this way; the
check's witness is the first beaten node's best-ratio hedge.
:func:`good_deal_prices` reports the ray's hedge, and runs the check only
when that hedge fails its certificate or a band LP fails.  Either hedge's
weights are the witness, reported with the hedge's trading strategy.

Only :func:`noarb_bounds` takes ``entry="mark"``, which switches the
valuation-date legs of hedges initiated exactly at the pricing date to
liquidation-side prices (entry spread refunded).  That is a bounds
convention, not a trade: it reproduces published reference tables for
intermediate-date bounds (see the README), and its cone can charge no node
at all, even in a market free of arbitrage.  The good-deal, no-good-deal,
forward and surface programs always run over the transaction-priced cone,
so every witness is a hedge whose trading strategy delivers its cash flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import lp
from .acceptability import DensityBand, dglr_eval
from .cone import NodeRows, _arbitrage, _node_least_loss, generators_for, hedge_strategy
from .errors import ComputationError, ValidationError
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
    ``(lo, hi)`` solutions, which the next quote of a cone of the same shape
    can restart from.  A node the cone cannot charge gets
    ``STATUS_INFEASIBLE``; both its solutions are then the one Farkas ray,
    which has no basis to restart from.

    The min and max are separate certified optima, each off by its own
    rounding, so where they agree the min can come out above the max.  A
    crossing of at most ``lp.TOL`` * max(1, |bid|, |ask|) is reported as
    their midpoint on both sides; a wider one cannot come from two certified
    optima and raises :class:`ComputationError`."""
    p = model.probabilities
    paths = list(model.tree.node_paths(node))
    num, den = np.zeros(a_ub.shape[1]), np.zeros(a_ub.shape[1])
    num[: len(paths)] = p[paths] * x[paths]
    den[: len(paths)] = p[paths]
    lo, hi = lp.solve_ratio(num, den, a_ub, warm=warm)
    if hi.status == "infeasible":
        return PriceEntry(node, np.nan, np.nan, STATUS_INFEASIBLE), (lo, hi)
    bid, ask = lo.value, hi.value
    if bid > ask:
        if bid - ask > lp.TOL * max(1.0, abs(bid), abs(ask)):
            raise ComputationError(
                f"node {node.time}:{node.cell} bid {bid!r} exceeds ask {ask!r} "
                f"by more than the tolerance {lp.TOL:.0e}"
            )
        bid = ask = 0.5 * (bid + ask)
    return PriceEntry(node, bid, ask, STATUS_OK), (lo, hi)


def _node_quotes(model: MarketModel, cash_flow, rows: NodeRows, gamma: Optional[float]):
    """:func:`_node_quote` of each date-t node over its own cone, with the
    band at ``gamma`` unless that is None, in node order; a node is priced
    only when the caller asks for it."""
    x = _discounted_tail(model, cash_flow, rows.start)
    for node in model.tree.nodes(rows.start):
        paths = list(model.tree.node_paths(node))
        a_ub = _node_cone(rows, node.cell, paths)
        if gamma is not None:
            a_ub = _with_band(a_ub, len(paths), gamma)
        yield _node_quote(model, x, a_ub, node)


def _charges_every_path(model: MarketModel, e: PriceEntry, solutions) -> bool:
    """Whether a node's bound pair proves that its cone holds an equivalent
    density: the sum of the two optima, itself a point of the cone, puts
    more than ``lp.TOL`` times its largest density on each of the node's
    paths.  Such a density prices every hedge of the node at most zero and
    charges every path, so by Farkas the node has no arbitrage."""
    if e.status != STATUS_OK:
        return False
    lo, hi = solutions
    u = (lo.x + hi.x)[: len(model.tree.node_paths(e.node))]
    return bool(u.min() > lp.TOL * u.max())


def _arbitrage_quote(model: MarketModel, rows: NodeRows, entry: str) -> Optional[PriceQuote]:
    """The all-``arbitrage`` quote of date ``rows.start`` when its trade rows
    (``rows`` themselves under ``entry="trade"``) hold an arbitrage, else
    None."""
    trade = rows if entry == "trade" else generators_for(model, rows.start)
    if _arbitrage(model, trade) is None:
        return None
    entries = tuple(
        PriceEntry(node, np.nan, np.nan, STATUS_ARBITRAGE) for node in model.tree.nodes(rows.start)
    )
    return PriceQuote(time=rows.start, gamma=None, entries=entries)


def noarb_bounds(model: MarketModel, cash_flow, t: int, *, entry: str = "trade") -> PriceQuote:
    """Lower/upper bounds of the conditional discounted tail over the closure
    of the risk-neutral density polytope, per date-t node.

    The bound LPs run first.  When every node's pair proves an equivalent
    density of its cone (see :func:`_charges_every_path`), the market is free
    of arbitrage at date t and the bounds are returned as they are; the
    ``mark`` cone lies inside the ``trade`` cone, so its proof clears the
    trade rows too.  Otherwise the arbitrage search runs over the trade rows
    (arbitrage <=> some date-t node has least loss per unit of gain
    L <= ``lp.TOL``), and an arbitrage makes every status ``STATUS_ARBITRAGE``.

    A node that no density of the cone charges (possible under
    ``entry="mark"``) gets ``STATUS_INFEASIBLE`` and NaN bounds.  A bound LP
    that fails raises :class:`ComputationError` once the arbitrage search has
    cleared the market: the failure is the solver's, not an arbitrage.
    """
    rows = generators_for(model, t, entry)
    try:
        quotes = list(_node_quotes(model, cash_flow, rows, None))
    except ComputationError:
        if (found := _arbitrage_quote(model, rows, entry)) is not None:
            return found
        raise
    if not all(_charges_every_path(model, e, sols) for e, sols in quotes):
        if (found := _arbitrage_quote(model, rows, entry)) is not None:
            return found
    return PriceQuote(time=t, gamma=None, entries=tuple(e for e, _ in quotes))


def good_deal_certificate(
    model: MarketModel, rows: NodeRows, weights, gamma: float
) -> Optional[GoodDealWitness]:
    """The hedge behind nonnegative ``weights`` on ``rows``, if it beats
    ``gamma``.

    The weights combine into a hedge per date-t node, scaled to a largest row
    weight of one there: the flow a_u^T w / p on the node's paths.  The node
    whose hedge has the best gain-loss ratio is kept when its gain exceeds
    1e-9 * max(1, largest row value on the node), so that rows worth zero up
    to rounding are no witness, gamma times its loss is below its gain (ties
    are for :func:`_beats`), and :func:`conic_pricer.acceptability.dglr_eval`
    confirms that the ratio beats ``gamma``.  The witness carries the node,
    the hedge's trading strategy, its per-path discounted total and the ratio.
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
        if gain > 1e-9 * size and gamma * loss < gain and (best is None or ratio > best[1]):
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


def _least_loss(model: MarketModel, rows: NodeRows) -> np.ndarray:
    """:func:`_node_least_loss`'s L of each date-t node, in node order."""
    nodes = model.tree.nodes(rows.start)
    return np.array([_node_least_loss(model, rows, node)[0] for node in nodes])


def _beats(gamma: float, loss: float) -> bool:
    """Whether a node of least loss per unit of gain ``loss`` has a hedge
    beating ``gamma``: gamma L < 1 - ``lp.TOL``.  L is certified only to
    ``lp.TOL``, so a level within that distance of the node's best ratio 1/L
    reads as 1/L itself, which no hedge beats."""
    return gamma * loss < 1.0 - lp.TOL


def _ray_weights(rows: NodeRows, node: NodeRef, ray: lp.LPSolution) -> np.ndarray:
    """Weights on ``rows`` from the Farkas ray of ``node``'s band LP: its
    multipliers of the node's cone rows, which come first there."""
    pick = rows.owner == node.cell
    weights = np.zeros(len(rows))
    weights[pick] = ray.dual_ub[: np.count_nonzero(pick)]
    return weights


def _ngd(model: MarketModel, gamma: float, rows: NodeRows) -> NgdResult:
    """The no-good-deal check: violated at the first date-t node whose least
    loss per unit of gain :func:`_beats` ``gamma``, with that node's
    best-ratio hedge as the witness.  A hedge that its certificate rejects
    raises :class:`ComputationError`: a violation is never reported without
    a witness."""
    DensityBand(gamma)
    t = rows.start
    for node in model.tree.nodes(t):
        loss, weights = _node_least_loss(model, rows, node)
        if not _beats(gamma, loss):
            continue
        witness = good_deal_certificate(model, rows, weights, gamma)
        if witness is None:
            raise ComputationError(
                f"no-good-deal hedge at gamma={gamma:g}, t={t} fails its certificate: "
                "no witness beats the level"
            )
        return NgdResult(holds=False, gamma=gamma, time=t, witness=witness)
    return NgdResult(holds=True, gamma=gamma, time=t)


def ngd_check(model: MarketModel, t: int, gamma: float) -> NgdResult:
    """Whether a density satisfies every cone row, the band and the
    normalization (band feasibility forces strict positivity).

    That fails exactly when some date-t node has a hedge whose gain-loss
    ratio beats gamma, i.e. when gamma L < 1 for the node's least loss per
    unit of gain L.  The check solves L node by node and stops at the first
    node where gamma L < 1 - ``lp.TOL``: a level within ``lp.TOL`` of the
    ceiling 1/L reads as the ceiling, which holds.  That node's best-ratio
    hedge is the witness; one that fails its certificate raises
    :class:`ComputationError` instead of a violation without a witness.
    """
    return _ngd(model, gamma, generators_for(model, t))


def good_deal_prices(model: MarketModel, cash_flow, t: int, gamma: float) -> PriceQuote:
    """Bid/ask of the discounted tail over band-restricted risk-neutral
    densities; sentinel +inf/-inf quotes when no such density exists.

    The band LPs run first, node by node.  When every node's band cone
    reaches its slice, no good deal holds (see the module docstring) and the
    quotes are returned.  At the first node whose band LP reads a certified
    ``infeasible``, the cone-row weights of its Farkas ray are a hedge that
    beats ``gamma``: :func:`good_deal_certificate` turns them into the
    witness of the violation.  Only when that certificate misses, or a band
    LP raises :class:`ComputationError`, does the no-good-deal check of
    :func:`ngd_check` decide, with its own witness; a band LP failure in a
    market where the check holds is raised.
    """
    rows = generators_for(model, t)
    DensityBand(gamma)
    quotes, entries, check = _node_quotes(model, cash_flow, rows, gamma), [], None
    while check is None or check.holds:
        try:
            e, (_, hi) = next(quotes)
        except StopIteration:
            return PriceQuote(time=t, gamma=gamma, entries=tuple(entries))
        except ComputationError:
            if check is not None or (check := _ngd(model, gamma, rows)).holds:
                raise
            break
        if e.status == STATUS_INFEASIBLE and check is None:
            witness = good_deal_certificate(model, rows, _ray_weights(rows, e.node, hi), gamma)
            check = _ngd(model, gamma, rows) if witness is None else NgdResult(
                holds=False, gamma=gamma, time=t, witness=witness
            )
        entries.append(e)
    entries = tuple(PriceEntry(node, np.inf, -np.inf, STATUS_NGD) for node in model.tree.nodes(t))
    return PriceQuote(time=t, gamma=gamma, entries=entries, witness=check.witness)


def forward_prices(model: MarketModel, cash_flow, t: int, gamma: float) -> PriceQuote:
    """Forward (pay-at-horizon) quotes: the spot quote scaled by the terminal
    savings account, which requires a deterministic rate process."""
    r = model.rates
    if np.any(np.abs(r - r[0:1, :]) > 1e-12):
        raise ValidationError("forward prices require deterministic rates")
    B, _ = model.discounts()
    scale = float(B[0, model.tree.horizon])
    spot = good_deal_prices(model, cash_flow, t, gamma)
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
) -> list[SurfaceCell]:
    """Good-deal bid/ask/spread on a (gamma, lambda) grid, in the order of
    ``lambdas`` and, within each, of ``gammas``.

    The model, the payoff and the cone rows are built once per
    transaction-cost coefficient, then each level is repriced at the
    requested date-t node.  The no-good-deal status of every level of such a
    row comes from the check's own LP, solved once per row: each date-t
    node's least loss per unit of gain L (see :func:`_least_loss`).  A level
    gamma is violated exactly when gamma L < 1 - ``lp.TOL`` at some node, the
    tie rule of :func:`ngd_check`, so a level within ``lp.TOL`` of a node's
    best gain-loss ratio 1/L reads as 1/L and is priced.  No level runs the
    check itself, and violated cells carry no witness.

    The threshold covers every date-t node, but only the requested node is
    quoted: the per-node programs are independent.  Its cone is built once
    per row without the band, and each level appends its band.  The levels
    are priced in ascending order.  The first priced level of a row is solved
    from phase 1, exactly as :func:`good_deal_prices` solves it; each later
    one starts the node's min and max LPs from the previous priced level's
    answers (see :func:`conic_pricer.lp.solve_ratio`).  An extreme whose
    previous optimum still certifies at the wider band, because the band
    does not bind it, is carried without a solve; any other restarts from
    the previous optimal basis, which a wider band leaves optimal or a few
    dual simplex pivots away.  The quotes agree with a cold solve to
    rounding, not bit for bit.
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
        rows = generators_for(model, t)
        at = model.tree.nodes(t)[node]
        x = _discounted_tail(model, payoff, t)
        paths = list(model.tree.node_paths(at))
        cone = _node_cone(rows, node, paths)
        loss = float(np.min(_least_loss(model, rows)))
        warm = None
        row = [None] * len(gammas)
        for i in ascending:
            gamma = gammas[i]
            if not _beats(gamma, loss):
                e, warm = _node_quote(model, x, _with_band(cone, len(paths), gamma), at, warm)
            else:
                e = PriceEntry(at, np.inf, -np.inf, STATUS_NGD)
            spread = e.ask - e.bid if e.status == STATUS_OK else np.nan
            row[i] = SurfaceCell(gamma, lam, e.bid, e.ask, spread, e.status)
        cells.extend(row)
    return cells
