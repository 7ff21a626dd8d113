"""Measure-polytope pricing programs.

All prices are conditional expectations of the discounted remaining payments
of a contract, optimized over a polytope of measures expressed through their
densities u against the reference probabilities:

* generator rows: sum_paths u * p * G <= 0 for every hedging-cone generator G
  rooted at the valuation date or later - these carve out the risk-neutral
  densities;
* optional band rows m <= u <= (1 + gamma) m plus the global normalization
  sum u * p = 1 - these restrict to the acceptability density band.

One builder assembles these rows for every program below, and one loop takes
each node's minimum and maximum over them.

Conditional objectives are linear-fractional and are solved through the
Charnes-Cooper transform with the node normalization sum_node u * p = 1; with
the band present the free scalar m is automatically bounded away from zero,
so feasible densities are strictly positive and no epsilon is needed.  Pure
no-arbitrage bounds drop the band and range over the closure (u >= 0) of the
equivalent risk-neutral set, whose suprema/infima coincide with those over
the open set whenever an equivalent risk-neutral measure exists - which is
pre-checked by the arbitrage search.

``entry="mark"`` switches the valuation-date legs of hedges initiated exactly
at the pricing date to liquidation-side prices (entry spread refunded).  This
is not the transaction-priced cone (the default) but reproduces published
reference tables for intermediate-date bounds; see the README.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import lp
from .acceptability import DensityBand
from .cone import (
    ConeGenerator,
    GeneratorSet,
    _enumeration,
    arbitrage_check,
    generators_for,
)
from .errors import ValidationError
from .lattice import NodeRef, as_values, tail_sum
from .market import CashFlow, MarketModel

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

# Frictionless markets make long/short generator rows exact mirror pairs, so
# the measure polytope is an affine slice whose float representation can be
# inconsistent by an ulp.  Each generator row therefore gets this much slack
# (scaled by the row's magnitude); it moves prices by far less than any
# documented tolerance.
GEN_ROW_SLACK = 1e-12


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
    generator: ConeGenerator
    cash_flow: np.ndarray
    dglr: float


@dataclass(frozen=True)
class NgdResult:
    holds: bool
    gamma: float
    time: int
    witness: Optional[GoodDealWitness] = None

    def __bool__(self):
        return self.holds


def _polytope(
    model: MarketModel,
    t: int,
    entry: str,
    gens: GeneratorSet,
    gamma: Optional[float] = None,
) -> dict:
    """The density polytope as ``a_ub``/``b_ub``/``a_eq``/``b_eq`` keywords of
    ``lp.solve_ratio`` and ``lp.LinearProgram.build``.

    Rows, in order: p * G <= slack for every round trip of ``gens`` (rooted at
    dates >= t); with ``gamma``, the band rows m <= u <= (1 + gamma) m over the
    extra variable m; then the normalization sum u * p = 1.
    """
    p = model.probabilities
    B, _ = model.discounts()
    rows = gens.matrix()
    if entry == "mark" and t >= 1:
        for k, g in enumerate(gens.generators):
            if g.root.time == t:
                sec = model.securities[g.security]
                idx = list(model.tree.node_paths(g.root))
                rows[k, idx] += (sec.ask[idx, t] - sec.bid[idx, t]) / B[idx, t]
    rows = rows * p
    rhs = GEN_ROW_SLACK * np.maximum(np.max(np.abs(rows), axis=1), 1.0)
    a_eq = p[None, :]
    if gamma is not None:
        DensityBand(gamma)
        n = len(p)
        band = np.zeros((2 * n, n + 1))
        for i in range(n):
            band[i, i] = -1.0
            band[i, n] = 1.0
            band[n + i, i] = 1.0
            band[n + i, n] = -(1.0 + gamma)
        rows = np.vstack([np.hstack([rows, np.zeros((rows.shape[0], 1))]), band])
        rhs = np.concatenate([rhs, np.zeros(2 * n)])
        a_eq = np.hstack([a_eq, np.zeros((1, 1))])
    return {"a_ub": rows, "b_ub": rhs, "a_eq": a_eq, "b_eq": np.ones(1)}


def _node_quotes(
    model: MarketModel, cash_flow, t: int, polytope: dict, tol: float
) -> tuple[PriceEntry, ...]:
    """Min and max of each date-t node's conditional discounted tail over the
    polytope (Charnes-Cooper with the node normalization)."""
    tree = model.tree
    p = tree.probabilities
    _, Binv = model.discounts()
    x = tail_sum(as_values(cash_flow) * Binv, t + 1)
    width = polytope["a_eq"].shape[1]
    entries = []
    for node in tree.nodes(t):
        idx = list(tree.node_paths(node))
        num = np.zeros(width)
        den = np.zeros(width)
        num[idx] = p[idx] * x[idx]
        den[idx] = p[idx]
        hi = lp.solve_ratio(num, den, **polytope, sense="max", tol=tol).value
        lo = lp.solve_ratio(num, den, **polytope, sense="min", tol=tol).value
        entries.append(PriceEntry(node, lo, hi, STATUS_OK))
    return tuple(entries)


def noarb_bounds(
    model: MarketModel,
    cash_flow,
    t: int,
    *,
    tol: float = lp.DEFAULT_TOL,
    entry: str = "trade",
) -> PriceQuote:
    """Lower/upper bounds of the conditional discounted tail over the closure
    of the risk-neutral density polytope, per date-t node.

    A node whose bound LP fails raises :class:`ComputationError`: the
    arbitrage search has already cleared the market, so the failure is the
    solver's, not an arbitrage.
    """
    gens = _enumeration(model, t, None, entry)
    if arbitrage_check(model, t, tol=tol, generators=gens) is not None:
        entries = tuple(
            PriceEntry(node, np.nan, np.nan, STATUS_ARBITRAGE)
            for node in model.tree.nodes(t)
        )
        return PriceQuote(time=t, gamma=None, entries=entries)
    polytope = _polytope(model, t, entry, gens)
    return PriceQuote(
        time=t, gamma=None, entries=_node_quotes(model, cash_flow, t, polytope, tol)
    )


def good_deal_certificate(
    model: MarketModel,
    t: int,
    gamma: float,
    *,
    generators: Optional[GeneratorSet] = None,
) -> list[GoodDealWitness]:
    """Hedging cash flows whose date-t gain-loss ratio beats ``gamma``.

    Scans single generators (their flows are verifiable via
    :func:`conic_pricer.acceptability.dglr_eval`); each witness carries the
    node where the ratio clears the level by more than 1e-9.  Sorted by ratio,
    best first.  ``generators`` is the date-t enumeration when the caller
    already has it.
    """
    tree = model.tree
    gens = _enumeration(model, t, generators)
    p = tree.probabilities
    found = []
    for g in gens.generators:
        node = tree.node_of(t, tree.node_paths(g.root)[0])
        idx = list(tree.node_paths(node))
        gain = float(p[idx] @ g.values[idx])
        loss = float(p[idx] @ np.maximum(-g.values[idx], 0.0))
        if gain - gamma * loss > 1e-9:
            ratio = gain / loss if loss > 0 else np.inf
            found.append(GoodDealWitness(node, g, g.values.copy(), ratio))
    found.sort(key=lambda w: -w.dglr)
    return found


def _ngd(
    model: MarketModel, t: int, gamma: float, gens: GeneratorSet, polytope: dict, tol: float
) -> NgdResult:
    """Feasibility of the band polytope; a witness from ``gens`` when empty."""
    prog = lp.LinearProgram.build("max", np.zeros(model.tree.n_paths + 1), **polytope)
    if lp.solve(prog, tol=tol).status == "optimal":
        return NgdResult(holds=True, gamma=gamma, time=t)
    witnesses = good_deal_certificate(model, t, gamma, generators=gens)
    return NgdResult(
        holds=False,
        gamma=gamma,
        time=t,
        witness=witnesses[0] if witnesses else None,
    )


def ngd_check(
    model: MarketModel,
    t: int,
    gamma: float,
    *,
    tol: float = lp.DEFAULT_TOL,
    entry: str = "trade",
    generators: Optional[GeneratorSet] = None,
) -> NgdResult:
    """Feasibility of (risk-neutral polytope) intersect (density band).

    The no-good-deal condition at level gamma holds exactly when a density
    satisfies every generator row together with the band and normalization;
    band feasibility forces strict positivity, so LP feasibility is the whole
    story.  When violated, a witness hedging flow is searched for.
    ``generators`` is the date-t enumeration when the caller already has it.
    """
    gens = _enumeration(model, t, generators, entry)
    return _ngd(model, t, gamma, gens, _polytope(model, t, entry, gens, gamma), tol)


def good_deal_prices(
    model: MarketModel,
    cash_flow,
    t: int,
    gamma: float,
    *,
    tol: float = lp.DEFAULT_TOL,
    entry: str = "trade",
    generators: Optional[GeneratorSet] = None,
) -> PriceQuote:
    """Bid/ask of the discounted tail over band-restricted risk-neutral
    densities; sentinel +inf/-inf quotes when no such density exists.
    ``generators`` is the date-t enumeration when the caller already has it."""
    gens = _enumeration(model, t, generators, entry)
    polytope = _polytope(model, t, entry, gens, gamma)
    check = _ngd(model, t, gamma, gens, polytope, tol)
    if not check.holds:
        entries = tuple(
            PriceEntry(node, np.inf, -np.inf, STATUS_NGD) for node in model.tree.nodes(t)
        )
        return PriceQuote(time=t, gamma=gamma, entries=entries, witness=check.witness)
    return PriceQuote(
        time=t, gamma=gamma, entries=_node_quotes(model, cash_flow, t, polytope, tol)
    )


def forward_prices(
    model: MarketModel,
    cash_flow,
    t: int,
    gamma: float,
    *,
    tol: float = lp.DEFAULT_TOL,
    entry: str = "trade",
) -> PriceQuote:
    """Forward (pay-at-horizon) quotes: the spot quote scaled by the terminal
    savings account, which requires a deterministic rate process."""
    r = model.rates
    if np.any(np.abs(r - r[0:1, :]) > 1e-12):
        raise ValidationError("forward prices require deterministic rates")
    B, _ = model.discounts()
    scale = float(B[0, model.tree.horizon])
    spot = good_deal_prices(model, cash_flow, t, gamma, tol=tol, entry=entry)
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
    tol: float = lp.DEFAULT_TOL,
    entry: str = "trade",
) -> list[SurfaceCell]:
    """Good-deal bid/ask/spread on a (gamma, lambda) grid.

    The model is rebuilt per transaction-cost coefficient and the payoff per
    model, then each level is repriced at the requested date-t node over the
    one enumeration of that model's round trips.
    """
    if not gammas or not lambdas:
        raise ValidationError("surface needs nonempty gamma and lambda lists")
    cells = []
    for lam in lambdas:
        model = model_builder(lam)
        payoff = payoff_builder(model)
        gens = generators_for(model, t)
        count = len(model.tree.nodes(t))
        if not 0 <= node < count:
            raise ValidationError(f"node {node} outside 0..{count - 1} at t={t}")
        for gamma in gammas:
            quote = good_deal_prices(
                model, payoff, t, gamma, tol=tol, entry=entry, generators=gens
            )
            e = quote.entry(node)
            spread = e.ask - e.bid if e.status == STATUS_OK else np.nan
            cells.append(SurfaceCell(gamma, lam, e.bid, e.ask, spread, e.status))
    return cells
