"""Measure-polytope pricing programs.

All prices are conditional expectations of the discounted remaining payments
of a contract, optimized over a polytope of measures expressed through their
densities u against the reference probabilities:

* generator rows: sum_paths u * p * G <= 0 for every hedging-cone generator G
  rooted at the valuation date or later - these carve out the risk-neutral
  densities;
* optional band rows m <= u <= (1 + gamma) m plus the global normalization
  sum u * p = 1 - these restrict to the acceptability density band.

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

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import lp
from .acceptability import DensityBand, dglr_eval
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
    "OracleInterval",
    "noarb_bounds",
    "ngd_check",
    "good_deal_certificate",
    "good_deal_prices",
    "forward_prices",
    "liquidity_surface",
    "primal_price_oracle",
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


def _discounted_tail(model: MarketModel, cash_flow, t: int) -> np.ndarray:
    _, Binv = model.discounts()
    return tail_sum(as_values(cash_flow) * Binv, t + 1)


def _enumerate(
    model: MarketModel, t: int, entry: str, cap: int, generators: Optional[GeneratorSet]
) -> GeneratorSet:
    """The round trips rooted at dates >= t, after checking ``entry``."""
    if entry not in ("trade", "mark"):
        raise ValidationError(f"entry must be 'trade' or 'mark', got {entry!r}")
    return _enumeration(model, t, cap, generators)


def _generator_rows(
    model: MarketModel, t: int, entry: str, gens: GeneratorSet
) -> tuple[np.ndarray, np.ndarray]:
    """Rows p * G (one per generator rooted at dates >= t) and their rhs."""
    p = model.probabilities
    B, _ = model.discounts()
    matrix = gens.matrix()
    if entry == "mark" and t >= 1:
        for k, g in enumerate(gens.generators):
            if g.root.time == t:
                sec = model.securities[g.security]
                idx = list(model.tree.node_paths(g.root))
                matrix[k, idx] += (sec.ask[idx, t] - sec.bid[idx, t]) / B[idx, t]
    matrix = matrix * p
    rhs = GEN_ROW_SLACK * np.maximum(np.max(np.abs(matrix), axis=1), 1.0)
    return matrix, rhs


def _band_rows(n: int, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows over variables (u_1..u_n, m): m <= u <= (1+gamma) m."""
    a = np.zeros((2 * n, n + 1))
    for i in range(n):
        a[i, i] = -1.0
        a[i, n] = 1.0
        a[n + i, i] = 1.0
        a[n + i, n] = -(1.0 + gamma)
    return a, np.zeros(2 * n)


def noarb_bounds(
    model: MarketModel,
    cash_flow,
    t: int,
    *,
    tol: float = lp.DEFAULT_TOL,
    entry: str = "trade",
    cap: int = 100_000,
) -> PriceQuote:
    """Lower/upper bounds of the conditional discounted tail over the closure
    of the risk-neutral density polytope, per date-t node.

    A node whose bound LP fails raises :class:`ComputationError`: the
    arbitrage search has already cleared the market, so the failure is the
    solver's, not an arbitrage.
    """
    tree = model.tree
    gens = _enumerate(model, t, entry, cap, None)
    witness = arbitrage_check(model, t, tol=tol, cap=cap, generators=gens)
    if witness is not None:
        entries = tuple(
            PriceEntry(node, np.nan, np.nan, STATUS_ARBITRAGE) for node in tree.nodes(t)
        )
        return PriceQuote(time=t, gamma=None, entries=entries)
    rows, gen_rhs = _generator_rows(model, t, entry, gens)
    x = _discounted_tail(model, cash_flow, t)
    p = tree.probabilities
    entries = []
    for node in tree.nodes(t):
        idx = list(tree.node_paths(node))
        num = np.zeros(tree.n_paths)
        den = np.zeros(tree.n_paths)
        num[idx] = p[idx] * x[idx]
        den[idx] = p[idx]
        hi = lp.solve_ratio(
            num, den, a_ub=rows, b_ub=gen_rhs,
            a_eq=p[None, :], b_eq=np.ones(1), sense="max", tol=tol,
        ).value
        lo = lp.solve_ratio(
            num, den, a_ub=rows, b_ub=gen_rhs,
            a_eq=p[None, :], b_eq=np.ones(1), sense="min", tol=tol,
        ).value
        entries.append(PriceEntry(node, lo, hi, STATUS_OK))
    return PriceQuote(time=t, gamma=None, entries=tuple(entries))


def good_deal_certificate(
    model: MarketModel,
    t: int,
    gamma: float,
    *,
    entry: str = "trade",
    cap: int = 100_000,
    slack: float = 1e-9,
    generators: Optional[GeneratorSet] = None,
) -> list[GoodDealWitness]:
    """Hedging cash flows whose date-t gain-loss ratio beats ``gamma``.

    Scans single generators (their flows are verifiable via
    :func:`conic_pricer.acceptability.dglr_eval`); each witness carries the
    node where the ratio clears the level.  Sorted by ratio, best first.
    ``generators`` is the date-t enumeration when the caller already has it.
    """
    tree = model.tree
    gens = _enumerate(model, t, entry, cap, generators)
    p = tree.probabilities
    found = []
    for g in gens.generators:
        node = tree.node_of(t, tree.node_paths(g.root)[0])
        idx = list(tree.node_paths(node))
        gain = float(p[idx] @ g.values[idx])
        loss = float(p[idx] @ np.maximum(-g.values[idx], 0.0))
        if gain - gamma * loss > slack:
            ratio = gain / loss if loss > 0 else np.inf
            found.append(GoodDealWitness(node, g, g.values.copy(), ratio))
    found.sort(key=lambda w: -w.dglr)
    return found


def ngd_check(
    model: MarketModel,
    t: int,
    gamma: float,
    *,
    tol: float = lp.DEFAULT_TOL,
    entry: str = "trade",
    cap: int = 100_000,
    generators: Optional[GeneratorSet] = None,
) -> NgdResult:
    """Feasibility of (risk-neutral polytope) intersect (density band).

    The no-good-deal condition at level gamma holds exactly when a density
    satisfies every generator row together with the band and normalization;
    band feasibility forces strict positivity, so LP feasibility is the whole
    story.  When violated, a witness hedging flow is searched for.
    ``generators`` is the date-t enumeration when the caller already has it.
    """
    DensityBand(gamma)
    tree = model.tree
    gens = _enumerate(model, t, entry, cap, generators)
    rows, gen_rhs = _generator_rows(model, t, entry, gens)
    n = tree.n_paths
    p = tree.probabilities
    band_a, band_b = _band_rows(n, gamma)
    a_ub = np.vstack([np.hstack([rows, np.zeros((rows.shape[0], 1))]), band_a])
    b_ub = np.concatenate([gen_rhs, band_b])
    a_eq = np.hstack([p[None, :], np.zeros((1, 1))])
    prog = lp.LinearProgram.build(
        "max", np.zeros(n + 1), a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=np.ones(1)
    )
    sol = lp.solve(prog, tol=tol)
    if sol.status == "optimal":
        return NgdResult(holds=True, gamma=gamma, time=t)
    witnesses = good_deal_certificate(model, t, gamma, entry=entry, generators=gens)
    return NgdResult(
        holds=False,
        gamma=gamma,
        time=t,
        witness=witnesses[0] if witnesses else None,
    )


def good_deal_prices(
    model: MarketModel,
    cash_flow,
    t: int,
    gamma: float,
    *,
    tol: float = lp.DEFAULT_TOL,
    entry: str = "trade",
    cap: int = 100_000,
    generators: Optional[GeneratorSet] = None,
) -> PriceQuote:
    """Bid/ask of the discounted tail over band-restricted risk-neutral
    densities; sentinel +inf/-inf quotes when no such density exists.
    ``generators`` is the date-t enumeration when the caller already has it."""
    tree = model.tree
    gens = _enumerate(model, t, entry, cap, generators)
    check = ngd_check(model, t, gamma, tol=tol, entry=entry, generators=gens)
    if not check.holds:
        entries = tuple(
            PriceEntry(node, np.inf, -np.inf, STATUS_NGD) for node in tree.nodes(t)
        )
        return PriceQuote(time=t, gamma=gamma, entries=entries, witness=check.witness)
    rows, gen_rhs = _generator_rows(model, t, entry, gens)
    n = tree.n_paths
    p = tree.probabilities
    x = _discounted_tail(model, cash_flow, t)
    band_a, band_b = _band_rows(n, gamma)
    a_ub = np.vstack([np.hstack([rows, np.zeros((rows.shape[0], 1))]), band_a])
    b_ub = np.concatenate([gen_rhs, band_b])
    a_eq = np.hstack([p[None, :], np.zeros((1, 1))])
    entries = []
    for node in tree.nodes(t):
        idx = list(tree.node_paths(node))
        num = np.zeros(n + 1)
        den = np.zeros(n + 1)
        num[idx] = p[idx] * x[idx]
        den[idx] = p[idx]
        ask = lp.solve_ratio(
            num, den, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=np.ones(1),
            sense="max", tol=tol,
        ).value
        bid = lp.solve_ratio(
            num, den, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=np.ones(1),
            sense="min", tol=tol,
        ).value
        entries.append(PriceEntry(node, bid, ask, STATUS_OK))
    return PriceQuote(time=t, gamma=gamma, entries=tuple(entries))


def forward_prices(
    model: MarketModel,
    cash_flow,
    t: int,
    gamma: float,
    *,
    tol: float = lp.DEFAULT_TOL,
    entry: str = "trade",
    cap: int = 100_000,
) -> PriceQuote:
    """Forward (pay-at-horizon) quotes: the spot quote scaled by the terminal
    savings account, which requires a deterministic rate process."""
    r = model.rates
    if np.any(np.abs(r - r[0:1, :]) > 1e-12):
        raise ValidationError("forward prices require deterministic rates")
    B, _ = model.discounts()
    scale = float(B[0, model.tree.horizon])
    spot = good_deal_prices(model, cash_flow, t, gamma, tol=tol, entry=entry, cap=cap)
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
        for gamma in gammas:
            quote = good_deal_prices(
                model, payoff, t, gamma, tol=tol, entry=entry, generators=gens
            )
            e = quote.entry(node)
            spread = e.ask - e.bid if e.status == STATUS_OK else np.nan
            cells.append(SurfaceCell(gamma, lam, e.bid, e.ask, spread, e.status))
    return cells


@dataclass(frozen=True)
class OracleInterval:
    bid: float
    ask: float


def primal_price_oracle(
    model: MarketModel,
    cash_flow,
    t: int,
    gamma: float,
    *,
    weight_points: int = 9,
    max_weight: float = 6.0,
    v_points: int = 4001,
    refine: int = 2,
) -> OracleInterval:
    """Brute-force hedged-acceptability prices on a tiny one-period instance.

    The ask is the least cash v making (v + hedge - discounted payoff)
    acceptable at level gamma for some conic hedge combination from a weight
    grid; the bid mirrors it.  Acceptability of a flow Y is the sign test
    E[Y] - gamma * E[Y-] >= 0.  Grids: ``weight_points`` per generator over
    [0, max_weight] with one local refinement, and ``v_points`` cash points
    with ``refine`` zooming passes.  Intended solely as an independent check
    of the dual LP prices.
    """
    DensityBand(gamma)
    tree = model.tree
    if tree.horizon != 1 or t != 0:
        raise ValidationError("oracle instance too large: need a one-period model at t=0")
    gens = generators_for(model, 0)
    if len(gens) > 3:
        raise ValidationError(f"oracle instance too large: {len(gens)} generators > 3")
    G = gens.matrix()
    x = _discounted_tail(model, cash_flow, 0)
    p = tree.probabilities

    def least_acceptable_cash(target: np.ndarray) -> float:
        """Least v on the grid with flow = v - target acceptable at gamma.

        The acceptance mass E[flow] - gamma * E[flow-] is nondecreasing in v
        with slope >= 1, so the first acceptable grid point brackets the true
        threshold; each refinement pass zooms into that bracket.
        """
        lo = min(float(np.min(target)), float(p @ target)) - 1.0
        hi = float(np.max(target)) + 1.0
        best = hi
        for _ in range(refine + 1):
            grid = np.linspace(lo, hi, v_points)
            flows = grid[:, None] - target[None, :]
            mass = flows @ p - gamma * (np.maximum(-flows, 0.0) @ p)
            hits = np.nonzero(mass >= -1e-12)[0]
            k = int(hits[0]) if hits.size else v_points - 1
            step = grid[1] - grid[0]
            best = float(grid[k])
            lo, hi = best - step, best + step
        return best

    def grid_around(center, step):
        axes = [
            np.linspace(max(0.0, ci - step), ci + step, weight_points)
            for ci in center
        ]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(
            -1, len(gens)
        )

    def search(side: str) -> float:
        # ask: least v with v + w@G - x acceptable, i.e. target = x - w@G.
        # bid: greatest v with x + w@G - v acceptable; substituting v -> -v
        # this is -(least v with v - (-(x + w@G)) acceptable).
        def target_for(w):
            return x - w @ G if side == "ask" else -(x + w @ G)

        base = np.linspace(0.0, max_weight, weight_points)
        combos = np.stack(
            np.meshgrid(*([base] * len(gens)), indexing="ij"), axis=-1
        ).reshape(-1, len(gens))
        best_v, best_w = None, None
        for w in combos:
            v = least_acceptable_cash(target_for(w))
            if best_v is None or v < best_v:
                best_v, best_w = v, w
        # The threshold is convex in the weights, so the grid walks toward the
        # optimum: pan at the same resolution while the incumbent keeps
        # reaching the window's edge, then zoom.
        step = max_weight / (weight_points - 1) if weight_points > 1 else 1.0
        for _ in range(60):
            if step < 1e-5:
                break
            prev_w = best_w
            for w in grid_around(best_w, step):
                v = least_acceptable_cash(target_for(w))
                if v < best_v - 1e-15:
                    best_v, best_w = v, w
            on_edge = np.any(np.abs(best_w - prev_w) >= step * (1.0 - 1e-9))
            if not on_edge:
                step *= 2.0 / (weight_points - 1)
        return best_v if side == "ask" else -best_v

    return OracleInterval(bid=search("bid"), ask=search("ask"))
