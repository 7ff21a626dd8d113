"""Measure-polytope pricing programs.

All prices are conditional expectations of the discounted remaining payments
of a contract, optimized over measures expressed through their densities u
against the reference probabilities:

* the hedging-cone rows of :func:`conic_pricer.cone.generators_for`, over u
  and the nonnegative Snell-envelope excesses, for every node from the
  valuation date on - these carve out the risk-neutral densities;
* optional band rows m <= u <= (1 + gamma) m - these restrict to the
  acceptability density band; the program writes them over
  m' = (1 + gamma) m and z = m' - u (:func:`_band_program`), which keeps
  the level's coefficient in [0, 1) at every level.

Every row belongs to the subtree of one date-t node and is homogeneous, so
each node is priced over its own cone alone: its rows over its own paths,
envelope excesses and, with the band, its own scalar m.  The node's
conditional expectation sum_node p u x / sum_node p u does not change when u
is scaled, so its extremes are those of one plain LP on the slice where the
node's mass is one.  This is exact: a density of the whole tree restricts to
a point of each node's cone, and once every node's cone reaches its slice,
rescaling each node's point to a common m (to any common scale without the
band) glues them into one density of the whole tree with every node's ratio
unchanged.  So no good deal holds exactly when every node's band LP is
feasible.  A node that its no-arbitrage cone cannot charge (possible only
in bounds under ``entry="mark"``, below) gets the status ``infeasible``.
With the band, m is bounded away from zero on the slice, so densities are
strictly positive and no epsilon is needed.  Pure no-arbitrage bounds range
over the closure (u >= 0) of the equivalent risk-neutral set, whose
suprema/infima coincide with those over the open set whenever an equivalent
risk-neutral measure exists.  The bound LPs prove that node by node when
the sum of a node's two optima charges every path of the node (Jouini &
Kallal, JET 1995); only where they cannot does the arbitrage search run.

The no-good-deal check is the dual of the same per-node decomposition: by LP
duality a node's band cone misses its slice exactly when the node has a
hedge (a nonnegative combination of its cone rows) whose gain-loss ratio
beats the level.

A hedge's gain-loss ratio is its expected gain over its expected loss, so a
node has a hedge beating gamma exactly when gamma L < 1, where L is the
node's least expected loss per unit of expected gain and 1/L its best ratio
(Cherny & Madan, RFS 2009).  L comes from one LP per node, free of the level
(:func:`conic_pricer.cone._node_least_loss`), and one tie rule reads every
level's verdict from it (:func:`_beats`): L is certified only to
``lp.TOL``, so a level within that distance of 1/L reads as 1/L, which no
hedge beats.  :func:`ngd_check`, :func:`good_deal_prices`,
:func:`forward_prices` and :func:`liquidity_surface` all take this one
verdict from L, with one exception, where no L is needed: with one
security, when every date-t node's band LP at gamma carries both of its
bound candidates (below), the band densities they certify leave no hedge
beating gamma, so gamma L >= 1 and the verdict holds at gamma; the quotes
are then the bounds, and no least-loss LP runs.  There is one witness
route: the first beaten node's least-loss hedge with its trading strategy, certified
by :func:`conic_pricer.cone.good_deal_certificate` (re-exported here; the
arbitrage search certifies its lossless hedge through it too) and then
judged against the level.
When the verdict holds, each node is priced at the level the rule reads:
gamma, or inside the tie band (1 - ``lp.TOL`` <= gamma L_v < 1) its ceiling
1/L_v, whose band cone reaches the slice where the band at gamma may not.
Every band quote, of :func:`good_deal_prices`, :func:`forward_prices` and
:func:`liquidity_surface` alike, is one node's :class:`_BandRow`, the one
builder of a band program; the bounds alone solve through
:func:`conic_pricer.lp.solve_ratio`.  With one security on the trade rows
(``entry="trade"``, and ``entry="mark"`` at t = 0, where it builds them),
each node's bound LP is handed candidate optima from the superreplication
recursion (:class:`conic_pricer.cone._Recursion`): an extreme whose
candidate passes the LP's certificate takes it as its answer with no pivot,
and any other is solved by the simplex, as every extreme of marked rows and
of a market with more securities is.  The same candidates start the band
programs (:func:`_band_candidate`): an extreme whose bound density lies in
the band at its level, where the band does not bind it, is handed its bound
pair, which the band LP's certificate judges.

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
from .acceptability import DensityBand
from .cone import (
    GoodDealWitness, NodeRows, _arbitrage, _bound_candidates, _least_losses, _node_cone,
    _Recursion, generators_for, good_deal_certificate,
)
from .errors import ComputationError, ValidationError
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
    witness: Optional[GoodDealWitness] = None


@dataclass(frozen=True)
class NgdResult:
    holds: bool
    gamma: float
    time: int
    witness: Optional[GoodDealWitness] = None

    def __bool__(self):
        return self.holds


def _band_share(level: float) -> float:
    """The band's coefficient in its rows (:func:`_band_program`) at
    ``level``: level / (1 + level), in [0, 1) at every level."""
    return level / (1.0 + level)


def _band_program(num, den, cone: np.ndarray, n: int, level: float):
    """The band program of a node's cone ``cone`` (u of its n paths first)
    pricing num @ x / den @ x, with ``num`` and ``den`` over the cone's
    columns, cut by the band m <= u <= (1 + level) m: ``(num, den, a_ub,
    band)`` of the program, ``band`` the indices of its n band rows.

    The band is written over m' = (1 + level) m and z = m' - u in place of
    u: the cone's u columns become -a_u for z, its other columns stay, and
    the row sums a_u @ 1 are m''s column.  Then z >= 0 is the upper band,
    and the n band rows z_i - (level / (1 + level)) m' <= 0 are the lower
    one.  The level lives only in m''s column on the band rows, a
    coefficient in [0, 1) at every level; a band written over m held
    -(1 + level) there, which failed certification at large levels.  Every
    point of the slice has m' >= u_i > 0, so m' is basic in every optimum,
    and a level step rewrites one basic column (see
    :class:`conic_pricer.lp._Slice`)."""
    rows, width = cone.shape
    a_ub = np.zeros((rows + n, width + 1))
    np.negative(cone[:, :n], out=a_ub[:rows, :n])
    a_ub[:rows, n:width] = cone[:, n:]
    cone[:, :n].sum(axis=1, out=a_ub[:rows, width])
    band = np.arange(rows, rows + n)
    a_ub[band, band - rows] = 1.0
    a_ub[rows:, width] = -_band_share(level)
    num, den = (np.concatenate((-v[:n], v[n:], [v[:n].sum()])) for v in (num, den))
    return num, den, a_ub, band


def _band_candidate(sol, n: int) -> lp.LPSolution:
    """A bound candidate ``sol`` of a node of n paths (its density u first,
    see :class:`conic_pricer.cone._Recursion`) as a candidate optimum of
    the node's band program (:func:`_band_program`), which holds no level:
    z = max u - u, the envelope excesses as they are and m' = max u, with
    the bound hedge's multipliers on the cone rows and the normalization,
    and none on the band rows.

    Where u lies in the band (max u <= (1 + level) min u) it is a point of
    the band program, and it charges every path, so complementary slackness
    makes the hedge replicate the payoff on every path, which is what dual
    feasibility on the z columns asks.  The band LP's own strong-duality
    test judges it (:meth:`conic_pricer.lp._Slice.solve`)."""
    u = sol.x[:n]
    top = u.max()
    return lp.LPSolution(
        "optimal", x=np.concatenate((top - u, sol.x[n:], [top])),
        dual_ub=np.concatenate((sol.dual_ub, np.zeros(n))), dual_eq=sol.dual_eq,
    )


def _band_starts(pair, spread, n: int, level: float, other=(None, None)) -> tuple:
    """Per extreme of a node of n paths, its bound candidate of ``pair`` as
    a band candidate (:func:`_band_candidate`) where the candidate's
    density lies in the band at ``level`` (its ``spread`` at most
    1 + level, see :meth:`conic_pricer.cone._Recursion.spreads`), else that
    extreme's entry of ``other``."""
    return tuple(
        _band_candidate(c, n) if c is not None and width <= 1.0 + level else o
        for c, width, o in zip(pair, spread, other)
    )


def _checked(model: MarketModel, cash_flow) -> CashFlow:
    """``cash_flow`` as a :class:`CashFlow` of ``model``: one as it is, a raw
    matrix through the loader's one rule (:meth:`CashFlow.ingest`), which
    refuses a shape, a non-finite entry or a payment that is not adapted,
    naming the cash flow, before any LP runs."""
    return cash_flow if isinstance(cash_flow, CashFlow) else CashFlow.ingest(model.tree, cash_flow)


def _discounted_tail(model: MarketModel, cash_flow, t: int) -> np.ndarray:
    """Per-path discounted payments after date t."""
    _, Binv = model.discounts()
    return tail_sum(as_values(cash_flow) * Binv, t + 1)


def _ratio_terms(model: MarketModel, x, node: NodeRef, width: int):
    """The numerator and denominator of ``node``'s conditional mean of ``x``
    over a cone of ``width`` columns, u of the node's paths first."""
    paths = model.tree.node_paths(node)
    q = model.probabilities.take(paths)
    num, den = np.zeros(width), np.zeros(width)
    num[: len(paths)] = q * x.take(paths)
    den[: len(paths)] = q
    return num, den


def _entry(node: NodeRef, lo, hi) -> PriceEntry:
    """The :class:`PriceEntry` of ``node`` from its min and max solutions.
    A node the cone cannot charge gets ``STATUS_INFEASIBLE``.

    The min and max are separate certified optima, each off by its own
    rounding, so where they agree the min can come out above the max.  A
    crossing of at most ``lp.TOL`` * max(1, |bid|, |ask|) is reported as
    their midpoint on both sides; a wider one cannot come from two certified
    optima and raises :class:`ComputationError`."""
    if hi.status == "infeasible":
        return PriceEntry(node, np.nan, np.nan, STATUS_INFEASIBLE)
    bid, ask = lo.value, hi.value
    if bid > ask:
        if bid - ask > lp.TOL * max(1.0, abs(bid), abs(ask)):
            raise ComputationError(
                f"node {node.time}:{node.cell} bid {bid!r} exceeds ask {ask!r} "
                f"by more than the tolerance {lp.TOL:.0e}"
            )
        bid = ask = 0.5 * (bid + ask)
    return PriceEntry(node, bid, ask, STATUS_OK)


def _node_quotes(model: MarketModel, cash_flow, rows: NodeRows) -> list:
    """The min and max of each date-t node's conditional mean of the
    discounted tail over its own cone (:func:`_node_cone`), in node order:
    the node's :class:`PriceEntry` (see :func:`_entry`) with the ``(lo, hi)``
    solutions.  Both solutions of a node the cone cannot charge are the one
    Farkas ray.

    With one security on the trade rows (``entry="trade"``, or
    ``entry="mark"`` at t = 0, where it builds them), the superreplication
    recursion (:func:`conic_pricer.cone._bound_candidates`) hands each
    node's slice its candidate optima, which answer the extremes whose
    certificate they pass; every other extreme, and every node of a market
    with more securities or of marked rows, is solved by the simplex."""
    x = _discounted_tail(model, cash_flow, rows.start)
    nodes = model.tree.nodes(rows.start)
    one = not rows.mark and model.n_securities == 1
    starts = _bound_candidates(model, rows, x) if one else [None] * len(nodes)
    quotes = []
    for node, warm in zip(nodes, starts):
        cone = _node_cone(rows, node.cell, list(model.tree.node_paths(node)))
        lo, hi = lp.solve_ratio(*_ratio_terms(model, x, node, cone.shape[1]), cone, warm=warm)
        quotes.append((_entry(node, lo, hi), (lo, hi)))
    return quotes


def _charges_every_path(model: MarketModel, e: PriceEntry, solutions) -> bool:
    """Whether a node's bound pair proves that its cone holds an equivalent
    density: the sum of the two optima, itself a point of the cone, puts
    more than ``lp.TOL`` times its largest density on each of the node's
    paths.  Such a density prices every hedge of the node at most zero and
    charges every path, so by Farkas the node has no arbitrage.

    The arbitrage search would read the same there, so it skips such a
    node: with r = min u / max u > ``lp.TOL`` the ratio of the pair's
    density u, every hedge X of the node has E[u X] <= 0, so
    r E[X+] <= E[X-]; at the least-loss LP's scale E[X] = 1, which makes
    E[X-] >= r / (1 - r), so the node's least loss per unit of gain L
    exceeds ``lp.TOL``."""
    if e.status != STATUS_OK:
        return False
    lo, hi = solutions
    u = (lo.x + hi.x)[: len(model.tree.node_paths(e.node))]
    return bool(u.min() > lp.TOL * u.max())


def _arbitrage_quote(model: MarketModel, rows: NodeRows, nodes) -> Optional[PriceQuote]:
    """The all-``arbitrage`` quote of date ``rows.start`` when its trade rows
    (``rows`` themselves unless they are marked) hold an arbitrage at one of
    its ``nodes``, else None."""
    trade = generators_for(model, rows.start) if rows.mark else rows
    if _arbitrage(model, trade, nodes) is None:
        return None
    entries = tuple(
        PriceEntry(node, np.nan, np.nan, STATUS_ARBITRAGE) for node in model.tree.nodes(rows.start)
    )
    return PriceQuote(time=rows.start, gamma=None, entries=entries)


def noarb_bounds(model: MarketModel, cash_flow, t: int, *, entry: str = "trade") -> PriceQuote:
    """Lower/upper bounds of the conditional discounted tail over the closure
    of the risk-neutral density polytope, per date-t node.

    The bound LPs run first (one-security trade bounds from the recursion's
    candidates where they certify, see :func:`_node_quotes`).  When every
    node's pair proves an equivalent density of its cone (see
    :func:`_charges_every_path`), the market is free of arbitrage at date t
    and the bounds are returned as they are; the ``mark`` cone lies inside
    the ``trade`` cone, so its proof clears the trade rows too.  Otherwise
    the arbitrage search runs over the trade rows at the nodes whose pair
    proves nothing (arbitrage <=> some date-t node has least loss per unit
    of gain L <= ``lp.TOL``; at every node when a bound LP fails), and an
    arbitrage makes every status ``STATUS_ARBITRAGE``.

    At t = 0, ``entry="mark"`` builds the trade rows (it marks only legs
    entered at t >= 1), so its bounds are the trade bounds bit for bit.
    A node that no density of the cone charges (possible under
    ``entry="mark"``) gets ``STATUS_INFEASIBLE`` and NaN bounds.  A bound LP
    that fails raises :class:`ComputationError` once the arbitrage search has
    cleared the market: the failure is the solver's, not an arbitrage.
    """
    cash_flow = _checked(model, cash_flow)
    rows = generators_for(model, t, entry)
    try:
        quotes = _node_quotes(model, cash_flow, rows)
    except ComputationError:
        if (found := _arbitrage_quote(model, rows, model.tree.nodes(t))) is not None:
            return found
        raise
    unproven = [e.node for e, sols in quotes if not _charges_every_path(model, e, sols)]
    if unproven and (found := _arbitrage_quote(model, rows, unproven)) is not None:
        return found
    return PriceQuote(time=t, gamma=None, entries=tuple(e for e, _ in quotes))


def _least_loss(model: MarketModel, rows: NodeRows, warm=None):
    """The least loss L of each date-t node, in node order, with each node's
    LP solution (:func:`conic_pricer.cone._least_losses`).  ``warm``, those
    solutions at a neighbouring transaction cost, restarts each node's LP
    from its own (see :func:`conic_pricer.lp.solve`)."""
    solved = list(_least_losses(model, rows, warm))
    return np.array([loss for _, loss, _, _ in solved]), [sol for *_, sol in solved]


def _beats(gamma: float, loss: float) -> bool:
    """Whether a node of least loss per unit of gain ``loss`` has a hedge
    beating ``gamma``: gamma L < 1 - ``lp.TOL``.  L is certified only to
    ``lp.TOL``, so a level within that distance of the node's best ratio 1/L
    reads as 1/L itself, which no hedge beats."""
    return gamma * loss < 1.0 - lp.TOL


def _ngd(model: MarketModel, gamma: float, rows: NodeRows):
    """The no-good-deal check: violated at the first date-t node whose least
    loss per unit of gain :func:`_beats` ``gamma``, with that node's
    best-ratio hedge as the witness.  Returns the :class:`NgdResult` and the
    L of each node solved, in node order: every date-t node's when the check
    holds.  A hedge that its certificate rejects, or whose ratio does not
    beat ``gamma``, raises :class:`ComputationError`: a violation is never
    reported without a witness."""
    DensityBand(gamma)
    t, losses = rows.start, []
    for node, loss, weights, _ in _least_losses(model, rows):
        losses.append(loss)
        if not _beats(gamma, loss):
            continue
        witness = good_deal_certificate(model, rows, node, weights)
        if witness is None or not witness.dglr > gamma:
            raise ComputationError(
                f"no-good-deal hedge at gamma={gamma:g}, t={t} fails its certificate: "
                "no witness beats the level"
            )
        return NgdResult(holds=False, gamma=gamma, time=t, witness=witness), losses
    return NgdResult(holds=True, gamma=gamma, time=t), losses


def _band_level(gamma: float, loss: float) -> float:
    """The level the tie rule prices a node of least loss per unit of gain
    ``loss`` at, where the check holds at ``gamma``: gamma when gamma L >= 1,
    else the ceiling 1/L."""
    return gamma if gamma * loss >= 1.0 else 1.0 / loss


class _BandRow:
    """The band program of date-t ``node`` pricing ``x``: the node's cone of
    ``rows`` (:func:`_node_cone`) cut by the band (:func:`_band_program`),
    built once with its slack start.  Each quote rewrites only m''s column
    on the node's n band rows, -level / (1 + level), in place (see
    :class:`conic_pricer.lp._Slice`)."""

    def __init__(self, model: MarketModel, x, rows: NodeRows, node: NodeRef):
        paths = list(model.tree.node_paths(node))
        cone = _node_cone(rows, node.cell, paths)
        self.node, self.n = node, len(paths)
        num, den = _ratio_terms(model, x, node, cone.shape[1])
        num, den, a_ub, self.band = _band_program(num, den, cone, self.n, 0.0)
        self.slice = lp._Slice(num, den, a_ub, column=cone.shape[1])

    def quote(self, level: float, warm=None):
        """The node's quote with the band at ``level`` and its ``(lo, hi)``
        solutions: from phase 1 without ``warm`` (bit for bit what
        :func:`conic_pricer.lp.solve_ratio` gives on the program), else
        started from it per extreme: a band candidate
        (:func:`_band_candidate`), or a previous ``(lo, hi)`` of this
        program or of the node's program at another transaction cost.  The
        check holds at the level, so its band cone reaches the slice there:
        a quote that reads ``infeasible`` raises :class:`ComputationError`."""
        self.slice.rewrite(self.band, -_band_share(level))
        lo, hi = self.slice.solve(warm)
        if hi.status == "infeasible":
            raise ComputationError(
                f"node {self.node.time}:{self.node.cell} band LP at gamma={level!r} reads "
                "infeasible where the no-good-deal check holds"
            )
        return _entry(self.node, lo, hi), (lo, hi)


def _carried(solutions) -> bool:
    """Whether both extremes are band candidates that passed their
    certificate: an answer carried from a candidate keeps its lack of a
    basis, and one the simplex solved has one."""
    return all(s.status == "optimal" and s.basis is None for s in solutions)


def ngd_check(model: MarketModel, t: int, gamma: float) -> NgdResult:
    """Whether a density satisfies every cone row, the band and the
    normalization (band feasibility forces strict positivity): the verdict
    from L (see the module docstring), read node by node up to the first
    node that :func:`_beats` gamma, whose best-ratio hedge is the witness."""
    return _ngd(model, gamma, generators_for(model, t))[0]


def good_deal_prices(model: MarketModel, cash_flow, t: int, gamma: float) -> PriceQuote:
    """Bid/ask of the discounted tail over band-restricted risk-neutral
    densities; sentinel +inf/-inf quotes when no such density exists.

    With one security, the superreplication recursion
    (:class:`conic_pricer.cone._Recursion`) runs first, once the level is
    validated.  Where every date-t node's two bound densities lie in the
    band at gamma, each node's :class:`_BandRow` at gamma is handed its
    bound pair as band candidates (:func:`_band_candidate`).  When every
    extreme is carried, the check holds at gamma by weak duality (a
    certified band density at gamma leaves no hedge beating gamma, so
    gamma L >= 1 and the tie rule would price at gamma): the quotes are the
    bounds, and no least-loss LP runs.

    Otherwise one verdict, from L: the no-good-deal check of
    :func:`ngd_check` solves each date-t node's least loss per unit of gain
    L once.  A violated level runs no band LP and carries the check's
    witness, the first beaten node's best-ratio hedge.  A holding level
    prices each node on its own :class:`_BandRow` at the level the tie rule
    reads: gamma, or inside the tie band the node's ceiling 1/L_v, handed
    each extreme's band candidate where its density lies in the band there,
    and from phase 1 otherwise.  A band LP that fails, or reads
    ``infeasible``, there raises :class:`ComputationError`.
    """
    DensityBand(gamma)
    cash_flow = _checked(model, cash_flow)
    rows = generators_for(model, t)
    nodes = model.tree.nodes(t)
    x = _discounted_tail(model, cash_flow, t)
    spreads = pairs = None
    if model.n_securities == 1:
        recursion = _Recursion(model, t, x)
        spreads = recursion.spreads()
        if (spreads <= 1.0 + gamma).all():
            pairs = recursion.candidates(rows)
            entries = []
            for k, (node, pair) in enumerate(zip(nodes, pairs)):
                band = _BandRow(model, x, rows, node)
                e, solutions = band.quote(gamma, _band_starts(pair, spreads[:, k], band.n, gamma))
                if not _carried(solutions):
                    break
                entries.append(e)
            else:
                return PriceQuote(time=t, gamma=gamma, entries=tuple(entries))
    check, losses = _ngd(model, gamma, rows)
    if not check.holds:
        entries = tuple(PriceEntry(node, np.inf, -np.inf, STATUS_NGD) for node in nodes)
        return PriceQuote(time=t, gamma=gamma, entries=entries, witness=check.witness)
    levels = [_band_level(gamma, loss) for loss in losses]
    if pairs is None and spreads is not None and (spreads <= 1.0 + np.array(levels)).any():
        pairs = recursion.candidates(rows)
    entries = []
    for k, (node, level) in enumerate(zip(nodes, levels)):
        band = _BandRow(model, x, rows, node)
        warm = None if pairs is None else _band_starts(pairs[k], spreads[:, k], band.n, level)
        entries.append(band.quote(level, warm)[0])
    return PriceQuote(time=t, gamma=gamma, entries=tuple(entries))


def forward_prices(model: MarketModel, cash_flow, t: int, gamma: float) -> PriceQuote:
    """Forward (pay-at-horizon) quotes: the spot quote of
    :func:`good_deal_prices` scaled by the terminal savings account, which
    requires a deterministic rate process.  So the verdict is the one from L,
    the witness is the check's, and a tie-band node is priced at its ceiling
    1/L_v, as there."""
    r = model.rates
    if (r != r[0]).any():
        raise ValidationError("forward prices require deterministic rates")
    B, _ = model.discounts()
    scale = float(B[0, model.tree.horizon])
    spot = good_deal_prices(model, cash_flow, t, gamma)
    entries = tuple(
        PriceEntry(e.node, scale * e.bid, scale * e.ask, e.status)
        for e in spot.entries
    )
    return PriceQuote(time=t, gamma=gamma, entries=entries, witness=spot.witness)


def _node_bound(model: MarketModel, rows: NodeRows, x, node: int, level: float):
    """The bound pair of date-t node ``node`` of a one-security market, from
    the superreplication recursion of ``x`` on ``rows``, with its spreads
    (:meth:`conic_pricer.cone._Recursion.spreads`); None where the market
    has more securities or neither density lies in the band at ``level``,
    the widest the caller prices at."""
    if model.n_securities != 1:
        return None
    recursion = _Recursion(model, rows.start, x)
    spread = recursion.spreads()[:, node]
    if not (spread <= 1.0 + level).any():
        return None
    return recursion.candidates(rows)[node], spread


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
    transaction-cost coefficient (a row), then each level is repriced at the
    requested date-t node.  The no-good-deal status of every level of a row
    comes from the check's own LP, solved once per row and node: each date-t
    node's least loss per unit of gain L (see :func:`_least_loss`).  A level
    gamma is violated exactly when gamma L < 1 - ``lp.TOL`` at some node, the
    tie rule of :func:`ngd_check`, so a level within ``lp.TOL`` of a node's
    best gain-loss ratio 1/L reads as 1/L and is priced.  The requested node
    v is priced on the program :func:`good_deal_prices` prices it on, its
    :class:`_BandRow`: at gamma when gamma L_v >= 1, and inside the tie band
    at its ceiling 1/L_v.  No level runs the check itself, and violated
    cells carry no witness.

    The rows form one warm sweep, in the order of ``lambdas``.  Each row
    after the first restarts every node's least-loss LP from the node's
    optimum in the row before (see :func:`conic_pricer.lp.solve`); L is
    certified to ``lp.TOL`` either way, and every verdict reads it through
    the same tie rule.  The threshold covers every date-t node, but only the
    requested node is quoted: the per-node programs are independent.  Its
    band program is built once per row, at the row's first priced level;
    each later level of the row rewrites only the band column in place.
    The levels are priced in ascending order.  With one security, the row's
    superreplication recursion runs at its first priced level, and at every
    priced level each extreme whose bound density lies in the band there is
    handed its bound candidate (:func:`_band_candidate`), as
    :func:`good_deal_prices` hands it.  Any other extreme starts as before:
    the first priced level of the first row that prices from phase 1, the
    one solve :func:`good_deal_prices` makes on the same program, so that
    cell and every violated cell match :func:`good_deal_prices` bit for bit.
    The first priced level of a later row restarts the node's min and max
    LPs from the first priced answers of the row before, refactored on the
    new rows (an extreme carried from its candidate there has no basis, and
    keeps the answer of a row before it, if any).  Each later level of a row
    starts them from the previous level's answers (see
    :class:`conic_pricer.lp._Slice`): an extreme whose previous optimum
    still certifies at the wider band, because the band does not bind it,
    is carried without a solve; any other updates the previous optimum's
    tableau by the one column that changed, which a wider band leaves
    optimal or a few dual simplex pivots away.  Restarted quotes agree with
    a cold solve to rounding, not bit for bit.
    """
    if not gammas or not lambdas:
        raise ValidationError("surface needs nonempty gamma and lambda lists")
    for gamma in gammas:
        DensityBand(gamma)
    ascending = sorted(range(len(gammas)), key=gammas.__getitem__)
    cells = []
    least = first = None  # the previous row's least-loss solutions and first quote
    for lam in lambdas:
        model = model_builder(lam)
        payoff = _checked(model, payoff_builder(model))
        rows = generators_for(model, t)
        count = len(model.tree.nodes(t))
        if not 0 <= node < count:
            raise ValidationError(f"node {node} outside 0..{count - 1} at t={t}")
        at = model.tree.nodes(t)[node]
        losses, least = _least_loss(model, rows, least)
        loss, own = float(np.min(losses)), float(losses[node])
        band = None
        row = [None] * len(gammas)
        for i in ascending:
            gamma = gammas[i]
            if _beats(gamma, loss):
                e = PriceEntry(at, np.inf, -np.inf, STATUS_NGD)
            else:
                level = _band_level(gamma, own)
                opening = band is None
                if opening:
                    x = _discounted_tail(model, payoff, t)
                    band, warm = _BandRow(model, x, rows, at), first
                    bound = _node_bound(model, rows, x, node, _band_level(max(gammas), own))
                if bound is not None:
                    warm = _band_starts(*bound, band.n, level, other=warm or (None, None))
                e, warm = band.quote(level, warm)
                if opening:
                    # a carried candidate has no basis to restart the next
                    # row from: that extreme keeps the row before's
                    first = tuple(s if s.basis is not None else f
                                  for s, f in zip(warm, first or (None, None)))
            spread = e.ask - e.bid if e.status == STATUS_OK else np.nan
            row[i] = SurfaceCell(gamma, lam, e.bid, e.ask, spread, e.status)
        cells.extend(row)
    return cells
