"""The hedging cone in node form, and arbitrage detection.

Every zero-cost self-financing strategy is, per security, a sum of long and
short positions: open one unit at a node (long at the ask, short at the bid),
collect the matching dividend stream while it is held, and close it at a
later node (long at the bid, short at the ask).  "Every such round trip is
worth at most zero under the measure" says that the ask at each node
dominates the Snell envelope of the discounted bid-plus-ask-dividend process
(and mirrored for shorts, the bid the lower envelope of the
ask-plus-bid-dividend process).  The envelope does not depend on where the
position was opened, so one pair of rows per node and security replaces the
enumeration of every stopping profile (Jouini & Kallal, *Martingales and
arbitrage in securities markets with transaction costs*, JET 1995).

The rows are linear in the density u (one entry per path) and in the
nonnegative envelope excesses V_v (long) and W_v (short) of every node v at
dates t+1..T-1; V and W are zero at the horizon.  With m_v = sum_{i in v}
p_i u_i and discounted prices, per security:

* open at s (every node at dates t..T-1):
  sum_children [V_c + (bid_c + ddiv_ask_c) m_c] - ask_s m_s <= 0, and
  sum_children [W_c - (ask_c + ddiv_bid_c) m_c] + bid_s m_s <= 0;
* carry on at v (every node at dates t+1..T-1): the same with -V_v - bid_v m_v
  (resp. -W_v + ask_v m_v) in place of the entry leg.

A row is also a trade: weight y on it holds y units (long or short) from its
node into the node's children.  A nonnegative combination of rows whose net
weight on every V and W is nonnegative (no more is carried on than is held)
is a strategy, and sum_rows y * (u-coefficients) / p is its discounted
terminal cash flow, up to the spreads it saves by netting.  Every row belongs
to the subtree of one date-t node.

Arbitrage detection reads, per date-t node, the least expected loss L of a
hedge per unit of its expected gain (:func:`_node_least_loss`, the LP of the
no-good-deal check): a hedge that gains and never loses has L = 0, and L is
certified to ``lp.TOL``, so arbitrage <=> some node has L <= ``lp.TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lp
from .errors import ValidationError
from .lattice import NodeRef
from .market import MarketModel, TradingStrategy, make_self_financing

__all__ = [
    "NodeRows",
    "ArbitrageWitness",
    "generators_for",
    "hedge_strategy",
    "arbitrage_check",
]


@dataclass(frozen=True)
class NodeRows:
    """The hedging-cone rows of one start date, ``a_u @ u + a_v @ (V, W) <= 0``.

    Row r holds ``side[r]`` (+1 long, -1 short) units of security
    ``security[r]`` from node (``date[r]``, ``cell[r]``) into its children,
    opened there or, where ``carry[r]``, carried on from its parent;
    ``owner`` gives the date-``start`` cell above each row and ``col_owner``
    the one above each envelope column.
    """

    start: int
    a_u: np.ndarray  # (rows, n_paths): p_i times the row's value on path i
    a_v: np.ndarray  # (rows, envelope columns)
    date: np.ndarray
    cell: np.ndarray
    security: np.ndarray
    side: np.ndarray
    carry: np.ndarray
    owner: np.ndarray
    col_owner: np.ndarray

    def __len__(self):
        return self.a_u.shape[0]


def generators_for(model: MarketModel, t: int, entry: str = "trade") -> NodeRows:
    """Open and carry-on rows of every node with date in t..horizon-1.

    Row order: the carry-on rows, then the open rows; each block by date,
    then security, long before short, the date's nodes in cell order (carry-on
    rows first about halve the pivots of the benchmark's horizon-8 ladder
    bounds: 1,349 against 2,569 with the open rows first).
    Envelope columns: by date t+1..horizon-1, then security, V of each node,
    then W.
    ``entry="mark"`` values the entry leg of the date-t rows (t >= 1) at the
    exit price, long at the bid and short at the ask.
    """
    tree = model.tree
    T, S = tree.horizon, model.n_securities
    if not 0 <= t <= T - 1:
        raise ValidationError(f"start date {t} outside 0..{T - 1}")
    if entry not in ("trade", "mark"):
        raise ValidationError(f"entry must be 'trade' or 'mark', got {entry!r}")
    p = tree.probabilities
    _, Binv = model.discounts()
    counts = [len(tree.partitions[s]) for s in range(T + 1)]
    heads = [np.array([c[0] for c in tree.partitions[s]]) for s in range(T + 1)]
    owners = {s: tree.cell_index(t)[heads[s]] for s in range(t, T)}
    prices = [(sec.bid * Binv, sec.ask * Binv) for sec in model.securities]
    # (date, security, kind) of each block of rows, in row order; kinds 0/1
    # open long/short, 2/3 carry on long/short
    blocks = np.array([(s, j, kind) for carry in (True, False) for s in range(t + carry, T)
                       for j in range(S) for kind in ((2, 3) if carry else (0, 1))])
    size = np.array([counts[s] for s in blocks[:, 0]])
    first = dict(zip(map(tuple, blocks.tolist()), (np.cumsum(size) - size).tolist()))
    date, security, kind = blocks.T
    owner = np.concatenate([owners[s] for s in date])
    # The carry-on blocks line up with the envelope columns: block (s, j, 2)
    # with the V of (s, j), block (s, j, 3) with its W.  So a carry-on row's
    # own excess, taken out at -1, is on the diagonal.
    width = int(size[kind >= 2].sum())
    a_u = np.empty((len(owner), tree.n_paths))
    a_v = np.zeros((len(owner), width))
    np.fill_diagonal(a_v, -1.0)
    for s in range(t, T):
        k = counts[s]
        cells = tree.cell_index(s)
        weight = (np.arange(k)[:, None] == cells[None, :]) * p  # p on each node's paths
        hold = cells[heads[s + 1]][None, :] == np.arange(k)[:, None]  # [node, child of it]
        mark = entry == "mark" and s == t >= 1
        for j, sec in enumerate(model.securities):
            bid, ask = prices[j]
            long_exit = bid[:, s + 1] + (sec.div_ask[:, s + 1] - sec.div_ask[:, s]) * Binv[:, s + 1]
            short_exit = ask[:, s + 1] + (sec.div_bid[:, s + 1] - sec.div_bid[:, s]) * Binv[:, s + 1]
            values = [
                long_exit - (bid[:, s] if mark else ask[:, s]),
                (ask[:, s] if mark else bid[:, s]) - short_exit,
            ]
            if s > t:
                values += [long_exit - bid[:, s], ask[:, s] - short_exit]
            for n_kind, value in enumerate(values):
                r = first[s, j, n_kind]
                np.multiply(weight, value, out=a_u[r : r + k])
                if s + 1 < T:  # held into the children's V (long) or W (short),
                    # whose columns start where their carry-on rows do
                    at = first[s + 1, j, 2 + n_kind % 2]
                    a_v[r : r + k, at : at + counts[s + 1]] = hold
    return NodeRows(
        start=t, a_u=a_u, a_v=a_v, date=np.repeat(date, size),
        cell=np.concatenate([np.arange(k) for k in size]),
        security=np.repeat(security, size), side=np.repeat(1 - 2 * (kind % 2), size),
        carry=np.repeat(kind >= 2, size), owner=owner, col_owner=owner[:width],
    )


def hedge_strategy(model: MarketModel, rows: NodeRows, weights) -> TradingStrategy:
    """The self-financing strategy behind nonnegative ``weights`` on ``rows``.

    Each row holds its weight in units from its node into the node's
    children; the savings account absorbs every purchase, sale and dividend.
    Its discounted terminal wealth dominates the rows' combined cash flow
    (netting a sale and a purchase at one node only saves the spread) when
    the weights carry on no more than they hold.
    """
    tree = model.tree
    w = np.asarray(weights, dtype=float) * rows.side
    legs = np.zeros((tree.horizon + 1, model.n_securities, tree.n_paths))
    for s in range(rows.start, tree.horizon):
        for j in range(model.n_securities):
            pick = (rows.date == s) & (rows.security == j)
            per_node = np.bincount(rows.cell[pick], w[pick], len(tree.partitions[s]))
            legs[s + 1, j] = per_node[tree.cell_index(s)]
    return make_self_financing(model, legs)


@dataclass(frozen=True)
class ArbitrageWitness:
    """A hedge of expected gain one at ``node`` with expected loss at most
    ``lp.TOL``, hence a flow of at least -``lp.TOL``/p_i on each path i of
    the node (zero off it), and the strategy whose wealth dominates it."""

    node: NodeRef
    strategy: TradingStrategy
    cash_flow: np.ndarray  # per-path discounted total of the combined rows


def _node_hedges(model: MarketModel, rows: NodeRows, node: NodeRef):
    """The rows under a date-``rows.start`` node as hedges: (row indices,
    the node's paths, per-path values on them, envelope coefficients).

    A row whose values are all within 1e-12 * max(1, largest value on the
    node) of zero, as across a node with a single child in a frictionless
    market, counts as worth exactly zero: huge weights on its float residue
    would otherwise fake a gain.  Rows left with no coefficient are dropped.
    """
    p = model.probabilities
    paths = np.asarray(model.tree.node_paths(node))
    pick = np.flatnonzero(rows.owner == node.cell)
    G = rows.a_u[np.ix_(pick, paths)] / p[paths]
    H = rows.a_v[np.ix_(pick, np.flatnonzero(rows.col_owner == node.cell))]
    size = np.max(np.abs(G), axis=1, initial=0.0)
    G[size <= 1e-12 * max(1.0, float(np.max(size, initial=0.0)))] = 0.0
    keep = np.any(G != 0.0, axis=1) | np.any(H != 0.0, axis=1)
    return pick[keep], paths, G[keep], H[keep]


def _node_least_loss(model: MarketModel, rows: NodeRows, node: NodeRef):
    """The date-t ``node``'s least expected loss L of a hedge on ``rows`` per
    unit of its expected gain, with the weights on ``rows`` of a hedge that
    attains it (None where L is +inf).

    The LP minimizes E[z] over weights w >= 0 and a loss bound
    z >= max(-X, 0) of the flow X = G^T w, with E[X] = 1 and H^T w >= 0 (the
    hedge carries on no more than it holds).  The node's best gain-loss ratio
    is 1/L, reached by that hedge.  L is +inf when no hedge gains (the LP is
    infeasible) or the node has no rows, and 0 for a lossless hedge (a
    rounding residue below 0 reads 0).  The objective is bounded below by 0,
    so the LP is never unbounded.
    """
    pick, paths, G, H = _node_hedges(model, rows, node)
    if not pick.size:
        return np.inf, None
    q = model.probabilities[paths]
    m = len(paths)
    a_ub = np.vstack([
        np.hstack([-G.T, -np.eye(m)]),
        np.hstack([-H.T, np.zeros((H.shape[1], m))]),
    ])
    prog = lp.LinearProgram.build(
        "min", np.concatenate([np.zeros(len(pick)), q]), a_ub=a_ub,
        b_ub=np.zeros(len(a_ub)), a_eq=[np.concatenate([G @ q, np.zeros(m)])], b_eq=[1.0],
    )
    sol = lp.solve(prog)
    if sol.status != "optimal":
        return np.inf, None
    weights = np.zeros(len(rows))
    weights[pick] = sol.x[: len(pick)]
    return max(sol.value, 0.0), weights


def arbitrage_check(model: MarketModel, t: int) -> Optional[ArbitrageWitness]:
    """The witness of the first date-t node with an arbitrage, or None.

    Arbitrage <=> some node has least loss per unit of gain L <= ``lp.TOL``
    (:func:`_node_least_loss`); that node's least-loss hedge is the witness.
    Rows worth zero up to rounding count as worth zero (see ``_node_hedges``).
    """
    return _arbitrage(model, generators_for(model, t))


def _arbitrage(model: MarketModel, rows: NodeRows) -> Optional[ArbitrageWitness]:
    """:func:`arbitrage_check` over the trade rows ``rows`` of its date."""
    tree = model.tree
    for node in tree.nodes(rows.start):
        loss, weights = _node_least_loss(model, rows, node)
        if loss <= lp.TOL:
            pick, paths, G, _ = _node_hedges(model, rows, node)
            flow = np.zeros(tree.n_paths)
            flow[paths] = weights[pick] @ G
            return ArbitrageWitness(node, hedge_strategy(model, rows, weights), flow)
    return None
