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
Arbitrage and no good deal read one witness: the node's least-loss hedge,
certified by :func:`good_deal_certificate` as a :class:`GoodDealWitness`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lp
from .acceptability import dglr_eval
from .errors import ComputationError, ValidationError
from .lattice import NodeRef
from .market import MarketModel, TradingStrategy, make_self_financing

__all__ = [
    "NodeRows",
    "GoodDealWitness",
    "generators_for",
    "hedge_strategy",
    "good_deal_certificate",
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
    counts = [len(part) for part in tree.partitions]
    cells = np.array([tree.cell_index(s) for s in range(T)])  # (date, path)
    mark = entry == "mark" and t >= 1
    # Per block of rows, in row order (the carry-on blocks, then the open
    # ones; each by date, then security, long before short): its date,
    # security, kind (0/1 open long/short, 2/3 carry on long/short), the
    # kind whose value it takes (a date-t open row under "mark" is valued as
    # a carry-on row, entering at the exit price), the series (date,
    # security, side) its rows carry on, and its first row.
    table, size, first = [], [], 0
    for carry in (True, False):
        for s in range(t + carry, T):
            for j in range(S):
                for kind in (2, 3) if carry else (0, 1):
                    valued = kind + 2 if mark and s == t and kind < 2 else kind
                    table.append((s, j, kind, valued, (s * S + j) * 2 + kind % 2, first))
                    size.append(counts[s])
                    first += counts[s]
    width = sum(size[: 2 * S * (T - 1 - t)])  # the carry-on rows
    date, security, kind, valued, series, start = np.repeat(np.array(table).T, size, axis=1)
    cell = np.arange(first) - start
    mine = cells[date] == cell[:, None]  # [row, path]: the path is on the row's node
    head = mine.argmax(axis=1)  # the node's smallest path

    # Per security (and path and date s < T): the entry legs at s, bid and
    # ask, and the exit legs over (s, s+1], long out at the bid plus the ask
    # dividend increment, short at the ask plus the bid dividend increment,
    # all discounted; each kind's value is exit less entry.
    quotes = np.array([(sec.bid, sec.ask, sec.div_ask, sec.div_bid) for sec in model.securities])
    legs = quotes[:, :2] * Binv
    exits = legs[..., 1:] + (quotes[:, 2:, :, 1:] - quotes[:, 2:, :, :-1]) * Binv[:, 1:]
    entries = legs[..., :-1]
    values = np.empty((S, 4, tree.n_paths, T))  # (security, kind, path, date)
    np.subtract(exits[:, :1], entries[:, ::-1], out=values[:, 0::2])  # long out less ask, bid
    np.subtract(entries, exits[:, 1:], out=values[:, 1::2])  # bid, ask less short out
    a_u = mine * p * values[security, valued, :, date]

    # A row holds its units into the children's V (long) or W (short), whose
    # columns are the children's carry-on rows: the row's series at the next
    # date, on the nodes whose parent is the row's node.  A carry-on row's
    # own excess, taken out at -1, is on the diagonal.
    n = tree.n_paths
    held = (series + 2 * S) * n + cell
    carried = series[:width] * n + cells[date[:width] - 1, head[:width]]
    a_v = (held[:, None] == carried).astype(float)
    np.fill_diagonal(a_v, -1.0)
    owner = cells[t, head]
    return NodeRows(
        start=t, a_u=a_u, a_v=a_v, date=date, cell=cell, security=security,
        side=1 - 2 * (kind % 2), carry=kind >= 2, owner=owner, col_owner=owner[:width],
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
    T, S, n = tree.horizon, model.n_securities, tree.n_paths
    w = np.asarray(weights, dtype=float) * rows.side
    # units held per (date, security, cell), then per path
    key = (rows.date * S + rows.security) * n + rows.cell
    per_node = np.bincount(key, w, T * S * n).reshape(T, S, n)
    cells = np.array([tree.cell_index(s) for s in range(T)])
    legs = np.zeros((T + 1, S, n))
    legs[1:] = np.take_along_axis(per_node, cells[:, None, :], axis=2)
    return make_self_financing(model, legs)


@dataclass(frozen=True)
class GoodDealWitness:
    """A date-t ``node``'s hedge on the cone rows at the least-loss LP's
    scale, expected gain one: the rows' per-path discounted total as traded,
    the strategy whose terminal wealth dominates it, and its gain-loss ratio
    (:func:`conic_pricer.acceptability.dglr_eval`), at least about
    1/``lp.TOL`` for an arbitrage."""

    node: NodeRef
    strategy: TradingStrategy
    cash_flow: np.ndarray  # per-path discounted total, zero off the node
    dglr: float


def _node_cone(rows: NodeRows, cell: int, paths):
    """The no-arbitrage cone of date-t node ``cell`` on ``paths``: its rows of
    ``rows`` over its own columns, u of its paths and then its envelope
    excesses."""
    pick = (rows.owner == cell).nonzero()[0]
    return np.concatenate((
        rows.a_u.take(pick, 0).take(paths, 1),
        rows.a_v.take(pick, 0).compress(rows.col_owner == cell, 1),
    ), axis=1)


def _node_hedges(model: MarketModel, rows: NodeRows, node: NodeRef):
    """The rows under a date-``rows.start`` node as hedges: (row indices,
    the node's paths, per-path values on them, envelope coefficients).

    A row whose values are all within 1e-12 * max(1, largest value on the
    node) of zero, as across a node with a single child in a frictionless
    market, counts as worth exactly zero: huge weights on its float residue
    would otherwise fake a gain.  Rows left with no coefficient are dropped.
    """
    paths = np.asarray(model.tree.node_paths(node))
    pick = (rows.owner == node.cell).nonzero()[0]
    cone = _node_cone(rows, node.cell, paths)
    G, H = cone[:, : len(paths)] / model.probabilities.take(paths), cone[:, len(paths) :]
    size = np.abs(G).max(axis=1, initial=0.0)
    G[size <= 1e-12 * max(1.0, float(size.max(initial=0.0)))] = 0.0
    keep = (G != 0.0).any(axis=1) | (H != 0.0).any(axis=1)
    return pick[keep], paths, G[keep], H[keep]


def _node_least_loss(model: MarketModel, rows: NodeRows, node: NodeRef, warm=None):
    """The date-t ``node``'s least expected loss L of a hedge on ``rows`` per
    unit of its expected gain, with the weights on ``rows`` of a hedge that
    attains it (None where L is +inf) and the LP's solution (None where the
    node has no rows), which the same node's LP at a neighbouring
    transaction cost can restart from as ``warm`` (see
    :func:`conic_pricer.lp.solve`).

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
        return np.inf, None, None
    q = model.probabilities[paths]
    m, k = len(paths), len(pick)
    # [-G^T, -I] over [-H^T, 0]
    a_ub = np.zeros((m + H.shape[1], k + m))
    np.negative(G.T, out=a_ub[:m, :k])
    np.negative(H.T, out=a_ub[m:, :k])
    eye = a_ub[:m, k:]
    eye[:] = -0.0  # -I, signed zeros too: a pivot can carry their sign to the answer
    np.fill_diagonal(eye, -1.0)
    prog = lp.LinearProgram.build(
        "min", np.concatenate([np.zeros(len(pick)), q]), a_ub=a_ub,
        b_ub=np.zeros(len(a_ub)), a_eq=[np.concatenate([G @ q, np.zeros(m)])], b_eq=[1.0],
    )
    sol = lp.solve(prog, warm=warm)
    if sol.status != "optimal":
        return np.inf, None, sol
    weights = np.zeros(len(rows))
    weights[pick] = sol.x[: len(pick)]
    return max(sol.value, 0.0), weights, sol


def _least_losses(model: MarketModel, rows: NodeRows, warm=None):
    """Each date-``rows.start`` node in node order with its
    :func:`_node_least_loss` (L, weights, solution), the node's LP restarted
    from its entry of ``warm`` where given.  Lazily: a caller that stops at a
    node solves no LP after it."""
    nodes = model.tree.nodes(rows.start)
    for node, start in zip(nodes, warm or [None] * len(nodes)):
        yield (node, *_node_least_loss(model, rows, node, start))


def good_deal_certificate(
    model: MarketModel, rows: NodeRows, node: NodeRef, weights
) -> Optional[GoodDealWitness]:
    """The witness, at the weights' scale, of the hedge that nonnegative
    ``weights`` on ``rows`` make at date-``rows.start`` ``node`` (weights off
    the node are ignored), or None where its expected gain is not above
    1e-9 * max(1, largest row value on the node) per unit of its largest row
    weight: rows worth zero up to rounding are no witness.  The caller judges
    the ratio."""
    tree = model.tree
    paths = np.asarray(tree.node_paths(node))
    pick = (rows.owner == node.cell).nonzero()[0]
    w = np.zeros(len(rows))
    w[pick] = np.maximum(np.asarray(weights, dtype=float)[pick], 0.0)
    q = model.probabilities.take(paths)
    G = _node_cone(rows, node.cell, paths)[:, : len(paths)] / q
    flow = w[pick] @ G
    size = max(1.0, float(np.abs(G).max(initial=0.0)))
    if not q @ flow > 1e-9 * size * w.max(initial=0.0):
        return None
    paid = np.zeros((tree.n_paths, tree.horizon + 1))
    paid[paths, -1] = flow
    ratio = float(dglr_eval(tree, paid, rows.start)[paths[0]])
    return GoodDealWitness(node, hedge_strategy(model, rows, w), paid[:, -1], ratio)


def arbitrage_check(model: MarketModel, t: int) -> Optional[GoodDealWitness]:
    """The witness of the first date-t node with an arbitrage, or None.

    Arbitrage <=> some node has least loss per unit of gain L <= ``lp.TOL``
    (:func:`_node_least_loss`); that node's least-loss hedge, through
    :func:`good_deal_certificate`, is the witness.  Rows worth zero up to
    rounding count as worth zero (see ``_node_hedges``).
    """
    return _arbitrage(model, generators_for(model, t))


def _arbitrage(model: MarketModel, rows: NodeRows) -> Optional[GoodDealWitness]:
    """:func:`arbitrage_check` over the trade rows ``rows`` of its date.  A
    lossless hedge that its certificate rejects raises
    :class:`ComputationError`: an arbitrage is never reported without a
    witness."""
    for node, loss, weights, _ in _least_losses(model, rows):
        if loss <= lp.TOL:
            witness = good_deal_certificate(model, rows, node, weights)
            if witness is None:
                raise ComputationError(
                    f"arbitrage at node {node.time}:{node.cell} fails its certificate: "
                    "its hedge gains nothing"
                )
            return witness
    return None
