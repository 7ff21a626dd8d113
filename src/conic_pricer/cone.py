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

With one security, the same rows read as trades also carry each date-t
node's no-arbitrage bounds as a backward induction (:func:`_bound_candidates`):
its hedge is a weight per row and its density a mass per node, which map
onto the bound LP's dual and primal for the LP's own certificate to judge.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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
    cost = np.concatenate([np.zeros(len(pick)), q])
    gain = np.concatenate([G @ q, np.zeros(m)])
    prog = lp.LinearProgram.build("min", cost, a_ub, gain)
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


# A slope within this share of max(1, ask) of a node's bid or ask meets it:
# where a step is frictionless the two sides of that equality are rounded
# apart, which would read as an arbitrage of the rounding's size.
_SLOPE_TOL = 1e-12


def _upper_envelope(lines):
    """The upper envelope of ``lines``, (slope, intercept, owner) triples
    sorted by slope and then intercept: its breakpoints and its pieces, the
    lines that top the others on an interval, left to right."""
    Z, pieces = [], []
    for line in lines:
        b, a, _ = line
        while pieces:
            b0, a0, _ = pieces[-1]
            if b0 != b:  # else parallel, and no higher than this line
                z = (a0 - a) / (b - b0)
                if not Z or z > Z[-1]:
                    Z.append(z)
                    break
            pieces.pop()
            del Z[-1:]
        pieces.append(line)
    return Z, pieces


class _Subtrees:
    """The subtrees of the date-t nodes of a one-security market: every node
    from date t on, numbered date by date and within a date in cell order
    (node ``offset[s] + cell``; the leaves, at the horizon, from ``leaf``),
    with its children and, discounted, its bid and ask, its ask and bid
    dividend increments, and what a unit held into it is worth there on
    exit, long (bid plus ask dividend) and short (ask plus bid dividend), as
    :func:`generators_for` prices the rows."""

    def __init__(self, model: MarketModel, t: int):
        tree, sec = model.tree, model.securities[0]
        T, parts = tree.horizon, tree.partitions
        self.offset = np.zeros(T + 2, dtype=int)
        self.offset[t + 1:] = np.cumsum([len(parts[s]) for s in range(t, T + 1)])
        self.roots, self.leaf = int(self.offset[t + 1]), int(self.offset[T])
        self.heads = np.array([cell[0] for s in range(t, T + 1) for cell in parts[s]])
        at = (self.heads, np.repeat(np.arange(t, T + 1), np.diff(self.offset[t:])))
        before = (at[0], np.maximum(at[1] - 1, 0))
        _, Binv = model.discounts()
        self.bid, self.ask = sec.bid[at] * Binv[at], sec.ask[at] * Binv[at]
        ga = (sec.div_ask[at] - sec.div_ask[before]) * Binv[at]
        gb = (sec.div_bid[at] - sec.div_bid[before]) * Binv[at]
        self.quotes = [v.tolist() for v in (self.bid, self.ask, ga, gb)]  # as floats
        self.exits = (self.bid + ga).tolist(), (self.ask + gb).tolist()
        self.kids = [[] for _ in range(self.leaf)]
        for s in range(t + 1, T + 1):
            heads = self.heads[self.offset[s]:self.offset[s + 1]]
            parents = self.offset[s - 1] + tree.cell_index(s - 1)[heads]
            for k, p in enumerate(parents.tolist(), self.offset[s]):
                self.kids[p].append(k)

    def backward(self, payoff):
        """Per non-leaf node, the upper envelope G of its children's F as a
        function of the units held out of it (each piece's owner the index
        of a child among the children), with the interval [za, zb] of the
        positions that no trade at the node improves; None where the
        recursion finds no finite price.  ``payoff`` is discounted, per
        leaf.  Each F is kept as its lines, whose maximum it is."""
        bid, ask, ga, gb = self.quotes
        F = [None] * self.leaf
        for short, long, v in zip(self.exits[1][self.leaf:], self.exits[0][self.leaf:], payoff):
            F.append([(-short, v), (-long, v)] if short != long else [(-short, v)])
        G = [None] * self.leaf
        for c in range(self.leaf - 1, -1, -1):
            lines = []
            for o, k in enumerate(self.kids[c]):
                if F[k] is None:
                    break
                lines += [(s, v, o) for s, v in F[k]]
            else:
                lines.sort()
                Z, pieces = _upper_envelope(lines)
                tol = _SLOPE_TOL * max(1.0, ask[c])
                slopes = [p[0] for p in pieces]
                n = len(pieces)
                a, b = bisect_left(slopes, -ask[c] - tol), bisect_right(slopes, -bid[c] + tol)
                if b == 0 or a == n:  # the slopes cannot meet the bid and ask
                    continue
                za, zb = Z[a - 1] if a else -np.inf, Z[b - 1] if b < n else np.inf
                G[c] = Z, pieces, za, zb
                if c >= self.roots:
                    F[c] = _traded(Z, pieces, a, b, za, zb, ask[c], bid[c], ga[c], gb[c])
        return G

    def forward(self, G):
        """Top-down over :meth:`backward`'s answer: per node, the units held
        into it and out of it, its share of its date-t node's density mass
        and its shadow price, and per date-t node its price (None where there
        is none)."""
        bid, ask, ga, gb = self.quotes
        n = len(bid)
        into, out, mass, price, target = [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n, [None] * n
        prices = [None] * self.roots
        mass[: self.roots] = [1.0] * self.roots
        for c, g in enumerate(G):
            if g is None:
                continue
            Z, pieces, za, zb = g
            z, m = into[c], mass[c]
            held = za if z < za else zb if z > zb else z
            near = 1e-12 * (1.0 + abs(held))
            if abs(held - z) <= near:  # no trade but for rounding
                held = z
            out[c] = held
            # the pieces meeting at the position held, breakpoints within
            # rounding of it taken as one
            (lo, v, first), (hi, _, last) = (
                pieces[bisect_left(Z, held - near)], pieces[bisect_right(Z, held + near)]
            )
            if c < self.roots:
                prices[c] = v + lo * held + (ask[c] if held > 0 else bid[c]) * held
            # the node's shadow price: the ask where it buys, the bid where it
            # sells, else a slope of G between them that its parent's target
            # leaves, less the dividend the units held into it earn
            if held != z:
                h = -ask[c] if held > z else -bid[c]
            else:
                low, high = max(lo, -ask[c]), min(hi, -bid[c])
                if target[c] is not None:
                    low = max(low, target[c] + (ga[c] if z >= 0 else gb[c]))
                    high = min(high, target[c] + (gb[c] if z <= 0 else ga[c]))
                h = 0.5 * (low + high)
            h = min(max(h, lo), hi)
            price[c] = -h
            kids = self.kids[c]
            for k in kids:
                into[k] = held
            first, last = kids[first], kids[last]
            if first == last:
                mass[first], target[first] = m, h
            else:  # the two owners' slopes average to h
                share = m * (hi - h) / (hi - lo)
                mass[first], target[first] = share, lo
                mass[last], target[last] = m - share, hi
        return into, out, mass, price, prices


def _traded(Z, pieces, a, b, za, zb, ask, bid, ga, gb):
    """F of a node, as lines, from the breakpoints ``Z`` and ``pieces`` of
    its G: H, G traded at the node's ``ask`` and ``bid``, is G's pieces
    ``a`` to ``b - 1`` continued by the lines of slope -ask through G at
    ``za`` (buy up to it) and -bid through G at ``zb`` (sell down to it);
    F is H less the dividend the units held into the node earn, ``ga`` a
    unit long and ``gb`` short (ga <= gb keeps F convex)."""
    H = [(s, v) for s, v, _ in pieces[a:b]]
    if a:
        s, v, _ = pieces[a - 1]
        H.insert(0, (-ask, v + (s + ask) * za))
    if b < len(pieces):
        s, v, _ = pieces[b]
        H.append((-bid, v + (s + bid) * zb))
    if ga == gb:
        return [(s - ga, v) for s, v in H]
    cuts = Z[max(a - 1, 0):min(b, len(pieces) - 1)]
    short, long = bisect_left(cuts, 0.0) + 1, bisect_right(cuts, 0.0)
    return [(s - gb, v) for s, v in H[:short]] + [(s - ga, v) for s, v in H[long:]]


def _bound_candidates(model: MarketModel, rows: NodeRows, x) -> list:
    """Candidate optima of each date-``rows.start`` node's bound slice
    (``pricing._node_quotes``), ``(lo, hi)`` per node in node order, from
    the superreplication recursion of a market with one security under
    trade entry; an extreme the recursion finds no finite price for is
    None.  ``x`` is the discounted payoff per path.

    The ask of a node is the least cash that superreplicates x from it, and
    the bid minus the ask of -x (Bensaid, Lesne, Pagès & Scheinkman, Math.
    Finance 1992; Roux, Tokarz & Zastawniak, Acta Appl. Math. 2008).  With
    F_c(z) the least cash that pays x on from node c given z units held into
    it, each F is convex and piecewise linear in z: at a leaf, x_c less the
    z units' exit value, long or short; above, G_c, the upper envelope of
    the children's F, traded at c's ask and bid and less the dividend z
    earns into c (:meth:`_Subtrees.backward`).  The ask is G traded at z = 0.

    A top-down pass (:meth:`_Subtrees.forward`) then reads off both sides of
    the bound LP's strong duality.  The hedge holds, out of each node, the
    position nearest the units it came in with at which no trade pays; as
    weights on the open and carry-on rows (as in :func:`hedge_strategy`),
    with the ask on the normalization, it is the dual.  The density is the
    primal: each node's mass goes to the children owning the pieces of G
    that meet at the position held, in the shares that average their slopes
    to the node's shadow price (the ask where it buys, the bid where it
    sells, in between where it holds on), and each carry-on row's envelope
    excess is the node's mass times its shadow price above the bid (long)
    or below the ask (short).  The pair is optimal in exact arithmetic;
    :meth:`conic_pricer.lp._Slice.solve` puts it to the LP's own
    certificate, and solves any extreme that fails.
    """
    sub, tree = _Subtrees(model, rows.start), model.tree
    payoff = x[sub.heads[sub.leaf:]].tolist()
    passes = [sub.forward(sub.backward(v)) for v in ([-v for v in payoff], payoff)]
    into, outof, mass, price = (np.array([p[i] for p in passes]) for i in range(4))
    # each row's weight: what it holds of the position out of its node,
    # carried on from the units that came in (long and short alike)
    at = sub.offset[rows.date] + rows.cell  # each row's node
    came, held = into[:, at] * rows.side, outof[:, at] * rows.side
    kept = np.minimum(np.maximum(came, 0.0), np.maximum(held, 0.0))
    weights = np.where(rows.carry, kept, np.maximum(held, 0.0) - kept)
    col = at[: len(rows.col_owner)]
    excess = np.where(
        rows.side[: len(col)] > 0, price[:, col] - sub.bid[col], sub.ask[col] - price[:, col]
    )
    env = mass[:, col] * np.maximum(excess, 0.0)
    leaves = tree.cell_index(tree.horizon)
    u = mass[:, sub.leaf + leaves] / np.bincount(leaves, tree.probabilities)[leaves]
    out = []
    for node in tree.nodes(rows.start):
        paths = list(tree.node_paths(node))
        pick, cols = rows.owner == node.cell, rows.col_owner == node.cell
        out.append(tuple(
            None if p[4][node.cell] is None else lp.LPSolution(
                "optimal", x=np.concatenate([u[k, paths], env[k, cols]]),
                dual_ub=sign * weights[k, pick], dual_eq=np.array([sign * p[4][node.cell]]),
            )
            for k, (sign, p) in enumerate(zip((-1.0, 1.0), passes))
        ))
    return out
