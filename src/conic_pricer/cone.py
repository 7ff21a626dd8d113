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
node's no-arbitrage bounds as a backward induction (:class:`_Recursion`),
one sweep up the tree's node numbering for both extremes and one down it:
its hedge is a weight per row and its density a mass per node, read at the
node each row carries, the bound LP's dual and primal for the LP's own
certificate to judge.
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
    ``security[r]`` from node (``date[r]``, ``cell[r]``), ``node[r]`` in the
    tree's numbering, into its children, opened there or, where ``carry[r]``,
    carried on from its parent; ``owner`` gives the date-``start`` cell above
    each row and ``col_owner`` the one above each envelope column j, the
    excess that carry-on row j takes out.  ``mark`` is whether the date-t
    entry legs are valued at the exit price (``entry="mark"`` at t >= 1);
    otherwise these are the trade rows.
    """

    start: int
    a_u: np.ndarray  # (rows, n_paths): p_i times the row's value on path i
    a_v: np.ndarray  # (rows, envelope columns)
    date: np.ndarray
    cell: np.ndarray
    node: np.ndarray
    security: np.ndarray
    side: np.ndarray
    carry: np.ndarray
    owner: np.ndarray
    col_owner: np.ndarray
    mark: bool

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
    ``entry="mark"`` values the entry leg of the date-t rows at the exit
    price, long at the bid and short at the ask.  That needs t >= 1: at
    t = 0 it builds the trade rows.
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
    node = tree.offset[date] + cell
    head = tree.node_path[node]
    mine = tree.node_of[date] == node[:, None]  # [row, path]: the path is on the row's node

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
    nodes = len(tree.node_path)
    held = (series + 2 * S) * nodes + node
    carried = series[:width] * nodes + tree.node_of[date[:width] - 1, head[:width]]
    a_v = (held[:, None] == carried).astype(float)
    np.fill_diagonal(a_v, -1.0)
    owner = tree.cell_index(t)[head]
    return NodeRows(
        start=t, a_u=a_u, a_v=a_v, date=date, cell=cell, node=node, security=security,
        side=1 - 2 * (kind % 2), carry=kind >= 2, owner=owner, col_owner=owner[:width],
        mark=mark,
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
    T, S = tree.horizon, model.n_securities
    w = np.asarray(weights, dtype=float) * rows.side
    # units held per (node, security), then per (date, security, path)
    per_node = np.bincount(rows.node * S + rows.security, w, len(tree.node_path) * S)
    legs = np.zeros((T + 1, S, tree.n_paths))
    legs[1:] = per_node.reshape(-1, S)[tree.node_of[:T]].transpose(0, 2, 1)
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
    excesses.  A node holding every path is its date's only one, and owns
    the rows whole."""
    if len(paths) == rows.a_u.shape[1]:
        return np.concatenate((rows.a_u, rows.a_v), axis=1)
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
    return _arbitrage(model, generators_for(model, t), model.tree.nodes(t))


def _arbitrage(model: MarketModel, rows: NodeRows, nodes) -> Optional[GoodDealWitness]:
    """:func:`arbitrage_check` over the trade rows ``rows`` of its date, at
    its date-``rows.start`` ``nodes`` (in node order) alone.  A lossless
    hedge that its certificate rejects raises :class:`ComputationError`: an
    arbitrage is never reported without a witness."""
    for node in nodes:
        loss, weights, _ = _node_least_loss(model, rows, node)
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


def _backward(kids, quotes, top, roots, leaf, F):
    """The bottom-up sweep of :func:`_bound_candidates`, both signs node by
    node over the nodes ``top`` to ``leaf - 1`` (date t's below ``roots``).
    ``F`` holds per sign each leaf's F as lines (slope, intercept, owner)
    and gains each node's after date t.  Returns per sign and node G: its
    breakpoints, its pieces left to right and the interval [za, zb] of the
    positions that no trade improves; None where no price is finite."""
    bid, ask, ga, gb = quotes
    G = [None] * leaf, [None] * leaf
    sides = tuple(zip(F, G))
    for c in range(leaf - 1, top - 1, -1):
        ask_c, bid_c, kids_c = ask[c], bid[c], kids[c]
        tol = _SLOPE_TOL * max(1.0, ask_c)
        # G's pieces i..j-1 have slopes in [-ask, -bid] (to tol): a line sorts
        # below (steep,) when its slope is below, below (flat, inf) at most
        steep, flat = (-ask_c - tol,), (-bid_c + tol, np.inf)
        for Fs, Gs in sides:
            lines = []
            for k in kids_c:
                f = Fs[k]
                if f is None:
                    break
                lines += f
            else:
                # the upper envelope, lines by slope and then intercept; Z
                # holds each piece's left breakpoint, -inf the first's
                lines.sort()
                Z, pieces = [], []
                for line in lines:
                    b = line[0]
                    while pieces:
                        b0, a0, _ = pieces[-1]
                        if b0 != b:  # else parallel, and no higher than this line
                            z = (a0 - line[1]) / (b - b0)
                            if z > Z[-1]:
                                break
                        pieces.pop()
                        Z.pop()
                    else:
                        z = -np.inf
                    pieces.append(line)
                    Z.append(z)
                n = len(pieces)
                i, j = bisect_left(pieces, steep), bisect_left(pieces, flat)
                if j == 0 or i == n:  # the slopes cannot meet the bid and ask
                    continue
                za, zb = Z[i], Z[j] if j < n else np.inf
                del Z[0]
                Gs[c] = Z, pieces, za, zb
                if c < roots:
                    continue
                # F: G traded at the ask and bid (pieces i to j - 1, then
                # slope -ask through G at za, buying up to it, and -bid
                # through G at zb, selling down to it), less the dividend
                # the units held into the node earn, ga long and gb short
                H = pieces[i:j]
                if i:
                    s, v, _ = pieces[i - 1]
                    H.insert(0, (-ask_c, v + (s + ask_c) * za, c))
                if j < n:
                    s, v, _ = pieces[j]
                    H.append((-bid_c, v + (s + bid_c) * zb, c))
                ga_c, gb_c = ga[c], gb[c]
                if ga_c == gb_c:
                    Fs[c] = [(s - ga_c, v, c) for s, v, _ in H]
                    continue
                cuts = Z[max(i - 1, 0):min(j, n - 1)]
                short, long = bisect_left(cuts, 0.0) + 1, bisect_right(cuts, 0.0)
                Fs[c] = ([(s - gb_c, v, c) for s, v, _ in H[:short]]
                         + [(s - ga_c, v, c) for s, v, _ in H[long:]])
    return G


def _forward(kids, quotes, top, roots, G, end):
    """The top-down sweep of :func:`_bound_candidates` over ``G``, both
    signs node by node: per sign and node up to ``end`` the units held into
    and out of it, its density mass and its shadow price as one (4, 2,
    ``end``) array, and per sign each date-t node's price (None if none)."""
    bid, ask, ga, gb = quotes
    state = [[0.0] * end for _ in range(8)]
    won = [None] * roots, [None] * roots
    state[4][top:roots] = state[5][top:roots] = [1.0] * (roots - top)
    sides = [(G[k], *state[k::2], [None] * end, won[k]) for k in (0, 1)]
    for c in range(top, len(G[0])):
        buy, sell, kids_c = -ask[c], -bid[c], kids[c]
        for Gs, into, out, mass, price, target, prices in sides:
            g = Gs[c]
            if g is None:
                continue
            Z, pieces, za, zb = g
            z = into[c]
            held = za if z < za else zb if z > zb else z
            near = 1e-12 * (1.0 + abs(held))
            if abs(held - z) <= near:  # no trade but for rounding
                held = z
            out[c] = held
            # the pieces meeting at the position held, breakpoints within
            # rounding of it taken as one, and their owners
            (lo, v, first), (hi, _, last) = (
                pieces[bisect_left(Z, held - near)], pieces[bisect_right(Z, held + near)]
            )
            if c < roots:
                prices[c] = v + lo * held + (ask[c] if held > 0 else bid[c]) * held
            # the node's shadow price: the ask where it buys, the bid where it
            # sells, else a slope of G between them that its parent's target
            # leaves, less the dividend the units held into it earn
            if held != z:
                h = buy if held > z else sell
            else:
                # (max and min written out: the builtins cost a quarter
                # of the sweep)
                low, high = buy if buy > lo else lo, sell if sell < hi else hi
                aim = target[c]
                if aim is not None:
                    edge = aim + (ga[c] if z >= 0 else gb[c])
                    low = edge if edge > low else low
                    edge = aim + (gb[c] if z <= 0 else ga[c])
                    high = edge if edge < high else high
                h = 0.5 * (low + high)
            h = lo if lo > h else h
            h = hi if hi < h else h
            price[c] = -h
            for k in kids_c:
                into[k] = held
            m = mass[c]
            if first == last:
                mass[first], target[first] = m, h
            else:  # the two owners' slopes average to h
                share = m * (hi - h) / (hi - lo)
                mass[first], target[first] = share, lo
                mass[last], target[last] = m - share, hi
    return np.array(state).reshape(4, 2, end), won


class _Recursion:
    """The superreplication recursion of a one-security market under trade
    entry, from date ``t``, for the discounted payoff ``x`` per path: each
    date-t node's no-arbitrage bounds with a hedge and a density that attain
    them.

    The ask of a node is the least cash that superreplicates x from it, and
    the bid minus the ask of -x (Bensaid, Lesne, Pagès & Scheinkman, Math.
    Finance 1992; Roux, Tokarz & Zastawniak, Acta Appl. Math. 2008).  With
    F_c(z) the least cash that pays x on from node c given z units held into
    it, each F is convex and piecewise linear in z: at a leaf, x_c less the
    z units' exit value, long or short; above, G_c, the upper envelope of
    the children's F, traded at c's ask and bid and less the dividend z
    earns into c.  The ask is G traded at z = 0.

    On the tree's one node numbering (:class:`conic_pricer.lattice.EventTree`),
    one bottom-up sweep (:func:`_backward`) runs the recursions of -x and x
    and one top-down sweep (:func:`_forward`) reads off both sides of each
    extreme's strong duality at the node each row and column carries.  The
    hedge holds, out of each node, the position nearest the units it came in
    with at which no trade pays; as weights on the open and carry-on rows
    (as in :func:`hedge_strategy`), with the ask on the normalization, it is
    the dual.  The density is the primal: each node's mass goes to the
    children owning the pieces of G that meet at the position held, in the
    shares that average their slopes to the node's shadow price (the ask
    where it buys, the bid where it sells, in between where it holds on),
    and each carry-on row's envelope excess is the node's mass times its
    shadow price above the bid (long) or below the ask (short).  The pair is
    optimal in exact arithmetic; :meth:`conic_pricer.lp._Slice.solve` puts
    it to the LP's own certificate, and solves any extreme that fails.

    The sweeps run once, on construction; :meth:`spreads` reads the
    densities' widths off them, and :meth:`candidates` writes the pairs in
    the rows' order.
    """

    def __init__(self, model: MarketModel, t: int, x):
        tree, sec = model.tree, model.securities[0]
        top, roots, leaf, end = tree.offset[[t, t + 1, tree.horizon, tree.horizon + 1]].tolist()
        # per node, discounted: its bid and ask, and its ask and bid dividend
        # increments over the step into it, as generators_for prices the rows
        # (read by flat index into the (path, date) matrices)
        at = tree.node_path * (tree.horizon + 1) + tree.node_date
        was = at - (tree.node_date > 0)
        discount = model.discounts()[1].take(at)
        bid, ask = sec.bid.take(at) * discount, sec.ask.take(at) * discount
        ga = (sec.div_ask.take(at) - sec.div_ask.take(was)) * discount
        gb = (sec.div_bid.take(at) - sec.div_bid.take(was)) * discount
        quotes = bid.tolist(), ask.tolist(), ga.tolist(), gb.tolist()
        # each leaf's F, for -x and for x: the payoff less the exit value of the
        # units held into it, short (ask plus bid dividend) and long (bid plus ask's)
        F = [None] * end, [None] * end
        exits = zip(range(leaf, end), x.take(tree.node_path[leaf:]).tolist(),
                    (ask[leaf:] + gb[leaf:]).tolist(), (bid[leaf:] + ga[leaf:]).tolist())
        for k, v, short, long in exits:
            if short != long:
                F[0][k], F[1][k] = [(-short, -v, k), (-long, -v, k)], [(-short, v, k), (-long, v, k)]
            else:
                F[0][k], F[1][k] = [(-short, -v, k)], [(-short, v, k)]
        G = _backward(tree.children, quotes, top, roots, leaf, F)
        self.state, self.won = _forward(tree.children, quotes, top, roots, G, end)
        self.tree, self.t, self.top, self.bid, self.ask = tree, t, top, bid, ask
        # each sign's density per path: its leaf's mass over the leaf's probability
        leaves = tree.cell_index(tree.horizon)
        self.u = (self.state[2].take(leaf + leaves, axis=1)
                  / np.bincount(leaves, tree.probabilities).take(leaves))

    def spreads(self) -> np.ndarray:
        """Per sign (the bid's extreme, then the ask's) and date-t node, in
        node order, the ratio of the largest to the smallest density of the
        node's candidate on its paths: the least band width 1 + level that
        holds it.  +inf where the node has no candidate or its density
        misses a path."""
        # each node's paths side by side, in node order
        owner = self.tree.cell_index(self.t)
        u = self.u.take(owner.argsort(kind="stable"), axis=1)
        cuts = np.concatenate(([0], np.bincount(owner).cumsum()[:-1]))
        low, high = np.minimum.reduceat(u, cuts, axis=1), np.maximum.reduceat(u, cuts, axis=1)
        out = np.full(low.shape, np.inf)
        np.divide(high, low, out=out, where=low > 0.0)
        out[[[p is None for p in won[self.top:]] for won in self.won]] = np.inf
        return out

    def candidates(self, rows: NodeRows) -> list:
        """Candidate optima of each date-t node's bound slice on ``rows``,
        the trade rows of date t (``pricing._node_quotes``), ``(lo, hi)`` per
        node in node order; an extreme the recursion finds no finite price
        for is None."""
        tree, state, won, bid, ask = self.tree, self.state, self.won, self.bid, self.ask
        top, roots = self.top, len(won[0])
        # each row's weight: what it holds of the position out of its node,
        # carried on from the units that came in (long and short alike); each
        # envelope column's excess, on the node of its carry-on row
        node, side = rows.node, rows.side
        came, held = state[:2].take(node, axis=2) * side
        held = np.maximum(held, 0.0)
        kept = np.minimum(np.maximum(came, 0.0), held)
        duals = np.where(rows.carry, kept, held - kept)
        np.negative(duals[0], out=duals[0])  # the bid's extreme is the ask of -x
        col = node[: len(rows.col_owner)]
        mass, price = state[2:].take(col, axis=2)
        excess = np.where(side[: len(col)] > 0, price - bid.take(col), ask.take(col) - price)
        env = mass * np.maximum(excess, 0.0)
        xs = np.concatenate((self.u, env), axis=1)
        spans = [(0, xs.shape[1], 0, duals.shape[1])]
        if roots - top > 1:
            # each date-t node's paths, then its columns, and its rows, side by
            # side and in order: one stable sort, not a mask per node
            key = np.concatenate((2 * tree.cell_index(self.t), 2 * rows.col_owner + 1))
            xs = xs.take(key.argsort(kind="stable"), axis=1)
            duals = duals.take(rows.owner.argsort(kind="stable"), axis=1)
            xe, ye = (np.bincount(k, minlength=roots - top).cumsum().tolist()
                      for k in (key >> 1, rows.owner))
            spans = zip([0, *xe], xe, [0, *ye], ye)
        return [
            tuple(
                None if won[k][c] is None else lp.LPSolution(
                    "optimal", x=xs[k, a:b].copy(), dual_ub=duals[k, i:j].copy(),
                    dual_eq=np.array([sign * won[k][c]]),
                )
                for k, sign in ((0, -1.0), (1, 1.0))
            )
            for c, (a, b, i, j) in zip(range(top, roots), spans)
        ]


def _bound_candidates(model: MarketModel, rows: NodeRows, x) -> list:
    """:meth:`_Recursion.candidates` of ``x`` on ``rows``, the trade rows of
    a one-security market."""
    return _Recursion(model, rows.start, x).candidates(rows)
