"""The enumerated round-trip cone: the reference for the node-form rows.

Every zero-cost hedge is a conic combination of elementary round trips: open
one unit (long at the ask / short at the bid) at a root node, collect the
matching dividend stream, and liquidate according to a stopping profile - an
antichain of strictly later nodes crossed exactly once by every path through
the root.  The count is doubly exponential in the horizon (1,500 at binary
horizon 4, 919,658 at horizon 5), so the engine uses the Snell-envelope rows
of ``conic_pricer.cone.generators_for`` instead; these tests hold those rows
to this family.  Values are computed one generator and one path at a time,
summing the entry leg, the exit leg and the dividend legs in date order.
The tree navigation this needs and the engine does not (a path's node, a
node's children) is written here on ``EventTree.cell_index``.
``block_rows`` builds the node-form rows block by block from fresh arrays:
the reference the engine's in-place builder must equal entry for entry.
"""

from dataclasses import dataclass

import numpy as np

from conic_pricer import lp
from conic_pricer.acceptability import DensityBand
from conic_pricer.cone import NodeRows
from conic_pricer.errors import ValidationError
from conic_pricer.lattice import NodeRef, as_values, tail_sum
from conic_pricer.market import make_self_financing

from lp_reference import solve_ratio


@dataclass(frozen=True)
class StoppingProfile:
    """Liquidation rule: sell on first arrival at any of the sell nodes."""

    root: NodeRef
    sells: tuple


@dataclass(frozen=True)
class ConeGenerator:
    """One elementary round trip with its per-path discounted total cash flow."""

    kind: str  # "long" | "short"
    security: int
    profile: StoppingProfile
    values: np.ndarray  # (n_paths,), zero off the root's paths

    @property
    def root(self):
        return self.profile.root


def node_of(tree, t, path_index):
    """The date-t node holding path ``path_index``."""
    return NodeRef(t, int(tree.cell_index(t)[path_index]))


def children(tree, node):
    """The date-(t+1) nodes inside ``node``, in cell order; none at the
    horizon."""
    if node.time >= tree.horizon:
        return []
    kids = np.unique(tree.cell_index(node.time + 1)[list(tree.node_paths(node))])
    return [NodeRef(node.time + 1, int(k)) for k in kids]


def _covers(tree, node):
    """Antichain exact covers of ``node``'s paths by nodes at dates >= node.time;
    the node itself first, deeper covers in child order."""
    options = [(node,)]
    if node.time < tree.horizon:
        combos = [()]
        for opts in (_covers(tree, kid) for kid in children(tree, node)):
            combos = [done + extra for done in combos for extra in opts]
        options.extend(combos)
    return options


def stopping_profiles(tree, root):
    """All liquidation profiles strictly below ``root``, in deterministic order."""
    if root.time > tree.horizon - 1:
        raise ValidationError(f"round trips must start no later than t={tree.horizon - 1}")
    combos = [()]
    for opts in (_covers(tree, kid) for kid in children(tree, root)):
        combos = [done + extra for done in combos for extra in opts]
    return [StoppingProfile(root, sells) for sells in combos]


def _sell_dates(tree, profile):
    dates = np.zeros(tree.n_paths, dtype=int)
    for sell in profile.sells:
        for i in tree.node_paths(sell):
            dates[i] = sell.time
    return dates


def round_trip_values(model, kind, sec_idx, profile):
    tree = model.tree
    sec = model.securities[sec_idx]
    _, Binv = model.discounts()
    s = profile.root.time
    values = np.zeros(tree.n_paths)
    sell_date = _sell_dates(tree, profile)
    sign = 1.0 if kind == "long" else -1.0
    entry = sec.ask if kind == "long" else sec.bid
    exit_px = sec.bid if kind == "long" else sec.ask
    div = sec.div_ask if kind == "long" else sec.div_bid
    for i in tree.node_paths(profile.root):
        u = sell_date[i]
        total = -entry[i, s] * Binv[i, s] + exit_px[i, u] * Binv[i, u]
        for v in range(s + 1, u + 1):
            total += (div[i, v] - div[i, v - 1]) * Binv[i, v]
        values[i] = sign * total
    return values


def reference_generators(model, t):
    """Long and short round trips rooted at every node with date in
    t..horizon-1: roots by (date, cell), then stopping profiles, then
    security, long before short."""
    tree = model.tree
    out = []
    for s in range(t, tree.horizon):
        for node in tree.nodes(s):
            for profile in stopping_profiles(tree, node):
                for j in range(model.n_securities):
                    for kind in ("long", "short"):
                        values = round_trip_values(model, kind, j, profile)
                        out.append(ConeGenerator(kind, j, profile, values))
    return out


def reference_generator_matrix(model, t):
    return np.array([g.values for g in reference_generators(model, t)])


def generator_strategy(model, gen):
    """The zero-cost self-financing strategy behind a generator: one unit
    (minus one for shorts) from the root until each path's sell node."""
    tree = model.tree
    legs = np.zeros((tree.horizon + 1, model.n_securities, tree.n_paths))
    sign = 1.0 if gen.kind == "long" else -1.0
    sell_date = _sell_dates(tree, gen.profile)
    for i in tree.node_paths(gen.root):
        for v in range(gen.root.time + 1, sell_date[i] + 1):
            legs[v, gen.security, i] = sign
    return make_self_financing(model, legs)


def node_rows_of(model, rows, gen):
    """Weights on the node-form ``rows`` that trade ``gen``: its open row at
    the root plus a carry-on row at every node it holds through."""
    tree = model.tree
    side = 1 if gen.kind == "long" else -1
    sell_date = _sell_dates(tree, gen.profile)
    w = np.zeros(len(rows))
    for r in range(len(rows)):
        if rows.security[r] != gen.security or rows.side[r] != side:
            continue
        node = NodeRef(int(rows.date[r]), int(rows.cell[r]))
        i = tree.node_paths(node)[0]
        if node == gen.root and not rows.carry[r]:
            w[r] = 1.0
        elif (
            rows.carry[r]
            and node_of(tree, gen.root.time, i) == gen.root
            and gen.root.time < node.time < sell_date[i]
        ):
            w[r] = 1.0
    return w


# ---------------------------------------------------------------------------
# the pricing programs over the enumerated cone


def best_single_ratio(model, t):
    """Largest gain-loss ratio of a single round trip at its date-t node,
    among those with a gain above 1e-9 (0 when there is none)."""
    tree = model.tree
    p = tree.probabilities
    best = 0.0
    for g in reference_generators(model, t):
        idx = list(tree.node_paths(_owner(tree, t, g)))
        gain = float(p[idx] @ g.values[idx])
        loss = float(p[idx] @ np.maximum(-g.values[idx], 0.0))
        if gain > 1e-9:
            best = max(best, gain / loss if loss > 0 else np.inf)
    return best


def _owner(tree, t, g):
    return node_of(tree, t, tree.node_paths(g.root)[0])


def enumerated_arbitrage(model, t):
    """The date-t node of the first arbitrage among conic generator
    combinations (round trips all within rounding of zero left out), or None."""
    tree = model.tree
    p = tree.probabilities
    gens = reference_generators(model, t)
    for node in tree.nodes(t):
        paths = list(tree.node_paths(node))
        G = np.array([g.values for g in gens if _owner(tree, t, g) == node])
        size = np.max(np.abs(G), axis=1)
        G = G[size > 1e-12 * max(1.0, float(np.max(size)))]
        if not len(G):
            continue
        mass = G[:, paths] @ p[paths]
        prog = lp.LinearProgram.build(
            "min", np.ones(len(G)),
            a_ub=np.vstack([-G[:, paths].T, -mass[None, :]]),
            b_ub=np.concatenate([np.zeros(len(paths)), [-1.0]]),
        )
        if lp.solve(prog).status == "optimal":
            return node
    return None


def enumerated_polytope(model, t, entry="trade", gamma=None):
    """p * G <= slack for every round trip rooted at dates >= t (entry spread
    refunded at date-t roots under ``mark``, t >= 1); with ``gamma`` the band
    m <= u <= (1 + gamma) m and sum p u = 1.

    Without costs, round trips are sums of others in exact arithmetic but not
    in floats, and the equalities they imply contradict each other by an ulp;
    each row therefore gets a slack of 1e-12 times its largest entry (at
    least 1e-12).
    """
    tree = model.tree
    p = tree.probabilities
    B, _ = model.discounts()
    gens = reference_generators(model, t)
    rows = np.array([g.values for g in gens])
    if entry == "mark" and t >= 1:
        for k, g in enumerate(gens):
            if g.root.time == t:
                sec = model.securities[g.security]
                idx = list(tree.node_paths(g.root))
                rows[k, idx] += (sec.ask[idx, t] - sec.bid[idx, t]) / B[idx, t]
    rows = rows * p
    slack = 1e-12 * np.maximum(np.max(np.abs(rows), axis=1), 1.0)
    n = len(p)
    if gamma is None:
        return {"a_ub": rows, "b_ub": slack}
    DensityBand(gamma)
    band = np.vstack([
        np.hstack([-np.eye(n), np.ones((n, 1))]),
        np.hstack([np.eye(n), np.full((n, 1), -(1.0 + gamma))]),
    ])
    a_ub = np.vstack([np.hstack([rows, np.zeros((len(rows), 1))]), band])
    return {
        "a_ub": a_ub, "b_ub": np.concatenate([slack, np.zeros(2 * n)]),
        "a_eq": np.append(p, 0.0)[None, :], "b_eq": np.ones(1),
    }


def enumerated_ngd(model, t, gamma, entry="trade"):
    """Whether a band density satisfies every round-trip row."""
    polytope = enumerated_polytope(model, t, entry, gamma)
    prog = lp.LinearProgram.build("max", np.zeros(polytope["a_ub"].shape[1]), **polytope)
    return lp.solve(prog).status == "optimal"


def enumerated_quotes(model, cash_flow, t, entry="trade", gamma=None):
    """(lower, upper) per date-t node over the enumerated polytope, None where
    it charges no density to the node.  Without the band, each node's program
    is normalized on the node's own mass."""
    tree = model.tree
    p = tree.probabilities
    _, Binv = model.discounts()
    x = tail_sum(as_values(cash_flow) * Binv, t + 1)
    polytope = enumerated_polytope(model, t, entry, gamma)
    width = polytope["a_ub"].shape[1]
    out = []
    for node in tree.nodes(t):
        idx = list(tree.node_paths(node))
        num, den = np.zeros(width), np.zeros(width)
        num[idx] = p[idx] * x[idx]
        den[idx] = p[idx]
        program = polytope if gamma is not None else dict(
            polytope, a_eq=den[None, :], b_eq=np.ones(1)
        )
        lo, hi = solve_ratio(num, den, **program)
        out.append((lo.value, hi.value) if hi.status == "optimal" else None)
    return out


# ---------------------------------------------------------------------------
# the whole-tree route over the node-form rows


def node_form_polytope(model, rows, gamma=None):
    """The density polytope of the node-form ``rows`` over the whole tree, as
    ``a_ub``/``b_ub`` (and ``a_eq``/``b_eq``) keywords of ``lp.LinearProgram``.

    Columns: u per path, then the envelope excesses of ``rows``; with
    ``gamma``, one band scalar m for the whole tree.  Rows, in order: the cone
    rows; with ``gamma``, the band rows m <= u <= (1 + gamma) m and the
    normalization sum u * p = 1.  Without ``gamma`` the rows form a cone.
    """
    a_ub = np.hstack([rows.a_u, rows.a_v])
    if gamma is None:
        return {"a_ub": a_ub, "b_ub": np.zeros(len(rows))}
    DensityBand(gamma)
    n, k = rows.a_u.shape[1], rows.a_v.shape[1]
    eye, pad = np.eye(n), np.zeros((n, k))
    a_ub = np.vstack([
        np.hstack([a_ub, np.zeros((len(rows), 1))]),
        np.hstack([-eye, pad, np.ones((n, 1))]),
        np.hstack([eye, pad, np.full((n, 1), -(1.0 + gamma))]),
    ])
    a_eq = np.concatenate([model.probabilities, np.zeros(k + 1)])[None, :]
    return {"a_ub": a_ub, "b_ub": np.zeros(a_ub.shape[0]), "a_eq": a_eq, "b_eq": np.ones(1)}


# ---------------------------------------------------------------------------
# the node-form rows built block by block


def block_rows(model, t, entry="trade"):
    """The rows of ``conic_pricer.cone.generators_for`` with each (date,
    security, kind) block built from fresh arrays and the blocks stacked at
    the end, the carry-on blocks first.  The engine writes the same rows in
    place; it must equal this entry for entry and in the same order, because
    row order sets the pivot paths."""
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
    base, width = {}, 0
    for s in range(t + 1, T):
        for j in range(S):
            base[s, j] = width
            width += 2 * counts[s]
    col_owner = np.array([c for s in range(t + 1, T)
                          for c in np.tile(tree.cell_index(t)[heads[s]], 2 * S)], dtype=int)
    prices = [(sec.bid * Binv, sec.ask * Binv) for sec in model.securities]
    blocks = {False: [], True: []}  # open rows, carry-on rows: (a_u, a_v, meta)
    for s in range(t, T):
        k, k_next = counts[s], counts[s + 1]
        cells = tree.cell_index(s)
        weight = (np.arange(k)[:, None] == cells[None, :]) * p  # p on each node's paths
        parent = cells[heads[s + 1]]
        hold = (parent[None, :] == np.arange(k)[:, None]).astype(float)
        owner = tree.cell_index(t)[heads[s]]
        mark = entry == "mark" and s == t >= 1
        for j, sec in enumerate(model.securities):
            bid, ask = prices[j]
            long_exit = bid[:, s + 1] + (sec.div_ask[:, s + 1] - sec.div_ask[:, s]) * Binv[:, s + 1]
            short_exit = ask[:, s + 1] + (sec.div_bid[:, s + 1] - sec.div_bid[:, s]) * Binv[:, s + 1]
            kinds = [
                (1, long_exit - (bid[:, s] if mark else ask[:, s]), 0),
                (-1, (ask[:, s] if mark else bid[:, s]) - short_exit, k_next),
            ]
            if s > t:
                kinds += [(1, long_exit - bid[:, s], 0), (-1, ask[:, s] - short_exit, k_next)]
            for n_kind, (side, value, shift) in enumerate(kinds):
                block = np.zeros((k, width))
                if s + 1 < T:
                    at = base[s + 1, j] + shift
                    block[:, at : at + k_next] = hold
                if n_kind >= 2:
                    at = base[s, j] + (0 if side > 0 else k)
                    block[:, at : at + k] -= np.eye(k)
                info = [np.full(k, s), np.arange(k), np.full(k, j), np.full(k, side),
                        np.full(k, n_kind >= 2), owner]
                blocks[n_kind >= 2].append((weight * value, block, np.array(info)))
    a_u, a_v, meta = zip(*blocks[True], *blocks[False])
    date, cell, security, side, carry, owner = np.hstack(meta)
    return NodeRows(start=t, a_u=np.vstack(a_u), a_v=np.vstack(a_v), date=date, cell=cell,
                    security=security, side=side, carry=carry == 1, owner=owner,
                    col_owner=col_owner)
