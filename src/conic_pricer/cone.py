"""Finite generating family of the hedging cone, and arbitrage detection.

Every zero-cost self-financing strategy decomposes, per security, into
nonnegative combinations of elementary *round trips*: open one unit (long at
the ask / short at the bid) at a root node, collect the matching dividend
stream, and liquidate according to a stopping profile - an antichain of
strictly later nodes crossed exactly once by every path through the root.
The discounted terminal value of each round trip is recorded per path; conic
combinations of these generators span the attainable hedging cash flows up to
thrown-away (nonnegative) amounts, which never matter for the "<= 0 under a
nonnegative measure" constraints assembled downstream.

Arbitrage detection solves, per node, a feasibility LP over conic weights:
a combination that is pathwise nonnegative on the node with strictly positive
probability mass is an arbitrage witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lp
from .errors import ComputationError, ValidationError
from .lattice import EventTree, NodeRef
from .market import MarketModel, TradingStrategy, make_self_financing

__all__ = [
    "StoppingProfile",
    "ConeGenerator",
    "GeneratorSet",
    "ArbitrageWitness",
    "stopping_profiles",
    "generators_for",
    "generator_strategy",
    "arbitrage_check",
]

DEFAULT_GENERATOR_CAP = 100_000


@dataclass(frozen=True)
class StoppingProfile:
    """Liquidation rule: sell on first arrival at any of the sell nodes."""

    root: NodeRef
    sells: tuple[NodeRef, ...]


@dataclass(frozen=True)
class ConeGenerator:
    """One elementary round trip with its per-path discounted total cash flow."""

    kind: str  # "long" | "short"
    security: int
    profile: StoppingProfile
    values: np.ndarray  # (n_paths,), zero off the root's paths

    @property
    def root(self) -> NodeRef:
        return self.profile.root


@dataclass(frozen=True)
class GeneratorSet:
    start: int
    generators: tuple[ConeGenerator, ...]

    def __len__(self):
        return len(self.generators)

    def matrix(self) -> np.ndarray:
        return np.array([g.values for g in self.generators])


def _covers(tree: EventTree, node: NodeRef) -> list[tuple[NodeRef, ...]]:
    """Antichain exact covers of ``node``'s paths by nodes at dates >= node.time.

    The cover consisting of the node itself comes first; deeper covers follow
    in child order, which keeps the overall enumeration deterministic.
    """
    options: list[tuple[NodeRef, ...]] = [(node,)]
    if node.time < tree.horizon:
        kid_options = [_covers(tree, kid) for kid in tree.children(node)]
        combos: list[tuple[NodeRef, ...]] = [()]
        for opts in kid_options:
            combos = [done + extra for done in combos for extra in opts]
        options.extend(combos)
    return options


def _count_covers(tree: EventTree, node: NodeRef) -> int:
    if node.time >= tree.horizon:
        return 1
    prod = 1
    for kid in tree.children(node):
        prod *= _count_covers(tree, kid)
    return 1 + prod


def stopping_profiles(tree: EventTree, root: NodeRef) -> list[StoppingProfile]:
    """All liquidation profiles strictly below ``root``, in deterministic order."""
    if root.time > tree.horizon - 1:
        raise ValidationError(
            f"round trips must start no later than t={tree.horizon - 1}"
        )
    kid_options = [_covers(tree, kid) for kid in tree.children(root)]
    combos: list[tuple[NodeRef, ...]] = [()]
    for opts in kid_options:
        combos = [done + extra for done in combos for extra in opts]
    return [StoppingProfile(root, sells) for sells in combos]


def _profile_count(tree: EventTree, root: NodeRef) -> int:
    prod = 1
    for kid in tree.children(root):
        prod *= _count_covers(tree, kid)
    return prod


def _sell_dates(tree: EventTree, profile: StoppingProfile) -> np.ndarray:
    """Per-path liquidation date (0 off the root's paths)."""
    dates = np.zeros(tree.n_paths, dtype=int)
    for sell in profile.sells:
        for i in tree.node_paths(sell):
            dates[i] = sell.time
    return dates


def _round_trips(
    model: MarketModel, root: NodeRef, profiles: list[StoppingProfile]
) -> np.ndarray:
    """Discounted round-trip values of every profile under ``root``.

    Shape (profiles, securities, 2, n_paths), long before short, zero off the
    root's paths.  Each path's total adds the entry leg, the exit leg and then
    the dividend legs date by date, the same float operations as a path-by-path
    sum.
    """
    tree = model.tree
    _, Binv = model.discounts()
    s = root.time
    idx = np.asarray(tree.node_paths(root))
    rows = idx[None, :]
    sell = np.array([_sell_dates(tree, prof)[idx] for prof in profiles])
    out = np.zeros((len(profiles), model.n_securities, 2, tree.n_paths))
    for j, sec in enumerate(model.securities):
        sides = (
            (1.0, sec.ask, sec.bid, sec.div_ask),
            (-1.0, sec.bid, sec.ask, sec.div_bid),
        )
        for side, (sign, entry, exit_px, div) in enumerate(sides):
            total = -entry[idx, s] * Binv[idx, s] + exit_px[rows, sell] * Binv[rows, sell]
            for v in range(s + 1, tree.horizon + 1):
                step = (div[idx, v] - div[idx, v - 1]) * Binv[idx, v]
                total = np.where(v <= sell, total + step, total)
            out[:, j, side, idx] = sign * total
    return out


def generators_for(
    model: MarketModel, t: int, *, cap: int = DEFAULT_GENERATOR_CAP
) -> GeneratorSet:
    """Long and short round trips rooted at every node with date in t..horizon-1.

    Enumeration order: roots by (date, cell index), then stopping profiles,
    then security index, long before short.
    """
    tree = model.tree
    if not 0 <= t <= tree.horizon - 1:
        raise ValidationError(f"start date {t} outside 0..{tree.horizon - 1}")
    count = 0
    roots = []
    for s in range(t, tree.horizon):
        for node in tree.nodes(s):
            roots.append(node)
            count += _profile_count(tree, node) * model.n_securities * 2
    if count > cap:
        raise ComputationError(
            f"generator count {count} exceeds cap {cap}; "
            "use a smaller horizon or a narrower tree"
        )
    gens: list[ConeGenerator] = []
    for node in roots:
        profiles = stopping_profiles(tree, node)
        values = _round_trips(model, node, profiles)
        for p, profile in enumerate(profiles):
            for j in range(model.n_securities):
                for side, kind in enumerate(("long", "short")):
                    gens.append(
                        ConeGenerator(
                            kind=kind,
                            security=j,
                            profile=profile,
                            values=values[p, j, side],
                        )
                    )
    return GeneratorSet(start=t, generators=tuple(gens))


def _enumeration(
    model: MarketModel, t: int, generators: Optional[GeneratorSet], entry: str = "trade"
) -> GeneratorSet:
    """``generators`` when the caller has enumerated the date-t round trips
    already, else a fresh enumeration, after checking the pricing ``entry``
    convention the caller will apply to them."""
    if entry not in ("trade", "mark"):
        raise ValidationError(f"entry must be 'trade' or 'mark', got {entry!r}")
    if generators is None:
        return generators_for(model, t)
    if generators.start != t:
        raise ValidationError(f"generators start at t={generators.start}, not at t={t}")
    return generators


def generator_strategy(model: MarketModel, gen: ConeGenerator) -> TradingStrategy:
    """The explicit zero-cost self-financing strategy behind a generator.

    Holding one (long) or minus one (short) unit from the root until each
    path's sell node, with the savings account absorbing all cash, reproduces
    ``gen.values`` as the discounted terminal wealth.
    """
    tree = model.tree
    n, T, S = tree.n_paths, tree.horizon, model.n_securities
    legs = np.zeros((T + 1, S, n))
    sign = 1.0 if gen.kind == "long" else -1.0
    s = gen.root.time
    sell_date = _sell_dates(tree, gen.profile)
    for i in tree.node_paths(gen.root):
        for v in range(s + 1, sell_date[i] + 1):
            legs[v, gen.security, i] = sign
    return make_self_financing(model, legs)


@dataclass(frozen=True)
class ArbitrageWitness:
    node: NodeRef
    weights: np.ndarray  # conic weights over the node's generator list
    generators: tuple[ConeGenerator, ...]
    cash_flow: np.ndarray  # per-path discounted total of the combination


def arbitrage_check(
    model: MarketModel,
    t: int,
    *,
    tol: float = lp.DEFAULT_TOL,
    generators: Optional[GeneratorSet] = None,
) -> Optional[ArbitrageWitness]:
    """Search for an arbitrage among hedging cash flows initiated at date t.

    Per date-t node, a feasibility LP looks for conic generator weights whose
    combined cash flow is pathwise nonnegative on the node and carries at
    least one unit of probability mass.  Thrown-away amounts only lower cash
    flows, so the generator family can neither fabricate nor hide one.
    Round trips worth zero up to rounding are left out: every value within
    1e-12 * max(1, largest value on the node) of zero, as across a node with a
    single child in a frictionless market.  Huge weights on their float
    residue would otherwise fake the unit of mass.
    ``generators`` is the date-t enumeration when the caller already has it.
    """
    tree = model.tree
    gens = _enumeration(model, t, generators)
    G_all = gens.matrix()
    # a generator belongs to the date-t node above its root
    roots = {g.root for g in gens.generators}
    owner = {r: tree.node_of(t, tree.node_paths(r)[0]) for r in roots}
    p = tree.probabilities
    for node in tree.nodes(t):
        paths = list(tree.node_paths(node))
        pick = [k for k, g in enumerate(gens.generators) if owner[g.root] == node]
        size = np.max(np.abs(G_all[pick]), axis=1, initial=0.0)
        floor = 1e-12 * max(1.0, float(np.max(size, initial=0.0)))
        pick = [k for k, s in zip(pick, size) if s > floor]
        if not pick:
            continue
        G = G_all[pick]  # (k, n_paths)
        mass = G[:, paths] @ p[paths]
        k = len(pick)
        a_ub = np.vstack([-G[:, paths].T, -mass[None, :]])
        b_ub = np.concatenate([np.zeros(len(paths)), [-1.0]])
        prog = lp.LinearProgram.build(
            "min", np.ones(k), a_ub=a_ub, b_ub=b_ub
        )
        sol = lp.solve(prog, tol=tol)
        if sol.status == "optimal":
            flow = sol.x @ G
            return ArbitrageWitness(
                node=node,
                weights=sol.x,
                generators=tuple(gens.generators[j] for j in pick),
                cash_flow=flow,
            )
    return None
