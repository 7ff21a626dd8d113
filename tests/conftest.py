"""Shared builders for randomized trees, markets and strategies."""

import functools
import importlib.util
import itertools
import os
import sys

import numpy as np
import pytest

from conic_pricer.cli import model_from_dict, payoff_from_dict
from conic_pricer.lattice import EventTree
from conic_pricer.market import (
    MarketModel,
    Security,
    TradingStrategy,
    apply_transaction_costs,
    make_self_financing,
)
from conic_pricer.pricing import STATUS_OK

TABLE_BIDS = np.array(
    [
        [50, 80, 90],
        [50, 80, 70],
        [50, 80, 60],
        [50, 40, 60],
        [50, 40, 30],
    ],
    dtype=float,
)
TABLE_PROBS = np.array([1 / 10, 1 / 8, 1 / 4, 1 / 4, 11 / 40])
TABLE_PARTS = [
    [(0, 1, 2, 3, 4)],
    [(0, 1, 2), (3, 4)],
    [(0,), (1,), (2,), (3,), (4,)],
]


def two_period_tree() -> EventTree:
    return EventTree(2, TABLE_PROBS, TABLE_PARTS)


def two_period_model(lam: float = 0.0) -> MarketModel:
    tree = two_period_tree()
    return MarketModel(tree, 0.0, [apply_transaction_costs(TABLE_BIDS, lam, name="stock")])


def binomial_model(probs=(0.25, 0.75), bid_up=80.0, bid_dn=40.0, spot=50.0, lam=0.0, rate=0.0):
    """One-period two-state market."""
    tree = EventTree(1, probs, [[(0, 1)], [(0,), (1,)]])
    bids = np.array([[spot, bid_up], [spot, bid_dn]])
    return MarketModel(tree, rate, [apply_transaction_costs(bids, lam, name="stock")])


def binary_tree_market(u, d, r, p_up, lam, horizon=4) -> MarketModel:
    """Recombination-free binary market on one stock bid 100 at the root, up
    by u or down by d each period (path bit 0 is an up move, built as the
    benchmark builds its tree markets), ask = bid * (1 + lam), rate r."""
    n = 2**horizon
    probs, bids = np.ones(n), np.full((n, horizon + 1), 100.0)
    for i in range(n):
        for k in range(horizon):
            up = (i >> (horizon - 1 - k)) & 1 == 0
            probs[i] *= p_up if up else 1.0 - p_up
            bids[i, k + 1] = bids[i, k] * (u if up else d)
    parts = [[tuple(range(k * (n >> t), (k + 1) * (n >> t))) for k in range(2**t)]
             for t in range(horizon + 1)]
    tree = EventTree(horizon, probs, parts)
    return MarketModel(tree, r, [apply_transaction_costs(bids, lam)])


def quote_status(quote) -> str:
    """The first status other than ``ok`` among a quote's entries, else ``ok``."""
    bad = [e.status for e in quote.entries if e.status != STATUS_OK]
    return bad[0] if bad else STATUS_OK


def random_tree(rng, n_paths: int, horizon: int) -> EventTree:
    parts = [[tuple(range(n_paths))]]
    for _ in range(horizon):
        nxt = []
        for cell in parts[-1]:
            cell = list(cell)
            if len(cell) > 1 and rng.random() < 0.85:
                k = int(rng.integers(2, min(3, len(cell)) + 1))
                cuts = sorted(rng.choice(range(1, len(cell)), size=k - 1, replace=False))
                nxt.extend(tuple(p.tolist()) for p in np.split(np.array(cell), cuts))
            else:
                nxt.append(tuple(cell))
        parts.append(nxt)
    p = rng.dirichlet(np.ones(n_paths)) + 0.02
    return EventTree(horizon, p / p.sum(), parts)


def random_adapted(rng, tree, base=100.0, vol=0.2, floor=None):
    vals = np.zeros((tree.n_paths, tree.horizon + 1))
    for t in range(tree.horizon + 1):
        for cell in tree.partitions[t]:
            vals[list(cell), t] = base * np.exp(rng.normal(0.0, vol))
    if floor is not None:
        vals = np.maximum(vals, floor)
    return vals


def random_cashflow(rng, tree, scale=5.0):
    vals = np.zeros((tree.n_paths, tree.horizon + 1))
    for t in range(tree.horizon + 1):
        for cell in tree.partitions[t]:
            vals[list(cell), t] = rng.normal(0.0, scale)
    return vals


def random_market(rng, tree, *, lam=None, dividends=False, rates=False) -> MarketModel:
    n, T = tree.n_paths, tree.horizon
    bid = random_adapted(rng, tree, base=100.0, vol=0.15)
    lam = float(rng.uniform(0.0, 0.04)) if lam is None else lam
    if dividends:
        d_ask = random_adapted(rng, tree, base=0.5, vol=0.3)
        d_ask[:, 0] = 0.0
        d_bid = d_ask + np.abs(random_adapted(rng, tree, base=0.2, vol=0.3))
        d_bid[:, 0] = 0.0
        div_ask, div_bid = np.cumsum(d_ask, axis=1), np.cumsum(d_bid, axis=1)
    else:
        div_ask = div_bid = np.zeros((n, T + 1))
    if rates:
        r = np.zeros((n, T))
        for t in range(T):
            for cell in tree.partitions[t]:
                r[list(cell), t] = rng.uniform(0.0, 0.08)
    else:
        r = np.zeros((n, T))
    sec = Security("s", bid, bid * (1.0 + lam), div_ask, div_bid)
    return MarketModel(tree, r, [sec])


def arbitrage_free_market(rng, tree, *, dividends, rates, lam=None, securities=1):
    """Bid = the discounted conditional expectation, under a random equivalent
    measure, of the terminal price plus the dividends still to come; ask =
    bid * (1 + lam).  The measure prices every round trip at most zero, so
    the market is free of arbitrage by construction.

    ``lam`` is drawn from [0.002, 0.03] unless given.  With several
    ``securities`` each gets its own terminal price and dividends, all priced
    by the one measure; the first is drawn as the only one would be.
    """
    n, T = tree.n_paths, tree.horizon
    r = np.zeros((n, T))
    if rates:
        for t in range(T):
            for cell in tree.partitions[t]:
                r[list(cell), t] = rng.uniform(0.0, 0.05)
    Binv = 1.0 / np.hstack([np.ones((n, 1)), np.cumprod(1.0 + r, axis=1)])
    q, priced = None, []
    for _ in range(securities):
        div = np.zeros((n, T + 1))
        if dividends:
            div = np.cumsum(random_adapted(rng, tree, base=1.0, vol=0.3), axis=1)
            div -= div[:, :1]
        if q is None:
            q = rng.dirichlet(np.ones(n)) + 0.05
        bid = np.zeros((n, T + 1))
        bid[:, T] = random_adapted(rng, tree)[:, T]
        gains = bid[:, T] * Binv[:, T]
        for t in range(T - 1, -1, -1):
            gains = gains + (div[:, t + 1] - div[:, t]) * Binv[:, t + 1]
            for cell in tree.partitions[t]:
                idx = list(cell)
                bid[idx, t] = (q[idx] @ gains[idx]) / q[idx].sum() / Binv[idx[0], t]
        priced.append((bid, div))
    if lam is None:
        lam = rng.uniform(0.002, 0.03)
    secs = [
        Security("s" if j == 0 else f"s{j + 1}", bid, bid * (1.0 + lam), div, div)
        for j, (bid, div) in enumerate(priced)
    ]
    return MarketModel(tree, r, secs)


def one_security_panel():
    """60 one-security markets free of arbitrage, with a random cash flow
    each, as ``(model, flow)``: 3-11 paths over horizons 2-4, dividends on
    every other market, stochastic rates on two in three, and costs 0,
    0.004, 0.02 or drawn from [0.002, 0.03] in turn.  On every sixth market
    (from the third) a short position pays more dividend than a long one
    earns, which leaves the generating measure a density of the cone."""
    for k in range(60):
        rng = np.random.default_rng(1000 + k)
        tree = random_tree(rng, 3 + k % 9, 2 + k % 3)
        model = arbitrage_free_market(
            rng, tree, dividends=k % 2 == 0, rates=k % 3 != 0, lam=(0.0, 0.004, 0.02, None)[k % 4]
        )
        if k % 6 == 2:
            sec = model.securities[0]
            extra = random_adapted(rng, tree, base=0.2, vol=0.3)
            extra[:, 0] = 0.0
            sec = Security(sec.name, sec.bid, sec.ask, sec.div_ask, sec.div_bid + extra.cumsum(1))
            model = MarketModel(tree, model.rates, [sec])
        yield model, random_cashflow(rng, tree)


def one_security_horizons(count):
    """``count`` one-security markets free of arbitrage, with a random cash
    flow each, as ``(model, flow)``, over the horizons ``one_security_panel``
    lacks: horizon 1 (2-13 paths), 5 and 6 (4-13 paths) in turn, dividends
    on every other market, stochastic rates on one in three, and costs 0,
    0.004, 0.02 or drawn from [0.002, 0.03] in turn."""
    for k in range(count):
        rng = np.random.default_rng(5000 + k)
        horizon = (1, 5, 6)[k % 3]
        tree = random_tree(rng, 2 + k % 12 if horizon == 1 else 4 + k % 10, horizon)
        model = arbitrage_free_market(
            rng, tree, dividends=k % 2 == 0, rates=k % 3 == 1, lam=(0.0, 0.004, 0.02, None)[k % 4]
        )
        yield model, random_cashflow(rng, tree)


def random_legs(rng, tree, n_securities=1, scale=2.0):
    legs = np.zeros((tree.horizon + 1, n_securities, tree.n_paths))
    for t in range(1, tree.horizon + 1):
        for j in range(n_securities):
            for cell in tree.partitions[t - 1]:
                legs[t, j, list(cell)] = rng.uniform(-scale, scale)
    return legs


def random_self_financing(rng, model):
    """A self-financing strategy over random legs, its bank position shifted
    by a random amount at every date: cash held throughout still finances
    itself."""
    phi = make_self_financing(model, random_legs(rng, model.tree, model.n_securities))
    phi.holdings[1:, 0] += rng.normal(0.0, 5.0)
    return phi


def zero_strategy(model):
    """The strategy that holds nothing."""
    return TradingStrategy(
        np.zeros((model.tree.horizon + 1, model.n_securities + 1, model.tree.n_paths))
    )


def random_box_lp(rng):
    """``(sense, c, a_ub, b_ub, upper)`` of a random LP over a box with
    x = 0 feasible, for :func:`lp_vertex_oracle` to check."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 5))
    a_ub = rng.normal(size=(m, n))
    b_ub = np.abs(rng.normal(size=m)) + 0.1
    upper = rng.uniform(0.5, 3.0, size=n)
    c = rng.normal(size=n)
    return "max" if rng.random() < 0.5 else "min", c, a_ub, b_ub, upper


def lp_vertex_oracle(c, a_ub, b_ub, upper, sense="max"):
    """Brute-force optimum over {a_ub x <= b_ub, 0 <= x <= upper} by
    enumerating all candidate vertices (n active constraints at a time)."""
    c = np.asarray(c, float)
    n = c.shape[0]
    rows = [np.asarray(a_ub, float)] if a_ub is not None else []
    rhs = [np.asarray(b_ub, float)] if b_ub is not None else []
    rows.append(-np.eye(n))
    rhs.append(np.zeros(n))
    if upper is not None:
        rows.append(np.eye(n))
        rhs.append(np.asarray(upper, float))
    A = np.vstack(rows)
    b = np.concatenate(rhs)
    best = None
    for combo in itertools.combinations(range(A.shape[0]), n):
        sub = A[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, b[list(combo)])
        if np.all(A @ x <= b + 1e-9):
            v = float(c @ x)
            if best is None or (v > best if sense == "max" else v < best):
                best = v
    return best


@functools.cache
def _perfbench(name):
    """``perfbench/<name>.py``, imported once and never changed."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def perfbench_tracing():
    """``perfbench/tracing.py``, which imports ``workloads`` by name."""
    _perfbench("workloads")
    return _perfbench("tracing")


def tree_workload_market(k):
    """Market ``k`` of the benchmark's ``tree`` workload and its payoff."""
    workloads = _perfbench("workloads")
    market = workloads.binary_market("tree", k, workloads.TREE_HORIZON)
    model = model_from_dict(market.model_dict())
    return model, payoff_from_dict(model, market.payoff_dict())


def ladder_workload_market(horizon):
    """The benchmark's horizon-ladder market of ``horizon`` and its payoff."""
    workloads = _perfbench("workloads")
    market = workloads.ladder_market(horizon)
    model = model_from_dict(market.model_dict())
    return model, payoff_from_dict(model, market.payoff_dict())


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` wraps ``module.name`` for the rest of the
    test (or until ``monkeypatch.undo()``) and returns a list that gains one
    entry per call."""

    def wrap(module, name):
        calls, real = [], getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    return wrap
