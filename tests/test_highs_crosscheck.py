"""lp.solve and noarb_bounds against HiGHS, a test-only oracle.

scipy is not a dependency of the package; without it these tests skip.
"""

import itertools

import numpy as np
import pytest

optimize = pytest.importorskip("scipy.optimize")

from conic_pricer import lp  # noqa: E402
from conic_pricer.cone import generators_for  # noqa: E402
from conic_pricer.lp import solve  # noqa: E402
from conic_pricer.pricing import (  # noqa: E402
    STATUS_OK,
    _node_cone,
    _with_band,
    good_deal_prices,
    liquidity_surface,
    noarb_bounds,
)

from cone_reference import reference_generator_matrix  # noqa: E402
from conftest import arbitrage_free_market, random_cashflow, random_tree  # noqa: E402
from test_lp import SHAPES  # noqa: E402
import test_pricing  # noqa: E402

HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def highs(c, sense, a_ub=None, b_ub=None, a_eq=None, b_eq=None, upper=None):
    n = len(c)
    bounds = [(0.0, None if upper is None or not np.isfinite(u) else u)
              for u in (upper if upper is not None else [None] * n)]
    res = optimize.linprog(
        -np.asarray(c) if sense == "max" else c,
        A_ub=a_ub if a_ub is not None and len(a_ub) else None,
        b_ub=b_ub if a_ub is not None and len(a_ub) else None,
        A_eq=a_eq if a_eq is not None and len(a_eq) else None,
        b_eq=b_eq if a_eq is not None and len(a_eq) else None,
        bounds=bounds, method="highs",
    )
    value = -res.fun if sense == "max" and res.status == 0 else res.fun
    return HIGHS_STATUS[res.status], value


@pytest.mark.parametrize("shape", SHAPES, ids=lambda f: f.__name__[1:])
def test_lp_values_match_highs(shape):
    rng = np.random.default_rng(99)
    for _ in range(20):
        prog = shape(rng)
        sol = solve(prog)
        status, value = highs(
            prog.c, prog.sense, prog.a_ub, prog.b_ub, prog.a_eq, prog.b_eq, prog.upper
        )
        assert sol.status == status
        if status == "optimal":
            assert sol.value == pytest.approx(value, rel=1e-7, abs=1e-7)


def highs_node_bounds(model, flow, t, node):
    """Range of the node's conditional discounted tail over densities u >= 0
    with E[u G] <= 0 for every enumerated round trip G and E[u] = 1, by
    Charnes-Cooper in (y, s) = (s u, s)."""
    tree = model.tree
    p = tree.probabilities
    _, Binv = model.discounts()
    x = (flow * Binv)[:, t + 1:].sum(axis=1)
    idx = list(tree.node_paths(node))
    num = np.zeros(tree.n_paths + 1)
    den = np.zeros(tree.n_paths + 1)
    num[idx] = p[idx] * x[idx]
    den[idx] = p[idx]
    G = reference_generator_matrix(model, t) * p
    a_ub = np.hstack([G, np.zeros((G.shape[0], 1))])
    a_eq = np.vstack([den, np.append(p, -1.0)])
    out = []
    for sense in ("min", "max"):
        status, value = highs(num, sense, a_ub, np.zeros(G.shape[0]), a_eq, [1.0, 0.0])
        assert status == "optimal"
        out.append(value)
    return out


@pytest.fixture(scope="module")
def sweeps():
    """Per horizon: (model, flow, t, engine entry, HiGHS low, HiGHS high) for
    every date-t node of ten random arbitrage-free markets."""
    out = {}
    for horizon in (2, 3):
        rng = np.random.default_rng(20261018 + horizon)
        rows = out[horizon] = []
        for k in range(10):
            tree = random_tree(rng, int(rng.integers(3, 7)), horizon)
            model = arbitrage_free_market(
                rng, tree, dividends=bool(k % 2), rates=bool(k % 3)
            )
            flow = random_cashflow(rng, tree)
            for t in range(horizon):
                quote = noarb_bounds(model, flow, t)
                assert quote.status() == STATUS_OK
                for e in quote.entries:
                    rows.append((model, flow, t, e, *highs_node_bounds(model, flow, t, e.node)))
    return out


def agrees(bid, ask, lo, hi):
    scale = 1.0 + abs(lo) + abs(hi)
    return abs(bid - lo) <= 1e-7 * scale and abs(ask - hi) <= 1e-7 * scale


@pytest.mark.parametrize("horizon", [2, 3])
def test_noarb_bounds_match_highs(horizon, sweeps):
    for _, _, _, e, lo, hi in sweeps[horizon]:
        assert agrees(e.bid, e.ask, lo, hi)


def test_row_slack_leaves_bounds_unchanged(sweeps):
    # The enumerated cone once took a per-row slack of 1e-12 in density
    # space; the Charnes-Cooper scale 1/(node mass) multiplied it, so a bound
    # whose density gave the node almost no mass went loose (ask 10.586
    # against 6.556 at one horizon-3 node).  The node-form rows need no slack.
    for rows in sweeps.values():
        for _, _, _, e, lo, hi in rows:
            assert agrees(e.bid, e.ask, lo, hi)


def node_ratio_lp(model, flow, t, cell, gamma, entry="trade"):
    """(num, den, a_ub) of the date-t node's conditional discounted tail over
    its cone, band-restricted unless ``gamma`` is None: the node LP the
    engine builds."""
    tree = model.tree
    p = tree.probabilities
    _, Binv = model.discounts()
    x = (flow * Binv)[:, t + 1:].sum(axis=1)
    idx = list(tree.partitions[t][cell])
    a_ub = _node_cone(generators_for(model, t, entry), cell, idx)
    if gamma is not None:
        a_ub = _with_band(a_ub, len(idx), gamma)
    num, den = np.zeros(a_ub.shape[1]), np.zeros(a_ub.shape[1])
    num[: len(idx)] = p[idx] * x[idx]
    den[: len(idx)] = p[idx]
    return num, den, a_ub


def highs_good_deal_cell(model, flow, t, cell, gamma, entry="trade"):
    """Min and max of :func:`node_ratio_lp`, solved by HiGHS."""
    num, den, a_ub = node_ratio_lp(model, flow, t, cell, gamma, entry)
    out = []
    for sense in ("min", "max"):
        status, value = highs(num, sense, a_ub, np.zeros(len(a_ub)), [den], [1.0])
        assert status == "optimal"
        out.append(value)
    return out


@pytest.mark.parametrize("seed, k, t, cell, entry, gamma", [
    (2024, 0, 1, 1, "trade", None),
    (2024, 0, 2, 1, "trade", 0.5),
    (0, 4, 1, 1, "mark", 4.0),
])
def test_nodes_with_near_zero_rows_match_highs(seed, k, t, cell, entry, gamma):
    # nodes of the quote-first cross-check's markets whose LPs hold rows of
    # pure rounding residue (entries near 1e-15): scaled up to size 1, such
    # a row made the kernel read `infeasible`; on the rows as supplied each
    # node prices, as HiGHS does (6.8170568340458 at the first).  Good-deal
    # quotes are only ever built over the trade rows, so the mark-entry band
    # LP goes to the kernel directly
    markets = test_pricing.TestQuotesFirstMatchCheckFirst.markets(seed)
    model, flow = next(itertools.islice(markets, k, None))
    if entry == "mark":
        lo, hi = lp.solve_ratio(*node_ratio_lp(model, flow, t, cell, gamma, entry))
        assert lo.status == hi.status == "optimal"
        got = lo.value, hi.value
    else:
        quote = noarb_bounds(model, flow, t) if gamma is None else good_deal_prices(
            model, flow, t, gamma
        )
        e = quote.entries[cell]
        assert e.status == STATUS_OK
        got = e.bid, e.ask
    assert agrees(*got, *highs_good_deal_cell(model, flow, t, cell, gamma, entry))


@pytest.mark.parametrize("horizon", [2, 3])
def test_warm_surface_cells_match_highs(horizon, count_calls):
    # every priced cell of surfaces whose quotes restart along each lambda
    # row from the previous cell's bases, at the first and last node of
    # every date, against HiGHS on the same node LP
    restarts = count_calls(lp, "_restart")
    rng = np.random.default_rng(20261019 + horizon)
    priced = 0
    for k in range(4):
        tree = random_tree(rng, int(rng.integers(3, 7)), horizon)
        seed, flow = int(rng.integers(2**31)), random_cashflow(rng, tree)

        def build(lam):
            return arbitrage_free_market(
                np.random.default_rng(seed), tree, dividends=bool(k % 2), rates=bool(k % 3),
                lam=lam,
            )

        for t in range(horizon):
            for cell in sorted({0, len(tree.partitions[t]) - 1}):
                cells = liquidity_surface(
                    build, lambda model: flow, [0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
                    [0.005, 0.02], t, node=cell,
                )
                for c in cells:
                    if c.status == STATUS_OK:
                        priced += 1
                        lo, hi = highs_good_deal_cell(build(c.lam), flow, t, cell, c.gamma)
                        assert agrees(c.bid, c.ask, lo, hi)
    assert priced and restarts
