import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from conic_pricer import cone, lp, pricing
from conic_pricer.acceptability import dglr_eval
from conic_pricer.cone import arbitrage_check, generators_for
from conic_pricer.errors import ComputationError, ValidationError
from conic_pricer.lattice import EventTree, NodeRef
from conic_pricer.market import (
    CashFlow,
    MarketModel,
    apply_transaction_costs,
    asian_call,
)
from conic_pricer.pricing import (
    STATUS_ARBITRAGE,
    STATUS_INFEASIBLE,
    STATUS_NGD,
    STATUS_OK,
    forward_prices,
    good_deal_certificate,
    good_deal_prices,
    liquidity_surface,
    ngd_check,
    noarb_bounds,
)

from cone_reference import (
    best_single_ratio,
    enumerated_ngd,
    enumerated_quotes,
    node_form_polytope,
    reference_generators,
)
from conftest import (
    TABLE_BIDS,
    TABLE_PARTS,
    TABLE_PROBS,
    arbitrage_free_market,
    binary_tree_market,
    binomial_model,
    ladder_workload_market,
    one_security_horizons,
    one_security_panel,
    quote_status,
    random_cashflow,
    random_market,
    random_tree,
    tree_workload_market,
    two_period_model,
)
from lp_reference import homogeneous
from oracles import (
    check_first_bounds,
    check_first_good_deal_prices,
    cold_band_quote,
    cold_bound_quote,
    primal_price_oracle,
    wealth_closed_form,
)

T2_TABLE = {
    # lam -> (lower, upper) published reference bounds at the root
    0.0: (1.25003, 1.38885),
    0.005: (1.23020, 1.48402),
    0.01: (1.16726, 1.55003),
}


def mark_empty_model():
    """The fixture tree, 1% costs, with the up node's children all bid between
    its bid and ask: no round trip from the node is an arbitrage, but its
    marked entry (long at the bid 80) loses to every child, so no density
    charges the node under ``entry="mark"``."""
    tree = EventTree(2, TABLE_PROBS, TABLE_PARTS)
    bids = TABLE_BIDS.copy()
    bids[:3, 2] = [80.3, 80.5, 80.6]
    return MarketModel(tree, 0.0, [apply_transaction_costs(bids, 0.01)])


def call_payoff(model, strike=60.0):
    n, T = model.tree.n_paths, model.tree.horizon
    d = np.zeros((n, T + 1))
    d[:, T] = np.maximum(model.securities[0].bid[:, T] - strike, 0.0)
    return CashFlow(d)


class TestNoArbBounds:
    def test_frictionless_two_period_root(self):
        model = two_period_model()
        quote = noarb_bounds(model, asian_call(model, 0, 65.0), 0)
        e = quote.entries[0]
        assert e.status == STATUS_OK
        assert e.bid == pytest.approx(1.25, abs=1e-9)
        assert e.ask == pytest.approx(12.5 / 9.0, abs=1e-9)
        assert abs(e.bid - T2_TABLE[0.0][0]) <= 1e-3
        assert abs(e.ask - T2_TABLE[0.0][1]) <= 1e-3

    def test_frictionless_two_period_up_node(self):
        model = two_period_model()
        quote = noarb_bounds(model, asian_call(model, 0, 65.0), 1)
        up = quote.entries[0]
        assert up.bid == pytest.approx(5.0, abs=1e-9)
        assert up.ask == pytest.approx(50.0 / 9.0, abs=1e-9)
        down = quote.entries[1]
        assert down.bid == down.ask == pytest.approx(0.0, abs=1e-12)

    def test_complete_binomial_collapses(self):
        model = binomial_model()
        quote = noarb_bounds(model, call_payoff(model), 0)
        e = quote.entries[0]
        assert e.bid == pytest.approx(5.0, abs=1e-9)
        assert e.ask == pytest.approx(5.0, abs=1e-9)

    def test_arbitrage_status(self):
        tree = EventTree(1, [0.5, 0.5], [[(0, 1)], [(0,), (1,)]])
        bids = np.array([[50.0, 60.0], [50.0, 55.0]])  # dominates the ask
        model = MarketModel(tree, 0.0, [apply_transaction_costs(bids, 0.0)])
        assert arbitrage_check(model, 0) is not None
        quote = noarb_bounds(model, call_payoff(model), 0)
        assert quote.entries[0].status == STATUS_ARBITRAGE

    def test_solver_failure_is_not_arbitrage(self, monkeypatch):
        # a failing bound LP sends the market to the arbitrage search; once
        # that clears it, the failure is the solver's and must surface as
        # one.  Under mark the simplex alone solves the bounds; under trade
        # the failing solve is handed the recursion's candidates first
        def failing(*args, **kwargs):
            raise ComputationError("LP certification failed: injected")

        monkeypatch.setattr(lp, "solve_ratio", failing)
        model = two_period_model()
        assert arbitrage_check(model, 0) is None
        for entry in ("mark", "trade"):
            with pytest.raises(ComputationError, match="injected"):
                noarb_bounds(model, call_payoff(model), 0, entry=entry)

    def test_arbitrage_read_when_bound_lps_fail(self, monkeypatch):
        # the market of test_arbitrage_status: the arbitrage search, not the
        # failing bound LP, decides its status.  The recursion has no
        # candidate there (see test_recursion_leaves_arbitrage_to_the_lp), so
        # under trade as under mark the node goes to the simplex
        def failing(*args, **kwargs):
            raise ComputationError("LP certification failed: injected")

        tree = EventTree(1, [0.5, 0.5], [[(0, 1)], [(0,), (1,)]])
        bids = np.array([[50.0, 60.0], [50.0, 55.0]])
        model = MarketModel(tree, 0.0, [apply_transaction_costs(bids, 0.0)])
        monkeypatch.setattr(lp, "solve_ratio", failing)
        for entry in ("trade", "mark"):
            quote = noarb_bounds(model, call_payoff(model), 0, entry=entry)
            assert quote.entries[0].status == STATUS_ARBITRAGE

    @pytest.mark.parametrize("lam", [0.0, 0.01])
    def test_bound_lps_prove_no_arbitrage(self, lam, count_calls):
        # on a horizon-4 binary market every node's bid and ask optima sum to
        # a density that charges each of its paths, so the arbitrage search
        # (an lp.solve per node) never runs
        model = binary_tree_market(1.1, 0.92, 0.01, 0.4, lam)
        solves = count_calls(lp, "solve")
        for t in (0, 1, 2):
            for entry in ("trade", "mark"):
                quote = noarb_bounds(model, call_payoff(model, 100.0), t, entry=entry)
                assert quote_status(quote) == STATUS_OK
        assert solves == []

    def test_search_visits_only_the_unproven_nodes(self, count_calls):
        # 23 of the panel's 180 requests have a node whose bound pair proves
        # nothing, and the search solves the least-loss LP of those 23 nodes
        # alone: a node whose pair charges every path has L > lp.TOL (see
        # _charges_every_path), where searching every node of their dates
        # took 36 LPs
        searches = count_calls(pricing, "_arbitrage")
        losses = count_calls(cone, "_node_least_loss")
        for model, flow in one_security_panel():
            for t in range(model.tree.horizon):
                assert quote_status(noarb_bounds(model, flow, t)) == STATUS_OK
        assert (len(searches), len(losses)) == (23, 23)

    def test_node_the_mark_cone_cannot_charge_is_infeasible(self):
        model = mark_empty_model()
        payoff = asian_call(model, 0, 65.0)
        assert arbitrage_check(model, 1) is None
        assert quote_status(noarb_bounds(model, payoff, 1)) == STATUS_OK
        up, down = noarb_bounds(model, payoff, 1, entry="mark").entries
        assert up.status == STATUS_INFEASIBLE
        assert np.isnan(up.bid) and np.isnan(up.ask)
        assert down.status == STATUS_OK
        assert down.bid <= down.ask

    def test_empty_mark_polytope_is_infeasible_everywhere(self):
        model = mark_empty_model()
        bids = model.securities[0].bid.copy()
        bids[3:, 2] = [40.1, 40.2]  # the down node's children too
        model = MarketModel(model.tree, 0.0, [apply_transaction_costs(bids, 0.01)])
        quote = noarb_bounds(model, asian_call(model, 0, 65.0), 1, entry="mark")
        assert [e.status for e in quote.entries] == [STATUS_INFEASIBLE] * 2
        assert quote_status(quote) == STATUS_INFEASIBLE

    @staticmethod
    def two_security_market(lam):
        # free of arbitrage by construction: the generating measure is a
        # density of every node's trade cone
        rng = np.random.default_rng(1)
        tree = random_tree(rng, 6, 3)
        model = arbitrage_free_market(
            np.random.default_rng(1), tree, dividends=True, rates=True, lam=lam, securities=2
        )
        return model, random_cashflow(rng, tree)

    def test_frictionless_two_security_market_prices_every_node(self):
        # without costs each node's bounds meet; at nodes 1 and 2 the two
        # optima cross by rounding (6.7e-16 and 1.1e-14), read as their
        # midpoint
        model, flow = self.two_security_market(0.0)
        quote = noarb_bounds(model, flow, 1)
        assert [e.status for e in quote.entries] == [STATUS_OK] * 3
        assert all(e.bid <= e.ask for e in quote.entries)

    @pytest.mark.parametrize("bid, ask, quoted", [
        (4.0 + 3e-9, 4.0, 4.0 + 1.5e-9),  # within lp.TOL * 4, beyond lp.TOL
        (1e-10, -1e-10, 0.0),  # within lp.TOL, below size 1
        (2.0, 2.0 + 1e-12, None),  # no crossing: the optima as they are
    ])
    def test_rounding_crossing_reads_midpoint(self, monkeypatch, bid, ask, quoted):
        # every quote passes through _entry: a min optimum above the max by
        # at most lp.TOL * max(1, |bid|, |ask|) is both sides' midpoint; the
        # patched optima charge every path, so no arbitrage search runs.
        # Mark bounds, which the simplex solves with no candidate
        model = two_period_model()
        monkeypatch.setattr(lp, "solve_ratio", lambda num, den, a_ub, warm: (
            lp.LPSolution("optimal", value=bid, x=np.ones(a_ub.shape[1])),
            lp.LPSolution("optimal", value=ask, x=np.ones(a_ub.shape[1])),
        ))
        e = noarb_bounds(model, call_payoff(model), 0, entry="mark").entries[0]
        assert e.status == STATUS_OK
        if quoted is None:
            assert (e.bid, e.ask) == (bid, ask)
        else:
            assert e.bid == e.ask == pytest.approx(quoted, rel=1e-15, abs=1e-25)

    def test_wide_crossing_raises(self, monkeypatch):
        # a crossing beyond the tolerance cannot come from two certified
        # optima: noarb_bounds' arbitrage search clears the market, and the
        # failure is raised (on mark bounds, which the simplex solves)
        model = two_period_model()
        monkeypatch.setattr(lp, "solve_ratio", lambda num, den, a_ub, warm: (
            lp.LPSolution("optimal", value=2.0 + 5e-9), lp.LPSolution("optimal", value=2.0)
        ))
        with pytest.raises(ComputationError, match="exceeds ask"):
            noarb_bounds(model, call_payoff(model), 0, entry="mark")

    @pytest.mark.xfail(
        raises=ComputationError, strict=True,
        reason="at lambda=1e-9 a bound LP's optimum fails certification on a "
        "primal residual of 1.095e-9, just above lp.TOL (ROADMAP item 7)",
    )
    def test_nearly_frictionless_two_security_market_prices(self):
        model, flow = self.two_security_market(1e-9)
        quote = noarb_bounds(model, flow, 1)
        assert [e.status for e in quote.entries] == [STATUS_OK] * 3

    def test_three_dividend_securities_market_prices(self):
        # market 87 of the quote-first cross-check's generator (seed 0): 5
        # paths, horizon 3, three dividend-paying securities under stochastic
        # rates, free of arbitrage; its t=0 bound LPs hold entries as small as
        # 1.9e-15
        rng = np.random.default_rng(0)
        for k in range(88):
            tree = random_tree(rng, rng.integers(3, 8), rng.integers(2, 4))
            securities = rng.integers(1, 4)
            model = arbitrage_free_market(
                rng, tree, dividends=k % 2 == 1, rates=(k // 2) % 2 == 1,
                lam=0.0 if k % 5 == 0 else None, securities=securities,
            )
            if k % 3 == 2:
                bad = random_market(rng, tree, dividends=True).securities[0]
                bad = dataclasses.replace(bad, name="bad")
                model = MarketModel(tree, model.rates, [*model.securities[:-1], bad])
            flow = random_cashflow(rng, tree)
        assert arbitrage_check(model, 0) is None
        for t in (1, 2):
            assert quote_status(noarb_bounds(model, flow, t)) == STATUS_OK
        assert quote_status(noarb_bounds(model, flow, 0)) == STATUS_OK


class TestNgdCheck:
    def test_reference_measure_in_band(self):
        # the martingale weights coincide with the reference probabilities, so
        # the condition holds at every level
        model = binomial_model(probs=(0.25, 0.75))
        for gamma in (0.01, 0.5, 3.0, 100.0):
            assert ngd_check(model, 0, gamma).holds

    def test_threshold_at_hedge_ratio(self):
        model = binomial_model(probs=(0.6, 0.4))
        # buy-and-hold nets (30, -10): ratio = (18 - 4) / 4 = 3.5
        first = reference_generators(model, 0)[0]
        vals = dglr_eval(model.tree, np.column_stack([np.zeros(2), first.values]), 0)
        assert vals[0] == pytest.approx(3.5)
        assert not ngd_check(model, 0, 3.4).holds
        assert ngd_check(model, 0, 3.5).holds
        assert ngd_check(model, 0, 3.6).holds

    def test_sentinel_level_above_all_generators(self):
        model = two_period_model(lam=0.01)
        top = best_single_ratio(model, 0)
        assert np.isfinite(top)
        assert not ngd_check(model, 0, top * 0.99).holds
        # combinations can beat single round trips, so the safe sentinel sits
        # above the combination supremum (~6.3 on the frictionless fixture)
        assert ngd_check(two_period_model(), 0, 7.0).holds
        assert not ngd_check(two_period_model(), 0, 6.0).holds

    def test_witness_verified_by_ratio(self):
        model = two_period_model()
        res = ngd_check(model, 0, 0.05)
        assert not res.holds
        w = res.witness
        assert w is not None
        flow = np.zeros((5, 3))
        flow[:, w.node.time + 1] = w.cash_flow  # discounted totals as one payment
        checked = dglr_eval(model.tree, flow, 0)
        assert checked[w.node.cell] == pytest.approx(w.dglr, abs=1e-9)
        assert w.dglr > 0.05

    def test_witness_combines_securities(self):
        # one period, three equiprobable states, no costs: two securities
        # priced 0.9 pay (3, 0, 0) and (0, 3, 0).  Each alone reaches a
        # gain-loss ratio of 1/6; long both reaches 1/3.
        tree = EventTree(1, [1 / 3] * 3, [[(0, 1, 2)], [(0,), (1,), (2,)]])
        secs = [
            apply_transaction_costs(np.array([[0.9, 3.0], [0.9, 0.0], [0.9, 0.0]]), 0.0,
                                    name="a"),
            apply_transaction_costs(np.array([[0.9, 0.0], [0.9, 3.0], [0.9, 0.0]]), 0.0,
                                    name="b"),
        ]
        model = MarketModel(tree, 0.0, secs)
        assert best_single_ratio(model, 0) == pytest.approx(1 / 6)
        for gamma in (0.2, 0.25, 0.3):
            res = ngd_check(model, 0, gamma)
            assert not res.holds
            w = res.witness
            assert w is not None
            flow = np.zeros((3, 2))
            flow[:, 1] = w.cash_flow
            assert dglr_eval(tree, flow, 0)[0] == pytest.approx(w.dglr, abs=1e-12)
            assert w.dglr > gamma
            assert w.dglr == pytest.approx(1 / 3)
            held = w.strategy.holdings[1, 1:, 0]
            assert held[0] > 0 and held[1] > 0  # long both

    def test_witness_strategy_dominates_its_cash_flow(self, rng):
        # at every date, on the one witness route: the check's best-ratio
        # hedge, which good_deal_prices reports too.  On the witness node
        # the strategy's terminal wealth covers the reported cash flow, so it
        # pays at least the reported ratio.  Last, the fixture's up node at
        # t=1 with 1% costs: the hedge beating 4 there has ratio 4.516,
        # which its strategy pays exactly
        markets = []
        for _ in range(20):
            tree = random_tree(rng, int(rng.integers(3, 7)), int(rng.integers(1, 4)))
            model = arbitrage_free_market(rng, tree, dividends=True, rates=True)
            markets.append((model, random_cashflow(rng, tree), range(tree.horizon), (0.05, 0.5)))
        fixture = two_period_model(lam=0.01)
        markets.append((fixture, asian_call(fixture, 0, 65.0), [1], [4.0]))
        dates, ratios = set(), []
        for model, flow, times, gammas in markets:
            tree = model.tree
            for t, gamma in itertools.product(times, gammas):
                w = good_deal_prices(model, flow, t, gamma).witness
                check = ngd_check(model, t, gamma).witness
                assert (w is None) == (check is None)
                if w is None:
                    continue
                assert w.node == check.node and w.dglr == check.dglr > gamma
                assert np.array_equal(w.cash_flow, check.cash_flow)
                idx = list(tree.node_paths(w.node))
                paid = np.zeros((tree.n_paths, tree.horizon + 1))
                paid[:, -1] = wealth_closed_form(model, w.strategy)[:, -1]
                assert np.all(paid[idx, -1] >= w.cash_flow[idx] - 1e-9)
                ratio = dglr_eval(tree, paid, t)[idx[0]]
                assert ratio >= w.dglr * (1 - 1e-9)
                dates.add(t)
                ratios.append((w.node, w.dglr, ratio))
        assert len(ratios) >= 10 and dates == {0, 1, 2}
        node, dglr, ratio = ratios[-1]  # the fixture's
        assert node.time == 1 and node.cell == 0
        assert dglr == pytest.approx(4.516055, abs=1e-6)
        assert ratio == pytest.approx(dglr, rel=1e-12)

    def test_witness_from_the_node_program(self, rng):
        # the per-node least-loss LPs find a node beating the level exactly
        # when the band polytope of all date-t nodes together is empty
        checked = 0
        for _ in range(20):
            tree = random_tree(rng, int(rng.integers(3, 7)), int(rng.integers(1, 4)))
            model = arbitrage_free_market(rng, tree, dividends=True, rates=True)
            for t in range(tree.horizon):
                rows = generators_for(model, t)
                for gamma in (0.05, 0.5):
                    band = node_form_polytope(model, rows, gamma)
                    prog = homogeneous("max", np.zeros(band["a_ub"].shape[1]), **band)
                    empty = lp.solve(prog).status != "optimal"
                    check, _ = pricing._ngd(model, gamma, rows)
                    assert check.holds != empty
                    if not check.holds:
                        assert check.witness.dglr > gamma
                        checked += 1
        assert checked >= 10

    def test_frictionless_binary_market_gets_a_witness(self):
        # horizon-4 binary market without costs at gamma = 0.5, whose band
        # LP ends phase 1 at a near-singular basis: the witness must be a real
        # hedge, not a flow worth zero up to rounding, and its strategy must
        # beat the level too
        model = binary_tree_market(
            1.1158852723655976, 0.9138993925477081, 0.01, 0.386764098288852, 0.0
        )
        res = ngd_check(model, 0, 0.5)
        assert not res.holds
        w = res.witness
        assert w is not None and w.dglr > 0.5
        assert np.max(np.abs(w.cash_flow)) > 1e-3
        flow = np.zeros((16, 5))
        for paid in (w.cash_flow, wealth_closed_form(model, w.strategy)[:, -1]):
            flow[:, -1] = paid
            assert dglr_eval(model.tree, flow, 0)[0] >= w.dglr - 1e-9

    def test_rounding_is_no_witness(self):
        # Frictionless martingale markets: a row across a node with a single
        # child is worth exactly zero but computes to about 1e-14, which has
        # an infinite gain-loss ratio when it is never negative.
        checked = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            tree = random_tree(rng, int(rng.integers(3, 7)), 3)
            model = arbitrage_free_market(
                rng, tree, dividends=bool(seed % 2), rates=bool(seed % 3), lam=0.0
            )
            rows = generators_for(model, 0)
            values = rows.a_u / model.probabilities
            for r in np.flatnonzero((np.max(values, axis=1) > 0) & (np.min(values, axis=1) >= 0)):
                assert np.max(values[r]) < 1e-12
                weights = np.zeros(len(rows))
                weights[r] = 1.0
                node = NodeRef(0, int(rows.owner[r]))
                assert good_deal_certificate(model, rows, node, weights) is None, (seed, r)
                checked += 1
        assert checked >= 10

    def test_violation_without_witness_raises(self, monkeypatch):
        # no good deal holds on the frictionless fixture at 8, 1e6 and 1e12,
        # where it prices inside its no-arbitrage bounds; at 0.05 it fails,
        # and a hedge that its certificate rejects is an error, not a
        # violation without a witness
        model = two_period_model()
        payoff = asian_call(model, 0, 65.0)
        for gamma in (8.0, 1e6, 1e12):
            assert ngd_check(model, 0, gamma).holds
        bounds = noarb_bounds(model, payoff, 0).entries[0]
        for gamma in (1e6, 1e12):
            e = good_deal_prices(model, payoff, 0, gamma).entries[0]
            assert e.status == STATUS_OK
            assert bounds.bid <= e.bid <= e.ask <= bounds.ask
        monkeypatch.setattr(pricing, "good_deal_certificate", lambda *args: None)
        with pytest.raises(ComputationError, match="fails its certificate"):
            ngd_check(model, 0, 0.05)
        with pytest.raises(ComputationError, match="fails its certificate"):
            good_deal_prices(model, payoff, 0, 0.05)

    def test_implies_no_arbitrage(self, rng):
        hits = 0
        for _ in range(40):
            tree = random_tree(rng, int(rng.integers(2, 7)), int(rng.integers(1, 3)))
            model = random_market(rng, tree)
            for gamma in (0.5, 2.0):
                if ngd_check(model, 0, gamma).holds:
                    hits += 1
                    assert arbitrage_check(model, 0) is None
        assert hits > 0


class TestGoodDealPrices:
    def test_complete_binomial_any_level(self):
        model = binomial_model(probs=(0.25, 0.75))
        for gamma in (1e-4, 0.3, 2.0, 50.0):
            quote = good_deal_prices(model, call_payoff(model), 0, gamma)
            e = quote.entries[0]
            assert e.status == STATUS_OK
            assert e.bid == pytest.approx(5.0, abs=1e-9)
            assert e.ask == pytest.approx(5.0, abs=1e-9)

    def test_sentinel_quotes_when_violated(self):
        model = two_period_model()
        quote = good_deal_prices(model, asian_call(model, 0, 65.0), 0, 0.05)
        e = quote.entries[0]
        assert e.status == STATUS_NGD
        assert np.isposinf(e.bid) and np.isneginf(e.ask)
        assert quote.witness is not None

    @pytest.mark.parametrize("gamma, status", [(8.0, STATUS_OK), (0.05, STATUS_NGD)])
    def test_verdict_before_band_lps(self, gamma, status, count_calls):
        # the verdict comes from L: a violated level runs no band LP and
        # carries the check's witness; a holding level solves one L per
        # date-t node and then one band LP pair per node
        model = two_period_model(lam=0.01)
        searches = count_calls(cone, "_node_least_loss")
        ratios = count_calls(lp._Slice, "solve")
        for t in (0, 1):
            searches.clear()
            ratios.clear()
            quote = good_deal_prices(model, asian_call(model, 0, 65.0), t, gamma)
            assert quote_status(quote) == status
            nodes = len(model.tree.nodes(t))
            if status == STATUS_NGD:
                assert ratios == [] and 1 <= len(searches) <= nodes
                w = quote.witness
                flow = np.zeros((5, 3))
                flow[:, -1] = w.cash_flow
                assert dglr_eval(model.tree, flow, t)[model.tree.node_paths(w.node)[0]] > gamma
            else:
                assert len(searches) == len(ratios) == nodes

    def test_band_quotes_are_band_rows(self, count_calls):
        # one builder of a band program: a holding level quotes each date-t
        # node on its own _BandRow, spot and forward, and only the bounds
        # solve through lp.solve_ratio
        model = two_period_model(lam=0.01)
        payoff = asian_call(model, 0, 65.0)
        ratios = count_calls(lp, "solve_ratio")
        bands = count_calls(pricing, "_BandRow")
        for t in (0, 1):
            for prices in (good_deal_prices, forward_prices):
                bands.clear()
                assert quote_status(prices(model, payoff, t, 8.0)) == STATUS_OK
                assert len(bands) == len(model.tree.nodes(t))
        assert ratios == []

    def test_violated_horizon_8_ladder_runs_no_band_lp(self, count_calls):
        # the benchmark's ladder market 8 at t=0, gamma=8: the node's ceiling
        # 1/L is about 26.99, so the level is violated.  Its band LP is never
        # built, and the witness is the node's best-ratio hedge
        model = binary_tree_market(
            1.0518419562876573, 0.9539507146165618, 0.02, 0.5181521759298708, 0.01, horizon=8
        )
        ratios = count_calls(lp._Slice, "solve")
        quote = good_deal_prices(model, call_payoff(model, 96.20889592020883), 0, 8.0)
        assert quote_status(quote) == STATUS_NGD
        assert ratios == []
        w = quote.witness
        assert w.dglr == pytest.approx(26.98821, abs=1e-5)
        flow = np.zeros((model.tree.n_paths, model.tree.horizon + 1))
        flow[:, -1] = w.cash_flow
        assert dglr_eval(model.tree, flow, 0)[0] == pytest.approx(w.dglr, rel=1e-12)

    def test_band_lp_failure_falls_back_to_check(self, monkeypatch, count_calls):
        # the benchmark's surface market 0 at lambda 0.005, just below its
        # ceiling 1/L, with band LPs that fail: the no-good-deal check
        # answers with its own witness instead
        u, d, r, p_up, strike = PIVOT_BUDGET_MARKETS[0]
        model = binary_tree_market(u, d, r, p_up, 0.005, horizon=3)
        payoff = call_payoff(model, strike)
        rows = generators_for(model, 0)
        gamma = (1.0 - 1e-6) / float(np.min(pricing._least_loss(model, rows)[0]))

        def failing(*args, **kwargs):
            raise ComputationError("LP infeasibility certification failed")

        monkeypatch.setattr(lp._Slice, "solve", failing)
        searches = count_calls(cone, "_node_least_loss")
        quote = good_deal_prices(model, payoff, 0, gamma)
        assert len(searches) == 1
        assert quote_status(quote) == STATUS_NGD
        check = ngd_check(model, 0, gamma)
        assert quote.witness.dglr == check.witness.dglr > gamma
        assert np.array_equal(quote.witness.cash_flow, check.witness.cash_flow)

    def test_band_lp_that_misses_where_check_holds_raises(self, monkeypatch):
        # the fixture at 8, where the check holds: a band LP that fails, or
        # that reads infeasible, is the solver's error, never a verdict
        model = two_period_model(lam=0.01)
        payoff = asian_call(model, 0, 65.0)
        assert ngd_check(model, 0, 8.0).holds

        def failing(*args, **kwargs):
            raise ComputationError("LP certification failed")

        monkeypatch.setattr(lp._Slice, "solve", failing)
        with pytest.raises(ComputationError, match="certification failed"):
            good_deal_prices(model, payoff, 0, 8.0)
        monkeypatch.undo()

        def missing(self, warm=None):
            return lp.LPSolution("infeasible"), lp.LPSolution("infeasible")

        monkeypatch.setattr(lp._Slice, "solve", missing)
        with pytest.raises(ComputationError, match="reads infeasible"):
            good_deal_prices(model, payoff, 0, 8.0)

    def test_vertex_oracle_agreement_on_incomplete_binomial(self):
        # trinomial one-period market, frictionless: brute-force over the
        # polytope's vertices must match the LP
        tree = EventTree(1, [0.3, 0.4, 0.3], [[(0, 1, 2)], [(0,), (1,), (2,)]])
        bids = np.array([[100.0, 110.0], [100.0, 100.0], [100.0, 90.0]])
        model = MarketModel(tree, 0.0, [apply_transaction_costs(bids, 0.0)])
        payoff = call_payoff(model, 105.0)
        gamma = 2.0
        assert ngd_check(model, 0, gamma).holds
        quote = good_deal_prices(model, payoff, 0, gamma)
        # Martingale weights are (q1, 1-2q1, q1); densities u = q/p hit the
        # band boundary u_max = (1+gamma) u_min at q1 = 9/22 (wings heavy) and
        # q1 = 1/6 (middle heavy).  The value 5*q1 is linear, so the polytope
        # vertices give the quotes exactly.
        p = model.tree.probabilities
        for q1 in (9.0 / 22.0, 1.0 / 6.0):
            u = np.array([q1, 1 - 2 * q1, q1]) / p
            assert u.max() / u.min() == pytest.approx(1.0 + gamma, abs=1e-12)
        e = quote.entries[0]
        assert e.ask == pytest.approx(5.0 * 9.0 / 22.0, abs=1e-9)
        assert e.bid == pytest.approx(5.0 / 6.0, abs=1e-9)

    @pytest.mark.parametrize("market, strike, t, gamma, crr", [
        # tree market 2 of the benchmark: its band LP over the enumerated
        # round trips ran to the simplex iteration limit
        ((1.1043686640170864, 0.9258077400201192, 0.02, 0.5890045592020542, 0.01, 4),
         98.0008665406378, 0, 2.0, (12.7235786,)),
        # the benchmark's horizon-6 ladder market: the whole-tree
        # Charnes-Cooper program ran to the iteration limit (75,220)
        ((1.0928958413535974, 0.9078999912795677, 0.0, 0.45219561150702625, 0.01, 6),
         97.37991843927061, 1, 8.0, (15.4344470, 4.5656506)),
        # the benchmark's tree market 7, whose CRR density (ratio 146) is
        # outside the band: the whole-tree program fell back to exact
        # rationals twice
        ((1.1125017509724777, 0.9664659185246623, 0.0, 0.5090445389062614, 0.02, 4),
         95.83543320054928, 1, 20.0, (15.4147419, 4.7381275)),
    ], ids=["tree-market-2", "ladder-horizon-6", "tree-market-7"])
    def test_stalled_binary_market_prices(self, market, strike, t, gamma, crr):
        # binary markets with costs: each node's quotes bracket its CRR value;
        # a solve that fails certification raises instead
        model = binary_tree_market(*market)
        quote = good_deal_prices(model, call_payoff(model, strike), t, gamma)
        for e, value in zip(quote.entries, crr, strict=True):
            assert e.status == STATUS_OK
            assert e.bid <= value <= e.ask

    def test_symmetry(self, rng):
        # ask of D equals minus the bid of -D
        done = 0
        for _ in range(30):
            tree = random_tree(rng, int(rng.integers(2, 6)), int(rng.integers(1, 3)))
            model = random_market(rng, tree)
            if arbitrage_check(model, 0) is not None:
                continue
            gamma = best_single_ratio(model, 0) + 1.0
            if not np.isfinite(gamma) or not ngd_check(model, 0, gamma).holds:
                continue
            d = np.zeros((tree.n_paths, tree.horizon + 1))
            for cell in tree.partitions[tree.horizon]:
                d[list(cell), tree.horizon] = rng.normal(0, 5)
            a = good_deal_prices(model, d, 0, gamma)
            b = good_deal_prices(model, -d, 0, gamma)
            for ea, eb in zip(a.entries, b.entries):
                assert ea.ask == pytest.approx(-eb.bid, abs=1e-9)
                assert ea.bid == pytest.approx(-eb.ask, abs=1e-9)
            done += 1
        assert done >= 5

    def test_intermediate_date_sandwich_and_symmetry(self, rng):
        tested = tries = 0
        while tested < 10 and tries < 300:
            tries += 1
            tree = random_tree(rng, int(rng.integers(4, 9)), int(rng.integers(2, 4)))
            model = random_market(rng, tree)
            t = int(rng.integers(1, tree.horizon))
            if arbitrage_check(model, t) is not None:
                continue
            top = best_single_ratio(model, t)
            if not np.isfinite(top) or not ngd_check(model, t, top + 1.0).holds:
                continue
            gamma = top + 1.0
            d = np.zeros((tree.n_paths, tree.horizon + 1))
            for cell in tree.partitions[tree.horizon]:
                d[list(cell), tree.horizon] = rng.normal(0, 5)
            quote = good_deal_prices(model, d, t, gamma)
            nb = noarb_bounds(model, d, t)
            mirror = good_deal_prices(model, -d, t, gamma)
            for e, en, em in zip(quote.entries, nb.entries, mirror.entries):
                assert en.bid - 1e-9 <= e.bid <= e.ask <= en.ask + 1e-9
                assert e.ask == pytest.approx(-em.bid, abs=1e-9)
            tested += 1
        assert tested >= 5

    def test_sandwich_and_gamma_monotonicity(self):
        model = two_period_model(lam=0.01)
        payoff = asian_call(model, 0, 65.0)
        nb = noarb_bounds(model, payoff, 0).entries[0]
        prev_bid, prev_ask = np.inf, -np.inf
        for gamma in (2.0, 3.0, 5.0, 8.0, 15.0):
            res = ngd_check(model, 0, gamma)
            if not res.holds:
                continue
            e = good_deal_prices(model, payoff, 0, gamma).entries[0]
            assert nb.bid - 1e-9 <= e.bid <= e.ask <= nb.ask + 1e-9
            assert e.ask >= prev_ask - 1e-9
            assert e.bid <= prev_bid + 1e-9
            prev_bid, prev_ask = e.bid, e.ask

    def test_large_gamma_reaches_bounds(self):
        # reference probabilities are risk neutral here, so the band covers
        # the whole closure already at moderate widths
        tree = EventTree(1, [0.3, 0.4, 0.3], [[(0, 1, 2)], [(0,), (1,), (2,)]])
        bids = np.array([[100.0, 110.0], [100.0, 100.0], [100.0, 90.0]])
        model = MarketModel(tree, 0.0, [apply_transaction_costs(bids, 0.0)])
        d = np.zeros((3, 2))
        d[:, 1] = np.maximum(bids[:, 1] - 105.0, 0.0) / 10.0
        nb = noarb_bounds(model, d, 0).entries[0]
        e = good_deal_prices(model, d, 0, 1e6).entries[0]
        assert abs(e.bid - nb.bid) <= 1e-6
        assert abs(e.ask - nb.ask) <= 1e-6

    def test_large_level_prices_a_tree_workload_market(self):
        model, payoff = tree_workload_market(7)
        quote = good_deal_prices(model, payoff, 0, 2000.0)
        assert quote_status(quote) == STATUS_OK

    def test_band_program_prices_at_large_levels(self):
        # the band written over m' = (1 + level) m keeps the level in [0, 1)
        # in its rows: solved cold, with no candidate, the tree workload's
        # market 7 and the fixture price inside their bounds at levels where
        # the band written over m failed certification (from about 2e3 and
        # 9e15)
        for (model, payoff), levels in (
            (tree_workload_market(7), (2e3, 1e6, 1e12, 1e300)),
            ((lambda m: (m, asian_call(m, 0, 65.0)))(two_period_model()),
             (1e15, 1e16, 1e100, 1e200, 1e308)),
        ):
            rows, x = generators_for(model, 0), pricing._discounted_tail(model, payoff, 0)
            node = model.tree.nodes(0)[0]
            bounds = noarb_bounds(model, payoff, 0).entries[0]
            for level in levels:
                e = cold_band_quote(model, x, rows, node, level)
                assert e.status == STATUS_OK
                assert bounds.bid - 1e-9 <= e.bid <= e.ask <= bounds.ask + 1e-9


def crr_call(u, d, r, p_up, strike, horizon):
    """CRR value at the root of a call on the last bid 100 * u^k * d^(T-k),
    and the ratio of the largest to the smallest CRR density."""
    q = (1.0 + r - d) / (u - d)
    value = sum(
        math.comb(horizon, k) * q**k * (1.0 - q) ** (horizon - k)
        * max(100.0 * u**k * d ** (horizon - k) - strike, 0.0)
        for k in range(horizon + 1)
    ) / (1.0 + r) ** horizon
    up, down = q / p_up, (1.0 - q) / (1.0 - p_up)
    return value, (max(up, down) / min(up, down)) ** horizon


class TestFrictionlessBinaryMarkets:
    """Without costs the market is complete: every band that holds the one
    risk-neutral density prices at its CRR value."""

    GAMMAS = (0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 20.0)

    def check(self, u, d, r, p_up, strike, horizon, gammas):
        value, ratio = crr_call(u, d, r, p_up, strike, horizon)
        model = binary_tree_market(u, d, r, p_up, 0.0, horizon)
        payoff = call_payoff(model, strike)
        for gamma in gammas:
            assert ratio <= 1.0 + gamma
            e = good_deal_prices(model, payoff, 0, gamma).entries[0]
            assert e.status == STATUS_OK, gamma
            assert e.bid == pytest.approx(value, abs=1e-8)
            assert e.ask == pytest.approx(value, abs=1e-8)
        return value, ratio

    def test_horizon_4_tree_market(self):
        # the benchmark's tree market 0, density ratio 4.29; its band LP read
        # infeasible at gamma 6, 8 and 20 under Bland's pivots
        value, _ = self.check(
            1.1158852723655976, 0.9138993925477081, 0.01, 0.386764098288852,
            109.07230570514098, 4, (4.0, 6.0, 8.0, 10.0, 20.0),
        )
        assert value == pytest.approx(6.151889, abs=1e-6)

    def test_horizon_5_ladder_market(self):
        # the benchmark's ladder market 0 without costs, density ratio 1.0003:
        # every level is in the band, and each read infeasible under Bland's
        # pivots
        self.check(
            1.0656226129109645, 0.9169887424428936, 0.01, 0.6257877141447595,
            92.25254968839278, 5, self.GAMMAS,
        )

    @pytest.mark.parametrize("t, gamma", [(0, 50.0), (0, 100.0), (1, 40.0), (1, 50.0), (1, 100.0)])
    def test_horizon_5_ladder_market_wide_bands(self, t, gamma):
        # the market above: its one density lies in every band and the check
        # holds, so each node prices at its no-arbitrage value, at these wide
        # levels as at those up to 40 at t=0
        model = binary_tree_market(
            1.0656226129109645, 0.9169887424428936, 0.01, 0.6257877141447595, 0.0, 5
        )
        payoff = call_payoff(model, 92.25254968839278)
        assert ngd_check(model, t, gamma).holds
        quote = good_deal_prices(model, payoff, t, gamma)
        for e, b in zip(quote.entries, noarb_bounds(model, payoff, t).entries, strict=True):
            assert e.status == STATUS_OK
            assert e.bid == pytest.approx(b.bid, abs=1e-8)
            assert e.ask == pytest.approx(b.ask, abs=1e-8)


def _unadapted(model):
    flow = np.zeros((model.tree.n_paths, model.tree.horizon + 1))
    flow[0, 1] = 1.0  # paid on one path of a date-1 node with two
    return flow


# name: (a raw cash flow on the fixture's 5 paths over horizon 2 from the
# model, the refusal's message); each is refused before any LP is built
RAW_FLOWS = {
    "short rows": (lambda m: np.ones((5, 2)), r"^cash flow has shape \(5, 2\), expected \(5, 3\)$"),
    "few paths": (lambda m: np.ones((2, 3)), r"^cash flow has shape \(2, 3\), expected \(5, 3\)$"),
    "NaN": (lambda m: np.full((5, 3), np.nan), "^cash flow contains non-finite entries$"),
    "vector": (lambda m: np.ones(3), r"^cash flow has shape \(3,\), expected \(5, 3\)$"),
    "unadapted": (_unadapted, "^cash flow is not measurable at t=1: "),
}


class TestRawCashFlow:
    """A raw matrix given as the payoff is checked as the loader checks a
    cash flow, and a :class:`CashFlow` is taken as it is."""

    ENTRY_POINTS = {
        "bounds": lambda m, f: noarb_bounds(m, f, 0),
        "price": lambda m, f: good_deal_prices(m, f, 0, 8.0),
        "forward": lambda m, f: forward_prices(m, f, 0, 8.0),
        "surface": lambda m, f: liquidity_surface(
            lambda lam: m, lambda model: f, [8.0], [0.0]),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("flow", RAW_FLOWS)
    def test_raw_cash_flow_is_refused_by_name(self, entry, flow, count_calls):
        model = two_period_model(lam=0.01)
        make, message = RAW_FLOWS[flow]
        programs = count_calls(lp, "_slack_start")  # every LP's rows
        with pytest.raises(ValidationError, match=message):
            self.ENTRY_POINTS[entry](model, make(model))
        assert not programs

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_cash_flow_is_taken_as_it_is(self, entry, count_calls):
        model = two_period_model(lam=0.01)
        payoff = asian_call(model, 0, 65.0)
        ingests = count_calls(CashFlow, "ingest")
        want = self.ENTRY_POINTS[entry](model, payoff)
        assert not ingests
        assert self.ENTRY_POINTS[entry](model, payoff.values) == want


class TestForwardPrices:
    def test_zero_rate_equals_spot(self):
        model = binomial_model(probs=(0.25, 0.75))
        payoff = call_payoff(model)
        spot = good_deal_prices(model, payoff, 0, 1.0).entries[0]
        fwd = forward_prices(model, payoff, 0, 1.0).entries[0]
        assert fwd.bid == pytest.approx(spot.bid, abs=1e-12)
        assert fwd.ask == pytest.approx(spot.ask, abs=1e-12)

    def test_flat_rate_scales_by_terminal_account(self):
        # two-period recombinant-free binomial tree with discounted-martingale
        # reference weights
        tree = EventTree(
            2,
            [0.5625, 0.1875, 0.1875, 0.0625],
            [[(0, 1, 2, 3)], [(0, 1), (2, 3)], [(0,), (1,), (2,), (3,)]],
        )
        bids = np.array(
            [
                [100.0, 115.0, 132.25],
                [100.0, 115.0, 109.25],
                [100.0, 95.0, 109.25],
                [100.0, 95.0, 90.25],
            ]
        )
        model = MarketModel(tree, 0.1, [apply_transaction_costs(bids, 0.0)])
        d = np.zeros((4, 3))
        d[:, 2] = np.maximum(bids[:, 2] - 100.0, 0.0)
        assert ngd_check(model, 0, 5.0).holds
        spot = good_deal_prices(model, d, 0, 5.0).entries[0]
        fwd = forward_prices(model, d, 0, 5.0).entries[0]
        assert fwd.bid == pytest.approx(1.21 * spot.bid, abs=1e-9)
        assert fwd.ask == pytest.approx(1.21 * spot.ask, abs=1e-9)

    def test_sentinels_propagate_through_scaling(self):
        model = two_period_model()
        quote = forward_prices(model, asian_call(model, 0, 65.0), 0, 0.05)
        e = quote.entries[0]
        assert e.status == STATUS_NGD
        assert np.isposinf(e.bid) and np.isneginf(e.ask)

    def test_stochastic_rates_refused(self):
        # second-period rate differs across the two date-1 nodes
        tree = EventTree(2, [0.25, 0.25, 0.25, 0.25],
                         [[(0, 1, 2, 3)], [(0, 1), (2, 3)], [(0,), (1,), (2,), (3,)]])
        bids = np.array([[50, 80, 90], [50, 80, 70], [50, 40, 50], [50, 40, 30]], float)
        rates = np.zeros((4, 2))
        rates[:2, 1] = 0.1
        model = MarketModel(tree, rates, [apply_transaction_costs(bids, 0.0)])
        with pytest.raises(ValidationError, match="deterministic"):
            forward_prices(model, np.zeros((4, 3)), 0, 1.0)
        # the rule is exact, as every measurability rule is: rates adapted
        # to the date-1 nodes and 1e-13 apart are not deterministic
        rates[:2, 1] = 0.1 + 1e-13
        rates[2:, 1] = 0.1
        model = MarketModel(tree, rates, [apply_transaction_costs(bids, 0.0)])
        with pytest.raises(ValidationError, match="deterministic"):
            forward_prices(model, np.zeros((4, 3)), 0, 1.0)


# the benchmark's surface markets 0 and 1: (u, d, r, p_up, strike)
PIVOT_BUDGET_MARKETS = (
    (1.1169597643210607, 0.9673785501310888, 0.02, 0.4717907656066426, 97.61587059499817),
    (1.0860124974091736, 0.9134688409994752, 0.01, 0.5169193207716103, 106.43894314743076),
)


class TestLiquiditySurface:
    @staticmethod
    def _builders():
        tree_bids = TABLE_BIDS

        def build_model(lam):
            tree = EventTree(
                2,
                [1 / 10, 1 / 8, 1 / 4, 1 / 4, 11 / 40],
                [[(0, 1, 2, 3, 4)], [(0, 1, 2), (3, 4)],
                 [(0,), (1,), (2,), (3,), (4,)]],
            )
            return MarketModel(tree, 0.0,
                               [apply_transaction_costs(tree_bids, lam, name="stock")])

        def build_payoff(model):
            return asian_call(model, 0, 65.0, "mid")

        return build_model, build_payoff

    def test_single_cell_matches_price(self):
        build_model, build_payoff = self._builders()
        cells = liquidity_surface(build_model, build_payoff, [8.0], [0.0])
        assert len(cells) == 1
        c = cells[0]
        model = build_model(0.0)
        e = good_deal_prices(model, build_payoff(model), 0, 8.0).entries[0]
        assert c.bid == pytest.approx(e.bid) and c.ask == pytest.approx(e.ask)
        assert c.spread == pytest.approx(e.ask - e.bid)

    def test_spread_monotone_in_lambda(self):
        build_model, build_payoff = self._builders()
        cells = liquidity_surface(build_model, build_payoff, [8.0], [0.0, 0.005, 0.01])
        spreads = [c.spread for c in cells]
        assert all(c.status == STATUS_OK for c in cells)
        assert spreads[0] <= spreads[1] + 1e-9 <= spreads[2] + 2e-9

    def test_quotes_monotone_in_gamma(self):
        build_model, build_payoff = self._builders()
        cells = liquidity_surface(build_model, build_payoff, [7.0, 9.0, 12.0], [0.005])
        asks = [c.ask for c in cells]
        bids = [c.bid for c in cells]
        assert asks == sorted(asks)
        assert bids == sorted(bids, reverse=True)

    def test_spread_monotone_on_full_grid(self):
        # the spread widens along both axes of the feasible grid region
        build_model, build_payoff = self._builders()
        gammas = [6.5, 8.0, 12.0, 20.0]
        lambdas = [0.0, 0.005, 0.01]
        cells = liquidity_surface(build_model, build_payoff, gammas, lambdas)
        assert all(c.status == STATUS_OK for c in cells)
        grid = {(c.gamma, c.lam): c.spread for c in cells}
        for lam in lambdas:
            spreads = [grid[(g, lam)] for g in gammas]
            assert all(a <= b + 1e-9 for a, b in zip(spreads, spreads[1:]))
        for g in gammas:
            spreads = [grid[(g, lam)] for lam in lambdas]
            assert all(a <= b + 1e-9 for a, b in zip(spreads, spreads[1:]))

    def test_violated_cells_are_flagged(self):
        build_model, build_payoff = self._builders()
        cells = liquidity_surface(build_model, build_payoff, [0.05], [0.0])
        assert cells[0].status == STATUS_NGD
        assert np.isnan(cells[0].spread)

    def test_empty_grid_rejected(self):
        build_model, build_payoff = self._builders()
        with pytest.raises(ValidationError):
            liquidity_surface(build_model, build_payoff, [], [0.0])
        # so is a level outside (0, inf), in the surface and every quote
        model = build_model(0.0)
        payoff = build_payoff(model)
        for gamma in (0.0, -1.0, np.nan, np.inf):
            for call in (
                lambda: liquidity_surface(build_model, build_payoff, [gamma], [0.0]),
                lambda: ngd_check(model, 0, gamma),
                lambda: good_deal_prices(model, payoff, 0, gamma),
                lambda: forward_prices(model, payoff, 1, gamma),
            ):
                with pytest.raises(ValidationError, match="acceptance level"):
                    call()

    def test_node_validated_before_pricing(self, monkeypatch):
        # a quote that fails must not mask the usage error
        def failing(*args, **kwargs):
            raise ComputationError("priced before the node was checked")

        # each lambda row solves its least-loss threshold and each priced
        # cell quotes its node on the row's band program
        monkeypatch.setattr(pricing, "_least_loss", failing)
        monkeypatch.setattr(pricing._BandRow, "quote", failing)
        build_model, build_payoff = self._builders()
        for t, node, message in ((1, 2, "node 2 outside 0..1"), (2, 0, "start date 2")):
            with pytest.raises(ValidationError, match=message):
                liquidity_surface(build_model, build_payoff, [8.0], [0.0], t, node=node)

    def test_levels_validated_before_building(self):
        # a level the sweep would answer without a check is still rejected,
        # before any model is built
        built = []
        _, build_payoff = self._builders()
        with pytest.raises(ValidationError, match="acceptance level"):
            liquidity_surface(built.append, build_payoff, [8.0, -1.0], [0.0])
        assert built == []

    @staticmethod
    def _count_cells_like_good_deal_prices(build_model, build_payoff, gammas, lambdas, surfaces):
        """Check that each cell of ``surfaces`` ((t, node) -> cells) answers
        as good_deal_prices does, and count the restarted ones.

        A violated cell and the first priced cell of the first lambda row
        that prices (in ascending level order) are the same solves and match
        bit for bit; every other priced cell restarts, from the previous
        level's answers or, first in a later row, from the row before's, and
        its pivots end at the same optimum by another path."""
        ascending = sorted(range(len(gammas)), key=gammas.__getitem__)
        warm = 0
        for (t, node), cells in surfaces.items():
            grid = [(lam, gamma) for lam in lambdas for gamma in gammas]
            assert [(c.lam, c.gamma) for c in cells] == grid
            priced = False
            for j, lam in enumerate(lambdas):
                model = build_model(lam)
                payoff = build_payoff(model)
                for i in ascending:
                    c = cells[j * len(gammas) + i]
                    e = good_deal_prices(model, payoff, t, c.gamma).entries[node]
                    assert c.status == e.status
                    if c.status == STATUS_OK and priced:
                        warm += 1
                        assert c.bid == pytest.approx(e.bid, rel=1e-12, abs=0)
                        assert c.ask == pytest.approx(e.ask, rel=1e-12, abs=0)
                    else:
                        assert np.array_equal([c.bid, c.ask], [e.bid, e.ask], equal_nan=True)
                    priced = priced or c.status == STATUS_OK
        return warm

    @pytest.mark.parametrize("market", PIVOT_BUDGET_MARKETS)
    def test_sweep_equals_per_cell_quotes(self, market, monkeypatch, count_calls):
        # the sweep over an unsorted level list with a duplicate answers each
        # cell as good_deal_prices does, reading every level's status from one
        # least-loss LP per date-t node and lambda row (one node at t=0, two
        # at t=1), with no check off the threshold
        u, d, r, p_up, strike = market
        gammas = [4.0, 0.25, 8.0, 1.0, 4.0, 0.5, 2.0]
        lambdas = [0.0, 0.01]

        def build_model(lam):
            return binary_tree_market(u, d, r, p_up, lam, horizon=3)

        def build_payoff(model):
            return call_payoff(model, strike)

        checks = count_calls(pricing, "_ngd")
        thresholds = count_calls(pricing, "_least_loss")
        solves = count_calls(lp, "solve")
        surfaces = {
            (t, node): liquidity_surface(
                build_model, build_payoff, gammas, lambdas, t, node=node
            )
            for t, node in ((0, 0), (1, 1))
        }
        monkeypatch.undo()
        assert checks == []
        assert len(thresholds) == 2 * len(lambdas)
        assert len(solves) == (1 + 2) * len(lambdas)
        warm = self._count_cells_like_good_deal_prices(
            build_model, build_payoff, gammas, lambdas, surfaces
        )
        assert warm > 0

    def test_sweep_equals_per_cell_quotes_on_two_securities(self):
        # two dividend-paying securities under stochastic rates, every node at
        # t=1
        rng = np.random.default_rng(7)
        tree = random_tree(rng, 6, 3)
        flow = random_cashflow(rng, tree)
        gammas = [4.0, 0.25, 8.0, 1.0, 4.0, 0.5, 2.0]
        lambdas = [0.0, 0.01]

        def build_model(lam):
            return arbitrage_free_market(
                np.random.default_rng(7), tree, dividends=True, rates=True, lam=lam,
                securities=2,
            )

        surfaces = {
            (1, node): liquidity_surface(
                build_model, lambda model: flow, gammas, lambdas, 1, node=node
            )
            for node in range(len(tree.nodes(1)))
        }
        assert len(surfaces) > 2
        statuses = {c.status for cells in surfaces.values() for c in cells}
        assert {STATUS_OK, STATUS_NGD} <= statuses
        warm = self._count_cells_like_good_deal_prices(
            build_model, lambda model: flow, gammas, lambdas, surfaces
        )
        assert warm > 0

    def test_one_quote_per_priced_cell(self, count_calls):
        # at t=1 the binary tree has two nodes; the surface quotes only the
        # requested one, while the least-loss threshold still covers both
        u, d, r, p_up, strike = PIVOT_BUDGET_MARKETS[1]
        ratios = count_calls(lp._Slice, "solve")
        cells = liquidity_surface(
            lambda lam: binary_tree_market(u, d, r, p_up, lam, horizon=3),
            lambda model: call_payoff(model, strike),
            [0.25, 0.5, 1.0, 2.0, 4.0, 8.0], [0.0, 0.01], 1, node=1,
        )
        priced = sum(c.status != STATUS_NGD for c in cells)
        assert 0 < priced < len(cells)
        assert len(ratios) == priced

    def test_band_program_is_rewritten_in_place(self):
        # one band program per lambda row: each level rewrites the band
        # column, and the program and its slack start then hold
        # _band_program's rows at the level the tie rule reads, element for
        # element, and quote as a program built for that level alone does
        u, d, r, p_up, strike = PIVOT_BUDGET_MARKETS[0]
        model = binary_tree_market(u, d, r, p_up, 0.01, horizon=3)
        rows = generators_for(model, 1)
        x = pricing._discounted_tail(model, call_payoff(model, strike), 1)
        losses = pricing._least_loss(model, rows)[0]
        for node, loss in zip(model.tree.nodes(1), losses):
            paths = list(model.tree.node_paths(node))
            cone = pricing._node_cone(rows, node.cell, paths)
            band = pricing._BandRow(model, x, rows, node)
            prog, start = band.slice.prog, band.slice.rows
            a_ub, stacked, warm = prog.a_ub, start.A, None
            num, den = pricing._ratio_terms(model, x, node, cone.shape[1])
            for gamma in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
                level = pricing._band_level(gamma, loss)
                e, warm = band.quote(level, warm)
                want = pricing._band_program(num, den, cone, len(paths), level)[2]
                assert prog.a_ub is a_ub and start.A is stacked
                assert np.array_equal(a_ub, want)
                assert np.array_equal(stacked, np.vstack([want, prog.a_eq]))
                assert np.array_equal(start.abs_supplied, np.abs(stacked))
                cold = cold_band_quote(model, x, rows, node, level)
                assert e.bid == pytest.approx(cold.bid, rel=1e-12, abs=0)
                assert e.ask == pytest.approx(cold.ask, rel=1e-12, abs=0)

    def test_pivot_budget(self, count_calls):
        # two horizon-3 binary surfaces (the benchmark's surface markets 0 and
        # 1): 3,622 pivots with Bland's rule and a phase 1 per extreme, 1,381
        # with steepest edge and one phase 1 per node polytope, 1,112 with the
        # no-good-deal check swept along each lambda row (48 hedge searches
        # down to 17), 564 with each quote after the first of a row restarted
        # from the previous one's bases, 451 with every level's status read
        # from one least-loss LP per row (phase 1 runs 26 -> 17: 8 least-loss
        # LPs, 8 first quotes and one basis the restart refused; no hedge
        # search).  An extreme whose previous optimum certifies at the wider
        # band is carried without a restart: phase 2 runs 72 -> 44 and
        # restarts 48 -> 20, with the pivots about unchanged.  414 -> 252
        # with each lambda row after the first restarted from the row
        # before: its least-loss LPs (6 of 8 solves) and its first priced
        # quote, so phase 1 runs 17 -> 4 (2 least-loss LPs and 2 first
        # quotes; a restarted basis that is not dual feasible has its costs
        # shifted instead of being refused, which saved 4 more), and a level
        # step updates the previous optimum's tableau instead of refactoring
        # it: the 20 restarts within a row are updates, and the 18 dense
        # refactors are the 6 least-loss and 12 quote restarts across rows.
        # 252 -> 195 with each extreme whose superreplication density lies
        # in the band at its level handed the recursion's bound pair, which
        # carries 44 of the 64 priced extremes without a pivot: phase 2 runs
        # 44 -> 28, the dense refactors 18 -> 11 (6 least-loss and 5 quote
        # restarts) and the updates 20 -> 11, while phase 1 runs 4 -> 5 (2
        # least-loss LPs and 3 first quotes: an extreme carried from its
        # candidate at a row's first priced level leaves the next row no
        # basis to restart that extreme from)
        pivots = count_calls(lp, "_pivot")
        starts = count_calls(lp, "_phase1")
        solves = count_calls(lp, "solve")
        finishes = count_calls(lp, "_phase2")
        restarts = count_calls(lp, "_restart")
        updates = count_calls(lp, "_update")
        for u, d, r, p_up, strike in PIVOT_BUDGET_MARKETS:
            liquidity_surface(
                lambda lam: binary_tree_market(u, d, r, p_up, lam, horizon=3),
                lambda model: call_payoff(model, strike),
                [0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
                [0.0, 0.005, 0.01, 0.02],
            )
        assert len(pivots) <= 500
        assert len(starts) == 5
        assert len(solves) == 8
        assert len(finishes) == 28
        assert len(restarts) == 11
        assert len(updates) == 11


class TestLeastLoss:
    """Each date-t node's least loss per unit of gain L is its no-good-deal
    threshold: the check is violated at a level gamma exactly when gamma L < 1
    at some node, and its witness sits at the first such node."""

    GRID = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)

    @staticmethod
    def markets():
        for u, d, r, p_up, _ in PIVOT_BUDGET_MARKETS:
            for lam in (0.0, 0.01):
                yield binary_tree_market(u, d, r, p_up, lam, horizon=3)
        # two dividend-paying securities under stochastic rates
        rng = np.random.default_rng(7)
        yield arbitrage_free_market(
            rng, random_tree(rng, 6, 3), dividends=True, rates=True, lam=0.01, securities=2
        )

    def test_threshold_matches_check(self):
        seen = set()
        for model in self.markets():
            for t in (0, 1):
                for entry in ("trade", "mark"):
                    rows = generators_for(model, t, entry)
                    loss = pricing._least_loss(model, rows)[0]
                    assert loss.shape == (len(model.tree.nodes(t)),)
                    assert np.all(loss >= 0)
                    cut = 1.0 / loss[np.isfinite(loss) & (loss > 0)]
                    for gamma in (*self.GRID, *(cut * (1 - 1e-6)), *(cut * (1 + 1e-6))):
                        check, _ = pricing._ngd(model, float(gamma), rows)
                        beaten = np.flatnonzero(gamma * loss < 1.0)
                        assert check.holds == (beaten.size == 0), (t, entry, gamma, loss)
                        if check.witness is not None:
                            assert check.witness.node.cell == beaten[0]
                        seen.add((check.holds, entry))
        assert seen == {(True, "trade"), (False, "trade"), (True, "mark"), (False, "mark")}

    def test_warm_least_loss_is_the_cold_optimum(self, monkeypatch, count_calls):
        # each node's least-loss LP restarted from its optimum at the
        # neighbouring transaction cost: the cold L to 1e-12 relative and
        # certified; a warm solution of another shape, or one that is not
        # optimal, leaves the LP to phase 1 and the cold answer bit for bit
        programs, real = {}, lp.solve
        u, d, r, p_up, _ = PIVOT_BUDGET_MARKETS[1]
        lambdas = (0.0, 0.005, 0.01, 0.02)
        for t in (0, 1):
            for lam in lambdas:
                model = binary_tree_market(u, d, r, p_up, lam, horizon=3)
                found = programs[t, lam] = []
                monkeypatch.setattr(
                    lp, "solve", lambda prog, **kw: found.append(prog) or real(prog)
                )
                pricing._least_loss(model, generators_for(model, t))
        monkeypatch.undo()
        cold = {key: [lp.solve(prog) for prog in progs] for key, progs in programs.items()}
        starts = count_calls(lp, "_phase1")
        restarted = unfit = 0
        for t in (0, 1):
            for before, lam in zip(lambdas, lambdas[1:]):
                for prog, want, prev in zip(programs[t, lam], cold[t, lam], cold[t, before]):
                    ran = len(starts)
                    got = lp.solve(prog, warm=prev)
                    assert got.status == want.status
                    if want.status == "optimal":
                        assert got.value == pytest.approx(want.value, rel=1e-12, abs=0)
                        assert max(got.gap, got.primal_residual, got.dual_residual) <= lp.TOL
                        restarted += len(starts) == ran
                    unfit_warm = (cold[1 - t, before][0],
                                  dataclasses.replace(prev, status="infeasible"))
                    for other in unfit_warm:
                        assert other.status != "optimal" or other.x.shape != prog.c.shape
                        again = lp.solve(prog, warm=other)
                        assert again.status == want.status
                        assert (np.float64(again.value).tobytes()
                                == np.float64(want.value).tobytes())
                        assert again.dual_eq.tobytes() == want.dual_eq.tobytes()
                        assert again.iterations == want.iterations
                        unfit += 1
        assert restarted >= 6 and unfit == 2 * sum(len(cold[t, lam]) for t in (0, 1)
                                                   for lam in lambdas[1:])

    def test_tie_level_reads_threshold(self, count_calls):
        # a level at 1/L of its lambda row, or just below it, takes its status
        # from the threshold alone: no check runs
        u, d, r, p_up, strike = PIVOT_BUDGET_MARKETS[0]

        def build_model(lam):
            return binary_tree_market(u, d, r, p_up, lam, horizon=3)

        model = build_model(0.01)
        loss = float(np.min(pricing._least_loss(model, generators_for(model, 0))[0]))
        tie = 1.0 / loss
        for gamma, status in ((tie, STATUS_OK), (tie * (1.0 - 5e-8), STATUS_NGD)):
            checks = count_calls(pricing, "_ngd")
            cells = liquidity_surface(
                build_model, lambda m: call_payoff(m, strike), [gamma], [0.01]
            )
            assert checks == []
            assert cells[0].status == status

    @pytest.mark.parametrize("market, lam, below", [
        *itertools.product((0, 1), (0.0, 0.005, 0.01, 0.02), (1e-8, 1e-9)),
        (1, 0.01, 1e-7),
    ])
    def test_check_just_below_ceiling(self, market, lam, below):
        # the benchmark's surface markets at a level a relative ``below``
        # under the ceiling 1/L: the check answers without raising, with the
        # verdict of the tie rule and, when violated, a witness that
        # dglr_eval confirms
        u, d, r, p_up, _ = PIVOT_BUDGET_MARKETS[market]
        model = binary_tree_market(u, d, r, p_up, lam, horizon=3)
        loss = float(np.min(pricing._least_loss(model, generators_for(model, 0))[0]))
        gamma = (1.0 - below) / loss
        check = ngd_check(model, 0, gamma)
        assert check.holds == (not pricing._beats(gamma, loss))
        assert below <= 1e-9 or not check.holds
        if check.holds:
            return
        flow = np.zeros((model.tree.n_paths, model.tree.horizon + 1))
        flow[:, -1] = check.witness.cash_flow
        ratio = dglr_eval(model.tree, flow, 0)[0]
        assert ratio == pytest.approx(check.witness.dglr) and ratio > gamma

    def test_exact_tie_agrees_with_check(self):
        # every date-3 node's best gain-loss ratio is exactly 0.5, which the
        # least-loss LP rounds to within lp.TOL on either side: the tie reads
        # as the ceiling itself, priced by the surface, the check and the
        # quotes alike
        def build_model(lam):
            return binary_tree_market(1.1, 0.92, 0.01, 0.4, lam, horizon=4)

        model = build_model(0.0)
        payoff = call_payoff(model, 100.0)
        loss = pricing._least_loss(model, generators_for(model, 3))[0]
        assert np.all(np.abs(0.5 * loss - 1.0) < lp.TOL)
        assert ngd_check(model, 3, 0.5).holds
        assert quote_status(good_deal_prices(model, payoff, 3, 0.5)) == STATUS_OK
        cell, = liquidity_surface(build_model, lambda m: payoff, [0.5], [0.0], 3)
        assert cell.status == STATUS_OK

    # the benchmark's surface markets at a level a relative ``below`` under
    # the ceiling 1/L, which _beats reads as the ceiling itself
    TIE_BAND = tuple(
        (market, lam, below)
        for market, lam in ((0, 0.02), (0, 0.005), (1, 0.01))
        for below in (9e-10, 7e-10, 5e-10, 3e-10, 2e-10, 1e-10, 3e-11)
    )

    def test_tie_band_surface_cell_is_priced_at_the_ceiling(self):
        # the check holds, and the surface prices the date-0 node at the
        # level the tie rule reads, 1/L: the quotes of a cold solve there
        for market, lam, below in self.TIE_BAND:
            u, d, r, p_up, strike = PIVOT_BUDGET_MARKETS[market]

            def build_model(lam):
                return binary_tree_market(u, d, r, p_up, lam, horizon=3)

            model = build_model(lam)
            loss = float(np.min(pricing._least_loss(model, generators_for(model, 0))[0]))
            gamma = (1.0 - below) / loss
            assert ngd_check(model, 0, gamma).holds
            cell, = liquidity_surface(
                build_model, lambda m: call_payoff(m, strike), [gamma], [lam]
            )
            ceiling = good_deal_prices(model, call_payoff(model, strike), 0, 1.0 / loss).entries[0]
            assert (cell.status, cell.bid, cell.ask) == (STATUS_OK, ceiling.bid, ceiling.ask), (
                market, lam, below, cell
            )

    def test_tie_band_programs_agree(self):
        # one verdict from L: the check holds, and the quotes and the
        # one-level surface price the date-0 node alike, bit for bit
        for market, lam, below in self.TIE_BAND:
            u, d, r, p_up, strike = PIVOT_BUDGET_MARKETS[market]

            def build_model(lam):
                return binary_tree_market(u, d, r, p_up, lam, horizon=3)

            model = build_model(lam)
            loss = float(np.min(pricing._least_loss(model, generators_for(model, 0))[0]))
            gamma = (1.0 - below) / loss
            assert ngd_check(model, 0, gamma).holds
            e = good_deal_prices(model, call_payoff(model, strike), 0, gamma).entries[0]
            cell, = liquidity_surface(
                build_model, lambda m: call_payoff(m, strike), [gamma], [lam]
            )
            case = (market, lam, below, e, cell)
            assert e.status == cell.status == STATUS_OK, case
            assert (e.bid, e.ask) == (cell.bid, cell.ask), case


class TestPrimalOracle:
    def test_zero_contract(self):
        model = binomial_model(probs=(0.25, 0.75))
        res = primal_price_oracle(model, np.zeros((2, 2)), 0, 1.0)[0]
        assert res.ask == pytest.approx(0.0, abs=1e-6)
        assert res.bid == pytest.approx(0.0, abs=1e-6)

    def test_complete_binomial_collapses_to_replication(self):
        model = binomial_model(probs=(0.25, 0.75))
        payoff = call_payoff(model)
        res = primal_price_oracle(model, payoff, 0, 1.0)[0]
        assert res.ask == pytest.approx(5.0, abs=2e-3)
        assert res.bid == pytest.approx(5.0, abs=2e-3)

    def test_matches_dual_prices_on_incomplete_market(self):
        tree = EventTree(1, [0.3, 0.4, 0.3], [[(0, 1, 2)], [(0,), (1,), (2,)]])
        bids = np.array([[100.0, 110.0], [100.0, 100.0], [100.0, 90.0]])
        model = MarketModel(tree, 0.0, [apply_transaction_costs(bids, 0.005)])
        d = np.zeros((3, 2))
        d[:, 1] = np.maximum(bids[:, 1] - 103.0, 0.0)
        gamma = best_single_ratio(model, 0) + 0.5
        assert ngd_check(model, 0, gamma).holds
        dual = good_deal_prices(model, d, 0, gamma).entries[0]
        oracle = primal_price_oracle(model, d, 0, gamma)[0]
        assert oracle.ask == pytest.approx(dual.ask, abs=1e-3)
        assert oracle.bid == pytest.approx(dual.bid, abs=1e-3)

    def test_matches_dual_prices_on_two_period_fixture(self):
        # every node at both dates, with and without costs
        for lam in (0.0, 0.005, 0.01):
            model = two_period_model(lam=lam)
            payoff = asian_call(model, 0, 65.0)
            for gamma in (8.0, 20.0):
                for t in (0, 1):
                    dual = good_deal_prices(model, payoff, t, gamma)
                    oracle = primal_price_oracle(model, payoff, t, gamma)
                    assert quote_status(dual) == STATUS_OK
                    for e, o in zip(dual.entries, oracle, strict=True):
                        assert o.ask == pytest.approx(e.ask, abs=1e-9)
                        assert o.bid == pytest.approx(e.bid, abs=1e-9)

    def test_violated_level_gives_sentinels(self):
        # below the no-good-deal threshold cash can be withdrawn without end
        model = two_period_model()
        res = primal_price_oracle(model, asian_call(model, 0, 65.0), 0, 0.05)[0]
        assert np.isposinf(res.bid) and np.isneginf(res.ask)


class TestTableReproduction:
    def test_frictionless_columns_match(self):
        model = two_period_model()
        payoff = asian_call(model, 0, 65.0)
        e0 = noarb_bounds(model, payoff, 0).entries[0]
        assert abs(e0.bid - T2_TABLE[0.0][0]) <= 1e-3
        assert abs(e0.ask - T2_TABLE[0.0][1]) <= 1e-3
        e1 = noarb_bounds(model, payoff, 1).entries[0]
        assert abs(e1.bid - 5.00014) <= 1e-3
        assert abs(e1.ask - 5.55541) <= 1e-3

    def test_mark_entry_reproduces_intermediate_date_columns(self):
        # the published intermediate-date bounds value date-t entries at
        # liquidation prices; the documented "mark" mode reproduces them
        expected = {0.005: (5.17512, 5.67765), 0.01: (5.35011, 5.79988)}
        for lam, (lo, hi) in expected.items():
            model = two_period_model(lam=lam)
            payoff = asian_call(model, 0, 65.0)
            e = noarb_bounds(model, payoff, 1, entry="mark").entries[0]
            assert abs(e.bid - lo) <= 1e-3
            assert abs(e.ask - hi) <= 1e-3

    def test_trade_entry_widens_intermediate_bounds(self):
        # transaction-priced date-1 entries make the measure set strictly
        # larger than the liquidation-marked one
        model = two_period_model(lam=0.005)
        payoff = asian_call(model, 0, 65.0)
        trade = noarb_bounds(model, payoff, 1).entries[0]
        mark = noarb_bounds(model, payoff, 1, entry="mark").entries[0]
        assert trade.bid < mark.bid - 1e-6
        assert trade.ask > mark.ask + 1e-6

    def test_entry_conventions_coincide_at_initial_date(self):
        model = two_period_model(lam=0.01)
        payoff = asian_call(model, 0, 65.0)
        trade = noarb_bounds(model, payoff, 0).entries[0]
        mark = noarb_bounds(model, payoff, 0, entry="mark").entries[0]
        assert trade.bid == pytest.approx(mark.bid, abs=1e-12)
        assert trade.ask == pytest.approx(mark.ask, abs=1e-12)


class TestNodeFormMatchesEnumeration:
    """Every quote and status over the node-form rows equals the one over the
    enumerated round trips of ``cone_reference``."""

    @staticmethod
    def close(a, b):
        return abs(a - b) <= 1e-9 * max(1.0, abs(b))

    def markets(self):
        rng = np.random.default_rng(515)
        for k in range(12):
            tree = random_tree(rng, int(rng.integers(3, 6)), int(rng.integers(2, 4)))
            lam = 0.0 if k % 3 == 0 else None
            first = arbitrage_free_market(rng, tree, dividends=True, rates=k % 2 == 1, lam=lam)
            secs = list(first.securities)
            if k % 4 >= 2:
                other = arbitrage_free_market(rng, tree, dividends=True, rates=False, lam=lam)
                secs.append(dataclasses.replace(other.securities[0], name="s2"))
            model = MarketModel(tree, first.rates, secs)
            yield model, random_cashflow(rng, tree)

    def test_bounds_good_deal_prices_and_ngd_status(self):
        statuses = set()
        for model, flow in self.markets():
            for t in range(model.tree.horizon):
                if arbitrage_check(model, t) is not None:
                    statuses.add("arbitrage")
                    continue
                for entry in ("trade", "mark"):
                    got = noarb_bounds(model, flow, t, entry=entry).entries
                    want = enumerated_quotes(model, flow, t, entry)
                    for e, w in zip(got, want, strict=True):
                        statuses.add(e.status)
                        assert (e.status == STATUS_INFEASIBLE) == (w is None)
                        if w is not None:
                            assert self.close(e.bid, w[0]) and self.close(e.ask, w[1])
                for gamma in (0.5, 2.0, 8.0):
                    holds = ngd_check(model, t, gamma).holds
                    assert holds == enumerated_ngd(model, t, gamma)
                    statuses.add(holds)
                    if not holds:
                        continue
                    got = good_deal_prices(model, flow, t, gamma).entries
                    want = enumerated_quotes(model, flow, t, gamma=gamma)
                    for e, w in zip(got, want, strict=True):
                        assert self.close(e.bid, w[0]) and self.close(e.ask, w[1])
        assert {STATUS_OK, STATUS_INFEASIBLE, True, False} <= statuses


def benchmark_tree_market(k):
    """The benchmark's tree market k (horizon 4) from its design generator,
    with its call payoff and level."""
    design = random.Random(f"design/tree/{k}")
    u, d = design.uniform(1.04, 1.12), design.uniform(0.90, 0.97)
    r, p_up = design.choice((0.0, 0.01, 0.02)), design.uniform(0.35, 0.65)
    strike = 100.0 * design.uniform(0.9, 1.1)
    model = binary_tree_market(u, d, r, p_up, (0.0, 0.005, 0.01, 0.02)[k % 4])
    return model, call_payoff(model, strike), (0.5, 1.0, 2.0, 4.0, 8.0)[k % 5]


class TestQuotesFirstMatchCheckFirst:
    """``noarb_bounds`` prices first and runs the arbitrage search only when
    the bound LPs cannot decide, while ``good_deal_prices`` reads its verdict
    from L and then runs each node's band LP.  The check-first order of
    ``oracles`` must give the same statuses and the same bids and asks bit
    for bit, and every violation a witness that ``dglr_eval`` confirms."""

    @staticmethod
    def markets(seed=2024):
        # dividends, stochastic rates, one to three securities; one market in
        # three swaps a security for randomly priced one, mostly an arbitrage
        rng = np.random.default_rng(seed)
        for k in range(100):
            tree = random_tree(rng, int(rng.integers(3, 7)), int(rng.integers(2, 4)))
            model = arbitrage_free_market(
                rng, tree, dividends=k % 2 == 1, rates=k % 4 >= 2,
                lam=0.0 if k % 5 == 0 else None, securities=int(rng.integers(1, 4)),
            )
            if k % 3 == 2:
                bad = random_market(rng, tree, dividends=True).securities[0]
                secs = [*model.securities[:-1], dataclasses.replace(bad, name="bad")]
                model = MarketModel(tree, model.rates, secs)
            yield model, random_cashflow(rng, tree)

    @staticmethod
    def answer(call):
        try:
            return call()
        except ComputationError as exc:
            return str(exc)

    def compare(self, model, quote, reference):
        """The status of ``quote``, after checking it against ``reference``."""
        if isinstance(quote, str):
            assert quote == reference
            return "raised"
        if isinstance(reference, str):
            return "answered"  # the skipped search is what raised
        for e, r in zip(quote.entries, reference.entries, strict=True):
            assert e.status == r.status
            assert np.array_equal([e.bid, e.ask], [r.bid, r.ask], equal_nan=True)
        if quote_status(quote) == STATUS_NGD:
            w = quote.witness
            flow = np.zeros((model.tree.n_paths, model.tree.horizon + 1))
            flow[:, -1] = w.cash_flow
            ratio = dglr_eval(model.tree, flow, quote.time)[model.tree.node_paths(w.node)[0]]
            assert ratio == pytest.approx(w.dglr) and ratio > quote.gamma
        return quote_status(quote)

    def test_random_markets(self, count_calls):
        seen = set()
        searches = count_calls(pricing, "_arbitrage")
        requests = fallbacks = 0

        def quote_first(call):
            # the arbitrage searches the bounds fall back to
            nonlocal requests, fallbacks
            before = len(searches)
            quote = self.answer(call)
            requests += 1
            fallbacks += len(searches) > before
            return quote

        for model, flow in self.markets():
            for t in range(model.tree.horizon):
                for entry in ("trade", "mark"):
                    quote = quote_first(lambda: noarb_bounds(model, flow, t, entry=entry))
                    ref = self.answer(lambda: check_first_bounds(model, flow, t, entry=entry))
                    seen.add(("bounds", self.compare(model, quote, ref)))
                for gamma in (0.5, 4.0):
                    quote = self.answer(lambda: good_deal_prices(model, flow, t, gamma))
                    ref = self.answer(lambda: check_first_good_deal_prices(model, flow, t, gamma))
                    seen.add(("good deal", self.compare(model, quote, ref)))
        assert {("bounds", s) for s in (STATUS_OK, STATUS_ARBITRAGE, STATUS_INFEASIBLE)} <= seen
        assert {("good deal", s) for s in (STATUS_OK, STATUS_NGD)} <= seen
        # both orders of the bounds were compared where the bound LPs decide
        # and where they fall back
        assert 0 < fallbacks < requests

    @pytest.mark.parametrize("seed", [2024, 0])
    def test_trade_cone_charges_every_node(self, seed):
        # the FTAP: each node of a market free of arbitrage has an equivalent
        # density of its trade cone, and a node its trade cone cannot charge
        # holds an arbitrage.  So trade-entry bounds read a quote or
        # `arbitrage`, and good-deal bands, which lie inside the trade cone's
        # densities, read a quote or a violation; none reads `infeasible`
        for k, (model, flow) in enumerate(self.markets(seed)):
            for t in range(model.tree.horizon):
                quotes = [noarb_bounds(model, flow, t)]
                for gamma in (0.05, 0.5, 4.0):
                    quotes.append(good_deal_prices(model, flow, t, gamma))
                for q in quotes:
                    assert STATUS_INFEASIBLE not in [e.status for e in q.entries], (k, t, q)

    def test_benchmark_tree_markets(self, count_calls):
        solves = count_calls(lp, "solve")
        for k in range(48):
            model, flow, gamma = benchmark_tree_market(k)
            for t in (0, 1):
                assert self.compare(
                    model, noarb_bounds(model, flow, t), check_first_bounds(model, flow, t)
                ) == STATUS_OK
            self.compare(
                model, good_deal_prices(model, flow, 0, gamma),
                check_first_good_deal_prices(model, flow, 0, gamma),
            )


@pytest.fixture
def bound_answers(monkeypatch):
    """Every answer of an ``lp.solve_ratio`` handed candidates, as it comes:
    a carried candidate has no basis, and an extreme the simplex solved has
    one (or is ``infeasible``)."""
    answers, real = [], lp.solve_ratio

    def recording(num, den, a_ub, warm=None):
        pair = real(num, den, a_ub, warm)
        if warm is not None:
            answers.extend(pair)
        return pair

    monkeypatch.setattr(lp, "solve_ratio", recording)
    return answers


def fell_back(answers):
    """The answers the simplex gave rather than a candidate."""
    return [a for a in answers if a.status != "optimal" or a.basis is not None]


class TestSuperreplication:
    """One-security trade bounds: the superreplication recursion's
    candidates (``cone._bound_candidates``) pass the bound LP's certificate
    and agree with the simplex alone (``oracles.cold_bound_quote``) to 1e-12
    relative, with the same statuses; the simplex runs only where a
    candidate fails."""

    BINARY = list(itertools.product(
        (1.06, 1.12), (0.9, 0.96), (0.0, 0.02), (0.4, 0.6), (0.0, 0.005, 0.02)
    ))

    @staticmethod
    def agree(model, flow, t, pivots=None):
        """The engine's quote against the simplex's, node by node; with
        ``pivots`` (``count_calls`` on ``lp._pivot``), the engine's pivots
        must be none: no answer fell back."""
        before = None if pivots is None else len(pivots)
        quote = noarb_bounds(model, flow, t)
        assert pivots is None or len(pivots) == before
        rows, x = generators_for(model, t), pricing._discounted_tail(model, flow, t)
        for e, node in zip(quote.entries, model.tree.nodes(t), strict=True):
            want = cold_bound_quote(model, x, rows, node)
            assert e.status == want.status
            for got, ref in ((e.bid, want.bid), (e.ask, want.ask)):
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (t, node, got, ref)

    def test_binary_markets(self, count_calls, bound_answers):
        pivots = count_calls(lp, "_pivot")
        for u, d, r, p_up, lam in self.BINARY:
            model = binary_tree_market(u, d, r, p_up, lam)
            for t in (0, 1, 2):
                self.agree(model, call_payoff(model, 100.0), t, pivots)
        assert len(bound_answers) == 2 * len(self.BINARY) * (1 + 2 + 4)
        assert fell_back(bound_answers) == []

    def test_fixture(self, count_calls, bound_answers):
        pivots = count_calls(lp, "_pivot")
        for lam in (0.0, 0.005, 0.01):
            model = two_period_model(lam)
            for t in (0, 1):
                self.agree(model, asian_call(model, 0, 65.0), t, pivots)
        assert len(bound_answers) == 2 * 3 * (1 + 2) and fell_back(bound_answers) == []

    def test_random_one_security_markets(self, bound_answers):
        spread = []  # the answers on markets whose short pays more dividend than a long earns
        for model, flow in one_security_panel():
            before = len(bound_answers)
            for t in range(model.tree.horizon):
                self.agree(model, flow, t)
            sec = model.securities[0]
            if (sec.div_bid != sec.div_ask).any():
                spread += bound_answers[before:]
        assert len(fell_back(bound_answers)) < 0.1 * len(bound_answers)
        # there each F kinks at z = 0 for the dividends alone: none falls back
        assert spread and fell_back(spread) == []

    def test_benchmark_tree_markets(self, count_calls, bound_answers):
        # the tree workload's own 48 markets, at both of its dates
        pivots = count_calls(lp, "_pivot")
        for k in range(48):
            model, flow = tree_workload_market(k)
            for t in (0, 1):
                self.agree(model, flow, t, pivots)
        assert len(bound_answers) == 2 * 48 * (1 + 2) and fell_back(bound_answers) == []

    def test_benchmark_ladder(self, count_calls, bound_answers):
        # the ladder's markets up to 256 paths take no pivot; the simplex
        # checks them up to horizon 5 (32 paths), within tier-1's time
        pivots = count_calls(lp, "_pivot")
        for horizon in range(2, 9):
            model, flow = ladder_workload_market(horizon)
            if horizon <= 5:
                self.agree(model, flow, 0, pivots)
                continue
            before = len(pivots)
            assert quote_status(noarb_bounds(model, flow, 0)) == STATUS_OK
            assert len(pivots) == before
        assert len(bound_answers) == 2 * 7 and fell_back(bound_answers) == []

    def test_horizons_one_five_and_six(self, bound_answers):
        for model, flow in one_security_horizons(24):
            for t in range(model.tree.horizon):
                self.agree(model, flow, t)
        assert fell_back(bound_answers) == []

    def test_failed_candidate_is_the_simplex_answer_bit_for_bit(self, monkeypatch):
        # a candidate that fails its certificate (here its price moved by
        # one) leaves its extreme to phase 1, whose answer is the one the
        # simplex gives with no candidate at all
        real = pricing._bound_candidates

        def spoiled(*args):
            pairs = real(*args)
            assert all(c is not None for pair in pairs for c in pair)
            return [tuple(dataclasses.replace(c, dual_eq=c.dual_eq + 1.0) for c in pair)
                    for pair in pairs]

        monkeypatch.setattr(pricing, "_bound_candidates", spoiled)
        model = two_period_model(0.01)
        for flow in (asian_call(model, 0, 65.0), call_payoff(model)):
            for t in (0, 1):
                rows, x = generators_for(model, t), pricing._discounted_tail(model, flow, t)
                for node, (_, got) in zip(
                    model.tree.nodes(t), pricing._node_quotes(model, flow, rows)
                ):
                    cone_ = pricing._node_cone(rows, node.cell, list(model.tree.node_paths(node)))
                    num, den = pricing._ratio_terms(model, x, node, cone_.shape[1])
                    for a, b in zip(got, lp.solve_ratio(num, den, cone_), strict=True):
                        assert (a.status, a.iterations) == (b.status, b.iterations)
                        for field in ("value", "x", "dual_ub", "dual_eq", "basis"):
                            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_recursion_leaves_arbitrage_to_the_lp(self):
        # test_arbitrage_status's market: both children bid above the root's
        # ask, so every unit bought gains and the slopes cannot meet the bid
        # and ask.  No candidate: the simplex's route finds the arbitrage
        tree = EventTree(1, [0.5, 0.5], [[(0, 1)], [(0,), (1,)]])
        bids = np.array([[50.0, 60.0], [50.0, 55.0]])
        model = MarketModel(tree, 0.0, [apply_transaction_costs(bids, 0.0)])
        x = pricing._discounted_tail(model, call_payoff(model), 0)
        assert cone._bound_candidates(model, generators_for(model, 0), x) == [(None, None)]
        assert noarb_bounds(model, call_payoff(model), 0).entries[0].status == STATUS_ARBITRAGE

    @staticmethod
    def crr(u, d, r, p_up, strike, horizon, t):
        """The CRR value of the call at each date-t node, discounted to date
        0, in node order (a node's first t moves are its cell's bits)."""
        q, n = (1.0 + r - d) / (u - d), horizon - t
        return [
            sum(
                math.comb(n, k) * q**k * (1.0 - q) ** (n - k)
                * max(100.0 * u ** (t - downs + k) * d ** (downs + n - k) - strike, 0.0)
                for k in range(n + 1)
            ) / (1.0 + r) ** horizon
            for downs in (bin(cell).count("1") for cell in range(2**t))
        ]

    def test_horizon_8_takes_no_pivot(self, count_calls):
        # 256 paths: the simplex took about 2.5 s for the date-0 pair alone
        args = 1.0518419562876573, 0.9539507146165618, 0.02, 0.5181521759298708
        strike = 96.20889592020883
        pivots = count_calls(lp, "_pivot")
        for lam in (0.0, 0.01):
            model = binary_tree_market(*args, lam, horizon=8)
            for t in (0, 1):
                quote = noarb_bounds(model, call_payoff(model, strike), t)
                for e, value in zip(quote.entries, self.crr(*args, strike, 8, t), strict=True):
                    assert e.status == STATUS_OK
                    if lam == 0.0:
                        assert e.bid == pytest.approx(value, abs=1e-9)
                        assert e.ask == pytest.approx(value, abs=1e-9)
                    else:
                        assert e.bid <= value <= e.ask
        assert pivots == []


class TestGoodDealFromBounds:
    """One-security good-deal quotes from the superreplication recursion:
    where every date-t node's two bound densities lie in the band at gamma
    and pass the band LP's certificate as its candidates, the quotes are the
    bounds and no least-loss LP runs; otherwise the check runs as before,
    and each extreme whose density lies in the band at its level is still
    handed its candidate.  Statuses and witnesses match the check-first
    order, and every quote the band program solved cold to 1e-12
    relative."""

    # the tree workload's markets (at their own levels) whose good-deal
    # request at t=0, and at t=1, runs no LP at all
    NO_LP = {
        0: [2, 4, 5, 8, 12, 13, 22, 24, 26, 28, 29, 32, 34, 38, 44],
        1: [2, 4, 5, 8, 9, 12, 13, 22, 24, 26, 28, 29, 32, 34, 36, 38, 44],
    }

    @staticmethod
    def agree(model, flow, t, gamma):
        """The engine's quote against the check-first order's (statuses,
        witness) and against each node's band program solved cold at the
        level the tie rule reads (quotes); the engine's status."""
        quote = good_deal_prices(model, flow, t, gamma)
        ref = check_first_good_deal_prices(model, flow, t, gamma)
        assert [e.status for e in quote.entries] == [e.status for e in ref.entries]
        if quote_status(quote) == STATUS_NGD:
            assert quote.witness.node == ref.witness.node
            assert quote.witness.dglr == ref.witness.dglr
            assert np.array_equal(quote.witness.cash_flow, ref.witness.cash_flow)
            return STATUS_NGD
        assert quote.witness is None
        rows, x = generators_for(model, t), pricing._discounted_tail(model, flow, t)
        losses = pricing._least_loss(model, rows)[0]
        for e, node, loss in zip(quote.entries, model.tree.nodes(t), losses, strict=True):
            cold = cold_band_quote(model, x, rows, node, pricing._band_level(gamma, loss))
            for got, want in ((e.bid, cold.bid), (e.ask, cold.ask)):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (t, node, got, want)
        return quote_status(quote)

    @staticmethod
    def ran_no_lp(count_calls):
        """A function of a request that reads whether it ran no least-loss
        LP and no pivot."""
        losses, pivots = count_calls(cone, "_node_least_loss"), count_calls(lp, "_pivot")

        def request(call):
            before = len(losses), len(pivots)
            call()
            return (len(losses), len(pivots)) == before

        return request

    def test_benchmark_tree_markets(self, count_calls):
        quiet = self.ran_no_lp(count_calls)
        for t in (0, 1):
            holding, skipped = 0, []
            for k in range(48):
                model, flow = tree_workload_market(k)
                gamma = (0.5, 1.0, 2.0, 4.0, 8.0)[k % 5]
                if quiet(lambda: good_deal_prices(model, flow, t, gamma)):
                    skipped.append(k)
                holding += self.agree(model, flow, t, gamma) == STATUS_OK
            assert skipped == self.NO_LP[t]
            assert holding == (28, 31)[t]

    def test_random_one_security_markets(self, count_calls):
        quiet = self.ran_no_lp(count_calls)
        seen, skipped = set(), 0
        for model, flow in one_security_panel():
            for t in range(model.tree.horizon):
                for gamma in (0.5, 4.0, 50.0):
                    skipped += quiet(lambda: good_deal_prices(model, flow, t, gamma))
                    seen.add(self.agree(model, flow, t, gamma))
        assert seen == {STATUS_OK, STATUS_NGD} and skipped

    def test_failed_candidate_is_the_cold_answer_bit_for_bit(self, monkeypatch, count_calls):
        # a band candidate that fails its certificate (here its price moved
        # by one) leaves its extreme to phase 1, whose answer is the one the
        # band program gives with no candidate at all; the check runs
        real = pricing._band_candidate

        def spoiled(sol, n):
            cand = real(sol, n)
            return dataclasses.replace(cand, dual_eq=cand.dual_eq + 1.0)

        monkeypatch.setattr(pricing, "_band_candidate", spoiled)
        checks = count_calls(pricing, "_ngd")
        for k in self.NO_LP[0][:5]:
            model, flow = tree_workload_market(k)
            gamma = (0.5, 1.0, 2.0, 4.0, 8.0)[k % 5]
            for t in (0, 1):
                before = len(checks)
                quote = good_deal_prices(model, flow, t, gamma)
                assert len(checks) == before + 1
                rows, x = generators_for(model, t), pricing._discounted_tail(model, flow, t)
                losses = pricing._least_loss(model, rows)[0]
                for e, node, loss in zip(quote.entries, model.tree.nodes(t), losses, strict=True):
                    cold = cold_band_quote(model, x, rows, node, pricing._band_level(gamma, loss))
                    assert (e.status, e.bid, e.ask) == (cold.status, cold.bid, cold.ask)

    def test_several_securities_take_the_check(self, count_calls):
        # no recursion runs for a market with more securities: the check,
        # then each node's band program from phase 1, bit for bit
        recursions = count_calls(pricing, "_Recursion")
        rng = np.random.default_rng(7)
        tree = random_tree(rng, 6, 3)
        flow = random_cashflow(rng, tree)
        model = arbitrage_free_market(rng, tree, dividends=True, rates=True, lam=0.01,
                                      securities=2)
        seen = set()
        for t in range(tree.horizon):
            for gamma in (0.5, 4.0, 50.0):
                quote = good_deal_prices(model, flow, t, gamma)
                ref = check_first_good_deal_prices(model, flow, t, gamma)
                seen.add(quote_status(quote))
                for e, r in zip(quote.entries, ref.entries, strict=True):
                    assert np.array_equal([e.bid, e.ask], [r.bid, r.ask])
        assert recursions == [] and STATUS_OK in seen

    def test_level_validated_before_the_recursion(self, count_calls):
        recursions = count_calls(pricing, "_Recursion")
        model = two_period_model(lam=0.01)
        for gamma in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValidationError, match="acceptance level"):
                good_deal_prices(model, asian_call(model, 0, 65.0), 0, gamma)
        assert recursions == []
