import dataclasses

import numpy as np
import pytest

from conic_pricer import cone, lp, pricing
from conic_pricer.cone import arbitrage_check, generators_for, hedge_strategy
from conic_pricer.errors import ComputationError, ValidationError
from conic_pricer.lattice import EventTree, NodeRef
from conic_pricer.market import (
    MarketModel,
    apply_transaction_costs,
    make_self_financing,
)
from conic_pricer.pricing import ngd_check

from cone_reference import (
    block_rows,
    children,
    enumerated_arbitrage,
    generator_strategy,
    node_rows_of,
    reference_generators,
    stopping_profiles,
)
from conftest import (
    TABLE_BIDS,
    arbitrage_free_market,
    binary_tree_market,
    binomial_model,
    quote_status,
    random_cashflow,
    random_market,
    random_tree,
    two_period_model,
    two_period_tree,
)
from oracles import wealth_closed_form


def two_security_market(rng, tree) -> MarketModel:
    """Two securities with dividends over adapted stochastic rates."""
    first = random_market(rng, tree, dividends=True, rates=True)
    second = random_market(rng, tree, dividends=True).securities[0]
    return MarketModel(
        tree, first.rates,
        [first.securities[0], dataclasses.replace(second, name="s2")],
    )


class TestStoppingProfiles:
    def test_root_of_two_period_tree_has_four(self):
        tree = two_period_tree()
        profiles = stopping_profiles(tree, NodeRef(0, 0))
        assert len(profiles) == 4
        # first profile liquidates everything at the next date
        assert all(s.time == 1 for s in profiles[0].sells)

    def test_profiles_are_exact_covers(self):
        tree = two_period_tree()
        for prof in stopping_profiles(tree, NodeRef(0, 0)):
            counts = np.zeros(tree.n_paths, dtype=int)
            for sell in prof.sells:
                for i in tree.node_paths(sell):
                    counts[i] += 1
            assert all(counts[i] == 1 for i in tree.node_paths(prof.root))
            assert all(s.time > prof.root.time for s in prof.sells)

    def test_penultimate_root_has_one(self):
        tree = two_period_tree()
        assert len(stopping_profiles(tree, NodeRef(1, 0))) == 1

    def test_single_period(self):
        tree = EventTree(1, [0.5, 0.5], [[(0, 1)], [(0,), (1,)]])
        assert len(stopping_profiles(tree, NodeRef(0, 0))) == 1

    def test_terminal_root_rejected(self):
        tree = two_period_tree()
        with pytest.raises(ValidationError):
            stopping_profiles(tree, NodeRef(2, 0))


class TestGeneratorsFor:
    """The node-form rows against the enumerated round trips of
    ``cone_reference``, and that enumeration's own structure."""

    def test_counts(self):
        model = two_period_model()
        assert len(reference_generators(model, 0)) == 12
        assert len(reference_generators(model, 1)) == 4
        # open rows at the root and both date-1 nodes, carry-on rows at the
        # date-1 nodes, long and short
        assert len(generators_for(model, 0)) == 10
        assert len(generators_for(model, 1)) == 4

    def test_row_count_grows_with_the_nodes(self):
        # binary horizon 4: 1,500 round trips, 15 + 14 nodes x long/short
        for horizon, count in ((4, 58), (8, 1018)):
            model = binary_tree_market(1.1, 0.9, 0.0, 0.5, 0.01, horizon)
            assert len(generators_for(model, 0)) == count

    def test_one_step_long_values(self):
        model = two_period_model()
        first = reference_generators(model, 0)[0]
        assert first.kind == "long"
        assert np.allclose(first.values, [30, 30, 30, -10, -10])
        rows = generators_for(model, 0)
        root_long = np.flatnonzero((rows.date == 0) & (rows.side == 1) & ~rows.carry)
        assert len(root_long) == 1
        assert np.allclose(rows.a_u[root_long[0]] / model.probabilities, first.values)

    def test_nesting(self):
        model = two_period_model(lam=0.01)
        later = {(g.kind, g.security, g.profile) for g in reference_generators(model, 1)}
        earlier = {(g.kind, g.security, g.profile) for g in reference_generators(model, 0)}
        assert later < earlier

    def test_matrix_matches_path_by_path_reference(self, rng):
        # every enumerated round trip is its open row plus a carry-on row at
        # each node it holds through: the weights reproduce its path-by-path
        # values, and every envelope column they leave nonzero is the one of a
        # sell node, held and not carried on
        for _ in range(15):
            tree = random_tree(rng, int(rng.integers(3, 8)), int(rng.integers(2, 4)))
            model = two_security_market(rng, tree)
            p = model.probabilities
            for t in range(tree.horizon):
                rows = generators_for(model, t)
                for g in reference_generators(model, t):
                    w = node_rows_of(model, rows, g)
                    assert np.allclose(w @ rows.a_u / p, g.values, rtol=0, atol=1e-12)
                    assert set(np.unique(w @ rows.a_v)) <= {0.0, 1.0}

    def test_mark_entry_refunds_the_date_t_spread(self):
        model = two_period_model(lam=0.01)
        sec = model.securities[0]
        trade, mark = generators_for(model, 1), generators_for(model, 1, "mark")
        on_node = model.tree.cell_index(1)[None, :] == trade.cell[:, None]
        spread = (sec.ask[:, 1] - sec.bid[:, 1]) * model.probabilities
        assert np.allclose(mark.a_u - trade.a_u, spread * on_node, rtol=0, atol=1e-12)
        assert np.array_equal(generators_for(model, 0, "mark").a_u, generators_for(model, 0).a_u)

    def test_rows_written_in_place_equal_the_block_builder(self):
        # exactly, field by field and in the same order: row order sets the
        # pivot paths of every program built on the rows
        rng = np.random.default_rng(20261019)
        models = []
        for _ in range(12):
            tree = random_tree(rng, int(rng.integers(3, 9)), int(rng.integers(1, 4)))
            models += [
                arbitrage_free_market(rng, tree, dividends=True, rates=True, lam=lam, securities=2)
                for lam in (0.0, 0.01)
            ]
        models.append(binary_tree_market(1.1, 0.9, 0.01, 0.5, 0.01, 6))
        for model in models:
            for t in range(model.tree.horizon):
                for entry in ("trade", "mark"):
                    got, ref = generators_for(model, t, entry), block_rows(model, t, entry)
                    assert got.start == ref.start == t
                    assert got.mark == ref.mark == (entry == "mark" and t >= 1)
                    for field in dataclasses.fields(got):
                        a, b = getattr(got, field.name), getattr(ref, field.name)
                        if field.name not in ("start", "mark"):
                            assert a.dtype.kind == b.dtype.kind, field.name
                            assert np.array_equal(a, b), field.name

    def test_entry_and_start_are_validated(self):
        model = two_period_model()
        with pytest.raises(ValidationError, match="entry"):
            generators_for(model, 0, "bid")
        with pytest.raises(ValidationError, match="outside 0..1"):
            generators_for(model, 2)

    def test_strategy_consistency_on_random_markets(self, rng):
        # every generator is the terminal discounted wealth of an explicit
        # zero-cost self-financing strategy
        for _ in range(25):
            tree = random_tree(rng, int(rng.integers(3, 8)), int(rng.integers(2, 4)))
            model = random_market(rng, tree, dividends=True, rates=True)
            for g in reference_generators(model, 0):
                phi = generator_strategy(model, g)
                vt = wealth_closed_form(model, phi)[:, tree.horizon]
                assert np.max(np.abs(vt - g.values)) <= 1e-9

    def test_domination_soundness(self, rng):
        # conic combinations are dominated by an honest self-financing
        # strategy built from the summed security legs, and the node rows'
        # strategy of the same combination is that strategy
        for _ in range(20):
            tree = random_tree(rng, int(rng.integers(3, 8)), int(rng.integers(2, 4)))
            model = random_market(rng, tree, dividends=True)
            gens = reference_generators(model, 0)
            rows = generators_for(model, 0)
            G = np.array([g.values for g in gens])
            w = rng.uniform(0.0, 1.0, size=len(gens)) * (rng.random(len(gens)) < 0.4)
            legs = np.zeros((tree.horizon + 1, 1, tree.n_paths))
            y = np.zeros(len(rows))
            for k, g in enumerate(gens):
                if w[k]:
                    legs += w[k] * generator_strategy(model, g).holdings[:, 1:, :]
                    y += w[k] * node_rows_of(model, rows, g)
            chi = make_self_financing(model, legs)
            vt = wealth_closed_form(model, chi)[:, tree.horizon]
            assert np.min(vt - w @ G) >= -1e-9
            phi = hedge_strategy(model, rows, y)
            assert np.allclose(phi.holdings, chi.holdings, rtol=0, atol=1e-12)
            assert np.allclose(y @ rows.a_u / model.probabilities, w @ G, rtol=0, atol=1e-9)

    def test_hedge_strategy_matches_the_loop_bit_for_bit(self, rng):
        # the legs of random weights on the rows of two or three securities
        # with dividends over stochastic rates, filled date by date and
        # security by security
        for _ in range(30):
            tree = random_tree(rng, int(rng.integers(3, 8)), int(rng.integers(2, 4)))
            model = arbitrage_free_market(
                rng, tree, dividends=True, rates=True, securities=int(rng.integers(2, 4))
            )
            for t in range(tree.horizon):
                rows = generators_for(model, t)
                y = rng.uniform(0.0, 1.0, len(rows)) * (rng.random(len(rows)) < 0.5)
                w = y * rows.side
                legs = np.zeros((tree.horizon + 1, model.n_securities, tree.n_paths))
                for s in range(t, tree.horizon):
                    for j in range(model.n_securities):
                        pick = (rows.date == s) & (rows.security == j)
                        units = np.bincount(rows.cell[pick], w[pick], len(tree.partitions[s]))
                        legs[s + 1, j] = units[tree.cell_index(s)]
                want = make_self_financing(model, legs).holdings
                assert np.array_equal(hedge_strategy(model, rows, y).holdings, want)

    def test_multi_step_strictness(self):
        # holding through the intermediate date beats rolling two one-step
        # trades by exactly the intermediate spread
        model = two_period_model(lam=0.01)
        sec = model.securities[0]
        gens0 = reference_generators(model, 0)
        hold = next(
            g for g in gens0
            if g.kind == "long" and g.root.time == 0
            and all(s.time == 2 for s in g.profile.sells)
        )
        step0 = next(
            g for g in gens0
            if g.kind == "long" and g.root.time == 0
            and all(s.time == 1 for s in g.profile.sells)
        )
        up_step = next(g for g in gens0 if g.kind == "long" and g.root == NodeRef(1, 0))
        dn_step = next(g for g in gens0 if g.kind == "long" and g.root == NodeRef(1, 1))
        rolled = step0.values + up_step.values + dn_step.values
        diff = hold.values - rolled
        spread = sec.ask[:, 1] - sec.bid[:, 1]
        assert np.all(diff > 0.0)
        assert np.allclose(diff, spread)


def ftap_markets(seed, count=80):
    """Random markets on 3-7 paths over horizon 2 or 3, with dividends and
    stochastic rates in turn: one in three is randomly priced, mostly with an
    arbitrage, and the rest are free of arbitrage by construction, with one
    to three securities, some of them frictionless."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        tree = random_tree(rng, int(rng.integers(3, 8)), int(rng.integers(2, 4)))
        flags = dict(dividends=bool(k % 2), rates=bool((k // 2) % 2))
        if k % 3 == 0:
            yield random_market(rng, tree, **flags)
        else:
            yield arbitrage_free_market(
                rng, tree, lam=0.0 if k % 5 == 0 else None,
                securities=int(rng.integers(1, 4)), **flags,
            )


class TestArbitrageCheck:
    def test_two_period_market_is_clean(self):
        assert arbitrage_check(two_period_model(), 0) is None
        assert arbitrage_check(two_period_model(lam=0.01), 0) is None

    def test_dominated_price_is_caught(self, monkeypatch):
        tree = two_period_tree()
        bids = TABLE_BIDS.copy()
        bids[3:, 1] = 55.0  # every date-1 bid now exceeds the date-0 ask
        bids[3:, 2] = [60.0, 56.0]
        model = MarketModel(tree, 0.0, [apply_transaction_costs(bids, 0.0)])
        witness = arbitrage_check(model, 0)
        assert witness is not None
        assert witness.node == NodeRef(0, 0)
        assert np.all(witness.cash_flow >= -1e-9)
        assert witness.cash_flow @ tree.probabilities > 0.1
        # a lossless hedge that its certificate rejects is an error, not an
        # arbitrage without a witness
        monkeypatch.setattr(cone, "good_deal_certificate", lambda *args: None)
        with pytest.raises(ComputationError, match="fails its certificate"):
            arbitrage_check(model, 0)

    def test_constant_prices_are_clean(self):
        tree = two_period_tree()
        flat = np.full((5, 3), 25.0)
        model = MarketModel(tree, 0.0, [apply_transaction_costs(flat, 0.0)])
        assert arbitrage_check(model, 0) is None
        model = MarketModel(tree, 0.0, [apply_transaction_costs(flat, 0.02)])
        assert arbitrage_check(model, 0) is None

    def test_witness_restricted_to_one_node(self):
        # mispricing only below the date-1 down node
        tree = two_period_tree()
        bids = TABLE_BIDS.copy()
        bids[3:, 2] = [70.0, 50.0]  # both leaves above the down-node price 40
        model = MarketModel(tree, 0.0, [apply_transaction_costs(bids, 0.0)])
        witness = arbitrage_check(model, 1)
        assert witness is not None
        assert witness.node == NodeRef(1, 1)
        assert np.all(witness.cash_flow[:3] == 0.0)

    def test_binomial_consistency(self):
        assert arbitrage_check(binomial_model(), 0) is None

    def test_rounding_is_not_arbitrage(self):
        # Frictionless martingale markets: a round trip across a node with a
        # single child is worth exactly zero but computes to about 1e-14.
        markets = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            tree = random_tree(rng, int(rng.integers(3, 7)), 3)
            if all(len(children(tree, v)) > 1 for s in range(3) for v in tree.nodes(s)):
                continue
            model = arbitrage_free_market(
                rng, tree, dividends=bool(seed % 2), rates=bool(seed % 3), lam=0.0
            )
            markets += 1
            for t in range(3):
                assert arbitrage_check(model, t) is None, (seed, t)
        assert markets >= 30


    def test_agrees_with_enumerated_search(self, rng):
        # same verdict and node as the feasibility LP over the enumerated
        # round trips; every witness is a strategy whose wealth dominates its
        # nonnegative cash flow
        found = clean = 0
        for k in range(40):
            tree = random_tree(rng, int(rng.integers(3, 7)), int(rng.integers(2, 4)))
            if k % 2:
                model = two_security_market(rng, tree)
            else:
                model = arbitrage_free_market(rng, tree, dividends=True, rates=True)
            for t in range(tree.horizon):
                witness = arbitrage_check(model, t)
                want = enumerated_arbitrage(model, t)
                assert (witness is None) == (want is None)
                if witness is None:
                    clean += 1
                    continue
                found += 1
                assert witness.node == want
                paths = list(tree.node_paths(witness.node))
                assert np.all(witness.cash_flow >= -1e-9)
                assert witness.cash_flow[paths] @ tree.probabilities[paths] >= 1.0 - 1e-9
                wealth = wealth_closed_form(model, witness.strategy)[:, tree.horizon]
                assert np.all(wealth >= witness.cash_flow - 1e-9)
        assert found >= 10 and clean >= 10

    def test_arbitrage_is_a_node_without_loss(self):
        # the first fundamental theorem in engine terms: a date-t node has an
        # arbitrage exactly when its least expected loss per unit of gain L
        # is zero (to lp.TOL), and the witness is that node's lossless hedge
        found = clean = 0
        for seed in (2024, 0):
            for k, model in enumerate(ftap_markets(seed)):
                tree = model.tree
                p = tree.probabilities
                for t in range(tree.horizon):
                    loss = pricing._least_loss(model, generators_for(model, t))[0]
                    witness = arbitrage_check(model, t)
                    assert (witness is not None) == (loss.min() <= lp.TOL), (seed, k, t)
                    if witness is None:
                        clean += 1
                        continue
                    found += 1
                    assert witness.node.cell == np.flatnonzero(loss <= lp.TOL)[0]
                    paths = list(tree.node_paths(witness.node))
                    assert np.all(witness.cash_flow >= -1e-9)
                    assert abs(witness.cash_flow[paths] @ p[paths] - 1.0) <= 1e-9
                    wealth = wealth_closed_form(model, witness.strategy)[:, tree.horizon]
                    assert np.all(wealth >= witness.cash_flow - 1e-9)
        assert found >= 100 and clean >= 200

    def test_one_witness_reader(self, count_calls):
        # an arbitrage at the root beats every level: the arbitrage search and
        # the no-good-deal check certify the root's least-loss hedge through
        # the one certificate, into one witness
        reads = {module: count_calls(module, "good_deal_certificate") for module in (cone, pricing)}
        found = 0
        for model in ftap_markets(2024):
            for calls in reads.values():
                calls.clear()
            witness = arbitrage_check(model, 0)
            if witness is None:
                continue
            found += 1
            assert (len(reads[cone]), len(reads[pricing])) == (1, 0)
            for gamma in (0.5, 8.0):
                reads[cone].clear()
                check = ngd_check(model, 0, gamma).witness
                assert (len(reads[cone]), len(reads[pricing])) == (0, 1)
                reads[pricing].clear()
                assert type(check) is type(witness) is cone.GoodDealWitness
                assert check.node == witness.node == NodeRef(0, 0)
                assert check.dglr == witness.dglr > gamma
                assert np.array_equal(check.cash_flow, witness.cash_flow)
                assert np.array_equal(check.strategy.holdings, witness.strategy.holdings)
        assert found >= 10

    def test_least_loss_decides_where_feasibility_lp_fails(self):
        # the last market of the seed-2024 draw: a feasibility LP over the
        # transposed rows (min total weight for a nonnegative flow of unit
        # mass) fails its infeasibility certificate here, with dual residue
        # 0.75; every node's least loss is above zero
        *_, model = ftap_markets(2024)
        tree = model.tree
        assert (tree.n_paths, tree.horizon, model.n_securities) == (6, 3, 3)
        assert np.all(pricing._least_loss(model, generators_for(model, 0))[0] > lp.TOL)
        assert arbitrage_check(model, 0) is None
        flow = random_cashflow(np.random.default_rng(79), tree)
        assert quote_status(pricing.noarb_bounds(model, flow, 0)) == pricing.STATUS_OK


class TestOneEnumerationPerQuote:
    """Each pricing call builds the cone rows of its convention once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        real = cone.generators_for

        def counting(*args, **kwargs):
            counted.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(cone, "generators_for", counting)
        monkeypatch.setattr(pricing, "generators_for", counting)
        return counted

    @pytest.fixture
    def flow(self):
        flow = np.zeros((5, 3))
        flow[:, 2] = np.maximum(TABLE_BIDS[:, 2] - 65.0, 0.0)
        return flow

    def test_noarb_bounds(self, calls, flow):
        # the bound LPs prove this market free of arbitrage, so each call
        # builds only the rows of its convention
        model = two_period_model(lam=0.01)
        for t, entry, builds in ((0, "trade", [0]), (1, "trade", [1]), (1, "mark", [1])):
            calls.clear()
            quote = pricing.noarb_bounds(model, flow, t, entry=entry)
            assert quote_status(quote) == pricing.STATUS_OK
            assert calls == builds
        # a node the mark cone cannot charge sends the market to the
        # arbitrage search, which builds the trade rows as well
        bids = TABLE_BIDS.copy()
        bids[:3, 2] = [80.3, 80.5, 80.6]
        tree = two_period_tree()
        model = MarketModel(tree, 0.0, [apply_transaction_costs(bids, 0.01)])
        calls.clear()
        quote = pricing.noarb_bounds(model, flow, 1, entry="mark")
        assert quote_status(quote) == pricing.STATUS_INFEASIBLE
        assert calls == [1, 1]

    def test_ngd_check_and_good_deal_prices(self, calls, flow):
        model = two_period_model(lam=0.01)
        for gamma in (0.25, 8.0):  # violated, then holding
            for price in (
                lambda: pricing.ngd_check(model, 0, gamma),
                lambda: pricing.good_deal_prices(model, flow, 0, gamma),
                lambda: pricing.good_deal_prices(model, flow, 1, gamma),
            ):
                calls.clear()
                price()
                assert len(calls) == 1

    def test_liquidity_surface_once_per_lambda(self, calls, flow):
        gammas, lambdas = [0.25, 8.0, 12.0], [0.0, 0.01]
        cells = pricing.liquidity_surface(
            two_period_model, lambda model: flow, gammas, lambdas
        )
        assert {c.status for c in cells} == {pricing.STATUS_NGD, pricing.STATUS_OK}
        assert calls == [0] * len(lambdas)
