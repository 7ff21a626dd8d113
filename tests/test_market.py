import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_pricer.errors import ValidationError
from conic_pricer.lattice import EventTree
from conic_pricer.market import (
    CashFlow,
    MarketModel,
    Security,
    TradingStrategy,
    apply_transaction_costs,
    asian_call,
    cds_dividends,
    discount_factors,
    make_self_financing,
)

from conftest import (
    TABLE_BIDS,
    arbitrage_free_market,
    random_legs,
    random_market,
    random_self_financing,
    random_tree,
    two_period_model,
    two_period_tree,
    zero_strategy,
)
from oracles import (
    _closed_form_sum,
    is_self_financing,
    reference_market_error,
    wealth_closed_form,
    wealth_process,
)


def self_financing_loop(model, legs):
    """The savings slot of ``make_self_financing`` date by date and security
    by security: each date banks its dividends less its rebalancing cost."""
    tree = model.tree
    n, T, S = tree.n_paths, tree.horizon, model.n_securities
    B, _ = discount_factors(model)
    split = lambda v, pos, neg: np.where(v >= 0, v * pos, v * neg)  # noqa: E731
    h = np.zeros((T + 1, S + 1, n))
    h[:, 1:, :] = legs
    cost0 = np.zeros(n)
    for j, sec in enumerate(model.securities):
        cost0 += split(legs[1, j], sec.ask[:, 0], sec.bid[:, 0])
    h[1, 0] = -cost0
    for t in range(1, T):
        receipts, rebal = np.zeros(n), np.zeros(n)
        for j, sec in enumerate(model.securities):
            d_ask = sec.div_ask[:, t] - sec.div_ask[:, t - 1]
            d_bid = sec.div_bid[:, t] - sec.div_bid[:, t - 1]
            receipts += split(legs[t, j], d_ask, d_bid)
            rebal += split(legs[t + 1, j] - legs[t, j], sec.ask[:, t], sec.bid[:, t])
        h[t + 1, 0] = h[t, 0] + (receipts - rebal) / B[:, t]
    return h


def buy_then_liquidate(model):
    """Buy one share at date 0 on credit, sell at date 1, bank to maturity."""
    legs = np.zeros((3, 1, 5))
    legs[1, 0, :] = 1.0
    return make_self_financing(model, legs)


class TestDiscounting:
    def test_zero_rate(self):
        model = two_period_model()
        B, Binv = discount_factors(model)
        assert np.all(B == 1.0) and np.all(Binv == 1.0)

    def test_flat_rate_unit_initial(self):
        tree = two_period_tree()
        model = MarketModel(tree, 0.1, [apply_transaction_costs(TABLE_BIDS, 0.0)])
        B, _ = discount_factors(model)
        assert np.allclose(B[:, 0], 1.0)
        assert np.allclose(B[:, 1], 1.1)
        assert np.allclose(B[:, 2], 1.21)

    def test_state_dependent_rates_stay_adapted(self):
        tree = two_period_tree()
        rates = np.zeros((5, 2))
        rates[:, 0] = 0.05
        rates[:3, 1] = 0.1
        rates[3:, 1] = 0.2
        model = MarketModel(tree, rates, [apply_transaction_costs(TABLE_BIDS, 0.0)])
        B, _ = discount_factors(model)
        assert np.allclose(B[:3, 2], 1.05 * 1.1)
        assert np.allclose(B[3:, 2], 1.05 * 1.2)


class TestTransactionCosts:
    def test_ask_and_mid(self):
        sec = apply_transaction_costs(np.full((1, 1), 50.0), 0.01)
        assert sec.ask[0, 0] == pytest.approx(50.5)
        assert sec.mid[0, 0] == pytest.approx(50.25)

    def test_frictionless(self):
        sec = apply_transaction_costs(TABLE_BIDS, 0.0)
        assert np.array_equal(sec.ask, sec.bid)
        assert np.array_equal(sec.mid, sec.bid)

    def test_table_row(self):
        sec = apply_transaction_costs(TABLE_BIDS, 0.005)
        assert np.allclose(sec.ask[:, 0], 50.25)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValidationError):
            apply_transaction_costs(TABLE_BIDS, -0.1)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_non_finite_lambda_rejected(self, lam):
        # NaN passed a lam < 0 test and split every cell of the rebuilt
        # tree; inf made every ask non-finite
        with pytest.raises(ValidationError, match=(
            rf"^transaction cost coefficient must be finite and >= 0, got {lam}$"
        )):
            apply_transaction_costs(TABLE_BIDS, lam)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(lam=st.floats(0.0, 0.5))
    def test_mid_between_bid_and_ask(self, lam):
        sec = apply_transaction_costs(TABLE_BIDS, lam)
        assert np.all(sec.bid <= sec.mid + 1e-12)
        assert np.all(sec.mid <= sec.ask + 1e-12)


class TestModelValidation:
    def test_assumption_violation_names_path_and_date(self):
        tree = two_period_tree()
        ask = TABLE_BIDS.copy()
        ask[:3, 1] -= 1.0  # ask below bid across the date-1 up node
        with pytest.raises(ValidationError, match=r"Assumption A violated at path w1, t=1"):
            MarketModel(tree, 0.0, [Security("s", TABLE_BIDS, ask,
                                             np.zeros((5, 3)), np.zeros((5, 3)))])

    def test_dividend_increment_order_enforced(self):
        tree = two_period_tree()
        div_ask = np.zeros((5, 3))
        div_ask[:, 1] = 1.0
        div_ask[:, 2] = 2.0
        div_bid = np.zeros((5, 3))  # increments smaller than ask's

        with pytest.raises(ValidationError, match="Assumption A"):
            MarketModel(tree, 0.0, [Security("s", TABLE_BIDS, TABLE_BIDS,
                                             div_ask, div_bid)])

    def test_negative_rates_rejected(self):
        tree = two_period_tree()
        with pytest.raises(ValidationError, match="nonnegative"):
            MarketModel(tree, -0.01, [apply_transaction_costs(TABLE_BIDS, 0.0)])

    def test_unadapted_rates_rejected(self):
        tree = two_period_tree()
        rates = np.zeros((5, 2))
        rates[4, 1] = 0.01  # differs from path 3 inside date-1 cell (3, 4)
        with pytest.raises(ValidationError) as exc:
            MarketModel(tree, rates, [apply_transaction_costs(TABLE_BIDS, 0.0)])
        assert str(exc.value) == "rates is not measurable at t=1: 0.0 on path w4, 0.01 on path w5"

    def test_repeated_security_name_rejected(self):
        # a payoff names its underlying: a second "stock" would leave the
        # name to pick the first of the two
        tree = two_period_tree()
        first = apply_transaction_costs(TABLE_BIDS, 0.0, name="stock")
        second = apply_transaction_costs(2.0 * TABLE_BIDS, 0.0, name="stock")
        with pytest.raises(ValidationError, match="^security name 'stock' is used twice$"):
            MarketModel(tree, 0.0, [first, second])


class TestWealth:
    def test_buy_then_liquidate_values(self):
        model = two_period_model()
        phi = buy_then_liquidate(model)
        V = wealth_process(model, phi)
        assert np.allclose(V[:, 0], 0.0)
        assert np.allclose(V[:3, 1], 30.0)
        assert np.allclose(V[3:, 1], -10.0)

    def test_zero_strategy(self):
        model = two_period_model()
        phi = zero_strategy(model)
        assert np.all(wealth_process(model, phi) == 0.0)

    def test_short_sale_with_costs(self):
        model = two_period_model(lam=0.01)
        h = np.zeros((3, 2, 5))
        h[1, 1, :] = -1.0  # short one share
        h[1, 0, :] = 50.0  # bank the bid proceeds
        h[2] = h[1]
        phi = TradingStrategy(h)
        V = wealth_process(model, phi)
        assert np.allclose(V[:, 0], 0.0)  # 50 - 50
        assert np.allclose(V[:3, 1], 50.0 - 80.0 * 1.01)  # repurchase at the ask


class TestSelfFinancing:
    def test_bank_completion_passes(self):
        model = two_period_model()
        phi = buy_then_liquidate(model)
        assert is_self_financing(model, phi).ok
        # the liquidation banks the sale price net of the purchase loan
        assert np.allclose(phi.holdings[2, 0, :3], 30.0)
        assert np.allclose(phi.holdings[2, 0, 3:], -10.0)

    def test_perturbation_is_reported(self):
        model = two_period_model()
        phi = buy_then_liquidate(model)
        h = phi.holdings.copy()
        h[2, 0, 3:] += 1.0  # inject cash at the down node
        check = is_self_financing(model, TradingStrategy(h))
        assert not check.ok
        assert check.time == 1
        assert check.path in (3, 4)
        assert check.residual == pytest.approx(1.0)

    def test_zero_strategy_is_self_financing(self):
        model = two_period_model()
        assert is_self_financing(model, zero_strategy(model)).ok

    def test_array_passes_match_the_loop_bit_for_bit(self, rng):
        # two or three securities with dividends over stochastic rates; some
        # securities are never held
        for _ in range(40):
            tree = random_tree(rng, int(rng.integers(3, 8)), int(rng.integers(1, 4)))
            model = arbitrage_free_market(
                rng, tree, dividends=True, rates=True, securities=int(rng.integers(2, 4))
            )
            legs = random_legs(rng, tree, model.n_securities)
            legs[:, rng.random(model.n_securities) < 0.3] = 0.0
            phi = make_self_financing(model, legs)
            assert np.array_equal(phi.holdings, self_financing_loop(model, legs))


class TestClosedForm:
    def test_buy_then_liquidate_closed_form(self):
        model = two_period_model()
        phi = buy_then_liquidate(model)
        V = wealth_closed_form(model, phi)
        assert np.allclose(V[:3], [[0, 30, 30]] * 3)
        assert np.allclose(V[3:], [[0, -10, -10]] * 2)

    def test_zero_strategy(self):
        model = two_period_model()
        V = wealth_closed_form(model, zero_strategy(model))
        assert np.all(V == 0.0)

    def test_refuses_non_self_financing(self):
        model = two_period_model()
        h = buy_then_liquidate(model).holdings.copy()
        h[2, 0] += 1.0
        with pytest.raises(ValidationError, match="not self-financing"):
            wealth_closed_form(model, TradingStrategy(h))

    def test_matches_discounted_recursion_on_random_markets(self, rng):
        for _ in range(200):
            tree = random_tree(rng, int(rng.integers(2, 9)), int(rng.integers(1, 4)))
            model = random_market(rng, tree, dividends=True, rates=True)
            phi = random_self_financing(rng, model)
            _, Binv = model.discounts()
            lhs = wealth_closed_form(model, phi)
            rhs = Binv * wealth_process(model, phi)
            assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_equivalence_fails_for_perturbed_strategies(self, rng):
        # the closed form characterizes self-financing: breaking the rebalance
        # identity at one node must break the identity of the two wealths
        for _ in range(50):
            tree = random_tree(rng, int(rng.integers(3, 8)), int(rng.integers(2, 4)))
            model = random_market(rng, tree, dividends=True, rates=True)
            phi = random_self_financing(rng, model)
            h = phi.holdings.copy()
            t = int(rng.integers(2, tree.horizon + 1))
            h[t, 0] += 1.0
            broken = TradingStrategy(h)
            assert not is_self_financing(model, broken).ok
            _, Binv = model.discounts()
            lhs = broken and _closed_form_sum(model, broken)
            rhs = Binv * wealth_process(model, broken)
            assert np.max(np.abs(lhs - rhs)) > 1e-6


class TestFrictionlessReduction:
    def test_wealth_is_initial_plus_gains(self, rng):
        # with equal bid/ask prices and dividends, discounted wealth minus the
        # initial cost telescopes into holdings times discounted gain moves
        for _ in range(40):
            tree = random_tree(rng, int(rng.integers(2, 7)), int(rng.integers(1, 4)))
            n, T = tree.n_paths, tree.horizon
            model = random_market(rng, tree, lam=0.0, dividends=False, rates=True)
            sec = model.securities[0]
            d_inc = np.zeros((n, T + 1))
            for t in range(1, T + 1):
                for cell in tree.partitions[t]:
                    d_inc[list(cell), t] = rng.uniform(0.0, 1.0)
            div = np.cumsum(d_inc, axis=1)
            model = MarketModel(tree, model.rates,
                                [Security("s", sec.bid, sec.bid, div, div)])
            phi = random_self_financing(rng, model)
            _, Binv = model.discounts()
            V = wealth_closed_form(model, phi)
            gains = Binv * sec.bid + np.cumsum(Binv * np.diff(div, prepend=0.0, axis=1), axis=1)
            acc = V[:, 0].copy()
            for t in range(1, T + 1):
                acc = acc + phi.holdings[t, 1] * (gains[:, t] - gains[:, t - 1])
                assert np.max(np.abs(V[:, t] - acc)) <= 1e-9


class TestNonlinearity:
    def test_offsetting_positions_do_not_cancel_costs(self):
        model = two_period_model(lam=0.02)
        n = model.tree.n_paths
        long_h = np.zeros((3, 2, n))
        long_h[1:, 1, :] = 1.0
        short_h = np.zeros((3, 2, n))
        short_h[1:, 1, :] = -1.0
        v_long = wealth_process(model, TradingStrategy(long_h))
        v_short = wealth_process(model, TradingStrategy(short_h))
        v_sum = wealth_process(model, TradingStrategy(long_h + short_h))
        gap = v_long[:, 0] + v_short[:, 0] - v_sum[:, 0]
        assert np.all(gap > 0.5)  # the round-trip spread at date 0


class TestAsianCall:
    def test_frictionless_payoff(self):
        model = two_period_model()
        D = asian_call(model, "stock", 65.0, "mid")
        assert np.allclose(D.values[:, 2], [8 + 1 / 3, 1 + 2 / 3, 0, 0, 0], atol=1e-9)
        assert np.all(D.values[:, :2] == 0.0)

    def test_deep_out_of_the_money(self):
        model = two_period_model()
        D = asian_call(model, 0, 1000.0)
        assert np.all(D.values == 0.0)

    def test_mid_scaling_with_costs(self):
        model = two_period_model(lam=0.01)
        D = asian_call(model, "stock", 65.0, "mid")
        assert D.values[0, 2] == pytest.approx(8.70, abs=1e-9)

    def test_averaging_selector(self):
        model = two_period_model(lam=0.01)
        bid = asian_call(model, 0, 65.0, "bid").values[0, 2]
        ask = asian_call(model, 0, 65.0, "ask").values[0, 2]
        mid = asian_call(model, 0, 65.0, "mid").values[0, 2]
        assert bid < mid < ask
        with pytest.raises(ValidationError):
            asian_call(model, 0, 65.0, "median")


def first_unpredictable(tree, h):
    """The message naming the first date, cell, path and slot, in that
    order, where a slot of ``h`` differs from the cell's first path inside
    a cell of the partition before it, scanned cell by cell; or None."""
    for t in range(1, tree.horizon + 1):
        for head, *rest in tree.partitions[t - 1]:
            for i in rest:
                for slot in h[t]:
                    if slot[i] != slot[head]:
                        return (f"holdings at t={t} are not predictable: {slot[head]} on path "
                                f"{tree.paths[head]}, {slot[i]} on path {tree.paths[i]}")
    return None


class TestPredictability:
    def test_earliest_date_across_slots_is_named(self):
        tree = two_period_tree()
        h = np.zeros((3, 2, 5))
        h[2, 0, 4] = 1.0  # the savings slot breaks at t=2 on (3, 4)
        h[1, 1, 0] = 1.0  # the security slot at t=1 on the root
        with pytest.raises(ValidationError) as err:
            TradingStrategy(h).validate(tree)
        assert str(err.value) == (
            "holdings at t=1 are not predictable: 1.0 on path w1, 0.0 on path w2"
        )

    def test_first_cell_of_the_date_across_slots_is_named(self):
        tree = two_period_tree()
        h = np.zeros((3, 2, 5))
        h[2, 0, 4] = 1.0  # the savings slot breaks on (3, 4)
        h[2, 1, 2] = 1.0  # the security slot on (0, 1, 2)
        with pytest.raises(ValidationError) as err:
            TradingStrategy(h).validate(tree)
        assert str(err.value) == (
            "holdings at t=2 are not predictable: 0.0 on path w1, 1.0 on path w3"
        )

    def test_names_the_first_cell_of_a_cell_by_cell_scan(self, rng):
        for _ in range(200):
            tree = random_tree(rng, int(rng.integers(2, 9)), int(rng.integers(1, 4)))
            model = random_market(rng, tree)
            h = random_self_financing(rng, model).holdings.copy()
            for _ in range(int(rng.integers(0, 4))):
                t = int(rng.integers(1, tree.horizon + 1))
                h[t, int(rng.integers(0, 2)), int(rng.integers(0, tree.n_paths))] += 1.0
            want = first_unpredictable(tree, h)
            if want is None:
                TradingStrategy(h).validate(tree)
                continue
            with pytest.raises(ValidationError) as err:
                TradingStrategy(h).validate(tree)
            assert str(err.value) == want


def random_stopping_time(rng, tree):
    """Default dates (None: no default) that each date's cells decide whole."""
    tau = [None] * tree.n_paths
    for t in range(1, tree.horizon + 1):
        for cell in tree.partitions[t]:
            if tau[cell[0]] is None and rng.random() < 0.3:
                for i in cell:
                    tau[i] = t
    return tau


def cds_reference(tree, tau, delta, kappa):
    """The cumulative stream path by path: fees counted date by date."""
    T = tree.horizon
    A = np.zeros((tree.n_paths, T + 1))
    for i, v in enumerate(tau):
        v = T + 1 if v is None else v
        fees = 0
        for t in range(1, T + 1):
            if t < v:
                fees += 1
            A[i, t] = (delta if v <= t else 0.0) - kappa * fees
    return A


class TestCdsDividends:
    def test_streams_equal_the_path_by_path_reference(self, rng):
        for _ in range(200):
            tree = random_tree(rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)))
            tau = random_stopping_time(rng, tree)
            delta, kappa_ask, kappa_bid = rng.uniform(0.0, 1.0), *rng.uniform(-0.2, 0.2, 2)
            a_ask, a_bid = cds_dividends(tree, tau, delta, kappa_ask, kappa_bid)
            assert a_ask.tobytes() == cds_reference(tree, tau, delta, kappa_ask).tobytes()
            assert a_bid.tobytes() == cds_reference(tree, tau, delta, kappa_bid).tobytes()

    def test_first_date_and_cell_of_a_non_stopping_time_are_named(self):
        tree = two_period_tree()
        # default-by-1 differs inside both date-1 cells, (0, 1, 2) first;
        # the path that defaulted is named first
        with pytest.raises(ValidationError) as err:
            cds_dividends(tree, [None, 1, None, 1, None], 0.6, 0.1, 0.1)
        assert str(err.value) == (
            "tau is not a stopping time: default by t=1 on path w2, not on path w1"
        )
        with pytest.raises(ValidationError) as err:
            cds_dividends(tree, [1, None, None, None, None], 0.6, 0.1, 0.1)
        assert str(err.value) == (
            "tau is not a stopping time: default by t=1 on path w1, not on path w2"
        )

    def test_default_at_final_date(self):
        tree = two_period_tree()
        a_ask, a_bid = cds_dividends(tree, [2, 2, 2, 2, 2], 0.6, 0.1, 0.1)
        assert np.allclose(a_ask[:, 1], -0.1)
        assert np.allclose(a_ask[:, 2], 0.5)
        assert np.array_equal(a_ask, a_bid)

    def test_no_default_pays_fees_only(self):
        tree = two_period_tree()
        a_ask, _ = cds_dividends(tree, [None] * 5, 0.6, 0.1, 0.08)
        assert np.allclose(a_ask[:, 2], -0.2)

    def test_degenerate_contract(self):
        tree = two_period_tree()
        a_ask, a_bid = cds_dividends(tree, [None] * 5, 0.0, 0.0, 0.0)
        assert np.all(a_ask == 0.0) and np.all(a_bid == 0.0)

    def test_stopping_time_enforced(self):
        tree = two_period_tree()
        # paths w1 and w2 share the date-1 node, so default-at-1 on only one
        # of them is not observable
        with pytest.raises(ValidationError, match="stopping time"):
            cds_dividends(tree, [1, None, None, None, None], 0.6, 0.1, 0.1)

    @pytest.mark.parametrize("tau", [1.9, True])
    def test_default_time_must_be_an_integer(self, tau):
        # 1.9 truncated to date 1 and True read as 1
        with pytest.raises(ValidationError, match="default time on path w1 must be an integer"):
            cds_dividends(two_period_tree(), [tau] * 5, 0.6, 0.1, 0.1)

    def test_adapted_default_accepted_and_model_valid(self):
        tree = two_period_tree()
        a_ask, a_bid = cds_dividends(tree, [1, 1, 1, None, None], 0.6, 0.1, 0.05)
        model = MarketModel(
            tree, 0.0,
            [Security("cds", np.zeros((5, 3)), np.zeros((5, 3)), a_ask, a_bid)],
        )
        assert model.securities[0].div_ask[0, 1] == pytest.approx(0.6)
        assert model.securities[0].div_bid[3, 2] == pytest.approx(-0.1)


class TestCashFlowIngest:
    def test_rejects_non_adapted(self):
        tree = two_period_tree()
        vals = np.zeros((5, 3))
        vals[0, 1] = 1.0
        with pytest.raises(ValidationError):
            CashFlow.ingest(tree, vals)


def _corrupted_market(seed: int, corruption: str):
    """A random arbitrage-free market (dividends, rates, two or three
    securities) on a random tree, with exactly one ``corruption``: a NaN, a
    value that is not measurable (in the rates or a price process), ask
    below bid across one cell, or an ask dividend increment above the bid
    one across one cell.  Returns (tree, rates, securities)."""
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, int(rng.integers(2, 9)), int(rng.integers(1, 4)))
    model = arbitrage_free_market(
        rng, tree, dividends=bool(rng.integers(2)), rates=bool(rng.integers(2)),
        securities=int(rng.integers(2, 4)),
    )
    rates = model.rates.copy()
    secs = [Security(s.name, s.bid.copy(), s.ask.copy(), s.div_ask.copy(), s.div_bid.copy())
            for s in model.securities]
    sec = secs[int(rng.integers(len(secs)))]
    n, T = tree.n_paths, tree.horizon
    processes = [sec.bid, sec.ask, sec.div_ask, sec.div_bid]
    if corruption == "nan":
        processes[int(rng.integers(4))][int(rng.integers(n)), int(rng.integers(T + 1))] = np.nan
    elif corruption in ("unmeasurable", "unmeasurable rates"):
        values, last = (rates, T - 1) if corruption == "unmeasurable rates" else (
            processes[int(rng.integers(4))], T)
        # a cell of two or more paths; date 0 has one
        shared = [(t, c) for t in range(last + 1) for c in tree.partitions[t] if len(c) > 1]
        t, cell = shared[int(rng.integers(len(shared)))]
        values[cell[int(rng.integers(len(cell)))], t] += 0.01
    elif corruption == "crossed":
        t = int(rng.integers(T + 1))
        cell = list(tree.partitions[t][int(rng.integers(len(tree.partitions[t])))])
        sec.ask[cell, t] = sec.bid[cell, t] - 0.5
    else:  # an ask dividend increment above the bid one, from date t on
        t = int(rng.integers(1, T + 1))
        cell = list(tree.partitions[t][int(rng.integers(len(tree.partitions[t])))])
        sec.div_ask[cell, t:] += 1.0
    return tree, rates, secs


class TestOneStackedPass:
    """MarketModel's one stacked pass names the same failure as checking
    one process at a time."""

    @pytest.mark.parametrize(
        "corruption", ["nan", "unmeasurable", "unmeasurable rates", "crossed", "dividend order"]
    )
    def test_one_corruption_named_as_the_per_process_reference(self, corruption):
        for seed in range(40):
            tree, rates, secs = _corrupted_market(seed, corruption)
            want = reference_market_error(tree, rates, secs)
            assert want is not None, (seed, corruption)
            with pytest.raises(ValidationError) as exc:
                MarketModel(tree, rates, secs)
            assert str(exc.value) == want, (seed, corruption)

    def test_clean_markets_pass_both(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            tree = random_tree(rng, int(rng.integers(2, 9)), int(rng.integers(1, 4)))
            model = arbitrage_free_market(rng, tree, dividends=True, rates=True, securities=3)
            assert reference_market_error(tree, model.rates, model.securities) is None

    def test_discount_factors_match_the_date_by_date_product_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n, T = int(rng.integers(1, 9)), int(rng.integers(1, 7))
            tree = random_tree(rng, n, T)
            rates = rng.uniform(0.0, 0.2, size=(n, T))
            for t in range(T):  # adapted: one rate per date-t cell
                for cell in tree.partitions[t]:
                    rates[list(cell), t] = rates[cell[0], t]
            model = MarketModel(tree, rates, [Security("s", *np.ones((2, n, T + 1)),
                                                       *np.zeros((2, n, T + 1)))])
            B, Binv = discount_factors(model)
            loop = np.ones((n, T + 1))
            for t in range(1, T + 1):
                loop[:, t] = loop[:, t - 1] * (1.0 + rates[:, t - 1])
            assert B.tobytes() == loop.tobytes()
            assert Binv.tobytes() == (1.0 / loop).tobytes()
