import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_pricer.acceptability import DensityBand, dglr_eval
from conic_pricer.errors import ValidationError
from conic_pricer.lattice import EventTree, tail_sum

from conftest import random_cashflow, random_tree, two_period_tree
from oracles import (
    band_extreme_vertices,
    band_ratio_extreme,
    conditional_expectation,
    correspondence_check,
    index_level,
    rho_gamma,
    rho_reference,
)


def two_state(probs=(0.5, 0.5)):
    return EventTree(1, probs, [[(0, 1)], [(0,), (1,)]])


def terminal_flow(tree, x):
    d = np.zeros((tree.n_paths, tree.horizon + 1))
    d[:, -1] = x
    return d


class TestDensityBand:
    def test_levels_validated(self):
        with pytest.raises(ValidationError):
            DensityBand(0.0)
        with pytest.raises(ValidationError):
            DensityBand(-1.0)
        with pytest.raises(ValidationError):
            DensityBand(np.inf)


class TestDglrEval:
    def test_hedge_flow_ratio(self):
        tree = two_period_tree()
        d = np.zeros((5, 3))
        d[:, 1] = [30, 30, 30, -10, -10]
        out = dglr_eval(tree, d, 0)
        assert np.allclose(out, 9.0 / 5.25)
        assert out[0] == pytest.approx(1.714286, abs=1e-6)

    def test_no_loss_leg_is_infinite(self):
        tree = two_state()
        out = dglr_eval(tree, terminal_flow(tree, [1.0, 0.0]), 0)
        assert np.all(np.isinf(out))

    def test_nonpositive_mean_is_zero(self):
        tree = two_state()
        out = dglr_eval(tree, terminal_flow(tree, [1.0, -3.0]), 0)
        assert np.all(out == 0.0)

    def test_zero_flow_is_infinite_by_convention(self):
        tree = two_state()
        out = dglr_eval(tree, np.zeros((2, 2)), 0)
        assert np.all(np.isinf(out))

    def test_per_node_values(self):
        tree = two_period_tree()
        d = np.zeros((5, 3))
        d[:, 2] = [10.0, -5.0, 2.0, 1.0, -1.0]
        out = dglr_eval(tree, d, 1)
        up = (0.1 * 10 - 0.125 * 5 + 0.25 * 2) / (0.125 * 5)
        dn = (0.25 * 1 - 0.275 * 1) / (0.275 * 1)
        assert out[0] == pytest.approx(up)
        assert out[3] == pytest.approx(max(dn, 0.0))

    def test_legs_are_conditional_means(self, rng):
        # where the remaining flow has positive mean and a loss leg, the
        # ratio is E[X | F_t] / E[X^- | F_t] on every node
        seen = 0
        for _ in range(20):
            tree = random_tree(rng, 9, 3)
            d = random_cashflow(rng, tree)
            t = int(rng.integers(0, tree.horizon + 1))
            x = tail_sum(d, t)
            gain = conditional_expectation(tree, x, t)
            loss = conditional_expectation(tree, np.maximum(-x, 0.0), t)
            out = dglr_eval(tree, d, t)
            live = (gain > 0.0) & (loss > 0.0)
            assert np.allclose(out[live], gain[live] / loss[live], rtol=1e-12, atol=0.0)
            assert np.all(out[(gain <= 0.0) & (loss > 0.0)] == 0.0)
            seen += int(live.sum())
        assert seen > 0


class TestRhoGamma:
    def test_two_state_band_risk(self):
        tree = two_state()
        d = terminal_flow(tree, [1.0, -1.0])
        out = rho_gamma(tree, d, 0, 1.0)
        assert np.allclose(out, 1.0 / 3.0)

    def test_constant_flow_translation(self):
        tree = two_state()
        d = terminal_flow(tree, [2.5, 2.5])
        for gamma in (0.1, 1.0, 10.0):
            assert np.allclose(rho_gamma(tree, d, 0, gamma), -2.5)

    def test_small_gamma_limit_is_mean(self):
        tree = two_state((0.3, 0.7))
        x = np.array([2.0, -1.0])
        d = terminal_flow(tree, x)
        out = rho_gamma(tree, d, 0, 1e-9)
        assert np.allclose(out, -(0.3 * 2 - 0.7), atol=1e-8)

    def test_methods_agree(self, rng):
        # the threshold scan against vertex enumeration and against the LP
        for _ in range(40):
            tree = random_tree(rng, int(rng.integers(2, 7)), int(rng.integers(1, 4)))
            d = random_cashflow(rng, tree)
            t = int(rng.integers(0, tree.horizon + 1))
            gamma = float(rng.uniform(0.05, 5.0))
            scan = rho_gamma(tree, d, t, gamma)
            for vertex_cap in (20, 0):
                ref = rho_reference(tree, d, t, gamma, vertex_cap=vertex_cap)
                assert np.all(np.abs(ref - scan) <= 1e-9 * (1.0 + np.abs(scan)))

    def test_start_parameter_shifts_the_window(self):
        tree = two_period_tree()
        d = np.zeros((5, 3))
        d[:, 1] = 1.0
        d[:, 2] = [2.0, -1.0, 0.0, 0.0, 0.0]
        with_date = rho_gamma(tree, d, 1, 0.5)
        tail_only = rho_gamma(tree, d, 1, 0.5, start=2)
        assert np.allclose(with_date, tail_only - 1.0)

    def test_monotone_and_continuous_in_gamma(self, rng):
        for _ in range(20):
            tree = random_tree(rng, int(rng.integers(2, 7)), int(rng.integers(1, 3)))
            d = random_cashflow(rng, tree)
            grid = np.linspace(0.01, 4.0, 25)
            vals = np.array([rho_gamma(tree, d, 0, g)[0] for g in grid])
            assert np.all(np.diff(vals) >= -1e-12)
            fine = np.array([rho_gamma(tree, d, 0, g)[0] for g in grid + 1e-7])
            assert np.max(np.abs(fine - vals)) <= 1e-5

    def test_vertex_cap_falls_back_to_lp(self, rng):
        tree = random_tree(rng, 6, 1)
        d = random_cashflow(rng, tree)
        out = rho_reference(tree, d, 0, 1.0, vertex_cap=3)
        assert np.max(np.abs(out - rho_gamma(tree, d, 0, 1.0))) <= 1e-9


class TestBandRatioExtreme:
    def test_scan_equals_full_vertex_enumeration(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 9))
            x = rng.normal(size=n)
            w = rng.uniform(0.05, 1.0, size=n)
            gamma = float(rng.uniform(0.05, 8.0))
            for minimize in (True, False):
                fast = band_ratio_extreme(x, w, gamma, minimize=minimize)
                full = band_extreme_vertices(x, w, gamma, minimize=minimize)
                assert fast == pytest.approx(full, abs=1e-12)


class TestIndexLevel:
    def test_two_state_closed_form(self):
        tree = two_state()
        d = terminal_flow(tree, [3.0, -1.0])
        out = index_level(tree, d, 0)
        assert out[0] == pytest.approx(2.0, abs=1e-6)

    def test_gain_only_flow(self):
        tree = two_state()
        d = terminal_flow(tree, [1.0, 0.0])
        assert np.all(np.isinf(index_level(tree, d, 0)))

    def test_nonpositive_mean(self):
        tree = two_state()
        d = terminal_flow(tree, [1.0, -3.0])
        assert np.all(index_level(tree, d, 0) == 0.0)

    def test_matches_ratio_on_random_instances(self, rng):
        for _ in range(100):
            tree = random_tree(rng, int(rng.integers(2, 7)), int(rng.integers(1, 4)))
            d = random_cashflow(rng, tree)
            t = int(rng.integers(0, tree.horizon + 1))
            idx = index_level(tree, d, t)
            ratio = dglr_eval(tree, d, t)
            finite = np.isfinite(idx) | np.isfinite(ratio)
            assert np.array_equal(np.isinf(idx), np.isinf(ratio))
            assert np.max(np.abs(idx[finite] - ratio[finite]), initial=0.0) <= 1e-6


class TestCorrespondence:
    def test_boundary_level(self):
        tree = two_period_tree()
        d = np.zeros((5, 3))
        d[:, 1] = [30, 30, 30, -10, -10]
        report = correspondence_check(tree, [(d, 0, 12.0 / 7.0)])
        assert report.ok

    def test_level_above_ratio_fails_both_sides(self):
        tree = two_period_tree()
        d = np.zeros((5, 3))
        d[:, 1] = [30, 30, 30, -10, -10]
        x = d[:, 1]
        p = tree.probabilities
        gamma = 2.0
        assert float(p @ x) - gamma * float(p @ np.maximum(-x, 0)) < 0
        assert band_ratio_extreme(x, p, gamma, minimize=True) < 0
        report = correspondence_check(tree, [(d, 0, gamma)])
        assert report.ok  # both sides false together is consistent

    def test_constant_positive_flow(self):
        tree = two_period_tree()
        d = np.zeros((5, 3))
        d[:, 2] = 1.0
        report = correspondence_check(tree, [(d, 0, 3.0), (d, 1, 0.5)])
        assert report.ok

    def test_randomized_sweep(self, rng):
        tree = random_tree(rng, 6, 2)
        samples = []
        for _ in range(30):
            samples.append(
                (random_cashflow(rng, tree), int(rng.integers(0, 3)),
                 float(rng.uniform(0.05, 4.0)))
            )
        report = correspondence_check(tree, samples)
        assert report.checked > 0
        assert report.failures == []


# --- risk-measure axioms ----------------------------------------------------


def _instance(rng):
    tree = random_tree(rng, int(rng.integers(2, 7)), int(rng.integers(1, 4)))
    d = random_cashflow(rng, tree)
    t = int(rng.integers(0, tree.horizon + 1))
    gamma = float(rng.uniform(0.1, 5.0))
    return tree, d, t, gamma


class TestRiskAxioms:
    def test_adaptedness(self, rng):
        for _ in range(60):
            tree, d, t, gamma = _instance(rng)
            out = rho_gamma(tree, d, t, gamma)
            for cell in tree.partitions[t]:
                block = out[list(cell)]
                assert np.max(block) - np.min(block) == 0.0

    def test_independence_of_past(self, rng):
        for _ in range(60):
            tree, d, t, gamma = _instance(rng)
            other = d.copy()
            other[:, :t] = rng.normal(size=(tree.n_paths, t))  # past differs
            cell = tree.partitions[t][0]
            off = [i for i in range(tree.n_paths) if i not in cell]
            for s in range(t, tree.horizon + 1):  # future differs off the cell
                for c2 in tree.partitions[s]:
                    if set(c2) <= set(off):
                        other[list(c2), s] += rng.normal()
            a = rho_gamma(tree, d, t, gamma)
            b = rho_gamma(tree, other, t, gamma)
            assert np.max(np.abs(a[list(cell)] - b[list(cell)])) <= 1e-9

    def test_monotonicity(self, rng):
        for _ in range(60):
            tree, d, t, gamma = _instance(rng)
            higher = d.copy()
            higher[:, t:] += np.abs(rng.normal(size=(tree.n_paths, tree.horizon + 1 - t)))
            # keep the bump adapted
            for s in range(t, tree.horizon + 1):
                for cell in tree.partitions[s]:
                    higher[list(cell), s] = higher[list(cell)[0], s]
            assert np.all(
                rho_gamma(tree, higher, t, gamma) <= rho_gamma(tree, d, t, gamma) + 1e-12
            )

    def test_positive_homogeneity(self, rng):
        for _ in range(60):
            tree, d, t, gamma = _instance(rng)
            lam = float(rng.uniform(0.1, 4.0))
            lhs = rho_gamma(tree, lam * d, t, gamma)
            rhs = lam * rho_gamma(tree, d, t, gamma)
            assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_subadditivity(self, rng):
        for _ in range(60):
            tree, d, t, gamma = _instance(rng)
            other = random_cashflow(rng, tree)
            lhs = rho_gamma(tree, d + other, t, gamma)
            rhs = rho_gamma(tree, d, t, gamma) + rho_gamma(tree, other, t, gamma)
            assert np.all(lhs <= rhs + 1e-9)

    def test_translation_invariance(self, rng):
        for _ in range(60):
            tree, d, t, gamma = _instance(rng)
            m = np.zeros(tree.n_paths)
            for cell in tree.partitions[t]:
                m[list(cell)] = rng.normal()
            s = int(rng.integers(t, tree.horizon + 1))
            shifted = d.copy()
            shifted[:, s] += m
            lhs = rho_gamma(tree, shifted, t, gamma)
            rhs = rho_gamma(tree, d, t, gamma) - m
            assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_dynamic_consistency_sandwich(self, rng):
        for _ in range(60):
            tree = random_tree(rng, int(rng.integers(3, 7)), int(rng.integers(2, 4)))
            d = random_cashflow(rng, tree)
            gamma = float(rng.uniform(0.1, 5.0))
            t = int(rng.integers(0, tree.horizon))
            rho_t = rho_gamma(tree, d, t, gamma)
            rho_next = rho_gamma(tree, d, t + 1, gamma)
            for cell in tree.partitions[t]:
                idx = list(cell)
                lo = np.min(rho_next[idx]) - d[idx[0], t]
                hi = np.max(rho_next[idx]) - d[idx[0], t]
                assert lo - 1e-9 <= rho_t[idx[0]] <= hi + 1e-9


# --- index axioms -------------------------------------------------------------

IDX_TOL = 2e-6  # two bisections' worth of slack


def _cmp(a, b):
    """a >= b allowing infinities and bisection noise."""
    return np.all((a >= b - IDX_TOL) | (np.isinf(a) & (a > 0)) | np.isneginf(b))


class TestIndexAxioms:
    def test_adapted_and_scale_invariant(self, rng):
        for _ in range(40):
            tree, d, t, _ = _instance(rng)
            out = index_level(tree, d, t)
            for cell in tree.partitions[t]:
                block = out[list(cell)]
                assert np.max(block) == np.min(block)
            lam = float(rng.uniform(0.2, 5.0))
            scaled = index_level(tree, lam * d, t)
            finite = np.isfinite(out) & np.isfinite(scaled)
            assert np.max(np.abs(out[finite] - scaled[finite]), initial=0.0) <= IDX_TOL
            assert np.array_equal(np.isinf(out), np.isinf(scaled))

    def test_monotonicity(self, rng):
        for _ in range(40):
            tree, d, t, _ = _instance(rng)
            higher = d.copy()
            for s in range(t, tree.horizon + 1):
                for cell in tree.partitions[s]:
                    higher[list(cell), s] += abs(rng.normal())
            assert _cmp(index_level(tree, higher, t), index_level(tree, d, t))

    def test_quasi_concavity(self, rng):
        for _ in range(40):
            tree, d, t, _ = _instance(rng)
            other = random_cashflow(rng, tree)
            a = index_level(tree, d, t)
            b = index_level(tree, other, t)
            floor = np.minimum(a, b)
            for lam in (0.25, 0.5, 0.75):
                mix = index_level(tree, lam * d + (1 - lam) * other, t)
                assert _cmp(mix, floor)

    def test_translation_between_dates(self, rng):
        for _ in range(40):
            tree, d, t, _ = _instance(rng)
            if t == tree.horizon:
                continue
            m = np.zeros(tree.n_paths)
            for cell in tree.partitions[t]:
                m[list(cell)] = rng.normal()
            at_t = d.copy()
            at_t[:, t] += m
            s = int(rng.integers(t + 1, tree.horizon + 1))
            at_s = d.copy()
            at_s[:, s] += m
            a = index_level(tree, at_t, t)
            b = index_level(tree, at_s, t)
            finite = np.isfinite(a) & np.isfinite(b)
            assert np.max(np.abs(a[finite] - b[finite]), initial=0.0) <= IDX_TOL
            assert np.array_equal(np.isinf(a), np.isinf(b))

    def test_dynamic_consistency(self, rng):
        for _ in range(40):
            tree = random_tree(rng, int(rng.integers(3, 7)), int(rng.integers(2, 4)))
            t = int(rng.integers(0, tree.horizon))
            gain = random_cashflow(rng, tree)
            gain[:, t] = np.abs(gain[:, t])
            loss = random_cashflow(rng, tree)
            loss[:, t] = -np.abs(loss[:, t])
            a_next = index_level(tree, gain, t + 1)
            a_now = index_level(tree, gain, t)
            b_next = index_level(tree, loss, t + 1)
            b_now = index_level(tree, loss, t)
            for cell in tree.partitions[t]:
                idx = list(cell)
                m = np.min(a_next[idx])
                assert a_now[idx[0]] >= min(m, 1e12) - IDX_TOL
                mm = np.max(b_next[idx])
                assert b_now[idx[0]] <= mm + IDX_TOL

    def test_independence_of_past(self, rng):
        for _ in range(40):
            tree, d, t, _ = _instance(rng)
            other = d.copy()
            other[:, :t] = rng.normal(size=(tree.n_paths, t))
            a = index_level(tree, d, t)
            b = index_level(tree, other, t)
            cell = list(tree.partitions[t][0])
            finite = np.isfinite(a[cell]) & np.isfinite(b[cell])
            diffs = np.abs(a[cell][finite] - b[cell][finite])
            assert np.max(diffs, initial=0.0) <= IDX_TOL


class TestWeakConsistency:
    def test_band_family_on_small_trees(self, rng):
        # per node: today's worst-case band expectation never exceeds the best
        # child's worst case
        for _ in range(50):
            tree = random_tree(rng, int(rng.integers(2, 7)), int(rng.integers(1, 4)))
            x = rng.normal(size=tree.n_paths) * 3.0
            gamma = float(rng.uniform(0.1, 5.0))
            t = int(rng.integers(0, tree.horizon))
            p = tree.probabilities
            for cell in tree.partitions[t]:
                idx = list(cell)
                today = band_extreme_vertices(x[idx], p[idx], gamma)
                best_child = max(
                    band_extreme_vertices(x[list(kid)], p[list(kid)], gamma)
                    for kid in tree.partitions[t + 1]
                    if set(kid) <= set(cell)
                )
                assert today <= best_child + 1e-9
