import dataclasses

import numpy as np
import pytest

from conic_pricer import lp
from conic_pricer.cli import EXIT_INTERNAL, main
from conic_pricer.errors import ComputationError, ValidationError
from conic_pricer.fixtures import fixture_path
from conic_pricer.lp import LinearProgram, solve, solve_ratio
from conic_pricer.pricing import _with_band

from conftest import lp_vertex_oracle
from lp_reference import _pivot as full_pivot
from lp_reference import reference_solve
from lp_reference import solve_ratio as charnes_cooper


class TestSolveBasics:
    def test_simple_max(self):
        prog = LinearProgram.build("max", [1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
        sol = solve(prog)
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0, abs=1e-12)

    def test_infeasible(self):
        prog = LinearProgram.build("max", [0.0], a_ub=[[1.0]], b_ub=[-1.0])
        assert solve(prog).status == "infeasible"

    def test_unbounded(self):
        prog = LinearProgram.build("max", [1.0])
        assert solve(prog).status == "unbounded"

    def test_min_sense(self):
        prog = LinearProgram.build(
            "min", [2.0, 3.0], a_ub=[[-1.0, -1.0]], b_ub=[-1.0]
        )
        sol = solve(prog)
        assert sol.value == pytest.approx(2.0, abs=1e-12)
        assert sol.x[0] == pytest.approx(1.0, abs=1e-12)

    def test_equalities_and_upper_bounds(self):
        prog = LinearProgram.build(
            "max", [1.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], upper=[0.25, np.inf]
        )
        sol = solve(prog)
        assert sol.value == pytest.approx(0.25, abs=1e-12)

    def test_dimension_validation(self):
        with pytest.raises(ValidationError):
            LinearProgram.build("max", [1.0], a_ub=[[1.0, 2.0]], b_ub=[1.0])
        with pytest.raises(ValidationError):
            LinearProgram.build("max", [np.nan])


class TestCertification:
    def test_duality_gap_reported(self):
        prog = LinearProgram.build(
            "max", [3.0, 5.0],
            a_ub=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
            b_ub=[4.0, 12.0, 18.0],
        )
        sol = solve(prog)
        assert sol.value == pytest.approx(36.0, abs=1e-9)
        assert sol.gap <= 1e-9
        assert sol.primal_residual <= 1e-9
        assert sol.dual_residual <= 1e-9
        # strong duality identity with the reported multipliers
        assert sol.value == pytest.approx(float(sol.dual_ub @ prog.b_ub), abs=1e-9)

    def test_every_random_solve_is_certified(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 5))
            prog = LinearProgram.build(
                "max" if rng.random() < 0.5 else "min",
                rng.normal(size=n),
                a_ub=rng.normal(size=(m, n)),
                b_ub=np.abs(rng.normal(size=m)) + 0.2,
                upper=rng.uniform(0.5, 4.0, size=n),
            )
            sol = solve(prog)
            assert sol.status == "optimal"
            assert max(sol.gap, sol.primal_residual, sol.dual_residual) <= 1e-9


class TestVertexCrossValidation:
    def test_agrees_with_vertex_oracle_on_100_random_lps(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 5))
            a_ub = rng.normal(size=(m, n))
            b_ub = np.abs(rng.normal(size=m)) + 0.1  # x = 0 feasible
            upper = rng.uniform(0.5, 3.0, size=n)
            c = rng.normal(size=n)
            sense = "max" if rng.random() < 0.5 else "min"
            prog = LinearProgram.build(sense, c, a_ub=a_ub, b_ub=b_ub, upper=upper)
            sol = solve(prog)
            ref = lp_vertex_oracle(c, a_ub, b_ub, upper, sense)
            assert sol.status == "optimal"
            assert sol.value == pytest.approx(ref, abs=1e-8)


class TestDeterminism:
    def test_bit_identical_repeat_solves(self, rng):
        prog = LinearProgram.build(
            "max",
            rng.normal(size=4),
            a_ub=rng.normal(size=(5, 4)),
            b_ub=np.abs(rng.normal(size=5)) + 0.5,
            upper=np.full(4, 2.0),
        )
        first = solve(prog)
        for _ in range(5):
            again = solve(prog)
            assert again.value == first.value
            assert np.array_equal(again.x, first.x)
            assert again.iterations == first.iterations


def _tall(rng):
    # few variables, many rows, like the generator rows of a density polytope
    # and a normalization row; a third of the rows are tight at x0
    n, m = int(rng.integers(3, 7)), int(rng.integers(25, 70))
    x0 = rng.uniform(0.1, 1.0, size=n)
    a_ub, a_eq = rng.normal(size=(m, n)), rng.uniform(0.1, 1.0, size=(1, n))
    return LinearProgram.build(
        "max" if rng.random() < 0.5 else "min", rng.normal(size=n),
        a_ub=a_ub, b_ub=a_ub @ x0 + np.abs(rng.normal(size=m)) * (rng.random(m) < 0.7),
        a_eq=a_eq, b_eq=a_eq @ x0,
    )


def _wide(rng):
    # many variables, few rows, like the arbitrage search: a surplus row
    n, k = int(rng.integers(15, 40)), int(rng.integers(2, 6))
    G = rng.normal(size=(n, k))
    return LinearProgram.build(
        "min", np.ones(n),
        a_ub=np.vstack([-G.T, -np.abs(G).sum(axis=1)[None, :]]),
        b_ub=np.concatenate([np.zeros(k), [-1.0]]),
    )


def _mixed(rng):
    # equality rows (some repeated, so redundant) and negative right-hand
    # sides (surplus rows with artificials) under finite and infinite upper
    # bounds
    n, m, e = int(rng.integers(3, 8)), int(rng.integers(2, 8)), int(rng.integers(1, 3))
    x0 = rng.uniform(0.0, 1.0, size=n)
    a_ub, a_eq = rng.normal(size=(m, n)), rng.normal(size=(e, n))
    if rng.random() < 0.3:
        a_eq = np.vstack([a_eq, a_eq[:1]])
    upper = np.where(rng.random(n) < 0.5, rng.uniform(1.0, 3.0, size=n), np.inf)
    return LinearProgram.build(
        "max" if rng.random() < 0.5 else "min", rng.normal(size=n),
        a_ub=a_ub, b_ub=a_ub @ x0 + rng.uniform(0.0, 0.5, size=m),
        a_eq=a_eq, b_eq=a_eq @ x0, upper=upper,
    )


def _degenerate(rng):
    # small integers: many zero right-hand sides and tied ratios, so the
    # Bland tie-breaks decide the pivots
    n, m = int(rng.integers(3, 7)), int(rng.integers(4, 12))
    return LinearProgram.build(
        "max", rng.integers(-2, 4, size=n).astype(float),
        a_ub=rng.integers(-3, 4, size=(m, n)).astype(float),
        b_ub=rng.integers(0, 3, size=m).astype(float),
        upper=np.full(n, 2.0),
    )


def _charnes_cooper(rng):
    # homogeneous rows in (y, s) with the denominator pinned to one, as
    # solve_ratio builds them
    n, m = int(rng.integers(3, 7)), int(rng.integers(8, 30))
    x0 = rng.uniform(0.1, 1.0, size=n)
    a_ub, p = rng.normal(size=(m, n)), rng.uniform(0.1, 1.0, size=n)
    b_ub = a_ub @ x0 + np.abs(rng.normal(size=m)) * (rng.random(m) < 0.7)
    return LinearProgram.build(
        "max" if rng.random() < 0.5 else "min", np.append(rng.normal(size=n), 0.0),
        a_ub=np.hstack([a_ub, -b_ub[:, None]]), b_ub=np.zeros(m),
        a_eq=np.vstack([np.append(rng.uniform(0.1, 1.0, size=n), 0.0), np.append(p, -p @ x0)]),
        b_eq=[1.0, 0.0],
    )


def _infeasible(rng):
    n = int(rng.integers(2, 6))
    a = np.abs(rng.normal(size=(2, n)))
    return LinearProgram.build(
        "max", rng.normal(size=n), a_ub=a, b_ub=[1.0, 1.0], a_eq=a[:1], b_eq=[2.0]
    )


def _unbounded(rng):
    n = int(rng.integers(2, 6))
    a = rng.normal(size=(3, n))
    a[:, 0] = -np.abs(a[:, 0])  # x0 can grow without limit
    c = rng.normal(size=n)
    c[0] = 1.0
    return LinearProgram.build("max", c, a_ub=a, b_ub=np.abs(rng.normal(size=3)))


SHAPES = [_tall, _wide, _mixed, _degenerate, _charnes_cooper, _infeasible, _unbounded]


class TestCondensedKernel:
    """lp.solve against the full-tableau reference: same pivots, same answer."""

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda f: f.__name__[1:])
    def test_same_pivot_path_as_full_tableau(self, shape):
        rng = np.random.default_rng(20261018)
        statuses = set()
        for _ in range(30):
            prog = shape(rng)
            sol = solve(prog)
            status, value, x, iterations = reference_solve(prog)
            statuses.add(status)
            assert sol.status == status
            assert sol.iterations == iterations
            if status == "optimal":
                assert np.float64(sol.value).tobytes() == np.float64(value).tobytes()
                assert sol.x.tobytes() == x.tobytes()
        expected = {"_infeasible": "infeasible", "_unbounded": "unbounded"}
        assert expected.get(shape.__name__, "optimal") in statuses

    @pytest.mark.parametrize("shape", [_mixed, _degenerate, _infeasible, _unbounded])
    def test_exact_mode_agrees_with_float(self, shape):
        # the rational reference settles disputes over the float answer
        rng = np.random.default_rng(7)
        for _ in range(8):
            prog = shape(rng)
            sol = solve(prog)
            status, value, _, _ = reference_solve(prog, exact=True)
            assert status == sol.status
            if sol.status == "optimal":
                assert value == pytest.approx(sol.value, abs=1e-9)

    def test_infeasible_answers_carry_a_farkas_ray(self):
        rng = np.random.default_rng(20261018)
        for _ in range(30):
            prog = _infeasible(rng)
            sol = solve(prog)
            assert sol.status == "infeasible"
            assert _is_farkas_ray(sol, prog)

    def test_pivot_leaves_zero_factor_rows_and_matches_full_update(self):
        # the condensed pivot subtracts the full outer product from every
        # row: a row whose entering-column entry is an exact zero keeps its
        # values (a -0.0 may read +0.0), and the pivot row and the entering
        # slot, which now holds the leaving variable's column, are those of
        # the full-tableau update on the columns both tableaux hold
        rng = np.random.default_rng(20261019)
        zero_rows = 0
        for _ in range(40):
            m, n = int(rng.integers(2, 12)), int(rng.integers(1, 10))
            T = rng.normal(size=(m + 1, n + 1))
            T[rng.random(T.shape) < 0.3] = 0.0
            k = int(rng.integers(n))
            row = int(rng.integers(m))
            zeros = rng.random(m + 1) < 0.4
            zeros[row] = False
            T[zeros, k] = -0.0 if rng.random() < 0.5 else 0.0
            T[row, k] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            nonbasic = rng.permutation(m + n)[:n]
            basis = np.setdiff1d(np.arange(m + n), nonbasic)
            full = np.zeros((m + 1, m + n + 1))
            full[:, nonbasic] = T[:, :-1]
            full[np.arange(m), basis] = 1.0
            full[:, -1] = T[:, -1]
            entering, leaving = nonbasic[k], basis[row]
            before = T.copy()
            full_pivot(full, list(basis), row, entering)
            lp._pivot(T, basis, nonbasic, row, k)
            assert nonbasic[k] == leaving and basis[row] == entering
            zero_rows += int(zeros.sum())
            assert np.array_equal(T[zeros, :k], before[zeros, :k])
            assert np.array_equal(T[zeros, k + 1:], before[zeros, k + 1:])
            assert np.array_equal(T[zeros, k], np.zeros(int(zeros.sum())))
            held = np.append(nonbasic, m + n)
            assert T[row].tobytes() == full[row, held].tobytes()
            assert np.array_equal(T[:, k], full[:, leaving])
            assert np.array_equal(T, full[:, held])
        assert zero_rows


def _stalling_cone():
    # 83 rows a_i x <= 0 through the origin with a direction d inside the
    # cone, and an objective near d: the start is a vertex where every row is
    # tight, and steepest edge makes 67 zero-step pivots in a row there
    rng = np.random.default_rng(161)
    n, m = int(rng.integers(10, 14)), int(rng.integers(60, 110))
    d = rng.uniform(0.2, 1.0, size=n)
    a_ub = rng.normal(size=(m, n))
    a_ub -= np.outer(a_ub @ d / (d @ d) + 0.05, d)
    c = d + 0.5 * rng.normal(size=n)
    return LinearProgram.build("max", c, a_ub=a_ub, b_ub=np.zeros(m), upper=np.ones(n))


class TestStallFallback:
    """After ``lp._STALL_PIVOTS`` zero-step pivots Bland's rule takes over."""

    def test_bland_leaves_a_degenerate_vertex(self, monkeypatch):
        steps = []
        real = lp._pivot

        def recording(T, basis, nonbasic, row, k):
            steps.append(T[row, -1] / T[row, k])
            real(T, basis, nonbasic, row, k)

        monkeypatch.setattr(lp, "_pivot", recording)
        prog = _stalling_cone()
        sol = solve(prog)
        run = longest = 0
        for step in steps:
            run = 0 if step > 0 else run + 1
            longest = max(longest, run)
        assert longest >= lp._STALL_PIVOTS  # the fallback picked a column
        assert steps[-1] > 0 and sol.value > 1.0  # and the solve moved on
        assert max(sol.gap, sol.primal_residual, sol.dual_residual) <= 1e-9
        status, value, x, iterations = reference_solve(prog)
        assert (status, iterations) == (sol.status, sol.iterations)
        assert np.float64(sol.value).tobytes() == np.float64(value).tobytes()
        assert sol.x.tobytes() == x.tobytes()
        # steepest edge throughout reaches the same optimum on another path
        fallback_steps = list(steps)
        steps.clear()
        monkeypatch.setattr(lp, "_STALL_PIVOTS", 10**9)
        plain = solve(prog)
        assert steps != fallback_steps
        assert plain.value == pytest.approx(sol.value, abs=1e-9)


class TestExactMode:
    """The rational reference, ``reference_solve(prog, exact=True)``."""

    def test_matches_float_solution(self):
        prog = LinearProgram.build(
            "max", [3.0, 5.0],
            a_ub=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
            b_ub=[4.0, 12.0, 18.0],
        )
        assert reference_solve(prog, exact=True)[1] == pytest.approx(36.0, abs=1e-12)

    def test_exact_infeasible(self):
        prog = LinearProgram.build("max", [0.0], a_ub=[[1.0]], b_ub=[-2.0])
        assert reference_solve(prog, exact=True)[0] == "infeasible"


def _is_farkas_ray(sol, prog):
    """Whether ``sol``'s duals certify that no x >= 0 meets ``prog``'s rows
    (it has no upper bounds): y^T A >= 0, y >= 0 on the inequality rows and
    y^T b < 0, each within 1e-9 of the magnitudes entering it."""
    y_ub, y_eq = sol.dual_ub, sol.dual_eq
    if y_ub is None or y_eq is None:
        return False
    ya = y_ub @ prog.a_ub + y_eq @ prog.a_eq
    ya_mass = np.abs(y_ub) @ np.abs(prog.a_ub) + np.abs(y_eq) @ np.abs(prog.a_eq)
    yb = y_ub @ prog.b_ub + y_eq @ prog.b_eq
    yb_mass = np.abs(y_ub) @ np.abs(prog.b_ub) + np.abs(y_eq) @ np.abs(prog.b_eq)
    return (np.all(ya >= -1e-9 * (1.0 + ya_mass))
            and np.all(y_ub >= -1e-9 * (1.0 + np.abs(y_ub).max(initial=0.0)))
            and yb < -1e-9 * (1.0 + yb_mass))


def _stop_phase(monkeypatch, phase):
    """Make ``lp._run_simplex`` report "optimal" at once in the given phase:
    phase 1 lets every variable enter, phase 2 bars the artificials."""
    real = lp._run_simplex

    def run(T, basis, nonbasic, limit, max_iter):
        if (limit == nonbasic.size + basis.size) == (phase == 1):
            return "optimal", 0
        return real(T, basis, nonbasic, limit, max_iter)

    monkeypatch.setattr(lp, "_run_simplex", run)


class TestCertifiedOrError:
    """Every answer is certified or a labelled ``ComputationError``."""

    def test_uncertified_infeasible_raises(self, monkeypatch):
        # x1 + 2 x2 = 2 is met by x = (0, 1), but phase 1 stopped at its
        # artificial start would call the rows infeasible
        prog = LinearProgram.build("max", [1.0, 1.0], a_eq=[[1.0, 2.0]], b_eq=[2.0])
        assert solve(prog).status == "optimal"
        _stop_phase(monkeypatch, 1)
        with pytest.raises(ComputationError, match="^LP infeasibility certification failed"):
            solve(prog)

    def test_uncertified_optimum_raises_once(self, monkeypatch, count_calls):
        # phase 2 stopped where phase 1 left it, (0, 1), short of the optimum
        # (2, 0): one solve raises, with no second attempt, and the CLI exits 70
        prog = LinearProgram.build("max", [1.0, 0.25], a_eq=[[1.0, 2.0]], b_eq=[2.0])
        assert solve(prog).value == pytest.approx(2.0, abs=1e-12)
        _stop_phase(monkeypatch, 2)
        solves = count_calls(lp, "solve")
        shape = r"^LP certification failed \(1 rows x 2 columns\)"
        with pytest.raises(ComputationError, match=shape):
            lp.solve(prog)
        assert len(solves) == 1
        model, payoff = fixture_path("two_period_stock.json"), fixture_path("asian_call_65.json")
        assert main(["bounds", model, payoff]) == EXIT_INTERNAL


class TestSolveRatio:
    """``solve_ratio`` over a cone; the general linear-fractional cases
    (constant terms, bounds, a vanishing denominator) run on the
    Charnes-Cooper reference that the whole-tree oracles use."""

    def test_monotone_ratio_on_interval(self):
        # (2x + 1)/(x + 1) over x in [0, 1]: 1 at x = 0, 1.5 at x = 1
        lo, hi = charnes_cooper([2.0], [1.0], num0=1.0, den0=1.0, upper=[1.0])
        assert hi.value == pytest.approx(1.5, abs=1e-9)
        assert hi.x[0] == pytest.approx(1.0, abs=1e-9)
        assert lo.value == pytest.approx(1.0, abs=1e-9)
        assert lo.x[0] == pytest.approx(0.0, abs=1e-9)

    def test_constant_denominator_reduces_to_lp(self):
        lo, hi = charnes_cooper(
            [1.0, 1.0], [0.0, 0.0], den0=1.0, a_ub=[[1.0, 1.0]], b_ub=[1.0]
        )
        assert hi.value == pytest.approx(1.0, abs=1e-9)
        assert lo.value == pytest.approx(0.0, abs=1e-9)

    def test_two_state_band_minimum(self):
        # the band-weighted average of (1, -1) at level 1: the minimum loads
        # weight 2 on the loss state -> -1/3, the maximum on the gain state
        lo, hi = charnes_cooper(
            [0.5, -0.5], [0.5, 0.5],
            a_ub=[[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]],
            b_ub=[-1.0, -1.0, 2.0, 2.0],
        )
        assert lo.value == pytest.approx(-1.0 / 3.0, abs=1e-9)
        assert hi.value == pytest.approx(1.0 / 3.0, abs=1e-9)
        # the same band as a cone over (u1, u2, m): m <= u <= 2m
        lo, hi = solve_ratio(
            [0.5, -0.5, 0.0], [0.5, 0.5, 0.0],
            [[-1.0, 0.0, 1.0], [0.0, -1.0, 1.0], [1.0, 0.0, -2.0], [0.0, 1.0, -2.0]],
        )
        assert lo.value == pytest.approx(-1.0 / 3.0, abs=1e-9)
        assert hi.value == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert 0.5 * hi.x[0] + 0.5 * hi.x[1] == pytest.approx(1.0, abs=1e-12)

    def test_upper_bounds_homogenize(self):
        # max (x1 + x2)/(x1 + 1) with x in [0, 2]^2: push x2 to its cap and
        # shrink x1; the minimum 0 needs x2 = 0
        lo, hi = charnes_cooper([1.0, 1.0], [1.0, 0.0], den0=1.0, upper=[2.0, 2.0])
        assert hi.value == pytest.approx(2.0, abs=1e-9)
        assert hi.x[0] == pytest.approx(0.0, abs=1e-9)
        assert hi.x[1] == pytest.approx(2.0, abs=1e-9)
        assert lo.value == pytest.approx(0.0, abs=1e-9)
        assert lo.x[1] == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_denominator_raises(self):
        with pytest.raises(ComputationError, match="degenerate|not solvable"):
            charnes_cooper([1.0], [1.0], a_ub=[[1.0]], b_ub=[0.0])

    def test_empty_feasible_set_reports_infeasible(self):
        # x1 <= 0 on the cone: no point charges den = (1, 0), so there is
        # nothing to optimize over, and no exception
        for res in solve_ratio([1.0, 1.0], [1.0, 0.0], [[1.0, 0.0], [-1.0, 1.0]]):
            assert res.status == "infeasible"
            assert np.isnan(res.value) and res.x is None

    def test_both_extremes_equal_separate_solves(self):
        # (lo, hi) share one phase 1, so each is bit for bit a separate
        # solve of the slice den @ x = 1 of the cone in its sense
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, m = int(rng.integers(3, 7)), int(rng.integers(8, 30))
            x0 = rng.uniform(0.1, 1.0, size=n)
            a_ub, den = rng.normal(size=(m, n)), rng.uniform(0.1, 1.0, size=n)
            # shift the rows so that x0 lies in the cone, most rows slack
            a_ub -= np.outer(a_ub @ x0 + np.abs(rng.normal(size=m)) * (rng.random(m) < 0.7),
                             x0 / (x0 @ x0))
            num = rng.normal(size=n)
            lo, hi = solve_ratio(num, den, a_ub)
            for sense, got in (("max", hi), ("min", lo)):
                want = solve(LinearProgram.build(
                    sense, num, a_ub=a_ub, b_ub=np.zeros(m), a_eq=[den], b_eq=[1.0]
                ))
                assert got.status == want.status == "optimal"
                assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
                assert got.x.tobytes() == want.x.tobytes()
                assert got.iterations == want.iterations


def _seeded_cones(seed, count):
    """(num, den, a, k): seeded cones over (u, v), u their first k columns,
    holding a point whose u spreads by at most a factor 2, so the band of the
    pricing cones reaches the slice from level 1 on and may miss it below;
    num and den weigh u alone."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k, j, r = int(rng.integers(3, 7)), int(rng.integers(0, 4)), int(rng.integers(4, 16))
        x0 = np.concatenate([rng.uniform(0.5, 1.0, size=k), rng.uniform(0.0, 1.0, size=j)])
        a = rng.normal(size=(r, k + j))
        a -= np.outer(a @ x0 + np.abs(rng.normal(size=r)) * (rng.random(r) < 0.7), x0 / (x0 @ x0))
        p = rng.dirichlet(np.ones(k))
        yield (np.concatenate([p * rng.normal(size=k), np.zeros(j + 1)]),
               np.concatenate([p, np.zeros(j + 1)]), a, k)


LEVELS = (0.05, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def _close(got, want, num):
    # within 1e-12 of the size of num @ x's terms: on these cones the cold
    # answer itself is up to 5e-12 (relative) off the exact rational optimum
    # where the terms cancel, so a plain relative bound would test rounding
    return abs(got.value - want.value) <= 1e-12 * (np.abs(num) @ np.abs(want.x))


def _same(got, want):
    return (got.status == want.status
            and np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
            and (got.x is None) == (want.x is None)
            and (got.x is None or got.x.tobytes() == want.x.tobytes())
            and got.iterations == want.iterations)


class TestWarmRestart:
    """``solve_ratio`` restarted from a previous ``(lo, hi)`` pair."""

    def test_ascending_band_matches_cold(self, count_calls):
        # each level restarts from the previous level's optimal bases, as the
        # liquidity surface sweeps a lambda row
        duals, phase1 = count_calls(lp, "_run_dual"), count_calls(lp, "_phase1")
        warm_solves = cold_solves = 0
        for num, den, a, k in _seeded_cones(5, 40):
            pair = None
            for gamma in LEVELS:
                a_ub = _with_band(a, k, gamma)
                cold = solve_ratio(num, den, a_ub)
                before = len(phase1)
                got = solve_ratio(num, den, a_ub, warm=pair)
                cold_solves += 1
                warm_solves += len(phase1) == before
                for g, c in zip(got, cold):
                    assert g.status == c.status
                    if c.status == "optimal":
                        assert _close(g, c, num)
                        assert max(g.gap, g.primal_residual, g.dual_residual) <= 1e-9
                pair = got if got[1].status == "optimal" else None
        assert duals  # some restarts needed the dual simplex
        assert warm_solves > cold_solves / 2

    @staticmethod
    def _record_extremes(monkeypatch):
        """A list that gains, per extreme of a warm ``solve_ratio`` call, the
        events from its carry attempt on: first whether ``_carry`` carried
        it, then one "restart" or "pivot" per call of those.  Clear it
        before each call to read."""
        extremes = []

        def recording(name):
            real = getattr(lp, name)

            def wrapped(*args):
                if name != "_carry" and extremes:
                    extremes[-1].append(name.lstrip("_"))
                out = real(*args)
                if name == "_carry":
                    extremes.append([out is not None])
                return out

            monkeypatch.setattr(lp, name, wrapped)

        for name in ("_carry", "_restart", "_pivot"):
            recording(name)
        return extremes

    def test_carried_extreme_is_the_cold_optimum(self, monkeypatch):
        # an extreme whose previous optimum certifies on the wider band is
        # returned as it is: the cold optimum to 1e-12 relative, with its
        # residuals recomputed on the new rows, and no restart or pivot
        extremes = self._record_extremes(monkeypatch)
        carried = 0
        for num, den, a, k in _seeded_cones(5, 40):
            pair = None
            for gamma in LEVELS:
                a_ub = _with_band(a, k, gamma)
                cold = solve_ratio(num, den, a_ub)
                extremes.clear()
                got = solve_ratio(num, den, a_ub, warm=pair)
                for g, c, events in zip(got, cold, extremes):
                    if events[0]:
                        carried += 1
                        assert events == [True]
                        assert g.status == c.status == "optimal"
                        assert g.value == pytest.approx(c.value, rel=1e-12, abs=0)
                        assert max(g.gap, g.primal_residual, g.dual_residual) <= lp.TOL
                        assert g.iterations == 0
                pair = got if got[1].status == "optimal" else None
        assert carried

    def test_binding_band_is_restarted(self, monkeypatch):
        # a previous optimum with a nonzero dual on a band row that the wider
        # level changes is never carried: widening that row breaks its dual
        # feasibility, so the extreme restarts from its basis
        extremes = self._record_extremes(monkeypatch)
        binding = 0
        for num, den, a, k in _seeded_cones(5, 40):
            pair = previous = None
            for gamma in LEVELS:
                a_ub = _with_band(a, k, gamma)
                extremes.clear()
                got = solve_ratio(num, den, a_ub, warm=pair)
                if pair is not None:
                    changed = np.any(a_ub != previous, axis=1)
                    assert changed.any()
                    for prev, events in zip(pair, extremes):
                        if np.any(prev.dual_ub[changed] != 0):
                            binding += 1
                            assert events[:2] == [False, "restart"]
                pair, previous = (got, a_ub) if got[1].status == "optimal" else (None, None)
        assert binding

    def test_refused_basis_gives_the_cold_result(self, monkeypatch):
        # a basis the restart refuses leaves its extreme to the shared phase
        # 1, and so to the cold answer bit for bit: a singular one (one
        # variable repeated); an optimal basis from the level below, its own
        # extreme's or the other one's, where it is infeasible on the new rows
        # and not dual feasible there, or where its dual simplex runs past
        # its pivot cap, cut to one pivot here.  An extreme whose previous
        # optimum certifies on the new rows is carried and reaches no restart.
        outcomes, duals = {}, []  # per restarted sense: (refused, dual simplex status)
        real_restart, real_dual = lp._restart, lp._run_dual

        def restart(side, rows, basis):
            runs = len(duals)
            start = real_restart(side, rows, basis)
            outcomes[side.sense] = (start is None, duals[-1] if len(duals) > runs else None)
            return start

        def dual(T, basis, nonbasic, limit, max_iter):
            status, it = real_dual(T, basis, nonbasic, limit, 1)
            duals.append(status)
            return status, it

        monkeypatch.setattr(lp, "_restart", restart)
        monkeypatch.setattr(lp, "_run_dual", dual)
        refusals = {None: 0, "stalled": 0}
        singular_runs = 0
        for num, den, a, k in _seeded_cones(6, 30):
            pair = None
            for gamma in LEVELS:
                a_ub = _with_band(a, k, gamma)
                cold = solve_ratio(num, den, a_ub)
                if cold[1].status != "optimal":
                    pair = None
                    continue
                for warm in (pair, pair[::-1]) if pair is not None else ():
                    outcomes.clear()
                    got = solve_ratio(num, den, a_ub, warm=warm)
                    for g, c, sense in zip(got, cold, ("min", "max")):
                        refused, status = outcomes.get(sense, (False, None))
                        if refused:
                            assert _same(g, c)
                            refusals[status] += 1
                        else:
                            assert _close(g, c, num)
                # the singular basis comes with the optimum of the level
                # below where the band binds at both extremes (a nonzero
                # dual on a band row that widens), so neither is carried
                if pair is not None and all(np.any(s.dual_ub[-k:] != 0) for s in pair):
                    singular = tuple(
                        dataclasses.replace(s, basis=np.zeros_like(s.basis)) for s in pair
                    )
                    outcomes.clear()
                    got = solve_ratio(num, den, a_ub, warm=singular)
                    assert outcomes == {"min": (True, None), "max": (True, None)}
                    assert all(_same(g, c) for g, c in zip(got, cold))
                    singular_runs += 1
                pair = cold
        assert all(refusals.values()) and singular_runs

    def test_unreachable_slice_reads_infeasible(self, monkeypatch):
        # a descending band: from a level whose band reaches the slice to one
        # where it does not, the restart reads infeasible as the cold solve
        # does, also where the dual simplex meets a row no column can lift
        statuses, real = [], lp._run_dual

        def dual(*args):
            status, it = real(*args)
            statuses.append(status)
            return status, it

        monkeypatch.setattr(lp, "_run_dual", dual)
        seen = 0
        for num, den, a, k in _seeded_cones(7, 40):
            pair = None
            for gamma in LEVELS[::-1]:
                a_ub = _with_band(a, k, gamma)
                cold = solve_ratio(num, den, a_ub)
                got = solve_ratio(num, den, a_ub, warm=pair)
                assert [g.status for g in got] == [c.status for c in cold]
                if cold[1].status == "infeasible":
                    seen += pair is not None
                    assert all(_same(g, c) for g, c in zip(got, cold))
                    slice_lp = LinearProgram.build(
                        "max", num, a_ub=a_ub, b_ub=np.zeros(len(a_ub)), a_eq=[den], b_eq=[1.0]
                    )
                    assert all(_is_farkas_ray(g, slice_lp) for g in got)
                    break
                pair = got
        assert seen and "infeasible" in statuses
