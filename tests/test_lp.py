import dataclasses

import numpy as np
import pytest

from conic_pricer import lp
from conic_pricer.cli import EXIT_INTERNAL, main
from conic_pricer.errors import ComputationError, ValidationError
from conic_pricer.fixtures import fixture_path
from conic_pricer.lp import LinearProgram, solve, solve_ratio
from conic_pricer.pricing import _band_program, _band_share, good_deal_prices, noarb_bounds

from conftest import lp_vertex_oracle, random_box_lp, tree_workload_market
from lp_reference import _pivot as full_pivot
from lp_reference import equality_duals, homogeneous, reference_solve, with_bounds
from lp_reference import solve_ratio as charnes_cooper


class TestSolveBasics:
    def test_simple_max(self):
        prog = homogeneous("max", [1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
        sol = solve(prog)
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0, abs=1e-12)

    def test_infeasible(self):
        prog = homogeneous("max", [0.0], a_ub=[[1.0]], b_ub=[-1.0])
        assert solve(prog).status == "infeasible"

    def test_unbounded(self):
        prog = homogeneous("max", [1.0])
        assert solve(prog).status == "unbounded"

    def test_min_sense(self):
        prog = homogeneous("min", [2.0, 3.0], a_ub=[[-1.0, -1.0]], b_ub=[-1.0])
        sol = solve(prog)
        assert sol.value == pytest.approx(2.0, abs=1e-12)
        assert sol.x[0] == pytest.approx(1.0, abs=1e-12)

    def test_equalities_and_upper_bounds(self):
        sol = solve(_one_cap())
        assert sol.value == pytest.approx(0.25, abs=1e-12)
        # strong duality on the program as written, x1 <= 0.25 and
        # x1 + x2 = 1, its equality's dual read back from its pair of rows
        y_eq = equality_duals(sol, 1)
        assert sol.value == pytest.approx(sol.dual_ub[0] * 0.25 + y_eq[0], abs=1e-12)

    def test_dimension_validation(self):
        with pytest.raises(ValidationError):
            LinearProgram.build("max", [1.0], [[1.0, 2.0]], [1.0])
        with pytest.raises(ValidationError):
            LinearProgram.build("max", [np.nan], np.zeros((0, 1)), [1.0])


class TestCertification:
    def test_duality_gap_reported(self):
        b_ub = [4.0, 12.0, 18.0]
        prog = homogeneous(
            "max", [3.0, 5.0], a_ub=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]], b_ub=b_ub
        )
        sol = solve(prog)
        assert sol.value == pytest.approx(36.0, abs=1e-9)
        assert sol.gap <= 1e-9
        assert sol.primal_residual <= 1e-9
        assert sol.dual_residual <= 1e-9
        # strong duality identity with the reported multipliers, on the
        # program as written and on its slice
        assert sol.value == pytest.approx(float(sol.dual_ub @ b_ub), abs=1e-9)
        assert sol.value == pytest.approx(float(sol.dual_eq @ prog.b_eq), abs=1e-9)

    def test_every_random_solve_is_certified(self, rng):
        for _ in range(60):
            sol = solve(_capped(rng))
            assert sol.status == "optimal"
            assert max(sol.gap, sol.primal_residual, sol.dual_residual) <= 1e-9


class TestVertexCrossValidation:
    def test_agrees_with_vertex_oracle_on_100_random_lps(self, rng):
        for _ in range(100):
            sense, c, a_ub, b_ub, upper = random_box_lp(rng)
            sol = solve(homogeneous(sense, c, *with_bounds(upper, a_ub, b_ub)))
            ref = lp_vertex_oracle(c, a_ub, b_ub, upper, sense)
            assert sol.status == "optimal"
            assert sol.value == pytest.approx(ref, abs=1e-8)


class TestDeterminism:
    def test_bit_identical_repeat_solves(self, rng):
        prog = _repeated(rng)
        first = solve(prog)
        for _ in range(5):
            again = solve(prog)
            assert again.value == first.value
            assert np.array_equal(again.x, first.x)
            assert again.iterations == first.iterations


# Variables bounded from above, each bound a row appended by with_bounds.


def _one_cap():
    return homogeneous(
        "max", [1.0, 0.0], *with_bounds([0.25, np.inf]), a_eq=[[1.0, 1.0]], b_eq=[1.0]
    )


def _capped(rng):
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 5))
    sense, c = "max" if rng.random() < 0.5 else "min", rng.normal(size=n)
    a_ub, b_ub = rng.normal(size=(m, n)), np.abs(rng.normal(size=m)) + 0.2
    return homogeneous(sense, c, *with_bounds(rng.uniform(0.5, 4.0, size=n), a_ub, b_ub))


def _repeated(rng):
    c, a_ub, b_ub = rng.normal(size=4), rng.normal(size=(5, 4)), np.abs(rng.normal(size=5)) + 0.5
    return homogeneous("max", c, *with_bounds(np.full(4, 2.0), a_ub, b_ub))


def _tall(rng):
    # few variables, many rows, like the generator rows of a density polytope
    # and a normalization row; a third of the rows are tight at x0, and
    # right-hand sides of either sign
    n, m = int(rng.integers(3, 7)), int(rng.integers(25, 70))
    x0 = rng.uniform(0.1, 1.0, size=n)
    a_ub, a_eq = rng.normal(size=(m, n)), rng.uniform(0.1, 1.0, size=(1, n))
    return homogeneous(
        "max" if rng.random() < 0.5 else "min", rng.normal(size=n),
        a_ub=a_ub, b_ub=a_ub @ x0 + np.abs(rng.normal(size=m)) * (rng.random(m) < 0.7),
        a_eq=a_eq, b_eq=a_eq @ x0,
    )


def _wide(rng):
    # many variables, few rows, like the arbitrage search: a row with
    # right-hand side -1
    n, k = int(rng.integers(15, 40)), int(rng.integers(2, 6))
    G = rng.normal(size=(n, k))
    return homogeneous(
        "min", np.ones(n),
        a_ub=np.vstack([-G.T, -np.abs(G).sum(axis=1)[None, :]]),
        b_ub=np.concatenate([np.zeros(k), [-1.0]]),
    )


def _mixed(rng):
    # equality rows (some repeated, so their pairs of rows are too: a
    # degenerate case) and right-hand sides of either sign, under finite and
    # infinite upper bounds
    n, m, e = int(rng.integers(3, 8)), int(rng.integers(2, 8)), int(rng.integers(1, 3))
    x0 = rng.uniform(0.0, 1.0, size=n)
    a_ub, a_eq = rng.normal(size=(m, n)), rng.normal(size=(e, n))
    if rng.random() < 0.3:
        a_eq = np.vstack([a_eq, a_eq[:1]])
    upper = np.where(rng.random(n) < 0.5, rng.uniform(1.0, 3.0, size=n), np.inf)
    sense, c = "max" if rng.random() < 0.5 else "min", rng.normal(size=n)
    return homogeneous(
        sense, c, *with_bounds(upper, a_ub, a_ub @ x0 + rng.uniform(0.0, 0.5, size=m)),
        a_eq=a_eq, b_eq=a_eq @ x0,
    )


def _degenerate(rng):
    # small integers: many zero right-hand sides and tied ratios, so the
    # Bland tie-breaks decide the pivots
    n, m = int(rng.integers(3, 7)), int(rng.integers(4, 12))
    c = rng.integers(-2, 4, size=n).astype(float)
    a_ub = rng.integers(-3, 4, size=(m, n)).astype(float)
    b_ub = rng.integers(0, 3, size=m).astype(float)
    return homogeneous("max", c, *with_bounds(np.full(n, 2.0), a_ub, b_ub))


def _charnes_cooper(rng):
    # homogeneous rows in (y, s) with the denominator pinned to one, as
    # solve_ratio builds them, a homogeneous equality among them as two
    # opposite rows: already a slice
    n, m = int(rng.integers(3, 7)), int(rng.integers(8, 30))
    x0 = rng.uniform(0.1, 1.0, size=n)
    a_ub, p = rng.normal(size=(m, n)), rng.uniform(0.1, 1.0, size=n)
    b_ub = a_ub @ x0 + np.abs(rng.normal(size=m)) * (rng.random(m) < 0.7)
    sense, c = "max" if rng.random() < 0.5 else "min", np.append(rng.normal(size=n), 0.0)
    den, eq = np.append(rng.uniform(0.1, 1.0, size=n), 0.0), np.append(p, -p @ x0)
    rows = np.vstack([np.hstack([a_ub, -b_ub[:, None]]), eq, -eq])
    return LinearProgram.build(sense, c, rows, den)


def _infeasible(rng):
    n = int(rng.integers(2, 6))
    a = np.abs(rng.normal(size=(2, n)))
    return homogeneous("max", rng.normal(size=n), a_ub=a, b_ub=[1.0, 1.0], a_eq=a[:1], b_eq=[2.0])


def _unbounded(rng):
    n = int(rng.integers(2, 6))
    a = rng.normal(size=(3, n))
    a[:, 0] = -np.abs(a[:, 0])  # x0 can grow without limit
    c = rng.normal(size=n)
    c[0] = 1.0
    return homogeneous("max", c, a_ub=a, b_ub=np.abs(rng.normal(size=3)))


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
    return homogeneous("max", c, *with_bounds(np.ones(n), a_ub, np.zeros(m)))


class TestOneArtificial:
    """Every program is a slice, so phase 1 has one artificial, the
    normalization's, and ends with it nonbasic or certifies ``infeasible``
    (see ``lp._phase1``): no artificial is left to drive out, and no row to
    drop."""

    @staticmethod
    def _check(prog, start):
        """Whether ``start``, what ``lp._phase1`` gave on ``prog``, is a
        certified ``infeasible`` or a start of every row without the
        artificial: ``"infeasible"``, ``"start"`` or None."""
        if isinstance(start, lp.LPSolution):
            return "infeasible" if start.status == "infeasible" and _is_farkas_ray(
                start, prog) else None
        m, n = prog.A.shape
        held = n + m - 1 in start.basis
        return "start" if not held and start.T.shape[0] == m + 1 and start.basis.size == m else None

    def test_random_programs(self):
        seen = set()
        for shape in SHAPES + [lambda rng: _stalling_cone()]:
            rng = np.random.default_rng(20261018)
            for _ in range(30):
                prog = shape(rng)
                outcome = self._check(prog, lp._phase1(prog))
                assert outcome is not None
                seen.add(outcome)
        assert seen == {"infeasible", "start"}

    def test_engine_programs_of_two_tree_markets(self, monkeypatch):
        # every phase 1 of the bound, least-loss and band programs of the
        # tree workload's markets 0 and 10 at t = 0 and 1, over its levels;
        # 15 of market 10's read infeasible
        outcomes, real = [], lp._phase1

        def phase1(prog):
            start = real(prog)
            outcomes.append(self._check(prog, start))
            return start

        monkeypatch.setattr(lp, "_phase1", phase1)
        for k in (0, 10):
            model, payoff = tree_workload_market(k)
            for t in (0, 1):
                noarb_bounds(model, payoff, t)
                for gamma in (0.5, 1.0, 2.0, 4.0, 8.0):
                    good_deal_prices(model, payoff, t, gamma)
        assert None not in outcomes and set(outcomes) == {"infeasible", "start"}


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
        prog = homogeneous(
            "max", [3.0, 5.0], a_ub=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]], b_ub=[4.0, 12.0, 18.0]
        )
        assert reference_solve(prog, exact=True)[1] == pytest.approx(36.0, abs=1e-12)

    def test_exact_infeasible(self):
        prog = homogeneous("max", [0.0], a_ub=[[1.0]], b_ub=[-2.0])
        assert reference_solve(prog, exact=True)[0] == "infeasible"


def _is_farkas_ray(sol, prog):
    """Whether ``sol``'s duals certify that no x >= 0 meets ``prog``'s rows:
    y^T A >= 0, y >= 0 on the inequality rows and
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
        # x1 / 2 + x2 = 1 is met by x = (0, 1), but phase 1 stopped at its
        # artificial start would call the slice infeasible
        prog = LinearProgram.build("max", [1.0, 1.0], np.zeros((0, 2)), [0.5, 1.0])
        assert solve(prog).status == "optimal"
        _stop_phase(monkeypatch, 1)
        with pytest.raises(ComputationError, match="^LP infeasibility certification failed"):
            solve(prog)

    def test_uncertified_optimum_raises_once(self, monkeypatch, count_calls):
        # phase 2 stopped where phase 1 left it, (0, 1), short of the optimum
        # (2, 0): one solve raises, with no second attempt, and the CLI exits
        # 70 (on mark bounds at t=1, which the simplex solves: the recursion
        # prices one-security trade bounds, and mark bounds at t=0, which
        # are trade bounds, without a phase 2)
        prog = LinearProgram.build("max", [1.0, 0.25], np.zeros((0, 2)), [0.5, 1.0])
        assert solve(prog).value == pytest.approx(2.0, abs=1e-12)
        _stop_phase(monkeypatch, 2)
        solves = count_calls(lp, "solve")
        shape = r"^LP certification failed \(1 rows x 2 columns\)"
        with pytest.raises(ComputationError, match=shape):
            lp.solve(prog)
        assert len(solves) == 1
        model, payoff = fixture_path("two_period_stock.json"), fixture_path("asian_call_65.json")
        assert main(["bounds", model, payoff, "--entry", "mark", "--time", "1"]) == EXIT_INTERNAL

    def test_overflowing_entries_are_certified_or_an_error(self):
        # 1e200 entries square past the float range, so steepest edge reads
        # no finite score (Bland's rule picks among the eligible columns), and
        # pivots on them can leave a NaN for the ratio test: the answer is
        # certified or an error, never a crash or a warning
        for prog in (
            homogeneous(
                "max", [1e200, 1.0], a_ub=[[1e200, 1.0], [1.0, 1.0]], b_ub=[1.0, 1.0]
            ),
            LinearProgram.build("max", [1.0, 1.0], [[1e200, 1.0], [1.0, 1e200]], [1.0, 1.0]),
            LinearProgram.build(
                "max", [0.2, 0.1, 0.6, 0.7, 1e200],
                [[0.5, -1e200, 0.7, -0.4, 0.5], [-1e199, -1.0, 1.5, -0.4, 2e200]],
                [0.8, 0.5, 0.6, 0.03, 1.2],
            ),
        ):
            try:
                sol = solve(prog)
            except ComputationError:
                continue
            assert sol.status in ("optimal", "infeasible")


class TestSolveRatio:
    """``solve_ratio`` over a cone; the general linear-fractional cases
    (constant terms, bounds, a vanishing denominator) run on the
    Charnes-Cooper reference that the whole-tree oracles use."""

    # the band m <= u <= 2m over (u1, u2, m), as in the cone test below
    BAND = {
        "num": [0.5, -0.5, 0.0],
        "den": [0.5, 0.5, 0.0],
        "a_ub": [[-1.0, 0.0, 1.0], [0.0, -1.0, 1.0], [1.0, 0.0, -2.0], [0.0, 1.0, -2.0]],
    }

    @pytest.mark.parametrize("name", ["num", "den", "a_ub"])
    def test_nan_data_raise(self, name):
        data = {key: np.array(value) for key, value in self.BAND.items()}
        data[name].flat[1] = np.nan
        with pytest.raises(ValidationError, match="non-finite coefficients"):
            solve_ratio(**data)

    def test_inconsistent_shapes_raise(self):
        with pytest.raises(ValidationError, match="inconsistent LP dimensions"):
            solve_ratio(self.BAND["num"], self.BAND["den"][:2], self.BAND["a_ub"])

    def test_slice_rewrites_its_one_copy_of_the_rows(self):
        # the rows given are stacked once with the normalization; a rewrite
        # writes that copy and its magnitudes, which both sides share, and
        # leaves the caller's array as it was
        a_ub = np.array(self.BAND["a_ub"])
        band = lp._Slice(self.BAND["num"], self.BAND["den"], a_ub, column=2)
        band.rewrite([0, 1], 3.0)
        prog = band.prog
        assert prog.a_ub.base is prog.A and prog.a_eq.base is prog.A
        assert list(prog.a_ub[:, 2]) == [3.0, 3.0, -2.0, -2.0]
        assert np.array_equal(prog.a_eq, [self.BAND["den"]])
        assert np.array_equal(prog.abs_A, np.abs(prog.A))
        assert all(side.A is prog.A and side.abs_A is prog.abs_A for side in band.sides)
        assert list(a_ub[:, 2]) == [1.0, 1.0, -2.0, -2.0]

    def test_monotone_ratio_on_interval(self):
        # (2x + 1)/(x + 1) over x in [0, 1]: 1 at x = 0, 1.5 at x = 1
        a_ub, b_ub = with_bounds([1.0])
        lo, hi = charnes_cooper([2.0], [1.0], num0=1.0, den0=1.0, a_ub=a_ub, b_ub=b_ub)
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
        a_ub, b_ub = with_bounds([2.0, 2.0])
        lo, hi = charnes_cooper([1.0, 1.0], [1.0, 0.0], den0=1.0, a_ub=a_ub, b_ub=b_ub)
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
                want = solve(LinearProgram.build(sense, num, a_ub, den))
                assert got.status == want.status == "optimal"
                assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
                assert got.x.tobytes() == want.x.tobytes()
                assert got.iterations == want.iterations


def _seeded_cones(seed, count):
    """(num, den, a, k): seeded cones over (u, v), u their first k columns,
    holding a point whose u spreads by at most a factor 2, so the band of the
    pricing cones reaches the slice from level 1 on and may miss it below;
    num and den, over (u, v), weigh u alone."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k, j, r = int(rng.integers(3, 7)), int(rng.integers(0, 4)), int(rng.integers(4, 16))
        x0 = np.concatenate([rng.uniform(0.5, 1.0, size=k), rng.uniform(0.0, 1.0, size=j)])
        a = rng.normal(size=(r, k + j))
        a -= np.outer(a @ x0 + np.abs(rng.normal(size=r)) * (rng.random(r) < 0.7), x0 / (x0 @ x0))
        p = rng.dirichlet(np.ones(k))
        yield (np.concatenate([p * rng.normal(size=k), np.zeros(j)]),
               np.concatenate([p, np.zeros(j)]), a, k)


LEVELS = (0.05, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def _close(got, want, num):
    # within 1e-12 of the size of num @ x's terms: on these cones the cold
    # answer itself is up to 5e-12 (relative) off the exact rational optimum
    # where the terms cancel, so a plain relative bound would test rounding
    return abs(got.value - want.value) <= 1e-12 * (np.abs(num) @ np.abs(want.x))


def _banded(num, den, a, k, gamma):
    """A seeded cone's band program at ``gamma`` from the engine's one
    builder, ``pricing._band_program``: (num, den, a_ub)."""
    return _band_program(num, den, a, k, gamma)[:3]


def _band_slice(num, den, a, k):
    """A seeded cone's band program as the surface's band row holds it: one
    slice whose band column, m''s, is rewritable, and its band rows, which
    that column's rewrite sets to -level / (1 + level)."""
    num, den, a_ub, band_rows = _band_program(num, den, a, k, LEVELS[0])
    return lp._Slice(num, den, a_ub, column=a.shape[1]), band_rows


def _same(got, want):
    return (got.status == want.status
            and np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
            and (got.x is None) == (want.x is None)
            and (got.x is None or got.x.tobytes() == want.x.tobytes())
            and got.iterations == want.iterations)


class TestWarmRestart:
    """A slice program solved from a previous ``(lo, hi)`` pair."""

    def test_ascending_band_matches_cold(self, count_calls):
        # each level restarts from the previous level's optimal bases on a
        # slice of its own, as the first priced level of a liquidity surface
        # row restarts from the row before: no optimum of another slice is
        # carried, each basis is refactored on the new rows
        duals, phase1 = count_calls(lp, "_run_dual"), count_calls(lp, "_phase1")
        warm_solves = cold_solves = 0
        for num, den, a, k in _seeded_cones(5, 40):
            pair = None
            for gamma in LEVELS:
                bnum, bden, a_ub = _banded(num, den, a, k, gamma)
                cold = solve_ratio(bnum, bden, a_ub)
                before = len(phase1)
                got = lp._Slice(bnum, bden, a_ub).solve(pair)
                cold_solves += 1
                warm_solves += len(phase1) == before
                for g, c in zip(got, cold):
                    assert g.status == c.status
                    if c.status == "optimal":
                        assert _close(g, c, bnum)
                        assert max(g.gap, g.primal_residual, g.dual_residual) <= 1e-9
                pair = got if got[1].status == "optimal" else None
        assert duals  # some restarts needed the dual simplex
        assert warm_solves > cold_solves / 2

    @staticmethod
    def _record_extremes(monkeypatch):
        """A list that gains, per extreme of a warm ``_Slice.solve`` call,
        the events from its carry attempt on: first whether ``_carry``
        carried it, then one "update", "restart" or "pivot" per call of
        those.  Clear it before each call to read."""
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

        for name in ("_carry", "_update", "_restart", "_pivot"):
            recording(name)
        return extremes

    def test_carried_extreme_is_the_cold_optimum(self, monkeypatch):
        # on one band program rewritten level by level, an extreme whose
        # previous optimum certifies on the wider band is returned as it is:
        # the cold optimum to 1e-12 relative, with its residuals recomputed
        # on the new rows, and no restart or pivot
        extremes = self._record_extremes(monkeypatch)
        carried = 0
        for num, den, a, k in _seeded_cones(5, 40):
            band, band_rows = _band_slice(num, den, a, k)
            pair = None
            for gamma in LEVELS:
                band.rewrite(band_rows, -_band_share(gamma))
                cold = solve_ratio(*_banded(num, den, a, k, gamma))
                extremes.clear()
                got = band.solve(pair)
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
        # a previous optimum with a dual above lp.TOL on a band row that the
        # wider level changes is never carried: widening that row breaks its
        # dual feasibility, so the extreme restarts from its basis, its kept
        # tableau updated for the rewritten column.  (A degenerate band row
        # can hold a dual of rounding's size, about 1e-16 here, which the
        # wider level leaves within the certificate's tolerance.)
        extremes = self._record_extremes(monkeypatch)
        binding = 0
        for num, den, a, k in _seeded_cones(5, 40):
            band, band_rows = _band_slice(num, den, a, k)
            pair = previous = None
            for gamma in LEVELS:
                a_ub = _banded(num, den, a, k, gamma)[2]
                band.rewrite(band_rows, -_band_share(gamma))
                extremes.clear()
                got = band.solve(pair)
                if pair is not None:
                    changed = np.any(a_ub != previous, axis=1)
                    assert changed.any()
                    for prev, events in zip(pair, extremes):
                        if np.any(np.abs(prev.dual_ub[changed]) > lp.TOL):
                            binding += 1
                            assert events[:2] == [False, "update"]
                pair, previous = (got, a_ub) if got[1].status == "optimal" else (None, None)
        assert binding

    def test_refused_basis_gives_the_cold_result(self, monkeypatch):
        # a basis the restart refuses leaves its extreme to the shared phase
        # 1, and so to the cold answer bit for bit: a singular one (one
        # variable repeated), and an optimal basis from the level below, its
        # own extreme's or the other one's, infeasible on the new rows, where
        # its dual simplex runs past its pivot cap, cut to one pivot here.
        # A basis infeasible there is not refused for being dual infeasible:
        # its costs are shifted.  On a slice of its own no optimum is carried,
        # so every extreme reaches the restart.
        outcomes, duals = {}, []  # per restarted sense: (refused, dual simplex status)
        real_restart, real_dual = lp._restart, lp._run_dual

        def restart(side, basis):
            runs = len(duals)
            start = real_restart(side, basis)
            outcomes[side.sense] = (start is None, duals[-1] if len(duals) > runs else None)
            return start

        def dual(T, basis, nonbasic, limit, max_iter):
            status, it = real_dual(T, basis, nonbasic, limit, 1)
            duals.append(status)
            return status, it

        monkeypatch.setattr(lp, "_restart", restart)
        monkeypatch.setattr(lp, "_run_dual", dual)
        refusals = {}
        singular_runs = 0
        for num, den, a, k in _seeded_cones(6, 30):
            pair = None
            for gamma in LEVELS:
                bnum, bden, a_ub = _banded(num, den, a, k, gamma)
                cold = solve_ratio(bnum, bden, a_ub)
                if cold[1].status != "optimal":
                    pair = None
                    continue
                for warm in (pair, pair[::-1]) if pair is not None else ():
                    outcomes.clear()
                    got = lp._Slice(bnum, bden, a_ub).solve(warm)
                    for g, c, sense in zip(got, cold, ("min", "max")):
                        refused, status = outcomes[sense]
                        if refused:
                            assert _same(g, c)
                            refusals[status] = refusals.get(status, 0) + 1
                        else:
                            assert _close(g, c, bnum)
                # the singular basis comes with the optimum of the level below
                if pair is not None:
                    singular = tuple(
                        dataclasses.replace(s, basis=np.zeros_like(s.basis)) for s in pair
                    )
                    outcomes.clear()
                    got = lp._Slice(bnum, bden, a_ub).solve(singular)
                    assert outcomes == {"min": (True, None), "max": (True, None)}
                    assert all(_same(g, c) for g, c in zip(got, cold))
                    singular_runs += 1
                pair = cold
        assert list(refusals) == ["stalled"] and singular_runs

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
                bnum, bden, a_ub = _banded(num, den, a, k, gamma)
                cold = solve_ratio(bnum, bden, a_ub)
                got = lp._Slice(bnum, bden, a_ub).solve(pair)
                assert [g.status for g in got] == [c.status for c in cold]
                if cold[1].status == "infeasible":
                    seen += pair is not None
                    assert all(_same(g, c) for g, c in zip(got, cold))
                    slice_lp = LinearProgram.build("max", bnum, a_ub, bden)
                    assert all(_is_farkas_ray(g, slice_lp) for g in got)
                    break
                pair = got
        assert seen and "infeasible" in statuses


def _band_sweep(seed, count):
    """Per seeded cone, its band program stepped through ``LEVELS``: at each
    level after the first, ``(band, band_rows, pair, gamma)``, where
    ``band`` is the cone's slice program with the band column rewritable,
    ``band_rows`` its band rows and ``pair`` the previous level's
    ``(lo, hi)``.  The caller rewrites ``band`` to ``gamma``; the sweep then
    solves it from ``pair``."""
    for num, den, a, k in _seeded_cones(seed, count):
        band, band_rows = _band_slice(num, den, a, k)
        pair = band.solve()
        for gamma in LEVELS[1:]:
            if pair[1].status != "optimal":
                break
            yield band, band_rows, pair, gamma
            pair = band.solve(pair)


class TestTableauUpdate:
    """A level step rewrites the band scalar's column of a slice program in
    place, and a restart updates the previous optimum's kept tableau."""

    def test_update_equals_dense_refactor(self):
        # the band scalar is positive, hence basic, at every band density, so
        # the rank-one correction applies; from the dense refactor of a
        # previous optimum's basis on the rows before a level step, each
        # entry of the updated tableau (objective row aside) is the dense
        # refactor's on the rows after it to 1e-12 of the entry's size (a
        # tableau kept from pivots carries their rounding on top)
        checked = 0
        for band, band_rows, pair, gamma in _band_sweep(5, 40):
            before = band.prog.A[:, band.column].copy()
            kept = [lp._refactor(side, sol.basis) for side, sol in zip(band.sides, pair)]
            band.rewrite(band_rows, -_band_share(gamma))
            for side, sol, factored in zip(band.sides, pair, kept):
                T, basis, nonbasic = factored
                got = lp._update(side, lp._Kept(side.A, T, nonbasic, before), basis, band.column)
                want, _, same = lp._refactor(side, basis)
                assert np.array_equal(same, nonbasic)
                m = basis.size
                size = np.maximum(1.0, np.abs(want[:m]))
                assert np.all(np.abs(got[:m] - want[:m]) <= 1e-12 * size)
                checked += 1
        assert checked > 100

    def test_sweep_restarts_by_update(self, count_calls):
        # every restart within the sweep updates its tableau, and each level
        # answers as a cold solve of its rows does, to 1e-12
        updates, refactors = count_calls(lp, "_update"), count_calls(lp, "_refactor")
        restarted = 0
        for band, band_rows, pair, gamma in _band_sweep(5, 40):
            band.rewrite(band_rows, -_band_share(gamma))
            before = len(updates)
            got = band.solve(pair)
            restarted += len(updates) > before
            cold = solve_ratio(band.prog.c, band.prog.a_eq[0], band.prog.a_ub)
            for g, c in zip(got, cold):
                assert g.status == c.status
                if c.status == "optimal":
                    assert _close(g, c, band.prog.c)
                    assert max(g.gap, g.primal_residual, g.dual_residual) <= lp.TOL
        assert restarted and not refactors

    def test_tiny_pivot_takes_the_dense_refactor(self, count_calls):
        # a correction whose pivot 1 + d_r is below TOL is not made: here the
        # column as kept is set so that its change cancels the band scalar's
        # column, 1 + d_r = 0 up to rounding, and the restart refactors the
        # basis densely instead, to the start a dense refactor gives
        refactors = count_calls(lp, "_refactor")
        tried = 0
        for band, band_rows, pair, gamma in _band_sweep(6, 30):
            band.rewrite(band_rows, -_band_share(gamma))
            for side, sol in zip(band.sides, pair):
                column = band.prog.A[:, band.column]
                cancel = dataclasses.replace(
                    sol, kept=dataclasses.replace(sol.kept, column=column + sol.kept.column)
                )
                assert lp._update(side, cancel.kept, cancel.basis, band.column) is None
                before = len(refactors)
                start = band._restart(side, cancel)
                assert len(refactors) == before + 1
                want = lp._restart(side, sol.basis)
                assert (start is None) == (want is None)
                if start is not None:
                    assert np.array_equal(start.T, want.T)
                    assert np.array_equal(start.basis, want.basis)
                tried += 1
        assert tried


class TestReadOut:
    """An optimum's x and duals come from one batched solve over [B, B^T],
    and a LinearProgram's coefficients are checked in one pass."""

    def test_batched_read_out_is_two_solves_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for k in range(1, 61):
            mat = rng.normal(size=(k, k))
            rhs, cost = rng.normal(size=k), rng.normal(size=k)
            x, y = lp._basis_pair(mat, rhs, cost)
            assert x.tobytes() == np.linalg.solve(mat, rhs).tobytes()
            assert y.tobytes() == np.linalg.solve(mat.T, cost).tobytes()

    def test_singular_basis_falls_back_to_basis_solve(self, count_calls):
        calls = count_calls(lp, "_basis_solve")
        mat = np.array([[1.0, 2.0], [2.0, 4.0]])
        rhs, cost = np.array([1.0, 2.0]), np.array([3.0, 6.0])
        x, y = lp._basis_pair(mat, rhs, cost)
        assert len(calls) == 2
        assert np.array_equal(x, np.linalg.lstsq(mat, rhs, rcond=None)[0])
        assert np.array_equal(y, np.linalg.lstsq(mat.T, cost, rcond=None)[0])

    def test_build_refuses_a_den_of_the_wrong_shape(self):
        # den is one row over the variables: a matrix of equalities, or a
        # row of another width, is refused
        for den in (np.ones((2, 2)), np.ones(3), np.ones(1), 1.0):
            with pytest.raises(ValidationError) as exc:
                LinearProgram.build("max", np.ones(2), np.ones((1, 2)), den)
            assert str(exc.value) == "inconsistent LP dimensions"
        # the slice's right-hand sides are set by build, not passed
        prog = LinearProgram.build("max", np.ones(2), np.ones((1, 2)), np.ones(2))
        assert prog.b_ub.tolist() == [0.0] and prog.b_eq.tolist() == [1.0]
        assert np.array_equal(prog.a_eq, np.ones((1, 2)))

    def test_build_names_the_first_non_finite_array(self):
        names = ("c", "a_ub", "den")
        for first in range(len(names)):
            data = {"c": np.ones(2), "a_ub": np.ones((1, 2)), "den": np.ones(2)}
            for name in names[first:]:  # this array and every later one
                data[name].flat[-1] = [np.nan, np.inf, -np.inf][first % 3]
            with pytest.raises(ValidationError) as exc:
                LinearProgram.build("max", **data)
            assert str(exc.value) == f"non-finite coefficients in {names[first]}"

    def test_carry_stops_at_the_dual_test(self, count_calls):
        # a carried optimum is put to the dual residual first: one that fails
        # there is not tested further, and one that passes gets the
        # certificate's residuals, bit for bit
        tested = count_calls(lp, "_primal_and_gap")
        passed = failed = 0
        for band, band_rows, pair, gamma in _band_sweep(5, 40):
            band.rewrite(band_rows, -_band_share(gamma))
            for side, sol in zip(band.sides, pair):
                if sol.status != "optimal":
                    continue
                before = len(tested)
                carried = lp._carry(side, sol)
                stopped = len(tested) == before
                sense = 1.0 if side.sense == "max" else -1.0
                y = sense * np.concatenate([sol.dual_ub, sol.dual_eq])
                value, primal, dual, gap = lp._certificate(sense * side.c, side, sol.x, y)
                if dual > lp.TOL:
                    assert carried is None and stopped
                    failed += 1
                elif carried is not None:
                    assert (carried.gap, carried.primal_residual, carried.dual_residual) == (
                        gap, primal, dual)
                    assert carried.value == sense * value
                    passed += 1
        assert passed and failed
