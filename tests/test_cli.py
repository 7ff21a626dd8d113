import argparse
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import conic_pricer
from conic_pricer import lp, pricing
from conic_pricer.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    build_parser,
    main,
    model_from_dict,
    payoff_from_dict,
)
from conic_pricer.errors import ComputationError, ValidationError
from conic_pricer.fixtures import fixture_path
from conic_pricer.market import MarketModel, Security, TradingStrategy, cds_dividends

from conftest import binary_tree_market, two_period_tree

MODEL = fixture_path("two_period_stock.json")
PAYOFF = fixture_path("asian_call_65.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def base_model_dict():
    with open(MODEL) as fh:
        return json.load(fh)


class TestValidate:
    def test_shipped_fixture_is_valid(self, capsys):
        code, out, _ = run(capsys, "validate", MODEL)
        assert code == EXIT_OK
        assert out.strip() == "ok"

    def test_assumption_violation_exits_2(self, capsys, tmp_path, base_model_dict):
        data = base_model_dict
        del data["securities"][0]["lambda"]
        ask = np.array(data["securities"][0]["bid"], dtype=float)
        ask[:3, 1] -= 1.0
        data["securities"][0]["ask"] = ask.tolist()
        path = write_json(tmp_path, "bad.json", data)
        code, _, err = run(capsys, "validate", path)
        assert code == EXIT_VALIDATION
        assert "Assumption A" in err

    def test_bad_probabilities_exit_2(self, capsys, tmp_path, base_model_dict):
        data = base_model_dict
        data["probabilities"] = [0.2, 0.2, 0.2, 0.2, 0.1]
        path = write_json(tmp_path, "bad.json", data)
        code, _, err = run(capsys, "validate", path)
        assert code == EXIT_VALIDATION
        assert "sum" in err

    def test_parse_error_reports_line(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "horizon": 2,\n  oops\n}')
        code, _, err = run(capsys, "validate", str(path))
        assert code == EXIT_VALIDATION
        assert "line 3" in err

    def test_reads_only_lam(self, capsys):
        code, out, _ = run(capsys, "validate", MODEL, "--lam", "0.01")
        assert code == EXIT_OK and out.strip() == "ok"
        for flag in (["--time", "1"], ["--entry", "mark"], ["--format", "json"],
                     ["--precision", "3"]):
            code, _, err = run(capsys, "validate", MODEL, *flag)
            assert code == EXIT_USAGE, flag
            assert "unrecognized arguments" in err


class TestPrice:
    def test_violated_levels_emit_sentinels(self, capsys):
        code, out, _ = run(capsys, "price", MODEL, PAYOFF, "--gamma", "0.05")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "node,bid,ask,status"
        assert lines[1] == "0:0,+inf,-inf,ngd-violated"

    def test_feasible_level_quotes(self, capsys):
        code, out, _ = run(capsys, "price", MODEL, PAYOFF, "--gamma", "8")
        row = out.strip().splitlines()[1].split(",")
        assert row[3] == "ok"
        assert float(row[1]) == pytest.approx(1.334175, abs=1e-5)
        assert float(row[2]) == pytest.approx(1.360831, abs=1e-5)

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "price", MODEL, PAYOFF, "--gamma", "8", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["command"] == "price"
        assert payload["rows"][0]["status"] == "ok"
        assert isinstance(payload["rows"][0]["bid"], float)

    def test_json_sentinels_are_strings(self, capsys):
        code, out, _ = run(
            capsys, "price", MODEL, PAYOFF, "--gamma", "0.05", "-f", "json"
        )
        payload = json.loads(out)
        assert payload["rows"][0]["bid"] == "+inf"
        assert payload["rows"][0]["ask"] == "-inf"

    def test_nonpositive_gamma_is_usage_error(self, capsys):
        # --gamma parses as a plain float; a level outside (0, inf) is a
        # validation failure by the density band's one rule, as in --gammas
        for command in (["price", MODEL, PAYOFF], ["forward", MODEL, PAYOFF], ["ngd", MODEL]):
            for gamma in ("0", "-1", "nan", "inf"):
                code, out, err = run(capsys, *command, "--gamma", gamma)
                assert (code, out) == (EXIT_VALIDATION, ""), (command, gamma)
                assert err == f"error: acceptance level must be in (0, inf), got {float(gamma)}\n"

    def test_binomial_collapse_via_cli(self, capsys, tmp_path):
        model = write_json(
            tmp_path,
            "binomial.json",
            {
                "horizon": 1,
                "probabilities": [0.25, 0.75],
                "rates": 0.0,
                "securities": [{"name": "s", "bid": [[50, 80], [50, 40]], "lambda": 0.0}],
            },
        )
        payoff = write_json(
            tmp_path,
            "call.json",
            {"type": "explicit", "cashflow": [[0, 20], [0, 0]]},
        )
        for gamma in ("0.5", "3"):
            code, out, _ = run(capsys, "price", model, payoff, "--gamma", gamma)
            row = out.strip().splitlines()[1].split(",")
            assert float(row[1]) == pytest.approx(5.0, abs=1e-9)
            assert float(row[2]) == pytest.approx(5.0, abs=1e-9)

    def test_large_gamma_quotes_the_bounds(self, capsys):
        # the band over m' = (1 + gamma) m stays well scaled at any finite
        # level, and at these the fixture's band holds its bound densities
        for gamma in ("1e16", "1e300"):
            code, out, err = run(capsys, "price", MODEL, PAYOFF, "--gamma", gamma)
            assert (code, err) == (EXIT_OK, ""), gamma
            assert out.splitlines() == ["node,bid,ask,status", "0:0,1.25,1.38889,ok"]

    def test_overflowing_gamma_quotes_or_exits_internal(self, capsys):
        # the band's entries at gamma = 1e300 square past the float range in
        # the simplex's pricing: the command quotes, or exits 70 with one
        # ``internal error:`` line, and never crashes
        code, out, err = run(capsys, "price", MODEL, PAYOFF, "--gamma", "1e300")
        assert code in (EXIT_OK, EXIT_INTERNAL)
        assert len(err.splitlines()) == (code == EXIT_INTERNAL)
        assert (out == "") == (code == EXIT_INTERNAL)
        if code == EXIT_INTERNAL:
            assert err.startswith("internal error: ")


class TestBounds:
    def test_frictionless_root(self, capsys):
        code, out, _ = run(capsys, "bounds", MODEL, PAYOFF)
        row = out.strip().splitlines()[1].split(",")
        assert abs(float(row[1]) - 1.25003) <= 1e-3
        assert abs(float(row[2]) - 1.38885) <= 1e-3

    def test_lambda_override(self, capsys):
        code, out, _ = run(capsys, "bounds", MODEL, PAYOFF, "--lam", "0.01")
        row = out.strip().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(1.232643, abs=1e-5)
        assert float(row[2]) == pytest.approx(1.552353, abs=1e-5)

    def test_lambda_override_replaces_a_given_ask(self, capsys, tmp_path, base_model_dict):
        # --lam rebuilds every ask, so a security giving both an ask and a
        # lambda, which the file alone may not, prices as the fixture does
        sec = base_model_dict["securities"][0]
        sec["ask"] = [[2 * b for b in row] for row in sec["bid"]]
        model = write_json(tmp_path, "model.json", base_model_dict)
        both = run(capsys, "bounds", model, PAYOFF, "--lam", "0.01")
        assert both[0] == EXIT_OK
        assert both == run(capsys, "bounds", MODEL, PAYOFF, "--lam", "0.01")

    def test_intermediate_date_mark_entry(self, capsys):
        code, out, _ = run(
            capsys, "bounds", MODEL, PAYOFF,
            "--lam", "0.01", "--time", "1", "--entry", "mark",
        )
        rows = out.strip().splitlines()[1:]
        up = rows[0].split(",")
        assert abs(float(up[1]) - 5.35011) <= 1e-3
        assert abs(float(up[2]) - 5.79988) <= 1e-3


    def test_node_the_mark_cone_cannot_charge(self, capsys, tmp_path, base_model_dict):
        # the up node's children all bid between its bid and ask: clean under
        # the trade convention, no pricing density under the mark convention
        base_model_dict["securities"][0]["bid"][0][2] = 80.3
        base_model_dict["securities"][0]["bid"][1][2] = 80.5
        base_model_dict["securities"][0]["bid"][2][2] = 80.6
        model = write_json(tmp_path, "model.json", base_model_dict)
        code, out, err = run(
            capsys, "bounds", model, PAYOFF, "--lam", "0.01", "--time", "1", "--entry", "mark"
        )
        assert code == EXIT_OK, err
        up, down = out.strip().splitlines()[1:]
        assert up == "1:0,nan,nan,infeasible"
        assert down.endswith(",ok")

    def test_solver_failure_exits_internal(self, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise ComputationError("LP certification failed: injected")

        monkeypatch.setattr(lp, "solve_ratio", failing)
        # mark bounds go to the simplex alone; trade bounds hand it the
        # recursion's candidates first
        for entry in ("mark", "trade"):
            code, out, err = run(capsys, "bounds", MODEL, PAYOFF, "--entry", entry)
            assert code == EXIT_INTERNAL
            assert "arbitrage" not in out
            assert "injected" in err
        # every command that solves an LP, failing in either solver
        monkeypatch.setattr(lp, "solve", failing)
        for argv in (["price", MODEL, PAYOFF, "--gamma", "8"],
                     ["forward", MODEL, PAYOFF, "--gamma", "8"],
                     ["bounds", MODEL, PAYOFF, "--time", "1"],
                     ["ngd", MODEL, "--gamma", "0.25"],
                     ["arbitrage", MODEL],
                     ["surface", MODEL, PAYOFF, "--gammas", "0.25,8", "--lambdas", "0"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (EXIT_INTERNAL, ""), argv
            assert err.startswith("internal error: ") and "injected" in err, argv


class TestNgdAndArbitrage:
    def test_ngd_violated_reports_witness(self, capsys):
        code, out, _ = run(capsys, "ngd", MODEL, "--gamma", "0.25")
        row = out.strip().splitlines()[1].split(",")
        assert row[2] == "violated"
        assert row[3] == "0:0"
        assert float(row[4]) > 0.25

    def test_ngd_json_numbers_stay_numbers(self, capsys):
        code, out, _ = run(capsys, "ngd", MODEL, "--gamma", "0.25", "--format", "json")
        row = json.loads(out)["rows"][0]
        assert row["witness_dglr"] == 6.27273 and isinstance(row["witness_dglr"], float)
        assert row["time"] == 0 and isinstance(row["time"], int)
        code, out, _ = run(capsys, "ngd", MODEL, "--gamma", "8", "--format", "json")
        assert json.loads(out)["rows"][0]["witness_dglr"] == ""

    def test_ngd_holds(self, capsys):
        code, out, _ = run(capsys, "ngd", MODEL, "--gamma", "8")
        assert "holds" in out

    def test_ngd_violation_without_witness_exits_internal(self, capsys, monkeypatch):
        # a hedge that fails its certificate is an error, never a "violated"
        # row with an empty witness
        monkeypatch.setattr(pricing, "good_deal_certificate", lambda *args: None)
        code, out, err = run(capsys, "ngd", MODEL, "--gamma", "0.25")
        assert code == EXIT_INTERNAL
        assert "violated" not in out
        assert "fails its certificate" in err

    def test_arbitrage_clean(self, capsys):
        code, out, _ = run(capsys, "arbitrage", MODEL)
        assert out.strip().splitlines()[1].startswith("0,none")

    def test_flag_not_read(self, capsys):
        # the surface takes each row's lambda from --lambdas, never --lam;
        # the mark entry convention is for bounds alone
        surface = ["surface", MODEL, PAYOFF, "--gammas", "0.5,8", "--lambdas", "0,0.01"]
        for argv in (["arbitrage", MODEL, "--entry", "mark"],
                     ["dglr", MODEL, PAYOFF, "--entry", "mark"],
                     ["price", MODEL, PAYOFF, "--gamma", "5", "--entry", "mark"],
                     ["forward", MODEL, PAYOFF, "--gamma", "5", "--entry", "mark"],
                     ["ngd", MODEL, "--gamma", "5", "--entry", "mark"],
                     surface + ["--entry", "mark"],
                     surface + ["--lam", "0.5"]):
            code, _, err = run(capsys, *argv)
            assert code == EXIT_USAGE, argv
            assert "unrecognized arguments" in err


class TestNonFiniteLambda:
    @pytest.mark.parametrize("argv, lam", [
        (["bounds", MODEL, PAYOFF, "--lam", "nan"], "nan"),
        (["bounds", MODEL, PAYOFF, "--lam", "inf"], "inf"),
        (["surface", MODEL, PAYOFF, "--gammas", "8", "--lambdas", "nan"], "nan"),
        (["surface", MODEL, PAYOFF, "--gammas", "8", "--lambdas", "0,inf"], "inf"),
    ])
    def test_exits_2_with_one_line(self, capsys, argv, lam):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == f"error: transaction cost coefficient must be finite and >= 0, got {lam}\n"


class TestDglr:
    def test_hedge_flow_value(self, capsys, tmp_path):
        payoff = write_json(
            tmp_path,
            "flow.json",
            {
                "type": "explicit",
                "cashflow": [[0, 30, 0], [0, 30, 0], [0, 30, 0], [0, -10, 0], [0, -10, 0]],
            },
        )
        code, out, _ = run(capsys, "dglr", MODEL, payoff, "--precision", "9")
        row = out.strip().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(1.714286, abs=1e-6)

    def test_cds_payoff_builder(self, capsys, tmp_path):
        payoff = write_json(
            tmp_path,
            "cds.json",
            {
                "type": "cds",
                "tau": [None, None, None, 2, 2],
                "delta": 0.6,
                "kappa_ask": 0.1,
                "kappa_bid": 0.08,
            },
        )
        code, out, _ = run(capsys, "dglr", MODEL, payoff, "--time", "1")
        assert code == EXIT_OK
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 2

    def test_cds_payoff_prices_end_to_end(self, capsys, tmp_path):
        payoff = write_json(
            tmp_path,
            "cds.json",
            {
                "type": "cds",
                "tau": [None, None, None, 2, 2],
                "delta": 0.6,
                "kappa_ask": 0.1,
                "kappa_bid": 0.08,
            },
        )
        code, out, _ = run(capsys, "price", MODEL, payoff, "--gamma", "8",
                           "--precision", "9")
        assert code == EXIT_OK
        row = out.strip().splitlines()[1].split(",")
        assert row[3] == "ok"
        bid, ask = float(row[1]), float(row[2])
        # default happens exactly on the date-1 down node, so the protection
        # value is driven by that node's risk-neutral mass
        assert 0.0 < bid <= ask < 0.6


class TestForward:
    def test_zero_rate_forward_equals_price(self, capsys):
        _, out_f, _ = run(capsys, "forward", MODEL, PAYOFF, "--gamma", "8")
        _, out_p, _ = run(capsys, "price", MODEL, PAYOFF, "--gamma", "8")
        assert out_f.splitlines()[1] == out_p.splitlines()[1]


class TestSurface:
    def test_header_and_grid(self, capsys):
        code, out, _ = run(
            capsys, "surface", MODEL, PAYOFF,
            "--gammas", "0.05,8", "--lambdas", "0,0.005",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "gamma,lambda,bid,ask,spread,status"
        assert len(lines) == 5
        statuses = [ln.split(",")[-1] for ln in lines[1:]]
        assert statuses.count("ngd-violated") == 2
        assert statuses.count("ok") == 2

    def test_single_cell_matches_price(self, capsys):
        _, out_s, _ = run(
            capsys, "surface", MODEL, PAYOFF, "--gammas", "8", "--lambdas", "0"
        )
        _, out_p, _ = run(capsys, "price", MODEL, PAYOFF, "--gamma", "8")
        srow = out_s.strip().splitlines()[1].split(",")
        prow = out_p.strip().splitlines()[1].split(",")
        assert srow[2] == prow[1] and srow[3] == prow[2]

    def test_node_out_of_range_exits_2(self, capsys):
        for node in ("5", "-1"):  # two date-1 nodes on the fixture
            code, out, err = run(
                capsys, "surface", MODEL, PAYOFF, "--gammas", "8", "--lambdas", "0",
                "--time", "1", "--node", node,
            )
            assert code == EXIT_VALIDATION, node
            assert out == "" and f"node {node} outside 0..1" in err

    def test_negative_zero_prints_as_zero(self, capsys):
        # the date-1 down node's payoff is zero on every path
        code, out, _ = run(
            capsys, "surface", MODEL, PAYOFF, "--gammas", "8", "--lambdas", "0,0.01",
            "--time", "1", "--node", "1",
        )
        assert code == EXIT_OK
        for line in out.strip().splitlines()[1:]:
            assert line.split(",")[2:5] == ["0", "0", "0"]

    def test_empty_gamma_list_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "surface", MODEL, PAYOFF, "--gammas", "", "--lambdas", "0"
        )
        assert code == EXIT_USAGE


def model_to_dict(model):
    """A model file's data for ``model``: the inverse of the loader."""
    return {
        "horizon": model.tree.horizon,
        "paths": list(model.tree.paths),
        "probabilities": model.tree.probabilities.tolist(),
        "rates": model.rates.tolist(),
        "securities": [
            {
                "name": sec.name,
                "bid": sec.bid.tolist(),
                "ask": sec.ask.tolist(),
                "dividends_ask": sec.div_ask.tolist(),
                "dividends_bid": sec.div_bid.tolist(),
            }
            for sec in model.securities
        ],
    }


class TestRoundTripAndDeterminism:
    def test_fixture_round_trip(self, base_model_dict):
        model = model_from_dict(base_model_dict)
        again = model_from_dict(model_to_dict(model))
        assert model.tree.paths == again.tree.paths
        assert np.array_equal(model.tree.probabilities, again.tree.probabilities)
        assert model.tree.partitions == again.tree.partitions
        assert np.array_equal(model.rates, again.rates)
        for a, b in zip(model.securities, again.securities):
            assert a.name == b.name
            for field in ("bid", "ask", "div_ask", "div_bid"):
                assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_byte_identical_reports(self, capsys):
        outs = set()
        for _ in range(3):
            _, out, _ = run(capsys, "bounds", MODEL, PAYOFF, "--lam", "0.005")
            outs.add(out)
        assert len(outs) == 1

    def test_one_process_matches_fresh_processes(self, capsys):
        # main reuses one parser: a command after a json report or a usage
        # error prints what it prints in a process of its own
        commands = [
            ["bounds", MODEL, PAYOFF, "--time", "1", "--format", "json"],
            ["bounds", MODEL, PAYOFF, "--gamma", "8"],
            ["price", MODEL, PAYOFF, "--gamma", "8", "--precision", "3"],
            ["bounds", MODEL, PAYOFF, "--time", "1"],
            ["surface", MODEL, PAYOFF, "--gammas", "8,0.25", "--lambdas", "0.01,0"],
            ["ngd", MODEL, "--gamma", "0.25"],
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(conic_pricer.__file__)), env.get("PYTHONPATH", "")]
        )
        codes = []
        for argv in commands:
            code, out, _ = run(capsys, *argv)
            fresh = subprocess.run(
                [sys.executable, "-m", "conic_pricer.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert (code, out) == (fresh.returncode, fresh.stdout), argv
            codes.append(code)
        assert codes == [EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK]

    def test_negative_precision_is_usage_error(self, capsys):
        code, out, err = run(capsys, "bounds", MODEL, PAYOFF, "--precision", "-1")
        assert code == EXIT_USAGE
        assert out == ""
        assert "precision" in err

    def test_precision_flag(self, capsys):
        _, out, _ = run(capsys, "bounds", MODEL, PAYOFF, "--precision", "3")
        row = out.strip().splitlines()[1].split(",")
        assert row[1] == "1.25"
        assert row[2] == "1.39"


def _ragged_bid(model):
    model["securities"][0]["bid"][1] = model["securities"][0]["bid"][1][:2]


# recipe: (model edit, payoff edit, what the error line names)
MALFORMED = {
    "security without bid": (lambda m: m["securities"][0].pop("bid"), None, "model file"),
    "horizon not a number": (lambda m: m.update(horizon="two"), None,
                             "horizon must be an integer"),
    # a horizon, a default time and a cost coefficient are read as given,
    # never truncated, parsed from a string or taken from a bool
    **{
        f"horizon {json.dumps(horizon)}": (lambda m, h=horizon: m.update(horizon=h), None,
                                           "horizon must be an integer")
        for horizon in (2.9, True, "2")
    },
    # the horizon rule comes before any shape is built from the horizon
    **{
        f"horizon {horizon}": (lambda m, h=horizon: m.update(horizon=h), None,
                               f"error: horizon must be >= 1, got {horizon}\n")
        for horizon in (0, -1)
    },
    "rates true": (lambda m: m.update(rates=True), None, "rates must be numbers"),
    "probability true": (
        lambda m: m["probabilities"].__setitem__(0, True), None, "probability must be a number"
    ),
    "asian call strike true": (None, lambda p: p.update(strike=True), "strike must be a number"),
    **{
        f"cds {field} true": (None, lambda p, field=field: p.update(
            {"type": "cds", "tau": [None] * 5, "delta": 0.6, "kappa_ask": 0.01,
             "kappa_bid": 0.01, field: True}
        ), f"{field} must be a number") for field in ("delta", "kappa_ask", "kappa_bid")
    },
    # the CDS parameters are finite, as a strike is
    **{
        f"cds {field} {json.dumps(value)}": (None, lambda p, field=field, value=value: p.update(
            {"type": "cds", "tau": [None] * 5, "delta": 0.6, "kappa_ask": 0.01,
             "kappa_bid": 0.01, field: value}
        ), f"{field} contains non-finite entries")
        for field, value in (("delta", np.nan), ("kappa_ask", np.nan), ("kappa_bid", np.inf))
    },
    # README: an ask matrix or a lambda shorthand, not both
    "ask with lambda": (
        lambda m: m["securities"][0].update(
            ask=[[2 * b for b in row] for row in m["securities"][0]["bid"]]
        ), None, "security stock: provide an ask matrix or a lambda shorthand, not both"
    ),
    **{
        f"lambda {json.dumps(lam)}": (
            lambda m, lam=lam: m["securities"][0].update({"lambda": lam}), None,
            "transaction cost coefficient must be a number"
        )
        for lam in (True, "0.01")
    },
    **{
        f"cds default time {json.dumps(tau)}": (None, lambda p, tau=tau: p.update(
            type="cds", tau=[tau] * 5, delta=0.6, kappa_ask=0.01, kappa_bid=0.01
        ), "default time on path w1 must be an integer") for tau in (1.9, True)
    },
    "repeated security name": (
        lambda m: m["securities"].append(dict(m["securities"][0])), None,
        "security name 'stock' is used twice"
    ),
    "probability not a fraction": (
        lambda m: m["probabilities"].__setitem__(1, "x/3"), None, "model file"
    ),
    "asian call without strike": (None, lambda p: p.pop("strike"), "payoff file"),
    "security not an object": (
        lambda m: m["securities"].__setitem__(0, 1), None, "model file"
    ),
    "ragged bid rows": (_ragged_bid, None, "model file"),
    "negative lambda": (
        lambda m: m["securities"][0].update({"lambda": -0.01}), None, "transaction cost"
    ),
    # rates the fixture's two dates cannot take, and rates no date can; a
    # wrong shape is named as every other process's is
    **{
        f"rates {json.dumps(rates)}": (lambda m, rates=rates: m.update(rates=rates), None, named)
        for rates, named in (
            ([0.01], "error: rates has shape (1,), expected (2,)\n"),
            ([0.01, 0.02, 0.03], "rate"),
            ([[0.01, 0.0]], "error: rates has shape (1, 2), expected (5, 2)\n"),
            ([], "rate"),
            (np.inf, "rate"),
            ([0.01, np.nan], "rate"),
        )
    },
    "NaN probability": (
        lambda m: m["probabilities"].__setitem__(0, np.nan), None, "probabilities"
    ),
    "asian call strike NaN": (None, lambda p: p.update(strike=np.nan), "strike"),
    # at date 0, where a NaN, equal to nothing, would split the one cell
    "NaN bid": (
        lambda m: m["securities"][0]["bid"][1].__setitem__(0, np.nan), None, "stock bid prices"
    ),
    # numpy reads a bool inside a list of numbers as 1 or 0
    "rates [true, 0.0]": (lambda m: m.update(rates=[True, 0.0]), None,
                          "rates must be numbers, got True"),
    "bid true": (lambda m: m["securities"][0]["bid"][0].__setitem__(1, True), None,
                 "security stock: bid must be numbers, got True"),
    "ask true": (lambda m: m["securities"][0].update(
        {"lambda": None, "ask": [[50, 80, 90], [50, 80, 70], [50, 80, 60], [50, 40, 60],
                                 [50, 40, True]]}
    ), None, "security stock: ask must be numbers, got True"),
    **{
        f"{field} false": (lambda m, field=field: m["securities"][0].update(
            {field: [[0, 0, 0]] * 4 + [[0, 0, False]]}
        ), None, f"security stock: {field} must be numbers, got False")
        for field in ("dividends_ask", "dividends_bid")
    },
    "cashflow true": (None, lambda p: p.update(
        {"type": "explicit", "cashflow": [[0, 0, 0]] * 4 + [[0, True, 0]]}
    ), "cashflow must be numbers, got True"),
    # a date-0 price that differs across paths names its process and a path
    "date-0 bid differs": (
        lambda m: m["securities"][0]["bid"][0].__setitem__(0, 51), None,
        "stock bid prices is not measurable at t=0: 51.0 on path w1, 50.0 on path w2"
    ),
    # a process of the wrong shape is named, with the shape it should have
    "horizon 3": (lambda m: m.update(horizon=3), None,
                  "stock bid prices has shape (5, 3), expected (5, 4)"),
    "bid of 4 rows": (lambda m: m["securities"][0]["bid"].pop(), None,
                      "stock bid prices has shape (4, 3), expected (5, 3)"),
    "dividends_bid of 2 columns": (
        lambda m: m["securities"][0].update(dividends_bid=[[0, 0]] * 5), None,
        "stock cumulative bid dividends has shape (5, 2), expected (5, 3)"
    ),
    # labels name paths in every message
    "repeated path label": (
        lambda m: m.update(paths=["w1", "w1", "w3", "w4", "w5"]), None,
        "path label 'w1' is used twice"
    ),
    # asian call security indices the one-security fixture does not have
    **{
        f"security {json.dumps(index)}": (None, lambda p, i=index: p.update(security=i),
                                          "security")
        for index in (5, -1, True)
    },
}


@pytest.mark.parametrize("model_edit, payoff_edit, named", MALFORMED.values(),
                         ids=list(MALFORMED))
def test_malformed_file_exits_2_with_one_line(
    capsys, tmp_path, base_model_dict, model_edit, payoff_edit, named
):
    with open(PAYOFF) as fh:
        payoff = json.load(fh)
    for edit, data in ((model_edit, base_model_dict), (payoff_edit, payoff)):
        if edit is not None:
            edit(data)
    model_path = write_json(tmp_path, "model.json", base_model_dict)
    payoff_path = write_json(tmp_path, "payoff.json", payoff)
    code, out, err = run(capsys, "bounds", model_path, payoff_path)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


class TestDateZero:
    """A date-0 value that differs across paths is a value that is not
    adapted to the trivial F_0: named by its process, in load order (each
    security's four processes, then the rates), and by the first path and a
    path where it differs from the first path's."""

    @staticmethod
    def message(capsys, tmp_path, data):
        code, out, err = run(capsys, "validate", write_json(tmp_path, "model.json", data))
        assert (code, out) == (EXIT_VALIDATION, "")
        return err

    def test_bid_names_process_and_path(self, capsys, tmp_path, base_model_dict):
        base_model_dict["securities"][0]["bid"][2][0] = 49.5
        assert self.message(capsys, tmp_path, base_model_dict) == (
            "error: stock bid prices is not measurable at t=0: "
            "50.0 on path w1, 49.5 on path w3\n"
        )

    def test_prices_before_rates(self, capsys, tmp_path, base_model_dict):
        base_model_dict["rates"] = [[0.0, 0.0]] * 3 + [[0.01, 0.0]] * 2
        assert self.message(capsys, tmp_path, base_model_dict) == (
            "error: rates is not measurable at t=0: "
            "0.0 on path w1, 0.01 on path w4\n"
        )
        base_model_dict["securities"][0].update(
            {"lambda": None, "ask": [[50, 80, 90]] * 3 + [[52, 40, 60], [52, 40, 30]]}
        )
        assert self.message(capsys, tmp_path, base_model_dict) == (
            "error: stock ask prices is not measurable at t=0: "
            "50.0 on path w1, 52.0 on path w4\n"
        )

    def test_nan_keeps_its_message(self, capsys, tmp_path, base_model_dict):
        base_model_dict["securities"][0]["bid"][3][2] = float("nan")
        base_model_dict["rates"] = [[0.0, 0.0]] * 4 + [[0.01, 0.0]]
        assert self.message(capsys, tmp_path, base_model_dict) == (
            "error: stock bid prices contains non-finite entries\n"
        )

    def test_loader_and_market_name_the_same_process(self, capsys, tmp_path, base_model_dict):
        # a bad date-0 bid and bad date-0 rates: both name the bid, which
        # comes first in the one load order
        base_model_dict["securities"][0]["bid"][2][0] = 49.5
        base_model_dict["rates"] = [[0.0, 0.0]] * 3 + [[0.01, 0.0]] * 2
        bid = np.array(base_model_dict["securities"][0]["bid"], dtype=float)
        with pytest.raises(ValidationError) as exc:
            MarketModel(two_period_tree(), np.array(base_model_dict["rates"]),
                        [Security("stock", bid, bid, np.zeros((5, 3)), np.zeros((5, 3)))])
        assert str(exc.value).startswith("stock bid prices is not measurable at t=0")
        assert self.message(capsys, tmp_path, base_model_dict) == f"error: {exc.value}\n"


# every kind of measurability failure on a 256-path tree, each as a function
# of (capsys, tmp_path, model) returning the message, the date of the node it
# names and the (path, date) values it quotes; the node holds path w10 and
# its head w1 (date-t cells are blocks of 256 >> t paths)
def _cli_message(capsys, tmp_path, data, payoff=None):
    argv = ["validate", write_json(tmp_path, "model.json", data)]
    if payoff is not None:
        argv = ["bounds", argv[1], write_json(tmp_path, "payoff.json", payoff)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_VALIDATION, "") and err.startswith("error: ")
    return err[len("error: "):]


def _date_zero(field):
    def edit(capsys, tmp_path, model):
        data = model_to_dict(model)
        values = data["securities"][0] if field != "rates" else data
        values[field][9][0] += 0.5
        return _cli_message(capsys, tmp_path, data), 0, np.array(values[field])
    return edit


def _cashflow(capsys, tmp_path, model):
    flow = np.zeros((256, 9))
    flow[9, 3] = 1.0
    payoff = {"type": "explicit", "cashflow": flow.tolist()}
    return _cli_message(capsys, tmp_path, model_to_dict(model), payoff), 3, flow


def _market(field):
    def edit(capsys, tmp_path, model):
        rates, sec = model.rates.copy(), model.securities[0]
        div_bid = np.zeros((256, 9))
        values = rates if field == "rates" else div_bid
        values[9, 3:] += 0.5
        with pytest.raises(ValidationError) as exc:
            MarketModel(model.tree, rates, [Security(sec.name, sec.bid, sec.ask,
                                                     np.zeros_like(div_bid), div_bid)])
        return str(exc.value), 3, values
    return edit


def _strategy(capsys, tmp_path, model):
    h = np.zeros((9, 2, 256))
    h[4, 1, 9] = 1.0  # held over (3, 4], not known at date 3
    with pytest.raises(ValidationError) as exc:
        TradingStrategy(h).validate(model.tree)
    return str(exc.value), 3, h[1:, 1].T


def _default_time(capsys, tmp_path, model):
    tau = [None] * 256
    tau[9] = 3
    with pytest.raises(ValidationError) as exc:
        cds_dividends(model.tree, tau, 0.6, 0.01, 0.01)
    defaulted = np.zeros((256, 9), dtype=bool)
    defaulted[9, 3:] = True
    return str(exc.value), 3, defaulted


FAILURE_KINDS = {
    "cashflow": _cashflow,
    **{f"date-0 {field}": _date_zero(field)
       for field in ("bid", "ask", "dividends_ask", "dividends_bid", "rates")},
    "rates at t=3": _market("rates"),
    "bid dividends at t=3": _market("dividends"),
    "strategy": _strategy,
    "default time": _default_time,
}


@pytest.mark.parametrize("kind", FAILURE_KINDS.values(), ids=list(FAILURE_KINDS))
def test_every_measurability_failure_names_two_paths_of_one_node(capsys, tmp_path, kind):
    model = binary_tree_market(1.1, 0.9, 0.01, 0.5, 0.01, horizon=8)
    message, t, values = kind(capsys, tmp_path, model)
    assert "\n" not in message.rstrip("\n") and len(message) < 200, message
    a, b = (int(k) - 1 for k in re.findall(r"on path w(\d+)", message))
    assert model.tree.cell_index(t)[a] == model.tree.cell_index(t)[b] and {a, b} == {0, 9}
    if values.dtype == bool:
        assert values[a, t] and not values[b, t]
        assert f"default by t={t} on path w{a + 1}, not on path w{b + 1}" in message
    else:
        assert values[a, t] != values[b, t]
        assert f"{values[a, t]} on path w{a + 1}, {values[b, t]} on path w{b + 1}" in message


def test_missing_model_file_exits_2_on_every_command(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    for argv in (["validate", missing],
                 ["price", missing, PAYOFF, "--gamma", "8"],
                 ["bounds", missing, PAYOFF],
                 ["ngd", missing, "--gamma", "8"],
                 ["arbitrage", missing],
                 ["dglr", missing, PAYOFF],
                 ["forward", missing, PAYOFF, "--gamma", "8"],
                 ["surface", missing, PAYOFF, "--gammas", "8", "--lambdas", "0"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_VALIDATION, ""), argv
        assert err == f"error: no such file: {missing}\n", argv


class TestPayoffLoader:
    def test_unknown_type_rejected(self, base_model_dict):
        model = model_from_dict(base_model_dict)
        from conic_pricer.errors import ValidationError

        with pytest.raises(ValidationError):
            payoff_from_dict(model, {"type": "butterfly"})

    def test_explicit_matrix_must_be_adapted(self, base_model_dict):
        model = model_from_dict(base_model_dict)
        from conic_pricer.errors import ValidationError

        bad = np.zeros((5, 3))
        bad[0, 1] = 1.0
        with pytest.raises(ValidationError):
            payoff_from_dict(model, {"type": "explicit", "cashflow": bad.tolist()})


class TestReadmeSynopsis:
    REPORT_FLAGS = {"--format": False, "--precision": False}  # all but validate

    @staticmethod
    def synopsis():
        """README's CLI synopsis: per command, its positional files and its
        flags, each mapped to whether it is required (written unbracketed)."""
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
            text = fh.read()
        block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = []
        for line in block.splitlines():
            if line.startswith(" "):  # a wrapped line continues its command
                lines[-1] += line
            else:
                lines.append(line)
        out = {}
        for line in lines:
            prog, command, *rest = line.split()
            assert prog == "conic-pricer", line
            files = [tok.split(".")[0].lower() for tok in rest if tok.endswith(".json")]
            flags = {m[1]: not m[0] for m in re.findall(r"(\[?)(--[a-z]+)", line)}
            out[command] = files, flags
        return out

    def test_synopsis_lists_every_flag_each_command_reads(self):
        subs = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
        listed = self.synopsis()
        assert sorted(listed) == sorted(subs)
        for command, sub in subs.items():
            files = [a.dest for a in sub._actions if not a.option_strings]
            flags = {a.option_strings[0]: a.required
                     for a in sub._actions if a.option_strings and a.dest != "help"}
            want_files, want_flags = listed[command]
            if command != "validate":
                want_flags = {**want_flags, **self.REPORT_FLAGS}
            assert (files, flags) == (want_files, want_flags), command
