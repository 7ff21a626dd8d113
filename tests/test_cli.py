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
    model_to_dict,
    payoff_from_dict,
)
from conic_pricer.errors import ComputationError
from conic_pricer.fixtures import fixture_path

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
        code, _, err = run(capsys, "price", MODEL, PAYOFF, "--gamma", "0")
        assert code == EXIT_USAGE

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
        code, out, err = run(capsys, "bounds", MODEL, PAYOFF)
        assert code == EXIT_INTERNAL
        assert "arbitrage" not in out
        assert "injected" in err


class TestNgdAndArbitrage:
    def test_ngd_violated_reports_witness(self, capsys):
        code, out, _ = run(capsys, "ngd", MODEL, "--gamma", "0.25")
        row = out.strip().splitlines()[1].split(",")
        assert row[2] == "violated"
        assert row[3] == "0:0"
        assert float(row[4]) > 0.25

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


MALFORMED = {
    "security without bid": (lambda m: m["securities"][0].pop("bid"), None),
    "horizon not a number": (lambda m: m.update(horizon="two"), None),
    "probability not a fraction": (lambda m: m["probabilities"].__setitem__(1, "x/3"), None),
    "asian call without strike": (None, lambda p: p.pop("strike")),
    "security not an object": (lambda m: m["securities"].__setitem__(0, 1), None),
    "ragged bid rows": (_ragged_bid, None),
}


@pytest.mark.parametrize("model_edit, payoff_edit", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_file_exits_2_with_one_line(
    capsys, tmp_path, base_model_dict, model_edit, payoff_edit
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
