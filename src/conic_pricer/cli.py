"""Command-line front end.

Commands: validate, price, bounds, ngd, arbitrage, dglr, forward, surface.

Models and payoffs are JSON files; reports are CSV (default) or JSON with
deterministic row ordering.  Infinite quote sentinels serialize as the
strings "+inf"/"-inf".  Exit codes: 0 success, 2 validation failure, 64 usage
error, 70 internal/LP failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from typing import Optional

import numpy as np

from . import pricing
from .acceptability import dglr_eval
from .cone import arbitrage_check
from .errors import ComputationError, PricerError, ValidationError
from .lattice import EventTree, derive_filtration
from .market import (
    CashFlow,
    MarketModel,
    Security,
    asian_call,
    cds_dividends,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # no prefix matching: surface would read --lam as --lambdas
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # exit 64 instead of argparse's default 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# loading


def _parse_number(v):
    if isinstance(v, str):
        return float(Fraction(v))
    return float(v)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: parse error at line {exc.lineno}: {exc.msg}")


def _file_loader(kind: str):
    """A loader that reports a ``kind`` file with a missing field or an
    unreadable value as a :class:`ValidationError` (exit 2)."""
    def wrap(load):
        @functools.wraps(load)
        def checked(*args, **kwargs):
            try:
                return load(*args, **kwargs)
            except ValidationError:
                raise
            except KeyError as exc:
                raise ValidationError(f"{kind} file missing field {exc}") from None
            except (AttributeError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise ValidationError(f"malformed {kind} file: {exc}") from None
        return checked
    return wrap


@_file_loader("model")
def model_from_dict(data: dict, *, lam_override: Optional[float] = None) -> MarketModel:
    horizon = int(data["horizon"])
    probs = [_parse_number(v) for v in data["probabilities"]]
    securities_cfg = data["securities"]
    n = len(probs)
    paths = data.get("paths") or [f"w{i + 1}" for i in range(n)]

    rates_raw = data.get("rates", 0.0)
    rates = np.asarray(rates_raw, dtype=float)
    if rates.ndim == 0:
        rates = np.full((n, horizon), float(rates))
    elif rates.ndim == 1:
        rates = np.tile(rates, (n, 1))

    securities = []
    observables = []
    for entry in securities_cfg:
        name = entry.get("name", f"security{len(securities)}")
        bid = np.asarray(entry["bid"], dtype=float)
        lam = lam_override if lam_override is not None else entry.get("lambda")
        if lam is not None:
            ask = bid * (1.0 + float(lam))
            if float(lam) < 0:
                raise ValidationError("transaction cost coefficient must be >= 0")
        elif "ask" in entry:
            ask = np.asarray(entry["ask"], dtype=float)
        else:
            raise ValidationError(
                f"security {name}: provide an ask matrix or a lambda shorthand"
            )
        div_ask = np.asarray(entry.get("dividends_ask") or np.zeros_like(bid), float)
        div_bid = np.asarray(entry.get("dividends_bid") or np.zeros_like(bid), float)
        securities.append(Security(name, bid, ask, div_ask, div_bid))
        observables.extend([bid, ask, div_ask, div_bid])

    padded_rates = np.hstack([rates, rates[:, -1:]]) if rates.size else np.zeros((n, 1))
    observables.append(padded_rates)
    partitions = derive_filtration(observables)
    tree = EventTree(horizon, probs, partitions, paths)
    return MarketModel(tree, rates, securities)


def model_to_dict(model: MarketModel) -> dict:
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


@_file_loader("payoff")
def payoff_from_dict(model: MarketModel, data: dict) -> CashFlow:
    kind = data.get("type", "explicit" if "cashflow" in data else None)
    if kind == "asian_call":
        return asian_call(
            model,
            data.get("security", 0),
            _parse_number(data["strike"]),
            data.get("averaging", "mid"),
        )
    if kind == "cds":
        div_ask, _ = cds_dividends(
            model.tree,
            data["tau"],
            _parse_number(data["delta"]),
            _parse_number(data["kappa_ask"]),
            _parse_number(data["kappa_bid"]),
        )
        return CashFlow.ingest(model.tree, np.diff(div_ask, prepend=0.0, axis=1))
    if kind == "explicit":
        return CashFlow.ingest(model.tree, np.asarray(data["cashflow"], dtype=float))
    raise ValidationError(f"unknown payoff type {data.get('type')!r}")


# ---------------------------------------------------------------------------
# formatting


def _fmt(value, precision: int):
    if isinstance(value, str):
        return value
    v = float(value) + 0.0  # -0.0 prints as 0
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "+inf" if v > 0 else "-inf"
    return f"{v:.{precision}g}"


def _emit(args, header: list[str], rows: list[list], meta: dict) -> str:
    p = args.precision
    if args.format == "json":
        payload = dict(meta)
        payload["rows"] = [
            {key: _coerce_json(val, p) for key, val in zip(header, row)} for row in rows
        ]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v, p) for v in row))
    return "\n".join(lines) + "\n"


def _coerce_json(value, precision: int):
    if isinstance(value, str):
        return value
    v = float(value) + 0.0
    if math.isinf(v) or math.isnan(v):
        return _fmt(v, precision)
    return float(f"{v:.{precision}g}")


def _quote_rows(model: MarketModel, quote: pricing.PriceQuote):
    rows = []
    for e in quote.entries:
        rows.append([model.tree.node_label(e.node), e.bid, e.ask, e.status])
    return rows


# ---------------------------------------------------------------------------
# commands


def _cmd_validate(args) -> int:
    try:
        model_from_dict(_load_json(args.model), lam_override=args.lam)
    except ValidationError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    print("ok")
    return EXIT_OK


def _cmd_good_deal(args) -> int:
    """``price`` (spot) and ``forward`` good-deal quotes."""
    model = model_from_dict(_load_json(args.model), lam_override=args.lam)
    payoff = payoff_from_dict(model, _load_json(args.payoff))
    prices = pricing.forward_prices if args.command == "forward" else pricing.good_deal_prices
    quote = prices(model, payoff, args.time, args.gamma)
    out = _emit(
        args,
        ["node", "bid", "ask", "status"],
        _quote_rows(model, quote),
        {"command": args.command, "time": args.time, "gamma": args.gamma},
    )
    sys.stdout.write(out)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    model = model_from_dict(_load_json(args.model), lam_override=args.lam)
    payoff = payoff_from_dict(model, _load_json(args.payoff))
    quote = pricing.noarb_bounds(model, payoff, args.time, entry=args.entry)
    out = _emit(
        args,
        ["node", "lower", "upper", "status"],
        _quote_rows(model, quote),
        {"command": "bounds", "time": args.time},
    )
    sys.stdout.write(out)
    return EXIT_OK


def _cmd_ngd(args) -> int:
    model = model_from_dict(_load_json(args.model), lam_override=args.lam)
    res = pricing.ngd_check(model, args.time, args.gamma)
    witness_node = ""
    witness_ratio = ""
    if res.witness is not None:
        witness_node = model.tree.node_label(res.witness.node)
        witness_ratio = _fmt(res.witness.dglr, args.precision)
    rows = [
        [
            args.time,
            args.gamma,
            "holds" if res.holds else "violated",
            witness_node,
            witness_ratio,
        ]
    ]
    out = _emit(
        args,
        ["time", "gamma", "status", "witness_node", "witness_dglr"],
        rows,
        {"command": "ngd"},
    )
    sys.stdout.write(out)
    return EXIT_OK


def _cmd_arbitrage(args) -> int:
    model = model_from_dict(_load_json(args.model), lam_override=args.lam)
    witness = arbitrage_check(model, args.time)
    if witness is None:
        rows = [[args.time, "none", ""]]
    else:
        rows = [[args.time, "arbitrage", model.tree.node_label(witness.node)]]
    out = _emit(
        args, ["time", "status", "witness_node"], rows, {"command": "arbitrage"}
    )
    sys.stdout.write(out)
    return EXIT_OK


def _cmd_dglr(args) -> int:
    model = model_from_dict(_load_json(args.model), lam_override=args.lam)
    payoff = payoff_from_dict(model, _load_json(args.payoff))
    values = dglr_eval(model.tree, payoff, args.time)
    rows = []
    for node in model.tree.nodes(args.time):
        i = model.tree.node_paths(node)[0]
        rows.append([model.tree.node_label(node), values[i]])
    out = _emit(args, ["node", "value"], rows, {"command": "dglr", "time": args.time})
    sys.stdout.write(out)
    return EXIT_OK


def _cmd_surface(args) -> int:
    model_data = _load_json(args.model)
    payoff_data = _load_json(args.payoff)
    gammas = args.gammas
    lambdas = args.lambdas
    cells = pricing.liquidity_surface(
        lambda lam: model_from_dict(model_data, lam_override=lam),
        lambda model: payoff_from_dict(model, payoff_data),
        gammas,
        lambdas,
        args.time,
        node=args.node,
    )
    rows = [[c.gamma, c.lam, c.bid, c.ask, c.spread, c.status] for c in cells]
    out = _emit(
        args,
        ["gamma", "lambda", "bid", "ask", "spread", "status"],
        rows,
        {"command": "surface", "time": args.time},
    )
    sys.stdout.write(out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def _positive_gamma(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not v > 0:
        raise argparse.ArgumentTypeError(f"acceptance level must be > 0, got {text}")
    return v


def _precision(text: str) -> int:
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"precision must be an integer >= 0, got {text!r}")
    return int(text)


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _add_common(sub, payoff=True, gamma=False, lam=True, report=True):
    """Register only the flags the command reads."""
    sub.add_argument("model", help="model JSON file")
    if payoff:
        sub.add_argument("payoff", help="payoff JSON file")
    if gamma:
        sub.add_argument("--gamma", type=_positive_gamma, required=True,
                         help="acceptance level (> 0)")
    if lam:
        sub.add_argument("--lam", type=float, default=None,
                         help="override: rebuild every ask as bid*(1+lam)")
    if report:
        sub.add_argument("--time", "-t", type=int, default=0, help="valuation date")
        sub.add_argument("--format", "-f", choices=("csv", "json"), default="csv")
        sub.add_argument("--precision", type=_precision, default=6,
                         help="significant digits in reports")


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def build_parser() -> _Parser:
    parser = _Parser(prog="conic-pricer", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser("validate", help="check a model file"),
                payoff=False, report=False)
    _add_common(subs.add_parser("price", help="good-deal bid/ask"), gamma=True)
    bounds = subs.add_parser("bounds", help="no-arbitrage bounds")
    _add_common(bounds)
    bounds.add_argument("--entry", choices=("trade", "mark"), default="trade",
                        help="valuation-date hedge entry pricing (see README)")
    _add_common(subs.add_parser("ngd", help="no-good-deal feasibility"),
                payoff=False, gamma=True)
    _add_common(subs.add_parser("arbitrage", help="arbitrage search"), payoff=False)
    _add_common(subs.add_parser("dglr", help="gain-loss ratio of a payoff"))
    _add_common(subs.add_parser("forward", help="good-deal forward quotes"), gamma=True)
    surface = subs.add_parser("surface", help="bid-ask spread over a (gamma, lambda) grid")
    _add_common(surface, lam=False)  # each row's lambda comes from --lambdas
    surface.add_argument("--gammas", type=_float_list, required=True)
    surface.add_argument("--lambdas", type=_float_list, required=True)
    surface.add_argument("--node", type=int, default=0)
    return parser


_DISPATCH = {
    "validate": _cmd_validate,
    "price": _cmd_good_deal,
    "bounds": _cmd_bounds,
    "ngd": _cmd_ngd,
    "arbitrage": _cmd_arbitrage,
    "dglr": _cmd_dglr,
    "forward": _cmd_good_deal,
    "surface": _cmd_surface,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "gammas", None) is not None and not args.gammas:
            parser.error("empty gamma list")
        if getattr(args, "lambdas", None) is not None and not args.lambdas:
            parser.error("empty lambda list")
    except SystemExit as exc:  # argparse reports usage problems by exiting
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ComputationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except PricerError as exc:  # pragma: no cover
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
