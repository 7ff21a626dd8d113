"""Command-line front end.

Commands: validate, price, bounds, ngd, arbitrage, dglr, forward, surface.

Models and payoffs are JSON files.  Each command returns its report as a
table - a header, rows of raw values and metadata - and :func:`main` alone
loads the files, prints the table as CSV (default) or JSON with
deterministic row ordering, and maps every error to its exit code.  JSON rows
carry numbers as numbers; infinite quote sentinels serialize as the strings
"+inf"/"-inf".  Exit codes: 0 success, 2 validation failure (one ``error:``
line), 64 usage error, 70 internal/LP failure (one ``internal error:``
line).  Numeric flags but ``--precision`` parse as plain numbers and the
engine checks their values: an acceptance level out of range, from
``--gamma`` or ``--gammas``, is a validation failure by the one rule of
:class:`~conic_pricer.acceptability.DensityBand`.

The model loader checks each process's shape, (paths, horizon + 1), by its
name, derives the natural filtration of every process with the single
date-0 cell of a trivial F_0, and leaves every other check to
:class:`~conic_pricer.market.MarketModel`, in the one load order: each
security's bid, ask, ask and bid dividends, then the rates.  A date-0
value that differs across paths is one more value that is not adapted.
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
from .errors import ComputationError, ValidationError
from .lattice import EventTree, check_horizon, check_shapes, derive_filtration
from .market import (
    CashFlow,
    MarketModel,
    Security,
    _rate_matrix,
    apply_transaction_costs,
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


def _parse_number(v, name: str) -> float:
    """A JSON number, or a string holding one or a fraction ("1/3"); a bool
    is not a number."""
    if isinstance(v, str):
        num, slash, den = v.partition("/")
        if slash and num.isdecimal() and den.isdecimal() and int(den):
            return int(num) / int(den)  # correctly rounded, as float(Fraction(v))
        return float(Fraction(v))
    if isinstance(v, bool):
        raise ValidationError(f"{name} must be a number, got {v!r}")
    return float(v)


def _numbers(value, field: str):
    """``value``, a JSON number or a list (of lists) of them, unchanged; a
    bool in it, which numpy reads as 1 or 0, is refused naming ``field``."""
    flat = value if isinstance(value, list) else [value]
    while flat and isinstance(flat[0], list):
        flat = [v for row in flat for v in (row if isinstance(row, list) else (row,))]
    if bool in map(type, flat):
        bad = next(v for v in flat if isinstance(v, bool))
        raise ValidationError(f"{field} must be numbers, got {bad!r}")
    return value


def _matrix(value, field: str) -> np.ndarray:
    """A JSON matrix of numbers as a float array (see :func:`_numbers`)."""
    return np.asarray(_numbers(value, field), dtype=float)


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
    horizon = check_horizon(data["horizon"])
    probs = [_parse_number(v, "probability") for v in data["probabilities"]]
    securities_cfg = data["securities"]
    n = len(probs)
    rates = _rate_matrix(_numbers(data.get("rates", 0.0), "rates"), n, horizon)

    securities = []
    for entry in securities_cfg:
        name = entry.get("name", f"security{len(securities)}")
        bid = _matrix(entry["bid"], f"security {name}: bid")
        lam = lam_override if lam_override is not None else entry.get("lambda")
        if lam_override is None and lam is not None and entry.get("ask") is not None:
            raise ValidationError(
                f"security {name}: provide an ask matrix or a lambda shorthand, not both"
            )
        if lam is not None:
            ask = apply_transaction_costs(bid, lam, name=name).ask
        elif "ask" in entry:
            ask = _matrix(entry["ask"], f"security {name}: ask")
        else:
            raise ValidationError(
                f"security {name}: provide an ask matrix or a lambda shorthand"
            )
        div_ask, div_bid = (
            _matrix(entry[field], f"security {name}: {field}") if entry.get(field)
            else np.zeros_like(bid)
            for field in ("dividends_ask", "dividends_bid")
        )
        securities.append(Security(name, bid, ask, div_ask, div_bid))

    # every process, in load order, then the rates padded to the horizon
    named = [p for sec in securities for p in sec.processes()]
    padded = np.concatenate((rates, rates[:, -1:]), axis=1) if rates.size else np.zeros((n, 1))
    named.append(("rates", padded))
    check_shapes(named, (n, horizon + 1))
    partitions = derive_filtration([values for _, values in named])
    # F_0 is trivial: a date-0 value that differs across paths is then an
    # unadapted value, which MarketModel names as it names any other
    partitions[0] = (tuple(range(n)),)
    tree = EventTree(horizon, probs, partitions, data.get("paths"))
    return MarketModel(tree, rates, securities)


@_file_loader("payoff")
def payoff_from_dict(model: MarketModel, data: dict) -> CashFlow:
    kind = data.get("type", "explicit" if "cashflow" in data else None)
    if kind == "asian_call":
        return asian_call(
            model,
            data.get("security", 0),
            _parse_number(data["strike"], "strike"),
            data.get("averaging", "mid"),
        )
    if kind == "cds":
        div_ask, _ = cds_dividends(
            model.tree,
            data["tau"],
            _parse_number(data["delta"], "delta"),
            _parse_number(data["kappa_ask"], "kappa_ask"),
            _parse_number(data["kappa_bid"], "kappa_bid"),
        )
        return CashFlow.ingest(model.tree, np.diff(div_ask, prepend=0.0, axis=1))
    if kind == "explicit":
        return CashFlow.ingest(model.tree, _matrix(data["cashflow"], "cashflow"))
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
    if isinstance(value, (str, int)):
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
# commands: each returns its report as (header, rows, meta); main loads
# the model and payoff files it reads


def _cmd_validate(args, model, payoff):
    return ["ok"], [], {}


def _cmd_good_deal(args, model, payoff):
    """``price`` (spot) and ``forward`` good-deal quotes."""
    prices = pricing.forward_prices if args.command == "forward" else pricing.good_deal_prices
    quote = prices(model, payoff, args.time, args.gamma)
    meta = {"command": args.command, "time": args.time, "gamma": args.gamma}
    return ["node", "bid", "ask", "status"], _quote_rows(model, quote), meta


def _cmd_bounds(args, model, payoff):
    quote = pricing.noarb_bounds(model, payoff, args.time, entry=args.entry)
    meta = {"command": "bounds", "time": args.time}
    return ["node", "lower", "upper", "status"], _quote_rows(model, quote), meta


def _cmd_ngd(args, model, payoff):
    res = pricing.ngd_check(model, args.time, args.gamma)
    witness_node = ""
    witness_ratio = ""
    if res.witness is not None:
        witness_node = model.tree.node_label(res.witness.node)
        witness_ratio = res.witness.dglr
    status = "holds" if res.holds else "violated"
    header = ["time", "gamma", "status", "witness_node", "witness_dglr"]
    rows = [[args.time, args.gamma, status, witness_node, witness_ratio]]
    return header, rows, {"command": "ngd"}


def _cmd_arbitrage(args, model, payoff):
    witness = arbitrage_check(model, args.time)
    if witness is None:
        row = [args.time, "none", ""]
    else:
        row = [args.time, "arbitrage", model.tree.node_label(witness.node)]
    return ["time", "status", "witness_node"], [row], {"command": "arbitrage"}


def _cmd_dglr(args, model, payoff):
    values = dglr_eval(model.tree, payoff, args.time)
    rows = []
    for node in model.tree.nodes(args.time):
        i = model.tree.node_paths(node)[0]
        rows.append([model.tree.node_label(node), values[i]])
    return ["node", "value"], rows, {"command": "dglr", "time": args.time}


def _cmd_surface(args, model_data, payoff_data):
    """Takes the files' data, not a model: one model is built per lambda."""
    cells = pricing.liquidity_surface(
        lambda lam: model_from_dict(model_data, lam_override=lam),
        lambda model: payoff_from_dict(model, payoff_data),
        args.gammas,
        args.lambdas,
        args.time,
        node=args.node,
    )
    rows = [[c.gamma, c.lam, c.bid, c.ask, c.spread, c.status] for c in cells]
    header = ["gamma", "lambda", "bid", "ask", "spread", "status"]
    return header, rows, {"command": "surface", "time": args.time}


# ---------------------------------------------------------------------------
# argument plumbing


def _precision(text: str) -> int:
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"precision must be an integer >= 0, got {text!r}")
    return int(text)


def _float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _add_common(sub, run, payoff=True, gamma=False, lam=True, report=True):
    """Register only the flags the command reads, and the command ``run``."""
    sub.set_defaults(run=run)
    sub.add_argument("model", help="model JSON file")
    if payoff:
        sub.add_argument("payoff", help="payoff JSON file")
    if gamma:
        sub.add_argument("--gamma", type=float, required=True,
                         help="acceptance level (> 0)")
    if lam:
        sub.add_argument("--lam", type=float, default=None,
                         help="override: rebuild every ask as bid*(1+lam)")
    if report:
        sub.add_argument("--time", "-t", type=int, default=0, help="valuation date")
        sub.add_argument("--format", "-f", choices=("csv", "json"), default="csv")
        sub.add_argument("--precision", type=_precision, default=6,
                         help="significant digits in reports")
    else:  # validate's one-word report prints as CSV
        sub.set_defaults(format="csv", precision=6)


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def build_parser() -> _Parser:
    parser = _Parser(prog="conic-pricer", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser("validate", help="check a model file"), _cmd_validate,
                payoff=False, report=False)
    _add_common(subs.add_parser("price", help="good-deal bid/ask"), _cmd_good_deal,
                gamma=True)
    bounds = subs.add_parser("bounds", help="no-arbitrage bounds")
    _add_common(bounds, _cmd_bounds)
    bounds.add_argument("--entry", choices=("trade", "mark"), default="trade",
                        help="valuation-date hedge entry pricing (see README)")
    _add_common(subs.add_parser("ngd", help="no-good-deal feasibility"), _cmd_ngd,
                payoff=False, gamma=True)
    _add_common(subs.add_parser("arbitrage", help="arbitrage search"), _cmd_arbitrage,
                payoff=False)
    _add_common(subs.add_parser("dglr", help="gain-loss ratio of a payoff"), _cmd_dglr)
    _add_common(subs.add_parser("forward", help="good-deal forward quotes"),
                _cmd_good_deal, gamma=True)
    surface = subs.add_parser("surface", help="bid-ask spread over a (gamma, lambda) grid")
    _add_common(surface, _cmd_surface, lam=False)  # each row's lambda comes from --lambdas
    surface.add_argument("--gammas", type=_float_list, required=True)
    surface.add_argument("--lambdas", type=_float_list, required=True)
    surface.add_argument("--node", type=int, default=0)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse reports usage problems by exiting
        return int(exc.code or 0)
    try:
        if args.command == "surface":  # builds its own model at each lambda
            table = args.run(args, _load_json(args.model), _load_json(args.payoff))
        else:
            model = model_from_dict(_load_json(args.model), lam_override=args.lam)
            payoff = None
            if "payoff" in args:
                payoff = payoff_from_dict(model, _load_json(args.payoff))
            table = args.run(args, model, payoff)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ComputationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(_emit(args, *table))
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
