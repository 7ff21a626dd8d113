"""Identity sweep: every quote of the benchmark's markets as exact float hex.

    python tests/identity_sweep.py --out sweep.txt
    python tests/identity_sweep.py --against other_checkout_sweep.txt

Writes one record per line for

* ``tree`` markets 0-47 (horizon 4): ``noarb_bounds`` at t = 0 and 1, and
  ``good_deal_prices`` at t = 0 and 1 for every gamma of the tree panel;
* the benchmark's horizon ladder, ``ladder_market(T)`` for T = 2..8 (up to
  511 nodes): ``noarb_bounds`` at t = 0 and 1 (no good-deal prices, whose
  band LPs run away from T = 7);
* every cell of the ``surface`` markets 0-95 (horizon 3, the benchmark's
  gamma x lambda grid at the root);
* the fixture's CLI command set, each command's output at 17 significant
  digits;
* ``arbitrage_check`` at every date of randomly priced markets 0-47 (the
  tests' ``random_market`` on 3-7 paths over horizon 2 or 3, with dividends
  and stochastic rates in turn), most of which hold an arbitrage;
* ``lp.solve`` on the programs of ``tests/test_lp.py`` and of acceptance
  check c11 that bound variables from above, each bound a row appended by
  ``lp_reference.with_bounds``, at the seeds those tests use: the status,
  value, x and both duals in float hex and the iteration count.  ``lp``
  takes only the Charnes-Cooper slice, so each program is written as one by
  the tests' slice encoder, ``lp_reference.homogeneous`` (an extra column
  tau = 1, every row <= 0, an equality as two opposite rows): x ends in
  tau, and ``dual_eq`` is the normalization's;
* ``noarb_bounds`` under trade entry at every date of the tests'
  ``one_security_panel`` (60 one-security markets free of arbitrage, with
  dividends and stochastic rates in turn), with the number of bound
  extremes the simplex solved, where the superreplication recursion's
  candidate failed or is missing (every extreme, in an engine without the
  recursion); the pivots also count the arbitrage searches;
* the ``error:`` line of a fixed panel of malformed edits to the shipped
  fixture files: one per refusal of the loader that the README lists, and
  one per kind of measurability failure (an unadapted explicit cash flow,
  each price process and the rates at t=0, rates and a dividend stream at
  t=1, a strategy that is not predictable, a default time that is not a
  stopping time), the last four through the engine on the fixture's tree.

Each request's record holds its status, bid and ask per node in float hex,
the witness's node, ``dglr`` and cash flow divided by its expected gain on
its node, a record free of the witness's scale, in float hex, and the number
of simplex pivots the request made.  A good-deal or surface request's
header also holds its route: ``pair=c/m``, c of the m band extremes it
solved carried from the superreplication recursion's bound pair rather than
solved by the simplex, and for a good-deal request ``least-loss
skipped=s/n``, s of the n date-t nodes whose least-loss LP did not run
(every one where the pairs priced the request, the nodes after a witness
where the check is violated).  A refactor that claims to change no
answer must leave the record the same: run this script in both checkouts
(copy it into the other one if its sweep records differently) and diff them
with ``--against``.  Every line must match byte for byte, except that a
witness's ``dglr`` and scaled flow may differ by 1e-12 relative (the flow
relative to its largest entry), since rescaling a hedge rounds.  A change
that claims quotes equal only to rounding adds ``--rtol``: numbers in float
hex and decimal may then differ by that tolerance relative to their line's
largest number, and headers by their pivots and route.  The
markets come from ``perfbench/workloads.py`` (imported, never changed) and
``tests/conftest.py``; the engine is the one under ``src/`` of the checkout
holding this script.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import difflib
import io
import json
import os
import sys

# one BLAS thread, as the benchmark runs, set before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
import test_lp  # noqa: E402
from conftest import (  # noqa: E402
    one_security_panel, random_box_lp, random_market, random_tree,
)
from conic_pricer import cli, cone, lp, pricing  # noqa: E402
from conic_pricer.cone import arbitrage_check  # noqa: E402
from conic_pricer.errors import ComputationError, ValidationError  # noqa: E402
from conic_pricer.fixtures import fixture_path  # noqa: E402
from conic_pricer.market import MarketModel, TradingStrategy  # noqa: E402
from lp_reference import homogeneous, with_bounds  # noqa: E402

TREE_MARKETS = range(48)
LADDER_HORIZONS = range(2, 9)
SURFACE_MARKETS = range(96)
ARBITRAGE_MARKETS = range(48)
WITNESS_RTOL = 1e-12


class RouteCount:
    """Per good-deal or surface request, how its band quotes were answered:
    the extremes carried from the superreplication recursion's pair (a
    carried candidate has no basis) out of every band extreme solved, and
    the date-t nodes whose least-loss LP did not run."""

    def __init__(self):
        self.answers, self.losses = [], 0
        solve, least_loss = lp._Slice.solve, cone._node_least_loss

        def solved(band, warm=None):
            pair = solve(band, warm)
            self.answers.extend(pair)
            return pair

        def counted(*args):
            self.losses += 1
            return least_loss(*args)

        lp._Slice.solve, cone._node_least_loss = solved, counted

    def take(self, nodes=None) -> str:
        """The route since the last read; with ``nodes``, the date-t node
        count, also the least-loss LPs skipped."""
        carried = sum(a.status == "optimal" and a.basis is None for a in self.answers)
        out = f"pair={carried}/{len(self.answers)}"
        if nodes is not None:
            out += f" least-loss skipped={nodes - self.losses}/{nodes}"
        self.answers, self.losses = [], 0
        return out


class PivotCount:
    """Counts the simplex pivots made between two reads."""

    def __init__(self):
        self.count = 0
        pivot = lp._pivot

        def counted(*args):
            self.count += 1
            return pivot(*args)

        lp._pivot = counted

    def take(self) -> int:
        out, self.count = self.count, 0
        return out


def _hex(value) -> str:
    return float(value).hex()


def _witness(model, w) -> str:
    """The witness's node, ratio and cash flow per unit of expected gain."""
    paths = list(model.tree.node_paths(w.node))
    flow = w.cash_flow / (model.probabilities[paths] @ w.cash_flow[paths])
    return " ".join([f"witness {w.node.time}:{w.node.cell}", _hex(w.dglr), *map(_hex, flow)])


def _quote(model, quote) -> list[str]:
    out = [f"{e.node.time}:{e.node.cell} {e.status} {_hex(e.bid)} {_hex(e.ask)}"
           for e in quote.entries]
    if quote.witness is not None:
        out.append(_witness(model, quote.witness))
    return out


def _call(model, fn) -> list[str]:
    try:
        return _quote(model, fn())
    except ComputationError as exc:
        return [f"ComputationError {exc}"]


def tree_records(pivots: PivotCount, route: RouteCount):
    for k in TREE_MARKETS:
        mkt = W.binary_market("tree", k, W.TREE_HORIZON)
        model = cli.model_from_dict(mkt.model_dict())
        payoff = cli.payoff_from_dict(model, mkt.payoff_dict())
        for t in (0, 1):
            body = _call(model, lambda: pricing.noarb_bounds(model, payoff, t))
            route.take()
            yield f"tree {k} bounds t={t}", body, pivots.take()
            for gamma in W.GAMMAS_TREE:
                body = _call(model, lambda: pricing.good_deal_prices(model, payoff, t, gamma))
                yield (f"tree {k} price t={t} gamma={gamma}", body, pivots.take(),
                       route.take(len(model.tree.nodes(t))))


def ladder_records(pivots: PivotCount, route: RouteCount):
    for T in LADDER_HORIZONS:
        mkt = W.ladder_market(T)
        model = cli.model_from_dict(mkt.model_dict())
        payoff = cli.payoff_from_dict(model, mkt.payoff_dict())
        for t in (0, 1):
            body = _call(model, lambda: pricing.noarb_bounds(model, payoff, t))
            yield f"ladder {T} bounds t={t}", body, pivots.take()


def surface_records(pivots: PivotCount, route: RouteCount):
    for k in SURFACE_MARKETS:
        mkt = W.binary_market("surface", k, W.SURFACE_HORIZON)
        model_data, payoff_data = mkt.model_dict(), mkt.payoff_dict()
        route.take()
        cells = pricing.liquidity_surface(
            lambda lam: cli.model_from_dict(model_data, lam_override=lam),
            lambda model: cli.payoff_from_dict(model, payoff_data),
            list(W.GAMMAS_SURFACE), list(W.LAMBDAS), 0,
        )
        body = [f"{c.gamma} {c.lam} {c.status} {_hex(c.bid)} {_hex(c.ask)} {_hex(c.spread)}"
                for c in cells]
        yield f"surface {k}", body, pivots.take(), route.take()


def fixture_records(pivots: PivotCount, route: RouteCount):
    for argv in W.FixtureWorkload(0, ROOT).commands():
        if argv[0] != "validate":
            argv = argv + ["--precision", "17"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        name = " ".join(os.path.basename(a) for a in argv)
        body = [f"exit {code}"] + (out.getvalue() + err.getvalue()).splitlines()
        yield f"fixture {name}", body, pivots.take()


def arbitrage_records(pivots: PivotCount, route: RouteCount):
    for k in ARBITRAGE_MARKETS:
        rng = np.random.default_rng(k)
        tree = random_tree(rng, int(rng.integers(3, 8)), int(rng.integers(2, 4)))
        model = random_market(rng, tree, dividends=bool(k % 2), rates=bool((k // 2) % 2))
        for t in range(tree.horizon):
            try:
                w = arbitrage_check(model, t)
                body = ["none"] if w is None else [_witness(model, w)]
            except ComputationError as exc:
                body = [f"ComputationError {exc}"]
            yield f"arbitrage {k} t={t}", body, pivots.take()


def one_security_records(pivots: PivotCount, route: RouteCount):
    answers, solve_ratio = [], lp.solve_ratio

    def recording(*args, **kwargs):
        pair = solve_ratio(*args, **kwargs)
        answers.extend(pair)
        return pair

    lp.solve_ratio = recording
    try:
        for k, (model, flow) in enumerate(one_security_panel()):
            for t in range(model.tree.horizon):
                body = _call(model, lambda: pricing.noarb_bounds(model, flow, t))
                # a carried candidate has no basis
                simplex = sum(a.status != "optimal" or a.basis is not None for a in answers)
                body.append(f"simplex solved {simplex} of {len(answers)} extremes")
                answers.clear()
                yield f"one security {k} bounds t={t}", body, pivots.take()
    finally:
        lp.solve_ratio = solve_ratio


def _box(rng):
    sense, c, a_ub, b_ub, upper = random_box_lp(rng)
    return homogeneous(sense, c, *with_bounds(upper, a_ub, b_ub))


# (name, seed, count, program from a generator): the bounded programs
BOUNDED_PANEL = (
    ("one cap", None, 1, lambda rng: test_lp._one_cap()),
    ("capped", 20260808, 60, test_lp._capped),
    ("box", 20260808, 100, _box),
    ("repeated", 20260808, 1, test_lp._repeated),
    ("mixed", 20261018, 30, test_lp._mixed),
    ("degenerate", 20261018, 30, test_lp._degenerate),
    ("stalling cone", None, 1, lambda rng: test_lp._stalling_cone()),
    ("c11", 1111, 100, _box),
)


def bounded_records(pivots: PivotCount, route: RouteCount):
    for name, seed, count, make in BOUNDED_PANEL:
        rng = np.random.default_rng(seed)
        for k in range(count):
            sol = lp.solve(make(rng))
            body = [f"{sol.status} {_hex(sol.value)} iterations={sol.iterations}"]
            for field in ("x", "dual_ub", "dual_eq"):
                values = getattr(sol, field)
                body.append(f"{field} {'None' if values is None else ' '.join(map(_hex, values))}")
            yield f"bounded {name} {k}", body, pivots.take()


def _cds(**fields):
    """An edit making the payoff a CDS of ``fields`` over the plain one."""
    cds = {"type": "cds", "tau": [None] * 5, "delta": 0.6, "kappa_ask": 0.01,
           "kappa_bid": 0.01}
    return lambda m, p: (p.clear(), p.update(cds, **fields))


def _security(**fields):
    return lambda m, p: m["securities"][0].update(fields)


def _date_zero(field):
    """An edit giving every process as a matrix, the same market, with
    ``field`` off the other paths' value at t=0 on path w4."""
    def edit(m, p):
        sec = m["securities"][0]
        zeros = [[0.0] * 3 for _ in range(5)]
        sec.update({"lambda": None, "ask": copy.deepcopy(sec["bid"]), "dividends_ask": zeros,
                    "dividends_bid": copy.deepcopy(zeros)})
        m["rates"] = [[0.0, 0.0] for _ in range(5)]
        (m if field == "rates" else sec)[field][3][0] += 0.5
    return edit


def _market_at_1(field):
    """Through the engine: the fixture's market with ``field`` (the rates or
    the bid dividends) off its date-1 node on path w5."""
    def edit(m, p):
        model = cli.model_from_dict(m)
        sec = model.securities[0]
        rates, div_bid = model.rates.copy(), sec.div_bid.copy()
        (rates if field == "rates" else div_bid)[4, 1] += 0.01
        MarketModel(model.tree, rates, [dataclasses.replace(sec, div_bid=div_bid)])
    return edit


def _unpredictable(m, p):
    """Through the engine: holdings over (1, 2] that date 1 does not know."""
    h = np.zeros((3, 2, 5))
    h[2, 1, 1] = 1.0
    TradingStrategy(h).validate(cli.model_from_dict(m).tree)


# (name, edit of the model and payoff data): each should be refused
ERROR_PANEL = {
    "horizon 2.9": lambda m, p: m.update(horizon=2.9),
    "default time 1.9": _cds(tau=[1.9] * 5),
    "lambda string": _security(**{"lambda": "0.01"}),
    "probability true": lambda m, p: m["probabilities"].__setitem__(0, True),
    "rates true": lambda m, p: m.update(rates=True),
    "strike true": lambda m, p: p.update(strike=True),
    "delta true": _cds(delta=True),
    "ask with lambda": _security(ask=[[60] * 3] * 5),
    "repeated security name": lambda m, p: m["securities"].append(m["securities"][0]),
    "bool in bid": lambda m, p: m["securities"][0]["bid"][0].__setitem__(1, True),
    "NaN bid": lambda m, p: m["securities"][0]["bid"][1].__setitem__(1, float("nan")),
    "horizon 3": lambda m, p: m.update(horizon=3),
    "horizon 0": lambda m, p: m.update(horizon=0),
    "horizon -1": lambda m, p: m.update(horizon=-1),
    "rates [[0.01, 0.0]]": lambda m, p: m.update(rates=[[0.01, 0.0]]),
    "rates [0.01]": lambda m, p: m.update(rates=[0.01]),
    "repeated path label": lambda m, p: m.update(paths=["w1", "w1", "w3", "w4", "w5"]),
    "unadapted cashflow": lambda m, p: (
        p.clear(), p.update(type="explicit", cashflow=[[0, 1, 0]] + [[0, 0, 0]] * 4)
    ),
    **{f"date-0 {field}": _date_zero(field)
       for field in ("bid", "ask", "dividends_ask", "dividends_bid", "rates")},
    "rates at t=1": _market_at_1("rates"),
    "bid dividends at t=1": _market_at_1("dividends"),
    "unpredictable strategy": _unpredictable,
    "default time not a stopping time": _cds(tau=[1, None, None, None, None]),
}


def error_records(pivots: PivotCount, route: RouteCount):
    files = []
    for name in ("two_period_stock.json", "asian_call_65.json"):
        with open(fixture_path(name), encoding="utf-8") as fh:
            files.append(json.load(fh))
    for name, edit in ERROR_PANEL.items():
        model_data, payoff_data = copy.deepcopy(files)
        try:
            edit(model_data, payoff_data)  # an engine call raises here
            cli.payoff_from_dict(cli.model_from_dict(model_data), payoff_data)
            body = ["ok"]
        except ValidationError as exc:
            body = [f"error: {exc}"]
        yield f"error {name}", body, pivots.take()


def sweep() -> list[str]:
    pivots, route = PivotCount(), RouteCount()
    lines = []
    for source in (tree_records, ladder_records, surface_records, fixture_records,
                   arbitrage_records, one_security_records, bounded_records, error_records):
        for name, body, count, *how in source(pivots, route):
            lines.append(" ".join([name, f"pivots={count}", *how]))
            lines.extend("  " + line for line in body)
    return lines


def _number(word: str):
    """``word`` as a float (in float hex or decimal), or None."""
    try:
        return float.fromhex(word) if "0x" in word else float(word)
    except ValueError:
        return None


def _close(theirs: str, ours: str, rtol: float) -> bool:
    """Record headers of one request (their pivots and route aside), or
    lines equal word for word (words split at spaces and commas) except for
    finite numbers that differ by at most ``rtol`` times the largest
    magnitude of a finite number on the line: a spread, or a bid equal to
    its ask, rounds at the size of the quote."""
    if not theirs.startswith(" ") and not ours.startswith(" "):
        return theirs.split(" pivots=")[0] == ours.split(" pivots=")[0]
    a, b = (line.replace(",", " ").split() for line in (theirs, ours))
    if len(a) != len(b):
        return False
    pairs = [(x, y, _number(x), _number(y)) for x, y in zip(a, b)]
    size = max([abs(u) for *_, u, _ in pairs if u is not None and np.isfinite(u)], default=0.0)
    for x, y, u, v in pairs:
        if x == y:
            continue
        if u is None or v is None or not np.isfinite(u) or abs(u - v) > rtol * size:
            return False
    return True


def _same(theirs: str, ours: str, rtol=None) -> bool:
    """Equal lines, or witness records of one node whose ratios agree to
    ``WITNESS_RTOL`` relative and whose scaled flows agree to ``WITNESS_RTOL``
    times their largest entry; with ``rtol``, also lines that
    :func:`_close` matches."""
    if theirs == ours or (rtol is not None and _close(theirs, ours, rtol)):
        return True
    a, b = theirs.split(), ours.split()
    if a[:2] != b[:2] or a[0] != "witness" or len(a) != len(b):
        return False
    x, y = (np.array([float.fromhex(v) for v in line[2:]]) for line in (a, b))
    ratio = np.isclose(y[0], x[0], rtol=WITNESS_RTOL, atol=0.0)  # +inf only where +inf
    flow = np.abs(x[1:] - y[1:]).max() <= WITNESS_RTOL * np.abs(x[1:]).max()
    return bool(ratio and flow)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the record here (default: standard output)")
    parser.add_argument("--against", help="a record written by another checkout to diff with")
    parser.add_argument(
        "--rtol", type=float,
        help="with --against, let quotes differ by this relative tolerance and headers by "
        "their pivots and route, for a change that claims equal quotes to rounding only",
    )
    args = parser.parse_args(argv)
    lines = sweep()
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif not args.against:
        sys.stdout.write(text)
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            theirs = fh.read().splitlines()
        # a line that matches its counterpart within the witness tolerance
        # shows as that counterpart, so the diff holds only real differences
        shown = [a if _same(a, b, args.rtol) else b for a, b in zip(theirs, lines)]
        diff = list(difflib.unified_diff(theirs, shown + lines[len(theirs):], args.against,
                                         "this checkout", lineterm="", n=1))
        for line in diff[:200]:
            print(line)
        print(f"{len(lines)} records, {'identical' if not diff else 'DIFFERENT'}")
        return 1 if diff else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
