"""Identity sweep: every quote of the benchmark's markets as exact float hex.

    python tests/identity_sweep.py --out sweep.txt
    python tests/identity_sweep.py --against other_checkout_sweep.txt

Writes one record per line for

* ``tree`` markets 0-47 (horizon 4): ``noarb_bounds`` at t = 0 and 1, and
  ``good_deal_prices`` at t = 0 and 1 for every gamma of the tree panel;
* every cell of the ``surface`` markets 0-95 (horizon 3, the benchmark's
  gamma x lambda grid at the root);
* the fixture's CLI command set, each command's output at 17 significant
  digits.

Each request's record holds its status, bid and ask per node in float hex,
the witness's ``dglr`` in float hex and a hash of its cash flow, and the
number of simplex pivots the request made.  A refactor that claims to change
no answer must leave the record byte for byte the same: run the sweep in
both checkouts and diff them with ``--against``.  The markets come from
``perfbench/workloads.py`` (imported, never changed); the engine is the one
under ``src/`` of the checkout holding this script.  pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import os
import sys

# one BLAS thread, as the benchmark runs, set before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from conic_pricer import cli, lp, pricing  # noqa: E402
from conic_pricer.errors import ComputationError  # noqa: E402

TREE_MARKETS = range(48)
SURFACE_MARKETS = range(96)


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


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()[:16]


def _quote(quote) -> list[str]:
    out = [f"{e.node.time}:{e.node.cell} {e.status} {_hex(e.bid)} {_hex(e.ask)}"
           for e in quote.entries]
    w = quote.witness
    if w is not None:
        out.append(f"witness {w.node.time}:{w.node.cell} {_hex(w.dglr)} {_digest(w.cash_flow)}")
    return out


def _call(fn) -> list[str]:
    try:
        return _quote(fn())
    except ComputationError as exc:
        return [f"ComputationError {exc}"]


def tree_records(pivots: PivotCount):
    for k in TREE_MARKETS:
        mkt = W.binary_market("tree", k, W.TREE_HORIZON)
        model = cli.model_from_dict(mkt.model_dict())
        payoff = cli.payoff_from_dict(model, mkt.payoff_dict())
        for t in (0, 1):
            body = _call(lambda: pricing.noarb_bounds(model, payoff, t))
            yield f"tree {k} bounds t={t}", body, pivots.take()
            for gamma in W.GAMMAS_TREE:
                body = _call(lambda: pricing.good_deal_prices(model, payoff, t, gamma))
                yield f"tree {k} price t={t} gamma={gamma}", body, pivots.take()


def surface_records(pivots: PivotCount):
    for k in SURFACE_MARKETS:
        mkt = W.binary_market("surface", k, W.SURFACE_HORIZON)
        model_data, payoff_data = mkt.model_dict(), mkt.payoff_dict()
        cells = pricing.liquidity_surface(
            lambda lam: cli.model_from_dict(model_data, lam_override=lam),
            lambda model: cli.payoff_from_dict(model, payoff_data),
            list(W.GAMMAS_SURFACE), list(W.LAMBDAS), 0,
        )
        body = [f"{c.gamma} {c.lam} {c.status} {_hex(c.bid)} {_hex(c.ask)} {_hex(c.spread)}"
                for c in cells]
        yield f"surface {k}", body, pivots.take()


def fixture_records(pivots: PivotCount):
    for argv in W.FixtureWorkload(0, ROOT).commands():
        if argv[0] != "validate":
            argv = argv + ["--precision", "17"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        name = " ".join(os.path.basename(a) for a in argv)
        body = [f"exit {code}"] + (out.getvalue() + err.getvalue()).splitlines()
        yield f"fixture {name}", body, pivots.take()


def sweep() -> list[str]:
    pivots = PivotCount()
    lines = []
    for source in (tree_records, surface_records, fixture_records):
        for name, body, count in source(pivots):
            lines.append(f"{name} pivots={count}")
            lines.extend("  " + line for line in body)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the record here (default: standard output)")
    parser.add_argument("--against", help="a record written by another checkout to diff with")
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
        diff = list(difflib.unified_diff(theirs, lines, args.against, "this checkout",
                                         lineterm="", n=1))
        for line in diff[:200]:
            print(line)
        print(f"{len(lines)} records, {'identical' if not diff else 'DIFFERENT'}")
        return 1 if diff else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
