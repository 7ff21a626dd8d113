"""Seeded inputs, request streams and reference checks for the three workloads.

Input generation and the reference prices use only the standard library, so a
fresh interpreter can rebuild a workload's inputs before it starts timing the
package import (see ``setup_child.py``).  Engine modules are handed in as an
``Engine`` namespace and every engine call goes through a module attribute at
call time, so the traced run sees it through the wrappers in ``tracing.py``.

Failure kinds (counted per request, one kind per failed request):

* ``error``    - ``ComputationError``, or a CLI exit code other than 0;
* ``refused``  - the generator cap refused the cone enumeration;
* ``deadline`` - the request overran its deadline;
* ``wrong``    - an answer contradicts a reference;
* ``witness``  - an ``ngd-violated`` result without a witness that
  ``acceptability.dglr_eval`` confirms beats the level.  Results that carry
  no witness field (CLI ``price``/``forward`` rows, surface cells) are checked
  with an untimed ``ngd_check`` of the same model and level.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import signal
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, Optional

GAMMAS_TREE = (0.5, 1.0, 2.0, 4.0, 8.0)
LAMBDAS = (0.0, 0.005, 0.01, 0.02)
GAMMAS_SURFACE = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
RATES = (0.0, 0.01, 0.02)

TREE_HORIZON = 4
SURFACE_HORIZON = 3
LADDER_HORIZONS = range(1, 9)
LADDER_LAM = 0.01

# Per-request deadline in seconds at the reference host speed
# (``hostspeed.REF_S``); the interval timer gets it times the host-speed factor
# measured just before the request.  The slowest horizon-4 request that
# completes took 4.2 s at the reference speed (7.1 s raw), the runaway solves
# well over 15 s.  The untimed reference solves of the checks get the same
# deadline.
DEADLINE_S = 10.0

# Markets loaded during set-up.
POOL = {"tree": 48, "surface": 96}
# A run makes a fixed number of requests, set by ``--seconds`` and not by the
# clock, so that every run and every commit attempts the same requests and
# meets the same failures whatever the host's speed.  Per 20 s: 50 fixture
# cycles, 4 tree markets, 16 surfaces; at half the reference host speed that
# is about 8 s, 35 s (one 20 s deadline overrun included) and 15 s of
# requests.  Whole cycles and whole markets are kept.
PER_20S = {"fixture": 50, "tree": 4, "surface": 16}
REQUESTS_PER_UNIT = {"fixture": 21, "tree": 3, "surface": 1}


def request_count(workload: str, seconds: float) -> int:
    """Requests one run makes for a ``seconds`` budget."""
    units = max(1, round(PER_20S[workload] * seconds / 20.0))
    return units * REQUESTS_PER_UNIT[workload]

ABS_TOL = 1e-6
REL_TOL = 1e-7

FAIL_KINDS = ("error", "refused", "deadline", "wrong", "witness")


class Deadline(BaseException):
    """Raised by the interval timer when a request overruns its deadline.

    A ``BaseException`` so that no handler inside the engine can swallow it.
    """


# ---------------------------------------------------------------------------
# binary markets and their Cox-Ross-Rubinstein references


@dataclass(frozen=True)
class BinaryMarket:
    """Binary tree on one stock with deterministic rate; path bit 0 = up."""

    key: str
    horizon: int
    u: float
    d: float
    r: float
    p_up: float
    lam: float
    strike: float
    gamma: float
    spot: float = 100.0

    def moves(self, path: int) -> list[int]:
        return [(path >> (self.horizon - 1 - k)) & 1 for k in range(self.horizon)]

    def bids(self) -> list[list[float]]:
        rows = []
        for i in range(2 ** self.horizon):
            s, row = self.spot, [self.spot]
            for bit in self.moves(i):
                s *= self.d if bit else self.u
                row.append(s)
            rows.append(row)
        return rows

    def probabilities(self) -> list[float]:
        out = []
        for i in range(2 ** self.horizon):
            pr = 1.0
            for bit in self.moves(i):
                pr *= (1.0 - self.p_up) if bit else self.p_up
            out.append(pr)
        return out

    def model_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "probabilities": self.probabilities(),
            "rates": self.r,
            "securities": [{"name": "stock", "bid": self.bids(), "lambda": self.lam}],
        }

    def payoff_dict(self) -> dict:
        """Call on the last bid, paid at the horizon."""
        flows = []
        for row in self.bids():
            flows.append([0.0] * self.horizon + [max(row[-1] - self.strike, 0.0)])
        return {"type": "explicit", "cashflow": flows}

    @property
    def q_up(self) -> float:
        return (1.0 + self.r - self.d) / (self.u - self.d)

    def crr(self, t: int, path: int) -> float:
        """CRR value of the call at the date-t node of ``path``, discounted to
        date 0 as the engine reports it (savings account B_0 = 1)."""
        q, T = self.q_up, self.horizon
        prefix = self.moves(path)[:t]
        s_t = self.spot
        for bit in prefix:
            s_t *= self.d if bit else self.u
        # backward induction over the T - t remaining steps
        values = []
        for n_down in range(T - t + 1):
            s_T = s_t * self.u ** (T - t - n_down) * self.d ** n_down
            values.append(max(s_T - self.strike, 0.0))
        for _ in range(T - t):
            values = [
                (q * values[k] + (1.0 - q) * values[k + 1]) / (1.0 + self.r)
                for k in range(len(values) - 1)
            ]
        return values[0] / (1.0 + self.r) ** t

    def crr_density_ratio(self) -> float:
        """max/min over paths of the CRR density dQ/dP."""
        q = self.q_up
        up, dn = q / self.p_up, (1.0 - q) / (1.0 - self.p_up)
        return (max(up, dn) / min(up, dn)) ** self.horizon

    def crr_in_band(self, gamma: float) -> bool:
        """The CRR density lies strictly inside the gamma density band."""
        return self.crr_density_ratio() <= (1.0 + gamma) * (1.0 - 1e-6)


def binary_market(stream: str, k: int, horizon: int) -> BinaryMarket:
    """Market k of a stream: a fixed design point.

    The up/down factors, drift, rate and strike are drawn once per stream and
    slot from a fixed generator, so d < 1 + r < u; lambda and gamma cycle so
    that every 20 consecutive slots hold each (lambda, gamma) pair once.
    """
    design = random.Random(f"design/{stream}/{k}")
    return BinaryMarket(
        key=f"{stream}{k}",
        horizon=horizon,
        u=design.uniform(1.04, 1.12),
        d=design.uniform(0.90, 0.97),
        r=design.choice(RATES),
        p_up=design.uniform(0.35, 0.65),
        lam=LAMBDAS[k % len(LAMBDAS)],
        strike=100.0 * design.uniform(0.9, 1.1),
        gamma=GAMMAS_TREE[k % len(GAMMAS_TREE)],
    )


# ---------------------------------------------------------------------------
# requests and outcomes


@dataclass
class Request:
    rid: int
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


@dataclass
class Outcome:
    kind: str  # "ok" | "error" | "refused" | "deadline" (before checking)
    start: float  # perf_counter at the call
    latency: float
    deadline: float  # raw seconds the interval timer allowed
    value: Any = None


@dataclass
class Engine:
    """The engine modules, looked up by attribute at call time."""

    cli: Any
    pricing: Any
    acceptability: Any
    errors: Any
    np: Any
    factor: Callable[[], float]  # host-speed factor now; deadlines are multiplied by it


def close(a: float, b: float) -> bool:
    return abs(a - b) <= ABS_TOL + REL_TOL * max(abs(a), abs(b))


def leq(a: float, b: float) -> bool:
    return a <= b + ABS_TOL + REL_TOL * max(abs(a), abs(b))


def witness_beats(eng: Engine, tree, flow, t: int, node, gamma: float) -> bool:
    """``dglr_eval`` of a per-path discounted flow, paid at the horizon,
    beats ``gamma`` at the witness node."""
    np = eng.np
    flow = np.asarray(flow, dtype=float)
    cash = np.zeros((tree.n_paths, tree.horizon + 1))
    cash[:, -1] = flow
    ratios = eng.acceptability.dglr_eval(tree, cash, t)
    return bool(ratios[tree.node_paths(node)[0]] > gamma)


def witness_error(eng: Engine, model, t: int, gamma: float) -> Optional[str]:
    """None if an untimed ``ngd_check`` of ``model`` at ``gamma`` reports a
    violation with a witness that dglr_eval confirms; "witness" if it holds,
    has no witness, fails or overruns."""
    res = run_bounded(lambda: eng.pricing.ngd_check(model, t, gamma), DEADLINE_S, eng)
    if res is None or res.holds or res.witness is None:
        return "witness"
    w = res.witness
    return None if witness_beats(eng, model.tree, w.cash_flow, t, w.node, gamma) else "witness"


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self) -> list[tuple[dict, dict]]:
        """(model, payoff) dicts that set-up loads and validates."""
        raise NotImplementedError

    def load(self, eng: Engine) -> None:
        raise NotImplementedError

    def requests(self, eng: Engine) -> Iterator[Request]:
        raise NotImplementedError

    def warmup(self, eng: Engine) -> list[Request]:
        """Cheap requests that pay first-call costs before the timed phase."""
        raise NotImplementedError


def load_pair(eng: Engine, model_data: dict, payoff_data: dict):
    model = eng.cli.model_from_dict(model_data)
    return model, eng.cli.payoff_from_dict(model, payoff_data)


# ---------------------------------------------------------------------------
# fixture: the shipped CLI on the shipped files

FIXTURE_BOUNDS_T0 = (1.25, 1.38889)  # lambda = 0, date 0 (paper and README)
# lambda = 0, date 1, per node, derived by hand.  Node (1,0) moves 80 ->
# 90/70/60 (paths w1..w3) and pays 25/3, 5/3, 0; its martingale measures have
# q(90) + q(70) + q(60) = 1 and mean 80, and their two vertices {1/2, 1/2, 0}
# and {2/3, 0, 1/3} price the call at 5 and 50/9.  Node (1,1) pays nothing.
FIXTURE_BOUNDS_T1 = ((5.0, 50.0 / 9.0), (0.0, 0.0))


class FixtureWorkload(Workload):
    """Every CLI command on the shipped two-period stock and Asian call."""

    name = "fixture"

    def __init__(self, seed: int, root: str):
        super().__init__(seed)
        fixtures = os.path.join(root, "src", "conic_pricer", "fixtures")
        self.model_path = os.path.join(fixtures, "two_period_stock.json")
        self.payoff_path = os.path.join(fixtures, "asian_call_65.json")
        self._witness: dict[tuple, Optional[str]] = {}

    def inputs(self):
        with open(self.model_path, encoding="utf-8") as fh:
            model = json.load(fh)
        with open(self.payoff_path, encoding="utf-8") as fh:
            payoff = json.load(fh)
        return [(model, payoff)]

    def load(self, eng):
        self.model_data, payoff_data = self.inputs()[0]
        self.model, _ = load_pair(eng, self.model_data, payoff_data)

    def commands(self) -> list[list[str]]:
        m, p = self.model_path, self.payoff_path
        cmds = [["validate", m]]
        for lam in ("0", "0.005", "0.01"):
            for entry in ("trade", "mark"):
                for t in ("0", "1"):
                    cmds.append(["bounds", m, p, "--lam", lam, "--entry", entry, "--time", t])
        for g in ("0.25", "8"):
            cmds.append(["price", m, p, "--gamma", g])
            cmds.append(["forward", m, p, "--gamma", g])
        cmds.append(["ngd", m, "--gamma", "0.25"])
        cmds.append(["arbitrage", m])
        cmds.append(["dglr", m, p])
        cmds.append(["surface", m, p, "--gammas", "0.25,1,8", "--lambdas", "0,0.005,0.01"])
        return cmds

    def _request(self, eng, rid, argv):
        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = eng.cli.main(list(argv))
            return code, out.getvalue(), err.getvalue()

        return Request(rid, argv[0], call, lambda res: self.check(eng, argv, res))

    def requests(self, eng):
        rng = random.Random(f"{self.seed}/fixture")
        cmds = self.commands()
        rid = 0
        while True:
            order = list(cmds)
            rng.shuffle(order)
            for argv in order:
                yield self._request(eng, rid, argv)
                rid += 1

    def warmup(self, eng):
        return [self._request(eng, -1 - i, argv) for i, argv in enumerate(self.commands())]

    def witness(self, eng, lam: Optional[float], gamma: float) -> Optional[str]:
        """``witness_error`` at date 0 of the fixture model, its own lambda
        when ``lam`` is None; cached, as every cycle repeats the commands."""
        key = (lam, gamma)
        if key not in self._witness:
            model = self.model
            if lam is not None:
                model = eng.cli.model_from_dict(self.model_data, lam_override=lam)
            self._witness[key] = witness_error(eng, model, 0, gamma)
        return self._witness[key]

    def check(self, eng, argv, res) -> Optional[str]:
        code, out, err = res
        if code != 0:
            return "refused" if "exceeds cap" in err else "error"
        cmd = argv[0]
        if cmd == "validate":
            return None if out.strip() == "ok" else "wrong"
        rows = list(csv.DictReader(io.StringIO(out)))
        if cmd == "bounds":
            lam = float(argv[argv.index("--lam") + 1])
            t = int(argv[argv.index("--time") + 1])
            for k, row in enumerate(rows):
                if row["status"] != "ok":
                    return "wrong"
                lo, hi = float(row["lower"]), float(row["upper"])
                if not (leq(0.0, lo) and leq(lo, hi)):
                    return "wrong"
                ref = FIXTURE_BOUNDS_T0 if t == 0 else FIXTURE_BOUNDS_T1[k]
                if lam == 0.0 and not (_close6(lo, ref[0]) and _close6(hi, ref[1])):
                    return "wrong"
                # costs raise the asian's mid-price payoff and widen the polytope
                if lam > 0.0 and not leq(ref[1], hi):
                    return "wrong"
            return None if rows else "wrong"
        if cmd in ("price", "forward"):
            row = rows[0]
            if row["status"] == "ngd-violated":
                if row["bid"] != "+inf" or row["ask"] != "-inf":
                    return "wrong"
                return self.witness(eng, None, float(argv[argv.index("--gamma") + 1]))
            bid, ask = float(row["bid"]), float(row["ask"])
            lo, hi = FIXTURE_BOUNDS_T0  # zero rate: forward equals spot
            ok = row["status"] == "ok" and leq(bid, ask)
            return None if ok and _leq6(lo, bid) and _leq6(ask, hi) else "wrong"
        if cmd == "ngd":
            gamma = float(argv[argv.index("--gamma") + 1])
            row = rows[0]
            if row["status"] == "holds":
                return None
            if not row["witness_node"] or not row["witness_dglr"]:
                return "witness"
            if not float(row["witness_dglr"]) > gamma:
                return "witness"
            return self.witness(eng, None, gamma)
        if cmd == "arbitrage":
            return None if rows[0]["status"] == "none" else "wrong"
        if cmd == "dglr":
            # the call pays >= 0 with positive mean: the ratio is infinite
            return None if rows[0]["value"] == "+inf" else "wrong"
        if cmd == "surface":
            cells, missing = [], None
            for row in rows:
                gamma, lam = float(row["gamma"]), float(row["lambda"])
                if row["status"] == "ngd-violated":
                    missing = missing or self.witness(eng, lam, gamma)
                    cells.append((gamma, lam, None))
                    continue
                bid, ask = float(row["bid"]), float(row["ask"])
                if row["status"] != "ok" or not leq(bid, ask):
                    return "wrong"
                if lam == 0.0 and not (
                    _leq6(FIXTURE_BOUNDS_T0[0], bid) and _leq6(ask, FIXTURE_BOUNDS_T0[1])
                ):
                    return "wrong"
                cells.append((gamma, lam, ask - bid))
            return surface_order_error(cells, across_lambda=False) or missing
        return "wrong"


def _close6(a: float, b: float) -> bool:
    """Equal to the CLI's six significant digits."""
    return abs(a - b) <= 1e-5 * max(abs(b), 1e-3)


def _leq6(a: float, b: float) -> bool:
    return a <= b + 1e-5 * max(abs(a), abs(b), 1e-3)


def surface_order_error(cells, *, across_lambda: bool = True) -> Optional[str]:
    """Spreads must not shrink, nor a quote turn ngd-violated, as gamma or
    lambda grows.  ``cells`` holds (gamma, lam, spread or None if violated).

    A wider band or dearer round trips only enlarge the density polytope, so
    with the payoff fixed the quotes can only move apart.  With
    ``across_lambda=False`` only gamma is compared (the payoff moves with
    lambda)."""
    by_key = {(g, lam): s for g, lam, s in cells}
    for (g, lam), s in by_key.items():
        for (g2, lam2), s2 in by_key.items():
            if (g2, lam2) == (g, lam) or g2 < g or lam2 < lam:
                continue
            if not across_lambda and lam2 != lam:
                continue
            if s is None:
                continue
            if s2 is None or not leq(s, s2):
                return "wrong"
    return None


# ---------------------------------------------------------------------------
# tree: horizon-4 binary markets, one library call per request


def bounds_error(model, mkt: BinaryMarket, t: int, quote) -> Optional[str]:
    """No-arbitrage bounds against CRR: equal to it without costs, around it
    with costs, at every date-t node."""
    tree = model.tree
    if len(quote.entries) != len(tree.nodes(t)):
        return "wrong"
    for e in quote.entries:
        if e.status != "ok":
            return "wrong"
        ref = mkt.crr(t, tree.node_paths(e.node)[0])
        if mkt.lam == 0.0:
            if not (close(e.bid, ref) and close(e.ask, ref)):
                return "wrong"
        elif not (leq(e.bid, ref) and leq(ref, e.ask)):
            return "wrong"
    return None


class PanelWorkload(Workload):
    """Binary markets of one stream, loaded by set-up, visited in order."""

    stream = ""
    horizon = 0
    def __init__(self, seed: int):
        super().__init__(seed)
        self.loaded: dict[int, tuple] = {}

    def market(self, k: int) -> BinaryMarket:
        return binary_market(self.stream, k, self.horizon)

    def inputs(self):
        out = []
        for k in range(POOL[self.name]):
            m = self.market(k)
            out.append((m.model_dict(), m.payoff_dict()))
        return out

    def load(self, eng):
        for k in range(POOL[self.name]):
            self.pair(eng, k)

    def pair(self, eng, k: int):
        if k not in self.loaded:
            m = self.market(k)
            self.loaded[k] = load_pair(eng, m.model_dict(), m.payoff_dict())
        return self.loaded[k]


class TreeWorkload(PanelWorkload):
    """noarb_bounds at t=0 and t=1 and good_deal_prices at t=0, per market."""

    name = "tree"
    stream = "tree"
    horizon = TREE_HORIZON

    def __init__(self, seed: int):
        super().__init__(seed)
        self.bounds_t0: dict[int, Any] = {}

    def market_requests(self, eng, k: int, rid: int, mkt: BinaryMarket) -> list[Request]:
        model, payoff = self.pair(eng, k)
        P = eng.pricing
        return [
            Request(rid, "bounds_t0", lambda: P.noarb_bounds(model, payoff, 0),
                    lambda q: self.check_bounds(model, mkt, 0, q, k)),
            Request(rid + 1, "bounds_t1", lambda: P.noarb_bounds(model, payoff, 1),
                    lambda q: self.check_bounds(model, mkt, 1, q, k)),
            Request(rid + 2, "price_t0",
                    lambda: P.good_deal_prices(model, payoff, 0, mkt.gamma),
                    lambda q: self.check_price(eng, model, mkt, q, k)),
        ]

    def requests(self, eng):
        k = rid = 0
        while True:
            mkt = self.market(k)
            for req in self.market_requests(eng, k, rid, mkt):
                yield req
            rid += 3
            k += 1

    def warmup(self, eng):
        mkt = binary_market("warmup", 0, 2)
        model, payoff = load_pair(eng, mkt.model_dict(), mkt.payoff_dict())
        P = eng.pricing
        return [
            Request(-1, "bounds_t0", lambda: P.noarb_bounds(model, payoff, 0), lambda q: None),
            Request(-2, "price_t0",
                    lambda: P.good_deal_prices(model, payoff, 0, 8.0), lambda q: None),
        ]

    def check_bounds(self, model, mkt: BinaryMarket, t: int, quote, k: int) -> Optional[str]:
        failure = bounds_error(model, mkt, t, quote)
        if failure is None and t == 0:
            self.bounds_t0[k] = quote
        return failure

    def check_price(self, eng, model, mkt: BinaryMarket, quote, k: int) -> Optional[str]:
        e = quote.entries[0]
        in_band = mkt.crr_in_band(mkt.gamma)
        if e.status == "ngd-violated":
            if in_band:
                return "wrong"
            w = quote.witness
            if w is None:
                return "witness"
            ok = witness_beats(eng, model.tree, w.cash_flow, 0, w.node, mkt.gamma)
            return None if ok else "witness"
        if e.status != "ok" or not leq(e.bid, e.ask):
            return "wrong"
        ref = mkt.crr(0, 0)
        if in_band and not (leq(e.bid, ref) and leq(ref, e.ask)):
            return "wrong"
        if mkt.lam == 0.0 and not (close(e.bid, ref) and close(e.ask, ref)):
            return "wrong"
        bounds = self.bounds_t0.get(k)
        if bounds is not None:
            b = bounds.entries[0]
            if not (leq(b.bid, e.bid) and leq(e.ask, b.ask)):
                return "wrong"
        return None


# ---------------------------------------------------------------------------
# surface: horizon-3 binary markets, one liquidity_surface call per request


class SurfaceWorkload(PanelWorkload):
    """A 6 gamma x 4 lambda liquidity surface at the root, per market."""

    name = "surface"
    stream = "surface"
    horizon = SURFACE_HORIZON

    def __init__(self, seed: int):
        super().__init__(seed)
        self.models: dict[tuple, Any] = {}

    def surface_request(self, eng, rid: int, mkt: BinaryMarket) -> Request:
        model_data, payoff_data = mkt.model_dict(), mkt.payoff_dict()

        def call():
            cli = eng.cli
            return eng.pricing.liquidity_surface(
                lambda lam: cli.model_from_dict(model_data, lam_override=lam),
                lambda model: cli.payoff_from_dict(model, payoff_data),
                list(GAMMAS_SURFACE),
                list(LAMBDAS),
                0,
            )

        return Request(rid, "surface", call, lambda cells: self.check_surface(eng, mkt, cells))

    def requests(self, eng):
        k = 0
        while True:
            yield self.surface_request(eng, k, self.market(k))
            k += 1

    def warmup(self, eng):
        mkt = binary_market("warmup", 0, 2)
        return [self.surface_request(eng, -1, mkt)]

    def model_at(self, eng, mkt: BinaryMarket, lam: float):
        """The market and its payoff rebuilt at ``lam``, as the surface does."""
        key = (mkt.key, lam)
        if key not in self.models:
            model = eng.cli.model_from_dict(mkt.model_dict(), lam_override=lam)
            self.models[key] = (model, eng.cli.payoff_from_dict(model, mkt.payoff_dict()))
        return self.models[key]

    def check_surface(self, eng, mkt: BinaryMarket, cells) -> Optional[str]:
        if len(cells) != len(GAMMAS_SURFACE) * len(LAMBDAS):
            return "wrong"
        ref = mkt.crr(0, 0)
        summary, missing = [], None
        bounds: dict[float, Any] = {}
        for c in cells:
            in_band = mkt.crr_in_band(c.gamma)
            if c.status == "ngd-violated":
                if in_band:
                    return "wrong"
                model, _ = self.model_at(eng, mkt, c.lam)
                missing = missing or witness_error(eng, model, 0, c.gamma)
                summary.append((c.gamma, c.lam, None))
                continue
            if c.status != "ok" or not leq(c.bid, c.ask):
                return "wrong"
            if in_band and not (leq(c.bid, ref) and leq(ref, c.ask)):
                return "wrong"
            if c.lam == 0.0:
                if not (close(c.bid, ref) and close(c.ask, ref)):
                    return "wrong"
            else:
                if c.lam not in bounds:  # untimed; skipped if it fails or overruns
                    model, payoff = self.model_at(eng, mkt, c.lam)
                    bounds[c.lam] = run_bounded(
                        lambda: eng.pricing.noarb_bounds(model, payoff, 0), DEADLINE_S, eng
                    )
                if bounds[c.lam] is not None:
                    b = bounds[c.lam].entries[0]
                    if b.status == "ok" and not (leq(b.bid, c.bid) and leq(c.ask, b.ask)):
                        return "wrong"
            summary.append((c.gamma, c.lam, c.ask - c.bid))
        return surface_order_error(summary) or missing


def run_bounded(fn: Callable[[], Any], deadline_s: float, eng: Engine):
    """``fn()`` under an interval-timer deadline of ``deadline_s`` at the
    reference host speed; None if it fails or overruns."""
    signal.setitimer(signal.ITIMER_REAL, deadline_s * eng.factor())
    try:
        return fn()
    except (Deadline, eng.errors.ComputationError):
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


# ---------------------------------------------------------------------------
# horizon ladder


def ladder_market(horizon: int) -> BinaryMarket:
    return replace(binary_market("ladder", horizon, horizon), lam=LADDER_LAM)


def make_workload(name: str, seed: int, root: str) -> Workload:
    if name == "fixture":
        return FixtureWorkload(seed, root)
    if name == "tree":
        return TreeWorkload(seed)
    if name == "surface":
        return SurfaceWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("fixture", "tree", "surface")
