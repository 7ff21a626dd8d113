"""Spans around the engine's public functions, recorded from outside.

``Tracer.install`` replaces each public function (or class constructor) of the
engine's modules with a wrapper that records a span - request id, span id,
parent span id, name, start, end, how it ended and a few call facts - while a
request is running.  Names a module imported from another one (``pricing``
and ``cli`` import ``generators_for``, ``arbitrage_check``, ``dglr_eval``,
``derive_filtration``, ``EventTree`` and ``MarketModel`` by name) are replaced
there too.  Spans stay in memory; ``layer_metrics`` reduces them to the
per-layer figures and ``dump`` writes them out at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Optional

import numpy as np

from workloads import Deadline

# layer -> (module attribute, span name, kind); kind "fn" or "init" (class)
TRACED = {
    "lp": [("solve", "fn"), ("solve_ratio", "fn")],
    "cone": [("generators_for", "fn"), ("arbitrage_check", "fn")],
    "pricing": [
        ("noarb_bounds", "fn"),
        ("ngd_check", "fn"),
        ("good_deal_prices", "fn"),
        ("good_deal_certificate", "fn"),
        ("forward_prices", "fn"),
        ("liquidity_surface", "fn"),
    ],
    "acceptability": [("dglr_eval", "fn")],
    "market": [("MarketModel", "init")],
    "lattice": [("derive_filtration", "fn"), ("EventTree", "init")],
    "cli": [("main", "fn"), ("model_from_dict", "fn"), ("payoff_from_dict", "fn")],
}
LAYERS = tuple(TRACED)

# span record fields
RID, SID, PARENT, NAME, START, END, STATUS, INFO = range(8)


def tableau_cells(prog) -> int:
    """Cells of the dense tableau ``lp.solve`` builds for ``prog`` (computed
    from its shape: rows plus objective, columns plus rhs)."""
    n = prog.c.shape[0]
    finite_upper = int(np.isfinite(prog.upper).sum()) if prog.upper is not None else 0
    m_ub = prog.a_ub.shape[0] + finite_upper
    m_eq = prog.a_eq.shape[0]
    flipped = int((prog.b_ub < 0).sum())  # surplus rows need an artificial
    n_art = m_eq + flipped
    return (m_ub + m_eq + 1) * (n + m_ub + n_art + 1)


def _solve_info(args, kwargs, out) -> dict:
    info = {"exact": bool(kwargs.get("exact", False)), "cells": tableau_cells(args[0])}
    if out is not None:
        info["pivots"] = int(out.iterations)
        info["lp_status"] = out.status
    return info


def _count_info(args, kwargs, out) -> dict:
    return {"count": len(out)} if out is not None else {}


def _ngd_info(args, kwargs, out) -> dict:
    if out is None:
        return {}
    return {"witness_missing": (not out.holds) and out.witness is None}


INFO_HOOKS: dict[str, Callable] = {
    "lp.solve": _solve_info,
    "cone.generators_for": _count_info,
    "pricing.ngd_check": _ngd_info,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.rid: Optional[int] = None  # recording only while a request runs
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = INFO_HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.rid is None:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            rec = [tracer.rid, sid, parent, name, time.perf_counter(), 0.0, "ok", None]
            tracer.spans.append(rec)
            tracer.stack.append(sid)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            except Deadline:
                rec[STATUS] = "aborted"
                raise
            except Exception as exc:  # recorded, then passed on unchanged
                rec[STATUS] = type(exc).__name__ + ": " + str(exc)[:120]
                raise
            finally:
                rec[END] = time.perf_counter()
                tracer.stack.pop()
                if hook is not None:
                    rec[INFO] = hook(args, kwargs, out)

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap every traced name in every module of ``package`` that holds it."""
        modules = [getattr(package, layer) for layer in LAYERS]
        for layer, entries in TRACED.items():
            home = getattr(package, layer)
            for attr, kind in entries:
                name = f"{layer}.{attr}"
                original = getattr(home, attr)
                if kind == "init":
                    self._patch(original, "__init__", self._wrap(name, original.__init__))
                    continue
                wrapper = self._wrap(name, original)
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def reset_stack(self) -> None:
        """Drop spans left open by a request cut short."""
        self.stack.clear()

    # -- output -----------------------------------------------------------

    def dump(self, path: str) -> None:
        fields = ("rid", "sid", "parent", "name", "start", "end", "status", "info")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(fields, rec))) + "\n")


def layer_metrics(spans: list[list], request_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer calls, busy and self time and counts from the spans.

    Busy time of a layer sums its outermost spans (those with no ancestor in
    the same layer); self time sums every span's duration minus its direct
    children.  ``request_s`` is the traced requests' total wall time, the base
    of each ``<layer>.self_share``.
    """
    by_sid = {rec[SID]: rec for rec in spans}
    child_s = defaultdict(float)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_s[rec[PARENT]] += rec[END] - rec[START]

    def layer(rec) -> str:
        return rec[NAME].split(".", 1)[0]

    def has_ancestor(rec, pred) -> bool:
        p = rec[PARENT]
        while p >= 0:
            up = by_sid[p]
            if pred(up):
                return True
            p = up[PARENT]
        return False

    calls = defaultdict(int)
    secs = defaultdict(float)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    for rec in spans:
        dur = rec[END] - rec[START]
        name = rec[NAME]
        calls[name] += 1
        secs[name] += dur
        self_s[layer(rec)] += dur - child_s[rec[SID]]
        self_s[name] += dur - child_s[rec[SID]]
        if not has_ancestor(rec, lambda up: layer(up) == layer(rec)):
            busy[layer(rec)] += dur

    m: dict[str, tuple[float, str]] = {}
    for lay in LAYERS:
        m[f"{lay}.busy_s"] = (busy[lay], "s")
        m[f"{lay}.self_s"] = (self_s[lay], "s")
        m[f"{lay}.self_share"] = (self_s[lay] / request_s if request_s > 0 else 0.0, "ratio")

    # lp: outermost solves are the caller's solves; a nested solve is the
    # exact-rational fallback, whose result (and pivots) the outer returns.
    solves = [r for r in spans if r[NAME] == "lp.solve"]
    outer = [r for r in solves if not has_ancestor(r, lambda up: up[NAME] == "lp.solve")]
    done = [r for r in outer if r[INFO] and "pivots" in r[INFO]]
    pivots = sum(r[INFO]["pivots"] for r in done)
    done_s = sum(r[END] - r[START] for r in done)
    m["lp.solve.calls"] = (len(outer), "count")
    m["lp.solve.s"] = (sum(r[END] - r[START] for r in outer), "s")
    m["lp.pivots"] = (pivots, "count")
    m["lp.pivots_per_solve"] = (pivots / len(done) if done else 0.0, "count")
    m["lp.us_per_pivot"] = (1e6 * done_s / pivots if pivots else 0.0, "us")
    m["lp.tableau_cells_max"] = (max((r[INFO]["cells"] for r in solves if r[INFO]), default=0), "cells")
    exact = [r for r in solves if r[INFO] and r[INFO]["exact"]]
    m["lp.exact_fallbacks"] = (len(exact), "count")
    m["lp.exact.s"] = (sum(r[END] - r[START] for r in exact), "s")
    m["lp.infeasible"] = (sum(1 for r in done if r[INFO]["lp_status"] == "infeasible"), "count")
    m["lp.cert_failures"] = (sum(1 for r in outer if "certification failed" in r[STATUS]), "count")
    m["lp.aborted"] = (sum(1 for r in outer if r[STATUS] == "aborted"), "count")
    m["lp.solve_ratio.calls"] = (calls["lp.solve_ratio"], "count")

    gens = [r for r in spans if r[NAME] == "cone.generators_for"]
    quotes = calls["pricing.noarb_bounds"] + calls["pricing.good_deal_prices"]
    quotes += sum(
        1 for r in spans
        if r[NAME] == "pricing.ngd_check"
        and not has_ancestor(r, lambda up: up[NAME] == "pricing.good_deal_prices")
    )
    m["cone.generators_for.calls"] = (len(gens), "count")
    m["cone.generators_for.s"] = (secs["cone.generators_for"], "s")
    m["cone.generators"] = (sum(r[INFO].get("count", 0) for r in gens if r[INFO]), "count")
    m["cone.refused"] = (sum(1 for r in gens if "exceeds cap" in r[STATUS]), "count")
    m["cone.arbitrage_check.self_s"] = (self_s["cone.arbitrage_check"], "s")
    m["cone.enumerations_per_quote"] = (len(gens) / quotes if quotes else 0.0, "ratio")

    for fn in ("noarb_bounds", "ngd_check", "good_deal_prices", "good_deal_certificate",
               "liquidity_surface"):
        m[f"pricing.{fn}.calls"] = (calls[f"pricing.{fn}"], "count")
        m[f"pricing.{fn}.s"] = (secs[f"pricing.{fn}"], "s")
    m["pricing.witness_missing"] = (
        sum(1 for r in spans if r[NAME] == "pricing.ngd_check" and r[INFO]
            and r[INFO]["witness_missing"]),
        "count",
    )

    m["acceptability.dglr_eval.calls"] = (calls["acceptability.dglr_eval"], "count")
    m["acceptability.dglr_eval.s"] = (secs["acceptability.dglr_eval"], "s")
    m["market.MarketModel.calls"] = (calls["market.MarketModel"], "count")
    m["market.MarketModel.s"] = (secs["market.MarketModel"], "s")
    m["lattice.derive_filtration.calls"] = (calls["lattice.derive_filtration"], "count")
    m["lattice.derive_filtration.s"] = (secs["lattice.derive_filtration"], "s")
    m["lattice.EventTree.s"] = (secs["lattice.EventTree"], "s")
    m["cli.main.s"] = (secs["cli.main"], "s")
    m["cli.load.s"] = (secs["cli.model_from_dict"] + secs["cli.payoff_from_dict"], "s")
    return m
