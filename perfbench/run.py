"""Benchmark of conic-pricer: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload tree --seed 1 --seconds 20 --trace 0

``--seconds`` sizes the run: it makes a fixed number of requests, in
proportion to it (``workloads.PER_20S``), never a number set by the clock.

Run from the root of a source checkout; the engine is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` the same requests are replayed with
spans around the engine's public functions and the JSON holds the per-layer
metrics.  Earlier lines print every metric with its unit.  A full record
(provenance, failure counts, and the spans of a traced run) goes to
``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread: the plain single-threaded baseline.  Set before numpy loads.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

import workloads as W  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

SETUP_REPEATS = 15
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

# Registered in BENCHMARK.json; the untraced run reports END_TO_END, the traced
# run PER_LAYER.
END_TO_END = ["req_gmean_ms", "req_busy_gmean_ms", "setup_s", "peak_rss_mb", "max_horizon"]
HARNESS = ["req_p50_ms", "req_per_s", "req_tail_ms", "fail_share"] + [
    f"fail.{kind}" for kind in W.FAIL_KINDS
] + ["raw.req_gmean_ms", "raw.req_p50_ms", "raw.req_per_s", "raw.setup_s", "host.factor",
     "trace.overhead"]
PER_LAYER = [
    "lp.self_share", "cone.self_share", "pricing.self_share", "acceptability.self_share",
    "market.self_share", "lattice.self_share", "cli.self_share",
    "lp.solve.calls", "lp.solve.s", "lp.pivots", "lp.pivots_per_solve", "lp.us_per_pivot",
    "lp.tableau_cells_max", "lp.exact_fallbacks", "lp.exact.s", "lp.infeasible",
    "lp.cert_failures", "lp.aborted", "lp.solve_ratio.calls",
    "cone.generators_for.calls", "cone.generators_for.s", "cone.generators", "cone.refused",
    "cone.arbitrage_check.self_s", "cone.enumerations_per_quote",
    "pricing.noarb_bounds.calls", "pricing.noarb_bounds.s",
    "pricing.ngd_check.calls", "pricing.ngd_check.s",
    "pricing.good_deal_prices.calls", "pricing.good_deal_prices.s",
    "pricing.good_deal_certificate.calls", "pricing.good_deal_certificate.s",
    "pricing.liquidity_surface.calls", "pricing.liquidity_surface.s",
    "pricing.self_s", "pricing.witness_missing",
    "acceptability.dglr_eval.calls", "acceptability.dglr_eval.s",
    "market.MarketModel.calls", "market.MarketModel.s",
    "lattice.derive_filtration.calls", "lattice.derive_filtration.s", "lattice.EventTree.s",
    "cli.main.s", "cli.load.s", "cli.self_s",
] + HARNESS


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def engine_or_exit(speed):
    """Import the engine from this checkout's ``src/``, or stop with code 2."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "conic_pricer", "__init__.py")):
        sys.stderr.write(f"perfbench: no engine source under {src}\n")
        sys.exit(2)
    sys.path.insert(0, src)
    import numpy as np

    import conic_pricer
    from conic_pricer import acceptability, cli, errors, pricing

    if not os.path.abspath(conic_pricer.__file__).startswith(src + os.sep):
        sys.stderr.write(f"perfbench: imported {conic_pricer.__file__}, not {src}\n")
        sys.exit(2)
    return conic_pricer, W.Engine(cli=cli, pricing=pricing, acceptability=acceptability,
                                  errors=errors, np=np, factor=speed.factor_now)


def provenance(np) -> dict:
    head = os.path.join(ROOT, ".git", "HEAD")
    sha = "unknown (not a git checkout)"
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    sha = fh.read().strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy without the dict form of its build config
        blas_name = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": BLAS_ENV,
    }


# ---------------------------------------------------------------------------
# measurement


def on_alarm(signum, frame):
    raise W.Deadline()


def execute(req: W.Request, eng: W.Engine, deadline: float) -> W.Outcome:
    """``req`` under an interval timer of ``deadline`` raw seconds."""
    t0 = time.perf_counter()
    value, kind = None, "ok"
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            value = req.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except W.Deadline:
        kind = "deadline"
    except eng.errors.ComputationError as exc:
        kind = "refused" if "exceeds cap" in str(exc) else "error"
        value = str(exc)
    except Exception as exc:  # any other engine failure is an error too
        kind = "error"
        value = f"{type(exc).__name__}: {exc}"
    return W.Outcome(kind, t0, time.perf_counter() - t0, deadline, value)


def timed_phase(stream, eng, count: int, speed):
    """Closed loop over the first ``count`` requests of ``stream``: the next
    request starts when the previous one ends.  The host-speed probe runs
    between requests; its time is not in the phase.  Each request's deadline
    is scaled by the probes just before it."""
    done = []
    probe_s = 0.0
    speed.sample(force=True)
    start = time.perf_counter()
    for req in itertools.islice(stream, count):
        now = time.perf_counter()
        done.append((req, execute(req, eng, W.DEADLINE_S * speed.factor_near(now, now))))
        t0 = time.perf_counter()
        speed.sample()
        probe_s += time.perf_counter() - t0
    return done, time.perf_counter() - start - probe_s


def classify(done) -> list[str]:
    """Failure kind per request, or "ok"; checks run after the timed phase."""
    kinds = []
    for req, out in done:
        kinds.append(out.kind if out.kind != "ok" else (req.check(out.value) or "ok"))
    return kinds


def nearest_rank(sorted_values, pct: float) -> float:
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile of TAIL_LADDER with at
    least TAIL_BEYOND samples beyond it; with fewer than 2 * TAIL_BEYOND
    samples, the percentile that leaves exactly TAIL_BEYOND beyond it.  With
    no more than TAIL_BEYOND samples no percentile has that many beyond it;
    the tail is then the maximum (p100)."""
    values = sorted(latencies)
    n = len(values)
    if n <= TAIL_BEYOND:
        return 100.0, values[-1]
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            return pct, nearest_rank(values, pct)
    pct = 100.0 * (n - TAIL_BEYOND) / n
    return pct, nearest_rank(values, pct)


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, raw and host-scaled; each child
    scales its own time by the host-speed probe it runs after the set-up."""
    env = dict(os.environ, **BLAS_ENV)
    child = os.path.join(HERE, "setup_child.py")
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, child, "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        seconds, factor = map(float, proc.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(seconds / factor)
    return raw, scaled


def ladder(eng) -> tuple[int, list]:
    """Untimed T=1..8 no-arbitrage bounds at t=0; stops at the first refusal,
    failure or overrun.  Returns the largest certified horizon."""
    best, steps = 0, []
    for T in W.LADDER_HORIZONS:
        mkt = W.ladder_market(T)
        model, payoff = W.load_pair(eng, mkt.model_dict(), mkt.payoff_dict())
        req = W.Request(0, "ladder", lambda: eng.pricing.noarb_bounds(model, payoff, 0),
                        lambda q: W.bounds_error(model, mkt, 0, q))
        out = execute(req, eng, W.DEADLINE_S * eng.factor())
        kind = out.kind if out.kind != "ok" else (req.check(out.value) or "ok")
        steps.append({"horizon": T, "outcome": kind, "s": out.latency})
        if kind != "ok":
            break
        best = T
    return best, steps


def end_to_end(done, kinds, phase_s, setup, speed, max_horizon, peak_rss_mb):
    """Metrics of the untraced run.  Each time is divided by the host-speed
    factor of the probes around it (``hostspeed.py``); the raw values are
    reported under ``raw.``.  ``req_busy_gmean_ms`` leaves out the failure penalty, so a
    change in the engine's speed shows where failed requests dominate.
    Returns the metrics and the tail's percentile."""
    setup_raw, setup_scaled = setup
    raw, busy, scaled = [], [], []
    for (req, out), kind in zip(done, kinds):
        f = speed.factor_near(out.start, out.start + out.latency)
        # an overrun is scaled by the factor that set its deadline, so it
        # reads as DEADLINE_S plus the time the timer's signal took to land
        own = out.latency / (f if kind != "deadline" else out.deadline / W.DEADLINE_S)
        # a failure counts as the deadline plus its own latency: never below
        # the deadline, and still a measured time
        penalty = (out.deadline, W.DEADLINE_S) if kind != "ok" else (0.0, 0.0)
        raw.append(out.latency + penalty[0])
        busy.append(own)
        scaled.append(own + penalty[1])
    ok = sum(1 for k in kinds if k == "ok")
    pct, tail_s = tail(scaled)
    first, last = done[0][1], done[-1][1]
    phase_f = speed.factor_near(first.start, last.start + last.latency)
    m = {
        "req_gmean_ms": (1000.0 * statistics.geometric_mean(scaled), "ms"),
        "req_busy_gmean_ms": (1000.0 * statistics.geometric_mean(busy), "ms"),
        "req_p50_ms": (1000.0 * nearest_rank(sorted(scaled), 50.0), "ms"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "max_horizon": (max_horizon, "count"),
        "req_per_s": (ok / phase_s * phase_f, "1/s"),
        "req_tail_ms": (1000.0 * tail_s, "ms"),
        "fail_share": ((len(kinds) - ok) / len(kinds), "ratio"),
    }
    for kind in W.FAIL_KINDS:
        m[f"fail.{kind}"] = (sum(1 for k in kinds if k == kind), "count")
    m["raw.req_gmean_ms"] = (1000.0 * statistics.geometric_mean(raw), "ms")
    m["raw.req_p50_ms"] = (1000.0 * nearest_rank(sorted(raw), 50.0), "ms")
    m["raw.req_per_s"] = (ok / phase_s, "1/s")
    m["raw.setup_s"] = (statistics.median(setup_raw), "s")
    m["host.factor"] = (phase_f, "ratio")
    return m, pct


def traced_replay(package, done, eng):
    """Replay the run's requests with spans on.  Each request that
    completed untraced runs once more untraced just before its traced run, so
    ``trace.overhead`` compares neighbouring runs of the same request."""
    import tracing

    tracer = tracing.Tracer()
    pairs = []
    try:
        for req, first in done:
            deadline = W.DEADLINE_S * eng.factor()
            plain = execute(req, eng, deadline) if first.kind == "ok" else None
            tracer.install(package)
            tracer.rid = req.rid
            try:
                traced = execute(req, eng, deadline)
            finally:
                tracer.rid = None
                tracer.reset_stack()
                tracer.uninstall()
            pairs.append((plain, traced))
    finally:
        tracer.uninstall()
    both = [(a.latency, b.latency) for a, b in pairs
            if a is not None and a.kind == "ok" and b.kind == "ok"]
    untraced = sum(a for a, _ in both)
    overhead = sum(b for _, b in both) / untraced - 1.0 if untraced > 0 else 0.0
    request_s = sum(b.latency for _, b in pairs)
    layer = tracing.layer_metrics(tracer.spans, request_s)
    layer["trace.overhead"] = (overhead, "ratio")
    return tracer, layer


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    speed = HostSpeed()
    package, eng = engine_or_exit(speed)
    signal.signal(signal.SIGALRM, on_alarm)
    info = provenance(eng.np)

    setup = setup_seconds(args.workload, args.seed)

    wl = W.make_workload(args.workload, args.seed, ROOT)
    wl.load(eng)
    for req in wl.warmup(eng):  # first-call costs belong to set-up
        execute(req, eng, W.DEADLINE_S * eng.factor())

    count = W.request_count(args.workload, args.seconds)
    done, phase_s = timed_phase(wl.requests(eng), eng, count, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kinds = classify(done)
    max_horizon, ladder_steps = ladder(eng)
    metrics, tail_pct = end_to_end(done, kinds, phase_s, setup, speed,
                                   max_horizon, peak_rss_mb)

    tracer = None
    if args.trace:
        tracer, layer = traced_replay(package, done, eng)
        metrics.update(layer)

    by_kind = {}
    for (req, out), kind in zip(done, kinds):
        by_kind.setdefault(req.kind, []).append(out.latency)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": info,
        "attempted": len(done),
        "phase_s": phase_s,
        "phase_start": done[0][1].start,
        "setup_runs_s": setup[0],
        "setup_runs_scaled_s": setup[1],
        "host_probes": speed.samples,
        "ladder": ladder_steps,
        "tail": {"pct": tail_pct, "samples": len(done)},
        "p50_ms_by_kind": {k: 1000.0 * statistics.median(v) for k, v in by_kind.items()},
        "requests": [  # rid, kind, start within the phase, latency, outcome
            [req.rid, req.kind, out.start - done[0][1].start, out.latency, kind]
            for (req, out), kind in zip(done, kinds)
        ],
        "failures": [
            {"rid": req.rid, "kind": req.kind, "failure": kind, "s": out.latency,
             "detail": out.value if isinstance(out.value, str) else None}
            for (req, out), kind in zip(done, kinds) if kind != "ok"
        ],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    if tracer is not None:
        tracer.dump(stem + ".spans.jsonl")

    for key, val in info.items():
        print(f"# {key}: {val}")
    print(f"# attempted {len(done)} requests in {phase_s:.3f} s; "
          f"req_tail_ms is p{tail_pct:.4g} of {len(done)} samples")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    wanted = PER_LAYER if args.trace else END_TO_END
    failed = sum(1 for k in kinds if k != "ok")
    result = {
        "correct": not any(k == "wrong" for k in kinds),
        "attempted": len(done),
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
