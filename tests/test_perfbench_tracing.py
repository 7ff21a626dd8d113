"""The benchmark's tracer still installs on the engine.

``perfbench/tracing.py`` wraps the engine's public functions by name and
reads each solved program's shape through ``prog.c``, ``prog.a_ub``,
``prog.a_eq``, ``prog.b_ub`` and ``LinearProgram.upper``; a refactor of the
engine that drops one of them breaks the traced benchmark, not the engine.
"""

import conic_pricer
from conic_pricer import lp
from conic_pricer.market import asian_call
from conic_pricer.pricing import good_deal_prices

from conftest import perfbench_tracing, two_period_model


def _traced_names(tracing):
    """What every name the tracer may replace holds: each traced attribute
    in every traced module that has it, and each traced class's
    ``__init__``."""
    modules = [getattr(conic_pricer, layer) for layer in tracing.LAYERS]
    held = {}
    for layer, entries in tracing.TRACED.items():
        for attr, kind in entries:
            if kind == "init":
                cls = getattr(getattr(conic_pricer, layer), attr)
                held[cls.__qualname__, "__init__"] = cls.__init__
            for mod in modules:
                if hasattr(mod, attr):
                    held[mod.__name__, attr] = getattr(mod, attr)
    return held


def test_tracer_spans_a_good_deal_request_and_uninstalls(monkeypatch):
    tracing = perfbench_tracing()
    solved, real = [], lp.solve

    def recording(prog, **kwargs):
        solved.append(prog)
        return real(prog, **kwargs)

    monkeypatch.setattr(lp, "solve", recording)
    before = _traced_names(tracing)
    tracer = tracing.Tracer()
    tracer.install(conic_pricer)
    try:
        assert _traced_names(tracing) != before
        model = two_period_model(lam=0.01)
        tracer.rid = 1
        good_deal_prices(model, asian_call(model, 0, 65.0), 0, 0.25)
        tracer.rid = None
    finally:
        tracer.uninstall()
    assert _traced_names(tracing) == before

    spans = [rec for rec in tracer.spans if rec[tracing.NAME] == "lp.solve"]
    assert spans and len(spans) == len(solved)
    for rec, prog in zip(spans, solved):
        assert rec[tracing.STATUS] == "ok"
        info = rec[tracing.INFO]
        assert info["cells"] == tracing.tableau_cells(prog)
        # the full tableau of the slice: each row and the objective, over
        # the variables, a slack per cone row, the one artificial and the rhs
        m, n = prog.A.shape
        assert info["cells"] == (m + 1) * (n + m + 1)
        assert info["lp_status"] in ("optimal", "infeasible")
