"""Path-by-path round-trip values: the reference for ``cone.generators_for``.

This is the loop ``conic_pricer.cone`` used before it computed a root's round
trips in one batch: one generator at a time, one path at a time, summing the
entry leg, the exit leg and the dividend legs in date order.
"""

import numpy as np

from conic_pricer.cone import stopping_profiles


def _sell_dates(tree, profile):
    dates = np.zeros(tree.n_paths, dtype=int)
    for sell in profile.sells:
        for i in tree.node_paths(sell):
            dates[i] = sell.time
    return dates


def round_trip_values(model, kind, sec_idx, profile):
    tree = model.tree
    sec = model.securities[sec_idx]
    _, Binv = model.discounts()
    s = profile.root.time
    values = np.zeros(tree.n_paths)
    sell_date = _sell_dates(tree, profile)
    sign = 1.0 if kind == "long" else -1.0
    entry = sec.ask if kind == "long" else sec.bid
    exit_px = sec.bid if kind == "long" else sec.ask
    div = sec.div_ask if kind == "long" else sec.div_bid
    for i in tree.node_paths(profile.root):
        u = sell_date[i]
        total = -entry[i, s] * Binv[i, s] + exit_px[i, u] * Binv[i, u]
        for v in range(s + 1, u + 1):
            total += (div[i, v] - div[i, v - 1]) * Binv[i, v]
        values[i] = sign * total
    return values


def reference_generator_matrix(model, t):
    """Generator values in ``generators_for`` order: roots by (date, cell),
    then stopping profiles, then security, long before short."""
    tree = model.tree
    rows = []
    for s in range(t, tree.horizon):
        for node in tree.nodes(s):
            for profile in stopping_profiles(tree, node):
                for j in range(model.n_securities):
                    for kind in ("long", "short"):
                        rows.append(round_trip_values(model, kind, j, profile))
    return np.array(rows)
