"""Dynamic gain-loss ratio, its density band, and the induced risk measure.

The performance measure of a cash flow D at date t is, per node, the ratio of
the expected remaining cumulative flow to the expectation of its negative
part, when the mean is positive (0 otherwise; infinite when there is no loss
leg or the remaining flow vanishes identically).

The matching density family at level gamma consists of all densities of the
form c*(1 + L) with 0 <= L <= gamma and normalization E[c*(1+L)] = 1 - a
multiplicative band of relative width (1 + gamma).  The associated risk
measure rho is minus the worst-case conditional expectation over the band;
its level sets recover the ratio: rho_gamma <= 0 exactly when the ratio is at
least gamma.

Per-node band optimization is linear-fractional.  Along any coordinate of L
the ratio is monotone, so an optimal L loads gamma on a value-threshold set
of the flow, and a sorted threshold scan finds the exact optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .lattice import EventTree, as_values, tail_sum

__all__ = ["DensityBand", "dglr_eval", "rho_gamma", "band_ratio_extreme"]


@dataclass(frozen=True)
class DensityBand:
    """Densities eta with m <= eta <= (1 + gamma) * m for a free m > 0 and
    E[eta] = 1.  The normalization pins m to [1/(1+gamma), 1], so every member
    is strictly positive and the induced measures are equivalent to the
    reference one."""

    gamma: float

    def __post_init__(self):
        if not (self.gamma > 0 and np.isfinite(self.gamma)):
            raise ValidationError(f"acceptance level must be in (0, inf), got {self.gamma}")

    @property
    def m_min(self) -> float:
        return 1.0 / (1.0 + self.gamma)

    def contains(self, density, probabilities, *, tol: float = 1e-9) -> bool:
        eta = np.asarray(density, dtype=float)
        p = np.asarray(probabilities, dtype=float)
        if abs(float(eta @ p) - 1.0) > tol:
            return False
        lo, hi = float(np.min(eta)), float(np.max(eta))
        return lo > 0 and hi <= (1.0 + self.gamma) * lo + tol


def dglr_eval(tree: EventTree, cash_flow, t: int) -> np.ndarray:
    """Gain-loss ratio of the remaining cumulative flow, per date-t node.

    Returns a per-path vector (constant on each node) with values in
    [0, inf]; an identically zero remaining flow rates as +inf.
    """
    x = tail_sum(as_values(cash_flow), t)
    p = tree.probabilities
    out = np.empty(tree.n_paths)
    for cell in tree.partitions[t]:
        idx = list(cell)
        gain = float(p[idx] @ x[idx])
        loss = float(p[idx] @ np.maximum(-x[idx], 0.0))
        if np.all(x[idx] == 0.0):
            val = np.inf
        elif gain > 0.0:
            val = gain / loss if loss > 0.0 else np.inf
        else:
            val = 0.0
        out[idx] = val
    return out


def band_ratio_extreme(x, weights, gamma: float, *, minimize: bool = True) -> float:
    """Worst (or best) band-weighted average of ``x`` on one node: the extreme
    of sum(w*(1+L)*x)/sum(w*(1+L)) over 0 <= L <= gamma.

    Optimal L loads gamma on a value-threshold set of x, so scanning prefixes
    of the sorted order visits an optimal vertex.
    """
    DensityBand(gamma)
    x = np.asarray(x, dtype=float)
    w = np.asarray(weights, dtype=float)
    order = np.argsort(x) if minimize else np.argsort(-x)
    xs, ws = x[order], w[order]
    base_num, base_den = float(w @ x), float(w.sum())
    nums = base_num + gamma * np.concatenate([[0.0], np.cumsum(ws * xs)])
    dens = base_den + gamma * np.concatenate([[0.0], np.cumsum(ws)])
    vals = nums / dens
    return float(np.min(vals) if minimize else np.max(vals))


def rho_gamma(
    tree: EventTree,
    cash_flow,
    t: int,
    gamma: float,
    *,
    start: int | None = None,
) -> np.ndarray:
    """Risk of the cumulative flow from ``start`` (default: t) onward.

    Per node this is minus the minimum band-weighted conditional expectation.
    """
    x = tail_sum(as_values(cash_flow), t if start is None else start)
    p = tree.probabilities
    out = np.empty(tree.n_paths)
    for cell in tree.partitions[t]:
        idx = list(cell)
        out[idx] = -band_ratio_extreme(x[idx], p[idx], gamma)
    return out
