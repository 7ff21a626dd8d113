"""Dynamic gain-loss ratio and its density band.

The performance measure of a cash flow D at date t is, per node, the ratio of
the expected remaining cumulative flow to the expectation of its negative
part, when the mean is positive (0 otherwise; infinite when there is no loss
leg or the remaining flow vanishes identically).

The matching density family at level gamma consists of all densities of the
form c*(1 + L) with 0 <= L <= gamma and normalization E[c*(1+L)] = 1 - a
multiplicative band of relative width (1 + gamma).  The pricing programs cut
the risk-neutral densities down to this band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .lattice import EventTree, as_values, tail_sum

__all__ = ["DensityBand", "dglr_eval"]


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
