"""Host-speed probe, for times that compare across runs on a shared host.

On a host shared with other tenants the same engine call can take twice as
long from one minute to the next.  A fixed probe - building and using an
argparse parser, numpy row updates on a small and on a multi-megabyte array,
and Python dict and string work, the things the engine spends its time on - is
timed between requests, and in each set-up interpreter right after its
set-up (``setup_child.py``).  ``factor_near`` is the median probe time around
a given interval over ``REF_S``; a time divided by it is that time at the
reference host speed.  The probe is benchmark code, so a change to the engine
moves the scaled times by as much as it moves the raw ones.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

# Fixed reference probe time, near the fastest probe times on the 2-vCPU host
# of the first baseline; a factor of 2 means the host ran at half that speed.
REF_S = 3.0e-3
EVERY_S = 0.25
BURST = 5
WINDOW_S = 1.0
NEAREST = 6

_SMALL = np.eye(40, 80) * 4.0 + np.linspace(0.0, 0.5, 40 * 80).reshape(40, 80)
_LARGE = np.linspace(0.5, 1.5, 200 * 1600).reshape(200, 1600)


def _rows(T: np.ndarray, pivots: int) -> None:
    """Gauss-Jordan row updates, the dense-tableau pivot's inner loop."""
    for col in range(pivots):
        T[col] = T[col] / T[col, col]
        for i in range(T.shape[0]):
            if i != col:
                f = T[i, col]
                if f != 0.0:
                    T[i] = T[i] - f * T[col]


def probe() -> float:
    """Seconds for one pass of the fixed probe."""
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(prog="probe")
    subs = parser.add_subparsers(dest="command")
    for name in ("a", "b", "c", "d", "e", "f", "g", "h"):
        sub = subs.add_parser(name)
        sub.add_argument("model")
        sub.add_argument("--time", type=int, default=0)
        sub.add_argument("--lam", type=float)
        sub.add_argument("--entry", choices=("trade", "mark"), default="trade")
        sub.add_argument("--precision", type=int, default=6)
    parser.parse_args(["c", "m.json", "--lam", "0.01", "--entry", "mark"])
    _rows(_SMALL.copy(), 6)
    _rows(_LARGE.copy(), 1)
    counts: dict[str, int] = {}
    for k in range(600):
        key = f"k{k % 37}"
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - t0


class HostSpeed:
    """Probe samples (start time, duration), taken in bursts of ``BURST`` at
    most every ``EVERY_S``.  Each burst starts with one untimed probe: after
    a large LP the first probe ran about 20% slower on cold caches."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._next = 0.0

    def sample(self, *, force: bool = False) -> None:
        now = time.perf_counter()
        if force or now >= self._next:
            probe()
            for _ in range(BURST):
                self.samples.append((time.perf_counter(), probe()))
            self._next = now + EVERY_S

    def factor_now(self) -> float:
        """Host-speed factor now, probing first if the last burst is old."""
        self.sample()
        now = time.perf_counter()
        return self.factor_near(now, now)

    def factor_near(self, start: float, end: float) -> float:
        """Host-speed factor around [start, end]: the median of the probes
        within ``WINDOW_S`` of it, or of the ``NEAREST`` closest ones."""
        near = [d for t, d in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if len(near) < NEAREST:
            by_gap = sorted(self.samples, key=lambda s: max(start - s[0], s[0] - end, 0.0))
            near = [d for _, d in by_gap[:NEAREST]]
        return statistics.median(near) / REF_S
