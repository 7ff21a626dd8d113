"""Finite filtered probability space on an explicit path space.

The state space is a finite list of paths.  Information is modelled as a
sequence of partitions of the path indices, one partition per date; cells of
the partition at date t are the "nodes" observable at t.  Processes are stored
as (n_paths, horizon + 1) matrices and are *adapted* when they are constant on
every cell of the date-t partition in column t.

A natural filtration is derived date by date, each date's cells splitting the
previous date's cells by that date's observed values.  The tree keeps, per
path and date, the index of its cell and the cell's head (its smallest path
index), so adaptedness is one comparison of each value with its head's.
Measurability is exact, with no tolerance: the filtration is derived from
the same values by equality, so a process it is derived from is adapted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ValidationError

Cell = tuple[int, ...]
Partition = tuple[Cell, ...]


@dataclass(frozen=True)
class NodeRef:
    """A node: (date, index of the cell within that date's partition)."""

    time: int
    cell: int


def derive_filtration(observables: Sequence[np.ndarray]) -> list[Partition]:
    """Natural filtration of one or more observable processes.

    Two paths share a date-t cell exactly when every observable agrees on them
    at all dates 0..t.  Cells are ordered by their smallest path index, which
    makes the cell indexing deterministic.

    The partitions are built date by date: the date-t cells split each
    date-(t-1) cell by the observables' values at t alone, keyed on the
    path's previous cell and those values.  Paths are visited in index
    order, so each cell is first met at its smallest path index.
    """
    mats = [np.asarray(o, dtype=float) for o in observables]
    if not mats:
        raise ValidationError("derive_filtration requires at least one observable")
    n, width = mats[0].shape
    for m in mats:
        if m.shape != (n, width):
            raise ValidationError(
                f"observables disagree on shape: {m.shape} vs {(n, width)}"
            )
    stacked = np.stack(mats, axis=-1)  # (path, date, observable)
    partitions: list[Partition] = []
    parent = [0] * n  # each path's cell at the previous date
    for t in range(width):
        groups: dict[tuple, list[int]] = {}
        for i, (cell, values) in enumerate(zip(parent, stacked[:, t].tolist())):
            groups.setdefault((cell, *values), []).append(i)
        cells = tuple(tuple(v) for v in groups.values())
        for k, cell in enumerate(cells):
            for i in cell:
                parent[i] = k
        partitions.append(cells)
    return partitions


class EventTree:
    """Path space with probabilities and a refining partition sequence.

    Each partition's cells are sorted tuples of path indices, ordered by
    their smallest path index, the cell's head."""

    def __init__(
        self,
        horizon: int,
        probabilities,
        partitions: Sequence[Sequence[Iterable[int]]],
        paths: Optional[Sequence[str]] = None,
    ):
        self.horizon = integer(horizon, "horizon")
        if self.horizon < 1:
            raise ValidationError(f"horizon must be >= 1, got {horizon}")
        self.probabilities = finite(probabilities, "probabilities")
        if self.probabilities.ndim != 1:
            raise ValidationError("probabilities must be a flat vector")
        self.n_paths = self.probabilities.shape[0]
        if np.any(self.probabilities <= 0.0):
            bad = int(np.argmin(self.probabilities))
            raise ValidationError(
                f"probabilities must be strictly positive (path index {bad})"
            )
        total = float(self.probabilities.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"probabilities sum to {total!r}, not 1")
        if paths is None:
            paths = [f"w{i + 1}" for i in range(self.n_paths)]
        if len(paths) != self.n_paths:
            raise ValidationError("paths and probabilities disagree on length")
        self.paths = tuple(str(p) for p in paths)

        if len(partitions) != self.horizon + 1:
            raise ValidationError(
                f"expected {self.horizon + 1} partitions, got {len(partitions)}"
            )
        # the cell index and cell head (smallest path index of the cell) of
        # each path at each date, filled in as the cells are normalized
        n = self.n_paths
        self._cell_of = np.empty((self.horizon + 1, n), dtype=int)
        self._head = np.empty((n, self.horizon + 1), dtype=int)
        norm: list[Partition] = []
        for t, part in enumerate(partitions):
            cells = tuple(tuple(sorted(map(int, cell))) for cell in part)
            if any(len(c) == 0 for c in cells):
                raise ValidationError(f"empty cell in partition at t={t}")
            flat = [i for c in cells for i in c]
            if sorted(flat) != list(range(n)):
                raise ValidationError(
                    f"partition at t={t} does not cover the paths exactly once"
                )
            cells = tuple(sorted(cells, key=lambda c: c[0]))
            norm.append(cells)
            sizes = [len(c) for c in cells]
            paths = [i for c in cells for i in c]
            self._cell_of[t, paths] = np.repeat(np.arange(len(cells)), sizes)
            self._head[paths, t] = np.repeat([c[0] for c in cells], sizes)
        if len(norm[0]) != 1:
            raise ValidationError("partition at t=0 must be the single full cell")
        self.partitions: tuple[Partition, ...] = tuple(norm)

        # a date-(t+1) cell refines date t when each of its paths shares its
        # head's date-t cell
        for t in range(self.horizon):
            if np.any(self._cell_of[t] != self._cell_of[t][self._head[:, t + 1]]):
                raise ValidationError(
                    f"partition at t={t + 1} does not refine partition at t={t}"
                )

    # -- node navigation -----------------------------------------------------

    def node_paths(self, node: NodeRef) -> Cell:
        return self.partitions[node.time][node.cell]

    def cell_index(self, t: int) -> np.ndarray:
        """Cell index per path at date t."""
        return self._cell_of[t]

    def unmeasurable_cell(self, values: np.ndarray) -> Optional[tuple[int, Cell]]:
        """The first (t, cell), by date and then cell, whose values in column
        t of ``values`` are not all equal, or None.  ``values`` must be
        finite (a NaN equals nothing, not even itself).

        One comparison of each value with its path's cell head's names it:
        the first date with a value off its head's, and of that date's cells
        holding one the first."""
        width = values.shape[1]
        off = values != values[self._head[:, :width], np.arange(width)]
        dates = np.flatnonzero(off.any(axis=0))
        if not dates.size:
            return None
        t = int(dates[0])
        return t, self.partitions[t][self._cell_of[t][off[:, t]].min()]

    def nodes(self, t: int) -> list[NodeRef]:
        return [NodeRef(t, k) for k in range(len(self.partitions[t]))]

    def node_label(self, node: NodeRef) -> str:
        return f"{node.time}:{node.cell}"

    def __repr__(self):  # pragma: no cover
        return (
            f"EventTree(horizon={self.horizon}, n_paths={self.n_paths}, "
            f"cells={[len(p) for p in self.partitions]})"
        )


def finite(values, name: str) -> np.ndarray:
    """``values`` as a float array, or :class:`ValidationError` naming
    ``name`` where an entry is NaN or infinite: the one finiteness rule of
    every input process."""
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def integer(value, name: str) -> int:
    """``value`` as an int, or :class:`ValidationError` naming ``name`` where
    it is not a number (a bool, a string) or a number of non-integral value
    (2.9, NaN): the one integer rule of every input horizon and date."""
    number = not isinstance(value, bool) and isinstance(value, (int, float, np.number))
    if not (number and float(value).is_integer()):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def ensure_adapted(tree: EventTree, values, *, name: str = "process") -> np.ndarray:
    """Validate an (n_paths, horizon+1) matrix as an adapted process: finite,
    and exactly equal within each cell."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (tree.n_paths, tree.horizon + 1):
        raise ValidationError(
            f"{name} has shape {arr.shape}, expected {(tree.n_paths, tree.horizon + 1)}"
        )
    bad = tree.unmeasurable_cell(finite(arr, name))
    if bad is not None:
        t, cell = bad
        raise ValidationError(
            f"{name} is not measurable at t={t}: values differ inside "
            f"cell {cell} ({arr[list(cell), t].tolist()})"
        )
    return arr


def as_values(process) -> np.ndarray:
    """Accept a CashFlow or a raw matrix."""
    return np.asarray(getattr(process, "values", process), dtype=float)


def tail_sum(cash_flow, start: int) -> np.ndarray:
    """Per-path sum of the payments at dates start..horizon."""
    vals = as_values(cash_flow)
    width = vals.shape[1]
    if not 0 <= start <= width - 1:
        raise ValidationError(f"start date {start} outside 0..{width - 1}")
    return vals[:, start:].sum(axis=1)
