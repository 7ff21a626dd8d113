"""Finite filtered probability space on an explicit path space.

The state space is a finite list of paths.  Information is modelled as a
sequence of partitions of the path indices, one partition per date; cells of
the partition at date t are the "nodes" observable at t.  Processes are stored
as (n_paths, horizon + 1) matrices and are *adapted* when they are constant on
every cell of the date-t partition in column t.
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
    partitions: list[Partition] = []
    for t in range(width):
        groups: dict[tuple, list[int]] = {}
        for i in range(n):
            key = tuple(tuple(m[i, : t + 1]) for m in mats)
            groups.setdefault(key, []).append(i)
        cells = sorted((tuple(v) for v in groups.values()), key=lambda c: c[0])
        partitions.append(tuple(cells))
    return partitions


class EventTree:
    """Path space with probabilities and a refining partition sequence."""

    def __init__(
        self,
        horizon: int,
        probabilities,
        partitions: Sequence[Sequence[Iterable[int]]],
        paths: Optional[Sequence[str]] = None,
    ):
        if horizon < 1:
            raise ValidationError(f"horizon must be >= 1, got {horizon}")
        self.horizon = int(horizon)
        self.probabilities = np.asarray(probabilities, dtype=float)
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
        norm: list[Partition] = []
        for t, part in enumerate(partitions):
            cells = tuple(tuple(sorted(int(i) for i in cell)) for cell in part)
            if any(len(c) == 0 for c in cells):
                raise ValidationError(f"empty cell in partition at t={t}")
            flat = [i for c in cells for i in c]
            if sorted(flat) != list(range(self.n_paths)):
                raise ValidationError(
                    f"partition at t={t} does not cover the paths exactly once"
                )
            norm.append(tuple(sorted(cells, key=lambda c: c[0])))
        if len(norm[0]) != 1:
            raise ValidationError("partition at t=0 must be the single full cell")
        self.partitions: tuple[Partition, ...] = tuple(norm)

        # cell index of each path at each date, plus refinement check
        self._cell_of = []
        for t, part in enumerate(self.partitions):
            idx = np.empty(self.n_paths, dtype=int)
            for k, cell in enumerate(part):
                idx[list(cell)] = k
            self._cell_of.append(idx)
        for t in range(self.horizon):
            for cell in self.partitions[t + 1]:
                parents = {self._cell_of[t][i] for i in cell}
                if len(parents) != 1:
                    raise ValidationError(
                        f"partition at t={t + 1} does not refine partition at t={t}"
                    )

    # -- node navigation -----------------------------------------------------

    def node_paths(self, node: NodeRef) -> Cell:
        return self.partitions[node.time][node.cell]

    def node_of(self, t: int, path_index: int) -> NodeRef:
        return NodeRef(t, int(self._cell_of[t][path_index]))

    def cell_index(self, t: int) -> np.ndarray:
        """Cell index per path at date t."""
        return self._cell_of[t]

    def unmeasurable_cell(
        self, values: np.ndarray, tol: float = 0.0
    ) -> Optional[tuple[int, Cell]]:
        """The first (t, cell), by date and then cell, whose values in column
        t of ``values`` differ by more than ``tol`` (max - min > tol), or None."""
        for t in range(values.shape[1]):
            idx, n_cells = self._cell_of[t], len(self.partitions[t])
            hi, lo = np.full(n_cells, -np.inf), np.full(n_cells, np.inf)
            np.maximum.at(hi, idx, values[:, t])
            np.minimum.at(lo, idx, values[:, t])
            over = np.flatnonzero(hi - lo > tol)
            if over.size:
                return t, self.partitions[t][over[0]]
        return None

    def children(self, node: NodeRef) -> list[NodeRef]:
        if node.time >= self.horizon:
            return []
        kids = sorted(
            {int(self._cell_of[node.time + 1][i]) for i in self.node_paths(node)}
        )
        return [NodeRef(node.time + 1, k) for k in kids]

    def nodes(self, t: int) -> list[NodeRef]:
        return [NodeRef(t, k) for k in range(len(self.partitions[t]))]

    def node_label(self, node: NodeRef) -> str:
        return f"{node.time}:{node.cell}"

    def __repr__(self):  # pragma: no cover
        return (
            f"EventTree(horizon={self.horizon}, n_paths={self.n_paths}, "
            f"cells={[len(p) for p in self.partitions]})"
        )


def ensure_adapted(
    tree: EventTree, values, *, tol: float = 0.0, name: str = "process"
) -> np.ndarray:
    """Validate an (n_paths, horizon+1) matrix as an adapted process.

    Measurability demands exact equality within each cell; pass a small
    ``tol`` (e.g. 1e-12) to accept noisy inputs.
    """
    arr = np.asarray(values, dtype=float)
    if arr.shape != (tree.n_paths, tree.horizon + 1):
        raise ValidationError(
            f"{name} has shape {arr.shape}, expected {(tree.n_paths, tree.horizon + 1)}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    bad = tree.unmeasurable_cell(arr, tol)
    if bad is not None:
        t, cell = bad
        raise ValidationError(
            f"{name} is not measurable at t={t}: values differ inside "
            f"cell {cell} ({arr[list(cell), t].tolist()})"
        )
    return arr


@dataclass(frozen=True)
class AdaptedProcess:
    """A validated adapted process; ``values[i, t]`` is the value on path i at t."""

    values: np.ndarray

    @classmethod
    def ingest(cls, tree: EventTree, values) -> "AdaptedProcess":
        return cls(ensure_adapted(tree, values))


def as_values(process) -> np.ndarray:
    """Accept an AdaptedProcess/CashFlow or a raw matrix."""
    return np.asarray(getattr(process, "values", process), dtype=float)


def conditional_expectation(
    tree: EventTree, x, t: int, weights=None
) -> np.ndarray:
    """Per-cell weighted average of ``x``, repeated across each date-t cell.

    With ``weights`` omitted the tree probabilities are used, which gives the
    ordinary conditional expectation given the date-t information.
    """
    xv = np.asarray(x, dtype=float)
    w = tree.probabilities if weights is None else np.asarray(weights, dtype=float)
    if xv.shape != (tree.n_paths,) or w.shape != (tree.n_paths,):
        raise ValidationError("conditional_expectation expects per-path vectors")
    if np.any(w < 0):
        raise ValidationError("weights must be nonnegative")
    out = np.empty(tree.n_paths)
    for cell in tree.partitions[t]:
        idx = list(cell)
        tw = float(w[idx].sum())
        if tw <= 0.0:
            raise ValidationError(
                f"conditioning on null event: zero total weight on cell {cell} at t={t}"
            )
        out[idx] = float(np.dot(w[idx], xv[idx])) / tw
    return out


def tail_sum(cash_flow, start: int) -> np.ndarray:
    """Per-path sum of the payments at dates start..horizon."""
    vals = as_values(cash_flow)
    width = vals.shape[1]
    if not 0 <= start <= width - 1:
        raise ValidationError(f"start date {start} outside 0..{width - 1}")
    return vals[:, start:].sum(axis=1)
