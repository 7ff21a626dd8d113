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

:class:`EventTree` builds both arrays in one pass over the cells, date by
date: each cell is sorted, each date's cells are ordered by head, and the
paths they list, with their cell indices and heads, fill a (date, path)
table that two scatters turn into the arrays.  Refinement is then one
comparison of every path's date-t cell with its date-(t+1) head's.  Input
processes are checked the same way, all at once: :func:`unadapted` compares
every value of their stack with its head's and tests it for finiteness, so
one pass decides finiteness and adaptedness for every process and names the
first that fails.

Adaptedness, predictability and stopping times are one rule,
:meth:`EventTree.unmeasurable_cell`, and a failure of any of them names the
same two paths: the head of the first node, by date and then cell, whose
values differ, and the first of its paths off the head's value, by label
and with both values (``x is not measurable at t=0: 50.0 on path w1, 49.5
on path w3``).  Path labels are distinct, so each names one path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
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
    check_shapes([("observable", m) for m in mats], (n, width))
    history = np.array(mats).transpose(2, 1, 0).tolist()  # [date][path][observable]
    partitions: list[Partition] = []
    parent = [0] * n  # each path's cell at the previous date
    for t in range(width):
        groups: dict[tuple, list[int]] = {}
        for i, (cell, values) in enumerate(zip(parent, history[t])):
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
        self.horizon = check_horizon(horizon)
        self.probabilities = finite(probabilities, "probabilities")
        if self.probabilities.ndim != 1:
            raise ValidationError("probabilities must be a flat vector")
        self.n_paths = self.probabilities.shape[0]
        if (self.probabilities <= 0.0).any():
            bad = int(np.argmin(self.probabilities))
            raise ValidationError(
                f"probabilities must be strictly positive (path index {bad})"
            )
        total = float(self.probabilities.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"probabilities sum to {total!r}, not 1")
        self.paths = path_labels(paths, self.n_paths)

        if len(partitions) != self.horizon + 1:
            raise ValidationError(
                f"expected {self.horizon + 1} partitions, got {len(partitions)}"
            )
        # One pass over the cells, date by date: each cell sorted, the cells
        # sorted by head (an empty cell first), and the paths and cell
        # indices they list, in that order.
        n, width = self.n_paths, self.horizon + 1
        everyone = list(range(n))
        norm: list[Partition] = []
        paths, cell_ids = [], []
        for t, part in enumerate(partitions):
            cells = sorted(tuple(sorted(map(int, cell))) for cell in part)
            if cells and not cells[0]:
                raise ValidationError(f"empty cell in partition at t={t}")
            flat = [i for c in cells for i in c]
            if sorted(flat) != everyone:
                raise ValidationError(
                    f"partition at t={t} does not cover the paths exactly once"
                )
            norm.append(tuple(cells))
            paths.append(flat)
            for k, c in enumerate(cells):
                cell_ids += [k] * len(c)
        if len(norm[0]) != 1:
            raise ValidationError("partition at t=0 must be the single full cell")
        self.partitions: tuple[Partition, ...] = tuple(norm)

        # The nodes, numbered once: date by date and within a date in cell
        # order, node (t, k) is offset[t] + k, with its head (smallest path
        # index) and date.  Per date and path its cell index and node, and
        # per path and date its cell's head.
        self.offset = np.array([0, *accumulate(map(len, norm))])
        self.node_path = np.array([c[0] for cells in norm for c in cells])
        self.node_date = np.array([t for t, cells in enumerate(norm) for _ in cells])
        dates = np.arange(width)[:, None]
        self._cell_of = np.empty((width, n), dtype=int)
        self._cell_of[dates, paths] = np.reshape(cell_ids, (width, n))
        self.node_of = self.offset[:width, None] + self._cell_of
        self._head = self.node_path[self.node_of].T
        # a date-(t+1) cell refines date t when each of its paths shares its
        # head's date-t cell
        before = self._cell_of[:-1]
        split = before != before[dates[:-1], self._head[:, 1:].T]
        if split.any():
            t = int(np.flatnonzero(split.any(axis=1))[0])
            raise ValidationError(
                f"partition at t={t + 1} does not refine partition at t={t}"
            )
        # each node's children, numbered ascending: the nodes whose head's
        # node a date before is it
        self.children = [[] for _ in self.node_path]
        below = self.node_date[1:] - 1
        for v, parent in enumerate(self.node_of[below, self.node_path[1:]].tolist(), 1):
            self.children[parent].append(v)

    # -- node navigation -----------------------------------------------------

    def node_paths(self, node: NodeRef) -> Cell:
        return self.partitions[node.time][node.cell]

    def cell_index(self, t: int) -> np.ndarray:
        """Cell index per path at date t."""
        return self._cell_of[t]

    def unmeasurable_cell(self, values: np.ndarray) -> Optional[tuple[int, int, int]]:
        """``(t, head, i)`` for the first cell, by date and then cell, whose
        values in column t of ``values`` are not all equal: its head and
        its first path i off the head's value; None when there is none.
        ``values`` must be finite (a NaN equals nothing, not even itself).

        One comparison of each value with its path's cell head's names
        them: the first date with a value off its head's, and of that
        date's cells holding one the first."""
        width = values.shape[1]
        return self._first_cell(values != values[self._head[:, :width], np.arange(width)])

    def _first_cell(self, off: np.ndarray) -> Optional[tuple[int, int, int]]:
        """``(t, head, i)`` for the first cell, by date and then cell,
        holding a value that ``off`` (path, date) marks: its head and its
        first marked path i; or None."""
        dates = np.flatnonzero(off.any(axis=0))
        if not dates.size:
            return None
        t = int(dates[0])
        marked = np.flatnonzero(off[:, t])
        i = int(marked[self._cell_of[t][marked].argmin()])  # paths ascend: the cell's first
        return t, int(self._head[i, t]), i

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
    ``name`` where an entry is NaN or infinite: the finiteness rule of an
    input that is not a process (probabilities, a strike); processes are
    checked by :func:`unadapted`."""
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


def check_horizon(value) -> int:
    """``value`` as a horizon: an integer (see :func:`integer`) >= 1, the
    one horizon rule of every tree and model file."""
    horizon = integer(value, "horizon")
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    return horizon


def unadapted(stack: np.ndarray, head: np.ndarray):
    """The first process of ``stack`` (process, path, date) that is not
    adapted, decided for every process by one pass over the stack: each
    value is compared with its cell head's, path ``head[i, t]``'s (a NaN
    equals nothing), and tested for finiteness.  Returns ``(k, None)``
    where process k, the first that fails, has a NaN or infinite entry,
    else ``(k, off)`` with ``off`` the (path, date) mask of its values off
    their heads'; None when every process passes.  This is the one
    adaptedness rule of every input process: finite, and exactly equal
    within each cell."""
    off = stack != stack[:, head, np.arange(head.shape[1])]
    finite = np.isfinite(stack)
    if finite.all() and not off.any():
        return None
    k = int((off.any(axis=(1, 2)) | ~finite.all(axis=(1, 2))).argmax())
    return (k, None) if not finite[k].all() else (k, off[k])


def check_shapes(processes, shape: tuple[int, ...]) -> None:
    """Raise naming the first (name, matrix) of ``processes`` whose shape is
    not ``shape``: the one shape rule of every input process."""
    for name, values in processes:
        if np.shape(values) != shape:
            raise ValidationError(f"{name} has shape {np.shape(values)}, expected {shape}")


def adapted_stack(tree: EventTree, processes):
    """The (name, matrix) ``processes``, each of shape (n_paths, horizon+1),
    as one (process, path, date) float stack, with the first of them that
    is not an adapted process of ``tree`` by :func:`unadapted`'s one pass:
    ``(k, None)`` where process k has a non-finite entry, ``(k, (t, head,
    i))`` where it is finite and differs first, as
    :meth:`EventTree.unmeasurable_cell` names it, at date t between paths
    head and i; None when every process is adapted."""
    check_shapes(processes, (tree.n_paths, tree.horizon + 1))
    stack = np.array([values for _, values in processes], dtype=float)
    bad = unadapted(stack, tree._head)
    if bad is not None and bad[1] is not None:
        bad = bad[0], tree._first_cell(bad[1])
    return stack, bad


def two_paths(tree: EventTree, values: np.ndarray, at) -> str:
    """The values in column t of ``values`` on the two paths of ``at`` =
    ``(t, head, i)``, by label: ``50.0 on path w1, 49.5 on path w3``."""
    t, head, i = at
    return (f"{float(values[head, t])} on path {tree.paths[head]}, "
            f"{float(values[i, t])} on path {tree.paths[i]}")


def unadapted_error(tree: EventTree, name: str, values: np.ndarray, at) -> ValidationError:
    """The error naming process ``name`` of matrix ``values``: non-finite
    where ``at`` is None, else not measurable at the ``(t, head, i)`` of
    :meth:`EventTree.unmeasurable_cell`."""
    if at is None:
        return ValidationError(f"{name} contains non-finite entries")
    return ValidationError(f"{name} is not measurable at t={at[0]}: {two_paths(tree, values, at)}")


def ensure_adapted(tree: EventTree, values, *, name: str = "process") -> np.ndarray:
    """Validate an (n_paths, horizon+1) matrix as an adapted process: finite,
    and exactly equal within each cell."""
    stack, bad = adapted_stack(tree, [(name, values)])
    if bad is not None:
        raise unadapted_error(tree, name, stack[0], bad[1])
    return stack[0]


def path_labels(paths: Optional[Sequence], n: int) -> tuple[str, ...]:
    """The labels of n paths: ``paths`` as strings, w1..wn when None; a
    label given twice would name two paths, so it is refused."""
    if paths is None:
        return tuple(f"w{i + 1}" for i in range(n))
    if len(paths) != n:
        raise ValidationError("paths and probabilities disagree on length")
    labels = tuple(str(p) for p in paths)
    if len(set(labels)) < n:
        repeat = next(p for k, p in enumerate(labels) if p in labels[:k])
        raise ValidationError(f"path label {repeat!r} is used twice")
    return labels


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
