import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_pricer.errors import ValidationError
from conic_pricer.lattice import (
    EventTree,
    NodeRef,
    as_values,
    derive_filtration,
    ensure_adapted,
    tail_sum,
)

from cone_reference import children, node_of
from conftest import TABLE_BIDS, TABLE_PROBS, random_tree, two_period_tree
from oracles import (
    conditional_expectation,
    history_filtration,
    reference_tree_partitions,
    scanned_unmeasurable_cell,
)


class TestDeriveFiltration:
    def test_two_period_bid_matrix(self):
        parts = derive_filtration([TABLE_BIDS])
        assert parts[0] == ((0, 1, 2, 3, 4),)
        assert parts[1] == ((0, 1, 2), (3, 4))
        assert parts[2] == ((0,), (1,), (2,), (3,), (4,))

    def test_constant_matrix_never_splits(self):
        obs = np.full((4, 3), 7.0)
        parts = derive_filtration([obs])
        assert all(part == ((0, 1, 2, 3),) for part in parts)

    def test_split_only_at_final_date(self):
        obs = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 4.0]])
        parts = derive_filtration([obs])
        assert parts[0] == ((0, 1),)
        assert parts[1] == ((0, 1),)
        assert parts[2] == ((0,), (1,))

    def test_empty_observables_rejected(self):
        with pytest.raises(ValidationError):
            derive_filtration([])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            derive_filtration([np.zeros((2, 3)), np.zeros((3, 3))])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000))
def test_refined_filtration_matches_history(seed):
    # few distinct values (-0.0 equal to 0.0), so paths that part can agree
    # again later; several observables and a rate process padded as the CLI
    # pads it.  The date-by-date refinement gives the history-keyed
    # partitions, cells in the same order, and the head comparison names the
    # same first unmeasurable cell as the full scan
    rng = np.random.default_rng(seed)
    n, width = int(rng.integers(1, 9)), int(rng.integers(2, 5))
    levels = np.array([0.0, -0.0, 1.0, 2.5])[: int(rng.integers(2, 5))]
    observables = [
        levels[rng.integers(0, len(levels), size=(n, width))]
        for _ in range(int(rng.integers(1, 4)))
    ]
    rates = 0.01 * levels[rng.integers(0, len(levels), size=(n, width - 1))]
    observables.append(np.hstack([rates, rates[:, -1:]]))
    for obs in observables:  # one date-0 cell
        obs[:, 0] = obs[0, 0]
    parts = derive_filtration(observables)
    assert parts == history_filtration(observables)
    tree = EventTree(width - 1, np.full(n, 1.0 / n), parts)
    assert list(tree.partitions) == parts

    adapted = np.zeros((n, width))
    for t in range(width):
        adapted[:, t] = rng.choice(levels, size=len(parts[t]))[tree.cell_index(t)]
    noise = np.array([-0.0, 1e-13, 1e-12, 0.25, 0.5, 0.75])
    hit = rng.random((n, width)) < 0.2
    values = np.where(hit, adapted + noise[rng.integers(0, len(noise), size=(n, width))], adapted)
    for vals in (adapted, values, values[:, :-1]):
        assert tree.unmeasurable_cell(vals) == scanned_unmeasurable_cell(tree, vals)


class TestEventTree:
    def test_probabilities_must_be_positive(self):
        with pytest.raises(ValidationError, match="strictly positive"):
            EventTree(1, [0.0, 1.0], [[(0, 1)], [(0,), (1,)]])

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum"):
            EventTree(1, [0.5, 0.4], [[(0, 1)], [(0,), (1,)]])

    def test_refinement_enforced(self):
        with pytest.raises(ValidationError, match="refine"):
            EventTree(
                2,
                [0.5, 0.25, 0.25],
                [[(0, 1, 2)], [(0, 1), (2,)], [(0,), (1, 2)]],
            )

    def test_cover_enforced(self):
        with pytest.raises(ValidationError):
            EventTree(1, [0.5, 0.5], [[(0, 1)], [(0,)]])

    def test_repeated_path_label_rejected(self):
        # a label names one path in every message
        with pytest.raises(ValidationError, match="^path label 'u' is used twice$"):
            EventTree(1, [0.25, 0.25, 0.5], [[(0, 1, 2)], [(0,), (1,), (2,)]],
                      paths=["u", "d", "u"])

    def test_children_and_node_of(self):
        tree = two_period_tree()
        root = NodeRef(0, 0)
        kids = children(tree, root)
        assert kids == [NodeRef(1, 0), NodeRef(1, 1)]
        assert children(tree, NodeRef(2, 3)) == []
        assert node_of(tree, 1, 4) == NodeRef(1, 1)
        assert tree.node_paths(NodeRef(1, 1)) == (3, 4)

    def test_node_numbering(self, rng):
        # node (t, k) is offset[t] + k, with its date, its head, its paths'
        # node_of and its children as the reference finds them, numbered the
        # same way; the interleaved cells of the last tree make children that
        # are not consecutive
        trees = [random_tree(rng, int(rng.integers(2, 12)), int(rng.integers(1, 6)))
                 for _ in range(20)]
        trees.append(EventTree(2, [0.25] * 4, [[(0, 1, 2, 3)], [(0, 2), (1, 3)],
                                                [(0,), (1,), (2,), (3,)]]))
        for tree in trees:
            assert tree.offset.tolist() == np.cumsum(
                [0] + [len(part) for part in tree.partitions]).tolist()
            assert len(tree.children) == len(tree.node_path) == tree.offset[-1]
            for t, part in enumerate(tree.partitions):
                for k, cell in enumerate(part):
                    v = tree.offset[t] + k
                    assert (tree.node_date[v], tree.node_path[v]) == (t, cell[0])
                    assert (tree.node_of[t, list(cell)] == v).all()
                    assert tree.children[v] == [
                        tree.offset[t + 1] + c.cell for c in children(tree, NodeRef(t, k))
                    ]
        assert trees[-1].children[1:3] == [[3, 5], [4, 6]]


class TestAdaptedness:
    def test_exact_measurability_required(self):
        tree = two_period_tree()
        vals = TABLE_BIDS.copy()
        vals[0, 1] += 1e-13  # breaks exact equality inside the date-1 cell
        with pytest.raises(ValidationError, match="not measurable"):
            ensure_adapted(tree, vals)
        # no tolerance: a spread of one ulp is a spread, as the full scan reads it
        vals[0, 1] = np.nextafter(TABLE_BIDS[0, 1], np.inf)
        # the head, path w1, is the one off: w2 is the first path off its value
        assert tree.unmeasurable_cell(vals) == scanned_unmeasurable_cell(tree, vals) == (1, 0, 1)

    def test_message_names_two_paths_of_the_first_cell(self):
        tree = two_period_tree()
        vals = TABLE_BIDS.copy()
        vals[4, 1] += 1e-13  # second date-1 cell
        vals[2, 1] += 1e-13  # first date-1 cell, reported first
        vals[1, 1] += 1e-13  # its first path off its head's value
        with pytest.raises(ValidationError) as exc:
            ensure_adapted(tree, vals, name="stock bid")
        assert str(exc.value) == (
            "stock bid is not measurable at t=1: 80.0 on path w1, 80.0000000000001 on path w2"
        )
        assert tree.unmeasurable_cell(vals) == scanned_unmeasurable_cell(tree, vals)

    def test_infinite_and_huge_values_raise_only_the_validation_error(self):
        # within one cell: inf twice, and two finite values whose difference
        # overflows; pytest turns any numpy warning into an error
        tree = two_period_tree()
        vals = TABLE_BIDS.copy()
        vals[[3, 4], 1] = np.inf
        with pytest.raises(ValidationError, match="^x contains non-finite entries$"):
            ensure_adapted(tree, vals, name="x")
        vals[[3, 4], 1] = [1e308, -1e308]
        with pytest.raises(ValidationError, match="^x is not measurable at t=1"):
            ensure_adapted(tree, vals, name="x")

    def test_ingest_wrapper(self):
        tree = two_period_tree()
        out = ensure_adapted(tree, TABLE_BIDS)
        assert np.array_equal(out, TABLE_BIDS)
        assert np.array_equal(as_values(out), TABLE_BIDS)


class TestConditionalExpectation:
    def test_two_period_payoff_values(self):
        # weighted averages of the terminal payoff at the date-1 nodes
        tree = two_period_tree()
        x = np.array([8.3333, 1.6667, 0.0, 0.0, 0.0])
        out = conditional_expectation(tree, x, 1)
        up = (0.1 * 8.3333 + 0.125 * 1.6667) / 0.475
        assert out[0] == pytest.approx(up, abs=1e-9)
        assert out[0] == pytest.approx(2.19298, abs=1e-5)
        assert out[3] == 0.0 and out[4] == 0.0

    def test_root_value(self):
        tree = two_period_tree()
        x = np.array([8.3333, 1.6667, 0.0, 0.0, 0.0])
        out = conditional_expectation(tree, x, 0)
        assert out[0] == pytest.approx(1.04167, abs=1e-5)
        assert np.allclose(out, out[0])

    def test_constants_pass_through(self):
        tree = two_period_tree()
        out = conditional_expectation(tree, np.full(5, 3.25), 1, np.random.rand(5))
        assert np.allclose(out, 3.25)

    def test_null_event_rejected(self):
        tree = two_period_tree()
        w = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValidationError, match="null event"):
            conditional_expectation(tree, np.ones(5), 1, w)

    def test_linearity_and_positivity(self, rng):
        tree = random_tree(rng, 7, 3)
        x = rng.normal(size=7)
        y = rng.normal(size=7)
        a, b = 1.7, -0.4
        lhs = conditional_expectation(tree, a * x + b * y, 2)
        rhs = a * conditional_expectation(tree, x, 2) + b * conditional_expectation(tree, y, 2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
        pos = conditional_expectation(tree, np.abs(x), 1)
        assert np.all(pos >= -1e-15)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000))
def test_tower_property(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, int(rng.integers(2, 9)), int(rng.integers(1, 4)))
    x = rng.normal(size=tree.n_paths)
    w = rng.uniform(0.1, 2.0, size=tree.n_paths)
    s = int(rng.integers(0, tree.horizon + 1))
    t = int(rng.integers(s, tree.horizon + 1))
    inner = conditional_expectation(tree, x, t, w)
    lhs = conditional_expectation(tree, inner, s, w)
    rhs = conditional_expectation(tree, x, s, w)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_refinement_property(rng):
    tree = random_tree(rng, 8, 3)
    for t in range(tree.horizon):
        for cell in tree.partitions[t + 1]:
            parents = {node_of(tree, t, i) for i in cell}
            assert len(parents) == 1


class TestTailSum:
    def test_single_terminal_payment(self):
        d = np.zeros((3, 3))
        d[:, 2] = [5.0, 1.0, 0.0]
        assert np.array_equal(tail_sum(d, 1), [5.0, 1.0, 0.0])

    def test_all_zero(self):
        assert np.array_equal(tail_sum(np.zeros((4, 3)), 0), np.zeros(4))

    def test_partial_window(self):
        d = np.array([[1.0, 2.0, 3.0]])
        assert tail_sum(d, 1)[0] == 5.0

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            tail_sum(np.zeros((2, 3)), 3)


def _corrupted_partitions(rng, tree, corruption: str):
    """``tree``'s partitions, cells and their paths shuffled, with one
    ``corruption``: an empty cell, a path in two cells, a path listed in
    place of another, a path moved to a cell of another parent (no
    refinement), or a split root; None where the tree has no place for
    it."""
    parts = [[list(c) for c in part] for part in tree.partitions]
    T, n = tree.horizon, tree.n_paths
    if corruption == "empty cell":
        parts[int(rng.integers(T + 1))].append([])
    elif corruption in ("double cover", "path in place of another"):
        split = [t for t in range(T + 1) if len(parts[t]) > 1]
        if not split:
            return None
        t = split[int(rng.integers(len(split)))]
        k = int(rng.integers(len(parts[t])))
        other = next(i for i in range(n) if i not in parts[t][k])
        if corruption == "double cover":
            parts[t][k].append(other)
        else:  # as many paths listed as there are, one twice and one not
            parts[t][k][int(rng.integers(len(parts[t][k])))] = other
    elif corruption == "no refinement":
        # a path of a cell of two or more moved to a cell of another parent
        moves = [(t, a, b) for t in range(1, T + 1) for a, ca in enumerate(parts[t])
                 for b, cb in enumerate(parts[t]) if len(ca) > 1 and
                 tree.cell_index(t - 1)[ca[0]] != tree.cell_index(t - 1)[cb[0]]]
        if not moves:
            return None
        t, a, b = moves[int(rng.integers(len(moves)))]
        parts[t][b].append(parts[t][a].pop(int(rng.integers(len(parts[t][a])))))
    elif corruption == "split root":
        cut = int(rng.integers(1, n))
        parts[0] = [list(range(cut)), list(range(cut, n))]
    for part in parts:
        rng.shuffle(part)
        for cell in part:
            rng.shuffle(cell)
    return parts


class TestOnePassOverTheCells:
    """EventTree's one pass over the cells gives the messages, cells and
    cell indices of checking one date at a time."""

    @pytest.mark.parametrize(
        "corruption",
        [None, "empty cell", "double cover", "path in place of another", "no refinement",
         "split root"],
    )
    def test_same_verdict_as_the_date_by_date_reference(self, corruption):
        seen = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 10))
            tree = random_tree(rng, n, int(rng.integers(1, 5)))
            parts = _corrupted_partitions(rng, tree, corruption)
            if parts is None:
                continue
            seen += 1
            want, cells = reference_tree_partitions(parts, n)
            assert (want is None) == (corruption is None), (seed, corruption)
            if want is not None:
                with pytest.raises(ValidationError) as exc:
                    EventTree(tree.horizon, tree.probabilities, parts)
                assert str(exc.value) == want, (seed, corruption)
                continue
            got = EventTree(tree.horizon, tree.probabilities, parts)
            assert list(got.partitions) == cells
            for t, part in enumerate(cells):
                index = np.empty(n, dtype=int)
                for k, cell in enumerate(part):
                    index[list(cell)] = k
                assert np.array_equal(got.cell_index(t), index)
        assert seen >= 30
