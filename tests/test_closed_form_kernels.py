"""Closed-form cell kernels: presorted tree growth and one-pass path CBR.

Presorted growth sorts every column once per fit and filters the sorted
blocks down the recursion; it must grow the same tree, node for node and
bit for bit, as the retained oracle (``_fast_split=False``: a per-node
sort and per-feature scan), and consume the same random stream.
``path_cbr_batch`` must equal the summed per-path ``path_cbr`` counts, and
the vectorized random-path draw must equal one ``random_path`` draw per row.
"""

import re

import numpy as np
import pytest

from repro.attacks import random_path
from repro.datasets.synthetic import _rank_transform_marginals
from repro.exceptions import ValidationError
from repro.metrics import (
    path_cbr,
    path_cbr_batch,
    reconstruction_cbr,
    reconstruction_cbr_batch,
)
from repro.models.forest import RandomForestClassifier
from repro.models.tree import DecisionTreeClassifier, _class_sum


def _nodes_equal(a, b) -> bool:
    """Recursive node-for-node equality; thresholds compared bitwise."""
    if (a.label, a.n_samples, a.depth, a.feature) != (b.label, b.n_samples, b.depth, b.feature):
        return False
    if np.float64(a.threshold).view(np.int64) != np.float64(b.threshold).view(np.int64):
        return False
    if a.is_leaf or b.is_leaf:
        return a.is_leaf and b.is_leaf
    return _nodes_equal(a.left, b.left) and _nodes_equal(a.right, b.right)


def _structures_equal(a, b) -> bool:
    return (
        a.depth == b.depth
        and (a.exists == b.exists).all()
        and (a.is_leaf == b.is_leaf).all()
        and (a.feature == b.feature).all()
        # NaN padding: compare bit patterns, array_equal is False on NaN.
        and (a.threshold.view(np.int64) == b.threshold.view(np.int64)).all()
        and (a.leaf_label == b.leaf_label).all()
    )


def _growth_problem(trial: int):
    """Random fit problem spanning the knobs presorted growth must honour."""
    rng = np.random.default_rng(1000 + trial)
    c = (2, 5, 11)[trial % 3]
    # Half the problems put the root (and its first children) above 512
    # rows, the size where the retired per-node kernel switched paths.
    m = int(rng.integers(600, 1400)) if trial % 2 else int(rng.integers(20, 500))
    d = int(rng.integers(2, 14))
    X = rng.random((m, d))
    if trial % 4 == 0:
        X = np.round(X, 1)  # heavy duplicates: ties break by row position
    if trial % 5 == 0:
        X = X[rng.integers(0, m, size=m)]  # bootstrap rows: exact duplicates
    y = rng.integers(0, c, size=m)
    y[:c] = np.arange(c)  # every class present
    kwargs = dict(
        max_depth=int(rng.integers(1, 9)),
        min_samples_leaf=(1, 2, 7)[(trial // 4) % 3],
        criterion=("gini", "entropy")[(trial // 3) % 2],
        max_features=(None, "sqrt", max(1, d // 2))[(trial // 2) % 3],
    )
    return X, y, kwargs


class TestPresortedGrowth:
    @pytest.mark.parametrize("trial", range(24))
    def test_matches_oracle_node_for_node(self, trial):
        X, y, kwargs = _growth_problem(trial)
        fast = DecisionTreeClassifier(rng=trial, **kwargs)
        slow = DecisionTreeClassifier(rng=trial, **kwargs)
        slow._fast_split = False
        fast.fit(X, y)
        slow.fit(X, y)
        assert _nodes_equal(fast.root_, slow.root_)
        assert _structures_equal(fast.tree_structure(), slow.tree_structure())
        # Same per-node feature draws, in the same order.
        assert fast.rng.bit_generator.state == slow.rng.bit_generator.state

    def test_covers_both_sides_of_the_old_crossover(self):
        sizes = set()
        for trial in range(24):
            X, y, kwargs = _growth_problem(trial)
            tree = DecisionTreeClassifier(rng=0, **kwargs).fit(X, y)
            stack = [tree.root_]
            while stack:
                node = stack.pop()
                if not node.is_leaf:
                    sizes.add(node.n_samples >= 512)
                    stack += [node.left, node.right]
        assert sizes == {True, False}

    def test_forest_trees_match_oracle(self, monkeypatch):
        rng = np.random.default_rng(5)
        X = np.round(rng.random((700, 9)), 2)
        y = rng.integers(0, 3, size=700)
        kwargs = dict(n_trees=4, max_depth=6, max_features="sqrt", min_samples_leaf=2)
        fast = RandomForestClassifier(rng=3, **kwargs).fit(X, y)
        monkeypatch.setattr(DecisionTreeClassifier, "_fast_split", False)
        slow = RandomForestClassifier(rng=3, **kwargs).fit(X, y)
        for a, b in zip(fast.trees_, slow.trees_):
            assert _nodes_equal(a.root_, b.root_)

    @pytest.mark.parametrize("c", [1, 2, 3, 7, 8, 9, 11, 16, 17, 40, 128, 129])
    def test_class_sum_adds_in_numpy_reduction_order(self, c):
        rng = np.random.default_rng(c)
        # Magnitudes spread over 16 decades make every association visible.
        rows = rng.random((5, 37, c)) * 10.0 ** rng.integers(-8, 9, size=(5, 37, c))
        expected = rows.sum(axis=-1)
        got = _class_sum(np.ascontiguousarray(np.moveaxis(rows, -1, 0)))
        assert (got.view(np.int64) == expected.view(np.int64)).all()


def _random_tree(seed: int, depth: int = 6):
    rng = np.random.default_rng(seed)
    X = rng.random((300, 6))
    y = (X[:, 0] + 0.3 * rng.random(300) > 0.6).astype(np.int64) + (X[:, 1] > 0.8)
    tree = DecisionTreeClassifier(max_depth=depth, min_samples_leaf=3, rng=0).fit(X, y)
    return tree.tree_structure(), rng.random((200, 6))


def _depth(slot: int) -> int:
    return int(slot + 1).bit_length() - 1


class TestPathCbrBatch:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("targets", [[], [0, 2, 5], [0, 1, 2, 3, 4, 5]])
    def test_equals_summed_per_path_counts(self, seed, targets):
        structure, X = _random_tree(seed)
        leaves = np.random.default_rng(seed).choice(structure.leaf_indices(), size=len(X))
        per_path = [
            path_cbr(structure, structure.path_to(int(leaf)), x, np.array(targets))
            for leaf, x in zip(leaves, X)
        ]
        expected = (sum(c for c, _ in per_path), sum(t for _, t in per_path))
        assert path_cbr_batch(structure, leaves, X, np.array(targets)) == expected
        if not targets:
            assert expected == (0, 0)

    def test_leaves_at_mixed_depths(self):
        structure, X = _random_tree(3)
        leaves = structure.leaf_indices()
        assert len({_depth(int(leaf)) for leaf in leaves}) > 1
        X = X[: leaves.size]
        per_path = [
            path_cbr(structure, structure.path_to(int(leaf)), x, np.arange(6))
            for leaf, x in zip(leaves, X)
        ]
        expected = (sum(c for c, _ in per_path), sum(t for _, t in per_path))
        assert expected[1] > 0
        assert path_cbr_batch(structure, leaves, X, np.arange(6)) == expected

    def test_single_leaf_tree(self):
        X = np.zeros((20, 3))  # no split can separate constant rows
        y = np.arange(20) % 2
        structure = DecisionTreeClassifier(max_depth=3, rng=0).fit(X, y).tree_structure()
        assert structure.depth == 0
        assert path_cbr(structure, [0], X[0], np.arange(3)) == (0, 0)
        assert path_cbr_batch(structure, np.zeros(20, dtype=np.int64), X, np.arange(3)) == (0, 0)

    def test_no_rows_scores_nothing(self):
        structure, _ = _random_tree(0)
        assert path_cbr_batch(structure, [], np.empty((0, 6)), [0]) == (0, 0)

    def test_rejects_slots_that_are_not_leaves(self):
        structure, X = _random_tree(1)
        internal = int(np.flatnonzero(structure.exists & ~structure.is_leaf)[0])
        for slot in (internal, -1, structure.n_nodes):
            leaves = np.full(2, structure.leaf_indices()[0])
            leaves[1] = slot
            with pytest.raises(ValidationError, match=re.escape(f"slots [{slot}]")):
                path_cbr_batch(structure, leaves, X[:2], [0])

    def test_rejects_leaf_count_mismatch(self):
        structure, X = _random_tree(1)
        with pytest.raises(ValidationError, match="leaves"):
            path_cbr_batch(structure, structure.leaf_indices()[:1], X[:2], [0])


class TestTargetFeatureValidation:
    @pytest.mark.parametrize("bad", [[-1], [6], [0, 9, -3]])
    def test_every_cbr_scorer_names_bad_indices(self, bad):
        structure, X = _random_tree(2)
        leaf = int(structure.leaf_indices()[0])
        named = str(sorted(f for f in bad if not 0 <= f < 6))
        calls = [
            lambda: path_cbr(structure, structure.path_to(leaf), X[0], bad),
            lambda: reconstruction_cbr(structure, X[0], X[1], bad),
            lambda: reconstruction_cbr_batch(structure, X, X, bad),
            lambda: path_cbr_batch(structure, [leaf], X[:1], bad),
        ]
        for call in calls:
            with pytest.raises(ValidationError) as info:
                call()
            assert named in str(info.value)


class TestRandomPathDraw:
    @pytest.mark.parametrize("n_leaves", [1, 2, 3, 7, 16, 33])
    @pytest.mark.parametrize("seed", range(5))
    def test_vector_choice_equals_per_row_random_path(self, n_leaves, seed):
        """The batched baseline's draw is n scalar draws, final state included."""
        structure, _ = _random_tree(seed)
        # Demote all but n_leaves real leaves: random_path draws over the
        # leaf set and walks up through existing slots only.
        leaves = structure.leaf_indices()[:n_leaves]
        structure.is_leaf[:] = False
        structure.is_leaf[leaves] = True
        scalar_rng = np.random.default_rng(seed)
        vector_rng = np.random.default_rng(seed)
        picks = [random_path(structure, scalar_rng)[-1] for _ in range(50)]
        assert vector_rng.choice(structure.leaf_indices(), size=50).tolist() == picks
        assert vector_rng.bit_generator.state == scalar_rng.bit_generator.state


def test_rank_transform_matches_double_argsort():
    rng = np.random.default_rng(0)
    X = np.round(rng.normal(size=(500, 7)), 1)  # ties: the inner sort's order decides
    n = X.shape[0]
    ranks = np.argsort(np.argsort(X, axis=0), axis=0)
    expected = ((ranks + 1.0) / (n + 1.0)) ** 0.7
    assert (_rank_transform_marginals(X, 0.7) == expected).all()
