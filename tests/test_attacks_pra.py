"""Tests for the Path Restriction Attack (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import PathRestrictionAttack, random_path
from repro.exceptions import AttackError
from repro.federated import FeaturePartition
from repro.models import DecisionTreeClassifier


@pytest.fixture(scope="module")
def tree_and_data(blobs):
    X, y = blobs
    tree = DecisionTreeClassifier(max_depth=4, rng=0).fit(X, y)
    return tree, X, y


def make_view(d, target_fraction, seed):
    return FeaturePartition.adversary_target(d, target_fraction, rng=seed).adversary_view()


class TestAlgorithm1Invariants:
    def test_true_path_always_survives(self, tree_and_data):
        """The key soundness invariant: the real prediction path is never
        eliminated by the restriction."""
        tree, X, _ = tree_and_data
        structure = tree.tree_structure()
        view = make_view(6, 0.5, seed=1)
        attack = PathRestrictionAttack(structure, view)
        labels = tree.predict(X)
        for i in range(100):
            indicator = attack.restrict(
                X[i, view.adversary_indices], int(labels[i])
            )
            true_leaf = structure.prediction_path(X[i])[-1]
            assert indicator[true_leaf] == 1

    @given(st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_true_path_survives_property(self, seed):
        """Same invariant over random trees, partitions, and samples."""
        rng = np.random.default_rng(seed)
        d = int(rng.integers(3, 8))
        X = rng.random((80, d))
        y = (X[:, 0] + X[:, d - 1] > 1.0).astype(np.int64)
        if np.unique(y).size < 2:
            return
        tree = DecisionTreeClassifier(max_depth=3, rng=rng).fit(X, y)
        structure = tree.tree_structure()
        view = make_view(d, float(rng.uniform(0.2, 0.8)), seed)
        attack = PathRestrictionAttack(structure, view)
        x = rng.random(d)
        label = int(tree.predict(x[None, :])[0])
        indicator = attack.restrict(x[view.adversary_indices], label)
        assert indicator[structure.prediction_path(x)[-1]] == 1

    def test_restriction_never_exceeds_class_leaves(self, tree_and_data):
        tree, X, _ = tree_and_data
        structure = tree.tree_structure()
        view = make_view(6, 0.3, seed=2)
        attack = PathRestrictionAttack(structure, view)
        label = int(tree.predict(X[:1])[0])
        indicator = attack.restrict(X[0, view.adversary_indices], label)
        class_leaves = (
            structure.exists
            & structure.is_leaf
            & (structure.leaf_label == label)
        ).sum()
        assert 1 <= indicator.sum() <= class_leaves

    def test_all_features_adversarial_pins_single_path(self, tree_and_data):
        """If the adversary holds every feature, exactly the true path remains."""
        tree, X, _ = tree_and_data
        structure = tree.tree_structure()
        # Adversary = features 0..4, target = 5, but give the adversary a
        # tree that only splits on its own features by checking per sample.
        view = make_view(6, 1 / 6, seed=3)
        attack = PathRestrictionAttack(structure, view)
        target_feature = int(view.target_indices[0])
        uses_target = target_feature in set(
            structure.feature[structure.exists & ~structure.is_leaf].tolist()
        )
        if uses_target:
            pytest.skip("tree splits on the target feature for this seed")
        labels = tree.predict(X[:20])
        for i in range(20):
            indicator = attack.restrict(X[i, view.adversary_indices], int(labels[i]))
            survivors = np.flatnonzero(indicator)
            true_leaf = structure.prediction_path(X[i])[-1]
            # Every surviving leaf with this class is reachable; the true
            # one must be among them and all decisions are pinned.
            assert true_leaf in survivors

    def test_mismatched_class_gives_no_paths(self, tree_and_data):
        """Requesting a class no leaf carries leaves nothing (and run raises)."""
        tree, X, _ = tree_and_data
        structure = tree.tree_structure()
        view = make_view(6, 0.3, seed=4)
        attack = PathRestrictionAttack(structure, view)
        impossible = int(structure.leaf_label.max()) + 1
        indicator = attack.restrict(X[0, view.adversary_indices], impossible)
        assert indicator.sum() == 0
        with pytest.raises(AttackError):
            attack.run(X[0, view.adversary_indices], impossible, rng=0)


class TestRun:
    def test_result_fields(self, tree_and_data):
        tree, X, _ = tree_and_data
        structure = tree.tree_structure()
        view = make_view(6, 0.4, seed=5)
        attack = PathRestrictionAttack(structure, view)
        label = int(tree.predict(X[:1])[0])
        result = attack.run(X[0, view.adversary_indices], label, rng=0)
        assert result.n_paths_total == structure.n_prediction_paths()
        assert 1 <= result.n_paths_restricted <= result.n_paths_total
        assert result.selected_path[0] == 0
        assert structure.is_leaf[result.selected_path[-1]]

    def test_selected_path_is_candidate(self, tree_and_data):
        tree, X, _ = tree_and_data
        structure = tree.tree_structure()
        view = make_view(6, 0.4, seed=5)
        attack = PathRestrictionAttack(structure, view)
        label = int(tree.predict(X[:1])[0])
        result = attack.run(X[0, view.adversary_indices], label, rng=1)
        assert result.selected_path[-1] in result.candidate_leaves

    def test_deterministic_with_seed(self, tree_and_data):
        tree, X, _ = tree_and_data
        structure = tree.tree_structure()
        view = make_view(6, 0.4, seed=5)
        attack = PathRestrictionAttack(structure, view)
        label = int(tree.predict(X[:1])[0])
        a = attack.run(X[0, view.adversary_indices], label, rng=7)
        b = attack.run(X[0, view.adversary_indices], label, rng=7)
        assert a.selected_path == b.selected_path

    def test_wrong_adv_width_rejected(self, tree_and_data):
        tree, X, _ = tree_and_data
        view = make_view(6, 0.4, seed=5)
        attack = PathRestrictionAttack(tree.tree_structure(), view)
        with pytest.raises(AttackError):
            attack.run(np.ones(2), 0, rng=0)


class TestInferIntervals:
    def test_true_values_lie_in_inferred_intervals(self, tree_and_data):
        """Intervals read off the *true* path must contain the true values —
        the concrete leakage statement of the paper's Example 2."""
        tree, X, _ = tree_and_data
        structure = tree.tree_structure()
        view = make_view(6, 0.5, seed=6)
        attack = PathRestrictionAttack(structure, view)
        checked = 0
        for i in range(50):
            path = structure.prediction_path(X[i])
            intervals = attack.infer_intervals(path)
            for feature, (low, high) in intervals.items():
                assert low <= X[i, feature] <= high or (
                    # boundary equality: the walk uses <=, intervals are
                    # closed on the left of the threshold
                    X[i, feature] == pytest.approx(low) or X[i, feature] == pytest.approx(high)
                )
                checked += 1
        assert checked > 0

    def test_intervals_only_cover_target_features(self, tree_and_data):
        tree, X, _ = tree_and_data
        structure = tree.tree_structure()
        view = make_view(6, 0.5, seed=6)
        attack = PathRestrictionAttack(structure, view)
        path = structure.prediction_path(X[0])
        intervals = attack.infer_intervals(path)
        adv = set(int(i) for i in view.adversary_indices)
        assert all(f not in adv for f in intervals)

    def test_intervals_tighten_monotonically(self, tree_and_data):
        tree, X, _ = tree_and_data
        structure = tree.tree_structure()
        view = make_view(6, 0.8, seed=7)
        attack = PathRestrictionAttack(structure, view)
        path = structure.prediction_path(X[0])
        for feature, (low, high) in attack.infer_intervals(path).items():
            assert 0.0 <= low < high <= 1.0 or low < high


class TestRandomPathBaseline:
    def test_path_is_root_to_leaf(self, tree_and_data):
        tree, _, _ = tree_and_data
        structure = tree.tree_structure()
        path = random_path(structure, rng=0)
        assert path[0] == 0 and structure.is_leaf[path[-1]]

    def test_uniform_over_leaves(self, tree_and_data):
        tree, _, _ = tree_and_data
        structure = tree.tree_structure()
        rng = np.random.default_rng(0)
        picks = [random_path(structure, rng)[-1] for _ in range(300)]
        assert len(set(picks)) == structure.n_prediction_paths()
