"""Tests for the Path Restriction Attack (Algorithm 1)."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ATTACKS
from repro.attacks import PathRestrictionAttack, random_path
from repro.exceptions import AttackError
from repro.federated import FeaturePartition
from repro.models import DecisionTreeClassifier
from repro.utils.numeric import one_hot


@pytest.fixture(scope="module")
def tree_and_data(blobs):
    X, y = blobs
    tree = DecisionTreeClassifier(max_depth=4, rng=0).fit(X, y)
    return tree, X, y


def make_view(d, target_fraction, seed):
    return FeaturePartition.adversary_target(d, target_fraction, rng=seed).adversary_view()


def pra_run(tree, view, x_adv, v, seed=0):
    """The scenario-level PRA run on a hand-built scenario."""
    scenario = SimpleNamespace(model=tree, view=view)
    return ATTACKS.create("pra").prepare(scenario, seed=seed).run(x_adv, v)


class TestAlgorithm1Invariants:
    def test_true_path_always_survives(self, tree_and_data):
        """The key soundness invariant: the real prediction path is never
        eliminated by the restriction."""
        tree, X, _ = tree_and_data
        structure = tree.tree_structure()
        view = make_view(6, 0.5, seed=1)
        attack = PathRestrictionAttack(structure, view)
        labels = tree.predict(X[:100])
        indicators = attack.restrict_batch(X[:100, view.adversary_indices], labels)
        for i in range(100):
            true_leaf = structure.prediction_path(X[i])[-1]
            assert indicators[i, true_leaf] == 1

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
        labels = tree.predict(x[None, :])
        (indicator,) = attack.restrict_batch(x[None, view.adversary_indices], labels)
        assert indicator[structure.prediction_path(x)[-1]] == 1

    def test_restriction_never_exceeds_class_leaves(self, tree_and_data):
        tree, X, _ = tree_and_data
        structure = tree.tree_structure()
        view = make_view(6, 0.3, seed=2)
        attack = PathRestrictionAttack(structure, view)
        labels = tree.predict(X[:50])
        indicators = attack.restrict_batch(X[:50, view.adversary_indices], labels)
        class_leaves = (
            structure.exists[None, :]
            & structure.is_leaf[None, :]
            & (structure.leaf_label[None, :] == labels[:, None])
        ).sum(axis=1)
        survivors = indicators.sum(axis=1)
        assert (1 <= survivors).all() and (survivors <= class_leaves).all()

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
        indicators = attack.restrict_batch(X[:20, view.adversary_indices], labels)
        for i in range(20):
            survivors = np.flatnonzero(indicators[i])
            true_leaf = structure.prediction_path(X[i])[-1]
            # Every surviving leaf with this class is reachable; the true
            # one must be among them and all decisions are pinned.
            assert true_leaf in survivors

    def test_mismatched_class_gives_no_paths(self, tree_and_data):
        """Requesting a class no leaf carries leaves nothing (and the
        scenario run counts the row as unattackable)."""
        tree, X, _ = tree_and_data
        structure = tree.tree_structure()
        view = make_view(6, 0.3, seed=4)
        attack = PathRestrictionAttack(structure, view)
        impossible = int(structure.leaf_label.max()) + 1
        x_adv = X[:1, view.adversary_indices]
        assert attack.restrict_batch(x_adv, [impossible]).sum() == 0
        v = np.zeros((1, impossible + 1))
        v[0, impossible] = 1.0
        result = pra_run(tree, view, x_adv, v)
        assert result.info["n_failed"] == 1
        assert result.info["selected_paths"] == [None]


class TestRun:
    """``PraScenarioAttack.run``: restrict the pool, pick one path per row."""

    def _pool(self, tree_and_data, n=40):
        tree, X, _ = tree_and_data
        view = make_view(6, 0.4, seed=5)
        v = one_hot(tree.predict(X[:n]), tree.n_classes_)
        return tree, view, X[:n, view.adversary_indices], v

    def test_result_fields(self, tree_and_data):
        tree, view, x_adv, v = self._pool(tree_and_data)
        structure = tree.tree_structure()
        info = pra_run(tree, view, x_adv, v).info
        assert info["n_paths_total"] == structure.n_prediction_paths()
        assert info["n_failed"] == 0
        for path, restricted in zip(info["selected_paths"], info["n_paths_restricted"]):
            assert 1 <= restricted <= info["n_paths_total"]
            assert path[0] == 0
            assert structure.is_leaf[path[-1]]

    def test_selected_path_is_candidate(self, tree_and_data):
        tree, view, x_adv, v = self._pool(tree_and_data)
        attack = PathRestrictionAttack(tree.tree_structure(), view)
        indicators = attack.restrict_batch(x_adv, np.argmax(v, axis=1))
        paths = pra_run(tree, view, x_adv, v, seed=1).info["selected_paths"]
        for indicator, path in zip(indicators, paths):
            assert indicator[path[-1]] == 1

    def test_deterministic_with_seed(self, tree_and_data):
        tree, view, x_adv, v = self._pool(tree_and_data)
        a = pra_run(tree, view, x_adv, v, seed=7)
        b = pra_run(tree, view, x_adv, v, seed=7)
        assert a.info["selected_paths"] == b.info["selected_paths"]
        assert (a.x_target_hat == b.x_target_hat).all()

    def test_wrong_adv_width_rejected(self, tree_and_data):
        tree, X, _ = tree_and_data
        view = make_view(6, 0.4, seed=5)
        attack = PathRestrictionAttack(tree.tree_structure(), view)
        with pytest.raises(AttackError):
            attack.restrict_batch(np.ones((1, 2)), [0])
        with pytest.raises(AttackError):
            attack.restrict_batch(X[:3, view.adversary_indices], [0, 0])


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
