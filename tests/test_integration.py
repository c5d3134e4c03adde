"""End-to-end integration tests: full VFL pipelines under each attack.

These mirror the example scripts: build parties, train through the VFL
wrapper, run the attack using only adversary-visible information, and score
against ground truth held by the evaluation harness.
"""

from types import SimpleNamespace

import numpy as np

from repro.api import ATTACKS
from repro.attacks import (
    EqualitySolvingAttack,
    GenerativeRegressionNetwork,
    PathRestrictionAttack,
    RandomGuessAttack,
    random_path,
)
from repro.datasets import load_dataset
from repro.federated import FeaturePartition, train_vertical_model
from repro.metrics import (
    aggregate_cbr,
    mse_per_feature,
    path_cbr,
)
from repro.models import (
    DecisionTreeClassifier,
    LogisticRegression,
    MLPClassifier,
)
from repro.nn.data import train_test_split


class TestESAPipeline:
    def test_full_vfl_esa_flow(self):
        ds = load_dataset("drive", n_samples=1200)
        X_train, X_pool, y_train, y_pool = train_test_split(ds.X, ds.y, rng=0)
        partition = FeaturePartition.adversary_target(ds.n_features, 0.15, rng=0)
        vfl = train_vertical_model(
            LogisticRegression(epochs=20, rng=0),
            X_train, y_train, X_pool, y_pool, partition,
        )
        view = partition.adversary_view()

        # The adversary's legitimate inputs: released model, own features, v.
        model = vfl.release_model()
        X_adv = vfl.adversary_features()
        V = vfl.predict_all()

        attack = EqualitySolvingAttack(model, view)
        result = attack.run(X_adv, V)
        truth = vfl.ground_truth_target()
        assert attack.is_exact
        assert mse_per_feature(result.x_target_hat, truth) < 1e-8

    def test_esa_beats_rg_when_underdetermined(self):
        ds = load_dataset("credit", n_samples=1000)
        X_train, X_pool, y_train, y_pool = train_test_split(ds.X, ds.y, rng=1)
        partition = FeaturePartition.adversary_target(ds.n_features, 0.4, rng=1)
        vfl = train_vertical_model(
            LogisticRegression(epochs=20, rng=0),
            X_train, y_train, X_pool, y_pool, partition,
        )
        view = partition.adversary_view()
        attack = EqualitySolvingAttack(vfl.release_model(), view)
        result = attack.run(vfl.adversary_features(), vfl.predict_all())
        truth = vfl.ground_truth_target()
        esa = mse_per_feature(result.x_target_hat, truth)
        rg = mse_per_feature(
            RandomGuessAttack(view, rng=0).run(vfl.adversary_features()).x_target_hat,
            truth,
        )
        assert not attack.is_exact
        assert esa < rg


class TestPRAPipeline:
    def test_full_vfl_pra_flow(self):
        ds = load_dataset("credit", n_samples=1200)
        X_train, X_pool, y_train, y_pool = train_test_split(ds.X, ds.y, rng=2)
        partition = FeaturePartition.adversary_target(ds.n_features, 0.3, rng=2)
        vfl = train_vertical_model(
            DecisionTreeClassifier(max_depth=5, rng=0),
            X_train, y_train, X_pool, y_pool, partition,
        )
        view = partition.adversary_view()
        tree = vfl.release_model()
        structure = tree.tree_structure()
        attack = ATTACKS.create("pra").prepare(SimpleNamespace(model=tree, view=view), seed=3)
        result = attack.run(vfl.adversary_features()[:200], vfl.predict_all()[:200])
        truth_full = X_pool

        rng = np.random.default_rng(3)
        pra_counts, rg_counts = [], []
        for i, path in enumerate(result.info["selected_paths"]):
            pra_counts.append(path_cbr(structure, path, truth_full[i], view.target_indices))
            rg_counts.append(
                path_cbr(structure, random_path(structure, rng), truth_full[i], view.target_indices)
            )
        assert aggregate_cbr(pra_counts) > aggregate_cbr(rg_counts)

    def test_restriction_shrinks_candidates(self):
        ds = load_dataset("bank", n_samples=800)
        partition = FeaturePartition.adversary_target(ds.n_features, 0.3, rng=3)
        view = partition.adversary_view()
        tree = DecisionTreeClassifier(max_depth=5, rng=0).fit(ds.X, ds.y)
        structure = tree.tree_structure()
        attack = PathRestrictionAttack(structure, view)
        labels = tree.predict(ds.X[:100])
        restricted = attack.restrict_batch(ds.X[:100, view.adversary_indices], labels)
        ratios = restricted.sum(axis=1) / structure.n_prediction_paths()
        assert (ratios > 0).all()
        assert np.mean(ratios) < 0.6  # restriction must bite


class TestGRNAPipeline:
    def test_full_vfl_grna_flow(self):
        ds = load_dataset("bank", n_samples=900)
        X_train, X_pool, y_train, y_pool = train_test_split(ds.X, ds.y, rng=4)
        partition = FeaturePartition.adversary_target(ds.n_features, 0.3, rng=4)
        vfl = train_vertical_model(
            MLPClassifier(hidden_sizes=(24, 12), epochs=6, rng=0),
            X_train, y_train, X_pool, y_pool, partition,
        )
        view = partition.adversary_view()
        attack = GenerativeRegressionNetwork(
            vfl.release_model(), view,
            hidden_sizes=(48, 24), epochs=12, rng=5,
        )
        result = attack.run(vfl.adversary_features(), vfl.predict_all())
        truth = vfl.ground_truth_target()
        grna = mse_per_feature(result.x_target_hat, truth)
        rg = mse_per_feature(
            RandomGuessAttack(view, rng=0).run(vfl.adversary_features()).x_target_hat,
            truth,
        )
        assert grna < rg

    def test_more_predictions_do_not_hurt(self):
        """Fig. 9's trend at integration scale: 4x data should not be worse."""
        ds = load_dataset("bank", n_samples=1200)
        partition = FeaturePartition.adversary_target(ds.n_features, 0.3, rng=5)
        view = partition.adversary_view()
        model = MLPClassifier(hidden_sizes=(24, 12), epochs=6, rng=0).fit(ds.X, ds.y)
        truth_small, truth_large = None, None
        mses = {}
        for n in (100, 400):
            X_adv, X_target = view.split(ds.X[:n])
            V = model.predict_proba(ds.X[:n])
            attack = GenerativeRegressionNetwork(
                model, view, hidden_sizes=(48, 24), epochs=12, rng=6
            )
            result = attack.run(X_adv, V)
            mses[n] = mse_per_feature(result.x_target_hat, X_target)
        assert mses[400] <= mses[100] * 1.5  # allow noise, forbid collapse


class TestCollusionScenario:
    def test_three_party_collusion(self):
        """m−1 collusion (paper §III-B): active party + one passive gang up."""
        ds = load_dataset("drive", n_samples=800)
        partition = FeaturePartition.random_split(
            ds.n_features, [16, 16, 16], rng=6
        )
        X_train, X_pool, y_train, y_pool = train_test_split(ds.X, ds.y, rng=6)
        vfl = train_vertical_model(
            LogisticRegression(epochs=15, rng=0),
            X_train, y_train, X_pool, y_pool, partition,
        )
        view = partition.adversary_view(colluders=(1,))
        assert view.d_adv == 32 and view.d_target == 16
        attack = EqualitySolvingAttack(vfl.release_model(), view)
        result = attack.run(
            vfl.adversary_features(colluders=(1,)), vfl.predict_all()
        )
        truth = vfl.ground_truth_target(colluders=(1,))
        rg = RandomGuessAttack(view, rng=0).run(
            vfl.adversary_features(colluders=(1,))
        )
        assert mse_per_feature(result.x_target_hat, truth) < mse_per_feature(
            rg.x_target_hat, truth
        )
