"""Tests for model save/load round-trips."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.models import (
    LogisticRegression,
    RandomForestDistiller,
    load_model,
    save_model,
)


class TestRoundTrips:
    def test_logistic_binary(self, fitted_lr_binary, blobs_binary, tmp_path):
        X, _ = blobs_binary
        path = save_model(fitted_lr_binary, tmp_path / "lr_bin")
        loaded = load_model(path)
        np.testing.assert_allclose(
            loaded.predict_proba(X[:20]), fitted_lr_binary.predict_proba(X[:20])
        )

    def test_logistic_multiclass(self, fitted_lr, blobs, tmp_path):
        X, _ = blobs
        path = save_model(fitted_lr, tmp_path / "lr_multi")
        loaded = load_model(path)
        np.testing.assert_allclose(
            loaded.predict_proba(X[:20]), fitted_lr.predict_proba(X[:20])
        )

    def test_tree_predictions_identical(self, fitted_tree, blobs, tmp_path):
        X, _ = blobs
        path = save_model(fitted_tree, tmp_path / "tree")
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.predict(X), fitted_tree.predict(X))

    def test_tree_structure_identical(self, fitted_tree, tmp_path):
        """PRA operates on the structure, so it must survive serialization."""
        path = save_model(fitted_tree, tmp_path / "tree")
        loaded = load_model(path)
        original = fitted_tree.tree_structure()
        restored = loaded.tree_structure()
        np.testing.assert_array_equal(original.exists, restored.exists)
        np.testing.assert_array_equal(original.feature, restored.feature)
        np.testing.assert_allclose(
            original.threshold[original.exists & ~original.is_leaf],
            restored.threshold[restored.exists & ~restored.is_leaf],
        )
        np.testing.assert_array_equal(original.leaf_label, restored.leaf_label)

    def test_forest(self, fitted_forest, blobs, tmp_path):
        X, _ = blobs
        path = save_model(fitted_forest, tmp_path / "forest")
        loaded = load_model(path)
        np.testing.assert_allclose(
            loaded.predict_proba(X[:30]), fitted_forest.predict_proba(X[:30])
        )

    def test_mlp(self, fitted_mlp, blobs, tmp_path):
        X, _ = blobs
        path = save_model(fitted_mlp, tmp_path / "mlp")
        loaded = load_model(path)
        np.testing.assert_allclose(
            loaded.predict_proba(X[:20]), fitted_mlp.predict_proba(X[:20]), atol=1e-12
        )

    def test_distiller(self, fitted_forest, blobs, tmp_path):
        X, _ = blobs
        distiller = RandomForestDistiller(
            hidden_sizes=(32,), n_dummy=300, epochs=2, rng=0
        ).distill(fitted_forest, fitted_forest.n_features_)
        path = save_model(distiller, tmp_path / "distiller")
        loaded = load_model(path)
        np.testing.assert_allclose(
            loaded.predict_proba(X[:20]), distiller.predict_proba(X[:20]), atol=1e-12
        )

    def test_loaded_mlp_is_still_attackable(self, fitted_mlp, blobs, tmp_path):
        """forward_tensor must work on a deserialized model (GRNA needs it)."""
        from repro.tensor import Tensor

        X, _ = blobs
        loaded = load_model(save_model(fitted_mlp, tmp_path / "m"))
        x = Tensor(X[:2], requires_grad=True)
        loaded.forward_tensor(x)[:, 0].sum().backward()
        assert x.grad is not None


class TestErrors:
    def test_npz_suffix_appended(self, fitted_lr, tmp_path):
        path = save_model(fitted_lr, tmp_path / "model")
        assert path.suffix == ".npz"

    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(Exception):
            save_model(LogisticRegression(), tmp_path / "x")

    def test_unsupported_type_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            save_model(object(), tmp_path / "x")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            load_model(tmp_path / "nothing.npz")

    def test_non_model_archive_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.ones(3))
        with pytest.raises(ValidationError):
            load_model(path)

    def test_undistilled_distiller_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            save_model(RandomForestDistiller(), tmp_path / "d")
