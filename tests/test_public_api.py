"""Contract tests for the public API surface and the README quickstart."""

import repro


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_subpackages_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None

    def test_attack_exports(self):
        from repro.attacks import (
            AttackResult,
            EqualitySolvingAttack,
            FeatureInferenceAttack,
            GenerativeRegressionNetwork,
            PathRestrictionAttack,
            RandomGuessAttack,
        )

        for cls in (
            EqualitySolvingAttack,
            GenerativeRegressionNetwork,
            RandomGuessAttack,
        ):
            assert issubclass(cls, FeatureInferenceAttack)
        assert AttackResult is not None
        assert PathRestrictionAttack is not None

    def test_exception_hierarchy(self):
        from repro.exceptions import (
            AttackError,
            DatasetError,
            PartitionError,
            ReproError,
            ValidationError,
        )

        for exc in (AttackError, DatasetError, PartitionError, ValidationError):
            assert issubclass(exc, ReproError)
        assert issubclass(ValidationError, ValueError)

    def test_every_public_callable_has_docstring(self):
        import inspect

        from repro import attacks, datasets, defenses, federated, metrics, models

        for module in (attacks, datasets, defenses, federated, metrics, models):
            for name in module.__all__:
                obj = getattr(module, name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    assert obj.__doc__, f"{module.__name__}.{name} lacks a docstring"


class TestReadmeQuickstart:
    def test_quickstart_snippet_runs_and_is_exact(self):
        """The README's quickstart must work verbatim (smaller n for speed)."""
        from repro.attacks import EqualitySolvingAttack
        from repro.datasets import load_dataset
        from repro.federated import FeaturePartition, train_vertical_model
        from repro.metrics import mse_per_feature
        from repro.models import LogisticRegression
        from repro.nn.data import train_test_split

        ds = load_dataset("drive", n_samples=800)
        X_tr, X_pool, y_tr, y_pool = train_test_split(ds.X, ds.y, rng=0)
        partition = FeaturePartition.adversary_target(ds.n_features, 0.15, rng=0)
        vfl = train_vertical_model(
            LogisticRegression(epochs=40, rng=0),
            X_tr, y_tr, X_pool, y_pool, partition,
        )
        view = partition.adversary_view()
        attack = EqualitySolvingAttack(vfl.release_model(), view)
        result = attack.run(vfl.adversary_features(), vfl.predict_all())
        assert attack.is_exact
        assert mse_per_feature(result.x_target_hat, vfl.ground_truth_target()) < 1e-8

    def test_package_docstring_example_shape(self):
        """The shape claim in the package docstring's doctest."""
        from repro.attacks import EqualitySolvingAttack
        from repro.datasets import load_dataset
        from repro.federated import FeaturePartition
        from repro.models import LogisticRegression

        ds = load_dataset("drive", n_samples=500)
        partition = FeaturePartition.adversary_target(ds.n_features, 0.2, rng=0)
        view = partition.adversary_view()
        model = LogisticRegression(epochs=10, rng=0).fit(ds.X, ds.y)
        x_adv, _ = view.split(ds.X)
        result = EqualitySolvingAttack(model, view).run(
            x_adv, model.predict_proba(ds.X)
        )
        assert result.x_target_hat.shape == (500, view.d_target)


class TestAttackResultContract:
    def test_grna_info_fields(self, blobs_binary):
        from repro.attacks import GenerativeRegressionNetwork
        from repro.federated import FeaturePartition
        from repro.models import LogisticRegression

        X, y = blobs_binary
        model = LogisticRegression(epochs=10, rng=0).fit(X, y)
        view = FeaturePartition.adversary_target(6, 0.3, rng=0).adversary_view()
        attack = GenerativeRegressionNetwork(
            model, view, hidden_sizes=(16,), epochs=3, rng=0
        )
        result = attack.run(X[:50, view.adversary_indices], model.predict_proba(X[:50]))
        assert result.info["epochs"] == 3
        assert result.info["use_generator"] is True
        assert result.info["final_loss"] == attack.loss_history_[-1]
        assert len(attack.loss_history_) == 3

    def test_esa_info_fields(self, fitted_lr, blobs):
        from repro.attacks import EqualitySolvingAttack
        from repro.federated import FeaturePartition

        X, _ = blobs
        view = FeaturePartition.adversary_target(6, 0.3, rng=0).adversary_view()
        attack = EqualitySolvingAttack(fitted_lr, view)
        result = attack.run(
            X[:5, view.adversary_indices], fitted_lr.predict_proba(X[:5])
        )
        assert result.info["n_equations"] == fitted_lr.n_classes_ - 1
        assert result.info["rank"] >= 1
        assert isinstance(result.info["is_exact"], bool)
        assert result.info["mean_residual_norm"] < 1e-6


class TestOneImplementation:
    """Production keeps one implementation per job; the seed oracles the
    kernels are checked against live in ``reference.py``."""

    def test_no_class_keeps_a_seed_oracle_or_a_switch(self):
        import importlib
        import inspect
        import pkgutil

        found = []
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name.endswith("__main__"):
                continue
            module = importlib.import_module(info.name)
            for _, cls in inspect.getmembers(module, inspect.isclass):
                if cls.__module__ != module.__name__:
                    continue
                found += [
                    f"{cls.__module__}.{cls.__qualname__}.{name}"
                    for name in vars(cls)
                    if name.endswith(("_slow", "_reference"))
                    or name.startswith("_fast_")
                    or name == "static"
                ]
        assert found == []

    def test_checkpoint_exports_no_checkpointable(self):
        import repro.checkpoint as checkpoint

        assert not hasattr(checkpoint, "Checkpointable")
        assert "Checkpointable" not in checkpoint.__all__
