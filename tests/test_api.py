"""Tests for the unified scenario API: registries, defenses, facade."""

import warnings

import numpy as np
import pytest

from repro.api import (
    ATTACKS,
    DATASETS,
    DEFENSES,
    MODELS,
    Defense,
    DefenseStack,
    Registry,
    ScenarioConfig,
    run_scenario,
    unwrap_model,
)
from repro.config import ScaleConfig
from repro.exceptions import IncompatibleScenarioError, ScenarioError

#: Smallest scale that still exercises every code path.
MICRO = ScaleConfig(
    name="micro",
    n_samples=160,
    n_predictions=40,
    n_trials=1,
    fractions=(0.4,),
    lr_epochs=3,
    mlp_hidden=(8,),
    mlp_epochs=2,
    rf_trees=3,
    rf_depth=2,
    dt_depth=3,
    grna_hidden=(8,),
    grna_epochs=2,
    grna_batch_size=32,
    distiller_hidden=(16,),
    distiller_dummy=120,
    distiller_epochs=2,
)

#: Which models each attack supports — the paper's constraint matrix.
ATTACK_MODELS = {
    "esa": {"lr"},
    "pra": {"dt"},
    "grna": {"lr", "nn", "rf"},
    "random_uniform": {"lr", "nn", "dt", "rf"},
    "random_gaussian": {"lr", "nn", "dt", "rf"},
}

#: Which models each defense supports.
DEFENSE_MODELS = {
    None: {"lr", "nn", "dt", "rf"},
    "rounding": {"lr", "nn", "dt", "rf"},
    "noise": {"lr", "nn", "dt", "rf"},
    "screening": {"lr", "nn", "dt", "rf"},
    "verification": {"lr", "dt"},
}

#: Permissive defense parameters so the grid smoke never blocks everything.
GRID_DEFENSE_PARAMS = {
    "rounding": {"digits": 3},
    "noise": {"scale": 0.001},
    "screening": {"correlation_threshold": 0.6},
    "verification": {"min_mse": 1e-12, "min_candidate_paths": 1},
}


class TestRegistry:
    def test_keys_are_ordered(self):
        registry = Registry("thing")
        registry.register("b", 1)
        registry.register("a", 2)
        assert registry.names() == ["b", "a"]
        assert list(registry) == ["b", "a"]
        assert len(registry) == 2 and "a" in registry

    def test_unknown_key_lists_choices(self):
        registry = Registry("thing")
        registry.register("only", 1)
        with pytest.raises(ScenarioError, match=r"unknown thing 'nope'.*\['only'\]"):
            registry.get("nope")

    def test_duplicate_rejected_unless_replace(self):
        registry = Registry("thing")
        registry.register("k", 1)
        with pytest.raises(ScenarioError, match="already registered"):
            registry.register("k", 2)
        registry.register("k", 2, replace=True)
        assert registry.get("k") == 2

    def test_decorator_form(self):
        registry = Registry("thing")

        @registry.register("fn")
        def fn():
            return 42

        assert registry.create("fn") == 42

    @pytest.mark.parametrize(
        "registry,expected",
        [
            (ATTACKS, ["esa", "pra", "grna", "random_uniform", "random_gaussian"]),
            (
                DEFENSES,
                [
                    "rounding",
                    "noise",
                    "screening",
                    "verification",
                    "query_noise",
                    "rate_limit",
                    "query_audit",
                ],
            ),
            (MODELS, ["lr", "nn", "dt", "rf"]),
            (DATASETS, ["bank", "credit", "drive", "news", "synthetic1", "synthetic2"]),
        ],
    )
    def test_expected_entries(self, registry, expected):
        assert registry.names() == expected

    @pytest.mark.parametrize(
        "registry", [ATTACKS, DEFENSES, MODELS, DATASETS],
        ids=["attacks", "defenses", "models", "datasets"],
    )
    def test_unknown_keys_enumerate_choices(self, registry):
        with pytest.raises(ScenarioError) as excinfo:
            registry.get("definitely-not-a-key")
        for name in registry.names():
            assert repr(name) in str(excinfo.value)


class TestFullGrid:
    """Every valid attack×model×defense combination runs; invalid ones
    raise a typed error naming the constraint."""

    @pytest.mark.parametrize("attack", sorted(ATTACK_MODELS))
    @pytest.mark.parametrize("model", ["lr", "nn", "dt", "rf"])
    @pytest.mark.parametrize("defense", [None, *sorted(GRID_DEFENSE_PARAMS)])
    def test_grid_cell(self, attack, model, defense):
        defenses = (
            () if defense is None else ((defense, GRID_DEFENSE_PARAMS[defense]),)
        )
        config = ScenarioConfig(
            dataset="bank",
            model=model,
            attack=attack,
            defenses=defenses,
            target_fraction=0.4,
            scale=MICRO,
            seed=1,
        )
        valid = model in ATTACK_MODELS[attack] and model in DEFENSE_MODELS[defense]
        if not valid:
            with pytest.raises(IncompatibleScenarioError) as excinfo:
                run_scenario(config)
            # The error names the offending component and the model kind.
            message = str(excinfo.value)
            assert repr(model) in message
            return
        report = run_scenario(config)
        assert "mse" in report.metrics
        assert np.isfinite(report.metrics["mse"])
        assert report.result.x_target_hat.shape == (
            report.scenario.V.shape[0],
            report.scenario.view.d_target,
        )

    def test_unknown_attack_key(self):
        with pytest.raises(ScenarioError, match="unknown attack"):
            run_scenario(
                ScenarioConfig(dataset="bank", model="lr", attack="esar", scale=MICRO)
            )

    def test_unknown_dataset_key(self):
        with pytest.raises(ScenarioError, match="unknown dataset"):
            run_scenario(
                ScenarioConfig(dataset="bankk", model="lr", attack="esa", scale=MICRO)
            )

    def test_unknown_defense_key(self):
        with pytest.raises(ScenarioError, match="unknown defense"):
            run_scenario(
                ScenarioConfig(
                    dataset="bank", model="lr", attack="esa",
                    defenses=("rouding",), scale=MICRO,
                )
            )

    def test_esa_on_tree_names_constraint(self):
        with pytest.raises(IncompatibleScenarioError, match="logistic"):
            run_scenario(
                ScenarioConfig(dataset="bank", model="dt", attack="esa", scale=MICRO)
            )

    def test_path_baseline_needs_tree(self):
        with pytest.raises(IncompatibleScenarioError, match="path"):
            run_scenario(
                ScenarioConfig(
                    dataset="bank", model="lr", attack="esa",
                    baselines=("path",), scale=MICRO,
                )
            )

    def test_compute_cbr_needs_tree(self):
        with pytest.raises(IncompatibleScenarioError, match="tree"):
            run_scenario(
                ScenarioConfig(
                    dataset="bank", model="lr", attack="esa",
                    compute_cbr=True, scale=MICRO,
                )
            )


class TestScenarioReport:
    def test_baseline_metrics(self):
        report = run_scenario(
            ScenarioConfig(
                dataset="bank", model="lr", attack="esa",
                target_fraction=0.4, scale=MICRO, seed=0,
                baselines=("uniform", "gaussian"),
            )
        )
        assert {"mse", "rg_uniform_mse", "rg_gaussian_mse"} <= set(report.metrics)
        assert report.result.info["n_equations"] == 1  # bank is binary

    def test_pra_interval_point_duality(self):
        report = run_scenario(
            ScenarioConfig(
                dataset="bank", model="dt", attack="pra",
                target_fraction=0.4, scale=MICRO, seed=0,
            )
        )
        info = report.result.info
        x_hat = report.result.x_target_hat
        n = report.scenario.V.shape[0]
        assert len(info["selected_paths"]) == n
        assert len(info["intervals"]) == n
        # Point estimates are the interval midpoints; untested features 0.5.
        position = {
            int(f): j for j, f in enumerate(report.scenario.view.target_indices)
        }
        for i, bounds in enumerate(info["intervals"]):
            expected = np.full(len(position), 0.5)
            for feature, (low, high) in bounds.items():
                expected[position[feature]] = 0.5 * (low + high)
            np.testing.assert_allclose(x_hat[i], expected)

    def test_determinism(self):
        config = ScenarioConfig(
            dataset="bank", model="lr", attack="grna",
            target_fraction=0.4, scale=MICRO, seed=3,
        )
        a, b = run_scenario(config), run_scenario(config)
        assert a.metrics == b.metrics
        np.testing.assert_array_equal(a.result.x_target_hat, b.result.x_target_hat)

    def test_summary_mentions_components(self):
        report = run_scenario(
            ScenarioConfig(dataset="bank", model="lr", attack="esa", scale=MICRO)
        )
        text = report.summary()
        assert "esa" in text and "bank" in text and "mse" in text

    def test_prebuilt_scenario_reused(self):
        from repro.api import build_scenario

        shared = build_scenario("bank", "lr", 0.4, MICRO, 0)
        esa = run_scenario(
            ScenarioConfig(dataset="bank", model="lr", attack="esa",
                           target_fraction=0.4, scale=MICRO, seed=0),
            scenario=shared,
        )
        grna = run_scenario(
            ScenarioConfig(dataset="bank", model="lr", attack="grna",
                           target_fraction=0.4, scale=MICRO, seed=0),
            scenario=shared,
        )
        assert esa.scenario is shared and grna.scenario is shared
        # Identical to the build-per-call path.
        built = run_scenario(
            ScenarioConfig(dataset="bank", model="lr", attack="esa",
                           target_fraction=0.4, scale=MICRO, seed=0)
        )
        assert esa.metrics == built.metrics

    @pytest.mark.parametrize("attack,model", [
        ("esa", "lr"), ("pra", "dt"), ("grna", "lr"), ("random_uniform", "lr"),
    ])
    def test_prepared_attack_run_is_idempotent(self, attack, model):
        from repro.api import ATTACKS, build_scenario

        scenario = build_scenario("bank", model, 0.4, MICRO, 0)
        prepared = ATTACKS.create(attack).prepare(scenario, scale=MICRO, seed=1)
        first = prepared.run(scenario.X_adv, scenario.V)
        second = prepared.run(scenario.X_adv, scenario.V)
        np.testing.assert_array_equal(first.x_target_hat, second.x_target_hat)

    def test_grna_prepare_requires_scale(self):
        from repro.api import ATTACKS, build_scenario

        scenario = build_scenario("bank", "lr", 0.4, MICRO, 0)
        with pytest.raises(ScenarioError, match="scale"):
            ATTACKS.create("grna").prepare(scenario, seed=1)


class TestDefenseStack:
    def test_wrap_order_chains(self, fitted_lr):
        from repro.defenses import NoisyModel, RoundedModel

        stack = DefenseStack.from_specs(
            [("rounding", {"digits": 2}), ("noise", {"scale": 0.01, "rng": 0})]
        )
        served = stack.wrap(fitted_lr)
        # Listed order is application order: noise wraps the rounded model.
        assert isinstance(served, NoisyModel)
        assert isinstance(served.model, RoundedModel)
        assert unwrap_model(served) is fitted_lr
        assert stack.names == ["rounding", "noise"]

    def test_api_wrapping_does_not_warn(self, fitted_lr):
        stack = DefenseStack.from_specs(["rounding", "noise"])
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            stack.wrap(fitted_lr)

    def test_manual_noise_stack_is_reproducible(self, fitted_lr, blobs):
        """A hand-composed noise defense must not fall back to OS entropy."""
        X, _ = blobs
        v1 = DefenseStack.from_specs(["noise"]).wrap(fitted_lr).predict_proba(X[:8])
        v2 = DefenseStack.from_specs(["noise"]).wrap(fitted_lr).predict_proba(X[:8])
        np.testing.assert_array_equal(v1, v2)

    def test_from_specs_accepts_instances(self):
        class Custom(Defense):
            name = "custom"

        stack = DefenseStack.from_specs([Custom()])
        assert stack.names == ["custom"]

    def test_from_specs_rejects_garbage(self):
        with pytest.raises(ScenarioError, match="defense spec"):
            DefenseStack.from_specs([42])

    def test_screening_shrinks_target(self):
        undefended = run_scenario(
            ScenarioConfig(
                dataset="bank", model="lr", attack="esa",
                target_fraction=0.4, scale=MICRO, seed=0,
            )
        )
        screened = run_scenario(
            ScenarioConfig(
                dataset="bank", model="lr", attack="esa",
                defenses=(("screening", {"correlation_threshold": 0.3}),),
                target_fraction=0.4, scale=MICRO, seed=0,
            )
        )
        meta = screened.scenario.meta["screening"]
        assert meta["dropped_columns"], "bank's factor structure should flag columns"
        assert (
            screened.scenario.view.d_target
            == undefended.scenario.view.d_target - len(meta["dropped_columns"])
        )
        # The model genuinely trained on the reduced feature space.
        assert (
            unwrap_model(screened.scenario.model).n_features_
            == undefended.scenario.dataset.n_features - len(meta["dropped_columns"])
        )

    def test_screening_keeps_at_least_one_column(self):
        report = run_scenario(
            ScenarioConfig(
                dataset="bank", model="lr", attack="esa",
                defenses=(("screening", {"correlation_threshold": 0.0}),),
                target_fraction=0.4, scale=MICRO, seed=0,
            )
        )
        assert report.scenario.view.d_target == 1

    def test_verification_filters_outputs(self):
        report = run_scenario(
            ScenarioConfig(
                dataset="bank", model="dt", attack="pra",
                defenses=(("verification", {"min_candidate_paths": 2}),),
                target_fraction=0.4, scale=MICRO, seed=0,
            )
        )
        meta = report.scenario.meta
        assert meta["n_blocked"] > 0
        assert report.scenario.V.shape[0] == MICRO.n_predictions - meta["n_blocked"]

    def test_verification_blocking_everything_is_typed(self):
        with pytest.raises(ScenarioError, match="withheld every"):
            run_scenario(
                ScenarioConfig(
                    dataset="bank", model="dt", attack="pra",
                    defenses=(("verification", {"min_candidate_paths": 64}),),
                    target_fraction=0.4, scale=MICRO, seed=0,
                )
            )


class TestDeprecationShims:
    """Direct construction and the registry path build the same objects."""

    def test_shim_equals_api_wrapper(self, fitted_lr, blobs):
        from repro.defenses import RoundedModel

        X, _ = blobs
        direct = RoundedModel(fitted_lr, 2)
        api_wrapped = DefenseStack.from_specs([("rounding", {"digits": 2})]).wrap(
            fitted_lr
        )
        np.testing.assert_array_equal(
            direct.predict_proba(X), api_wrapped.predict_proba(X)
        )
        assert isinstance(api_wrapped, RoundedModel)

    def test_direct_attack_construction_unchanged(self, fitted_lr, blobs):
        """`EqualitySolvingAttack(model, view)`-style construction still works
        and matches the registry path exactly."""
        from repro.attacks import EqualitySolvingAttack
        from repro.federated import FeaturePartition

        X, _ = blobs
        view = FeaturePartition.adversary_target(6, 0.3, rng=0).adversary_view()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            legacy = EqualitySolvingAttack(fitted_lr, view)
        legacy_result = legacy.run(X[:10, view.adversary_indices], fitted_lr.predict_proba(X[:10]))

        class _Scenario:
            model = fitted_lr

        scenario = _Scenario()
        scenario.view = view
        api_attack = ATTACKS.create("esa").prepare(scenario)
        api_result = api_attack.run(
            X[:10, view.adversary_indices], fitted_lr.predict_proba(X[:10])
        )
        np.testing.assert_array_equal(
            legacy_result.x_target_hat, api_result.x_target_hat
        )


class TestReportPersistence:
    """ScenarioReport round-trips through JSON and the JSONL ResultsStore."""

    def _report(self, **overrides):
        from repro.api import ScenarioReport

        config = dict(
            dataset="bank", model="lr", attack="esa",
            defenses=(("rounding", {"digits": 3}),),
            target_fraction=0.4, scale=MICRO, seed=0,
            baselines=("uniform",), query_budget=500, batch_size=16,
        )
        config.update(overrides)
        return run_scenario(ScenarioConfig(**config))

    def test_json_round_trip(self):
        from repro.api import ScenarioReport

        report = self._report()
        restored = ScenarioReport.from_json(report.to_json())
        assert restored.config == report.config
        assert restored.metrics == report.metrics
        assert restored.queries_used == report.queries_used
        # Array-heavy state is intentionally not persisted.
        assert restored.scenario is None and restored.result is None
        # A restored report still serializes and summarizes.
        assert ScenarioReport.from_json(restored.to_json()).config == report.config
        assert "esa" in restored.summary()

    def test_round_trip_with_preset_scale_name(self):
        from repro.api import ScenarioReport

        report = self._report(scale="smoke", query_budget=None, batch_size=None)
        restored = ScenarioReport.from_json(report.to_json())
        assert restored.config.scale == "smoke"
        assert restored.config == report.config

    def test_defense_instance_specs_refuse_serialization(self):
        from repro.api import ScenarioReport

        class Custom(Defense):
            name = "custom"

        report = ScenarioReport(
            config=ScenarioConfig(
                dataset="bank", model="lr", attack="esa",
                defenses=(Custom(),), scale=MICRO,
            ),
            scenario=None,
            result=None,
            metrics={},
        )
        with pytest.raises(ScenarioError, match="not JSON-serializable"):
            report.to_json()

    def test_persists_in_results_store(self, tmp_path):
        from repro.api import ScenarioReport
        from repro.experiments.store import ResultsStore, RunSummary

        report = self._report()
        store = ResultsStore(tmp_path)
        store.put(
            RunSummary(
                experiment_id="scenarios",
                unit_id="bank:lr:esa:40",
                scale=MICRO.name,
                seed=report.config.seed,
                config_hash="report",
                payload=report.to_payload(),
            )
        )
        loaded = ResultsStore(tmp_path).get(
            "scenarios", MICRO.name, "bank:lr:esa:40", "report"
        )
        restored = ScenarioReport.from_payload(loaded.payload)
        assert restored.config == report.config
        assert restored.metrics == report.metrics
        assert restored.queries_used == report.queries_used


def _assert_registered(config):
    from repro.api import ATTACKS, DATASETS, DEFENSES, MODELS
    from repro.api.scenario import BASELINES

    assert config.dataset in DATASETS
    assert config.model in MODELS
    assert config.attack in ATTACKS
    for spec in config.defenses:
        assert (spec if isinstance(spec, str) else spec[0]) in DEFENSES
    assert set(config.baselines) <= set(BASELINES)


class TestReportDecoding:
    """A damaged report line or payload raises ``ScenarioError``, never guesses."""

    def _line(self) -> bytes:
        from repro.federation import TopologyConfig

        # Every nested decoder: a ScaleConfig dict, a defense spec with
        # params, a topology and the deployment knobs.
        report = run_scenario(
            ScenarioConfig(
                dataset="bank", model="dt", attack="pra", scale=MICRO, seed=0,
                target_fraction=0.4, defenses=(("rounding", {"digits": 3}),),
                baselines=("path",), topology=TopologyConfig(n_parties=3),
                retry=2, quorum=2, telemetry=True, query_budget=40, batch_size=8,
            )
        )
        return report.to_json().encode()

    def test_every_single_bit_flip_raises_only_repro_errors(self):
        from repro.api import ScenarioReport
        from repro.exceptions import ReproError

        line = self._line()
        refused = decoded = 0
        for bit in range(len(line) * 8):
            damaged = bytearray(line)
            damaged[bit // 8] ^= 1 << (bit % 8)
            try:
                restored = ScenarioReport.from_json(bytes(damaged))
            except ReproError:
                refused += 1
                continue
            restored.config.validate()  # whatever decodes is a valid config
            _assert_registered(restored.config)  # ... naming only known components
            decoded += 1
        # Flips inside metric digits decode (JSON carries no checksum).
        assert refused and decoded and refused + decoded == len(line) * 8

    def test_undecodable_lines_chain_the_decode_error(self):
        import json

        from repro.api import ScenarioReport

        line = self._line()
        with pytest.raises(ScenarioError, match="not valid JSON") as info:
            ScenarioReport.from_json(line[:-1])
        assert isinstance(info.value.__cause__, json.JSONDecodeError)
        with pytest.raises(ScenarioError, match="not valid JSON") as info:
            ScenarioReport.from_json(line.replace(b"bank", b"b\xffnk"))
        assert isinstance(info.value.__cause__, UnicodeDecodeError)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("dataset", "bamk", r"unknown dataset 'bamk'; choose from \[.*'bank'"),
            ("model", "dr", r"unknown model 'dr'; choose from \[.*'dt'"),
            ("attack", "pr`", r"unknown attack 'pr`'; choose from \[.*'pra'"),
            ("defenses", [["roundimg", {"digits": 3}]], r"unknown defense 'roundimg'; choose from \[.*'rounding'"),
            ("defenses", ["noize"], r"unknown defense 'noize'"),
            ("baselines", ["pat"], r"unknown baseline 'pat'; choose from \[.*'path'"),
        ],
        ids=["dataset", "model", "attack", "defense-pair", "defense-key", "baseline"],
    )
    def test_unregistered_component_keys_are_refused(self, field, value, match):
        import json

        from repro.api import ScenarioReport
        from repro.api.resume import config_from_payload

        payload = json.loads(self._line())
        payload["config"][field] = value
        with pytest.raises(ScenarioError, match=match):
            ScenarioReport.from_payload(payload)
        with pytest.raises(ScenarioError, match=match):
            config_from_payload(payload["config"])

    @pytest.mark.parametrize(
        "damage, match",
        [
            (lambda p: [p], "report payload must be a JSON object, got list"),
            (lambda p: {**p, "config": "bank"}, "scenario config payload must be"),
            (lambda p: {**p, "metrics": [["mse", 1.0]]}, "report metrics payload must be"),
            (lambda p: {**p, "comm_cost": 7}, "comm_cost payload must be"),
            (lambda p: {**p, "queries_used": "many"}, "malformed field"),
            (
                lambda p: {**p, "config": {**p["config"], "scale": {"name": "x"}}},
                "malformed field",
            ),
            (
                lambda p: {**p, "config": {**p["config"], "scheduler": "sequentail"}},
                "unknown scheduler",
            ),
            (
                lambda p: {**p, "config": {**p["config"], "cache_size": 4}},
                "cache_size",
            ),
        ],
        ids=[
            "list-payload", "string-config", "pair-list-metrics", "int-comm-cost",
            "string-queries", "partial-scale", "unknown-scheduler", "orphan-cache-size",
        ],
    )
    def test_malformed_payloads_raise_scenario_error(self, damage, match):
        import json

        from repro.api import ScenarioReport

        payload = json.loads(self._line())
        with pytest.raises(ScenarioError, match=match):
            ScenarioReport.from_payload(damage(payload))


class TestNestedDecoders:
    """The scale and topology decoders, called directly on a damaged
    payload, raise their typed error naming the field."""

    TOPOLOGY_WRONG = {
        "n_parties": "3",
        "colluders": [1.0],
        "partition": ["uniform"],
        "partition_params": [["alpha", 0.3]],
        "faults": [["drop"]],
    }
    SCALE_WRONG = {
        "name": 7,
        "n_samples": 120.0,
        "n_predictions": "40",
        "n_trials": True,
        "fractions": [0.4, "0.6"],
        "lr_epochs": None,
        "mlp_hidden": [8, 4.0],
        "mlp_epochs": [2],
        "rf_trees": {"n": 3},
        "rf_depth": 2.5,
        "dt_depth": "3",
        "grna_hidden": "8",
        "grna_epochs": False,
        "grna_batch_size": 32.0,
        "distiller_hidden": 16,
        "distiller_dummy": [120],
        "distiller_epochs": "2",
    }

    @staticmethod
    def _topology_payload():
        from repro.federation import TopologyConfig

        return TopologyConfig(
            n_parties=4, colluders=(1,), partition="dirichlet",
            partition_params={"alpha": 0.3},
            faults=(("straggler", {"party": 2, "delay": 0.001}),),
        ).to_payload()

    def test_topology_round_trips(self):
        from repro.federation import TopologyConfig

        payload = self._topology_payload()
        assert TopologyConfig.from_payload(payload).to_payload() == payload

    def test_every_topology_field_is_covered(self):
        assert set(self.TOPOLOGY_WRONG) == set(self._topology_payload())

    @pytest.mark.parametrize("field", list(TOPOLOGY_WRONG))
    def test_topology_missing_field(self, field):
        from repro.exceptions import ValidationError
        from repro.federation import TopologyConfig

        payload = self._topology_payload()
        del payload[field]
        with pytest.raises(ValidationError, match=f"missing field.*'{field}'"):
            TopologyConfig.from_payload(payload)

    @pytest.mark.parametrize("field", list(TOPOLOGY_WRONG))
    def test_topology_wrong_type(self, field):
        from repro.exceptions import ValidationError
        from repro.federation import TopologyConfig

        payload = {**self._topology_payload(), field: self.TOPOLOGY_WRONG[field]}
        with pytest.raises(ValidationError, match=f"topology field '{field}' must be"):
            TopologyConfig.from_payload(payload)

    def test_topology_validate_refuses_an_unhashable_partition(self):
        from repro.exceptions import ValidationError
        from repro.federation import TopologyConfig

        with pytest.raises(ValidationError, match="unknown partition strategy"):
            TopologyConfig(partition=["uniform"]).validate()

    def test_topology_payload_must_be_an_object(self):
        from repro.exceptions import ValidationError
        from repro.federation import TopologyConfig

        with pytest.raises(ValidationError, match="must be a JSON object, got list"):
            TopologyConfig.from_payload([4, [1]])

    @staticmethod
    def _scale_payload():
        import dataclasses

        return dataclasses.asdict(MICRO)

    def test_scale_round_trips(self):
        import json

        from repro.api.scenario import _decode_scale

        assert _decode_scale(json.loads(json.dumps(self._scale_payload()))) == MICRO
        assert _decode_scale("smoke") == "smoke"

    def test_every_scale_field_is_covered(self):
        assert set(self.SCALE_WRONG) == set(self._scale_payload())

    @pytest.mark.parametrize("field", list(SCALE_WRONG))
    def test_scale_missing_field(self, field):
        from repro.api.scenario import _decode_scale

        payload = self._scale_payload()
        del payload[field]
        with pytest.raises(ScenarioError, match=f"missing field.*'{field}'"):
            _decode_scale(payload)

    @pytest.mark.parametrize("field", list(SCALE_WRONG))
    def test_scale_wrong_type(self, field):
        from repro.api.scenario import _decode_scale

        payload = {**self._scale_payload(), field: self.SCALE_WRONG[field]}
        with pytest.raises(ScenarioError, match=f"scale field '{field}' must be"):
            _decode_scale(payload)

    @pytest.mark.parametrize(
        "damage, match",
        [
            (lambda p: [p], "preset name or a ScaleConfig object, got list"),
            (lambda p: {**p, "extra": 1}, r"unknown field\(s\) \['extra'\]"),
            (lambda p: {**p, "n_predictions": p["n_samples"] + 1}, "inconsistent.*exceeds"),
            (lambda p: {**p, "fractions": [1.5]}, "inconsistent.*fractions"),
        ],
        ids=["list", "unknown-field", "too-many-predictions", "fraction-range"],
    )
    def test_scale_shape_and_consistency(self, damage, match):
        from repro.api.scenario import _decode_scale

        with pytest.raises(ScenarioError, match=match):
            _decode_scale(damage(self._scale_payload()))


class TestPackaging:
    def test_console_script_target_resolves(self):
        from repro.experiments.runner import main

        assert callable(main)

    def test_pyproject_declares_entry_point(self):
        import pathlib
        import tomllib

        root = pathlib.Path(__file__).resolve().parent.parent
        data = tomllib.loads((root / "pyproject.toml").read_text())
        assert (
            data["project"]["scripts"]["repro-experiments"]
            == "repro.experiments.runner:main"
        )
        assert data["project"]["requires-python"] == ">=3.10"

    def test_version_in_sync(self):
        import pathlib
        import tomllib

        import repro

        root = pathlib.Path(__file__).resolve().parent.parent
        data = tomllib.loads((root / "pyproject.toml").read_text())
        assert data["project"]["version"] == repro.__version__
