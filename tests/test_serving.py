"""Serving layer: QueryLedger, PredictionService, and the scenario knobs.

The acceptance bar of the serving redesign, as tests:

- batched and per-sample ``query()`` are bit-identical across all four
  model kinds (chunking is a pure execution detail);
- the ledger meters per consumer and a finite budget fails *mid-attack*
  with a clean :class:`QueryBudgetExceededError` (or truncates, when the
  scenario opts into it);
- the response cache replays by sample hash, counts hits, and never
  charges the budget;
- the ``on_query`` hook point serves the online defense family
  (per-query noise, rate limiting, duplicate auditing).
"""

import numpy as np
import pytest

from repro.api import (
    DefenseStack,
    Deployment,
    ScenarioConfig,
    build_scenario,
    make_model,
    run_scenario,
)
from repro.config import ScaleConfig
from repro.exceptions import (
    ProtocolError,
    QueryBudgetExceededError,
    ScenarioError,
    ValidationError,
)
from repro.checkpoint import CheckpointPause, CheckpointPlan
from repro.federated import FeaturePartition, train_vertical_model
from repro.federation import FederationRuntime
from repro.serving import PredictionService, QueryLedger
from repro.utils.random import spawn_rngs

TINY = ScaleConfig(
    name="tiny-serving",
    n_samples=200,
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


def make_blobs(n=400, d=6, c=3, seed=0, class_sep=3.0):
    """Small separable classification data in [0, 1]^d (conftest's recipe;
    inlined because two conftest modules share one import name)."""
    rng = np.random.default_rng(seed)
    centers = rng.random((c, d))
    y = rng.integers(0, c, size=n)
    X = centers[y] + rng.normal(0, 1.0 / class_sep, size=(n, d))
    X = (X - X.min(0)) / (X.max(0) - X.min(0))
    return X, y.astype(np.int64)


def make_deployment(model_kind="lr", *, n=120, seed=0, defense_stack=None, **service_kwargs):
    """A tiny trained VFL deployment wrapped in a PredictionService."""
    X, y = make_blobs(n=2 * n, seed=seed)
    partition = FeaturePartition.adversary_target(6, 0.4, rng=seed)
    model = make_model(model_kind, TINY, spawn_rngs(seed, 1)[0])
    vfl = train_vertical_model(model, X[:n], y[:n], X[n:], y[n:], partition)
    if defense_stack is not None:
        vfl.model = defense_stack.wrap(vfl.model, rng=np.random.default_rng(7))
    service = PredictionService(vfl, defense_stack=defense_stack, **service_kwargs)
    return service


class TestQueryLedger:
    def test_unlimited_by_default(self):
        ledger = QueryLedger()
        assert ledger.charge(10_000, "grna") == 10_000
        assert ledger.remaining() is None
        assert ledger.queries_used == 10_000

    def test_per_consumer_counts(self):
        ledger = QueryLedger()
        ledger.charge(5, "esa")
        ledger.charge(7, "grna")
        ledger.charge(3, "esa")
        assert ledger.count("esa") == 8
        assert ledger.count("grna") == 7
        assert ledger.queries_used == 15

    def test_budget_exhaustion_is_atomic(self):
        ledger = QueryLedger(budget=10)
        ledger.charge(8, "esa")
        with pytest.raises(QueryBudgetExceededError, match="2 remaining"):
            ledger.charge(3, "esa")
        # The failed request charged nothing.
        assert ledger.queries_used == 8
        assert ledger.remaining() == 2

    def test_grant_truncates(self):
        ledger = QueryLedger(budget=10)
        assert ledger.grant(8, "a") == 8
        assert ledger.grant(8, "a") == 2
        assert ledger.grant(8, "a") == 0
        assert ledger.queries_used == 10

    def test_per_consumer_budgets(self):
        ledger = QueryLedger(consumer_budgets={"esa": 5})
        ledger.charge(100, "grna")  # no global cap
        with pytest.raises(QueryBudgetExceededError, match="'esa'"):
            ledger.charge(6, "esa")
        assert ledger.remaining("esa") == 5

    def test_cache_hits_never_charged(self):
        ledger = QueryLedger(budget=5)
        ledger.charge(5, "a")
        ledger.record_cache_hits(40, "a")
        assert ledger.cache_hits == 40
        assert ledger.queries_used == 5
        assert ledger.remaining() == 0

    def test_invalid_requests(self):
        with pytest.raises(ValidationError):
            QueryLedger(budget=0)
        with pytest.raises(ValidationError):
            QueryLedger().charge(0, "a")

    def test_as_dict_snapshot(self):
        ledger = QueryLedger(budget=10)
        ledger.charge(4, "esa")
        ledger.record_cache_hits(2, "esa")
        snapshot = ledger.as_dict()
        assert snapshot["budget"] == 10
        assert snapshot["counts"] == {"esa": 4}
        assert snapshot["cache_hit_counts"] == {"esa": 2}


class TestBatchedQueries:
    @pytest.mark.parametrize("model_kind", ["lr", "nn", "dt", "rf"])
    def test_batched_equals_serial_bit_identical(self, model_kind):
        """One request vs a per-sample loop: identical bytes, all models.

        Every round of a ``max_batch`` service executes at one canonical
        kernel shape, so how the caller partitions the request cannot
        change a single bit of the responses.
        """
        indices = np.arange(37)
        batched = make_deployment(model_kind, max_batch=5).query(indices)
        serial_service = make_deployment(model_kind, max_batch=5)
        serial = np.vstack([serial_service.query([i]) for i in indices])
        pairs_service = make_deployment(model_kind, max_batch=5)
        pairs = np.vstack(
            [pairs_service.query(indices[i : i + 2]) for i in range(0, 36, 2)]
            + [pairs_service.query([36])]
        )
        np.testing.assert_array_equal(batched, serial)
        np.testing.assert_array_equal(batched, pairs)

    @pytest.mark.parametrize("model_kind", ["dt", "rf"])
    def test_tree_models_chunk_invariant_even_unbatched(self, model_kind):
        """Tree traversal has no BLAS kernels: any chunking is exact."""
        indices = np.arange(37)
        full = make_deployment(model_kind).query(indices)
        chunked = make_deployment(model_kind, max_batch=5).query(indices)
        np.testing.assert_array_equal(full, chunked)

    @pytest.mark.parametrize("model_kind", ["lr", "nn"])
    def test_unbatched_vs_batched_within_reassociation_ulp(self, model_kind):
        """Across *different* round shapes, BLAS may reassociate sums;
        the drift is bounded by a couple of ulp and never flips argmax."""
        indices = np.arange(37)
        full = make_deployment(model_kind).query(indices)
        chunked = make_deployment(model_kind, max_batch=7).query(indices)
        np.testing.assert_allclose(full, chunked, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(full.argmax(axis=1), chunked.argmax(axis=1))

    def test_query_matches_protocol_directly(self):
        service = make_deployment("lr")
        indices = np.arange(20)
        np.testing.assert_array_equal(service.query(indices), service.vfl.predict(indices))

    def test_empty_request_rejected(self):
        with pytest.raises(ProtocolError):
            make_deployment("lr").query([])

    def test_query_all(self):
        service = make_deployment("lr")
        assert service.query_all().shape == (service.n_samples, service.n_classes)


class TestBudgets:
    def test_mid_attack_exhaustion_keeps_partial_count(self):
        service = make_deployment("lr", query_budget=25, max_batch=10)
        with pytest.raises(QueryBudgetExceededError, match="consumer 'esa'"):
            service.query(np.arange(40), consumer="esa")
        # Two full batches were served and charged before the third failed.
        assert service.ledger.count("esa") == 20
        assert service.ledger.remaining() == 5

    def test_truncate_serves_the_affordable_prefix(self):
        service = make_deployment("lr", query_budget=25, max_batch=10, exhaustion="truncate")
        v = service.query(np.arange(40), consumer="esa")
        assert v.shape == (25, service.n_classes)
        assert service.ledger.queries_used == 25
        # Same canonical round shape -> the prefix is bitwise identical.
        reference = make_deployment("lr", max_batch=10).query(np.arange(25))
        np.testing.assert_array_equal(v, reference)

    def test_shared_ledger_across_services(self):
        ledger = QueryLedger(budget=30)
        a = make_deployment("lr", ledger=ledger)
        b = make_deployment("dt", ledger=ledger, seed=1)
        a.query(np.arange(20), consumer="esa")
        with pytest.raises(QueryBudgetExceededError):
            b.query(np.arange(20), consumer="pra")

    def test_ledger_and_budget_mutually_exclusive(self):
        with pytest.raises(ValidationError):
            make_deployment("lr", ledger=QueryLedger(), query_budget=5)


class TestResponseCache:
    def test_cache_hit_counting(self):
        service = make_deployment("lr", cache=True)
        first = service.query(np.arange(15), consumer="a")
        second = service.query(np.arange(15), consumer="a")
        np.testing.assert_array_equal(first, second)
        assert service.ledger.queries_used == 15
        assert service.ledger.cache_hit_count("a") == 15
        assert service.cache_entries == 15

    def test_partial_hits_only_charge_misses(self):
        service = make_deployment("lr", cache=True)
        service.query(np.arange(10), consumer="a")
        service.query(np.arange(5, 20), consumer="a")
        assert service.ledger.queries_used == 20
        assert service.ledger.cache_hits == 5

    def test_repeat_queries_free_under_budget(self):
        service = make_deployment("lr", cache=True, query_budget=10)
        v1 = service.query(np.arange(10), consumer="a")
        # Budget exhausted, but replays still serve.
        v2 = service.query(np.arange(10), consumer="a")
        np.testing.assert_array_equal(v1, v2)

    def test_intra_chunk_duplicates_charged_once(self):
        service = make_deployment("lr", cache=True, query_budget=2)
        v = service.query([5, 5], consumer="a")
        np.testing.assert_array_equal(v[0], v[1])
        assert service.ledger.queries_used == 1
        assert service.ledger.cache_hits == 1
        # The spared budget is still spendable.
        service.query([6], consumer="a")
        assert service.ledger.queries_used == 2

    def test_cache_replays_noisy_responses(self):
        stack = DefenseStack.from_specs([("query_noise", {"scale": 0.05})])
        cached = make_deployment("lr", defense_stack=stack, cache=True)
        v1 = cached.query(np.arange(8))
        v2 = cached.query(np.arange(8))
        # A cached response replays the noise drawn the first time...
        np.testing.assert_array_equal(v1, v2)
        fresh = make_deployment("lr", defense_stack=DefenseStack.from_specs(
            [("query_noise", {"scale": 0.05})]
        ))
        w1 = fresh.query(np.arange(8))
        w2 = fresh.query(np.arange(8))
        # ...while an uncached repeat draws fresh noise.
        assert not np.array_equal(w1, w2)

    def test_release_model_unwraps_defenses(self):
        stack = DefenseStack.from_specs([("rounding", {"digits": 2})])
        service = make_deployment("lr", defense_stack=stack)
        from repro.defenses import RoundedModel

        assert isinstance(service.vfl.model, RoundedModel)
        assert not isinstance(service.release_model(), RoundedModel)


class TestOnlineDefenses:
    def test_rate_limit_cuts_off_service(self):
        stack = DefenseStack.from_specs([("rate_limit", {"max_queries": 20})])
        service = make_deployment("lr", defense_stack=stack, max_batch=10)
        service.query(np.arange(20), consumer="a")
        with pytest.raises(QueryBudgetExceededError, match="rate limit"):
            service.query(np.arange(10), consumer="a")
        # The refused batch was refunded: the ledger counts only what
        # the consumer actually received.
        assert service.ledger.count("a") == 20

    def test_query_noise_is_deterministic_per_stream(self):
        def build():
            return make_deployment(
                "lr",
                defense_stack=DefenseStack.from_specs(
                    [("query_noise", {"scale": 0.02, "rng": 3})]
                ),
            )

        v1 = build().query(np.arange(12))
        v2 = build().query(np.arange(12))
        np.testing.assert_array_equal(v1, v2)
        clean = make_deployment("lr").query(np.arange(12))
        assert not np.array_equal(v1, clean)
        np.testing.assert_allclose(v1.sum(axis=1), 1.0)

    def test_query_audit_counts_duplicates(self):
        from repro.api.defenses import QueryAuditDefense

        audit = QueryAuditDefense()
        service = make_deployment("lr", defense_stack=DefenseStack([audit]))
        service.query(np.arange(10))
        service.query(np.arange(5))
        assert audit.report() == {
            "distinct_samples": 10,
            "duplicates": 5,
            "consumer_queries": {"anonymous": 15},
            "consumer_duplicates": {"anonymous": 5},
        }

    def test_query_audit_sees_cache_replays(self):
        """The cache makes repeats free, not invisible: replayed rows are
        announced to on_query and the audit still catches them."""
        from repro.api.defenses import QueryAuditDefense

        audit = QueryAuditDefense(max_repeats=2)
        service = make_deployment(
            "lr", defense_stack=DefenseStack([audit]), cache=True
        )
        service.query(np.arange(6))
        service.query(np.arange(6))  # pure replay
        assert audit.report() == {
            "distinct_samples": 6,
            "duplicates": 6,
            "consumer_queries": {"anonymous": 12},
            "consumer_duplicates": {"anonymous": 6},
        }
        with pytest.raises(QueryBudgetExceededError, match="query audit"):
            service.query(np.arange(6))
        # Only the first round was chargeable.
        assert service.ledger.queries_used == 6

    def test_query_audit_max_repeats_refuses(self):
        from repro.api.defenses import QueryAuditDefense

        audit = QueryAuditDefense(max_repeats=2)
        service = make_deployment("lr", defense_stack=DefenseStack([audit]))
        service.query(np.arange(6))
        service.query(np.arange(6))
        with pytest.raises(QueryBudgetExceededError, match="query audit"):
            service.query(np.arange(6))


class TestScenarioIntegration:
    def test_default_budget_reports_full_pool(self):
        report = run_scenario(
            ScenarioConfig(
                dataset="bank", model="lr", attack="esa",
                target_fraction=0.4, scale=TINY, seed=0,
            )
        )
        assert report.queries_used == TINY.n_predictions
        assert report.scenario.service.ledger.count("esa") == TINY.n_predictions

    @pytest.mark.parametrize(
        "attack,model", [("esa", "lr"), ("grna", "lr"), ("grna", "nn")]
    )
    def test_finite_budget_truncates_attack_cleanly(self, attack, model):
        with pytest.raises(QueryBudgetExceededError, match="query budget exceeded"):
            run_scenario(
                ScenarioConfig(
                    dataset="bank", model=model, attack=attack,
                    target_fraction=0.4, scale=TINY, seed=0,
                    query_budget=TINY.n_predictions // 2,
                )
            )

    def test_truncate_mode_attacks_the_affordable_prefix(self):
        budget = TINY.n_predictions // 2
        report = run_scenario(
            ScenarioConfig(
                dataset="bank", model="lr", attack="esa",
                target_fraction=0.4, scale=TINY, seed=0,
                query_budget=budget, batch_size=8,
                on_budget_exhausted="truncate",
            )
        )
        assert report.scenario.V.shape[0] == budget
        assert report.queries_used == budget
        assert np.isfinite(report.metrics["mse"])
        # The truncated pool is a prefix of the unbudgeted accumulation
        # (compared at the same canonical round shape).
        full = run_scenario(
            ScenarioConfig(
                dataset="bank", model="lr", attack="esa",
                target_fraction=0.4, scale=TINY, seed=0, batch_size=8,
            )
        )
        np.testing.assert_array_equal(
            report.scenario.V, full.scenario.V[:budget]
        )

    def test_serving_knobs_keep_metrics_bit_identical(self):
        """Metering and caching are observation-only: with the default
        unbatched round, a finite-but-ample budget plus the response
        cache change nothing about the published numbers."""
        base = ScenarioConfig(
            dataset="bank", model="lr", attack="esa",
            target_fraction=0.4, scale=TINY, seed=0,
            baselines=("uniform", "gaussian"),
        )
        knobbed = ScenarioConfig(
            dataset="bank", model="lr", attack="esa",
            target_fraction=0.4, scale=TINY, seed=0,
            baselines=("uniform", "gaussian"),
            cache=True, query_budget=10 * TINY.n_predictions,
        )
        assert run_scenario(base).metrics == run_scenario(knobbed).metrics

    def test_batched_scenario_metrics_within_ulp_of_default(self):
        """batch_size only re-shapes protocol rounds; the attack's metrics
        agree with the unbatched default to reassociation precision."""
        base = ScenarioConfig(
            dataset="bank", model="lr", attack="esa",
            target_fraction=0.4, scale=TINY, seed=0,
        )
        batched = ScenarioConfig(
            dataset="bank", model="lr", attack="esa",
            target_fraction=0.4, scale=TINY, seed=0, batch_size=7,
        )
        a, b = run_scenario(base), run_scenario(batched)
        np.testing.assert_allclose(
            a.metrics["mse"], b.metrics["mse"], rtol=1e-12
        )

    def test_attack_charged_under_its_own_name(self):
        report = run_scenario(
            ScenarioConfig(
                dataset="bank", model="nn", attack="grna",
                target_fraction=0.4, scale=TINY, seed=0,
            )
        )
        assert report.scenario.service.ledger.count("grna") == TINY.n_predictions

    def test_invalid_knobs_fail_fast(self):
        for kwargs in (
            {"query_budget": 0},
            {"batch_size": 0},
            {"on_budget_exhausted": "explode"},
        ):
            with pytest.raises(ScenarioError):
                run_scenario(
                    ScenarioConfig(
                        dataset="bank", model="lr", attack="esa",
                        target_fraction=0.4, scale=TINY, seed=0, **kwargs,
                    )
                )

    def test_prebuilt_scenario_rejects_serving_knobs(self):
        """Serving knobs configure the deployment at build time; pairing
        them with a prebuilt scenario would silently skip the metering,
        so the facade refuses instead."""
        shared = build_scenario("bank", "lr", 0.4, TINY, 0)
        for kwargs in (
            {"query_budget": 10},
            {"batch_size": 8},
            {"cache": True},
            {"on_budget_exhausted": "truncate"},
        ):
            with pytest.raises(ScenarioError, match="prebuilt"):
                run_scenario(
                    ScenarioConfig(
                        dataset="bank", model="lr", attack="esa",
                        target_fraction=0.4, scale=TINY, seed=0, **kwargs,
                    ),
                    scenario=shared,
                )

    def test_cache_size_knob_reaches_the_service(self):
        scenario = build_scenario(
            "bank", "lr", 0.4, TINY, 0, deployment=Deployment(cache=True, cache_size=32)
        )
        assert scenario.service.cache_enabled
        assert scenario.service.cache_size == 32

    def test_cache_size_round_trips_through_payload(self):
        from repro.api import ScenarioReport

        config = ScenarioConfig(
            dataset="bank", model="lr", attack="esa",
            target_fraction=0.4, scale=TINY, seed=0,
            cache=True, cache_size=8,
        )
        report = run_scenario(config)
        restored = ScenarioReport.from_payload(report.to_payload())
        assert restored.config.cache_size == 8
        # Pre-knob payloads carry no cache_size key: unbounded default.
        payload = report.to_payload()
        del payload["config"]["cache_size"]
        assert ScenarioReport.from_payload(payload).config.cache_size is None

    def test_cache_size_invalid_knobs_fail_fast(self):
        for kwargs in ({"cache_size": 0, "cache": True}, {"cache_size": 16}):
            with pytest.raises(ScenarioError, match="cache_size"):
                run_scenario(
                    ScenarioConfig(
                        dataset="bank", model="lr", attack="esa",
                        target_fraction=0.4, scale=TINY, seed=0, **kwargs,
                    )
                )
        with pytest.raises(ValidationError, match="cache_size"):
            make_deployment("lr", cache_size=4)  # bound without a cache
        with pytest.raises(ValidationError, match="cache_scope"):
            make_deployment("lr", cache=True, cache_scope="tenant")

    def test_prebuilt_scenario_rejects_cache_size(self):
        shared = build_scenario("bank", "lr", 0.4, TINY, 0)
        with pytest.raises(ScenarioError, match="prebuilt"):
            run_scenario(
                ScenarioConfig(
                    dataset="bank", model="lr", attack="esa",
                    target_fraction=0.4, scale=TINY, seed=0,
                    cache=True, cache_size=4,
                ),
                scenario=shared,
            )

    def test_ample_bound_keeps_metrics_bit_identical(self):
        """An LRU bound that never binds is observation-only."""
        base = ScenarioConfig(
            dataset="bank", model="lr", attack="esa",
            target_fraction=0.4, scale=TINY, seed=0, cache=True,
        )
        bounded = ScenarioConfig(
            dataset="bank", model="lr", attack="esa",
            target_fraction=0.4, scale=TINY, seed=0,
            cache=True, cache_size=10 * TINY.n_predictions,
        )
        assert run_scenario(base).metrics == run_scenario(bounded).metrics

    def test_audit_hashes_computed_once_per_chunk(self, monkeypatch):
        """With a hash-consuming defense and no cache, the service
        fingerprints each chunk exactly once and hands the result to the
        hook — the hook never re-assembles the joint rows."""
        from repro.api.defenses import QueryAuditDefense

        audit = QueryAuditDefense()
        service = make_deployment(
            "lr", defense_stack=DefenseStack([audit]), max_batch=10
        )
        calls = []
        original = type(service.vfl).sample_hashes

        def counting(vfl_self, indices):
            calls.append(len(np.atleast_1d(indices)))
            return original(vfl_self, indices)

        monkeypatch.setattr(type(service.vfl), "sample_hashes", counting)
        service.query(np.arange(20), consumer="a")
        assert calls == [10, 10]
        assert audit.report()["distinct_samples"] == 20

    def test_build_scenario_attaches_service(self):
        scenario = build_scenario("bank", "lr", 0.4, TINY, 0)
        assert scenario.service is not None
        assert scenario.service.ledger.queries_used == TINY.n_predictions
        assert scenario.service.release_model() is scenario.model

    def test_rate_limited_deployment_stops_grna(self):
        with pytest.raises(QueryBudgetExceededError, match="rate limit"):
            run_scenario(
                ScenarioConfig(
                    dataset="bank", model="nn", attack="grna",
                    defenses=(("rate_limit", {"max_queries": TINY.n_predictions // 2}),),
                    target_fraction=0.4, scale=TINY, seed=0,
                    batch_size=8,
                )
            )


class TestCheckpointedTruncation:
    """One accumulation loop: checkpointed == plain when a budget truncates.

    80 rows in chunks of 8. The query budget (30) binds mid-chunk 3 —
    the ``exhausted`` return; the comm budget (five rounds of bytes)
    binds on chunk 5 — the refused-round :class:`CommBudgetExceededError`.
    ``halt_after`` either pauses mid-accumulation or exactly at the
    binding chunk, whose snapshot records ``done``.
    """

    ROWS = np.arange(80)

    @staticmethod
    def service(bind):
        X, y = make_blobs(n=240, seed=0)
        partition = FeaturePartition.adversary_target(6, 0.4, rng=0)
        model = make_model("lr", TINY, spawn_rngs(0, 1)[0])
        vfl = train_vertical_model(model, X[:120], y[:120], X[120:], y[120:], partition)
        runtime = FederationRuntime(vfl)
        runtime.ledger.byte_budget = (
            runtime.estimate_predict_bytes(40, max_batch=8) if bind == "comm" else None
        )
        return PredictionService(
            vfl,
            runtime=runtime,
            query_budget=30 if bind == "query" else None,
            max_batch=8,
            exhaustion="truncate",
        )

    def run(self, bind, plan=None):
        service = self.service(bind)
        rows = service.query(self.ROWS, consumer="adv", checkpoint=plan)
        return rows, service.ledger.as_dict(), service.runtime.ledger.as_dict()

    @pytest.mark.parametrize(
        "bind, halt_after", [("query", 2), ("query", 4), ("comm", 2), ("comm", 6)]
    )
    def test_fresh_checkpointed_and_resumed_agree(self, bind, halt_after, tmp_path):
        plain = self.run(bind)
        # The binding chunk is the last protocol round attempted.
        assert plain[0].shape[0] == (30 if bind == "query" else 40)
        assert plain[2]["rounds"] == (4 if bind == "query" else 6)
        checkpointed = self.run(bind, CheckpointPlan(tmp_path / "fresh"))
        with pytest.raises(CheckpointPause):
            self.run(bind, CheckpointPlan(tmp_path / "halted", halt_after=halt_after))
        resumed = self.run(bind, CheckpointPlan(tmp_path / "halted"))
        for other in (checkpointed, resumed):
            assert np.array_equal(other[0], plain[0])
            assert other[1] == plain[1]
            assert other[2] == plain[2]
