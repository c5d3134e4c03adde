"""Workload layer: traces, arrival processes, and sharded replay.

The acceptance bar of the traffic-simulation PR, as tests:

- every arrival process is a deterministic, sorted, in-horizon sampler;
- traces are deterministic from their seed, merge by arrival time with
  shared consumers unified, and guarantee tenant coverage;
- concurrent sharded replay is **bit-identical** to serial replay of the
  same shards for all four model kinds, and the merged per-consumer
  accounting is invariant to the shard count;
- the LRU cache bound evicts correctly (including the intra-chunk
  hazard), scopes per tenant, and reconciles on the ledger;
- the merged report ranks the accumulating attacker top-1.
"""

import threading

import numpy as np
import pytest

from repro.api import make_model
from repro.config import ScaleConfig
from repro.exceptions import ValidationError
from repro.federated import FeaturePartition, train_vertical_model
from repro.serving import PredictionService
from repro.utils.random import spawn_rngs
from repro.workload import (
    ARRIVALS,
    ShardedPredictionService,
    TrafficTrace,
    attacker_trace,
    make_trace,
    shard_of,
)

TINY = ScaleConfig(
    name="tiny-workload",
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


def make_blobs(n=160, d=6, c=3, seed=0, class_sep=3.0):
    rng = np.random.default_rng(seed)
    centers = rng.random((c, d))
    y = rng.integers(0, c, size=n)
    X = centers[y] + rng.normal(0, 1.0 / class_sep, size=(n, d))
    X = (X - X.min(0)) / (X.max(0) - X.min(0))
    return X, y.astype(np.int64)


def make_vfl(model_kind="lr", *, n=80, seed=0):
    """A tiny trained VFL deployment (prediction pool of ``n`` samples)."""
    X, y = make_blobs(n=2 * n, seed=seed)
    partition = FeaturePartition.adversary_target(6, 0.4, rng=seed)
    model = make_model(model_kind, TINY, spawn_rngs(seed, 1)[0])
    return train_vertical_model(model, X[:n], y[:n], X[n:], y[n:], partition)


def small_trace(vfl, *, seed=3):
    """A benign population with one accumulating attacker merged in."""
    benign = make_trace(
        40, 120, n_samples=vfl.n_samples, batch_size=2, seed=seed
    )
    return benign.merge(
        attacker_trace(
            "needle",
            np.arange(12),
            repeats=5,
            batch_size=6,
            seed=seed + 1,
        )
    )


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------
class TestArrivals:
    @pytest.mark.parametrize("process", sorted(ARRIVALS.names()))
    def test_sorted_in_horizon_deterministic(self, process):
        times = ARRIVALS.create(process, np.random.default_rng(5), 500, 2.5)
        again = ARRIVALS.create(process, np.random.default_rng(5), 500, 2.5)
        assert times.shape == (500,)
        assert times.dtype == np.float64
        assert np.all(np.diff(times) >= 0.0)
        assert times.min() >= 0.0 and times.max() < 2.5
        np.testing.assert_array_equal(times, again)

    @pytest.mark.parametrize("process", sorted(ARRIVALS.names()))
    def test_bad_sizes_rejected(self, process):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            ARRIVALS.create(process, rng, 0, 1.0)
        with pytest.raises(ValidationError):
            ARRIVALS.create(process, rng, 10, 0.0)

    def test_diurnal_concentrates_on_the_peak(self):
        """λ(t) ∝ 1 + depth·sin: the first half-period outweighs the second."""
        times = ARRIVALS.create(
            "diurnal", np.random.default_rng(1), 4000, 1.0, depth=0.9
        )
        assert (times < 0.5).mean() > 0.6

    def test_bursty_clusters(self):
        """Few bursts with tiny spread → times pile up on few values."""
        times = ARRIVALS.create(
            "bursty",
            np.random.default_rng(2),
            2000,
            1.0,
            n_bursts=3,
            spread=1e-4,
        )
        assert np.unique(np.round(times, 2)).size < 20


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------
class TestTrafficTrace:
    def test_make_trace_deterministic_and_covering(self):
        kwargs = dict(n_samples=50, batch_size=3, seed=9)
        trace = make_trace(30, 100, **kwargs)
        again = make_trace(30, 100, **kwargs)
        assert trace.n_events == 100
        assert trace.n_queries == 300
        # Every named tenant appears when events >= consumers.
        assert trace.n_consumers == 30
        np.testing.assert_array_equal(trace.times, again.times)
        np.testing.assert_array_equal(trace.consumer_ids, again.consumer_ids)
        np.testing.assert_array_equal(trace.sample_ids, again.sample_ids)
        assert trace.names == again.names
        other = make_trace(30, 100, n_samples=50, batch_size=3, seed=10)
        assert not np.array_equal(trace.times, other.times)

    def test_merge_matches_naive_event_merge(self):
        left = make_trace(8, 25, n_samples=20, batch_size=2, seed=1)
        right = make_trace(5, 15, n_samples=20, batch_size=3, seed=2, prefix="svc")
        merged = left.merge(right)
        assert merged.n_events == 40
        assert merged.n_queries == left.n_queries + right.n_queries
        naive = sorted(
            [(t, name, tuple(ids)) for t, name, ids in left]
            + [(t, name, tuple(ids)) for t, name, ids in right],
            key=lambda event: event[0],
        )
        got = [(t, name, tuple(ids)) for t, name, ids in merged]
        assert got == naive

    def test_merge_unifies_shared_consumers(self):
        left = make_trace(4, 10, n_samples=10, seed=1)
        right = make_trace(2, 6, n_samples=10, seed=2)  # same "client-i" names
        merged = left.merge(right)
        assert merged.names == left.names  # no duplicate ids for one tenant
        assert merged.n_consumers == 4

    def test_attacker_trace_tiles_the_pool(self):
        trace = attacker_trace("adv", np.array([3, 1, 4]), repeats=4, batch_size=5)
        assert trace.names == ("adv",)
        assert trace.n_queries == 12
        np.testing.assert_array_equal(
            trace.sample_ids, np.tile([3, 1, 4], 4)
        )
        # Ragged tail event: offsets still span the flat array exactly.
        assert trace.offsets[-1] == 12
        assert trace.n_events == 3

    def test_validation(self):
        with pytest.raises(ValidationError, match="sorted"):
            TrafficTrace(
                times=np.array([1.0, 0.5]),
                consumer_ids=np.zeros(2, dtype=np.int64),
                names=("a",),
                sample_ids=np.zeros(2, dtype=np.int64),
                offsets=np.array([0, 1, 2]),
            )
        with pytest.raises(ValidationError, match="span"):
            TrafficTrace(
                times=np.array([0.5]),
                consumer_ids=np.zeros(1, dtype=np.int64),
                names=("a",),
                sample_ids=np.zeros(3, dtype=np.int64),
                offsets=np.array([0, 2]),
            )
        with pytest.raises(ValidationError):
            make_trace(0, 10, n_samples=5)
        with pytest.raises(ValidationError):
            attacker_trace("adv", np.array([], dtype=np.int64))


# ----------------------------------------------------------------------
# Sharding
# ----------------------------------------------------------------------
class TestShardOf:
    def test_stable_and_in_range(self):
        names = [f"client-{i}" for i in range(200)]
        pins = [shard_of(name, 4) for name in names]
        assert all(0 <= pin < 4 for pin in pins)
        assert pins == [shard_of(name, 4) for name in names]
        # Content-hash pinning, not Python's salted hash: a fixed anchor.
        assert shard_of("client-0", 4) == 0
        assert shard_of("client-1", 4) == 2

    def test_spreads_consumers(self):
        pins = [shard_of(f"client-{i}", 4) for i in range(1000)]
        counts = np.bincount(pins, minlength=4)
        assert counts.min() > 150  # no starved shard


AUDITED = dict(
    defense_specs=("query_audit",), cache=True, cache_size=64, max_batch=16
)


class TestShardedReplay:
    @pytest.mark.parametrize("model_kind", ["lr", "nn", "dt", "rf"])
    def test_threads_bit_identical_to_serial(self, model_kind):
        """Concurrent replay == serial replay of the same shards, on the
        full accounting (ledgers, refusals, audit verdicts), per model."""
        vfl = make_vfl(model_kind)
        trace = small_trace(vfl)

        def replay(mode):
            service = ShardedPredictionService(
                vfl, n_shards=4, seed=5, **AUDITED
            )
            return service.replay(trace, mode=mode)

        assert replay("threads").accounting() == replay("serial").accounting()

    @pytest.mark.parametrize("n_shards", [2, 4, 7])
    def test_consumer_accounting_invariant_to_shard_count(self, n_shards):
        """With consumer-scoped serving state, the merged per-consumer
        accounting does not depend on the layout at all."""
        vfl = make_vfl("lr")
        trace = small_trace(vfl)
        oracle = ShardedPredictionService(vfl, n_shards=1, seed=5, **AUDITED)
        sharded = ShardedPredictionService(
            vfl, n_shards=n_shards, seed=5, **AUDITED
        )
        assert (
            sharded.replay(trace, mode="threads").consumer_accounting()
            == oracle.replay(trace, mode="serial").consumer_accounting()
        )

    def test_every_trace_consumer_is_served(self):
        vfl = make_vfl("lr")
        trace = small_trace(vfl)
        report = ShardedPredictionService(vfl, n_shards=4, seed=5).replay(trace)
        assert len(report.ledger["counts"]) == trace.n_consumers

    def test_threaded_replay_serves_shard_zero_on_the_calling_thread(
        self, monkeypatch
    ):
        """The caller serves shard 0 and pool workers the other shards;
        a worker's failure still surfaces from ``replay``."""
        vfl = make_vfl("lr")
        trace = small_trace(vfl)
        service = ShardedPredictionService(vfl, n_shards=3, seed=5)
        replay_shard = service._replay_shard
        threads: dict[int, int] = {}

        def record(trace, shard, events, **kwargs):
            threads[shard] = threading.get_ident()
            return replay_shard(trace, shard, events, **kwargs)

        monkeypatch.setattr(service, "_replay_shard", record)
        service.replay(trace, mode="threads")
        assert threads[0] == threading.get_ident()
        assert threading.get_ident() not in (threads[1], threads[2])

        def fail_on_shard_two(trace, shard, events, **kwargs):
            if shard == 2:
                raise RuntimeError("shard 2 failed")
            return replay_shard(trace, shard, events, **kwargs)

        monkeypatch.setattr(service, "_replay_shard", fail_on_shard_two)
        with pytest.raises(RuntimeError, match="shard 2 failed"):
            service.replay(trace, mode="threads")
        assert vfl.log_predictions  # restored after the failed replay

    def test_consumer_budgets_refuse_and_refund(self):
        vfl = make_vfl("lr")
        trace = small_trace(vfl)
        service = ShardedPredictionService(
            vfl,
            n_shards=4,
            consumer_budgets={"needle": 20},
            max_batch=16,
            seed=5,
        )
        report = service.replay(trace)
        assert report.refusals.get("needle", 0) > 0
        # Refused batches were refunded: the needle never exceeds its cap.
        assert report.ledger["counts"]["needle"] <= 20
        assert report.ledger["consumer_budgets"] == {"needle": 20}

    def test_attacker_ranks_top1(self):
        vfl = make_vfl("lr")
        trace = small_trace(vfl)
        report = ShardedPredictionService(
            vfl, n_shards=4, seed=5, **AUDITED
        ).replay(trace)
        assert report.ranked_consumers()[0] == "needle"
        scores = report.anomaly_scores()
        assert scores["needle"] > max(
            score for name, score in scores.items() if name != "needle"
        )

    def test_replay_validation_and_log_gating(self):
        vfl = make_vfl("lr")
        trace = small_trace(vfl)
        service = ShardedPredictionService(vfl, n_shards=2)
        with pytest.raises(ValidationError, match="mode"):
            service.replay(trace, mode="processes")
        log_before = len(vfl.prediction_log_)
        service.replay(trace)
        # The forensic prediction log is gated off during replay (and the
        # gate is restored afterwards).
        assert len(vfl.prediction_log_) == log_before
        assert vfl.log_predictions is True
        with pytest.raises(ValidationError, match="empty"):
            service.replay(
                TrafficTrace(
                    times=np.empty(0),
                    consumer_ids=np.empty(0, dtype=np.int64),
                    names=(),
                    sample_ids=np.empty(0, dtype=np.int64),
                    offsets=np.zeros(1, dtype=np.int64),
                )
            )

    def test_report_shape(self):
        vfl = make_vfl("lr")
        trace = small_trace(vfl)
        report = ShardedPredictionService(
            vfl, n_shards=4, seed=5, **AUDITED
        ).replay(trace)
        assert report.n_shards == 4
        assert report.trace == trace.as_dict()
        assert len(report.shard_ledgers) == 4
        assert report.queries_per_second > 0
        merged = report.as_dict()
        assert merged["mode"] == "threads"
        # Shard ledgers sum to the merged ledger.
        assert merged["ledger"]["queries_used"] == sum(
            shard["queries_used"] for shard in report.shard_ledgers
        )


# ----------------------------------------------------------------------
# LRU cache bound (service level)
# ----------------------------------------------------------------------
class TestLRUBound:
    def test_intra_chunk_eviction_hazard(self):
        """cache_size=1 with chunk [a, b, a]: the third position must
        replay the row the first staged, even though inserting b evicted
        a's entry mid-chunk."""
        vfl = make_vfl("lr")
        bounded = PredictionService(vfl, cache=True, cache_size=1)
        plain = PredictionService(vfl)
        request = np.array([3, 7, 3])
        np.testing.assert_array_equal(
            bounded.query(request), plain.query(request)
        )
        # Two computations (a, b), one replay (the duplicate a).
        assert bounded.ledger.queries_used == 2
        assert bounded.ledger.cache_hits == 1
        assert bounded.cache_evictions >= 1

    def test_eviction_accounting_reconciles(self):
        vfl = make_vfl("lr")
        service = PredictionService(vfl, cache=True, cache_size=4)
        for start in range(0, 40, 8):
            service.query(np.arange(start, start + 8))
        assert service.cache_entries <= 4
        assert (
            service.ledger.evictions
            == service.ledger.queries_used - service.cache_entries
        )

    def test_consumer_scope_isolates_tenants(self):
        """One tenant's traffic never replays another's cache entries."""
        vfl = make_vfl("lr")
        service = PredictionService(vfl, cache=True, cache_scope="consumer")
        service.query(np.arange(10), consumer="alice")
        service.query(np.arange(10), consumer="bob")
        assert service.ledger.count("bob") == 10
        assert service.ledger.cache_hit_count("bob") == 0
        service.query(np.arange(10), consumer="bob")
        assert service.ledger.count("bob") == 10
        assert service.ledger.cache_hit_count("bob") == 10

    def test_unbounded_default_unchanged(self):
        vfl = make_vfl("lr")
        service = PredictionService(vfl, cache=True)
        service.query(np.arange(30))
        service.query(np.arange(30))
        assert service.cache_evictions == 0
        assert service.cache_entries == 30
        assert service.ledger.cache_hits == 30
