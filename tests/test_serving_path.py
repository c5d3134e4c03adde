"""The one-row serving path: one assembly per round, ids checked once.

A served round used to assemble the joint rows twice (once to hash them,
once to predict) and let every party re-check the ids. These tests pin
what replaced that:

- ids are checked once, at the :class:`VerticalFLModel` boundary, and a
  negative id raises instead of wrapping to the last row;
- ``sample_hashes`` indexes a per-deployment digest table whose entries
  equal the sha1 of freshly assembled rows;
- a cached, audited sharded replay assembles at most once per protocol
  round, plus the one table build;
- the cheaper ``sigmoid`` and ``check_array`` are bitwise the old ones;
- a deployment's inputs are checked where they enter: party blocks are
  validated once and frozen, the served model is checked whenever it is
  set, and an in-process round calls the model's ``_proba`` kernel with
  no second validation, while a wire-fed round still validates.
"""

import hashlib
import importlib
import pkgutil
import sys
import threading

import numpy as np
import pytest

from repro.api import DefenseStack, make_model
from repro.api.defenses import QueryAuditDefense
from repro.config import ScaleConfig
from repro.defenses import NoisyModel, RoundedModel
from repro.exceptions import ProtocolError, ValidationError
from repro.federated import (
    FeaturePartition,
    VerticalFLModel,
    build_parties,
    train_vertical_model,
)
from repro.federated.party import ActiveParty, PassiveParty
from repro.federation import FederationRuntime
from repro.models.base import BaseClassifier
from repro.serving import PredictionService
from repro.utils.numeric import sigmoid
from repro.utils.random import spawn_rngs
from repro.utils.validation import check_array
from repro.workload import ShardedPredictionService, attacker_trace, make_trace

TINY = ScaleConfig(
    name="tiny-serving-path",
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


def make_vfl(model_kind="lr", *, n_parties=2, n=80, d=8, seed=0):
    """A tiny trained deployment over ``n_parties`` interleaved blocks."""
    rng = np.random.default_rng(seed)
    centers = rng.random((3, d))
    y = rng.integers(0, 3, size=2 * n)
    X = centers[y] + rng.normal(0, 1.0 / 3.0, size=(2 * n, d))
    sizes = [d // n_parties] * n_parties
    sizes[0] += d - sum(sizes)
    partition = FeaturePartition.random_split(d, sizes, rng=seed)
    model = make_model(model_kind, TINY, spawn_rngs(seed, 1)[0])
    return train_vertical_model(model, X[:n], y[:n], X[n:], y[n:], partition)


def reference_rows(vfl, ids):
    """Joint rows assembled from scratch through each party's checked API."""
    joint = np.empty((len(ids), vfl.partition.n_features))
    for party in vfl.parties:
        joint[:, party.feature_indices] = party.local_features(ids)
    return joint


def masked_sigmoid(x):
    """The two-branch masked formula ``sigmoid`` replaced, as the oracle."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestIdsCheckedOnce:
    """Negative ids must raise, never wrap to a row from the end."""

    @pytest.mark.parametrize("bad", [-1, -80, 80, 10**9])
    def test_predict_rejects_out_of_range(self, bad):
        vfl = make_vfl()
        with pytest.raises(ProtocolError, match="out of range"):
            vfl.predict([bad])
        with pytest.raises(ProtocolError, match="out of range"):
            vfl.predict([0, bad, 1])

    @pytest.mark.parametrize("bad", [-1, -80, 80])
    def test_sample_hashes_rejects_out_of_range(self, bad):
        vfl = make_vfl()
        vfl.sample_hashes([0])  # the digest table exists; lookups still check
        with pytest.raises(ProtocolError, match="out of range"):
            vfl.sample_hashes([bad])

    def test_sample_hashes_rejects_n_samples_before_table(self):
        vfl = make_vfl()
        with pytest.raises(ProtocolError, match="out of range"):
            vfl.sample_hashes([vfl.n_samples])

    def test_empty_requests_keep_their_messages(self):
        vfl = make_vfl()
        with pytest.raises(ProtocolError, match="prediction request with no"):
            vfl.predict([])
        with pytest.raises(ProtocolError, match="hash request with no"):
            vfl.sample_hashes([])

    @pytest.mark.parametrize("cache", [False, True])
    def test_service_refuses_negative_id_uncharged(self, cache):
        service = PredictionService(make_vfl(), max_batch=8, cache=cache)
        service.query([3, 4], consumer="a")
        used = service.ledger.queries_used
        with pytest.raises(ProtocolError, match="out of range"):
            service.query([-1], consumer="a")
        with pytest.raises(ProtocolError, match="out of range"):
            service.query([5, -1], consumer="a")
        assert service.ledger.queries_used == used

    def test_party_keeps_its_own_check(self):
        vfl = make_vfl()
        with pytest.raises(ProtocolError, match="party 1"):
            vfl.parties[1].local_features([-1])


class TestDigestTable:
    @pytest.mark.parametrize("n_parties", [2, 4])
    @pytest.mark.parametrize("kind", ["lr", "dt", "rf", "nn"])
    def test_digests_are_sha1_of_fresh_rows(self, kind, n_parties):
        vfl = make_vfl(kind, n_parties=n_parties)
        ids = np.arange(vfl.n_samples)
        expected = [
            hashlib.sha1(row.tobytes()).hexdigest()
            for row in reference_rows(vfl, ids)
        ]
        assert vfl.sample_hashes(ids) == expected
        shuffled = np.random.default_rng(1).permutation(ids)[:17]
        assert vfl.sample_hashes(shuffled) == [expected[i] for i in shuffled]
        assert vfl.sample_hashes([5, 5]) == [expected[5]] * 2

    def test_table_is_built_once_and_lookups_assemble_nothing(self, monkeypatch):
        vfl = make_vfl()
        calls = []
        original = VerticalFLModel._assemble

        def counting(vfl_self, ids):
            calls.append(len(ids))
            return original(vfl_self, ids)

        monkeypatch.setattr(VerticalFLModel, "_assemble", counting)
        first = vfl.sample_hashes([1, 2])
        for _ in range(3):
            assert vfl.sample_hashes([1, 2]) == first
        assert calls == [vfl.n_samples]

    def test_concurrent_first_lookups_agree(self):
        """Threads racing the lazy table build all read correct digests."""
        vfl = make_vfl(n=400)
        ids = np.arange(vfl.n_samples)
        expected = [
            hashlib.sha1(row.tobytes()).hexdigest()
            for row in reference_rows(vfl, ids)
        ]
        results: list = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=lambda: results.append(vfl.sample_hashes(ids)))
                for _ in range(8)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(results) == 8
        assert all(result == expected for result in results)

    # The four-party cases keep the ids they had before two parties
    # were added.
    @pytest.mark.parametrize(
        ("kind", "n_parties"),
        [
            pytest.param(kind, n, id=kind if n == 4 else f"{kind}-{n}parties")
            for n in (4, 2)
            for kind in ("lr", "dt", "rf", "nn")
        ],
    )
    def test_predict_matches_fresh_assembly(self, kind, n_parties):
        """Everything read from the joint table equals a per-party
        assembly through each party's checked API, to the byte."""
        vfl = make_vfl(kind, n_parties=n_parties)
        ids = np.array([3, 0, 3, 79, 41])
        expected = vfl.model.predict_proba(reference_rows(vfl, ids))
        np.testing.assert_array_equal(vfl.predict(ids), expected)
        # The round calls the kernel unvalidated; it must still be the
        # validated entry point's answer to the byte.
        assert vfl.predict(ids).tobytes() == expected.tobytes()

        all_ids = np.arange(vfl.n_samples)
        joint = reference_rows(vfl, all_ids)
        assert vfl.sample_hashes(ids) == [
            hashlib.sha1(joint[i].tobytes()).hexdigest() for i in ids
        ]
        for colluders in [(), (1,)][: n_parties - 1]:
            view = vfl.partition.adversary_view(colluders)
            target = vfl.ground_truth_target(colluders)
            assert target.tobytes() == joint[:, view.target_indices].tobytes()
            # The coalition's own blocks, side by side, then ascending
            # global column order.
            coalition = sorted({0, *colluders})
            stacked = np.hstack(
                [vfl.parties[pid].local_features(all_ids) for pid in coalition]
            )
            order = np.argsort(
                np.concatenate([vfl.parties[pid].feature_indices for pid in coalition])
            )
            own = vfl.adversary_features(colluders)
            assert own.shape == (vfl.n_samples, view.adversary_indices.size)
            assert own.tobytes() == stacked[:, order].tobytes()


class TestJointTable:
    """The deployment's one joint-row table: private, read-only, fixed."""

    def _deployment(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(120, 9))
        y = rng.integers(0, 2, size=120)
        partition = FeaturePartition.random_split(9, [3, 2, 2, 2], rng=3)
        model = make_model("lr", TINY, spawn_rngs(3, 1)[0]).fit(X, y)
        return X, y, VerticalFLModel(model, partition, build_parties(X, y, partition))

    def test_table_is_read_only(self):
        _, _, vfl = self._deployment()
        assert not vfl._joint.flags.writeable
        with pytest.raises(ValueError):
            vfl._joint[0, 0] = 1.0
        with pytest.raises(ValueError):
            vfl._joint[:, 1] += 1.0
        # What a round hands out is a copy the caller may write.
        vfl._assemble(np.array([0, 1]))[0, 0] = 1.0
        vfl.ground_truth_target()[0, 0] = 1.0
        vfl.adversary_features()[0, 0] = 1.0
        assert vfl._joint[0, 0] == reference_rows(vfl, [0])[0, 0]

    def test_mutating_the_built_arrays_changes_nothing(self):
        X, y, vfl = self._deployment()
        ids = np.array([0, 5, 5, 119])
        table = vfl._joint.copy()
        served, hashes = vfl.predict(ids), vfl.sample_hashes(ids)
        target, own = vfl.ground_truth_target(), vfl.adversary_features()
        X += 1.0
        X[:, 0] = np.nan
        y[:] = 1 - y
        np.testing.assert_array_equal(vfl._joint, table)
        np.testing.assert_array_equal(vfl.predict(ids), served)
        assert vfl.sample_hashes(ids) == hashes
        np.testing.assert_array_equal(vfl.ground_truth_target(), target)
        np.testing.assert_array_equal(vfl.adversary_features(), own)

    def test_table_is_the_original_rows(self):
        X, _, vfl = self._deployment()
        assert vfl._joint.tobytes() == X.tobytes()
        assert vfl._joint.flags.c_contiguous


class TestOneAssemblyPerRound:
    def test_cached_audited_replay_assembles_once_per_round(self, monkeypatch):
        vfl = make_vfl()
        trace = make_trace(30, 150, n_samples=vfl.n_samples, seed=4).merge(
            attacker_trace("needle", np.arange(10), repeats=4, batch_size=5, seed=5)
        )
        assembled, rounds = [], []
        original_assemble = VerticalFLModel._assemble
        original_predict = VerticalFLModel.predict

        def counting_assemble(vfl_self, ids):
            assembled.append(len(ids))
            return original_assemble(vfl_self, ids)

        def counting_predict(vfl_self, ids):
            rounds.append(len(np.atleast_1d(ids)))
            return original_predict(vfl_self, ids)

        monkeypatch.setattr(VerticalFLModel, "_assemble", counting_assemble)
        monkeypatch.setattr(VerticalFLModel, "predict", counting_predict)
        report = ShardedPredictionService(
            vfl,
            n_shards=2,
            defense_specs=("query_audit",),
            max_batch=8,
            cache=True,
            cache_size=16,
        ).replay(trace)
        assert report.ledger["cache_hits"] > 0
        # Every protocol round (the warm-up round included) assembles once;
        # the only other assembly is the one digest-table build.
        assert len(assembled) <= len(rounds) + 1
        assert assembled.count(vfl.n_samples) >= 1

    def test_threaded_four_party_replay_matches_serial(self):
        """A threaded, cached, audited replay on a four-party deployment
        has the serial replay's accounting, and the per-consumer part of
        a one-shard serial replay."""
        vfl = make_vfl(n_parties=4)
        trace = make_trace(
            40, 400, n_samples=vfl.n_samples, process="bursty", seed=6
        ).merge(attacker_trace("needle", np.arange(24), repeats=5, batch_size=8, seed=7))

        def replay(n_shards, mode):
            return ShardedPredictionService(
                vfl,
                n_shards=n_shards,
                defense_specs=("query_audit",),
                max_batch=32,
                cache=True,
                cache_size=64,
                seed=2,
            ).replay(trace, mode=mode)

        threaded = replay(2, "threads")
        assert threaded.ledger["cache_hits"] > 0
        assert threaded.ledger["queries_used"] + threaded.ledger["cache_hits"] == trace.n_queries
        assert threaded.accounting() == replay(2, "serial").accounting()
        assert threaded.consumer_accounting() == replay(1, "serial").consumer_accounting()

    def test_audit_without_cache_hashes_without_assembling(self, monkeypatch):
        vfl = make_vfl()
        audit = QueryAuditDefense()
        service = PredictionService(
            vfl, defense_stack=DefenseStack([audit]), max_batch=4
        )
        service.query(np.arange(8), consumer="a")
        calls = []
        original = VerticalFLModel._assemble

        def counting(vfl_self, ids):
            calls.append(len(ids))
            return original(vfl_self, ids)

        monkeypatch.setattr(VerticalFLModel, "_assemble", counting)
        service.query(np.arange(8), consumer="a")
        assert calls == [4, 4]
        assert audit.report()["duplicates"] == 8


class TestServedBlocks:
    @pytest.mark.parametrize("cache", [False, True])
    def test_one_round_result_is_compact(self, cache):
        service = PredictionService(make_vfl(), max_batch=8, cache=cache)
        result = service.query([3], consumer="a")
        assert result.shape == (1, 3)
        assert result.base is None and result.flags.c_contiguous
        np.testing.assert_array_equal(result, service.vfl.predict([3] * 8)[:1])

    def test_unpadded_round_result_is_compact(self):
        service = PredictionService(make_vfl())
        result = service.query([3, 4], consumer="a")
        assert result.base is None
        np.testing.assert_array_equal(result, service.vfl.predict([3, 4]))


class TestKernelIdentity:
    def test_sigmoid_matches_masked_formula_bitwise(self):
        tiny = np.finfo(np.float64).tiny
        specials = np.array(
            [
                0.0, -0.0, np.inf, -np.inf,
                5e-324, -5e-324, tiny / 2, -tiny / 2, tiny, -tiny,
                1e-300, -1e-300, 36.7, -36.7, 709.0, -709.0, 745.2, -745.2,
                800.0, -800.0,
            ]
        )
        sweep = np.linspace(-800.0, 800.0, 400_001)
        noise = np.random.default_rng(0).uniform(-800.0, 800.0, 200_000)
        x = np.concatenate([specials, sweep, noise, noise / 1e3, noise / 1e6])
        with np.errstate(over="ignore", under="ignore"):
            ours, oracle = sigmoid(x), masked_sigmoid(x)
        assert ours.dtype == np.float64 and ours.shape == x.shape
        np.testing.assert_array_equal(ours.view(np.uint64), oracle.view(np.uint64))

    def test_sigmoid_nan_and_shapes(self):
        assert np.isnan(sigmoid(np.array([np.nan]))).all()
        grid = np.linspace(-5.0, 5.0, 12).reshape(3, 4)
        np.testing.assert_array_equal(sigmoid(grid), masked_sigmoid(grid))
        assert sigmoid(0.0).shape == ()

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_check_array_rejects_non_finite(self, dtype, bad):
        x = np.array([[1.0, bad], [0.5, 2.0]], dtype=dtype)
        with pytest.raises(ValidationError, match="NaN or infinite"):
            check_array(x, dtype=None)
        with pytest.raises(ValidationError, match="NaN or infinite"):
            check_array(x)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint16, np.bool_])
    def test_check_array_accepts_integer_input(self, dtype):
        x = np.arange(6).reshape(2, 3).astype(dtype)
        assert check_array(x, dtype=None).dtype == dtype
        np.testing.assert_array_equal(check_array(x), x.astype(np.float64))


class TestFrozenPartyBlocks:
    """A party serves the block it validated, whatever its caller does later."""

    def _deployment(self):
        """A deployment whose parties were built straight from C-ordered
        float64 blocks the test still holds."""
        vfl = make_vfl("lr")
        joint = reference_rows(vfl, np.arange(vfl.n_samples))
        blocks = [np.ascontiguousarray(joint[:, p.feature_indices]) for p in vfl.parties]
        labels = vfl.parties[0].local_labels(np.arange(vfl.n_samples))
        parties = [ActiveParty(0, vfl.parties[0].feature_indices, blocks[0], labels)]
        parties += [
            PassiveParty(p.party_id, p.feature_indices, block)
            for p, block in zip(vfl.parties[1:], blocks[1:])
        ]
        return VerticalFLModel(vfl.model, vfl.partition, parties), blocks

    def test_mutating_the_source_changes_nothing_served(self):
        vfl, blocks = self._deployment()
        ids = np.array([0, 7, 7, 41])
        served = vfl.predict(ids)
        hashes = vfl.sample_hashes(ids)
        for block in blocks:
            block += 1.0
        np.testing.assert_array_equal(vfl.predict(ids), served)
        assert vfl.sample_hashes(ids) == hashes
        fresh = reference_rows(vfl, ids)
        assert hashes == [hashlib.sha1(row.tobytes()).hexdigest() for row in fresh]

    def test_party_block_is_read_only(self):
        vfl, _ = self._deployment()
        for party in vfl.parties:
            assert not party._data.flags.writeable
            with pytest.raises(ValueError):
                party._data[0, 0] = 1.0
            # What a party hands out is a copy the caller may write.
            party.local_features([0, 1])[0, 0] = 1.0


def _counting_validation(monkeypatch):
    calls = []
    validate = BaseClassifier._validate_predict_input

    def counted(self, X):
        calls.append(type(self).__name__)
        return validate(self, X)

    monkeypatch.setattr(BaseClassifier, "_validate_predict_input", counted)
    return calls


class TestTrustBoundary:
    """Checked where inputs enter; an in-process round runs the kernel."""

    IDS = np.array([3, 0, 3, 79, 41])

    @pytest.mark.parametrize("kind", ["lr", "rf"])
    def test_wrapped_round_applies_the_defense(self, kind):
        vfl = make_vfl(kind)
        base = vfl.model
        rows = reference_rows(vfl, self.IDS)

        vfl.model = RoundedModel(base, digits=1)
        expected = RoundedModel(base, digits=1).predict_proba(rows)
        assert vfl.predict(self.IDS).tobytes() == expected.tobytes()

        # Same seed, same noise stream: one draw per call on both sides.
        vfl.model = NoisyModel(RoundedModel(base, digits=2), 0.05, rng=3)
        oracle = NoisyModel(RoundedModel(base, digits=2), 0.05, rng=3)
        for _ in range(3):
            served = vfl.predict(self.IDS)
            assert served.tobytes() == oracle.predict_proba(rows).tobytes()
        assert not np.array_equal(served, base.predict_proba(rows))

    def test_in_process_round_skips_validation_and_wire_round_keeps_it(self, monkeypatch):
        vfl = make_vfl("lr", n_parties=3)
        vfl.model = NoisyModel(RoundedModel(vfl.model, digits=2), 0.05, rng=3)
        calls = _counting_validation(monkeypatch)
        vfl.predict(self.IDS)
        assert calls == []
        FederationRuntime(vfl).predict(self.IDS)
        # Once for the whole defense stack, at its outermost layer.
        assert calls == ["NoisyModel"]
        vfl.model.predict_proba(reference_rows(vfl, self.IDS))
        assert calls == ["NoisyModel", "NoisyModel"]

    def test_wire_round_still_refuses_non_finite_blocks(self, monkeypatch):
        vfl = make_vfl("lr")
        runtime = FederationRuntime(vfl)
        local_features = PassiveParty.local_features

        def poisoned(self, sample_indices):
            block = local_features(self, sample_indices)
            block[0, 0] = np.nan
            return block

        monkeypatch.setattr(PassiveParty, "local_features", poisoned)
        with pytest.raises(ValidationError, match="NaN or infinite"):
            runtime.predict(self.IDS)

    def test_no_model_overrides_predict_proba(self):
        import repro.defenses
        import repro.models

        for package in (repro.models, repro.defenses):
            for module in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
                importlib.import_module(module.name)
        pending, seen = [BaseClassifier], []
        while pending:
            cls = pending.pop()
            seen.append(cls)
            pending.extend(cls.__subclasses__())
        ours = [c for c in seen if c.__module__.startswith(("repro.models", "repro.defenses"))]
        assert {c.__name__ for c in ours} >= {
            "LogisticRegression", "DecisionTreeClassifier", "RandomForestClassifier",
            "MLPClassifier", "RandomForestDistiller", "RoundedModel", "NoisyModel",
        }
        for cls in ours:
            assert cls.predict_proba is BaseClassifier.predict_proba, cls.__name__

    @pytest.mark.parametrize("kind", ["lr", "dt"])
    def test_setting_an_unfitted_or_wrong_width_model_is_refused(self, kind):
        vfl = make_vfl(kind)
        served = vfl.model
        with pytest.raises(ValidationError, match="not fitted"):
            vfl.model = make_model(kind, TINY, spawn_rngs(0, 1)[0])
        narrow = make_model(kind, TINY, spawn_rngs(0, 1)[0])
        narrow.fit(np.random.default_rng(0).random((40, 5)), np.arange(40) % 3)
        with pytest.raises(ValidationError, match="covers 8 features, model uses 5"):
            vfl.model = narrow
        with pytest.raises(ValidationError, match="covers 8 features, model uses 5"):
            vfl.model = DefenseStack.from_specs([("rounding", {"digits": 1})]).wrap(narrow)
        assert vfl.model is served
