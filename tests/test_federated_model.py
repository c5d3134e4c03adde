"""Tests for Party objects, the VFL model protocol, and PSI."""

import numpy as np
import pytest

from repro.exceptions import ProtocolError, ValidationError
from repro.federated import (
    ActiveParty,
    FeaturePartition,
    PassiveParty,
    VerticalFLModel,
    align_datasets,
    build_parties,
    private_set_intersection,
    train_vertical_model,
)
from repro.models import LogisticRegression


@pytest.fixture()
def vfl_setup(blobs):
    X, y = blobs
    partition = FeaturePartition.contiguous(6, [3, 3])
    model = LogisticRegression(epochs=30, rng=0)
    vfl = train_vertical_model(model, X[:300], y[:300], X[300:], y[300:], partition)
    return vfl, X[300:], y[300:]


class TestParties:
    def test_active_party_holds_labels(self):
        party = ActiveParty(0, np.array([0, 1]), np.ones((4, 2)), np.array([0, 1, 0, 1]))
        np.testing.assert_array_equal(party.local_labels(np.array([1, 3])), [1, 1])

    def test_active_party_labels_do_not_alias_the_caller(self):
        y = np.array([0, 1, 0, 1], dtype=np.int64)
        party = ActiveParty(0, np.array([0, 1]), np.ones((4, 2)), y)
        y[0] = 5
        assert party.local_labels([0])[0] == 0
        with pytest.raises(ValueError):
            party._labels[0] = 5

    def test_passive_party_has_no_labels(self):
        party = PassiveParty(1, np.array([0]), np.ones((3, 1)))
        assert not hasattr(party, "local_labels")

    def test_feature_count_must_match(self):
        with pytest.raises(ValidationError):
            PassiveParty(1, np.array([0, 1]), np.ones((3, 1)))

    def test_label_length_must_match(self):
        with pytest.raises(ValidationError):
            ActiveParty(0, np.array([0]), np.ones((3, 1)), np.array([0, 1]))

    def test_out_of_range_sample_rejected(self):
        party = PassiveParty(1, np.array([0]), np.ones((3, 1)))
        with pytest.raises(ProtocolError):
            party.local_features(np.array([5]))

    N_SAMPLES = 7
    BAD_IDS = (-1, -(2**63), N_SAMPLES, 2**63 - 1)

    @pytest.fixture()
    def id_party(self):
        data = np.arange(self.N_SAMPLES * 2, dtype=np.float64).reshape(-1, 2)
        return ActiveParty(3, np.array([0, 1]), data, np.arange(self.N_SAMPLES) % 2)

    @pytest.mark.parametrize("bad", BAD_IDS)
    @pytest.mark.parametrize("width", [1, 5], ids=["one-row", "many-row"])
    @pytest.mark.parametrize("method", ["local_features", "local_labels"])
    def test_out_of_range_ids_refused_alike(self, id_party, bad, width, method):
        """One check covers both bounds: every bad id, at any position."""
        expected = f"party 3: sample index out of range [0, {self.N_SAMPLES})"
        for position in range(width):
            ids = np.zeros(width, dtype=np.int64)
            ids[position] = bad
            with pytest.raises(ProtocolError) as refused:
                getattr(id_party, method)(ids)
            assert str(refused.value) == expected

    @pytest.mark.parametrize("width", [1, 5], ids=["one-row", "many-row"])
    def test_boundary_ids_accepted(self, id_party, width):
        last = self.N_SAMPLES - 1
        for ids in (np.zeros(width, np.int64), np.full(width, last, np.int64)):
            np.testing.assert_array_equal(
                id_party.local_features(ids), id_party._data[ids]
            )
            np.testing.assert_array_equal(
                id_party.local_labels(ids), np.arange(self.N_SAMPLES)[ids] % 2
            )
        mixed = np.arange(width) % self.N_SAMPLES
        np.testing.assert_array_equal(id_party.local_features(mixed), id_party._data[mixed])

    def test_empty_request_accepted(self, id_party):
        assert id_party.local_features(np.array([], dtype=np.int64)).shape == (0, 2)
        assert id_party.local_labels([]).shape == (0,)

    def test_negative_party_id_rejected(self):
        with pytest.raises(ValidationError):
            PassiveParty(-1, np.array([0]), np.ones((2, 1)))


class TestBuildParties:
    def test_structure(self, blobs):
        X, y = blobs
        partition = FeaturePartition.contiguous(6, [2, 4])
        parties = build_parties(X, y, partition)
        assert isinstance(parties[0], ActiveParty)
        assert isinstance(parties[1], PassiveParty)
        assert parties[0].n_features == 2 and parties[1].n_features == 4

    def test_wrong_width_rejected(self, blobs):
        X, y = blobs
        partition = FeaturePartition.contiguous(5, [2, 3])
        with pytest.raises(ValidationError):
            build_parties(X, y, partition)


class TestVerticalFLModel:
    def test_predict_returns_confidences(self, vfl_setup):
        vfl, X_pool, _ = vfl_setup
        v = vfl.predict(np.array([0, 1, 2]))
        assert v.shape == (3, 3)
        np.testing.assert_allclose(v.sum(axis=1), 1.0)

    def test_protocol_matches_centralized_prediction(self, vfl_setup):
        """The joint protocol must compute exactly f(x) on assembled columns."""
        vfl, X_pool, _ = vfl_setup
        idx = np.arange(10)
        np.testing.assert_allclose(
            vfl.predict(idx), vfl.model.predict_proba(X_pool[idx])
        )

    def test_predict_all(self, vfl_setup):
        vfl, X_pool, _ = vfl_setup
        assert vfl.predict_all().shape == (X_pool.shape[0], 3)

    def test_prediction_log_records_requests(self, vfl_setup):
        vfl, _, _ = vfl_setup
        vfl.prediction_log_.clear()
        vfl.predict(np.array([4, 7]))
        assert vfl.prediction_log_ == [4, 7]

    def test_empty_request_rejected(self, vfl_setup):
        vfl, _, _ = vfl_setup
        with pytest.raises(ProtocolError):
            vfl.predict(np.array([], dtype=int))

    def test_ground_truth_matches_pool(self, vfl_setup):
        vfl, X_pool, _ = vfl_setup
        view = vfl.partition.adversary_view()
        np.testing.assert_array_equal(
            vfl.ground_truth_target(), X_pool[:, view.target_indices]
        )

    def test_adversary_features_match_pool(self, vfl_setup):
        vfl, X_pool, _ = vfl_setup
        view = vfl.partition.adversary_view()
        np.testing.assert_array_equal(
            vfl.adversary_features(), X_pool[:, view.adversary_indices]
        )

    def test_adversary_features_with_collusion(self, blobs):
        X, y = blobs
        partition = FeaturePartition.random_split(6, [2, 2, 2], rng=0)
        model = LogisticRegression(epochs=10, rng=0)
        vfl = train_vertical_model(model, X[:200], y[:200], X[200:], y[200:], partition)
        view = partition.adversary_view(colluders=(1,))
        np.testing.assert_array_equal(
            vfl.adversary_features(colluders=(1,)),
            X[200:][:, view.adversary_indices],
        )

    def test_unfitted_model_rejected(self, blobs):
        X, y = blobs
        partition = FeaturePartition.contiguous(6, [3, 3])
        parties = build_parties(X, y, partition)
        with pytest.raises(Exception):
            VerticalFLModel(LogisticRegression(), partition, parties)

    def test_party_zero_must_be_active(self, blobs, fitted_lr):
        X, y = blobs
        partition = FeaturePartition.contiguous(6, [3, 3])
        bad = [
            PassiveParty(0, partition.indices(0), X[:, :3]),
            PassiveParty(1, partition.indices(1), X[:, 3:]),
        ]
        with pytest.raises(ProtocolError):
            VerticalFLModel(fitted_lr, partition, bad)

    def test_unaligned_parties_rejected(self, blobs, fitted_lr):
        X, y = blobs
        partition = FeaturePartition.contiguous(6, [3, 3])
        bad = [
            ActiveParty(0, partition.indices(0), X[:, :3], y),
            PassiveParty(1, partition.indices(1), X[:10, 3:]),
        ]
        with pytest.raises(ProtocolError):
            VerticalFLModel(fitted_lr, partition, bad)


class TestPSI:
    def test_intersection_basic(self):
        common = private_set_intersection(
            [np.array([1, 2, 3, 4]), np.array([3, 4, 5])]
        )
        np.testing.assert_array_equal(common, [3, 4])

    def test_three_parties(self):
        common = private_set_intersection(
            [np.array([1, 2, 3]), np.array([2, 3, 4]), np.array([3, 9])]
        )
        np.testing.assert_array_equal(common, [3])

    def test_empty_intersection_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="empty intersection"):
            private_set_intersection([np.array([1]), np.array([2])])

    def test_duplicates_rejected_with_offenders_named(self):
        with pytest.raises(ProtocolError, match=r"party 0.*duplicate.*\[1\]"):
            private_set_intersection([np.array([1, 1]), np.array([1])])

    def test_single_party_rejected(self):
        with pytest.raises(ValidationError):
            private_set_intersection([np.array([1])])

    def test_align_datasets_reorders_rows(self):
        ids_a = np.array([10, 20, 30])
        ids_b = np.array([30, 10, 40])
        data_a = np.array([[1.0], [2.0], [3.0]])
        data_b = np.array([[33.0], [11.0], [44.0]])
        common, (al_a, al_b) = align_datasets([ids_a, ids_b], [data_a, data_b])
        np.testing.assert_array_equal(common, [10, 30])
        np.testing.assert_array_equal(al_a, [[1.0], [3.0]])
        np.testing.assert_array_equal(al_b, [[11.0], [33.0]])

    def test_align_empty_intersection_raises(self):
        with pytest.raises(ProtocolError):
            align_datasets(
                [np.array([1]), np.array([2])], [np.ones((1, 1)), np.ones((1, 1))]
            )

    def test_align_rows_ids_mismatch(self):
        with pytest.raises(ProtocolError):
            align_datasets(
                [np.array([1, 2]), np.array([1, 2])],
                [np.ones((3, 1)), np.ones((2, 1))],
            )

    def test_align_list_length_mismatch(self):
        with pytest.raises(ValidationError):
            align_datasets([np.array([1])], [np.ones((1, 1)), np.ones((1, 1))])
