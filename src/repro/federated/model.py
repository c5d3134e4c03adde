"""The vertical FL model wrapper and its simulated prediction protocol.

Per §VI-A the paper "generates the vertical FL models using centralized
training and gives the trained models to the adversary", because the threat
model assumes the *training* computation is perfectly protected and only
the final model (plus predictions) leaks. :func:`train_vertical_model`
therefore assembles the parties' aligned column blocks and fits the
underlying model centrally — the fidelity-relevant part is the *prediction*
interface below.

:class:`VerticalFLModel.predict` simulates the secure prediction protocol:
the active party names sample ids, each party feeds its columns into the
protocol, and **only the confidence-score vector v is revealed** (§II-B).
The parties' blocks are fixed once a deployment exists, so their columns
are placed once, at construction, into one private, read-only joint-row
table in global column order; a round gathers its rows from it with one
``take``, and the lazily built table of row digests sits beside it.
The adversary additionally receives the plaintext model parameters through
:meth:`VerticalFLModel.release_model`, mirroring the paper's assumption
that θ is released to the active party for interpretability (§III-B).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.exceptions import NotFittedError, ProtocolError, ValidationError
from repro.federated.partition import FeaturePartition
from repro.federated.party import ActiveParty, Party, PassiveParty
from repro.models.base import BaseClassifier


class VerticalFLModel:
    """A trained model jointly served by vertically partitioned parties."""

    def __init__(
        self,
        model: BaseClassifier,
        partition: FeaturePartition,
        parties: list[Party],
    ) -> None:
        self.partition = partition
        self.model = model
        if len(parties) != partition.n_parties:
            raise ValidationError(
                f"{len(parties)} parties but partition defines {partition.n_parties}"
            )
        if not isinstance(parties[0], ActiveParty):
            raise ProtocolError("party 0 must be the active (label-owning) party")
        for p in parties[1:]:
            if isinstance(p, ActiveParty):
                raise ProtocolError("only party 0 may be active")
        n = parties[0].n_samples
        for p in parties:
            if p.n_samples != n:
                raise ProtocolError(
                    "parties hold unaligned datasets; run PSI alignment first"
                )
            if not np.array_equal(
                np.sort(p.feature_indices), partition.indices(p.party_id)
            ):
                raise ValidationError(
                    f"party {p.party_id}'s feature indices disagree with the partition"
                )
        self.parties = parties
        self._n_samples = n
        #: Permutes the parties' side-by-side columns into global order
        #: (the federation runtime assembles its wire blocks with it).
        self._column_order = np.argsort(
            np.concatenate([p.feature_indices for p in parties])
        )
        #: Every joint row in global column order: the parties' frozen
        #: blocks placed once, here, so a round gathers its rows with one
        #: ``take``. Private and read-only like the blocks it copies.
        joint = np.empty((n, partition.n_features))
        for p in parties:
            joint[:, p.feature_indices] = p._data
        joint.flags.writeable = False
        self._joint = joint
        #: sha1 digest of every joint row, built by the first
        #: :meth:`sample_hashes` call; ``None`` until then.
        self._digests: "list[str] | None" = None
        self.prediction_log_: list[int] = []
        #: Gate for :attr:`prediction_log_`. The log exists for protocol
        #: forensics at scenario scale; a workload replay pushing millions
        #: of requests through one deployment turns it into an unbounded
        #: allocation, so the workload layer switches it off.
        self.log_predictions: bool = True

    @property
    def model(self) -> BaseClassifier:
        """The served model; replacing it (a defense wrap) re-runs the check."""
        return self._model

    @model.setter
    def model(self, model: BaseClassifier) -> None:
        # predict() hands assembled rows straight to the model's kernel,
        # so the model must be fitted on exactly the partition's columns.
        try:
            model._check_fitted()
        except NotFittedError as exc:
            raise ValidationError(f"a deployment serves only a fitted model: {exc}") from exc
        if self.partition.n_features != model.n_features_:
            raise ValidationError(
                f"partition covers {self.partition.n_features} features, model uses "
                f"{model.n_features_}"
            )
        self._model = model

    # ------------------------------------------------------------------
    # Prediction protocol
    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        """Number of aligned samples in the joint prediction dataset."""
        return self._n_samples

    @property
    def n_classes(self) -> int:
        """Number of classes of the underlying model."""
        return self.model.n_classes_

    def predict(self, sample_indices: np.ndarray) -> np.ndarray:
        """Jointly compute confidence scores for the requested samples.

        Simulates the secure protocol: feature values are assembled only
        inside this call and never returned; the caller (the active party)
        sees just the confidence-score matrix.

        The request's ids are checked here; the rows are not. The joint
        rows live in one private, read-only table in global column order,
        built at construction from party blocks that were validated
        (finite float64) and frozen when each
        :class:`~repro.federated.party.Party` was built; the model's
        width is checked whenever :attr:`model` is set. So a round is one
        row gather from that table straight into the model's ``_proba``
        kernel, and the answer is byte-identical to
        ``model.predict_proba`` on the same rows.
        """
        sample_indices = self._check_ids(sample_indices, "prediction")
        joint = self._assemble(sample_indices)
        if self.log_predictions:
            self.prediction_log_.extend(sample_indices.tolist())
        return self._model._proba(joint)

    def predict_all(self) -> np.ndarray:
        """Confidence scores for every sample in the prediction dataset."""
        return self.predict(np.arange(self._n_samples))

    def sample_hashes(self, sample_indices: np.ndarray) -> list[str]:
        """Content fingerprints of the requested samples' joint rows.

        The serving layer keys its response cache and its duplicate-query
        audit on these: two requests for byte-identical joint feature
        rows collide even under different sample ids. A fingerprint is
        the sha1 hex digest of the row's float64 bytes, and it reveals
        equality, never values.

        The joint rows never change after construction, so the first
        call assembles every row of the joint table once, inside the
        protocol, and keeps only their digests, beside the table; every
        call after that is a lookup and assembles nothing. Ids are
        checked like :meth:`predict`'s: a negative or out-of-range id
        raises :class:`~repro.exceptions.ProtocolError`, never wraps.
        """
        sample_indices = self._check_ids(sample_indices, "hash")
        digests = self._digests
        if digests is None:
            joint = self._assemble(np.arange(self._n_samples))
            digests = [hashlib.sha1(row.tobytes()).hexdigest() for row in joint]
            self._digests = digests
        return [digests[i] for i in sample_indices.tolist()]

    def _check_ids(self, sample_indices, request: str) -> np.ndarray:
        """The request's ids as int64, checked once for every party.

        Every party holds the same aligned rows, so one range check
        stands for all of them; :meth:`_assemble` then gathers unchecked.
        """
        sample_indices = np.asarray(sample_indices, dtype=np.int64).ravel()
        if sample_indices.size == 0:
            raise ProtocolError(f"{request} request with no sample ids")
        # Viewed unsigned, a negative id is >= 2**63: one reduction checks
        # both ends.
        if np.maximum.reduce(sample_indices.view(np.uint64)) >= self._n_samples:
            raise ProtocolError(
                f"sample index out of range [0, {self._n_samples})"
            )
        return sample_indices

    def _assemble(self, sample_indices: np.ndarray) -> np.ndarray:
        """The joint rows of already-checked ids, in global column order.

        One ``take`` from the joint table built at construction: a
        :meth:`predict` round releases the GIL once, whatever the party
        count, and every release hands the GIL to a waiting shard
        thread. The rows need no finiteness check: the table copies
        party blocks validated and frozen at construction.
        """
        return self._joint.take(sample_indices, axis=0)

    # ------------------------------------------------------------------
    # What the adversary legitimately receives
    # ------------------------------------------------------------------
    def release_model(self) -> BaseClassifier:
        """Hand the plaintext trained model to the active party (§III-B)."""
        return self.model

    def ground_truth_target(self, colluders: tuple[int, ...] = ()) -> np.ndarray:
        """Target-party feature values — for *evaluation only*.

        The attacks never see this; experiment code uses it to score MSE and
        CBR against ground truth.
        """
        view = self.partition.adversary_view(colluders)
        return self._joint[:, view.target_indices]

    def adversary_features(self, colluders: tuple[int, ...] = ()) -> np.ndarray:
        """The adversary coalition's own feature values for all samples,
        in ascending global-column order (lined up with
        ``adversary_view().adversary_indices``)."""
        view = self.partition.adversary_view(colluders)
        return self._joint[:, view.adversary_indices]


def build_parties(
    X: np.ndarray,
    y: np.ndarray,
    partition: FeaturePartition,
) -> list[Party]:
    """Split a joint dataset into one party object per partition block."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != partition.n_features:
        raise ValidationError(
            f"X must be (n, {partition.n_features}), got {np.shape(X)}"
        )
    parties: list[Party] = []
    for pid in range(partition.n_parties):
        indices = partition.indices(pid)
        block = X[:, indices]
        if pid == 0:
            parties.append(ActiveParty(pid, indices, block, y))
        else:
            parties.append(PassiveParty(pid, indices, block))
    return parties


def train_vertical_model(
    model: BaseClassifier,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_pred: np.ndarray,
    y_pred: np.ndarray,
    partition: FeaturePartition,
) -> VerticalFLModel:
    """Train ``model`` on the joint training data and serve the prediction set.

    Training is centralized (matching the paper's evaluation protocol, which
    assumes a perfectly secure training phase); the returned
    :class:`VerticalFLModel` wraps the *prediction* dataset, which is what
    the attacks operate on.
    """
    model.fit(np.asarray(X_train, dtype=np.float64), np.asarray(y_train, dtype=np.int64))
    parties = build_parties(X_pred, y_pred, partition)
    return VerticalFLModel(model, partition, parties)
