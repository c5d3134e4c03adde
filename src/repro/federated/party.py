"""Party abstractions for vertical federated learning.

An :class:`ActiveParty` owns labels and initiates predictions; a
:class:`PassiveParty` contributes features only. Parties hold their own
column block of the joint dataset and never hand raw columns to another
party — the only cross-party data flow happens inside
:class:`repro.federated.model.VerticalFLModel`'s simulated secure protocol,
which reveals nothing but the final confidence vector.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ProtocolError, ValidationError
from repro.utils.validation import check_matrix


class Party:
    """A data owner holding one column block of the joint dataset.

    The block is validated (finite float64) once, here, and kept as a
    private read-only copy: changing the caller's array afterwards
    changes nothing this party serves.
    """

    def __init__(self, party_id: int, feature_indices: np.ndarray, data: np.ndarray) -> None:
        if party_id < 0:
            raise ValidationError(f"party_id must be non-negative, got {party_id}")
        self.party_id = int(party_id)
        self.feature_indices = np.asarray(feature_indices, dtype=np.int64).copy()
        data = check_matrix(data, name=f"party {party_id} data")
        if data.shape[1] != self.feature_indices.size:
            raise ValidationError(
                f"party {party_id}: data has {data.shape[1]} columns but "
                f"{self.feature_indices.size} feature indices"
            )
        # Row-major, so one sample's columns are adjacent: every protocol
        # round gathers whole rows. Private and read-only, so the block
        # validated above is the block every later round serves: the
        # deployment copies it into its joint table without re-checking,
        # and the deployment's row digests stay true.
        self._data = np.array(data, order="C")
        self._data.flags.writeable = False

    @property
    def n_samples(self) -> int:
        """Number of (aligned) samples this party holds."""
        return self._data.shape[0]

    @property
    def n_features(self) -> int:
        """Number of feature columns this party holds."""
        return self._data.shape[1]

    def local_features(self, sample_indices: np.ndarray) -> np.ndarray:
        """The party's feature values for the requested samples.

        This is the value handed to the *secure protocol*, never to another
        party directly.
        """
        return self._data.take(self._checked_ids(sample_indices), axis=0)

    def _checked_ids(self, sample_indices: np.ndarray) -> np.ndarray:
        """``sample_indices`` as flat int64 ids, each in ``[0, n_samples)``.

        One reduction checks both bounds: viewed as uint64, a negative
        id wraps past every valid one.
        """
        sample_indices = np.asarray(sample_indices, dtype=np.int64).ravel()
        if (
            sample_indices.size
            and np.maximum.reduce(sample_indices.view(np.uint64)) >= self._data.shape[0]
        ):
            raise ProtocolError(
                f"party {self.party_id}: sample index out of range [0, {self.n_samples})"
            )
        return sample_indices

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(id={self.party_id}, "
            f"n_samples={self.n_samples}, n_features={self.n_features})"
        )


class PassiveParty(Party):
    """A party contributing features but holding no labels."""


class ActiveParty(Party):
    """The label-owning party that initiates training and predictions.

    Like the feature block, the labels are kept as a private read-only
    copy: changing the caller's array afterwards changes no label.
    """

    def __init__(
        self,
        party_id: int,
        feature_indices: np.ndarray,
        data: np.ndarray,
        labels: np.ndarray,
    ) -> None:
        super().__init__(party_id, feature_indices, data)
        labels = np.asarray(labels, dtype=np.int64).ravel()
        if labels.shape[0] != self.n_samples:
            raise ValidationError(
                f"labels length {labels.shape[0]} != n_samples {self.n_samples}"
            )
        self._labels = labels.copy()
        self._labels.flags.writeable = False

    def local_labels(self, sample_indices: np.ndarray) -> np.ndarray:
        """Ground-truth labels for the requested samples."""
        return self._labels[self._checked_ids(sample_indices)]
