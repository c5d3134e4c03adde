"""Base classes for the classification models used as VFL targets.

Two capabilities matter to the attacks:

- every model exposes ``predict_proba`` returning the confidence-score
  vector ``v`` the paper's protocol reveals to the active party.
  :class:`BaseClassifier` defines it once: it validates the input and
  hands the checked matrix to ``_proba``, the kernel every subclass
  implements. A caller whose rows are already checked -- the in-process
  prediction round, which assembles them from validated, frozen party
  blocks -- calls ``_proba`` directly;
- *differentiable* models additionally expose ``forward_tensor``, a forward
  pass over autodiff tensors, which is what GRNA back-propagates through
  (Algorithm 2, line 9).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import NotFittedError, ValidationError
from repro.tensor.tensor import Tensor
from repro.utils.validation import check_matrix, check_X_y


class BaseClassifier:
    """Common fit/predict plumbing for every classifier in the library."""

    def __init__(self) -> None:
        self.n_features_: int | None = None
        self.n_classes_: int | None = None

    # ------------------------------------------------------------------
    # Contract
    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "BaseClassifier":
        """Fit the model; must be implemented by subclasses."""
        raise NotImplementedError

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Confidence scores, shape ``(n_samples, n_classes)``; rows sum to 1."""
        return self._proba(self._validate_predict_input(X))

    def _proba(self, X: np.ndarray) -> np.ndarray:
        """:meth:`predict_proba`'s kernel on an already-validated float64
        matrix of ``n_features_`` columns; implemented by subclasses."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Derived helpers
    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Class labels with the highest confidence score."""
        return np.argmax(self.predict_proba(X), axis=1)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Classification accuracy on ``(X, y)``."""
        X, y = check_X_y(X, y)
        return float(np.mean(self.predict(X) == y))

    # ------------------------------------------------------------------
    # Validation plumbing
    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if self.n_features_ is None or self.n_classes_ is None:
            raise NotFittedError(
                f"{type(self).__name__} is not fitted; call fit(X, y) first"
            )

    def _validate_fit_inputs(self, X, y) -> tuple[np.ndarray, np.ndarray]:
        X, y = check_X_y(X, y)
        classes = np.unique(y)
        if classes.size < 2:
            raise ValidationError("need at least 2 classes to fit a classifier")
        # Labels are class *indices*: n_classes is max+1 so confidence-vector
        # columns line up across parties even if a subsample happens to miss
        # an intermediate class.
        self.n_features_ = X.shape[1]
        self.n_classes_ = int(classes.max()) + 1
        return X, y

    def _validate_predict_input(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_matrix(X)
        if X.shape[1] != self.n_features_:
            raise ValidationError(
                f"X has {X.shape[1]} features, model was fitted with {self.n_features_}"
            )
        return X


class DifferentiableClassifier(BaseClassifier):
    """A classifier whose prediction function is differentiable end-to-end."""

    def forward_tensor(self, x: Tensor) -> Tensor:
        """Confidence scores as a tensor, preserving the autodiff graph.

        ``x`` has shape ``(n_samples, n_features)``; the result has shape
        ``(n_samples, n_classes)``. Gradients flow back into ``x`` (the
        model's own parameters are treated as constants during an attack).
        """
        raise NotImplementedError
