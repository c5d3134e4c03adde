"""Shared plumbing for output-perturbation defenses.

Every §VII output defense wraps an already-fitted model so that the
prediction protocol serves perturbed confidence scores while the released
plaintext parameters stay untouched. :class:`ModelWrapper` fixes that
shape once: the wrapper is itself a
:class:`~repro.models.base.BaseClassifier` (so it slots directly into
:class:`repro.federated.VerticalFLModel`), exposes the wrapped ``model``,
and refuses ``fit``. A wrapper implements ``_proba`` as its perturbation
of ``self.model._proba(X)``, so the inherited ``predict_proba``
validates a request once however many wrappers it passes through.
Wrappers compose — wrapping a wrapper chains the perturbations — and
:func:`unwrap_model` recovers the innermost model,
which is what the threat model hands to the adversary (§III-B releases
the *plaintext* θ; only the served outputs are defended).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.models.base import BaseClassifier


class ModelWrapper(BaseClassifier):
    """Base class for defenses that wrap a fitted model's outputs."""

    def __init__(self, model: BaseClassifier) -> None:
        super().__init__()
        model._check_fitted()
        self.model = model
        self.n_features_ = model.n_features_
        self.n_classes_ = model.n_classes_

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ModelWrapper":
        raise ValidationError(
            f"{type(self).__name__} wraps an already-fitted model"
        )


def unwrap_model(model: BaseClassifier) -> BaseClassifier:
    """Peel every defense wrapper off ``model``.

    Returns the innermost fitted model — the plaintext parameters the
    active party legitimately receives even when the served outputs pass
    through a defense stack.
    """
    while isinstance(model, ModelWrapper):
        model = model.model
    return model
