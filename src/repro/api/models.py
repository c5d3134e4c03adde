"""Model registry of the scenario API.

Each entry is a builder ``(scale, rng, **overrides) -> BaseClassifier``
that instantiates one of the paper's four VFL model classes at the size
the :class:`~repro.config.ScaleConfig` prescribes. Overrides win over the
scale's defaults, so a scenario can say ``model_params={"epochs": 5}``
without defining a whole new scale preset.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.utils.registry import Registry
from repro.config import ScaleConfig
from repro.models import (
    BaseClassifier,
    DecisionTreeClassifier,
    LogisticRegression,
    MLPClassifier,
    RandomForestClassifier,
)

#: VFL model kinds, keyed as in the paper's grid (``"lr"``/``"nn"``/``"dt"``/``"rf"``).
MODELS = Registry("model")


@MODELS.register("lr", forwards_to=LogisticRegression)
def build_lr(
    scale: ScaleConfig, rng: np.random.Generator, **overrides: Any
) -> LogisticRegression:
    """Logistic regression at the scale's training budget."""
    params: dict[str, Any] = {"epochs": scale.lr_epochs}
    params.update(overrides)
    return LogisticRegression(rng=rng, **params)


@MODELS.register("nn", forwards_to=MLPClassifier)
def build_nn(
    scale: ScaleConfig, rng: np.random.Generator, **overrides: Any
) -> MLPClassifier:
    """MLP classifier at the scale's width/epoch budget (dropout overridable)."""
    params: dict[str, Any] = {
        "hidden_sizes": scale.mlp_hidden,
        "epochs": scale.mlp_epochs,
        "dropout": 0.0,
    }
    params.update(overrides)
    return MLPClassifier(rng=rng, **params)


@MODELS.register("dt", forwards_to=DecisionTreeClassifier)
def build_dt(
    scale: ScaleConfig, rng: np.random.Generator, **overrides: Any
) -> DecisionTreeClassifier:
    """Decision tree at the scale's depth."""
    params: dict[str, Any] = {"max_depth": scale.dt_depth}
    params.update(overrides)
    return DecisionTreeClassifier(rng=rng, **params)


@MODELS.register("rf", forwards_to=RandomForestClassifier)
def build_rf(
    scale: ScaleConfig, rng: np.random.Generator, **overrides: Any
) -> RandomForestClassifier:
    """Random forest at the scale's tree count/depth."""
    params: dict[str, Any] = {"n_trees": scale.rf_trees, "max_depth": scale.rf_depth}
    params.update(overrides)
    return RandomForestClassifier(rng=rng, **params)


#: Model kinds in registration (paper) order — the legacy constant.
MODEL_KINDS = tuple(MODELS)


def make_model(
    kind: str,
    scale: ScaleConfig,
    rng: np.random.Generator,
    *,
    dropout: float = 0.0,
    **overrides: Any,
) -> BaseClassifier:
    """Instantiate a VFL model of the requested kind at the given scale.

    ``dropout`` is accepted for every kind (the historical signature) but
    only forwarded to the NN builder; other overrides go to the builder
    verbatim and fail loudly when the model class rejects them.
    """
    builder = MODELS.get(kind)
    if kind == "nn":
        overrides.setdefault("dropout", dropout)
    return builder(scale, rng, **overrides)
