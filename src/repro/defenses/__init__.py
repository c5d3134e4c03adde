"""Countermeasures against prediction-output feature inference (§VII)."""

from repro.defenses.base import ModelWrapper, unwrap_model
from repro.defenses.rounding import RoundedModel, round_confidence_scores
from repro.defenses.noise import NoisyModel, noise_confidence_scores
from repro.defenses.screening import (
    ScreeningReport,
    drop_flagged_features,
    screen_collaboration,
)

__all__ = [
    "ModelWrapper",
    "unwrap_model",
    "RoundedModel",
    "round_confidence_scores",
    "NoisyModel",
    "noise_confidence_scores",
    "ScreeningReport",
    "screen_collaboration",
    "drop_flagged_features",
]
