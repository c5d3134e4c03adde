"""Feature-inference attacks on VFL model predictions (the paper's core)."""

from repro.attacks.base import AttackResult, FeatureInferenceAttack
from repro.attacks.baselines import RandomGuessAttack, random_path
from repro.attacks.esa import EqualitySolvingAttack
from repro.attacks.pra import PathRestrictionAttack
from repro.attacks.grna import (
    GenerativeRegressionNetwork,
    attack_random_forest,
)

__all__ = [
    "AttackResult",
    "FeatureInferenceAttack",
    "RandomGuessAttack",
    "random_path",
    "EqualitySolvingAttack",
    "PathRestrictionAttack",
    "GenerativeRegressionNetwork",
    "attack_random_forest",
]
