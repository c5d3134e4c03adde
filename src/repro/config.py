"""Experiment scale presets.

The paper ran on a 12-core Xeon with full-size datasets; every experiment
here accepts a :class:`ScaleConfig` so the same code runs as a seconds-long
smoke test, a minutes-long default, or a paper-scale session. Attack
*trends* (the claims under reproduction) are stable across scales; absolute
wall-clock and third-decimal MSE are not.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ScenarioError, ValidationError
from repro.utils.knobs import Declared, Float, Int, Seq, Str, knob

#: Fractions of the feature space assigned to the attack target, as in the
#: x-axes of Figs. 5-9 (percent of total features).
PAPER_FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)


@dataclass(frozen=True)
class ScaleConfig(Declared):
    """All size knobs for one experiment run.

    Attributes
    ----------
    n_samples:
        Rows materialized per dataset (train + prediction pool).
    n_predictions:
        Prediction outputs accumulated by the adversary (GRNA training set).
    n_trials:
        Independent repetitions averaged per point (paper: 10).
    fractions:
        The d_target sweep.
    lr_epochs / mlp_hidden / mlp_epochs:
        VFL-model training budgets.
    rf_trees / rf_depth / dt_depth:
        Tree-model shapes (paper: RF 100×depth-3, DT depth 5).
    grna_hidden / grna_epochs:
        Generator budget (paper: (600, 200, 100)).
    distiller_hidden / distiller_dummy / distiller_epochs:
        RF-surrogate budget (paper: (2000, 200) on 20k dummies).
    """

    knob_owner = "scale"
    knob_error = ScenarioError

    name: str = knob(Str())
    n_samples: int = knob(Int())
    n_predictions: int = knob(Int())
    n_trials: int = knob(Int())
    fractions: tuple[float, ...] = knob(Seq(Float()), default=PAPER_FRACTIONS)
    lr_epochs: int = knob(Int(), default=40)
    mlp_hidden: tuple[int, ...] = knob(Seq(Int()), default=(64, 32))
    mlp_epochs: int = knob(Int(), default=10)
    rf_trees: int = knob(Int(), default=30)
    rf_depth: int = knob(Int(), default=3)
    dt_depth: int = knob(Int(), default=5)
    grna_hidden: tuple[int, ...] = knob(Seq(Int()), default=(256, 128, 64))
    grna_epochs: int = knob(Int(), default=40)
    grna_batch_size: int = knob(Int(), default=64)
    distiller_hidden: tuple[int, ...] = knob(Seq(Int()), default=(512, 128))
    distiller_dummy: int = knob(Int(), default=4000)
    distiller_epochs: int = knob(Int(), default=10)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Refuse a malformed field, then an inconsistent scale."""
        super().validate()
        if self.n_predictions > self.n_samples:
            raise ScenarioError(
                f"scale is inconsistent: n_predictions={self.n_predictions} "
                f"exceeds n_samples={self.n_samples}"
            )
        if not self.fractions:
            raise ScenarioError("scale is inconsistent: fractions must be non-empty")
        for f in self.fractions:
            if not 0.0 < f < 1.0:
                raise ScenarioError(
                    f"scale is inconsistent: fractions must lie in (0, 1), got {f}"
                )


SMOKE = ScaleConfig(
    name="smoke",
    n_samples=600,
    n_predictions=240,
    n_trials=1,
    fractions=(0.2, 0.4, 0.6),
    lr_epochs=15,
    mlp_hidden=(32, 16),
    mlp_epochs=5,
    rf_trees=10,
    grna_hidden=(64, 32),
    grna_epochs=10,
    distiller_hidden=(128, 64),
    distiller_dummy=1000,
    distiller_epochs=5,
)

DEFAULT = ScaleConfig(
    name="default",
    n_samples=3000,
    n_predictions=800,
    n_trials=3,
)

FULL = ScaleConfig(
    name="full",
    n_samples=20000,
    n_predictions=4000,
    n_trials=10,
    lr_epochs=80,
    mlp_hidden=(600, 300, 100),
    mlp_epochs=30,
    rf_trees=100,
    grna_hidden=(600, 200, 100),
    grna_epochs=60,
    distiller_hidden=(2000, 200),
    distiller_dummy=20000,
    distiller_epochs=20,
)

PRESETS = {"smoke": SMOKE, "default": DEFAULT, "full": FULL}


def get_scale(name_or_config: "str | ScaleConfig") -> ScaleConfig:
    """Resolve a preset name or pass through an explicit config."""
    if isinstance(name_or_config, ScaleConfig):
        return name_or_config
    try:
        return PRESETS[name_or_config]
    except KeyError:
        raise ValidationError(
            f"unknown scale {name_or_config!r}; choose from {sorted(PRESETS)}"
        ) from None
