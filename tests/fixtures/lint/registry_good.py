"""Good fixture: registrations that satisfy the registry contracts."""

from functools import partial

from repro.api.attacks import ATTACKS
from repro.experiments.spec import ExperimentSpec


class AttackBase:
    """A project-visible base supplying part of the surface."""

    def run(self, x_adv, v):
        return v


@ATTACKS.register("fixture-complete")
class CompleteAttack(AttackBase):
    name = "fixture-complete"

    def prepare(self, scenario):
        self.scenario = scenario


class ConfiguredAttack(AttackBase):
    def __init__(self, strength):
        self.name = f"fixture-configured-{strength}"
        self.strength = strength

    def prepare(self, scenario):
        self.scenario = scenario


ATTACKS.register("fixture-configured", partial(ConfiguredAttack, strength=2))


# Trials follow the scale; a lambda cell is fine (workers look specs up by id).
SPEC = ExperimentSpec(
    "fixture-good",
    title="good",
    grid=(),
    unit_id="t{trial}",
    run_unit=lambda unit, scale: {"loss": 0.0},
    columns=("loss",),
    seed=1,
)

# One fixed trial cannot be scaled down further, and need not be.
PANEL = ExperimentSpec(
    "fixture-panel",
    title="one panel",
    grid=(),
    unit_id="panel",
    run_unit=lambda unit, scale: {"loss": 0.0},
    columns=("loss",),
    seed=2,
    trials=1,
)
