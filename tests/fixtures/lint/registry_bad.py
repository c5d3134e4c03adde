"""Bad fixture: registrations that break the registry contracts."""

from repro.api.attacks import ATTACKS
from repro.experiments.spec import ExperimentSpec


@ATTACKS.register("incomplete")
class IncompleteAttack:
    """Registered but missing run() and any name."""

    def prepare(self, scenario):
        self.scenario = scenario


ATTACKS.register("ghost", GhostAttack)  # noqa: F821 - class never defined


def run_unit(unit, scale):
    return {"loss": 0.0}


FIRST = ExperimentSpec(
    "fixture-dup", title="first", grid=(), unit_id="t{trial}", run_unit=run_unit,
    columns=("loss",), seed=1,
)
SECOND = ExperimentSpec(
    "fixture-dup", title="second", grid=(), unit_id="t{trial}", run_unit=run_unit,
    columns=("loss",), seed=2,
)
# Eight trials at every scale, smoke included.
SCALE_BLIND = ExperimentSpec(
    "fixture-fixed", title="fixed", grid=(), unit_id="t{trial}", run_unit=run_unit,
    columns=("loss",), seed=3, trials=8,
)
