"""The paper's tables (Table II statistics, Table III ablation), as declarations.

Like the figures (see :mod:`repro.experiments.figures`), each table is one
:class:`~repro.experiments.spec.ExperimentSpec` read by the generic
runner. Table II is deterministic: one unit, no seed, no meta, and its
statistics are the same at every scale.
"""

from __future__ import annotations

from repro.api import ScenarioConfig, run_scenario
from repro.config import ScaleConfig
from repro.datasets import table2_rows
from repro.experiments.spec import Axis, ExperimentSpec, TrialSpec, param, register_experiment


# ----------------------------------------------------------------------
# Table II — dataset statistics
# ----------------------------------------------------------------------
def table2_run_unit(unit: TrialSpec, scale: ScaleConfig) -> dict:
    """Materialize the dataset statistics rows."""
    return {
        "rows": [
            [str(name), int(samples), int(classes), int(features)]
            for name, samples, classes, features in table2_rows()
        ]
    }


table2_datasets = register_experiment(
    ExperimentSpec(
        "table2",
        title="Statistics of datasets",
        grid=(),
        unit_id="stats",
        run_unit=table2_run_unit,
        columns=(),
        passthrough=("dataset", "samples", "classes", "features"),
        seed=None,
    )
)


# ----------------------------------------------------------------------
# Table III — GRN component ablation
# ----------------------------------------------------------------------
#: Which GRN components each case of Table III enables.
_FLAGS = ("use_adv", "use_noise", "use_constraint", "use_generator")
ABLATION_CASES = (
    *(
        {"case": case, **dict(zip(_FLAGS, flags))}
        for case, *flags in (
            # (case, input x_adv, input noise, variance constraint, generator)
            (1, False, True, True, True),
            (2, True, False, True, True),
            (3, True, True, False, True),
            (4, True, True, True, False),
            (5, True, True, True, True),
        )
    ),
    {"case": 6},  # the random guess: no GRN at all
)


def table3_run_unit(unit: TrialSpec, scale: ScaleConfig) -> dict:
    """One ablated GRN trial (or one random-guess trial for case 6)."""
    params = unit.kwargs
    common = dict(
        dataset=params["dataset"],
        model="lr",
        target_fraction=params["target_fraction"],
        scale=scale,
        seed=unit.seed,
    )
    if params["case"] == 6:
        report = run_scenario(ScenarioConfig(attack="random_uniform", **common))
        return {"mse": report.metrics["mse"]}
    use_generator = params["use_generator"]
    report = run_scenario(
        ScenarioConfig(
            attack="grna",
            attack_params={
                "use_adv_input": params["use_adv"],
                "use_noise": params["use_noise"],
                "variance_penalty": 1.0 if params["use_constraint"] else 0.0,
                "use_generator": use_generator,
                # Case 4 (no generator) is the paper's *naive regression*:
                # unbounded free variables, no output squashing.
                "output_activation": "sigmoid" if use_generator else "linear",
                "clip_to_unit": False if not use_generator else True,
            },
            **common,
        )
    )
    return {"mse": report.metrics["mse"]}


def _flag(name: str):
    """A component-flag column; case 6 sets no flag, so it reads False."""
    return lambda params, payloads: params.get(name, False)


table3_ablation = register_experiment(
    ExperimentSpec(
        "table3",
        title="GRN ablation on bank (LR, d_target=40%)",
        grid=(
            Axis(None, ABLATION_CASES),
            Axis("dataset", ("bank",)),
            Axis("target_fraction", (0.4,)),
        ),
        unit_id="case{case}:t{trial}",
        run_unit=table3_run_unit,
        columns=(
            ("case", param("case")),
            *(
                (column, _flag(name))
                for column, name in zip(
                    ("input_xadv", "input_noise", "constraint", "generator"), _FLAGS
                )
            ),
            "mse",
        ),
        seed=3,
    )
)
