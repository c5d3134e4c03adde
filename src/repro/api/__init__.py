"""Unified scenario API: registries, composable defenses, one-call attacks.

The paper's evaluation is a grid — {ESA, PRA, GRNA} × {LR, NN, DT, RF} ×
{rounding, noise, screening, verification} × datasets — and this package
exposes every cell of it (plus combinations the paper never ran) through
four string-keyed registries and a facade::

    from repro.api import ScenarioConfig, run_scenario

    report = run_scenario(ScenarioConfig(
        dataset="credit", model="rf", attack="grna",
        defenses=["rounding"], target_fraction=0.3,
        scale="smoke", seed=42, baselines=("uniform",),
    ))
    print(report.metrics)

Layers (lowest first):

- :class:`Registry` (from :mod:`repro.utils.registry`) — the generic
  string-keyed registry with choices-listing unknown-key errors;
- :mod:`repro.api.datasets` / :mod:`repro.api.models` — ``DATASETS`` and
  ``MODELS`` keyed as in Table II and the model grid;
- :mod:`repro.api.defenses` — the composable :class:`DefenseStack`
  (``wrap``/``screen``/``release_mask`` hooks) and the ``DEFENSES``
  registry;
- :mod:`repro.api.attacks` — the unified :class:`ScenarioAttack`
  protocol (``prepare(scenario)`` / ``run(x_adv, v) -> AttackResult``)
  and the ``ATTACKS`` registry;
- :mod:`repro.api.scenario` — :func:`run_scenario` tying it together,
  serving every deployment through a metered
  :class:`~repro.serving.PredictionService`
  (``ScenarioConfig(query_budget=..., batch_size=..., cache=...)``, the
  knobs of its :class:`Deployment` base) so each :class:`ScenarioReport`
  states its ``queries_used``;
- :mod:`repro.api.resume` — :func:`run_scenario_resumable`, the
  suspend/resume wrapper: snapshots the serving accumulation and GRNA's
  training loop into a run directory so a killed scenario finishes
  bit-identically on the next call (``repro-ckpt resume`` on the
  command line).

Invalid combinations (ESA on a tree, verification on an NN, ...) raise
:class:`~repro.exceptions.IncompatibleScenarioError` naming the violated
constraint. The experiment runners in :mod:`repro.experiments` consume
this facade; its seed schedule reproduces their historical outputs
bit-for-bit.
"""

from repro.utils.registry import Registry
from repro.api.datasets import DATASETS, get_dataset_spec, load
from repro.api.models import MODELS, MODEL_KINDS, make_model
from repro.api.defenses import DEFENSES, Defense, DefenseStack, unwrap_model
from repro.api.attacks import (
    ATTACKS,
    EsaScenarioAttack,
    GrnaScenarioAttack,
    PraScenarioAttack,
    RandomBaselineScenarioAttack,
    ScenarioAttack,
    grna_kwargs_from_scale,
    released_model,
)
from repro.api.scenario import (
    Deployment,
    ScenarioConfig,
    ScenarioReport,
    VFLScenario,
    build_scenario,
    run_scenario,
)
from repro.api.resume import run_scenario_resumable
from repro.serving import PredictionService, QueryBudgetExceededError, QueryLedger
from repro.federation import (
    CommBudgetExceededError,
    CommLedger,
    FederationRuntime,
    TopologyConfig,
)

__all__ = [
    "Registry",
    "DATASETS",
    "MODELS",
    "MODEL_KINDS",
    "DEFENSES",
    "ATTACKS",
    "get_dataset_spec",
    "load",
    "make_model",
    "Defense",
    "DefenseStack",
    "unwrap_model",
    "ScenarioAttack",
    "EsaScenarioAttack",
    "PraScenarioAttack",
    "GrnaScenarioAttack",
    "RandomBaselineScenarioAttack",
    "grna_kwargs_from_scale",
    "released_model",
    "Deployment",
    "ScenarioConfig",
    "ScenarioReport",
    "VFLScenario",
    "build_scenario",
    "run_scenario",
    "run_scenario_resumable",
    "PredictionService",
    "QueryBudgetExceededError",
    "QueryLedger",
    "FederationRuntime",
    "CommLedger",
    "CommBudgetExceededError",
    "TopologyConfig",
]
