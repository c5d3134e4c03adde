"""Experiment harness regenerating every table and figure of the paper.

Each experiment is one declaration, an
:class:`~repro.experiments.spec.ExperimentSpec`: its grid axes, the
cell function naming the scenario(s) a unit runs, its columns with
their reductions, and its title. One generic runner, the spec's own
``trial_units``/``aggregate`` around the batch engine's loop, reads
them all. Two ways to run one:

**Call the declaration** — it runs its trial units serially in-process
and returns an :class:`~repro.experiments.reporting.ExperimentResult`;
keyword overrides replace a grid axis or the master seed::

    from repro.experiments import fig5_esa

    result = fig5_esa("smoke", datasets=("bank",), seed=1)
    print(result.to_text())

**Batch engine** — :func:`~repro.experiments.batch.run_batch` fans the
same trial units out over worker processes and caches each completed
unit in a :class:`~repro.experiments.store.ResultsStore`, so interrupted
runs resume where they stopped and repeated runs are near-instant::

    from repro.experiments import ResultsStore, run_batch

    store = ResultsStore("results/")
    result = run_batch("fig7", "smoke", jobs=4, store=store)
    result = run_batch("fig7", "smoke", jobs=4, store=store)  # cache hits

Both paths produce identical tables: every unit carries its own
deterministic seed (see :mod:`repro.experiments.spec`), so execution
order and process boundaries cannot change the numbers.

The same engine backs the CLI::

    python -m repro.experiments fig7 --scale smoke --jobs 4 --store-dir results/
"""

from repro.config import (
    DEFAULT,
    FULL,
    PAPER_FRACTIONS,
    PRESETS,
    SMOKE,
    ScaleConfig,
    get_scale,
)
from repro.api import VFLScenario, build_scenario, make_model
from repro.experiments.reporting import ExperimentResult
from repro.experiments.spec import (
    EXPERIMENT_SPECS,
    ExperimentSpec,
    TrialSpec,
    config_hash,
    derive_trial_seeds,
    get_experiment_spec,
)
from repro.experiments.store import ResultsStore, RunSummary
# Import order is the registry's order: the tables, the figures, the two
# serving-layer experiments.
from repro.experiments.tables import table2_datasets, table3_ablation
from repro.experiments.figures import (
    fig5_esa,
    fig6_pra,
    fig7_grna,
    fig8_grna_rf_cbr,
    fig9_num_predictions,
    fig10_correlations,
    fig11_defenses,
)
from repro.experiments import traffic
from repro.experiments import fault_storm
from repro.experiments.batch import run_batch
from repro.experiments.runner import EXPERIMENTS

__all__ = [
    "ScaleConfig",
    "SMOKE",
    "DEFAULT",
    "FULL",
    "PRESETS",
    "PAPER_FRACTIONS",
    "get_scale",
    "VFLScenario",
    "build_scenario",
    "make_model",
    "ExperimentResult",
    "TrialSpec",
    "ExperimentSpec",
    "EXPERIMENT_SPECS",
    "get_experiment_spec",
    "derive_trial_seeds",
    "config_hash",
    "ResultsStore",
    "RunSummary",
    "run_batch",
    "fig5_esa",
    "fig6_pra",
    "fig7_grna",
    "fig8_grna_rf_cbr",
    "fig9_num_predictions",
    "fig10_correlations",
    "fig11_defenses",
    "table2_datasets",
    "table3_ablation",
    "EXPERIMENTS",
]
