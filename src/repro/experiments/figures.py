"""The paper's figures (§VI) and two serving-layer sweeps, as declarations.

Each experiment is one :class:`~repro.experiments.spec.ExperimentSpec`:
its grid, its unit-id template, one cell function naming the
:class:`~repro.api.ScenarioConfig` (or two) a unit runs and the report
metrics it keeps, its columns with their reductions (a mean over trials
unless stated), and its title. The spec's generic methods expand, run
and aggregate it; calling a spec (``fig5_esa("smoke")``) runs it
serially, and ``run_batch`` runs the same units in parallel and
resumably. Absolute values depend on the synthetic stand-in datasets
(see DESIGN.md); the claims under reproduction are the *shapes*: who
beats whom, monotonicity in d_target, and where the exactness threshold
falls.

The cells run through :func:`repro.api.run_scenario`, whose seed
schedule replicates the historical runners, so the tables are
bit-identical to the pre-refactor implementation (regression-tested in
``tests/test_api_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

from repro.api import (
    DefenseStack,
    ScenarioConfig,
    ScenarioReport,
    build_scenario,
    run_scenario,
)
from repro.config import ScaleConfig
from repro.experiments.spec import (
    FRACTIONS,
    Axis,
    ExperimentSpec,
    TrialSpec,
    param,
    pct,
    reduce,
    register_experiment,
)
from repro.metrics import correlation_report, feature_wise_mse

REAL_DATASETS = ("bank", "credit", "drive", "news")

#: The leading columns of every d_target series.
DATASET = ("dataset", param("dataset"))
DTARGET = ("dtarget_pct", param("fraction", pct))


def _datasets(default: tuple[str, ...]) -> Axis:
    return Axis("dataset", default, "datasets")


def _scenario(unit: TrialSpec, scale: ScaleConfig, **knobs) -> ScenarioReport:
    """Run one scenario on the unit's dataset, d_target fraction and seed."""
    params = unit.kwargs
    if "fraction" in params:
        knobs.setdefault("target_fraction", params["fraction"])
    return run_scenario(
        ScenarioConfig(dataset=params["dataset"], scale=scale, seed=unit.seed, **knobs)
    )


# ----------------------------------------------------------------------
# Fig. 5 — Equality Solving Attack, MSE per feature vs d_target
# ----------------------------------------------------------------------
def fig5_run_unit(unit: TrialSpec, scale: ScaleConfig) -> dict:
    """ESA + random-guess baselines on one scenario."""
    report = _scenario(unit, scale, model="lr", attack="esa", baselines=("uniform", "gaussian"))
    return {
        "esa_mse": report.metrics["mse"],
        "rg_uniform_mse": report.metrics["rg_uniform_mse"],
        "rg_gaussian_mse": report.metrics["rg_gaussian_mse"],
        "exact": bool(report.result.info["is_exact"]),
    }


fig5_esa = register_experiment(
    ExperimentSpec(
        "fig5",
        title="ESA: MSE per feature vs d_target fraction",
        grid=(_datasets(REAL_DATASETS), FRACTIONS),
        unit_id="{dataset}:{fraction:pct}:t{trial}",
        run_unit=fig5_run_unit,
        columns=(
            DATASET,
            DTARGET,
            "esa_mse",
            "rg_uniform_mse",
            "rg_gaussian_mse",
            ("exact", reduce("exact", all, bool)),
        ),
        seed=5,
    )
)
fig5_units = fig5_esa.trial_units


# ----------------------------------------------------------------------
# Fig. 6 — Path Restriction Attack, CBR vs d_target
# ----------------------------------------------------------------------
def fig6_run_unit(unit: TrialSpec, scale: ScaleConfig) -> dict:
    """PRA + random-path baseline over every accumulated prediction."""
    report = _scenario(unit, scale, model="dt", attack="pra", baselines=("path",))
    return {
        "pra_cbr": report.metrics["pra_cbr"],
        "rg_cbr": report.metrics["rg_path_cbr"],
        "restricted": report.metrics["restricted_fractions"],
    }


fig6_pra = register_experiment(
    ExperimentSpec(
        "fig6",
        title="PRA: correct branching rate vs d_target fraction",
        grid=(_datasets(REAL_DATASETS), FRACTIONS),
        unit_id="{dataset}:{fraction:pct}:t{trial}",
        run_unit=fig6_run_unit,
        columns=(
            DATASET,
            DTARGET,
            ("pra_cbr", reduce("pra_cbr", np.nanmean)),
            ("rg_cbr", reduce("rg_cbr", np.nanmean)),
            # The mean over every trial's restricted fractions, pooled.
            (
                "restricted_fraction",
                lambda params, payloads: float(
                    np.mean([value for p in payloads for value in p["restricted"]])
                ),
            ),
        ),
        seed=6,
    )
)
fig6_units = fig6_pra.trial_units


# ----------------------------------------------------------------------
# Fig. 7 — GRNA MSE for LR / RF / NN models
# ----------------------------------------------------------------------
def fig7_run_unit(unit: TrialSpec, scale: ScaleConfig) -> dict:
    """GRNA against every model kind of the unit on one trial's scenarios.

    The random-guess baselines are scored on the last model's scenario
    (the paper's protocol accumulates one pool per trial); they depend
    only on the trial's pool and seed, so every per-model shard scores
    them bit-identically.
    """
    models = tuple(unit.kwargs["models"])
    payload: dict[str, float] = {}
    for model_kind in models:
        last = model_kind == models[-1]
        report = _scenario(
            unit,
            scale,
            model=model_kind,
            attack="grna",
            baselines=("uniform", "gaussian") if last else (),
        )
        payload[f"grna_{model_kind}_mse"] = report.metrics["mse"]
    payload["rg_uniform_mse"] = report.metrics["rg_uniform_mse"]
    payload["rg_gaussian_mse"] = report.metrics["rg_gaussian_mse"]
    return payload


fig7_grna = register_experiment(
    ExperimentSpec(
        "fig7",
        title="GRNA: MSE per feature vs d_target fraction (LR/RF/NN)",
        grid=(_datasets(REAL_DATASETS), FRACTIONS),
        unit_id="{dataset}:{fraction:pct}:t{trial}",
        run_unit=fig7_run_unit,
        columns=lambda settings: (
            DATASET,
            DTARGET,
            *(f"grna_{m}_mse" for m in settings["models"]),
            "rg_uniform_mse",
            "rg_gaussian_mse",
        ),
        seed=7,
        # One shard per model kind: bank:40:t0 → bank:40:t0@lr ...
        shard=Axis("models", ("lr", "rf", "nn"), "models"),
    )
)
fig7_units = fig7_grna.trial_units


# ----------------------------------------------------------------------
# Fig. 8 — GRNA on the RF model, CBR metric
# ----------------------------------------------------------------------
def fig8_run_unit(unit: TrialSpec, scale: ScaleConfig) -> dict:
    """Branch agreement of one GRNA reconstruction on the true forest."""
    report = _scenario(
        unit, scale, model="rf", attack="grna", baselines=("uniform",), compute_cbr=True
    )
    return {"grna_cbr": report.metrics["cbr"], "rg_cbr": report.metrics["rg_uniform_cbr"]}


fig8_grna_rf_cbr = register_experiment(
    ExperimentSpec(
        "fig8",
        title="GRNA on RF: correct branching rate vs d_target fraction",
        grid=(_datasets(REAL_DATASETS), FRACTIONS),
        unit_id="{dataset}:{fraction:pct}:t{trial}",
        run_unit=fig8_run_unit,
        columns=(
            DATASET,
            DTARGET,
            ("grna_cbr", reduce("grna_cbr", np.nanmean)),
            ("rg_cbr", reduce("rg_cbr", np.nanmean)),
        ),
        seed=8,
    )
)


# ----------------------------------------------------------------------
# Fig. 9 — effect of the number of accumulated predictions
# ----------------------------------------------------------------------
def fig9_run_unit(unit: TrialSpec, scale: ScaleConfig) -> dict:
    """GRNA-NN with a restricted prediction pool on one scenario."""
    pool_size = scale.n_samples // 2  # half the data is the prediction pool
    report = _scenario(
        unit,
        scale,
        model="nn",
        attack="grna",
        n_predictions=max(16, int(pool_size * unit.kwargs["pool_fraction"])),
        baselines=("uniform", "gaussian"),
    )
    return {
        "grna_mse": report.metrics["mse"],
        "rg_uniform_mse": report.metrics["rg_uniform_mse"],
        "rg_gaussian_mse": report.metrics["rg_gaussian_mse"],
    }


fig9_num_predictions = register_experiment(
    ExperimentSpec(
        "fig9",
        title="GRNA-NN: effect of number of accumulated predictions",
        grid=(
            _datasets(("synthetic1", "synthetic2", "drive", "news")),
            FRACTIONS,
            Axis("pool_fraction", (0.1, 0.3, 0.5), "pool_fractions"),
        ),
        unit_id="{dataset}:{fraction:pct}:p{pool_fraction:pct}:t{trial}",
        run_unit=fig9_run_unit,
        columns=(
            DATASET,
            DTARGET,
            ("predictions_pct", param("pool_fraction", pct)),
            "grna_mse",
            "rg_uniform_mse",
            "rg_gaussian_mse",
        ),
        seed=9,
    )
)


# ----------------------------------------------------------------------
# Fig. 10 — per-feature MSE vs correlation diagnostics
# ----------------------------------------------------------------------
def fig10_run_unit(unit: TrialSpec, scale: ScaleConfig) -> dict:
    """One panel: per-feature errors and correlation diagnostics."""
    report = _scenario(unit, scale, model=unit.kwargs["model"], attack="grna")
    scenario = report.scenario
    diagnostics = correlation_report(
        scenario.X_adv,
        scenario.X_target,
        scenario.V,
        feature_wise_mse(report.result.x_target_hat, scenario.X_target),
    )
    return {
        "rows": [
            [int(feature_id), float(mse), float(corr_adv), float(corr_pred)]
            for feature_id, mse, corr_adv, corr_pred in diagnostics.rows()
        ]
    }


fig10_correlations = register_experiment(
    ExperimentSpec(
        "fig10",
        title="Per-feature MSE vs correlation with x_adv and predictions",
        # The paper's panels: (a) bank + LR at 40%, (b) credit + RF at 30%.
        grid=(
            Axis(("dataset", "model", "fraction"), (("bank", "lr", 0.4), ("credit", "rf", 0.3))),
        ),
        unit_id="{dataset}:{model}:{fraction:pct}",
        run_unit=fig10_run_unit,
        columns=(DATASET, ("model", param("model"))),
        passthrough=("feature_id", "mse", "corr_with_adv", "corr_with_pred"),
        seed=10,
        trials=1,
    )
)


# ----------------------------------------------------------------------
# Fig. 11 — countermeasures
# ----------------------------------------------------------------------
#: Fig. 11 defense levels per model: rounding on LR (decimal digits
#: kept; None = undefended), dropout on NN (the dropout probability).
FIG11_LEVELS = {
    "lr": (
        {"defense": "round_0.1", "digits": 1},
        {"defense": "round_0.001", "digits": 3},
        {"defense": "no_round", "digits": None},
    ),
    "nn": (
        {"defense": "dropout", "dropout": 0.25},
        {"defense": "no_dropout", "dropout": 0.0},
    ),
}


def fig11_run_unit(unit: TrialSpec, scale: ScaleConfig) -> dict:
    """One defended trial: rounding on LR (ESA and GRNA), or dropout on NN.

    The rounding defense rides the scenario API's defense stack; the
    attacks automatically target the undefended released weights (the
    facade unwraps output defenses) while V passes through the rounding.
    """
    params = unit.kwargs
    if params["model"] == "nn":
        report = _scenario(
            unit,
            scale,
            model="nn",
            attack="grna",
            model_params={"dropout": params["dropout"]},
            baselines=("uniform",),
        )
        return {
            "esa_mse": float("nan"),
            "grna_mse": report.metrics["mse"],
            "rg_uniform_mse": report.metrics["rg_uniform_mse"],
        }
    digits = params["digits"]
    defenses = (("rounding", {"digits": digits}),) if digits is not None else ()
    # Both attacks score the same deployment, so build it once and hand
    # the prebuilt scenario to each run_scenario call.
    stack = DefenseStack.from_specs(defenses)
    shared = build_scenario(
        params["dataset"],
        "lr",
        params["fraction"],
        scale,
        unit.seed,
        defense_stack=stack if len(stack) else None,
    )
    reports = {
        attack: run_scenario(
            ScenarioConfig(
                dataset=params["dataset"],
                model="lr",
                attack=attack,
                defenses=defenses,
                target_fraction=params["fraction"],
                scale=scale,
                seed=unit.seed,
                baselines=baselines,
            ),
            scenario=shared,
        )
        for attack, baselines in (("esa", ("uniform",)), ("grna", ()))
    }
    return {
        "esa_mse": reports["esa"].metrics["mse"],
        "grna_mse": reports["grna"].metrics["mse"],
        "rg_uniform_mse": reports["esa"].metrics["rg_uniform_mse"],
    }


fig11_defenses = register_experiment(
    ExperimentSpec(
        "fig11",
        title="Countermeasures: rounding (LR) and dropout (NN)",
        grid=(
            Axis(
                ("dataset", "model"),
                (("bank", "lr"), ("drive", "lr"), ("credit", "nn"), ("news", "nn")),
            ),
            FRACTIONS,
            Axis(None, lambda scale, bound: FIG11_LEVELS[bound["model"]]),
        ),
        unit_id="{dataset}:{model}:{defense}:{fraction:pct}:t{trial}",
        run_unit=fig11_run_unit,
        # The NN rows carry a NaN ESA column: ESA needs the LR weights.
        columns=(
            DATASET,
            ("model", param("model")),
            ("defense", param("defense")),
            DTARGET,
            "esa_mse",
            "grna_mse",
            "rg_uniform_mse",
        ),
        seed=11,
    )
)


# ----------------------------------------------------------------------
# Beyond the paper — query-budget sweep through the serving layer
# ----------------------------------------------------------------------
def budget_run_unit(unit: TrialSpec, scale: ScaleConfig) -> dict:
    """GRNA-NN against a metered deployment that truncates at the budget.

    The serving-layer twin of Fig. 9: instead of the adversary *choosing*
    to accumulate fewer predictions, the deployment's query ledger stops
    serving once the budget is spent (``on_budget_exhausted="truncate"``),
    and the attack trains on whatever prefix it could afford. At budget
    fraction 1.0 the ledger never binds, which pins the sweep to the
    unmetered baseline.
    """
    budget = max(16, int(round(scale.n_predictions * unit.kwargs["budget_fraction"])))
    report = _scenario(
        unit,
        scale,
        model="nn",
        attack="grna",
        target_fraction=0.4,
        baselines=("uniform",),
        query_budget=budget,
        batch_size=max(16, budget // 4),
        on_budget_exhausted="truncate",
    )
    return {
        "grna_mse": report.metrics["mse"],
        "rg_uniform_mse": report.metrics["rg_uniform_mse"],
        "queries_used": report.queries_used,
    }


budget_sweep = register_experiment(
    ExperimentSpec(
        "budget",
        title="GRNA-NN under a serving-layer query budget (truncating ledger)",
        grid=(
            _datasets(("bank", "news")),
            # Budgets as fractions of the scale's full prediction pool.
            Axis("budget_fraction", (0.25, 0.5, 1.0), "budget_fractions"),
        ),
        unit_id="{dataset}:q{budget_fraction:pct}:t{trial}",
        run_unit=budget_run_unit,
        columns=(
            DATASET,
            ("budget_pct", param("budget_fraction", pct)),
            ("queries_used", reduce("queries_used", cast=int)),
            "grna_mse",
            "rg_uniform_mse",
        ),
        seed=13,
    )
)


# ----------------------------------------------------------------------
# Beyond the paper — communication-budget sweep through the federation
# runtime
# ----------------------------------------------------------------------
def comm_run_unit(unit: TrialSpec, scale: ScaleConfig) -> dict:
    """GRNA-NN against a deployment whose *wire traffic* is budgeted.

    The federation twin of the ``budget`` experiment one layer down:
    instead of capping how many confidence rows the adversary may
    *learn*, the :class:`~repro.federation.CommLedger` caps how many
    bytes the protocol may *move*. The accumulation runs in (up to)
    four padded protocol rounds; a fractional ``comm_budget`` is
    resolved against the run's exact projected traffic
    (:meth:`~repro.federation.FederationRuntime.estimate_predict_bytes`),
    floored at one round's cost by the facade — so at the usual scales
    0.25 affords exactly one round, 0.5 two, 1.0 pins the sweep to the
    unmetered baseline bit-for-bit, and any legal custom scale still
    produces a data point instead of an empty pool.
    """
    report = _scenario(
        unit,
        scale,
        model="nn",
        attack="grna",
        target_fraction=0.4,
        baselines=("uniform",),
        comm_budget=float(unit.kwargs["comm_fraction"]),
        batch_size=max(1, -(-scale.n_predictions // 4)),
        on_budget_exhausted="truncate",
    )
    return {
        "grna_mse": report.metrics["mse"],
        "rg_uniform_mse": report.metrics["rg_uniform_mse"],
        "queries_used": report.queries_used,
        "comm_bytes": report.comm_cost["bytes"],
    }


comm_sweep = register_experiment(
    ExperimentSpec(
        "comm",
        title="GRNA-NN under a federation communication budget (truncating rounds)",
        grid=(
            _datasets(("bank", "news")),
            # Fractions of the undefended accumulation's exact projected
            # wire traffic (1.0 never binds: the unmetered baseline).
            Axis("comm_fraction", (0.25, 0.5, 1.0), "comm_fractions"),
        ),
        unit_id="{dataset}:c{comm_fraction:pct}:t{trial}",
        run_unit=comm_run_unit,
        columns=(
            DATASET,
            ("comm_pct", param("comm_fraction", pct)),
            ("comm_bytes", reduce("comm_bytes", cast=int)),
            ("queries_used", reduce("queries_used", cast=int)),
            "grna_mse",
            "rg_uniform_mse",
        ),
        seed=17,
    )
)
