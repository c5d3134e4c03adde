"""The ``fault_storm`` experiment: attack efficacy under degraded service.

The paper evaluates every attack against a deployment that never fails;
the resilience layer makes the opposite regime measurable. For each cell
of fault rate × retry budget × quorum fraction, a 3-party deployment
(bank/NN, the paper's GRNA flagship) serves the attacker's accumulation
while both passive parties flake with the cell's probability, the
runtime retries under the cell's attempt budget, and rounds missing a
party either degrade (quorum met, ``last_known`` imputation) or abort
the scenario. Each unit reports whether the accumulation survived at
all, the attack MSE when it did, and the communication bill — bytes,
retry frames, metered timeouts, degraded-round fraction — so the
aggregate table answers two questions at once: *how much reconstruction
accuracy does degraded service cost the attacker* (imputed blocks are
noise in the adversary's view of ``V``), and *what does surviving a
storm cost the deployment on the wire*.

The zero-rate column runs the identical resilient code path (retry and
quorum engaged, no faults to trigger them), so any cost delta against
the storm columns is attributable to the storm, not the machinery.
"""

from __future__ import annotations

import numpy as np

from repro.api import ScenarioConfig, run_scenario
from repro.config import ScaleConfig
from repro.exceptions import PartyUnavailableError
from repro.experiments.spec import (
    Axis,
    ExperimentSpec,
    TrialSpec,
    derive_trial_seeds,
    param,
    reduce,
    register_experiment,
)
from repro.federation import TopologyConfig

__all__ = ["fault_storm_run_unit", "fault_storm_sweep"]

#: Per-attempt failure probability of each passive party.
STORM_RATES = (0.0, 0.15, 0.3)

#: Retry attempt budgets (1 = the fail-fast baseline with metering on).
STORM_RETRIES = (1, 3)

#: Quorum fractions of the 3-party deployment: 2/3 needs one passive
#: party alive, 1/3 lets the active party answer entirely from imputation.
STORM_QUORUMS = (2 / 3, 1 / 3)

#: Deployment shape: dataset, model, attack, party count, serving batch.
STORM_DATASET = "bank"
STORM_MODEL = "nn"
STORM_ATTACK = "grna"
N_PARTIES = 3
STORM_BATCH = 16


def fault_storm_run_unit(unit: TrialSpec, scale: ScaleConfig) -> dict:
    """Run one storm cell end to end; report survival, MSE, and the bill."""
    params = unit.kwargs
    rate = float(params["rate"])
    fault_seeds = derive_trial_seeds(unit.seed, N_PARTIES - 1)
    faults = tuple(
        ("flaky", {"party": party, "p": rate, "seed": fault_seeds[party - 1]})
        for party in range(1, N_PARTIES)
        if rate > 0.0
    )
    config = ScenarioConfig(
        dataset=STORM_DATASET,
        model=STORM_MODEL,
        attack=STORM_ATTACK,
        scale=scale,
        seed=unit.seed,
        topology=TopologyConfig(n_parties=N_PARTIES, faults=faults),
        batch_size=STORM_BATCH,
        retry=int(params["retries"]),
        quorum=float(params["quorum"]),
        degradation="last_known",
    )
    try:
        report = run_scenario(config)
    except PartyUnavailableError as exc:
        # Below quorum even after the retry budget: the scenario aborts
        # and the cell records a service failure instead of an MSE.
        return {"failed": True, "reason": type(exc).__name__}
    availability = report.availability
    rounds_total = max(1, int(availability["rounds_total"]))
    return {
        "failed": False,
        "mse": float(report.metrics["mse"]),
        "bytes": int(report.comm_cost["bytes"]),
        "retries": int(report.comm_cost["retries"]),
        "timeouts": int(report.comm_cost["timeouts"]),
        "rounds_total": rounds_total,
        "rounds_degraded": int(availability["rounds_degraded"]),
    }


def _survivors(value, how=np.mean, cast=float, empty=float("nan")):
    """A column over the trials whose scenario survived the storm."""

    def column(params: dict, payloads: list[dict]):
        survived = [p for p in payloads if not p["failed"]]
        return cast(how([value(p) for p in survived])) if survived else empty

    return column


fault_storm_sweep = register_experiment(
    ExperimentSpec(
        "fault_storm",
        title=f"Fault storm: {STORM_ATTACK} on {STORM_MODEL}/{STORM_DATASET} "
        f"({N_PARTIES} parties) vs fault rate × retry budget × quorum",
        grid=(
            Axis("rate", STORM_RATES, "rates"),
            Axis("retries", STORM_RETRIES, "retries"),
            Axis("quorum", STORM_QUORUMS, "quorums"),
        ),
        unit_id="r{rate:pct}:a{retries}:q{quorum:pct}:t{trial}",
        run_unit=fault_storm_run_unit,
        columns=(
            ("fault_rate", param("rate", float)),
            ("retry_budget", param("retries", int)),
            ("quorum", param("quorum", lambda quorum: round(float(quorum), 4))),
            ("failure_rate", reduce("failed")),
            ("mse", _survivors(lambda p: p["mse"])),
            ("comm_bytes", _survivors(lambda p: p["bytes"])),
            ("retries", _survivors(lambda p: p["retries"], sum, int, 0)),
            ("timeouts", _survivors(lambda p: p["timeouts"], sum, int, 0)),
            (
                "degraded_fraction",
                _survivors(lambda p: p["rounds_degraded"] / p["rounds_total"]),
            ),
        ),
        seed=29,
    )
)
