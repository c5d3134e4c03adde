"""The four benchmark workloads, built from a seed outside the timed region.

Every workload is a closed loop: its operations (a cell is one
``run_scenario`` call, a replay one ``ShardedPredictionService.replay``)
run one after another, each starting when the previous one returned.
The benchmark calls only the public entry points ``run_scenario``,
``build_scenario`` and ``ShardedPredictionService.replay``.

Each operation returns an :class:`Outcome`: the payload its digest
covers, the predictions it served, the counts the program reported, and
the reason an invariant failed (``None`` when every check held).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.api import ScenarioConfig, build_scenario, run_scenario
from repro.config import PAPER_FRACTIONS, ScaleConfig, get_scale
from repro.experiments.figures import REAL_DATASETS
from repro.federation import TopologyConfig
from repro.workload import ShardedPredictionService, attacker_trace, make_trace

#: Scale of the tiny variant's GRNA cells: smoke scale with fewer epochs,
#: so the benchmark's own tests and warm-up stay well under a second.
_TINY_GRNA = ScaleConfig(
    name="tiny",
    n_samples=400,
    n_predictions=120,
    n_trials=1,
    fractions=(0.4,),
    lr_epochs=5,
    mlp_hidden=(16,),
    mlp_epochs=2,
    rf_trees=4,
    grna_hidden=(32, 16),
    grna_epochs=3,
    distiller_hidden=(32,),
    distiller_dummy=300,
    distiller_epochs=2,
)


@dataclass
class Outcome:
    payload: dict
    served: int
    counts: dict = field(default_factory=dict)
    problem: "str | None" = None


@dataclass
class Op:
    op_id: str
    kind: str
    run: Callable[[dict], Outcome]
    #: The paper-grid unit the operation belongs to; ``None`` makes it a
    #: unit of its own. The three traffic replays form one unit, as in the
    #: ``traffic`` experiment.
    cell: "str | None" = None


def _seeds(seed: int, n: int) -> list[int]:
    """``n`` derived seeds; the workload seed is the only input."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _cell_outcome(report, expected_predictions: int) -> Outcome:
    comm = report.comm_cost
    availability = report.availability
    passives = report.scenario.vfl.partition.n_parties - 1
    counts = {
        "federation.rounds": comm["rounds"],
        "federation.bytes": comm["bytes"],
        "federation.messages": comm["messages"],
        "federation.requests": comm["rounds"] * passives,
        "resilience.retries": comm["retries"],
        "resilience.timeouts": comm["timeouts"],
        "resilience.rounds_degraded": availability.get("rounds_degraded", 0),
        "serving.queries_used": report.queries_used,
    }
    problem = None
    if report.queries_used != expected_predictions:
        problem = f"served {report.queries_used} of {expected_predictions} predictions"
    elif "mse" in report.metrics and not math.isfinite(report.metrics["mse"]):
        problem = "non-finite mse"
    return Outcome(
        payload={
            "metrics": report.metrics,
            "queries_used": report.queries_used,
            "comm_cost": comm,
            "availability": availability,
        },
        served=report.queries_used,
        counts=counts,
        problem=problem,
    )


def _cell(op_id: str, kind: str, config: ScenarioConfig) -> Op:
    scale = get_scale(config.scale)
    expected = config.n_predictions or scale.n_predictions

    def run(context: dict) -> Outcome:
        return _cell_outcome(run_scenario(config), expected)

    return Op(op_id, kind, run)


# ----------------------------------------------------------------------
# closed_form: the Fig. 5 ESA/LR and Fig. 6 PRA/DT cells
# ----------------------------------------------------------------------
def closed_form(seed: int, tiny: bool = False) -> list[Op]:
    if tiny:
        scale, datasets, fractions = "smoke", ("bank",), (0.4,)
    else:
        scale, datasets, fractions = "default", REAL_DATASETS, PAPER_FRACTIONS
    cells = [(d, f) for d in datasets for f in fractions]
    seeds = _seeds(seed, 2 * len(cells))
    ops = []
    for i, (dataset, fraction) in enumerate(cells):
        pct = round(fraction * 100)
        ops.append(
            _cell(
                f"esa:{dataset}:{pct}",
                "cell",
                ScenarioConfig(
                    dataset=dataset,
                    model="lr",
                    attack="esa",
                    target_fraction=fraction,
                    scale=scale,
                    seed=seeds[2 * i],
                    baselines=("uniform", "gaussian"),
                ),
            )
        )
        ops.append(
            _cell(
                f"pra:{dataset}:{pct}",
                "cell",
                ScenarioConfig(
                    dataset=dataset,
                    model="dt",
                    attack="pra",
                    target_fraction=fraction,
                    scale=scale,
                    seed=seeds[2 * i + 1],
                    baselines=("path",),
                ),
            )
        )
    return ops


# ----------------------------------------------------------------------
# grna: the Fig. 7 GRNA/NN cell and the Fig. 8 GRNA/RF cell
# ----------------------------------------------------------------------
def grna(seed: int, tiny: bool = False) -> list[Op]:
    scale = _TINY_GRNA if tiny else "default"
    nn_seed, rf_seed = _seeds(seed, 2)
    return [
        _cell(
            "grna:nn:bank:40",
            "cell",
            ScenarioConfig(
                dataset="bank",
                model="nn",
                attack="grna",
                target_fraction=0.4,
                scale=scale,
                seed=nn_seed,
                baselines=("uniform", "gaussian"),
            ),
        ),
        _cell(
            "grna:rf:bank:40",
            "cell",
            ScenarioConfig(
                dataset="bank",
                model="rf",
                attack="grna",
                target_fraction=0.4,
                scale=scale,
                seed=rf_seed,
                baselines=("uniform",),
                compute_cbr=True,
            ),
        ),
    ]


# ----------------------------------------------------------------------
# storm: clean and fault-storm cells on a 4-party deployment
# ----------------------------------------------------------------------
STORM_PARTIES = 4
STORM_FLAKY_P = 0.15


def storm(seed: int, tiny: bool = False) -> list[Op]:
    if tiny:
        scale, n_cells, n_predictions = "smoke", 2, 60
    else:
        scale, n_cells, n_predictions = "default", 8, 1500
    seeds = _seeds(seed, n_cells * STORM_PARTIES)
    ops = []
    for i in range(n_cells):
        cell_seed, *fault_seeds = seeds[i * STORM_PARTIES : (i + 1) * STORM_PARTIES]
        common = dict(
            dataset="bank",
            model="lr",
            attack="esa",
            target_fraction=0.4,
            scale=scale,
            seed=cell_seed,
            n_predictions=n_predictions,
            batch_size=1,
        )
        if i % 2 == 0:
            ops.append(
                _cell(
                    f"clean:{i}",
                    "clean",
                    ScenarioConfig(
                        **common, topology=TopologyConfig(n_parties=STORM_PARTIES)
                    ),
                )
            )
            continue
        faults = tuple(
            ("flaky", {"party": party, "p": STORM_FLAKY_P, "seed": fault_seeds[party - 1]})
            for party in range(1, STORM_PARTIES)
        )
        ops.append(
            _cell(
                f"storm:{i}",
                "storm",
                ScenarioConfig(
                    **common,
                    topology=TopologyConfig(n_parties=STORM_PARTIES, faults=faults),
                    retry=3,
                    quorum=0.5,
                    degradation="last_known",
                ),
            )
        )
    return ops


# ----------------------------------------------------------------------
# traffic: one seeded trace replayed through three serving layouts
# ----------------------------------------------------------------------
TRAFFIC_SHARDS = 2


def _replay_outcome(report) -> Outcome:
    ledger = report.ledger
    return Outcome(
        payload=report.accounting(),
        served=ledger["queries_used"] + ledger["cache_hits"],
        counts={
            "serving.queries_used": ledger["queries_used"],
            "serving.cache_hits": ledger["cache_hits"],
            "serving.refusals": sum(report.refusals.values()),
        },
    )


def traffic(seed: int, tiny: bool = False) -> list[Op]:
    if tiny:
        scale, tenants, events = "smoke", 100, 600
    else:
        scale, tenants, events = "default", 2000, 20000
    deploy_seed, benign_seed, attack_seed, service_seed = _seeds(seed, 4)
    vfl = build_scenario("bank", "lr", 0.3, get_scale(scale), deploy_seed).vfl
    benign = make_trace(
        tenants, events, n_samples=vfl.n_samples, process="bursty", seed=benign_seed
    )
    trace = benign.merge(
        attacker_trace(
            "attacker",
            np.arange(min(48, vfl.n_samples)),
            repeats=6,
            batch_size=16,
            seed=attack_seed,
        )
    )

    def deploy(n_shards: int, cache: bool, specs: tuple) -> ShardedPredictionService:
        return ShardedPredictionService(
            vfl,
            n_shards=n_shards,
            defense_specs=specs,
            max_batch=32,
            cache=cache,
            cache_size=256 if cache else None,
            seed=service_seed,
        )

    def audited(context: dict) -> Outcome:
        report = deploy(TRAFFIC_SHARDS, True, ("query_audit",)).replay(trace, mode="threads")
        context["audited"] = report.consumer_accounting()
        return _replay_outcome(report)

    def oracle(context: dict) -> Outcome:
        # Consumer-scoped caches make the per-consumer accounting
        # independent of the shard count: one serial shard must agree
        # with the threaded replay exactly.
        report = deploy(1, True, ("query_audit",)).replay(trace, mode="serial")
        outcome = _replay_outcome(report)
        if report.consumer_accounting() != context.get("audited"):
            outcome.problem = "1-shard serial accounting differs from the threaded replay"
        return outcome

    def plain(context: dict) -> Outcome:
        report = deploy(TRAFFIC_SHARDS, False, ()).replay(trace, mode="threads")
        outcome = _replay_outcome(report)
        if report.ledger["queries_used"] != trace.n_queries or report.refusals:
            outcome.problem = "plain replay did not serve every requested sample"
        return outcome

    return [
        Op("replay:audited:threads", "replay", audited, cell="traffic"),
        Op("replay:audited:serial", "replay", oracle, cell="traffic"),
        Op("replay:plain:threads", "replay", plain, cell="traffic"),
    ]


#: Workload name -> function making its operation list from ``(seed, tiny)``.
WORKLOADS: dict[str, Callable[..., list[Op]]] = {
    "closed_form": closed_form,
    "grna": grna,
    "storm": storm,
    "traffic": traffic,
}
