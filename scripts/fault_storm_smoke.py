"""Fault-storm smoke: the protocol round is deterministic end to end.

Two claims, checked in seconds on tiny data (the CI ``fault-storm`` job):

1. **Scheduler bit-identity under a storm.** The same flaky+timeout
   storm served through the sequential and the threaded scheduler yields
   byte-identical attack metrics, communication ledgers, and
   availability reports — every retry wave, backoff draw, timeout, and
   degraded round is a pure function of the seeds, never of thread
   timing.
2. **Mid-storm suspend/resume bit-identity.** The same scenario halted
   by a serving checkpoint two protocol rounds into the storm and then
   resumed produces the exact report of an uninterrupted run — the
   simulated clock, reply cache, and retry/timeout counters all travel
   through the snapshot.

Exit code 0 on success. Run via ``make storm-smoke`` (CI) or directly::

    PYTHONPATH=src python scripts/fault_storm_smoke.py
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.api import ScenarioConfig, run_scenario  # noqa: E402
from repro.checkpoint import CheckpointPause, CheckpointPlan  # noqa: E402
from repro.config import ScaleConfig  # noqa: E402
from repro.federation import TopologyConfig  # noqa: E402

SCALE = ScaleConfig(
    name="stormsmoke",
    n_samples=300,
    n_predictions=96,
    n_trials=1,
    fractions=(0.4,),
    lr_epochs=5,
    mlp_hidden=(16,),
    mlp_epochs=2,
    rf_trees=4,
    grna_hidden=(16,),
    grna_epochs=2,
    distiller_hidden=(32,),
    distiller_dummy=200,
    distiller_epochs=2,
)

STORM = TopologyConfig(
    n_parties=3,
    faults=(
        ("flaky", {"party": 1, "p": 0.35, "seed": 7}),
        ("timeout", {"party": 2, "p": 0.3, "delay": 0.5, "seed": 8}),
    ),
)


def storm_config(scheduler: str) -> ScenarioConfig:
    return ScenarioConfig(
        dataset="bank",
        model="lr",
        attack="esa",
        target_fraction=0.4,
        scale=SCALE,
        seed=17,
        topology=STORM,
        batch_size=16,
        scheduler=scheduler,
        retry={"max_attempts": 3, "backoff_base": 0.01, "jitter": 0.5, "timeout": 0.1},
        quorum=2 / 3,
        degradation="last_known",
    )


def main() -> int:
    sequential = run_scenario(storm_config("sequential"))
    threaded = run_scenario(storm_config("threaded"))

    if sequential.availability["rounds_degraded"] == 0:
        print("FAIL: the smoke storm degraded no rounds; nothing was tested")
        return 1
    for field in ("metrics", "comm_cost", "availability"):
        a, b = getattr(sequential, field), getattr(threaded, field)
        if a != b:
            print(f"FAIL: {field} differs between schedulers\n  {a}\n  {b}")
            return 1
    print(
        "PASS: sequential == threaded under the storm "
        f"({sequential.availability['rounds_degraded']}/"
        f"{sequential.availability['rounds_total']} rounds degraded, "
        f"{sequential.availability['retries']} retries, "
        f"{sequential.availability['timeouts']} timeouts)"
    )

    config = storm_config("sequential")
    with tempfile.TemporaryDirectory(prefix="repro-storm-smoke-") as tmp:
        store = Path(tmp) / "snapshots"
        try:
            run_scenario(
                config, serving_checkpoint=CheckpointPlan(store, halt_after=2)
            )
        except CheckpointPause:
            pass
        else:
            print("FAIL: the halting run completed; nothing was suspended")
            return 1
        resumed = run_scenario(config, serving_checkpoint=CheckpointPlan(store))
    if resumed.to_json() != sequential.to_json():
        print(
            "FAIL: mid-storm resume diverged from the uninterrupted run\n"
            f"  resumed:  {resumed.to_json()}\n"
            f"  fresh:    {sequential.to_json()}"
        )
        return 1
    print("PASS: mid-storm suspend/resume is bit-identical")

    # Guard the engagement rule itself: an all-defaults config must not
    # carry an availability report (the fail-fast round reports nothing).
    plain = run_scenario(
        dataclasses.replace(
            config, topology=None, retry=None, quorum=None, degradation="zero_fill"
        )
    )
    if plain.availability != {}:
        print(f"FAIL: defaults engaged resilience: {plain.availability}")
        return 1
    print("PASS: all-defaults config reports no availability (fail-fast)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
