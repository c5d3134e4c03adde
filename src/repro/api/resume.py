"""Suspend/resume for whole scenarios: ``run_scenario_resumable``.

One directory per resumable scenario run:

- ``scenario.json`` — the canonical JSON encoding of the
  :class:`~repro.api.ScenarioConfig` (the same encoding
  :meth:`~repro.api.ScenarioReport.to_payload` persists), written on the
  first call and *verified* on every later one — resuming a directory
  with a different config is refused, never silently blended;
- ``serving/`` — :class:`~repro.checkpoint.SnapshotStore` of the
  accumulation (one snapshot per protocol round), injected as
  :func:`~repro.api.run_scenario`'s ``serving_checkpoint``;
- ``attack/`` — snapshot store of GRNA's training loop (one snapshot per
  ``every`` epochs), injected as ``attack_params["checkpoint"]``;
- ``report.json`` — the finished :class:`~repro.api.ScenarioReport`
  payload, written only when the run completes.

Kill the process at any point — SIGKILL included — and calling
:func:`run_scenario_resumable` again with the same config and directory
finishes the run, producing a report **bit-identical** to an
uninterrupted one: the deterministic rebuild (dataset, partition,
training) replays from the seed schedule, while the accumulated rows,
ledgers, rng stream positions, and optimizer state resume from the
snapshots. The ``repro-ckpt`` console script wraps this module for the
command line.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.api.scenario import ScenarioConfig, ScenarioReport, run_scenario
from repro.checkpoint import CheckpointPlan
from repro.exceptions import CheckpointError

__all__ = [
    "ATTACK_SUBDIR",
    "REPORT_FILE",
    "SCENARIO_FILE",
    "SERVING_SUBDIR",
    "config_payload",
    "config_from_payload",
    "run_scenario_resumable",
]

SCENARIO_FILE = "scenario.json"
REPORT_FILE = "report.json"
ATTACK_SUBDIR = "attack"
SERVING_SUBDIR = "serving"


def config_payload(config: ScenarioConfig) -> dict:
    """The canonical JSON encoding of a config (see ``to_payload``).

    Round-tripped through JSON so the result compares equal to a payload
    read back from disk.
    """
    return json.loads(json.dumps(config.to_payload(), sort_keys=True))


def config_from_payload(payload: dict) -> ScenarioConfig:
    """Decode :func:`config_payload` output back into a config."""
    return ScenarioReport.from_payload(
        {"config": payload, "metrics": {}, "queries_used": 0}
    ).config


def run_scenario_resumable(
    config: ScenarioConfig,
    *,
    store_dir: "str | Path",
    every: int = 1,
    keep: "int | None" = 3,
    halt_after: "int | None" = None,
) -> ScenarioReport:
    """Run (or finish) one scenario with on-disk suspend/resume.

    Parameters
    ----------
    config:
        The grid cell to run. Must be JSON-serializable (it is pinned to
        ``scenario.json``); in particular ``attack_params`` may not
        already carry a checkpoint plan — this function injects one.
    store_dir:
        The run's directory. Fresh → created and pinned to this config;
        existing → the pinned config must match exactly, else
        :class:`~repro.exceptions.CheckpointError`.
    every, keep:
        Snapshot cadence and retention for both plans (see
        :class:`~repro.checkpoint.CheckpointPlan`).
    halt_after:
        Deliberately suspend GRNA training after this many epochs by
        raising :class:`~repro.exceptions.CheckpointPause` — the
        programmatic stand-in for a kill, used by tests and the smoke
        script. ``None`` runs to completion.

    Scenarios with defenses get no serving plan (checkpointed
    accumulation refuses defense stacks — per-defense tallies are not
    snapshotted); GRNA still resumes its training loop, and the
    deterministic rebuild covers the rest.
    """
    if "checkpoint" in config.attack_params:
        raise CheckpointError(
            "config.attack_params already carries a 'checkpoint' plan; "
            "run_scenario_resumable owns the plan wiring — pass a plain "
            "config and point store_dir at the run's directory"
        )
    store_dir = Path(store_dir)
    store_dir.mkdir(parents=True, exist_ok=True)
    payload = config_payload(config)
    manifest = store_dir / SCENARIO_FILE
    if manifest.exists():
        pinned = json.loads(manifest.read_text(encoding="utf-8"))
        if pinned != payload:
            raise CheckpointError(
                f"{manifest} pins a different scenario config; refusing to "
                "resume its snapshots under this one — use a fresh store_dir"
            )
    else:
        manifest.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    serving_plan = None
    if not config.defenses:
        serving_plan = CheckpointPlan(
            store_dir / SERVING_SUBDIR, every=every, keep=keep
        )
    run_config = config
    if config.attack == "grna":
        attack_plan = CheckpointPlan(
            store_dir / ATTACK_SUBDIR,
            every=every,
            keep=keep,
            halt_after=halt_after,
        )
        run_config = dataclasses.replace(
            config,
            attack_params={**config.attack_params, "checkpoint": attack_plan},
        )
    report = run_scenario(run_config, serving_checkpoint=serving_plan)
    # The report travels with the *plain* config — the injected plan is
    # run machinery, and it would break JSON persistence.
    report = dataclasses.replace(report, config=config)
    (store_dir / REPORT_FILE).write_text(
        report.to_json() + "\n", encoding="utf-8"
    )
    return report
