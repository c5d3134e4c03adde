"""Parallel, resumable batch execution of experiments.

:func:`run_batch` decomposes one experiment into trial units (see
:mod:`repro.experiments.spec`), skips every unit already present in the
:class:`~repro.experiments.store.ResultsStore`, fans the rest out across
a :class:`~concurrent.futures.ProcessPoolExecutor`, persists each
completed unit as it lands, and aggregates the payloads into the paper's
table. Because each unit carries its own deterministic seed, a
``--jobs 8`` run produces a table identical to ``--jobs 1``.

Usage::

    from repro.experiments import ResultsStore, run_batch

    store = ResultsStore("/tmp/results")
    result = run_batch("fig7", "smoke", jobs=4, store=store)
    result = run_batch("fig7", "smoke", jobs=4, store=store)  # all cache hits
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path
from typing import Callable

from repro.exceptions import ValidationError
from repro.config import ScaleConfig, get_scale
from repro.experiments.reporting import ExperimentResult
from repro.experiments.spec import (
    ExperimentSpec,
    TrialSpec,
    config_hash,
    get_experiment_spec,
)
from repro.experiments.store import ResultsStore, RunSummary
from repro.telemetry import NULL_TRACER

ProgressFn = Callable[[str], None]


def _timed_run(experiment, spec: TrialSpec, scale: ScaleConfig) -> tuple[dict, float]:
    start = time.perf_counter()
    payload = experiment.run_unit(spec, scale)
    return payload, time.perf_counter() - start


def _execute_unit(
    experiment_id: str, spec: TrialSpec, scale: ScaleConfig
) -> tuple[dict, float]:
    """Worker entry point: run one unit, return (payload, elapsed seconds).

    Module-level so it pickles into pool workers; the experiment is
    looked up by id inside the worker, importing its declaration on
    demand.
    """
    return _timed_run(get_experiment_spec(experiment_id), spec, scale)


def run_batch(
    experiment_id: str,
    scale: "str | ScaleConfig" = "default",
    *,
    jobs: int = 1,
    store: "ResultsStore | str | None" = None,
    force: bool = False,
    on_progress: "ProgressFn | None" = None,
    tracer=None,
) -> ExperimentResult:
    """Run one experiment over its trial units, in parallel and resumably.

    Parameters
    ----------
    experiment_id:
        Paper id (``"fig5"`` ... ``"table3"``).
    scale:
        Preset name or explicit :class:`ScaleConfig`.
    jobs:
        Worker processes. ``1`` (the default) runs every unit serially in
        this process — identical to the classic runners.
    store:
        Optional :class:`ResultsStore` (or a directory path for one).
        Units whose key is already stored are served from cache; newly
        computed units are persisted as they complete.
    force:
        Recompute every unit even on a cache hit (fresh results still
        overwrite the stored ones).
    on_progress:
        Optional callback receiving human-readable progress lines.
    tracer:
        Optional :class:`~repro.telemetry.Tracer`. Emits one
        ``batch.unit`` event per unit in the parent process — status
        ``"hit"`` (served from the store), ``"start"`` (dispatched) or
        ``"finish"`` (persisted) — plus a ``batch.cache_hits`` counter.
        Operational telemetry: with ``jobs > 1`` the finish order
        follows pool completion, so it sits outside the determinism
        contract the serving/federation spans honor.

    Experiments that declare a ``shard`` axis (see
    :class:`~repro.experiments.spec.ExperimentSpec`) run and are cached at
    *shard* granularity: a unit missing from the store is expanded into
    its shards, every already-stored shard is served from cache, only
    the missing shards execute, and the merged unit payload is persisted
    alongside the shards. The progress line reports the shard-level
    hit/miss split, so an interrupted-and-resumed batch shows exactly
    which work was redone (none, when every shard landed).
    """
    experiment = get_experiment_spec(experiment_id)
    scale = get_scale(scale)
    units = experiment.trial_units(scale)
    results = execute_units(
        experiment,
        scale,
        units,
        jobs=jobs,
        store=store,
        force=force,
        on_progress=on_progress,
        tracer=tracer,
    )
    return experiment.aggregate(scale, units, results)


def execute_units(
    experiment: ExperimentSpec,
    scale: ScaleConfig,
    units: "list[TrialSpec]",
    *,
    jobs: int = 1,
    store: "ResultsStore | str | None" = None,
    force: bool = False,
    on_progress: "ProgressFn | None" = None,
    tracer=None,
) -> "dict[str, dict]":
    """The one loop: every unit's payload by unit id (see :func:`run_batch`)."""
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    if isinstance(store, (str, Path)):
        store = ResultsStore(store)
    experiment_id = experiment.experiment_id
    tracer = tracer or NULL_TRACER

    def trace_unit(unit_id: str, status: str) -> None:
        tracer.event("batch.unit", unit=unit_id, status=status)
        if status == "hit":
            tracer.count("batch.cache_hits")

    def lookup(spec: TrialSpec, digest: str) -> "dict | None":
        if store is None or force:
            return None
        cached = store.get(experiment_id, scale.name, spec.unit_id, digest)
        if cached is not None and cached.seed != spec.seed:
            # The unit id and config hash survive a seed-schedule change;
            # the recorded seed does not. Stale → recompute.
            return None
        return None if cached is None else cached.payload

    results: dict[str, dict] = {}
    pending: list[tuple[TrialSpec, str]] = []
    # Units whose payload must be merged from shards after execution.
    to_merge: list[tuple[TrialSpec, str, list[TrialSpec]]] = []
    shard_hits = shard_misses = unit_hits = 0
    for unit in units:
        digest = config_hash(scale, unit)
        payload = lookup(unit, digest)
        if payload is not None:
            results[unit.unit_id] = payload
            unit_hits += 1
            trace_unit(unit.unit_id, "hit")
        elif not (shards := experiment.shard_unit(unit, scale)):
            pending.append((unit, digest))
        else:
            to_merge.append((unit, digest, shards))
            for shard in shards:
                shard_digest = config_hash(scale, shard)
                shard_payload = lookup(shard, shard_digest)
                if shard_payload is not None:
                    results[shard.unit_id] = shard_payload
                    shard_hits += 1
                    trace_unit(shard.unit_id, "hit")
                else:
                    pending.append((shard, shard_digest))
                    shard_misses += 1
    if on_progress is not None:
        line = (
            f"{experiment_id}: {len(units)} unit(s), "
            f"{unit_hits} cached, {len(pending)} to run (jobs={jobs})"
        )
        if to_merge:
            line += (
                f"; shards: {shard_hits + shard_misses} expanded, "
                f"{shard_hits} cached, {shard_misses} to run"
            )
        on_progress(line)

    elapsed_by_id: dict[str, float] = {}

    def record(unit: TrialSpec, digest: str, payload: dict, elapsed: float) -> None:
        trace_unit(unit.unit_id, "finish")
        results[unit.unit_id] = payload
        elapsed_by_id[unit.unit_id] = elapsed
        if store is not None:
            store.put(
                RunSummary(
                    experiment_id=experiment_id,
                    unit_id=unit.unit_id,
                    scale=scale.name,
                    seed=unit.seed,
                    config_hash=digest,
                    payload=payload,
                    elapsed_s=round(elapsed, 6),
                )
            )

    if jobs == 1 or len(pending) <= 1:
        for unit, digest in pending:
            trace_unit(unit.unit_id, "start")
            payload, elapsed = _timed_run(experiment, unit, scale)
            record(unit, digest, payload, elapsed)
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = {}
            for unit, digest in pending:
                trace_unit(unit.unit_id, "start")
                futures[
                    pool.submit(_execute_unit, experiment_id, unit, scale)
                ] = (unit, digest)
            for future in as_completed(futures):
                unit, digest = futures[future]
                payload, elapsed = future.result()
                record(unit, digest, payload, elapsed)

    for unit, digest, shards in to_merge:
        merged = experiment.merge_shards(unit, shards, results)
        record(
            unit,
            digest,
            merged,
            sum(elapsed_by_id.get(shard.unit_id, 0.0) for shard in shards),
        )

    return results
