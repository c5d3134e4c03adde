"""Experiments as declarations, and the one runner that reads them.

Every paper experiment is a grid: dataset × d_target fraction × trial,
plus whatever axes one figure varies. An :class:`ExperimentSpec` declares
that grid as data:

- its :class:`Axis` tuple, outermost first, and the unit-id template
  each grid point formats into (``"{dataset}:{fraction:pct}:t{trial}"``);
- ``run_unit``, the cell: one small function that names the
  ``ScenarioConfig`` (or two) a unit runs and the report metrics it keeps;
- its columns, each a reduction over the trials of one grid cell (a mean
  unless the declaration says otherwise);
- its title and master seed.

The spec's own methods are the one generic runner. ``trial_units``
expands the grid into independent :class:`TrialSpec` units, each with
its own seed derived from the master seed, so units run in any order, in
any process, and reproduce the serial result bit for bit.
``aggregate`` folds their payloads into the paper's
:class:`~repro.experiments.reporting.ExperimentResult`, one row per grid
cell in grid order. Calling the spec runs it serially in-process through
the batch engine's loop; :func:`~repro.experiments.batch.run_batch` runs
the same units over a process pool and a results store.

Keyword overrides replace an axis's values by its ``override`` name
(``datasets=("bank",)``), or the master seed (``seed=1``); an axis
without an override name is fixed by the paper.

The registry (:data:`EXPERIMENT_SPECS`) is filled when
:mod:`repro.experiments.tables`, :mod:`~repro.experiments.figures`,
:mod:`~repro.experiments.traffic` and :mod:`~repro.experiments.fault_storm`
are imported; :func:`get_experiment_spec` imports them lazily, so a pool
worker resolves every experiment by id.
"""

from __future__ import annotations

import hashlib
import json
import string
from dataclasses import asdict, dataclass
from typing import Any, Callable

import numpy as np

from repro.exceptions import ValidationError
from repro.config import ScaleConfig, get_scale
from repro.experiments.reporting import ExperimentResult
from repro.utils.random import check_random_state


@dataclass(frozen=True)
class TrialSpec:
    """One independently runnable unit of an experiment.

    Attributes
    ----------
    experiment_id:
        Paper reference of the owning experiment (``"fig5"`` ...).
    unit_id:
        Key unique within the experiment, e.g. ``"bank:40:t0"``.
    seed:
        The unit's own trial seed, derived deterministically from the
        experiment's master seed (see :func:`derive_trial_seeds`) so the
        unit is self-contained and order-independent.
    params:
        Sorted ``(name, value)`` pairs with everything ``run_unit`` needs
        (dataset, fraction, model kind, ...). Kept as a tuple so specs are
        hashable and picklable.
    """

    experiment_id: str
    unit_id: str
    seed: int
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(
        cls, experiment_id: str, unit_id: str, seed: int, **params: Any
    ) -> "TrialSpec":
        """Build a spec from keyword parameters (canonically sorted)."""
        return cls(experiment_id, unit_id, int(seed), tuple(sorted(params.items())))

    @property
    def kwargs(self) -> dict[str, Any]:
        """The unit parameters as a plain dict."""
        return dict(self.params)


#: A column's reduction: (the cell's unit params, its trials' payloads) → value.
Reduction = Callable[[dict, "list[dict]"], Any]


@dataclass(frozen=True)
class Axis:
    """One grid axis.

    ``params`` names the unit parameter a value sets; a tuple of names
    sets one parameter per element of a tuple value; ``None`` means each
    value is already a dict of parameters. ``values`` are the defaults,
    or a function of the :class:`ScaleConfig` and the parameters the
    outer axes bound. ``override`` is the keyword that replaces the
    values at call time.
    """

    params: "str | tuple[str, ...] | None"
    values: "tuple | Callable[[ScaleConfig, dict], tuple]"
    override: "str | None" = None

    def bind(self, value: Any) -> dict:
        """The unit parameters one value sets."""
        if self.params is None:
            return dict(value)
        if isinstance(self.params, str):
            return {self.params: value}
        return dict(zip(self.params, value, strict=True))


#: The d_target fractions of the scale, the x-axis of every paper figure.
FRACTIONS = Axis("fraction", lambda scale, bound: scale.fractions)


def param(name: str, show: Callable[[Any], Any] = lambda value: value) -> Reduction:
    """A key column: the cell's unit parameter ``name``."""
    return lambda params, payloads: show(params[name])


def pct(fraction: float) -> int:
    """A fraction as the whole percent the paper's axes print."""
    return int(round(fraction * 100))


def reduce(key: str, how: Callable = np.mean, cast: Callable = float) -> Reduction:
    """``cast(how(...))`` of payload ``key`` over the cell's trials."""
    return lambda params, payloads: cast(how([p[key] for p in payloads]))


class _UnitIdFormatter(string.Formatter):
    """``str.format`` plus the ``pct`` spec: ``{fraction:pct}`` → ``40``."""

    def format_field(self, value: Any, format_spec: str) -> str:
        if format_spec == "pct":
            return str(pct(value))
        return super().format_field(value, format_spec)


_UNIT_ID = _UnitIdFormatter()


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment, declared as data; its methods are the runner.

    Attributes
    ----------
    experiment_id:
        Paper reference (``"fig5"`` ...); the registry key.
    title:
        The result's title.
    grid:
        Axes, outermost first. Their product, in order, is the result's
        row order.
    unit_id:
        Template over the unit parameters and ``trial`` (the trial index).
    run_unit:
        The cell: ``run_unit(unit, scale)`` returns a JSON-serializable
        payload. The batch engine calls it, in-process or in a worker.
    columns:
        Each a payload key (its mean over trials, as a float) or a
        ``(name, reduction)`` pair; or a function of the resolved
        overrides returning them.
    seed:
        Master seed of the trial seeds; ``None`` for a deterministic
        experiment, which runs one unit with seed 0 and carries no meta.
    trials:
        Trials per cell; ``None`` follows ``ScaleConfig.n_trials``.
    passthrough:
        Names of columns the payload's ``"rows"`` supply: each payload
        row becomes a result row after the reduced columns.
    shard:
        An axis a unit carries whole (as a tuple parameter) and the
        store caches per value: shard ``f"{unit_id}@{value}"`` carries
        the one-value tuple, and the unit payload is the shards'
        payloads merged in order. An interrupted batch resumes at shard
        granularity.
    """

    experiment_id: str
    title: str
    grid: "tuple[Axis, ...]"
    unit_id: str
    run_unit: Callable[[TrialSpec, ScaleConfig], dict]
    columns: "tuple | Callable[[dict], tuple]"
    seed: "int | None"
    trials: "int | None" = None
    passthrough: "tuple[str, ...]" = ()
    shard: "Axis | None" = None

    def _settings(self, overrides: dict) -> dict:
        """Every override name's values, default or overridden, and the seed."""
        axes = self.grid if self.shard is None else (*self.grid, self.shard)
        settings = {axis.override: axis.values for axis in axes if axis.override}
        if self.seed is not None:
            settings["seed"] = self.seed
        unknown = sorted(set(overrides) - set(settings))
        if unknown:
            raise ValidationError(
                f"{self.experiment_id} has no override {unknown}; "
                f"choose from {sorted(settings)}"
            )
        return {**settings, **overrides}

    def trial_units(self, scale: "str | ScaleConfig", **overrides: Any) -> "list[TrialSpec]":
        """Expand the grid into units: one per grid point and trial."""
        scale = get_scale(scale)
        settings = self._settings(overrides)
        cells: list[dict] = [{}]
        for axis in self.grid:
            values = settings.get(axis.override, axis.values)
            cells = [
                {**cell, **axis.bind(value)}
                for cell in cells
                for value in (values(scale, cell) if callable(values) else values)
            ]
        if self.shard is not None:
            whole = tuple(settings[self.shard.override])
            cells = [{**cell, self.shard.params: whole} for cell in cells]
        if self.seed is None:
            seeds = [0]
        else:
            n_trials = scale.n_trials if self.trials is None else self.trials
            seeds = derive_trial_seeds(settings["seed"], n_trials)
        return ensure_unique_unit_ids(
            [
                TrialSpec.make(
                    self.experiment_id,
                    _UNIT_ID.format(self.unit_id, trial=t, **cell),
                    seed,
                    **cell,
                )
                for cell in cells
                for t, seed in enumerate(seeds)
            ]
        )

    def shard_unit(self, unit: TrialSpec, scale: ScaleConfig) -> "list[TrialSpec]":
        """The unit's shards, in order (none when the spec declares no shard)."""
        if self.shard is None:
            return []
        name = self.shard.params
        return ensure_unique_unit_ids(
            [
                TrialSpec.make(
                    unit.experiment_id,
                    f"{unit.unit_id}@{value}",
                    unit.seed,
                    **{**unit.kwargs, name: (value,)},
                )
                for value in unit.kwargs[name]
            ]
        )

    @staticmethod
    def merge_shards(
        unit: TrialSpec, shards: "list[TrialSpec]", results: "dict[str, dict]"
    ) -> dict:
        """The unit payload: its shards' payloads merged left to right."""
        merged: dict = {}
        for shard in shards:
            merged.update(results[shard.unit_id])
        return merged

    def aggregate(
        self,
        scale: "str | ScaleConfig",
        units: "list[TrialSpec]",
        results: "dict[str, dict]",
        **overrides: Any,
    ) -> ExperimentResult:
        """Reduce each grid cell's trials to one row (or its passthrough rows)."""
        scale = get_scale(scale)
        settings = self._settings(overrides)
        columns = self.columns(settings) if callable(self.columns) else self.columns
        columns = [(c, reduce(c)) if isinstance(c, str) else c for c in columns]
        cells: dict[tuple, list[dict]] = {}
        for unit in units:
            cells.setdefault(unit.params, []).append(results[unit.unit_id])
        rows = []
        for params, payloads in cells.items():
            row = tuple(how(dict(params), payloads) for _, how in columns)
            if self.passthrough:
                rows.extend((*row, *tail) for p in payloads for tail in p["rows"])
            else:
                rows.append(row)
        if self.seed is None:
            meta = {}
        elif self.trials is None:
            meta = {"scale": scale.name, "trials": scale.n_trials, "seed": settings["seed"]}
        else:
            meta = {"scale": scale.name, "seed": settings["seed"]}
        return ExperimentResult(
            experiment_id=self.experiment_id,
            title=self.title,
            columns=[name for name, _ in columns] + list(self.passthrough),
            rows=rows,
            meta=meta,
        )

    def __call__(
        self, scale: "str | ScaleConfig" = "default", **overrides: Any
    ) -> ExperimentResult:
        """Run every unit serially in this process and aggregate."""
        from repro.experiments.batch import execute_units

        scale = get_scale(scale)
        units = self.trial_units(scale, **overrides)
        results = execute_units(self, scale, units)
        return self.aggregate(scale, units, results, **overrides)


#: Registry of declared experiments, keyed by paper id, in declaration order.
EXPERIMENT_SPECS: dict[str, ExperimentSpec] = {}


def register_experiment(spec: ExperimentSpec) -> ExperimentSpec:
    """Add ``spec`` to the registry (last registration wins)."""
    EXPERIMENT_SPECS[spec.experiment_id] = spec
    return spec


def _ensure_registered() -> None:
    """Import the modules whose import side-effect fills the registry."""
    import repro.experiments.tables  # noqa: F401
    import repro.experiments.figures  # noqa: F401
    import repro.experiments.traffic  # noqa: F401
    import repro.experiments.fault_storm  # noqa: F401


def get_experiment_spec(experiment_id: str) -> ExperimentSpec:
    """Look up a declared experiment, importing the declarations if needed."""
    if experiment_id not in EXPERIMENT_SPECS:
        _ensure_registered()
    try:
        return EXPERIMENT_SPECS[experiment_id]
    except KeyError:
        raise ValidationError(
            f"unknown experiment {experiment_id!r}; "
            f"choose from {sorted(EXPERIMENT_SPECS)}"
        ) from None


def ensure_unique_unit_ids(units: "list[TrialSpec]") -> "list[TrialSpec]":
    """Reject decompositions whose unit ids collide.

    Results are keyed by unit id, so any collision — two fractions that
    round to the same display percent, or a dataset listed twice — would
    silently merge distinct cells into one mis-weighted row. Fail loudly
    instead.
    """
    seen: dict[str, TrialSpec] = {}
    for unit in units:
        other = seen.get(unit.unit_id)
        if other is not None:
            raise ValidationError(
                f"duplicate unit id {unit.unit_id!r} in {unit.experiment_id}: "
                f"{dict(other.params)} vs {dict(unit.params)}"
            )
        seen[unit.unit_id] = unit
    return units


def derive_trial_seeds(seed: int, n_trials: int) -> list[int]:
    """Derive one deterministic trial seed per repetition from a master seed.

    This is the seed schedule the original serial loops used, so decomposed
    runs (serial, parallel, or resumed from a store) reproduce identical
    tables.
    """
    rng = check_random_state(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n_trials)]


def config_hash(scale: ScaleConfig, spec: TrialSpec) -> str:
    """Hash everything that determines a unit's payload except its seed.

    The hash covers the full :class:`ScaleConfig` and the unit parameters,
    so changing any size knob (epochs, trees, hidden sizes, ...) or any
    experiment parameter invalidates cached results for that unit.
    """
    blob = json.dumps(
        {"scale": asdict(scale), "params": spec.kwargs},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
