"""The one-call scenario facade: ``run_scenario(ScenarioConfig) -> ScenarioReport``.

Every cell of the paper's evaluation grid — {ESA, PRA, GRNA} × {LR, NN,
DT, RF} × defenses × datasets (§VI–VII) — follows one skeleton: load a
dataset, split it into a training half and a prediction pool, assign a
fraction of the features to the attack target, train the VFL model
centrally, serve the prediction pool through the (possibly defended)
protocol, attack the accumulated outputs, and score the reconstruction.
:func:`run_scenario` packages that skeleton behind the string-keyed
registries, so any grid cell — including combinations the paper never ran
— is one call::

    from repro.api import ScenarioConfig, run_scenario

    report = run_scenario(ScenarioConfig(
        dataset="bank", model="lr", attack="esa",
        defenses=[("rounding", {"digits": 3})],
        target_fraction=0.4, scale="smoke", seed=0,
        baselines=("uniform",),
    ))
    print(report.metrics["mse"], report.metrics["rg_uniform_mse"])

Determinism contract: a report depends only on ``(config, scale)``.
The seed schedule (four spawned streams for data/partition/model/pick,
a fifth for defenses, attack streams per
:mod:`repro.api.attacks`, baselines seeded with the raw scenario seed)
replicates the historical experiment runners bit-for-bit, which is what
lets :mod:`repro.experiments.figures` run on this facade without
changing a single published number.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from repro.api.attacks import ATTACKS, ScenarioAttack
from repro.api.datasets import DATASETS
from repro.api.defenses import DEFENSES, Defense, DefenseStack, unwrap_model
from repro.api.models import MODELS, make_model
from repro.attacks import AttackResult, RandomGuessAttack
from repro.checkpoint import CheckpointPlan
from repro.config import PRESETS, ScaleConfig, get_scale
from repro.datasets import Dataset, load_dataset
from repro.exceptions import IncompatibleScenarioError, ReproError, ScenarioError
from repro.federated import (
    AdversaryView,
    FeaturePartition,
    VerticalFLModel,
    train_vertical_model,
)
from repro.federation import SCHEDULERS, FederationRuntime, TopologyConfig
from repro.federation.runtime import QUORUM
from repro.metrics import (
    aggregate_cbr,
    mse_per_feature,
    path_cbr_batch,
    reconstruction_cbr_batch,
)
from repro.models import BaseClassifier
from repro.nn.data import train_test_split
from repro.resilience import DEGRADATIONS, BreakerPolicy, RetryPolicy
from repro.serving import PredictionService
from repro.telemetry import NULL_TRACER, check_telemetry_spec, make_tracer
from repro.utils.knobs import (
    BOOL,
    OBJECT,
    Declared,
    Float,
    Int,
    OneOf,
    Pair,
    Seq,
    Str,
    Type,
    decode_field,
    knob,
    knobs,
)
from repro.utils.random import check_random_state, spawn_rngs
from repro.utils.validation import is_int

__all__ = [
    "Deployment",
    "ScenarioConfig",
    "ScenarioReport",
    "VFLScenario",
    "build_scenario",
    "run_scenario",
]

#: Baseline names accepted by :attr:`ScenarioConfig.baselines`.
BASELINES = ("uniform", "gaussian", "path")


@dataclass(kw_only=True)
class Deployment(Declared):
    """How a scenario's prediction pool is served: every deployment knob.

    The paper's adversary acts only in the prediction stage (§III-B), so
    these knobs shape the one thing the attacks consume: the pool of
    predictions the deployment serves. Each knob is declared here once;
    :func:`build_scenario` takes a ``Deployment`` and
    :class:`ScenarioConfig` extends it. The defaults (unlimited, one
    round, no cache, two-block topology, no byte budget, sequential,
    fail-fast, untraced) reproduce the historical scenario bit-for-bit.

    Serving, on the deployment's :class:`~repro.serving.PredictionService`:

    - ``query_budget`` caps the chargeable prediction queries (``None``:
      unlimited);
    - ``batch_size`` bounds each protocol round (``None``: one round);
    - ``cache`` memoizes responses by sample hash, and ``cache_size``
      bounds that memo as an LRU with eviction accounting (``None``:
      unbounded; meaningless without ``cache``);
    - ``on_budget_exhausted`` chooses between raising
      (:class:`~repro.exceptions.QueryBudgetExceededError`,
      :class:`~repro.exceptions.CommBudgetExceededError`; ``"raise"``)
      and attacking the prefix the budgets allowed (``"truncate"``);
    - ``breaker`` (a :class:`~repro.resilience.BreakerPolicy`, an int
      failure threshold, or a payload dict) refuses a consumer's queries
      (:class:`~repro.exceptions.ServiceUnavailableError`) after
      consecutive runtime failures, until a half-open probe succeeds
      (``None``: no breakers).

    Federation, on the :class:`~repro.federation.FederationRuntime`:

    - ``topology`` (a :class:`~repro.federation.TopologyConfig`) sets the
      party count, the colluders joining the adversary view, the column
      apportionment and injected faults (``None``: the paper's two-block
      setting);
    - ``comm_budget`` caps the wire bytes: an ``int`` is absolute bytes,
      a ``float`` in ``(0, 1]`` a fraction of this accumulation's exact
      projected traffic
      (:meth:`~repro.federation.FederationRuntime.estimate_predict_bytes`),
      floored at the first round's cost so a fraction always yields an
      attackable pool;
    - ``scheduler`` runs rounds ``"sequential"`` or ``"threaded"``,
      bit-identically.

    Resilience, in the runtime's protocol round: ``retry`` (a
    :class:`~repro.resilience.RetryPolicy`, an int attempt count, or a
    payload dict) re-requests failed parties, with retries metered as
    request frames, seeded backoff on a simulated clock, and slow replies
    metered as timeouts. ``quorum`` (int party count or float fraction)
    lets a round proceed degraded when enough parties survive, imputing
    the missing blocks by the ``degradation`` strategy
    (:data:`~repro.resilience.DEGRADATIONS`). With neither, a round is
    fail-fast: one attempt, every party required.

    Telemetry: ``telemetry`` builds the scenario's
    :class:`~repro.telemetry.Tracer` (see
    :func:`~repro.telemetry.make_tracer`). ``True`` traces into a memory
    sink, a dict selects the sink (``{"sink": "jsonl", "path": ...,
    "wall": ...}``). Traced record content is deterministic; ``None``
    holds :data:`~repro.telemetry.NULL_TRACER` and runs byte-identically
    to an untraced scenario.
    """

    knob_owner = "scenario config"
    knob_error = ScenarioError
    knob_prefix = False

    query_budget: int | None = knob(Int(low=1), none=True, default=None)
    batch_size: int | None = knob(Int(low=1), none=True, default=None)
    cache: bool = knob(BOOL, default=False)
    cache_size: int | None = knob(Int(low=1), none=True, default=None)
    on_budget_exhausted: str = knob(
        Str(("raise", "truncate"), "exhaustion mode"), default="raise"
    )
    topology: "TopologyConfig | None" = knob(Type(TopologyConfig), none=True, default=None)
    comm_budget: "int | float | None" = knob(
        OneOf(Int(low=1), Float(low=0, high=1, low_open=True)), none=True, default=None
    )
    scheduler: str = knob(Str(SCHEDULERS, "scheduler"), default="sequential")
    retry: "RetryPolicy | int | dict | None" = knob(
        Type((RetryPolicy, int, dict), "a retry policy, int or dict", RetryPolicy.from_spec),
        none=True,
        default=None,
    )
    quorum: "int | float | None" = knob(QUORUM, none=True, default=None)
    degradation: str = knob(Str(DEGRADATIONS), default="zero_fill")
    breaker: "BreakerPolicy | int | dict | None" = knob(
        Type((BreakerPolicy, int, dict), "a breaker policy, int or dict", BreakerPolicy.from_spec),
        none=True,
        default=None,
    )
    telemetry: "bool | dict | None" = knob(
        Type((bool, dict), "a bool or a sink dict", check_telemetry_spec), none=True, default=None
    )

    def validate(self) -> None:
        """Refuse a malformed knob with a typed error that names it.

        The one deployment validator: :func:`run_scenario` and
        :func:`build_scenario` both call it. Each field's declaration
        (see :mod:`repro.utils.knobs`) is checked, then the one rule
        across fields. An integer quorum's upper bound waits for the
        built topology's party count.
        """
        super().validate()
        if self.cache_size is not None and not self.cache:
            raise ScenarioError(
                "cache_size bounds the response cache and is meaningless "
                "without cache=True"
            )


@dataclass
class VFLScenario:
    """Everything one attack experiment needs.

    Attributes
    ----------
    vfl:
        The served vertical FL model (prediction protocol + parties).
    view:
        Adversary/target column split.
    X_adv, X_target:
        The adversary's own columns and the ground-truth target columns of
        the accumulated prediction samples (``X_target`` is used only for
        scoring).
    V:
        Confidence scores the serving layer revealed for those samples.
    X_pred_full:
        The full-width prediction samples (evaluation only, e.g. for CBR).
    meta:
        Defense bookkeeping (screening report, release mask, ...).
    service:
        The deployment's :class:`~repro.serving.PredictionService` — the
        metered query boundary the accumulated ``V`` came through, and
        the attack's only route to further predictions or the released
        model.
    runtime:
        The deployment's :class:`~repro.federation.FederationRuntime` —
        the message-passing protocol the service drives; its
        :class:`~repro.federation.CommLedger` holds the scenario's
        communication cost.
    tracer:
        The deployment's :class:`~repro.telemetry.Tracer`, shared by the
        service, the runtime, and any attack prepared on this scenario;
        :data:`~repro.telemetry.NULL_TRACER` when the scenario was built
        without telemetry.
    """

    dataset: Dataset
    model: BaseClassifier
    vfl: VerticalFLModel
    view: AdversaryView
    X_adv: np.ndarray
    X_target: np.ndarray
    V: np.ndarray
    X_pred_full: np.ndarray
    y_pred: np.ndarray
    meta: dict[str, Any] = field(default_factory=dict)
    service: "PredictionService | None" = None
    runtime: "FederationRuntime | None" = None
    tracer: Any = NULL_TRACER


@contextmanager
def _owned_span(tracer, kind: str, **attrs):
    """A span on a tracer this frame owns: closed if the span raises.

    When an exception (a CheckpointPause suspension included) unwinds
    past the owner, the caller has no handle to the tracer, so its sink
    is closed on the way out. Records are fsync'd per emit, so nothing is
    lost, and a resumed run reopens the file in skip-by-seq mode.
    """
    try:
        with tracer.span(kind, **attrs) as span:
            yield span
    except BaseException:
        tracer.close()
        raise


def build_scenario(
    dataset_name: str,
    model_kind: str,
    target_fraction: float,
    scale: ScaleConfig,
    seed: int,
    *,
    n_predictions: int | None = None,
    model_params: dict[str, Any] | None = None,
    defense_stack: DefenseStack | None = None,
    deployment: Deployment | None = None,
    consumer: str = "scenario",
    checkpoint: "CheckpointPlan | None" = None,
) -> VFLScenario:
    """Construct one complete attack scenario.

    Parameters
    ----------
    dataset_name:
        A Table II dataset name.
    model_kind:
        ``"lr"``, ``"nn"``, ``"dt"``, or ``"rf"``.
    target_fraction:
        Fraction of features assigned to the attack target.
    scale, seed:
        Size preset and master seed (each sub-component gets an
        independent derived stream).
    n_predictions:
        Override the number of accumulated predictions.
    model_params:
        Extra keyword overrides for the model builder;
        ``{"dropout": p}`` sets the NN dropout (the Fig. 11e-f
        countermeasure).
    defense_stack:
        Composable §VII defenses: screening runs before training, output
        wrappers before serving, online hooks while serving, verification
        after prediction. When no stack is given the construction path
        (and its random-stream consumption) is identical to the
        historical undefended skeleton.
    deployment:
        How the prediction pool is served (see :class:`Deployment`),
        validated on entry; ``None`` is the default deployment. Its
        ``telemetry`` knob makes the scenario's tracer, which this call
        owns: the construction runs inside its ``scenario.build`` span,
        and a build that raises closes it.
    consumer:
        Ledger name the accumulation is charged to (the facade passes
        the attack's registry key).
    checkpoint:
        A :class:`~repro.checkpoint.CheckpointPlan` for the
        accumulation: each served protocol round ends with a snapshot
        (accumulated rows, query ledger, response caches, comm ledger),
        and a rebuilt scenario resumes the accumulation from the plan's
        latest snapshot bit-identically. Forwarded to
        :meth:`~repro.serving.PredictionService.query`; incompatible
        with a non-empty ``defense_stack`` (per-defense tallies are not
        snapshotted).
    """
    deployment = Deployment() if deployment is None else deployment
    deployment.validate()
    tracer = make_tracer(deployment.telemetry)
    with _owned_span(
        tracer, "scenario.build", dataset=dataset_name, model=model_kind, attack=consumer
    ) as build_span:
        topology = deployment.topology
        batch_size = deployment.batch_size
        n_streams = 4 if defense_stack is None or not len(defense_stack) else 5
        streams = spawn_rngs(seed, n_streams)
        data_rng, part_rng, model_rng, pick_rng = streams[:4]
        defense_rng = streams[4] if n_streams == 5 else None

        dataset = load_dataset(dataset_name, n_samples=scale.n_samples, rng=data_rng)
        X, y = dataset.X, dataset.y
        if (
            topology is not None
            and not topology.is_default_partition
            and defense_stack is not None
            and any(type(d).screen is not Defense.screen for d in defense_stack)
        ):
            raise IncompatibleScenarioError(
                "screening defenses rebuild the partition as the two-block "
                "adversary view, which would silently discard a non-default "
                "party topology; run screening on the default 2-party layout"
            )
        if topology is None or topology.is_default_partition:
            # The historical two-block draw, bit-for-bit (from_topology
            # reduces to it, but the seed path stays textually untouched).
            partition = FeaturePartition.adversary_target(
                dataset.n_features, target_fraction, rng=part_rng
            )
        else:
            partition = FeaturePartition.from_topology(
                dataset.n_features,
                target_fraction,
                n_parties=topology.n_parties,
                colluders=topology.colluders,
                strategy=topology.partition,
                rng=part_rng,
                **topology.partition_params,
            )
        colluders = () if topology is None else tuple(topology.colluders)
        view = partition.adversary_view(colluders)
        meta: dict[str, Any] = {}
        if defense_rng is not None:
            X, partition, view, meta = defense_stack.screen(
                X, y, partition, view, dataset.n_classes
            )
        X_train, X_pool, y_train, y_pool = train_test_split(
            X, y, test_fraction=0.5, rng=data_rng
        )

        model = make_model(model_kind, scale, model_rng, **(model_params or {}))
        vfl = train_vertical_model(model, X_train, y_train, X_pool, y_pool, partition)
        if defense_rng is not None:
            vfl.model = defense_stack.wrap(vfl.model, rng=defense_rng)

        n_pred = scale.n_predictions if n_predictions is None else int(n_predictions)
        n_pred = min(n_pred, X_pool.shape[0])
        picked = check_random_state(pick_rng).choice(
            X_pool.shape[0], size=n_pred, replace=False
        )
        runtime = FederationRuntime(
            vfl,
            scheduler=deployment.scheduler,
            faults=None if topology is None else topology.fault_plan(),
            retry=deployment.retry,
            quorum=deployment.quorum,
            degradation=deployment.degradation,
            tracer=tracer,
        )
        comm_budget = deployment.comm_budget
        if comm_budget is not None:
            if isinstance(comm_budget, float):
                # A fractional budget prices this very accumulation: 1.0 is
                # exactly the undefended run's projected wire bytes. Floored
                # at the first round's cost — a fraction asks for a *portion*
                # of the pool, and a budget below one round serves nothing;
                # use absolute bytes to study that regime.
                total = runtime.estimate_predict_bytes(n_pred, max_batch=batch_size)
                per_round = (
                    total
                    if batch_size is None
                    else runtime.estimate_predict_bytes(
                        min(n_pred, int(batch_size)), max_batch=batch_size
                    )
                )
                runtime.ledger.byte_budget = max(
                    int(np.ceil(comm_budget * total)), per_round
                )
            else:
                runtime.ledger.byte_budget = int(comm_budget)
        service = PredictionService(
            vfl,
            runtime=runtime,
            defense_stack=defense_stack,
            query_budget=deployment.query_budget,
            max_batch=batch_size,
            cache=deployment.cache,
            cache_size=deployment.cache_size,
            rng=defense_rng,
            exhaustion=deployment.on_budget_exhausted,
            breaker=deployment.breaker,
            tracer=tracer,
        )
        try:
            V = service.query(picked, consumer=consumer, checkpoint=checkpoint)
        finally:
            # Release any threaded-scheduler workers now that the bulk
            # accumulation is done; a later query through the retained
            # service lazily recreates the pool, so sweeps that keep many
            # reports alive do not pin one idle executor per scenario.
            runtime.close()
        if V.shape[0] == 0:
            raise ScenarioError(
                "the deployment's budgets (query or communication) allowed no "
                "predictions at all; nothing to attack"
            )
        if V.shape[0] < picked.size:
            # Truncate mode: the budget bound mid-accumulation; the scenario
            # holds exactly the predictions the adversary could afford.
            picked = picked[: V.shape[0]]
        X_pred_full = X_pool[picked]
        X_adv, X_target = view.split(X_pred_full)
        scenario = VFLScenario(
            dataset=dataset,
            model=vfl.model,
            vfl=vfl,
            view=view,
            X_adv=X_adv,
            X_target=X_target,
            V=V,
            X_pred_full=X_pred_full,
            y_pred=y_pool[picked],
            meta=meta,
            service=service,
            runtime=runtime,
            tracer=tracer,
        )
        if defense_rng is not None:
            scenario = defense_stack.apply_release_filter(scenario)
        build_span["predictions"] = int(scenario.V.shape[0])
    return scenario


@dataclass(kw_only=True)
class ScenarioConfig(Deployment):
    """Declarative description of one grid cell.

    All component fields are registry keys — see
    :data:`~repro.api.attacks.ATTACKS`, :data:`~repro.api.models.MODELS`,
    :data:`~repro.api.datasets.DATASETS`, and
    :data:`~repro.api.defenses.DEFENSES` — so a config is fully
    serializable and any typo fails fast with the valid choices listed.

    A config is also the cell's :class:`Deployment`: the serving,
    federation, resilience and telemetry knobs it inherits are
    documented there, and :func:`run_scenario` hands the config itself
    to :func:`build_scenario` as ``deployment``.
    """

    dataset: str = knob(Str(DATASETS))
    model: str = knob(Str(MODELS))
    attack: str = knob(Str(ATTACKS))
    defenses: tuple = knob(
        Seq(OneOf(Str(DEFENSES), Pair(Str(DEFENSES), OBJECT), Type(Defense))), default=()
    )
    target_fraction: float = knob(
        Float(low=0, high=1, low_open=True, high_open=True), default=0.3
    )
    n_predictions: int | None = knob(Int(low=1), none=True, default=None)
    scale: "str | ScaleConfig" = knob(
        OneOf(Str(PRESETS, "scale preset"), Type(ScaleConfig)), default="smoke"
    )
    seed: int = knob(Int(low=0), default=0)
    model_params: dict[str, Any] = knob(OBJECT, factory=dict)
    attack_params: dict[str, Any] = knob(OBJECT, factory=dict)
    baselines: tuple[str, ...] = knob(Seq(Str(BASELINES, "baseline")), default=())
    compute_cbr: bool = knob(BOOL, default=False)


@dataclass
class ScenarioReport:
    """Outcome of one :func:`run_scenario` call.

    Attributes
    ----------
    config:
        The config that produced this report.
    scenario:
        The built scenario (model, view, accumulated predictions, ground
        truth) for downstream analysis. ``None`` on a report restored
        from JSON — array-heavy state is not persisted.
    result:
        The attack's :class:`~repro.attacks.base.AttackResult`
        (``None`` on a restored report).
    metrics:
        Scored outcomes: ``"mse"`` whenever the attack produced point
        estimates, ``"pra_cbr"``/``"restricted_fractions"`` for PRA,
        ``"cbr"`` when ``compute_cbr`` was requested on a tree model, and
        one ``"rg_<name>_..."`` entry per requested baseline.
    queries_used:
        Chargeable prediction queries the deployment's ledger recorded
        for this scenario — what the attack *cost* at the serving
        boundary.
    comm_cost:
        Snapshot of the federation runtime's
        :class:`~repro.federation.CommLedger` (total ``bytes``,
        ``messages``, ``rounds``, per-edge breakdown) — what the attack
        cost at the *protocol* boundary. Empty for reports whose
        scenario never ran a federation protocol (e.g. prebuilt legacy
        scenarios).
    availability:
        The runtime's
        :meth:`~repro.federation.FederationRuntime.availability_report`:
        degraded-round log plus retry/timeout counts and simulated
        seconds. Empty unless the runtime is
        :attr:`~repro.federation.FederationRuntime.engaged` (a
        ``retry``/``quorum`` knob or stochastic faults) — its
        presence is itself the signal that the deployment weathered a
        storm.
    telemetry:
        The tracer's :meth:`~repro.telemetry.Tracer.summary` — records
        emitted, per-kind counts, named counters, last simulated-clock
        reading. Deterministic, so two runs of one config agree on it
        bit-for-bit. Empty when the config's ``telemetry`` knob was off.
    """

    config: ScenarioConfig
    scenario: "VFLScenario | None"
    result: "AttackResult | None"
    metrics: dict[str, Any]
    queries_used: int = 0
    comm_cost: dict[str, Any] = field(default_factory=dict)
    availability: dict[str, Any] = field(default_factory=dict)
    telemetry: dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        """One-paragraph human-readable digest (used by the examples)."""
        details = []
        if self.scenario is not None:
            details.append(f"d_target={self.scenario.view.d_target}")
        details.append(f"defenses={list(self.config.defenses) or 'none'}")
        details.append(f"queries={self.queries_used}")
        if self.comm_cost:
            details.append(f"comm_bytes={self.comm_cost.get('bytes', 0)}")
        parts = [
            f"{self.config.attack} on {self.config.model}/{self.config.dataset}"
            f" ({', '.join(details)})"
        ]
        for key in sorted(self.metrics):
            value = self.metrics[key]
            if isinstance(value, float):
                parts.append(f"{key}={value:.4f}")
        return "; ".join(parts)

    # ------------------------------------------------------------------
    # Persistence (JSONL-store friendly)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict[str, Any]:
        """JSON-ready dict: config + metrics + queries_used.

        Drops the array-heavy ``scenario``/``result`` state; what
        remains is exactly what a results store needs to identify and
        compare grid cells, and it slots directly into a
        :class:`~repro.experiments.store.RunSummary` payload. Every
        config field is one key; a topology or policy object is stored
        as its own ``to_payload()`` dict.
        """
        return {
            "config": self.config.to_payload(),
            "metrics": self.metrics,
            "queries_used": self.queries_used,
            "comm_cost": dict(self.comm_cost),
            "availability": dict(self.availability),
            "telemetry": dict(self.telemetry),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "ScenarioReport":
        """Rebuild a report from :meth:`to_payload` output.

        Specs are normalized to tuples (JSON has no tuple type), so a
        round-tripped config compares equal to one declared with the
        canonical tuple syntax; a policy object comes back as its payload
        dict, which configures the same policy. A deployment key may be
        absent: payloads persisted before its layer existed mean the
        default. Any other missing key, an undeclared config key, a
        non-object payload, config or metrics, and a config field its
        declaration refuses (an unregistered dataset, model, attack,
        defense or baseline included) all raise
        :class:`~repro.exceptions.ScenarioError` naming the field.
        """
        _require_object(payload, "report")
        _require_keys(payload, ("config", "metrics", "queries_used"), "report")
        data = _require_object(payload["config"], "scenario config")
        metrics = dict(_require_object(payload["metrics"], "report metrics"))
        _require_keys(data, _SCENARIO_KEYS, "scenario config")
        try:
            config = ScenarioConfig.from_payload(data, partial=True)
        except ReproError as exc:
            raise ScenarioError(f"report payload has a malformed field: {exc}") from exc
        queries_used = payload["queries_used"]
        if not is_int(queries_used) or queries_used < 0:
            raise ScenarioError(
                "report payload has a malformed field: queries_used must be a "
                f"non-negative int, got {queries_used!r}"
            )
        extras = {
            key: dict(_require_object(payload.get(key, {}), key))
            for key in ("comm_cost", "availability", "telemetry")
        }
        return cls(
            config=config,
            scenario=None,
            result=None,
            metrics=metrics,
            queries_used=queries_used,
            **extras,
        )

    def to_json(self) -> str:
        """Serialize to one JSON line (see :meth:`to_payload`)."""
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_json(cls, line: "str | bytes") -> "ScenarioReport":
        """Parse a :meth:`to_json` line back into a (storable) report.

        A line that is not JSON raises
        :class:`~repro.exceptions.ScenarioError`, like every other
        malformed report (see :meth:`from_payload`).
        """
        try:
            payload = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ScenarioError(f"report line is not valid JSON: {exc}") from exc
        return cls.from_payload(payload)


def _require_object(value, what: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise ScenarioError(
            f"{what} payload must be a JSON object, got {type(value).__name__}"
        )
    return value


def _require_keys(payload: dict[str, Any], keys, what: str) -> None:
    missing = [key for key in keys if key not in payload]
    if missing:
        raise ScenarioError(
            f"{what} payload is missing required key(s) {missing}; it is "
            "truncated or was not written by ScenarioReport.to_payload"
        )


#: Config keys a persisted payload must carry: the scenario's own. A
#: deployment key may be absent (payloads written before its layer
#: existed), meaning its default.
_SCENARIO_KEYS = [name for name in knobs(ScenarioConfig) if name not in knobs(Deployment)]

#: The scale knob's decoder: a preset name as is, or the ScaleConfig its
#: payload describes, refused with ScenarioError naming the field.
_decode_scale = functools.partial(decode_field, ScenarioConfig, "scale")


def _tree_structures(model: BaseClassifier) -> list:
    """Structures of a tree-based released model (forest → every tree)."""
    base = unwrap_model(model)
    if hasattr(base, "tree_structures"):
        return list(base.tree_structures())
    if hasattr(base, "tree_structure"):
        return [base.tree_structure()]
    raise IncompatibleScenarioError(
        f"compute_cbr needs a tree-based model exposing its structure; "
        f"{type(base).__name__} has none"
    )


def _check_compatible(
    config: ScenarioConfig, attack: ScenarioAttack, stack: DefenseStack
) -> None:
    """Refuse components that each validate but cannot work together."""
    if attack.compatible_models is not None and config.model not in attack.compatible_models:
        raise IncompatibleScenarioError(
            f"attack {config.attack!r} supports models "
            f"{attack.compatible_models}, not {config.model!r}: "
            f"{attack.constraint}"
        )
    stack.validate_for_model(config.model)
    if "path" in config.baselines and config.model != "dt":
        raise IncompatibleScenarioError(
            "the 'path' baseline draws random root-to-leaf paths of a "
            f"single decision tree; model {config.model!r} has none"
        )
    if config.compute_cbr and config.model not in ("dt", "rf"):
        raise IncompatibleScenarioError(
            "compute_cbr scores branch agreement on a tree-based model; "
            f"model {config.model!r} has no tree structure"
        )


def _compute_metrics(
    config: ScenarioConfig,
    scenario: VFLScenario,
    result: AttackResult,
) -> dict[str, Any]:
    metrics: dict[str, Any] = {}
    x_hat = result.x_target_hat
    if x_hat is not None:
        metrics["mse"] = float(mse_per_feature(x_hat, scenario.X_target))

    structures = None
    if config.compute_cbr or "path" in config.baselines:
        structures = _tree_structures(scenario.model)

    # PRA path metrics: branch agreement of the selected candidate paths.
    if "selected_paths" in result.info:
        structure = structures[0] if structures else _tree_structures(scenario.model)[0]
        paths = result.info["selected_paths"]
        rows = [i for i, path in enumerate(paths) if path is not None]
        counts = path_cbr_batch(
            structure,
            [paths[i][-1] for i in rows],
            scenario.X_pred_full[rows],
            scenario.view.target_indices,
        )
        metrics["pra_cbr"] = float(aggregate_cbr([counts]))
        total = result.info["n_paths_total"]
        metrics["restricted_fractions"] = [
            float(n / total) for n in result.info["n_paths_restricted"]
        ]

    # Reconstruction CBR: walk the reconstructed values along the true paths.
    if config.compute_cbr and x_hat is not None:
        full_hat = scenario.view.assemble(scenario.X_adv, x_hat)
        counts = [
            reconstruction_cbr_batch(
                structure, scenario.X_pred_full, full_hat, scenario.view.target_indices
            )
            for structure in structures
        ]
        metrics["cbr"] = float(aggregate_cbr(counts))

    # Value-guess baselines (each on a fresh stream seeded with the raw
    # scenario seed — the historical schedule).
    for distribution in ("uniform", "gaussian"):
        if distribution not in config.baselines:
            continue
        guess = RandomGuessAttack(
            scenario.view, distribution=distribution, rng=config.seed
        ).run(scenario.X_adv)
        metrics[f"rg_{distribution}_mse"] = float(
            mse_per_feature(guess.x_target_hat, scenario.X_target)
        )
        if config.compute_cbr:
            full_guess = scenario.view.assemble(scenario.X_adv, guess.x_target_hat)
            counts = [
                reconstruction_cbr_batch(
                    structure, scenario.X_pred_full, full_guess, scenario.view.target_indices
                )
                for structure in structures
            ]
            metrics[f"rg_{distribution}_cbr"] = float(aggregate_cbr(counts))

    # Random-path baseline (second half of PRA's historical seed split).
    if "path" in config.baselines:
        _, guess_rng = spawn_rngs(config.seed, 2)
        structure = structures[0]
        # One vector draw consumes the stream exactly as one `random_path`
        # draw per row would (pinned in tests/test_closed_form_kernels.py).
        leaves = guess_rng.choice(
            structure.leaf_indices(), size=scenario.X_pred_full.shape[0]
        )
        counts = path_cbr_batch(
            structure, leaves, scenario.X_pred_full, scenario.view.target_indices
        )
        metrics["rg_path_cbr"] = float(aggregate_cbr([counts]))
    return metrics


def run_scenario(
    config: ScenarioConfig,
    *,
    scenario: VFLScenario | None = None,
    serving_checkpoint: "CheckpointPlan | None" = None,
) -> ScenarioReport:
    """Run one grid cell end to end and score it.

    Resolves every registry key (raising listing errors for typos and
    :class:`~repro.exceptions.IncompatibleScenarioError` for combinations
    that violate an attack/defense constraint), builds the defended
    scenario, executes the attack through the unified protocol, and
    computes the §III-C metrics.

    Parameters
    ----------
    scenario:
        Reuse an already-built scenario instead of building one — the way
        to run several attacks against one deployment without retraining
        it per attack. The caller guarantees the scenario matches the
        config's dataset/model/defenses; the config is still validated,
        but its defenses are *not* re-applied to the prebuilt scenario,
        and the deployment's ledger keeps accumulating across attacks.
        Deployment knobs (the :class:`Deployment` fields a config
        inherits) configure a deployment at build time, so a config that
        sets any of them away from its default alongside a prebuilt
        scenario is rejected, naming the knobs, rather than silently
        ignored.
    serving_checkpoint:
        A :class:`~repro.checkpoint.CheckpointPlan` for the serving
        accumulation, forwarded to :func:`build_scenario`; the attack's
        own training checkpoint (GRNA) travels in
        ``config.attack_params["checkpoint"]`` instead. Meaningless with
        a prebuilt ``scenario`` (whose accumulation already happened)
        and rejected in that combination.
    """
    config.validate()
    scale = get_scale(config.scale)
    attack: ScenarioAttack = ATTACKS.create(config.attack, **config.attack_params)
    stack = DefenseStack.from_specs(config.defenses)
    _check_compatible(config, attack, stack)
    if scenario is not None and serving_checkpoint is not None:
        raise ScenarioError(
            "serving_checkpoint snapshots the accumulation while the "
            "scenario is built; a prebuilt scenario has already accumulated"
        )
    if scenario is not None:
        default = Deployment()
        knobs = [
            knob.name
            for knob in fields(Deployment)
            if getattr(config, knob.name) != getattr(default, knob.name)
        ]
        if knobs:
            raise ScenarioError(
                f"serving and federation knobs ({', '.join(knobs)}) configure "
                "the deployment when the scenario is built and cannot apply "
                "to a prebuilt scenario; set them on build_scenario (or on "
                "its service) instead"
            )

    owned = scenario is None
    if owned:
        scenario = build_scenario(
            config.dataset,
            config.model,
            config.target_fraction,
            scale,
            config.seed,
            n_predictions=config.n_predictions,
            model_params=config.model_params,
            defense_stack=stack if len(stack) else None,
            deployment=config,
            consumer=config.attack,
            checkpoint=serving_checkpoint,
        )
    try:
        attack.prepare(scenario, scale=scale, seed=config.seed)
        result = attack.run(scenario.X_adv, scenario.V)
        metrics = _compute_metrics(config, scenario, result)
    except BaseException:
        # The tracer of a scenario built here is owned here (see
        # build_scenario); a prebuilt scenario's belongs to whoever built it.
        if owned:
            scenario.tracer.close()
        raise
    queries_used = (
        scenario.service.ledger.queries_used
        if scenario.service is not None
        else int(scenario.V.shape[0])
    )
    comm_cost = (
        scenario.runtime.ledger.as_dict() if scenario.runtime is not None else {}
    )
    availability = (
        scenario.runtime.availability_report() if scenario.runtime is not None else {}
    )
    # Summarized after the attack ran, so grna.epoch records count too;
    # a prebuilt traced scenario contributes its own tracer.
    return ScenarioReport(
        config=config,
        scenario=scenario,
        result=result,
        metrics=metrics,
        queries_used=queries_used,
        comm_cost=comm_cost,
        availability=availability,
        telemetry=scenario.tracer.summary(),
    )
