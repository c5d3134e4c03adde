"""Composable defense stack of the scenario API (§VII countermeasures).

Each countermeasure is a :class:`Defense` with three hooks, applied at
the three points of a scenario's lifecycle where the paper's §VII
defenses intervene:

``screen(X, y, partition, view, n_classes)``
    *Pre-collaboration*: inspect (and possibly shrink) the joint feature
    space before any training happens — correlation screening drops the
    target party's most exposed columns.
``wrap(model, rng)``
    *Output perturbation*: wrap the fitted model so the prediction
    protocol serves perturbed confidence scores (rounding, noising).
    Wrapping composes, so ``DefenseStack(["rounding", "noise"])`` serves
    ``noise(round(v))`` — the §VII combination the old one-off
    ``RoundedModel``/``NoisyModel`` wrappers could not express cleanly.
``on_query(V, context)``
    *Online serving*: intervene on each batch of confidence scores as the
    :class:`~repro.serving.PredictionService` computes it — per-query
    noise, rate limiting, and duplicate-query auditing all act here,
    where they can see *who* is asking and *how often*, which the static
    ``wrap`` hook cannot.
``release_mask(scenario)``
    *Post-processing verification*: simulate the cheap single-prediction
    attacks against each pending output and withhold the outputs whose
    estimated leakage crosses the threshold.

A :class:`DefenseStack` folds any number of defenses through those hooks
in list order. Defenses are registered by string key in :data:`DEFENSES`
(``"rounding"``, ``"noise"``, ``"screening"``, ``"verification"``, plus
the online trio ``"query_noise"``, ``"rate_limit"``, ``"query_audit"``).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Sequence

import numpy as np

from repro.utils.registry import Registry
from repro.attacks.esa import EqualitySolvingAttack
from repro.attacks.pra import PathRestrictionAttack
from repro.defenses.base import ModelWrapper, unwrap_model
from repro.defenses.noise import NoisyModel, noise_confidence_scores
from repro.defenses.rounding import RoundedModel
from repro.defenses.screening import screen_collaboration
from repro.exceptions import (
    IncompatibleScenarioError,
    QueryBudgetExceededError,
    ScenarioError,
)
from repro.federated.partition import AdversaryView, FeaturePartition
from repro.models.base import BaseClassifier
from repro.models.logistic import LogisticRegression
from repro.utils.random import check_random_state
from repro.utils.validation import check_in_range, check_positive_int

__all__ = [
    "DEFENSES",
    "Defense",
    "DefenseStack",
    "ModelWrapper",
    "unwrap_model",
]

#: §VII countermeasures, keyed by short name.
DEFENSES = Registry("defense")


class Defense:
    """One composable countermeasure; hooks default to no-ops.

    Subclasses set :attr:`name`, restrict :attr:`compatible_models` when
    the countermeasure only exists for some model kinds (stating why in
    :attr:`constraint`), and override whichever hooks they act through.
    """

    name: str = "identity"
    #: Model registry keys the defense supports; ``None`` means every
    #: registered model, including ones registered after import.
    compatible_models: "tuple[str, ...] | None" = None
    constraint: str = "applies to every model kind"
    #: Set True when ``on_query`` consumes sample-content fingerprints;
    #: the serving layer then computes them once per chunk and passes
    #: them via ``QueryContext.sample_hashes`` instead of every defense
    #: re-assembling and re-hashing the joint rows itself.
    wants_sample_hashes: bool = False

    def screen(
        self,
        X: np.ndarray,
        y: np.ndarray,
        partition: FeaturePartition,
        view: AdversaryView,
        n_classes: int,
    ) -> tuple[np.ndarray, FeaturePartition, AdversaryView, dict[str, Any]]:
        """Pre-collaboration hook: may shrink the joint feature space."""
        return X, partition, view, {}

    def wrap(
        self, model: BaseClassifier, rng: np.random.Generator | None = None
    ) -> BaseClassifier:
        """Output-perturbation hook: may wrap the served model."""
        return model

    def on_query(self, V: np.ndarray, context) -> np.ndarray:
        """Online serving hook: perturb or gate one freshly computed batch.

        ``context`` is a :class:`~repro.serving.QueryContext` naming the
        consumer, the served sample ids, and the service (whose ledger
        and sample hashes the defense may consult). Raising here refuses
        the batch; returning a modified matrix perturbs it.
        """
        return V

    def release_mask(self, scenario) -> "np.ndarray | None":
        """Post-processing hook: boolean mask of outputs safe to release.

        ``None`` means the defense does not gate outputs.
        """
        return None


@DEFENSES.register("rounding")
class RoundingDefense(Defense):
    """Truncate served confidence scores to ``digits`` decimal digits."""

    name = "rounding"

    def __init__(self, digits: int = 3) -> None:
        self.digits = check_positive_int(digits, name="digits")

    def wrap(
        self, model: BaseClassifier, rng: np.random.Generator | None = None
    ) -> BaseClassifier:
        return RoundedModel(model, self.digits)


@DEFENSES.register("noise")
class NoiseDefense(Defense):
    """Add Laplace/Gaussian noise to served confidence scores."""

    name = "noise"

    def __init__(
        self,
        scale: float = 0.01,
        kind: str = "laplace",
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.scale = check_in_range(scale, name="scale", low=0.0)
        self.kind = kind
        self.rng = rng

    def wrap(
        self, model: BaseClassifier, rng: np.random.Generator | None = None
    ) -> BaseClassifier:
        # An explicitly configured stream wins; otherwise the
        # scenario-derived stream; otherwise a fixed seed — never OS
        # entropy, so a manually composed DefenseStack(["noise"]) serves
        # reproducible scores run to run.
        noise_rng = self.rng if self.rng is not None else rng
        if noise_rng is None:
            noise_rng = 0
        return NoisyModel(model, self.scale, kind=self.kind, rng=noise_rng)


@DEFENSES.register("screening")
class ScreeningDefense(Defense):
    """Drop the target party's most exposed columns before training (§VII).

    Cross-party correlation screening: target columns whose mean absolute
    correlation with the adversary's columns exceeds the threshold are
    withheld from the collaboration. At least one target column is always
    retained — a party that contributes nothing is not collaborating, and
    :class:`~repro.federated.partition.FeaturePartition` rejects empty
    blocks.
    """

    name = "screening"

    def __init__(self, correlation_threshold: float = 0.5) -> None:
        self.correlation_threshold = check_in_range(
            correlation_threshold, name="correlation_threshold", low=0.0, high=1.0
        )

    def screen(
        self,
        X: np.ndarray,
        y: np.ndarray,
        partition: FeaturePartition,
        view: AdversaryView,
        n_classes: int,
    ) -> tuple[np.ndarray, FeaturePartition, AdversaryView, dict[str, Any]]:
        X_adv, X_target = view.split(X)
        report = screen_collaboration(
            X_adv,
            X_target,
            n_classes,
            correlation_threshold=self.correlation_threshold,
        )
        flagged = np.asarray(report.flagged_features, dtype=np.int64)
        if flagged.size >= view.d_target:
            keep_one = int(np.argmin(report.feature_exposure))
            flagged = flagged[flagged != keep_one]
        info: dict[str, Any] = {
            "screening": {
                "esa_exact_risk": report.esa_exact_risk,
                "threshold": report.threshold,
                "dropped_columns": [],
            }
        }
        if flagged.size == 0:
            return X, partition, view, info
        dropped_global = np.asarray(view.target_indices)[flagged]
        keep_global = np.setdiff1d(np.arange(view.n_features), dropped_global)
        remap = np.full(view.n_features, -1, dtype=np.int64)
        remap[keep_global] = np.arange(keep_global.size)
        kept_target = np.setdiff1d(np.asarray(view.target_indices), dropped_global)
        new_partition = FeaturePartition(
            int(keep_global.size),
            [remap[np.asarray(view.adversary_indices)], remap[kept_target]],
        )
        info["screening"]["dropped_columns"] = [int(c) for c in dropped_global]
        return (
            X[:, keep_global],
            new_partition,
            new_partition.adversary_view(),
            info,
        )


@DEFENSES.register("verification")
class VerificationDefense(Defense):
    """Withhold outputs whose simulated single-prediction leakage is too high."""

    name = "verification"
    compatible_models = ("lr", "dt")
    constraint = (
        "post-processing verification simulates the cheap single-prediction "
        "attacks, which exist only for logistic regression (ESA) and "
        "decision trees (PRA)"
    )

    def __init__(self, min_mse: float = 0.01, min_candidate_paths: int = 2) -> None:
        self.min_mse = check_in_range(min_mse, name="min_mse", low=0.0)
        self.min_candidate_paths = check_positive_int(
            min_candidate_paths, name="min_candidate_paths"
        )

    def release_mask(self, scenario) -> np.ndarray:
        # The verification runs on the data-owner side (inside the
        # enclave), where the target's true features are known.
        base = unwrap_model(scenario.model)
        if isinstance(base, LogisticRegression):
            attack = EqualitySolvingAttack(base, scenario.view)
            if attack.is_exact:
                return np.zeros(scenario.V.shape[0], dtype=bool)
            x_hat = attack.run(scenario.X_adv, scenario.V).x_target_hat
            mse = np.mean((x_hat - scenario.X_target) ** 2, axis=1)
            return mse >= self.min_mse
        structure = getattr(base, "tree_structure", None)
        if structure is None:
            raise IncompatibleScenarioError(
                f"defense 'verification' cannot gate {type(base).__name__} "
                f"outputs: {self.constraint}"
            )
        attack = PathRestrictionAttack(structure(), scenario.view)
        survivors = attack.restrict_batch(scenario.X_adv, np.argmax(scenario.V, axis=1))
        return survivors.sum(axis=1) >= self.min_candidate_paths


@DEFENSES.register("query_noise")
class QueryNoiseDefense(Defense):
    """Fresh Laplace/Gaussian noise per served query (online ``noise``).

    Unlike the static ``noise`` wrapper — whose perturbation is fixed by
    the model wrapper's stream regardless of who asks — this draws at
    serving time, so re-querying the same sample yields a *different*
    perturbation and averaging the noise away costs query budget. Noise
    is drawn from the defense's own stream when one is configured,
    otherwise from the service's defense stream, otherwise a fixed seed —
    never OS entropy.
    """

    name = "query_noise"

    def __init__(
        self,
        scale: float = 0.01,
        kind: str = "laplace",
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.scale = check_in_range(scale, name="scale", low=0.0)
        self.kind = kind
        self.rng = check_random_state(rng) if rng is not None else None

    def on_query(self, V: np.ndarray, context) -> np.ndarray:
        rng = self.rng
        if rng is None:
            rng = context.service.rng
        if rng is None:
            rng = self.rng = check_random_state(0)
        return noise_confidence_scores(V, self.scale, kind=self.kind, rng=rng)


@DEFENSES.register("rate_limit")
class RateLimitDefense(Defense):
    """Refuse service once the deployment has answered ``max_queries``.

    The server-side sibling of the adversary-side ``query_budget``: the
    ledger still meters per consumer, but the cap here is the defender's
    policy and exceeding it raises
    :class:`~repro.exceptions.QueryBudgetExceededError` out of the
    serving layer regardless of what the attack budgeted for.
    """

    name = "rate_limit"

    def __init__(self, max_queries: int = 1000) -> None:
        self.max_queries = check_positive_int(max_queries, name="max_queries")

    def on_query(self, V: np.ndarray, context) -> np.ndarray:
        used = context.service.ledger.queries_used
        if used > self.max_queries:
            raise QueryBudgetExceededError(
                f"rate limit: deployment served {used} queries, exceeding the "
                f"defender's cap of {self.max_queries} (consumer "
                f"{context.consumer!r})"
            )
        return V


@DEFENSES.register("query_audit")
class QueryAuditDefense(Defense):
    """Duplicate-query auditing over sample-content fingerprints.

    Records how often each distinct joint sample (by
    :meth:`~repro.federated.VerticalFLModel.sample_hashes` fingerprint)
    has been served; repeated queries for the same content are the
    signature of an adversary averaging out a noise defense. With
    ``max_repeats`` set, a sample served more than that many times is
    refused with :class:`~repro.exceptions.QueryBudgetExceededError`.
    The tally is readable on the instance (``seen``, ``duplicates``) and
    lands in the scenario's ``meta`` via the audit report.

    Tallies are also kept **per consumer** (``consumer_queries``,
    ``consumer_duplicates``) where a duplicate means "this consumer
    re-requested content *it* already received" — the tenant-scoped
    signal the workload layer's anomaly ranking is built on, and the one
    that stays invariant under consumer-pinned sharding (the
    deployment-wide ``seen`` tally mixes tenants, so per-shard instances
    see different slices of it).
    """

    name = "query_audit"
    wants_sample_hashes = True

    def __init__(self, max_repeats: "int | None" = None) -> None:
        self.max_repeats = (
            None if max_repeats is None
            else check_positive_int(max_repeats, name="max_repeats")
        )
        self.seen: dict[str, int] = {}
        self.duplicates = 0
        self.consumer_queries: dict[str, int] = {}
        self.consumer_duplicates: dict[str, int] = {}
        self._consumer_seen: dict[str, dict[str, int]] = {}

    def on_query(self, V: np.ndarray, context) -> np.ndarray:
        # Audit everything the chunk releases: freshly computed rows AND
        # cache replays (a replayed duplicate is exactly the averaging
        # signature this defense exists to catch). The service hands over
        # the fingerprints it already computed for its cache; without a
        # cache they are derived here.
        hashes = context.sample_hashes
        if hashes is None:
            indices = np.concatenate(
                [context.sample_indices, context.replayed_indices]
            )
            hashes = (
                context.service.vfl.sample_hashes(indices) if indices.size else []
            )
        consumer = context.consumer
        if hashes:
            self.consumer_queries[consumer] = self.consumer_queries.get(
                consumer, 0
            ) + len(hashes)
        own = self._consumer_seen.setdefault(consumer, {})
        for digest in hashes:
            count = self.seen.get(digest, 0) + 1
            self.seen[digest] = count
            if count > 1:
                self.duplicates += 1
            own_count = own.get(digest, 0) + 1
            own[digest] = own_count
            if own_count > 1:
                self.consumer_duplicates[consumer] = (
                    self.consumer_duplicates.get(consumer, 0) + 1
                )
            if self.max_repeats is not None and count > self.max_repeats:
                raise QueryBudgetExceededError(
                    f"query audit: sample {digest[:12]}... requested {count} "
                    f"times, exceeding max_repeats={self.max_repeats} "
                    f"(consumer {context.consumer!r})"
                )
        return V

    def report(self) -> dict[str, Any]:
        """Audit summary: distinct samples, duplicates, per-consumer tallies."""
        return {
            "distinct_samples": len(self.seen),
            "duplicates": self.duplicates,
            "consumer_queries": dict(self.consumer_queries),
            "consumer_duplicates": dict(self.consumer_duplicates),
        }


class DefenseStack:
    """An ordered composition of defenses applied through every hook.

    List order is application order: ``DefenseStack(["rounding", "noise"])``
    rounds the scores first and noises the rounded scores.
    """

    def __init__(self, defenses: Iterable[Defense] = ()) -> None:
        self.defenses: list[Defense] = []
        for defense in defenses:
            if not isinstance(defense, Defense):
                raise ScenarioError(
                    f"DefenseStack items must be Defense instances, got "
                    f"{type(defense).__name__}; use DefenseStack.from_specs "
                    "for string keys"
                )
            self.defenses.append(defense)

    @classmethod
    def from_specs(cls, specs: Sequence) -> "DefenseStack":
        """Build a stack from mixed specs.

        Each item may be a :class:`Defense` instance, a registry key
        (``"rounding"``), or a ``(key, params)`` pair
        (``("rounding", {"digits": 1})``).
        """
        defenses: list[Defense] = []
        for spec in specs:
            if isinstance(spec, Defense):
                defenses.append(spec)
            elif isinstance(spec, str):
                defenses.append(DEFENSES.create(spec))
            elif isinstance(spec, (tuple, list)) and len(spec) == 2:
                key, params = spec[0], dict(spec[1])
                DEFENSES.check_params(key, params)
                defenses.append(DEFENSES.create(key, **params))
            else:
                raise ScenarioError(
                    f"defense spec must be a Defense, a registry key, or a "
                    f"(key, params) pair, got {spec!r}"
                )
        return cls(defenses)

    @property
    def names(self) -> list[str]:
        """Names of the stacked defenses, in application order."""
        return [defense.name for defense in self.defenses]

    def __len__(self) -> int:
        return len(self.defenses)

    def __iter__(self):
        return iter(self.defenses)

    def validate_for_model(self, model_key: str) -> None:
        """Reject defenses that do not exist for the scenario's model kind."""
        for defense in self.defenses:
            if defense.compatible_models is None:
                continue
            if model_key not in defense.compatible_models:
                raise IncompatibleScenarioError(
                    f"defense {defense.name!r} supports models "
                    f"{defense.compatible_models}, not {model_key!r}: "
                    f"{defense.constraint}"
                )

    def screen(
        self,
        X: np.ndarray,
        y: np.ndarray,
        partition: FeaturePartition,
        view: AdversaryView,
        n_classes: int,
    ) -> tuple[np.ndarray, FeaturePartition, AdversaryView, dict[str, Any]]:
        """Fold the pre-collaboration hooks, merging their info dicts."""
        info: dict[str, Any] = {}
        for defense in self.defenses:
            X, partition, view, step_info = defense.screen(
                X, y, partition, view, n_classes
            )
            info.update(step_info)
        return X, partition, view, info

    def wrap(
        self, model: BaseClassifier, rng: np.random.Generator | None = None
    ) -> BaseClassifier:
        """Fold the output-perturbation hooks around the served model."""
        for defense in self.defenses:
            model = defense.wrap(model, rng)
        return model

    def on_query(self, V: np.ndarray, context) -> np.ndarray:
        """Fold the online hooks over one freshly computed response batch."""
        for defense in self.defenses:
            V = defense.on_query(V, context)
        return V

    def apply_release_filter(self, scenario):
        """Drop withheld outputs from the scenario's accumulated predictions.

        Returns the scenario unchanged when no defense gates outputs;
        otherwise a filtered copy whose ``meta`` records the release mask.
        Raises :class:`~repro.exceptions.ScenarioError` when every output
        is withheld — there is nothing left to attack, which is a scenario
        configuration problem, not an attack failure.
        """
        combined: np.ndarray | None = None
        for defense in self.defenses:
            mask = defense.release_mask(scenario)
            if mask is None:
                continue
            combined = mask if combined is None else (combined & mask)
        if combined is None:
            return scenario
        n_released = int(combined.sum())
        if n_released == 0:
            raise ScenarioError(
                "the verification defense withheld every prediction output; "
                "relax min_mse / min_candidate_paths or drop the defense"
            )
        meta = dict(scenario.meta)
        meta["release_mask"] = combined
        meta["n_blocked"] = int(combined.size - n_released)
        return dataclasses.replace(
            scenario,
            X_adv=scenario.X_adv[combined],
            X_target=scenario.X_target[combined],
            V=scenario.V[combined],
            X_pred_full=scenario.X_pred_full[combined],
            y_pred=scenario.y_pred[combined],
            meta=meta,
        )
