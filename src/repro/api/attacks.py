"""Attack registry and the unified ``prepare``/``run`` protocol.

The three attacks of the paper have structurally different engines — ESA
solves a precomputed linear system, PRA walks a tree per sample, GRNA
trains a generator (distilling forests first) — and historically three
different constructor signatures. The scenario API unifies them behind
:class:`ScenarioAttack`:

``prepare(scenario, scale=..., seed=...)``
    Bind the attack to a built scenario: resolve the released model
    **through the scenario's serving boundary**
    (:meth:`~repro.serving.PredictionService.release_model`, which peels
    output-defense wrappers exactly as §III-B releases plaintext θ),
    derive the attack's random streams from the scenario seed, and
    precompute whatever is prediction-independent.
``run(x_adv, v) -> AttackResult``
    Execute Eqn 2's ``A(x_adv, v, θ)`` on the accumulated predictions and
    return a common :class:`~repro.attacks.base.AttackResult`. The
    ``v`` matrix is what the metered service accumulated (and charged to
    this attack's ledger consumer name); attacks never touch
    ``VerticalFLModel.predict`` directly.

PRA's per-sample path choices are folded into the common result type:
``x_target_hat`` carries interval *midpoints* (so MSE is defined for PRA
too) while ``info`` preserves the full interval/path structure — the
interval/point duality.

Seed schedules replicate the historical experiment runners exactly
(GRNA: ``spawn_rngs(seed + 1, 3)`` for generator/distiller/dummy streams;
PRA: ``spawn_rngs(seed, 2)`` for path choice and the path baseline), so
refactoring a runner onto this protocol is bit-identical.
"""

from __future__ import annotations

from functools import partial
from typing import Any

import numpy as np

from repro.utils.registry import Registry
from repro.attacks import (
    AttackResult,
    EqualitySolvingAttack,
    GenerativeRegressionNetwork,
    PathRestrictionAttack,
    RandomGuessAttack,
    attack_random_forest,
)
from repro.config import ScaleConfig, get_scale
from repro.defenses.base import unwrap_model
from repro.exceptions import AttackError, IncompatibleScenarioError, ScenarioError
from repro.models import RandomForestClassifier, RandomForestDistiller
from repro.utils.random import spawn_rngs

__all__ = [
    "ATTACKS",
    "ScenarioAttack",
    "EsaScenarioAttack",
    "PraScenarioAttack",
    "GrnaScenarioAttack",
    "RandomBaselineScenarioAttack",
    "grna_kwargs_from_scale",
    "released_model",
]

#: Feature-inference attacks, keyed by paper acronym (plus baselines).
ATTACKS = Registry("attack")


def grna_kwargs_from_scale(scale: ScaleConfig, rng) -> dict:
    """Generator hyper-parameters for :class:`GenerativeRegressionNetwork`."""
    return {
        "hidden_sizes": scale.grna_hidden,
        "epochs": scale.grna_epochs,
        "batch_size": scale.grna_batch_size,
        "rng": rng,
    }


def released_model(scenario):
    """The plaintext model θ an attack legitimately receives (§III-B).

    Resolved through the scenario's serving boundary when one exists —
    the :class:`~repro.serving.PredictionService` is the release point
    for model parameters just as it is for predictions — falling back to
    unwrapping the scenario's served model for hand-built scenarios that
    never went through :func:`repro.api.build_scenario`.
    """
    service = getattr(scenario, "service", None)
    if service is not None:
        return service.release_model()
    return unwrap_model(scenario.model)


class ScenarioAttack:
    """Protocol base: ``prepare(scenario)`` then ``run(x_adv, v)``.

    ``run`` is idempotent: every adapter re-derives its random streams
    from the prepared seed on each call, so running the same prepared
    attack twice returns identical results.
    """

    name: str = ""
    #: Model registry keys the attack can target; ``None`` means every
    #: registered model, including ones registered after import.
    compatible_models: "tuple[str, ...] | None" = None
    constraint: str = "runs against every model kind"

    def prepare(
        self,
        scenario,
        *,
        scale: "str | ScaleConfig | None" = None,
        seed: int = 0,
    ) -> "ScenarioAttack":
        """Bind to a built scenario; returns self for chaining."""
        raise NotImplementedError

    def run(self, x_adv: np.ndarray, v: np.ndarray) -> AttackResult:
        """Execute the attack on accumulated predictions."""
        raise NotImplementedError


@ATTACKS.register("esa", forwards_to=EqualitySolvingAttack)
class EsaScenarioAttack(ScenarioAttack):
    """Equality Solving Attack (§IV-A) behind the unified protocol."""

    name = "esa"
    compatible_models = ("lr",)
    constraint = (
        "ESA solves the linear log-ratio equations of a logistic-regression "
        "model; other model kinds have no such closed-form score structure"
    )

    def __init__(self, **params: Any) -> None:
        self.params = params
        self._attack: EqualitySolvingAttack | None = None

    def prepare(self, scenario, *, scale=None, seed: int = 0) -> "EsaScenarioAttack":
        model = released_model(scenario)
        if not hasattr(model, "class_weight_matrix"):
            raise IncompatibleScenarioError(
                f"attack 'esa' cannot target {type(model).__name__}: "
                f"{self.constraint}"
            )
        self._attack = EqualitySolvingAttack(model, scenario.view, **self.params)
        return self

    def run(self, x_adv: np.ndarray, v: np.ndarray) -> AttackResult:
        if self._attack is None:
            raise AttackError("attack not prepared; call prepare(scenario) first")
        return self._attack.run(x_adv, v)


@ATTACKS.register("pra")
class PraScenarioAttack(ScenarioAttack):
    """Path Restriction Attack (§IV-B) behind the unified protocol.

    ``run`` restricts the whole pool in one pass, draws every sample's
    uniform path choice with one call on the historical
    ``spawn_rngs(seed, 2)[0]`` stream (the same draws, in the same order,
    as one ``choice`` per sample) and folds the result into one
    :class:`AttackResult`:
    ``x_target_hat`` holds the midpoints of the inferred per-feature
    intervals, ``info`` keeps the selected paths, surviving-path counts,
    and the raw intervals.
    """

    name = "pra"
    compatible_models = ("dt",)
    constraint = (
        "PRA restricts the prediction paths of a single released decision "
        "tree; LR/NN have no paths and a forest's prediction is not a "
        "single tree path"
    )

    def __init__(self, *, interval_low: float = 0.0, interval_high: float = 1.0) -> None:
        self.interval_low = float(interval_low)
        self.interval_high = float(interval_high)
        self._attack: PathRestrictionAttack | None = None
        self._view = None
        self._seed = 0

    def prepare(self, scenario, *, scale=None, seed: int = 0) -> "PraScenarioAttack":
        model = released_model(scenario)
        exporter = getattr(model, "tree_structure", None)
        if exporter is None:
            raise IncompatibleScenarioError(
                f"attack 'pra' cannot target {type(model).__name__}: "
                f"{self.constraint}"
            )
        self.structure = exporter()
        self._attack = PathRestrictionAttack(self.structure, scenario.view)
        self._view = scenario.view
        self._seed = int(seed)
        return self

    def run(self, x_adv: np.ndarray, v: np.ndarray) -> AttackResult:
        if self._attack is None:
            raise AttackError("attack not prepared; call prepare(scenario) first")
        # Fresh path-choice stream per call so run() is idempotent.
        rng, _ = spawn_rngs(self._seed, 2)
        x_adv = np.atleast_2d(np.asarray(x_adv, dtype=np.float64))
        v = np.atleast_2d(np.asarray(v, dtype=np.float64))
        labels = np.argmax(v, axis=1)
        view = self._view
        position = {int(f): j for j, f in enumerate(view.target_indices)}
        midpoint = 0.5 * (self.interval_low + self.interval_high)
        n = x_adv.shape[0]
        x_hat = np.full((n, view.d_target), midpoint)
        # One vectorized Algorithm-1 pass restricts the whole pool. Row i's
        # candidates are its live leaves in ascending slot order, exactly
        # what a per-row ``rng.choice(candidates)`` would sample from.
        rows, leaves = np.nonzero(self._attack.restrict_batch(x_adv, labels))
        restricted = np.bincount(rows, minlength=n)
        hit = restricted > 0
        starts = np.cumsum(restricted) - restricted
        # One bounded draw over the attackable rows, in row order, is the
        # per-row choice() stream draw for draw (a one-candidate row draws
        # nothing) and leaves the generator in the same state. A row with
        # no candidate has a defended output inconsistent with every path
        # its features allow (e.g. a noise-flipped argmax): unattackable.
        chosen = np.full(n, -1)
        chosen[hit] = leaves[starts[hit] + rng.integers(0, restricted[hit])]
        paths: dict[int, list[int]] = {}
        bounds: dict[int, dict[int, tuple[float, float]]] = {}
        for leaf in np.unique(chosen[hit]).tolist():
            paths[leaf] = self._attack.cached_path(leaf)
            bounds[leaf] = self._attack.infer_intervals(
                paths[leaf], low=self.interval_low, high=self.interval_high
            )
            members = chosen == leaf
            for feature, (low, high) in bounds[leaf].items():
                x_hat[members, position[int(feature)]] = 0.5 * (low + high)
        chosen_list = chosen.tolist()
        return AttackResult(
            x_target_hat=x_hat,
            view=view,
            info={
                "selected_paths": [
                    None if leaf < 0 else list(paths[leaf]) for leaf in chosen_list
                ],
                "n_paths_restricted": restricted.tolist(),
                "n_paths_total": int(self.structure.n_prediction_paths()),
                "intervals": [
                    {} if leaf < 0 else dict(bounds[leaf]) for leaf in chosen_list
                ],
                "n_failed": n - int(np.count_nonzero(hit)),
                "n_predictions_used": n,
            },
        )


@ATTACKS.register("grna", forwards_to=GenerativeRegressionNetwork)
class GrnaScenarioAttack(ScenarioAttack):
    """Generative Regression Network Attack (§V) behind the unified protocol.

    Differentiable models (LR, NN) are attacked directly; random forests
    are distilled into a neural surrogate first (§V-B), with the
    distillation budget taken from the scenario's scale. Keyword
    parameters override the scale-derived generator hyper-parameters.
    """

    name = "grna"
    compatible_models = ("lr", "nn", "rf")
    constraint = (
        "GRNA back-propagates through the released model: LR and NN are "
        "differentiable, a random forest is distilled into a neural "
        "surrogate first; a single decision tree has no distillation path "
        "in the paper"
    )

    def __init__(self, **params: Any) -> None:
        self.params = params
        self._model = None
        self._view = None
        self._scale: ScaleConfig | None = None
        self._seed = 0
        self._tracer = None
        self.distiller_: RandomForestDistiller | None = None

    def prepare(self, scenario, *, scale=None, seed: int = 0) -> "GrnaScenarioAttack":
        if scale is None:
            # A VFLScenario does not carry its scale, and the DEFAULT
            # preset's generator/distiller budget would be silently
            # mismatched to however the scenario was actually built.
            raise ScenarioError(
                "GRNA derives its generator (and RF-distiller) budget from "
                "the scenario's scale; pass scale=... to prepare()"
            )
        self._scale = get_scale(scale)
        self._model = released_model(scenario)
        self._view = scenario.view
        self._seed = int(seed)
        # Traced scenarios report generator training (grna.epoch) into
        # the same tracer the serving/federation layers feed.
        self._tracer = getattr(scenario, "tracer", None)
        return self

    def run(self, x_adv: np.ndarray, v: np.ndarray) -> AttackResult:
        if self._model is None:
            raise AttackError("attack not prepared; call prepare(scenario) first")
        scale = self._scale
        # Historical three-stream split (generator / distiller / dummy);
        # prefix-stable with the older two- and one-stream spawns, and
        # re-derived per call so run() is idempotent.
        grna_rng, distill_rng, dummy_rng = spawn_rngs(self._seed + 1, 3)
        kwargs = {**grna_kwargs_from_scale(scale, grna_rng), **self.params}
        kwargs.setdefault("tracer", self._tracer)
        if isinstance(self._model, RandomForestClassifier):
            distiller = RandomForestDistiller(
                hidden_sizes=scale.distiller_hidden,
                n_dummy=scale.distiller_dummy,
                epochs=scale.distiller_epochs,
                rng=distill_rng,
            )
            result, self.distiller_ = attack_random_forest(
                self._model,
                self._view,
                x_adv,
                v,
                distiller=distiller,
                grna_kwargs=kwargs,
                rng=dummy_rng,
            )
            return result
        attack = GenerativeRegressionNetwork(self._model, self._view, **kwargs)
        return attack.run(x_adv, v)


class RandomBaselineScenarioAttack(ScenarioAttack):
    """Random-guess baseline (§VI-A) behind the unified protocol."""

    constraint = "guessing needs no model at all"

    def __init__(self, distribution: str = "uniform") -> None:
        self.distribution = distribution
        self.name = f"random_{distribution}"
        self._view = None
        self._seed = 0

    def prepare(self, scenario, *, scale=None, seed: int = 0):
        self._view = scenario.view
        self._seed = int(seed)
        return self

    def run(self, x_adv: np.ndarray, v: np.ndarray | None = None) -> AttackResult:
        if self._view is None:
            raise AttackError("attack not prepared; call prepare(scenario) first")
        # Fresh seed-derived stream per call so run() is idempotent.
        return RandomGuessAttack(
            self._view, distribution=self.distribution, rng=self._seed
        ).run(x_adv, v)


ATTACKS.register(
    "random_uniform", partial(RandomBaselineScenarioAttack, distribution="uniform")
)
ATTACKS.register(
    "random_gaussian", partial(RandomBaselineScenarioAttack, distribution="gaussian")
)
