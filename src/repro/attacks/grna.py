"""Generative Regression Network Attack (GRNA) — §V, Algorithm 2.

The adversary accumulates the prediction outputs of many samples, then
trains a *generator* network ``G(x_adv, r; θ_G) → x̂_target`` such that the
released VFL model's prediction on the generated sample
``f(x_adv ∪ x̂_target; θ)`` matches the observed confidence scores. Because
``f`` is differentiable (an NN, an LR, or a distilled surrogate of an RF),
the prediction loss back-propagates *through the frozen model* into the
generator (Eqn 9):

    min_{θ_G}  (1/n) Σ_t ℓ( f(x^t_adv, G(x^t_adv, r^t; θ_G); θ), v^t ) + Ω(f_G)

The regularizer Ω penalizes the generator when the variance of its outputs
is "too large", preventing meaningless samples (§V-A); no prior information
about the target data is used.

Ablation switches (Table III):

- ``use_adv_input=False`` → case 1 (generator sees only noise);
- ``use_noise=False``     → case 2 (no random input vector);
- ``variance_penalty=0``  → case 3 (no constraint on x̂_target);
- ``use_generator=False`` → case 4 (naive regression: optimize x̂_target
  directly as free variables, no generator network).
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import AttackResult, FeatureInferenceAttack
from repro.checkpoint import (
    CheckpointPlan,
    capture_state,
    content_fingerprint,
    raw_fragment,
    restore_state,
)
from repro.exceptions import AttackError, CheckpointError, ValidationError
from repro.federated.partition import AdversaryView
from repro.models.base import BaseClassifier, DifferentiableClassifier
from repro.models.distill import RandomForestDistiller
from repro.nn.data import batch_indices
from repro.nn.module import Parameter
from repro.nn.optim import make_optimizer
from repro.nn.train import TrainStep
from repro.telemetry import NULL_TRACER
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, assemble_columns
from repro.utils.random import check_random_state
from repro.utils.validation import check_in_range, check_matrix, check_positive_int

#: Variance of U(0, 1); outputs spread wider than the feature range itself
#: are considered "too large" by the default regularizer.
UNIFORM_VARIANCE = 1.0 / 12.0


class GenerativeRegressionNetwork(FeatureInferenceAttack):
    """GRNA: learn feature correlations from accumulated predictions.

    Parameters
    ----------
    model:
        A fitted :class:`DifferentiableClassifier` — the released VFL model
        (or the NN surrogate of a random forest).
    view:
        Adversary/target column split.
    hidden_sizes:
        Generator widths; paper default ``(600, 200, 100)`` with LayerNorm
        after each hidden layer (§VI-C).
    epochs, batch_size, lr, optimizer:
        Generator training hyper-parameters. Algorithm 2 specifies
        mini-batch SGD; Adam is the default here because it reaches the
        same optima in far fewer epochs at identical attack accuracy (the
        choice is benchmarked in the ablation suite).
    variance_penalty:
        Weight λ of the variance regularizer Ω; 0 disables it.
    variance_threshold:
        Per-feature variance above which the hinge penalty activates
        (default: the variance of U(0,1), i.e. outputs may spread as much
        as the normalized feature range itself but no further).
    use_adv_input / use_noise / use_generator:
        Ablation switches, see module docstring.
    output_activation:
        ``"sigmoid"`` (default) bounds generated values to the known (0, 1)
        feature range — legitimate because the threat model grants the
        adversary knowledge of feature value ranges (§III-B) and all
        features are min-max normalized (§VI-A). ``"linear"`` leaves the
        output unbounded (relying purely on the variance regularizer, the
        weakest reading of the paper); it is ablated in the benches.
    clip_to_unit:
        Clip reconstructions into [0, 1] — justified by the same range
        knowledge; only relevant for the linear output head.
    checkpoint:
        Optional :class:`~repro.checkpoint.CheckpointPlan`. When given,
        the epoch loop emits a snapshot (generator or direct-estimate
        parameters, optimizer moments, rng stream position, loss
        history) at the plan's cadence, and ``fit`` resumes from the
        latest matching snapshot instead of epoch 0. A resumed fit is
        bit-identical to an uninterrupted one — every post-restore draw
        comes from the restored rng position, including the fresh noise
        draw :meth:`reconstruct` makes after training.
    tracer:
        Optional :class:`~repro.telemetry.Tracer`. The epoch loop emits
        a ``grna.epoch`` event per epoch and each snapshot a
        ``checkpoint.snapshot`` event; a real tracer's counters ride the
        snapshot, so a resumed run's trace continues the interrupted one
        record for record. ``None`` (default) stores
        :data:`~repro.telemetry.NULL_TRACER`, which records nothing.
    """

    def __init__(
        self,
        model: DifferentiableClassifier,
        view: AdversaryView,
        *,
        hidden_sizes: tuple[int, ...] = (600, 200, 100),
        epochs: int = 60,
        batch_size: int = 64,
        lr: float = 2e-3,
        optimizer: str = "adam",
        variance_penalty: float = 1.0,
        variance_threshold: float = UNIFORM_VARIANCE,
        use_adv_input: bool = True,
        use_noise: bool = True,
        use_generator: bool = True,
        output_activation: str = "sigmoid",
        clip_to_unit: bool = True,
        rng: np.random.Generator | int = 0,
        checkpoint: CheckpointPlan | None = None,
        tracer=None,
    ) -> None:
        if not isinstance(model, DifferentiableClassifier):
            raise AttackError(
                "GRNA needs a differentiable model; distill random forests "
                "first (see attack_random_forest)"
            )
        model._check_fitted()
        if view.n_features != model.n_features_:
            raise AttackError(
                f"view covers {view.n_features} features, model uses {model.n_features_}"
            )
        if not use_adv_input and not use_noise:
            raise ValidationError("generator needs at least one of x_adv / noise inputs")
        self.model = model
        self.view = view
        self.hidden_sizes = tuple(
            check_positive_int(h, name="hidden size") for h in hidden_sizes
        )
        self.epochs = check_positive_int(epochs, name="epochs")
        self.batch_size = check_positive_int(batch_size, name="batch_size")
        self.lr = check_in_range(lr, name="lr", low=0.0, inclusive=False)
        self.optimizer_name = optimizer
        self.variance_penalty = check_in_range(
            variance_penalty, name="variance_penalty", low=0.0
        )
        self.variance_threshold = check_in_range(
            variance_threshold, name="variance_threshold", low=0.0
        )
        self.use_adv_input = bool(use_adv_input)
        self.use_noise = bool(use_noise)
        self.use_generator = bool(use_generator)
        if output_activation not in ("sigmoid", "linear"):
            raise ValidationError(
                f"output_activation must be 'sigmoid' or 'linear', got {output_activation!r}"
            )
        self.output_activation = output_activation
        self.clip_to_unit = bool(clip_to_unit)
        self.checkpoint = checkpoint
        self.tracer = tracer or NULL_TRACER
        self.rng = check_random_state(rng)
        self.generator_ = None
        self._direct_estimate: Parameter | None = None
        self.loss_history_: list[float] = []
        # The column permutation restoring original feature order after
        # concat([x_adv, x̂_target]) — Algorithm 2 line 9's "x_adv ∪ x̂" —
        # inverted and split into the original-order column positions of
        # the adversary block and the generated block: the hot loop
        # assembles x_full with one scatter and back-propagates with one
        # gather instead of permuting the full joint width.
        inv_perm = np.argsort(view.permutation_to_original())
        self._adv_positions = inv_perm[: view.d_adv]
        self._target_positions = inv_perm[view.d_adv :]
        self._input_buffer: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Training (Algorithm 2)
    # ------------------------------------------------------------------
    def fit(self, X_adv: np.ndarray, V: np.ndarray) -> "GenerativeRegressionNetwork":
        """Train the generator on accumulated (x_adv, v) pairs."""
        X_adv, V = self._validate_inputs(X_adv, V)
        frozen = self._freeze_model()
        try:
            self._train(X_adv, V)
        finally:
            self._restore_model(frozen)
        return self

    def _validate_inputs(self, X_adv, V) -> tuple[np.ndarray, np.ndarray]:
        X_adv = check_matrix(np.atleast_2d(X_adv), name="X_adv")
        V = check_matrix(np.atleast_2d(V), name="V")
        if X_adv.shape[0] != V.shape[0]:
            raise AttackError(
                f"X_adv has {X_adv.shape[0]} rows but V has {V.shape[0]}"
            )
        if X_adv.shape[1] != self.view.d_adv:
            raise AttackError(
                f"X_adv has {X_adv.shape[1]} columns, expected d_adv={self.view.d_adv}"
            )
        if V.shape[1] != self.model.n_classes_:
            raise AttackError(
                f"V has {V.shape[1]} columns, model has {self.model.n_classes_} classes"
            )
        return X_adv, V

    def _freeze_model(self) -> list[tuple]:
        """Stop gradient accumulation into the (constant) VFL model."""
        frozen = []
        network = getattr(self.model, "network_", None)
        if network is not None:
            for param in network.parameters():
                frozen.append((param, param.requires_grad))
                param.requires_grad = False
        return frozen

    @staticmethod
    def _restore_model(frozen: list[tuple]) -> None:
        for param, state in frozen:
            param.requires_grad = state

    def _generator_input_width(self) -> int:
        width = 0
        if self.use_adv_input:
            width += self.view.d_adv
        if self.use_noise:
            width += self.view.d_target
        return width

    def _build_generator(self):
        """Generator MLP: hidden layers with LayerNorm, paper §VI-C.

        The output layer uses a small-variance normal init so the sigmoid
        head starts unsaturated at ~0.5 (the midpoint of the normalized
        feature range); a saturated head would receive vanishing gradients
        and freeze the attack at its initialization.
        """
        from repro.nn.layers import LayerNorm, Linear, ReLU, Sequential, Sigmoid

        sizes = [self._generator_input_width(), *self.hidden_sizes]
        layers = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            layers.append(Linear(fan_in, fan_out, init="xavier", rng=self.rng))
            layers.append(LayerNorm(fan_out))
            layers.append(ReLU())
        layers.append(
            Linear(sizes[-1], self.view.d_target, init="normal", rng=self.rng)
        )
        if self.output_activation == "sigmoid":
            layers.append(Sigmoid())
        return Sequential(*layers)

    def _generator_batch_input(self, x_adv_batch: np.ndarray) -> np.ndarray:
        """Generator input for one batch, reusing the training concat buffer.

        The noise draw stays a single ``rng.normal(size=...)`` call so the
        random stream (and therefore every generated value) is unchanged;
        only the destination of the copy moves from a fresh ``np.hstack``
        allocation into the persistent per-fit buffer.
        """
        rows = x_adv_batch.shape[0]
        buffer = self._input_buffer
        if buffer is None or buffer.shape[0] < rows:
            buffer = np.empty((rows, self._generator_input_width()))
        out = buffer[:rows]
        offset = 0
        if self.use_adv_input:
            out[:, : self.view.d_adv] = x_adv_batch
            offset = self.view.d_adv
        if self.use_noise:
            out[:, offset:] = self.rng.normal(size=(rows, self.view.d_target))
        return out

    def _prediction_loss(self, x_adv_batch: Tensor, x_hat: Tensor, v_batch: Tensor) -> Tensor:
        """ℓ(f(x_adv ∪ x̂_target), v) + Ω — Algorithm 2 lines 9-10.

        Hot-path formulation: one scatter assembles x_full (backward is a
        single gather of the generated columns), and the MSE and variance
        reductions are fused single-node kernels. Training is bit-identical
        to the seed composed-graph loss (``grna_prediction_loss`` in
        ``tests/reference.py``, regression-tested under the oracle harness).
        """
        x_full = assemble_columns(
            x_adv_batch, x_hat, self._adv_positions, self._target_positions
        )
        v_hat = self.model.forward_tensor(x_full)
        loss = F.fused_mse_loss(v_hat, v_batch)
        if self.variance_penalty > 0.0 and x_hat.shape[0] > 1:
            loss = loss + F.hinged_variance_penalty(
                x_hat, self.variance_threshold, self.variance_penalty
            )
        return loss

    def _fit_fingerprint(self, X_adv: np.ndarray, V: np.ndarray) -> str:
        """Bind snapshots to the exact training problem being resumed."""
        # Traced and untraced runs may not share snapshots: the traced
        # fragments carry tracer counters the untraced resume would drop.
        return content_fingerprint(
            {
                "attack": "grna",
                "telemetry": self.tracer.enabled,
                "model": {
                    "class": type(self.model).__name__,
                    "n_features": self.model.n_features_,
                    "n_classes": self.model.n_classes_,
                },
                "hidden_sizes": list(self.hidden_sizes),
                "epochs": self.epochs,
                "batch_size": self.batch_size,
                "lr": self.lr,
                "optimizer": self.optimizer_name,
                "variance_penalty": self.variance_penalty,
                "variance_threshold": self.variance_threshold,
                "use_adv_input": self.use_adv_input,
                "use_noise": self.use_noise,
                "use_generator": self.use_generator,
                "output_activation": self.output_activation,
                "X_adv": X_adv,
                "V": V,
            }
        )

    def _fit_fragments(self, optimizer, epoch: int) -> dict:
        """Everything the epoch loop needs to continue bit-identically.

        Logs the ``checkpoint.snapshot`` event *before* capturing the
        tracer, so the captured seq counts it and a resumed run's trace
        lines up record for record with the interrupted one.
        """
        self.tracer.event("checkpoint.snapshot", scope="grna", epoch=epoch)
        fragments = {
            "rng": capture_state(self.rng),
            "optimizer": capture_state(optimizer),
            "progress": raw_fragment(meta={"loss_history": list(self.loss_history_)}),
        }
        if self.tracer.enabled:
            fragments["telemetry"] = capture_state(self.tracer)
        if self.use_generator:
            fragments["generator"] = raw_fragment(
                arrays=self.generator_.state_dict()
            )
        else:
            fragments["estimate"] = raw_fragment(
                arrays={"estimate": self._direct_estimate.data.copy()}
            )
        return fragments

    def _resume_epoch(self, optimizer, X_adv: np.ndarray, V: np.ndarray) -> int:
        """Restore the latest matching snapshot; return the start epoch.

        Called after the fresh-run construction already consumed its rng
        init draws, so a miss (empty store) leaves the fresh trajectory
        untouched and a hit overwrites every piece of trajectory state —
        parameters, optimizer moments, rng position, loss history.
        """
        plan = self.checkpoint
        if plan is None:
            return 0
        plan.bind_fingerprint(self._fit_fingerprint(X_adv, V))
        snapshot = plan.latest()
        if snapshot is None:
            return 0
        if self.use_generator:
            self.generator_.load_state_dict(
                dict(snapshot.fragment("generator")["arrays"])
            )
        else:
            self._direct_estimate.data[...] = snapshot.fragment("estimate")[
                "arrays"
            ]["estimate"]
        restore_state(optimizer, snapshot.fragment("optimizer"))
        snapshot.restore("rng", self.rng)
        self.loss_history_ = [
            float(x) for x in snapshot.fragment("progress")["meta"]["loss_history"]
        ]
        if "telemetry" in snapshot.fragments:
            if not self.tracer.enabled:
                raise CheckpointError(
                    "snapshot holds tracer state but this attack has no "
                    "tracer attached; rerun with the same telemetry knob "
                    "the snapshot was taken under"
                )
            restore_state(self.tracer, snapshot.fragment("telemetry"))
        return int(snapshot.meta["epoch"]) + 1

    def _train(self, X_adv: np.ndarray, V: np.ndarray) -> None:
        """The epoch loop, shared by the generator and the direct estimate.

        Table III case 4 (``use_generator=False``) optimizes x̂_target
        directly: one free row per sample, no generator network.
        """
        n = X_adv.shape[0]
        if self.use_generator:
            self.generator_ = self._build_generator()
            params = self.generator_.parameters()
            loss = self._generator_loss
            self._input_buffer = np.empty(
                (min(self.batch_size, n), self._generator_input_width())
            )
        else:
            self._direct_estimate = Parameter(
                self.rng.normal(0.0, 1.0, size=(n, self.view.d_target))
            )
            params = [self._direct_estimate]
            loss = self._direct_loss
        optimizer = make_optimizer(self.optimizer_name, params, self.lr)
        self.loss_history_ = []
        start_epoch = self._resume_epoch(optimizer, X_adv, V)
        step = TrainStep(loss, optimizer)
        for epoch in range(start_epoch, self.epochs):
            epoch_loss, n_batches = 0.0, 0
            for idx in batch_indices(n, self.batch_size, rng=self.rng):
                epoch_loss += step(*self._step_inputs(idx, X_adv, V))
                n_batches += 1
            self.loss_history_.append(epoch_loss / max(n_batches, 1))
            self.tracer.event("grna.epoch", epoch=epoch, loss=self.loss_history_[-1])
            if self.checkpoint is not None:
                self.checkpoint.maybe_emit(
                    epoch,
                    lambda: self._fit_fragments(optimizer, epoch),
                    meta={"epoch": epoch},
                )

    def _step_inputs(self, idx: np.ndarray, X_adv: np.ndarray, V: np.ndarray) -> tuple:
        """One batch's step inputs: ``(z | idx, x_adv, v)`` for the loss."""
        x_adv_batch = X_adv[idx]
        head = self._generator_batch_input(x_adv_batch) if self.use_generator else idx
        return head, x_adv_batch, V[idx]

    def _generator_loss(self, z: Tensor, x_adv_batch: Tensor, v_batch: Tensor) -> Tensor:
        """One generator batch's loss: G(z) scored through the frozen model."""
        return self._prediction_loss(x_adv_batch, self.generator_(z), v_batch)

    def _direct_loss(self, idx: Tensor, x_adv_batch: Tensor, v_batch: Tensor) -> Tensor:
        """One direct-estimate batch's loss: the ``idx`` rows of x̂_target."""
        return self._prediction_loss(
            x_adv_batch, self._direct_estimate.take_rows(idx), v_batch
        )

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def reconstruct(self, X_adv: np.ndarray) -> np.ndarray:
        """Generate x̂_target for each row of ``X_adv`` (fresh noise draw)."""
        if self.use_generator:
            if self.generator_ is None:
                raise AttackError("generator not trained; call fit first")
            X_adv = check_matrix(np.atleast_2d(X_adv), name="X_adv")
            if X_adv.shape[1] != self.view.d_adv:
                raise AttackError(
                    f"X_adv has {X_adv.shape[1]} columns, expected {self.view.d_adv}"
                )
            self.generator_.eval()
            x_hat = self.generator_(Tensor(self._generator_batch_input(X_adv))).numpy()
            self.generator_.train()
        else:
            if self._direct_estimate is None:
                raise AttackError("direct estimate not optimized; call fit first")
            x_hat = self._direct_estimate.numpy()
        if self.clip_to_unit:
            x_hat = np.clip(x_hat, 0.0, 1.0)
        return x_hat

    def run(self, x_adv: np.ndarray, v: np.ndarray) -> AttackResult:
        """Fit on the accumulated predictions, then reconstruct them.

        Per §V-A, "the samples to be attacked are exactly the samples for
        training the generator model".
        """
        x_adv, v = self._validate_inputs(
            np.atleast_2d(x_adv), np.atleast_2d(v)
        )
        self.fit(x_adv, v)
        x_hat = self.reconstruct(x_adv)
        return AttackResult(
            x_target_hat=x_hat,
            view=self.view,
            info={
                "final_loss": self.loss_history_[-1] if self.loss_history_ else None,
                "epochs": self.epochs,
                "use_generator": self.use_generator,
                # GRNA's serving-boundary cost is its accumulated pool:
                # one prediction query per generator training sample (§V-A);
                # generator epochs re-use the pool and cost nothing more.
                "n_predictions_used": int(v.shape[0]),
            },
        )


def attack_random_forest(
    forest: BaseClassifier,
    view: AdversaryView,
    X_adv: np.ndarray,
    V: np.ndarray,
    *,
    distiller: RandomForestDistiller | None = None,
    grna_kwargs: dict | None = None,
    rng: np.random.Generator | int = 0,
) -> tuple[AttackResult, RandomForestDistiller]:
    """GRNA against a (non-differentiable) random forest, §V-B.

    Distills the forest into a neural surrogate, then runs GRNA against the
    surrogate. Returns the attack result and the surrogate (for fidelity
    inspection).

    Besides the paper's uniform dummy samples, the dummy set includes
    samples whose adversary columns are the *real* accumulated ``x_adv``
    values (target columns drawn uniformly): the adversary owns both the
    plaintext forest and its own feature values, so conditioning the
    surrogate's training data on them is within the threat model and makes
    the surrogate accurate exactly where the generator queries it.
    """
    rng = check_random_state(rng)
    if distiller is None:
        distiller = RandomForestDistiller(rng=rng)
    if distiller.network_ is None:
        X_adv_arr = np.atleast_2d(np.asarray(X_adv, dtype=np.float64))
        repeats = max(1, distiller.n_dummy // max(X_adv_arr.shape[0], 1))
        tiled_adv = np.repeat(X_adv_arr, repeats, axis=0)
        conditioned = view.assemble(
            tiled_adv, rng.random((tiled_adv.shape[0], view.d_target))
        )
        distiller.distill(forest, forest.n_features_, extra_inputs=conditioned)
    grna_kwargs = dict(grna_kwargs or {})
    grna_kwargs.setdefault("rng", rng)
    grna = GenerativeRegressionNetwork(distiller, view, **grna_kwargs)
    return grna.run(X_adv, V), distiller
