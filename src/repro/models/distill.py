"""Distilling a random forest into a differentiable neural surrogate.

GRNA needs to back-propagate through the VFL model, but a random forest is
not differentiable. Following §V-B (and Biau et al.'s neural random
forests), the adversary samples *dummy* points from the whole data space,
labels them with the RF's vote-fraction confidences, and fits an MLP to
imitate the forest. The surrogate then substitutes for the RF inside
Algorithm 2.

The paper's surrogate is "another multilayer perceptron with two hidden
layers (2000 and 200 neurons)" (§VI-C).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import NotFittedError, ValidationError
from repro.models.base import BaseClassifier, DifferentiableClassifier
from repro.nn.data import iterate_batches
from repro.nn.layers import mlp
from repro.nn.optim import make_optimizer
from repro.nn.train import TrainStep
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor
from repro.utils.random import check_random_state
from repro.utils.validation import check_in_range, check_positive_int


class RandomForestDistiller(DifferentiableClassifier):
    """Train an MLP that imitates a fitted (black-box) classifier.

    Although designed for random forests, any model exposing
    ``predict_proba`` can be distilled, which lets the test-suite check
    surrogate fidelity against closed-form models too.

    Parameters
    ----------
    hidden_sizes:
        Surrogate widths; paper default ``(2000, 200)``.
    n_dummy:
        Number of dummy samples drawn uniformly from ``[0, 1]^d`` (all
        features are min-max normalized into (0, 1) per §VI-A, so the unit
        cube *is* the whole data space).
    loss:
        ``"soft_ce"`` (default) fits soft cross-entropy against the teacher
        confidences; ``"mse"`` regresses them directly.
    """

    def __init__(
        self,
        hidden_sizes: tuple[int, ...] = (2000, 200),
        *,
        n_dummy: int = 20000,
        lr: float = 1e-3,
        epochs: int = 20,
        batch_size: int = 256,
        loss: str = "soft_ce",
        rng: np.random.Generator | int = 0,
    ) -> None:
        super().__init__()
        self.hidden_sizes = tuple(
            check_positive_int(h, name="hidden size") for h in hidden_sizes
        )
        self.n_dummy = check_positive_int(n_dummy, name="n_dummy")
        self.lr = check_in_range(lr, name="lr", low=0.0, inclusive=False)
        self.epochs = check_positive_int(epochs, name="epochs")
        self.batch_size = check_positive_int(batch_size, name="batch_size")
        if loss not in ("soft_ce", "mse"):
            raise ValidationError(f"loss must be 'soft_ce' or 'mse', got {loss!r}")
        self.loss = loss
        self.rng = check_random_state(rng)
        self.network_ = None
        self.teacher_: BaseClassifier | None = None

    # ------------------------------------------------------------------
    # Distillation (the "fit" of this model is fitting to a teacher)
    # ------------------------------------------------------------------
    def distill(
        self,
        teacher: BaseClassifier,
        n_features: int,
        *,
        extra_inputs: np.ndarray | None = None,
    ) -> "RandomForestDistiller":
        """Fit the surrogate to ``teacher`` on uniform dummy samples.

        Parameters
        ----------
        teacher:
            Fitted model whose ``predict_proba`` supplies soft labels.
        n_features:
            Input dimensionality ``d`` of the teacher.
        extra_inputs:
            Optional additional unlabeled inputs (e.g. the adversary's
            accumulated prediction samples) mixed into the dummy set so the
            surrogate is accurate where the attack will query it.
        """
        n_features = check_positive_int(n_features, name="n_features")
        teacher._check_fitted()
        X_dummy = self.rng.random((self.n_dummy, n_features))
        if extra_inputs is not None:
            extra_inputs = np.asarray(extra_inputs, dtype=np.float64)
            if extra_inputs.ndim != 2 or extra_inputs.shape[1] != n_features:
                raise ValidationError(
                    f"extra_inputs must be (n, {n_features}), got {extra_inputs.shape}"
                )
            X_dummy = np.vstack([X_dummy, extra_inputs])
        V_dummy = teacher.predict_proba(X_dummy)

        self.teacher_ = teacher
        self.n_features_ = n_features
        self.n_classes_ = V_dummy.shape[1]
        sizes = [n_features, *self.hidden_sizes, self.n_classes_]
        self.network_ = mlp(sizes, activation="relu", init="kaiming", rng=self.rng)
        optimizer = make_optimizer("adam", self.network_.parameters(), self.lr)
        step = TrainStep(self._imitation_loss, optimizer)
        for _ in range(self.epochs):
            for xb, vb in iterate_batches((X_dummy, V_dummy), self.batch_size, rng=self.rng):
                step(xb, vb)
        return self

    def _imitation_loss(self, x: Tensor, v: Tensor) -> Tensor:
        """How far the surrogate's confidences on ``x`` are from the teacher's ``v``."""
        logits = self.network_(x)
        if self.loss == "soft_ce":
            return F.soft_cross_entropy(logits, v)
        return F.mse_loss(F.softmax(logits, axis=1), v)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestDistiller":
        raise NotImplementedError(
            "RandomForestDistiller is fitted with distill(teacher, n_features)"
        )

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _proba(self, X: np.ndarray) -> np.ndarray:
        return F.softmax(self.network_(Tensor(X)), axis=1).numpy()

    def forward_tensor(self, x: Tensor) -> Tensor:
        """Differentiable surrogate confidences (what GRNA differentiates)."""
        if self.network_ is None:
            raise NotFittedError("surrogate not distilled; call distill first")
        return F.softmax(self.network_(x), axis=1)

    def fidelity(self, X: np.ndarray) -> float:
        """Agreement rate between surrogate and teacher argmax labels on X."""
        if self.teacher_ is None:
            raise NotFittedError("surrogate not distilled; call distill first")
        return float(np.mean(self.predict(X) == self.teacher_.predict(X)))
