"""Multilayer-perceptron classifier (the paper's VFL neural network).

The paper's NN model is "an input layer (size d), an output layer (size c),
and three hidden layers (600, 300, 100 neurons)" (§VI-A); those widths are
the default here, shrinkable for laptop-scale benches. The dropout variant
used as a countermeasure in Fig. 11e-f is enabled with ``dropout > 0``.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import DifferentiableClassifier
from repro.nn.data import iterate_batches
from repro.nn.layers import mlp
from repro.nn.optim import make_optimizer
from repro.nn.train import TrainStep
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor
from repro.utils.random import check_random_state
from repro.utils.validation import check_in_range, check_positive_int


class MLPClassifier(DifferentiableClassifier):
    """Feed-forward softmax classifier trained with cross-entropy.

    Parameters
    ----------
    hidden_sizes:
        Widths of the hidden layers; paper default ``(600, 300, 100)``.
    dropout:
        Dropout probability applied after each hidden activation. ``0``
        disables dropout (the paper's base model); nonzero reproduces the
        Fig. 11e-f countermeasure.
    optimizer:
        ``"adam"`` (default) or ``"sgd"``.
    """

    def __init__(
        self,
        hidden_sizes: tuple[int, ...] = (600, 300, 100),
        *,
        lr: float = 1e-3,
        epochs: int = 30,
        batch_size: int = 128,
        dropout: float = 0.0,
        optimizer: str = "adam",
        rng: np.random.Generator | int = 0,
    ) -> None:
        super().__init__()
        self.hidden_sizes = tuple(
            check_positive_int(h, name="hidden size") for h in hidden_sizes
        )
        self.lr = check_in_range(lr, name="lr", low=0.0, inclusive=False)
        self.epochs = check_positive_int(epochs, name="epochs")
        self.batch_size = check_positive_int(batch_size, name="batch_size")
        self.dropout = check_in_range(dropout, name="dropout", low=0.0, high=0.99)
        self.optimizer_name = optimizer
        self.rng = check_random_state(rng)
        self.network_ = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MLPClassifier":
        """Train with mini-batch cross-entropy."""
        X, y = self._validate_fit_inputs(X, y)
        sizes = [self.n_features_, *self.hidden_sizes, self.n_classes_]
        self.network_ = mlp(
            sizes, activation="relu", dropout=self.dropout, init="kaiming", rng=self.rng
        )
        optimizer = make_optimizer(self.optimizer_name, self.network_.parameters(), self.lr)
        step = TrainStep(lambda x, labels: F.cross_entropy(self.network_(x), labels), optimizer)
        self.network_.train()
        for _ in range(self.epochs):
            for xb, yb in iterate_batches((X, y), self.batch_size, rng=self.rng):
                step(xb, yb)
        self.network_.eval()
        return self

    # Bound here as well as on the base class, so a per-class wrapper
    # (perfbench's layer tracer) can patch this model's entry point alone.
    predict_proba = DifferentiableClassifier.predict_proba

    def _proba(self, X: np.ndarray) -> np.ndarray:
        self.network_.eval()
        logits = self.network_(Tensor(X))
        return F.softmax(logits, axis=1).numpy()

    def forward_tensor(self, x: Tensor) -> Tensor:
        """Differentiable confidence scores for GRNA (eval mode: no dropout)."""
        self._check_fitted()
        self.network_.eval()
        return F.softmax(self.network_(x), axis=1)
