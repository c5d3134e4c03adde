"""Logistic regression: binary (sigmoid) and multinomial (softmax).

This is the model §IV-A's Equality Solving Attack targets, so the internal
parameterization is documented precisely:

- **binary** (``n_classes == 2``): one weight vector ``w ∈ R^d`` and bias
  ``b``; ``P(y=1 | x) = σ(x·w + b)`` and ``v = (1−p, p)`` indexed by class.
- **multinomial** (``n_classes > 2``): per-class weight columns
  ``W ∈ R^{d×c}`` and biases ``b ∈ R^c``; ``v = softmax(x W + b)``.

Both parameterizations are exposed through :meth:`class_weight_matrix`,
which always returns per-class linear weights so the attack code handles
one layout.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.models.base import DifferentiableClassifier
from repro.nn.data import batch_indices
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor
from repro.utils.numeric import one_hot, sigmoid, softmax
from repro.utils.random import check_random_state
from repro.utils.validation import check_in_range, check_positive_int


class LogisticRegression(DifferentiableClassifier):
    """L2-regularized logistic regression trained by mini-batch gradient descent.

    Parameters
    ----------
    lr:
        Learning rate.
    epochs:
        Number of passes over the training data.
    batch_size:
        Mini-batch size.
    l2:
        L2 regularization strength (the ``Ω(θ)`` term of Eqn 1).
    rng:
        Seed or generator controlling shuffling and initialization.
    """

    def __init__(
        self,
        *,
        lr: float = 0.5,
        epochs: int = 100,
        batch_size: int = 256,
        l2: float = 1e-4,
        rng: np.random.Generator | int = 0,
    ) -> None:
        super().__init__()
        self.lr = check_in_range(lr, name="lr", low=0.0, inclusive=False)
        self.epochs = check_positive_int(epochs, name="epochs")
        self.batch_size = check_positive_int(batch_size, name="batch_size")
        self.l2 = check_in_range(l2, name="l2", low=0.0)
        self.rng = check_random_state(rng)
        self.coef_: np.ndarray | None = None  # (d,) binary / (d, c) multinomial
        self.intercept_: np.ndarray | None = None  # () binary / (c,) multinomial

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        """Fit by full-gradient descent on the regularized log-loss."""
        X, y = self._validate_fit_inputs(X, y)
        if self.n_classes_ == 2:
            self._fit_binary(X, y)
        else:
            self._fit_multinomial(X, y)
        return self

    # The two SGD loops draw each epoch's batches as ``iterate_batches``
    # does, gather them with ``take`` and update the parameters in place,
    # but apply every operation of the textbook update in its order
    # (``tests/reference.py``: ``lr_fit_binary`` and ``lr_fit_multinomial``),
    # so the fitted parameters are the same bits.
    def _fit_binary(self, X: np.ndarray, y: np.ndarray) -> None:
        d = X.shape[1]
        w = self.rng.normal(0.0, 0.01, size=d)
        b = 0.0
        y = y.astype(np.float64)
        decay = np.empty(d)
        for _ in range(self.epochs):
            for idx in batch_indices(X.shape[0], self.batch_size, rng=self.rng):
                xb = X.take(idx, axis=0)
                z = xb @ w
                z += b
                err = sigmoid(z)
                err -= y.take(idx)  # gradient of mean log-loss w.r.t. logits
                grad_w = xb.T @ err
                grad_w /= xb.shape[0]
                grad_w += np.multiply(w, self.l2, out=decay)
                grad_b = float(err.mean())
                grad_w *= self.lr
                w -= grad_w
                b -= self.lr * grad_b
        self.coef_ = w
        self.intercept_ = np.float64(b)

    def _fit_multinomial(self, X: np.ndarray, y: np.ndarray) -> None:
        d, c = X.shape[1], self.n_classes_
        W = self.rng.normal(0.0, 0.01, size=(d, c))
        b = np.zeros(c)
        Y = one_hot(y, c)
        decay = np.empty((d, c))
        for _ in range(self.epochs):
            for idx in batch_indices(X.shape[0], self.batch_size, rng=self.rng):
                xb = X.take(idx, axis=0)
                err = xb @ W
                err += b
                # Softmax in place. The row max is exact in any order; a
                # class-major copy reduces it with whole-row maxima.
                err -= err.T.copy().max(axis=0)[:, None]
                np.exp(err, out=err)
                err /= err.sum(axis=1, keepdims=True)
                err -= Y.take(idx, axis=0)
                err /= xb.shape[0]
                grad = xb.T @ err
                grad += np.multiply(W, self.l2, out=decay)
                grad *= self.lr
                W -= grad
                step_b = err.sum(axis=0)
                step_b *= self.lr
                b -= step_b
        self.coef_ = W
        self.intercept_ = b

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw linear scores: ``x·w+b`` (binary) or ``x W + b`` (multinomial)."""
        X = self._validate_predict_input(X)
        return X @ self.coef_ + self.intercept_

    # Bound here as well as on the base class, so a per-class wrapper
    # (perfbench's layer tracer) can patch this model's entry point alone.
    predict_proba = DifferentiableClassifier.predict_proba

    def _proba(self, X: np.ndarray) -> np.ndarray:
        if self.n_classes_ == 2:
            p1 = sigmoid(X @ self.coef_ + float(self.intercept_))
            proba = np.empty((p1.shape[0], 2))
            np.subtract(1.0, p1, out=proba[:, 0])
            proba[:, 1] = p1
            return proba
        return softmax(X @ self.coef_ + self.intercept_, axis=1)

    def forward_tensor(self, x: Tensor) -> Tensor:
        """Differentiable confidence scores for GRNA."""
        self._check_fitted()
        if self.n_classes_ == 2:
            w = Tensor(self.coef_.reshape(-1, 1))
            logits = x @ w + float(self.intercept_)
            p1 = logits.sigmoid()
            return F.concat([1.0 - p1, p1], axis=1)
        logits = x @ Tensor(self.coef_) + Tensor(self.intercept_)
        return F.softmax(logits, axis=1)

    # ------------------------------------------------------------------
    # Attack-facing parameter views
    # ------------------------------------------------------------------
    def class_weight_matrix(self) -> np.ndarray:
        """Per-class weights as a ``(d, c)`` matrix regardless of arity.

        For the binary model this is ``[zeros, w]`` so that class-``k``
        columns line up with ``predict_proba`` columns (class 0's implicit
        score is 0).
        """
        self._check_fitted()
        if self.n_classes_ == 2:
            return np.column_stack([np.zeros_like(self.coef_), self.coef_])
        return self.coef_.copy()

    def class_intercepts(self) -> np.ndarray:
        """Per-class intercepts as a length-``c`` vector."""
        self._check_fitted()
        if self.n_classes_ == 2:
            return np.array([0.0, float(self.intercept_)])
        return self.intercept_.copy()

    def set_parameters(self, coef: np.ndarray, intercept) -> "LogisticRegression":
        """Install externally trained parameters (used in tests/examples)."""
        coef = np.asarray(coef, dtype=np.float64)
        if coef.ndim == 1:
            self.n_features_ = coef.shape[0]
            self.n_classes_ = 2
            self.coef_ = coef.copy()
            self.intercept_ = np.float64(intercept)
        elif coef.ndim == 2:
            if coef.shape[1] < 2:
                raise ValidationError("multinomial coef needs >= 2 class columns")
            self.n_features_, self.n_classes_ = coef.shape
            self.coef_ = coef.copy()
            intercept = np.asarray(intercept, dtype=np.float64)
            if intercept.shape != (coef.shape[1],):
                raise ValidationError(
                    f"intercept shape {intercept.shape} != ({coef.shape[1]},)"
                )
            self.intercept_ = intercept.copy()
        else:
            raise ValidationError(f"coef must be 1-D or 2-D, got shape {coef.shape}")
        return self
