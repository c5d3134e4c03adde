"""Differentiable functional operations built on :class:`~repro.tensor.Tensor`.

These mirror ``torch.nn.functional`` for the subset of operations the paper
reproduction needs: activations, (log-)softmax, and the loss kernels used by
model training and the GRNA generator objective.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError, ValidationError
from repro.tensor.tensor import Function, Tensor, apply, concat, unbroadcast


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return x.tanh()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU: ``x`` where positive, ``negative_slope * x`` elsewhere."""
    return x.relu() - (-x).relu() * negative_slope


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``.

    The max-shift is treated as a constant, which leaves both the value and
    the gradient of softmax unchanged.
    """
    shifted = x - x.detached_max(axis=axis, keepdims=True)
    ez = shifted.exp()
    return ez / ez.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.detached_max(axis=axis, keepdims=True)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def mse_loss(prediction: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Mean squared error over all elements.

    This is the loss GRNA back-propagates between the simulated prediction
    ``v̂`` and the observed confidence scores ``v`` (Algorithm 2, line 10).
    """
    target = target if isinstance(target, Tensor) else Tensor(target)
    if prediction.shape != target.shape:
        raise ShapeError(
            f"prediction shape {prediction.shape} != target shape {target.shape}"
        )
    diff = prediction - target
    return (diff * diff).mean()


class _FusedMSE(Function):
    __slots__ = ()
    name = "fused_mse"

    def forward(self, prediction, target):
        diff = prediction + (target * -1.0)
        inv_n = 1.0 / diff.size
        return (diff * diff).sum() * inv_n, (diff, inv_n)

    def backward(self, grad, saved, parents):
        diff, inv_n = saved
        g = (grad * inv_n) * diff
        return (g + g, None)


_FUSED_MSE = _FusedMSE()


def fused_mse_loss(prediction: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """:func:`mse_loss` collapsed into one graph node.

    The composed expression ``((p - t) * (p - t)).mean()`` builds five
    tensor nodes and materializes each intermediate; this kernel runs the
    same numpy operations in the same order (so the value is bit-identical)
    and hand-writes the single gradient the composition produces:
    ``g = (upstream / N) * diff`` accumulated as ``g + g``, exactly the
    double accumulation of the shared ``diff`` operand.
    """
    target = target if isinstance(target, Tensor) else Tensor(target)
    if prediction.shape != target.shape:
        raise ShapeError(
            f"prediction shape {prediction.shape} != target shape {target.shape}"
        )
    if target.requires_grad:  # pragma: no cover - not used on the hot path
        return mse_loss(prediction, target)
    return apply(_FUSED_MSE, prediction, target)


class _HingedVariance(Function):
    __slots__ = ("threshold", "weight")
    name = "fused_var_penalty"

    def __init__(self, threshold: float, weight: float) -> None:
        self.threshold, self.weight = threshold, weight

    def forward(self, x):
        m, d = x.shape
        inv_m = 1.0 / m
        inv_d = 1.0 / d
        mu = x.sum(axis=0, keepdims=True) * inv_m
        diff = x + (mu * -1.0)
        var = (diff * diff).sum(axis=0) * inv_m
        excess = var + (float(self.threshold) * -1.0)
        mask = excess > 0
        out = np.where(mask, excess, 0.0).sum() * inv_d * self.weight
        return out, (mask, diff)

    def backward(self, grad, saved, parents):
        mask, diff = saved
        m, d = diff.shape
        inv_m = 1.0 / m
        inv_d = 1.0 / d
        g_col = np.broadcast_to((grad * self.weight) * inv_d, mask.shape).copy() * mask
        g_rows = np.broadcast_to(np.expand_dims(g_col * inv_m, 0), (m, d)).copy()
        g_center = g_rows * diff
        g_center = g_center + g_center
        g_mean = (g_center.sum(axis=(0,), keepdims=True) * -1.0) * inv_m
        # Two accumulations into x, in the composition's order.
        return ((g_center, np.broadcast_to(g_mean, (m, d)).copy()),)


def hinged_variance_penalty(x: Tensor, threshold: float, weight: float) -> Tensor:
    """``((x.var(axis=0) - threshold).relu()).mean() * weight`` in one node.

    GRNA's variance regularizer Ω (§V-A). The composed graph spans ~12
    nodes per training step; this kernel replays the identical numpy
    operation sequence forward, and the backward reproduces the
    composition's two gradient accumulations into ``x`` — the centered
    ``(x - mean)`` term followed by the mean-path broadcast — in the same
    order with the same intermediate values, so generator training is
    bit-for-bit unchanged.
    """
    if x.ndim != 2:
        raise ShapeError(f"hinged_variance_penalty requires a 2-D tensor, got {x.shape}")
    return apply(_HingedVariance(threshold, weight), x)


class _LayerNorm(Function):
    __slots__ = ("eps",)
    name = "layer_norm"

    def __init__(self, eps: float) -> None:
        self.eps = eps

    def forward(self, x, gamma, beta):
        # The composition's two means of x are the same reduction of the
        # same data, so x - mean(x) is computed once for both uses.
        scale = 1.0 / x.shape[-1]
        centered = x + ((x.sum(axis=-1, keepdims=True) * scale) * -1.0)
        var = (centered * centered).sum(axis=-1, keepdims=True) * scale
        shifted = var + self.eps
        std = shifted ** 0.5
        inv = std ** -1.0
        normalized = centered * inv
        return normalized * gamma + beta, (centered, shifted, std, inv, normalized, scale)

    def backward(self, grad, saved, parents):
        x, gamma, beta = parents
        centered, shifted, std, inv, normalized, scale = saved
        g_norm = grad * gamma.data
        g_centered = g_norm * inv
        g_inv = unbroadcast(g_norm * centered, inv.shape)
        g_std = g_inv * -1.0 * std ** (-1.0 - 1.0)
        g_var = g_std * 0.5 * shifted ** (0.5 - 1.0)
        g_sq = (g_var * scale) * centered
        g_diff = g_sq + g_sq
        parts = (
            g_centered,
            np.broadcast_to((unbroadcast(g_centered, inv.shape) * -1.0) * scale, x.data.shape),
            g_diff,
            np.broadcast_to((unbroadcast(g_diff, inv.shape) * -1.0) * scale, x.data.shape),
        )
        return (
            parts if x.requires_grad else None,
            grad * normalized if gamma.requires_grad else None,
            grad if beta.requires_grad else None,
        )


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """``(x - mean) / sqrt(var + eps) * gamma + beta`` over the last axis, one node.

    The composed expression (``x.mean``, ``x.var``, subtraction, ``sqrt``,
    division, affine) builds 17 graph nodes per call; this kernel runs the
    same numpy operations forward and hand-writes the gradients the
    composition produces, in its order: four accumulations into ``x`` —
    the centered term, the mean path, the variance's centered term, the
    variance's mean path — and one each into ``gamma`` and ``beta``. The
    values are bit-identical to the composition wherever ``x`` feeds only
    this normalization (as in the GRNA generator), since then no other
    gradient interleaves with those four.
    """
    return apply(_LayerNorm(float(eps)), x, gamma, beta)


def binary_cross_entropy(prediction: Tensor, target: Tensor | np.ndarray, eps: float = 1e-12) -> Tensor:
    """Mean binary cross-entropy between probabilities and 0/1 targets."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    if prediction.shape != target.shape:
        raise ShapeError(
            f"prediction shape {prediction.shape} != target shape {target.shape}"
        )
    p = prediction.clip(eps, 1.0 - eps)
    loss = -(target * p.log() + (1.0 - target) * (1.0 - p).log())
    return loss.mean()


def cross_entropy(logits: Tensor, labels: np.ndarray | Tensor) -> Tensor:
    """Mean cross-entropy of raw ``logits`` against integer ``labels``.

    ``labels`` may be a tensor holding the class indices (a graph input
    of a recorded training step); it receives no gradient.
    """
    label_tensor = labels if isinstance(labels, Tensor) else None
    labels = np.asarray(labels.data if label_tensor is not None else labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got shape {logits.shape}")
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"labels shape {labels.shape} incompatible with logits {logits.shape}"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]):
        raise ValidationError("labels out of range for the given logits")
    logp = log_softmax(logits, axis=1)
    picked = logp.pick(label_tensor if label_tensor is not None else Tensor(labels))
    return -picked.mean()


def soft_cross_entropy(logits: Tensor, target_probs: Tensor | np.ndarray) -> Tensor:
    """Cross-entropy against a *soft* target distribution.

    Used when distilling the random forest into a neural surrogate: the
    targets are the RF's vote-fraction confidence vectors rather than hard
    labels.
    """
    target = target_probs if isinstance(target_probs, Tensor) else Tensor(target_probs)
    if logits.shape != target.shape:
        raise ShapeError(
            f"logits shape {logits.shape} != target shape {target.shape}"
        )
    logp = log_softmax(logits, axis=1)
    return -(target * logp).sum(axis=1).mean()


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: zero each element w.p. ``p`` and rescale by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ValidationError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    return x.dropout(p, rng)


__all__ = [
    "relu",
    "sigmoid",
    "tanh",
    "leaky_relu",
    "softmax",
    "log_softmax",
    "layer_norm",
    "mse_loss",
    "binary_cross_entropy",
    "cross_entropy",
    "soft_cross_entropy",
    "dropout",
    "concat",
]
