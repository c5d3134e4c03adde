"""Numerically-stable scalar/array kernels shared by models and attacks."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError

#: Smallest probability used when taking logs of confidence scores.
EPS = 1e-12


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid ``1 / (1 + exp(-x))``.

    Branch-free: ``e = exp(-|x|)`` never overflows, and the numerator
    ``where`` picks, ``1`` or ``e``, is the stable form for the sign of
    ``x``; one divide serves both.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    """Stable ``log(sigmoid(x))`` computed as ``-log1p(exp(-x))`` piecewise."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = -np.log1p(np.exp(-x[pos]))
    out[~pos] = x[~pos] - np.log1p(np.exp(x[~pos]))
    return out


def logit(p: np.ndarray) -> np.ndarray:
    """Inverse sigmoid; clips ``p`` away from {0, 1} for stability."""
    p = np.clip(np.asarray(p, dtype=np.float64), EPS, 1.0 - EPS)
    return np.log(p) - np.log1p(-p)


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``."""
    z = np.asarray(z, dtype=np.float64)
    z = z - z.max(axis=axis, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=axis, keepdims=True)


def logsumexp(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable ``log(sum(exp(z)))`` along ``axis``."""
    z = np.asarray(z, dtype=np.float64)
    m = z.max(axis=axis, keepdims=True)
    out = np.log(np.exp(z - m).sum(axis=axis)) + np.squeeze(m, axis=axis)
    return out


def stable_log(p: np.ndarray) -> np.ndarray:
    """``log(p)`` with probabilities clipped away from zero."""
    return np.log(np.clip(np.asarray(p, dtype=np.float64), EPS, None))


def one_hot(y: np.ndarray, n_classes: int) -> np.ndarray:
    """Encode integer labels into a ``(n, n_classes)`` one-hot matrix."""
    y = np.asarray(y, dtype=np.int64)
    if y.ndim != 1:
        raise ValidationError(f"y must be 1-D, got shape {y.shape}")
    if n_classes <= 0:
        raise ValidationError(f"n_classes must be positive, got {n_classes}")
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ValidationError(
            f"labels must be in [0, {n_classes}), got range [{y.min()}, {y.max()}]"
        )
    out = np.zeros((y.shape[0], n_classes), dtype=np.float64)
    out[np.arange(y.shape[0]), y] = 1.0
    return out


def pearson_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation coefficient between two 1-D arrays.

    Returns 0.0 when either input is constant (the coefficient is undefined
    there; zero is the convention used by the paper's correlation
    diagnostics, where a constant feature carries no usable signal).
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ValidationError("need at least 2 observations")
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt((a * a).sum() * (b * b).sum())
    if denom == 0.0:
        return 0.0
    return float(np.clip((a * b).sum() / denom, -1.0, 1.0))
