"""Argument validation helpers used across the library.

Each helper raises :class:`repro.exceptions.ValidationError` (a subclass of
``ValueError``) with a message naming the offending argument, so call sites
stay one-liners.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.exceptions import ShapeError, ValidationError


def check_array(
    x,
    *,
    name: str = "array",
    dtype=np.float64,
    ndim: int | None = None,
    allow_empty: bool = False,
) -> np.ndarray:
    """Coerce ``x`` to a numpy array and validate its basic properties."""
    arr = np.asarray(x, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not allow_empty and arr.size == 0:
        raise ValidationError(f"{name} must not be empty")
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains NaN or infinite values")
    return arr


def check_matrix(x, *, name: str = "X", dtype=np.float64) -> np.ndarray:
    """Validate a 2-D array ``(n_samples, n_features)``."""
    return check_array(x, name=name, dtype=dtype, ndim=2)


def check_vector(x, *, name: str = "x", dtype=np.float64) -> np.ndarray:
    """Validate a 1-D array."""
    return check_array(x, name=name, dtype=dtype, ndim=1)


def check_X_y(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Validate a feature matrix and label vector with matching lengths."""
    X = check_matrix(X)
    y = check_array(y, name="y", dtype=np.int64, ndim=1)
    if X.shape[0] != y.shape[0]:
        raise ShapeError(
            f"X and y have inconsistent lengths: {X.shape[0]} vs {y.shape[0]}"
        )
    if np.any(y < 0):
        raise ValidationError("y must contain non-negative class indices")
    return X, y


def is_int(value) -> bool:
    """True for a plain Python int; ``bool`` is not one here."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_positive_int(value, *, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it as int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    value = int(value)
    if value <= 0:
        raise ValidationError(f"{name} must be positive, got {value}")
    return value


def check_in_range(
    value,
    *,
    name: str,
    low: float | None = None,
    high: float | None = None,
    inclusive: bool = True,
) -> float:
    """Validate that a real ``value`` lies in ``[low, high]`` (or open)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    if inclusive:
        if low is not None and value < low:
            raise ValidationError(f"{name} must be >= {low}, got {value}")
        if high is not None and value > high:
            raise ValidationError(f"{name} must be <= {high}, got {value}")
    else:
        if low is not None and value <= low:
            raise ValidationError(f"{name} must be > {low}, got {value}")
        if high is not None and value >= high:
            raise ValidationError(f"{name} must be < {high}, got {value}")
    return value


def check_probability_vector(v, *, name: str = "v", atol: float = 1e-6) -> np.ndarray:
    """Validate a vector of confidence scores: non-negative, sums to one."""
    v = check_vector(v, name=name)
    if np.any(v < -atol):
        raise ValidationError(f"{name} must be non-negative")
    total = float(v.sum())
    if abs(total - 1.0) > max(atol, 1e-6 * len(v)):
        raise ValidationError(f"{name} must sum to 1, sums to {total}")
    return np.clip(v, 0.0, None)
