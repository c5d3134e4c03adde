"""Additive-noise defense on confidence scores.

Not evaluated in the paper's figures but discussed as the natural
alternative to rounding; included so the defense benches can compare the
two perturbation families under identical attacks. Noised scores are
clipped to [0, 1] and renormalized so they remain a valid confidence
vector (an output the active party would accept).
"""

from __future__ import annotations

import numpy as np

from repro.defenses.base import ModelWrapper
from repro.exceptions import ValidationError
from repro.models.base import BaseClassifier
from repro.utils.random import check_random_state
from repro.utils.validation import check_in_range


def noise_confidence_scores(
    v: np.ndarray,
    scale: float,
    *,
    kind: str = "laplace",
    rng: np.random.Generator | int = 0,
) -> np.ndarray:
    """Perturb confidence scores with Laplace or Gaussian noise.

    Parameters
    ----------
    scale:
        Noise scale (Laplace ``b`` or Gaussian ``σ``).
    kind:
        ``"laplace"`` or ``"gaussian"``.
    """
    check_in_range(scale, name="scale", low=0.0)
    if kind not in ("laplace", "gaussian"):
        raise ValidationError(f"kind must be 'laplace' or 'gaussian', got {kind!r}")
    v = np.asarray(v, dtype=np.float64)
    if scale == 0.0:
        return v.copy()
    rng = check_random_state(rng)
    if kind == "laplace":
        noisy = v + rng.laplace(0.0, scale, size=v.shape)
    else:
        noisy = v + rng.normal(0.0, scale, size=v.shape)
    noisy = np.clip(noisy, 0.0, 1.0)
    totals = noisy.sum(axis=-1, keepdims=True)
    # Rows wiped out by clipping fall back to uniform scores.
    uniform = np.full_like(noisy, 1.0 / noisy.shape[-1])
    return np.where(totals > 0, noisy / np.where(totals > 0, totals, 1.0), uniform)


class NoisyModel(ModelWrapper):
    """Wrap a fitted model so its confidence outputs are noised.

    The ``"noise"`` entry of :mod:`repro.api`'s defense registry builds
    one; ``DefenseStack(["noise"])`` also chains it with other output
    defenses.
    """

    def __init__(
        self,
        model: BaseClassifier,
        scale: float,
        *,
        kind: str = "laplace",
        rng: np.random.Generator | int = 0,
    ) -> None:
        super().__init__(model)
        self.scale = check_in_range(scale, name="scale", low=0.0)
        if kind not in ("laplace", "gaussian"):
            raise ValidationError(f"kind must be 'laplace' or 'gaussian', got {kind!r}")
        self.kind = kind
        self.rng = check_random_state(rng)

    def _proba(self, X: np.ndarray) -> np.ndarray:
        return noise_confidence_scores(
            self.model._proba(X), self.scale, kind=self.kind, rng=self.rng
        )
