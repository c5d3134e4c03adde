"""Synthetic classification-data generators.

Two generators:

- :func:`make_classification` mirrors scikit-learn's generator of the same
  name (cluster-per-class on hypercube vertices plus redundant/noise
  columns). The paper builds its two synthetic datasets "with the sklearn
  library" (§VI-A); this is the offline stand-in.
- :func:`make_correlated_tabular` draws features from a latent-factor model
  so that cross-party feature *correlations* — the signal GRNA exploits —
  are present and tunable. The schema-matched stand-ins for the four UCI
  datasets are built on it.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DatasetError
from repro.utils.numeric import softmax
from repro.utils.random import check_random_state
from repro.utils.validation import check_in_range, check_positive_int


def make_classification(
    n_samples: int,
    n_features: int,
    *,
    n_classes: int = 2,
    n_informative: int | None = None,
    n_redundant: int | None = None,
    class_sep: float = 1.0,
    noise: float = 1.0,
    rng: np.random.Generator | int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian clusters on hypercube vertices, plus redundant/noise columns.

    Parameters
    ----------
    n_samples, n_features, n_classes:
        Dataset shape.
    n_informative:
        Number of informative dimensions; default ``ceil(log2(n_classes))``
        rounded up to at least ``n_classes.bit_length()`` and capped at
        ``n_features``.
    n_redundant:
        Columns that are random linear combinations of the informative
        block; default 20% of the features.
    class_sep:
        Distance scale between class centroids.
    noise:
        Standard deviation of the within-cluster Gaussian noise.

    Returns
    -------
    (X, y):
        ``X`` of shape ``(n_samples, n_features)`` (unnormalized), ``y``
        integer labels in ``[0, n_classes)``.
    """
    n_samples = check_positive_int(n_samples, name="n_samples")
    n_features = check_positive_int(n_features, name="n_features")
    n_classes = check_positive_int(n_classes, name="n_classes")
    if n_classes < 2:
        raise DatasetError("n_classes must be at least 2")
    check_in_range(class_sep, name="class_sep", low=0.0, inclusive=False)
    check_in_range(noise, name="noise", low=0.0, inclusive=False)
    rng = check_random_state(rng)

    if n_informative is None:
        n_informative = max(2, int(np.ceil(np.log2(n_classes))) + 1)
    n_informative = min(check_positive_int(n_informative, name="n_informative"), n_features)
    if n_redundant is None:
        n_redundant = min(n_features - n_informative, max(0, n_features // 5))
    if n_redundant < 0 or n_informative + n_redundant > n_features:
        raise DatasetError(
            f"n_informative + n_redundant = {n_informative + n_redundant} exceeds "
            f"n_features = {n_features}"
        )
    n_noise = n_features - n_informative - n_redundant

    # Class centroids at random hypercube-ish vertices scaled by class_sep.
    centroids = class_sep * (2.0 * rng.random((n_classes, n_informative)) - 1.0)
    centroids *= 2.0  # spread, as sklearn uses 2*class_sep boxes
    y = rng.integers(0, n_classes, size=n_samples)
    informative = centroids[y] + noise * rng.normal(size=(n_samples, n_informative))

    columns = [informative]
    if n_redundant:
        mixing = rng.normal(size=(n_informative, n_redundant))
        redundant = informative @ mixing
        redundant += 0.05 * noise * rng.normal(size=redundant.shape)
        columns.append(redundant)
    if n_noise:
        columns.append(rng.normal(size=(n_samples, n_noise)))
    X = np.hstack(columns)

    # Shuffle columns so informative features are not positionally biased —
    # the experiments select target features by random column subsets.
    X = X[:, rng.permutation(n_features)]
    return X, y.astype(np.int64)


def make_correlated_tabular(
    n_samples: int,
    n_features: int,
    *,
    n_classes: int = 2,
    n_factors: int | None = None,
    factor_strength: float = 0.85,
    label_strength: float = 2.5,
    marginal_gamma: float | None = None,
    rng: np.random.Generator | int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Latent-factor tabular data with strong cross-feature correlations.

    Every feature loads on a small number of shared latent factors, so any
    two column subsets (the adversary's and the target's) are correlated —
    the property GRNA's success depends on and that real tabular data such
    as the UCI bank-marketing dataset exhibits.

    Parameters
    ----------
    n_factors:
        Number of latent factors; default ``max(2, n_features // 6)``.
    factor_strength:
        Fraction of each feature's variance explained by the shared
        factors; the remainder is idiosyncratic noise. Higher values mean
        stronger cross-party correlation.
    label_strength:
        Scale of the logits mapping latent factors to class probabilities.
    marginal_gamma:
        If set, rank-transform every column to the skewed marginal
        ``U(0,1)^γ``. Real min-max-normalized tabular data is right-skewed
        (outliers define the max), which is what the paper's per-dataset
        ESA error bounds ``(1/d)Σ 2x²`` measure; γ calibrates
        ``E[x²] = 1/(2γ+1)`` to match a target bound while preserving the
        factor model's rank correlations. ``None`` keeps the Gaussian
        marginals.
    """
    n_samples = check_positive_int(n_samples, name="n_samples")
    n_features = check_positive_int(n_features, name="n_features")
    n_classes = check_positive_int(n_classes, name="n_classes")
    if n_classes < 2:
        raise DatasetError("n_classes must be at least 2")
    check_in_range(factor_strength, name="factor_strength", low=0.0, high=1.0, inclusive=False)
    check_in_range(label_strength, name="label_strength", low=0.0, inclusive=False)
    rng = check_random_state(rng)
    if n_factors is None:
        n_factors = max(2, n_features // 6)
    n_factors = check_positive_int(n_factors, name="n_factors")

    Z = rng.normal(size=(n_samples, n_factors))

    # Loadings: each feature mixes a few factors with random signs.
    loadings = rng.normal(size=(n_factors, n_features))
    loadings /= np.linalg.norm(loadings, axis=0, keepdims=True)
    shared = Z @ loadings
    idiosyncratic = rng.normal(size=(n_samples, n_features))
    X = np.sqrt(factor_strength) * shared + np.sqrt(1.0 - factor_strength) * idiosyncratic
    if marginal_gamma is not None:
        check_in_range(marginal_gamma, name="marginal_gamma", low=0.0, inclusive=False)
        X = _rank_transform_marginals(X, marginal_gamma)

    # Labels depend on the same factors, so v correlates with the features.
    label_weights = rng.normal(size=(n_factors, n_classes)) * label_strength
    logits = Z @ label_weights
    probs = softmax(logits, axis=1)
    # Vectorized categorical sampling via inverse-CDF.
    cumulative = probs.cumsum(axis=1)
    u = rng.random(n_samples)
    y = (u[:, None] > cumulative).sum(axis=1).astype(np.int64)
    y = np.clip(y, 0, n_classes - 1)
    return X, y


def _rank_transform_marginals(X: np.ndarray, gamma: float) -> np.ndarray:
    """Map every column to the ``U(0,1)^γ`` marginal by rank.

    Monotone per column, so Spearman correlations (and hence the learnable
    cross-party structure) are preserved exactly.
    """
    n = X.shape[0]
    order = np.argsort(X, axis=0)
    # The value of rank r is the same in every column, so it is computed
    # once (n powers, not n * d) and scattered through each column's
    # sort order, which puts it at the row holding rank r.
    marginal = ((np.arange(n) + 1.0) / (n + 1.0)) ** gamma
    out = np.empty(X.shape)
    np.put_along_axis(out, order, marginal[:, None], axis=0)
    return out
