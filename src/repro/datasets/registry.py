"""Named dataset registry matching Table II of the paper.

The four "real-world" entries are **schema-matched synthetic stand-ins**
(see DESIGN.md): the offline environment cannot fetch the UCI datasets, so
each generator reproduces the original's sample count, feature count,
class count, and a latent-factor correlation structure. The two synthetic
entries correspond to the paper's own sklearn-generated datasets.

All loaders return features min-max normalized into [0, 1] (§VI-A) and are
deterministic for a given ``rng`` (default: a fixed per-dataset seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.scaling import MinMaxScaler
from repro.datasets.synthetic import make_classification, make_correlated_tabular
from repro.exceptions import DatasetError
from repro.utils.random import check_random_state


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of a registered dataset (one Table II row)."""

    name: str
    n_samples: int
    n_features: int
    n_classes: int
    kind: str  # "real-substitute" or "synthetic"
    description: str
    default_seed: int


@dataclass
class Dataset:
    """A materialized dataset: normalized features, labels, and its spec."""

    spec: DatasetSpec
    X: np.ndarray
    y: np.ndarray

    @property
    def n_samples(self) -> int:
        """Number of rows actually materialized (may be below spec size)."""
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        """Number of feature columns."""
        return self.X.shape[1]

    @property
    def n_classes(self) -> int:
        """Number of classes in the spec."""
        return self.spec.n_classes


SPECS: dict[str, DatasetSpec] = {
    "bank": DatasetSpec(
        name="bank",
        n_samples=45211,
        n_features=20,
        n_classes=2,
        kind="real-substitute",
        description="Bank marketing (Moro et al. 2014) schema-matched stand-in",
        default_seed=20211,
    ),
    "credit": DatasetSpec(
        name="credit",
        n_samples=30000,
        n_features=23,
        n_classes=2,
        kind="real-substitute",
        description="Credit card default (Yeh & Lien 2009) schema-matched stand-in",
        default_seed=20212,
    ),
    "drive": DatasetSpec(
        name="drive",
        n_samples=58509,
        n_features=48,
        n_classes=11,
        kind="real-substitute",
        description="Sensorless drive diagnosis (UCI) schema-matched stand-in",
        default_seed=20213,
    ),
    "news": DatasetSpec(
        name="news",
        n_samples=39797,
        n_features=59,
        n_classes=5,
        kind="real-substitute",
        description="Online news popularity (Fernandes et al. 2015) stand-in",
        default_seed=20214,
    ),
    "synthetic1": DatasetSpec(
        name="synthetic1",
        n_samples=100000,
        n_features=25,
        n_classes=10,
        kind="synthetic",
        description="Paper's synthetic dataset 1 (sklearn make_classification style)",
        default_seed=20215,
    ),
    "synthetic2": DatasetSpec(
        name="synthetic2",
        n_samples=100000,
        n_features=50,
        n_classes=5,
        kind="synthetic",
        description="Paper's synthetic dataset 2 (sklearn make_classification style)",
        default_seed=20216,
    ),
}

# Correlation strength per stand-in, loosely reflecting how correlated the
# original datasets' features are (financial/marketing data is strongly
# factor-structured; the news dataset has many weakly-related NLP columns).
_FACTOR_STRENGTH = {"bank": 0.9, "credit": 0.85, "drive": 0.8, "news": 0.6}

# Marginal skew per stand-in, calibrated to the paper's per-dataset ESA
# error bounds (1/d)Σ 2x² of 0.60 / 0.14 / 0.45 / 0.34 (§VI-B): the
# rank-transformed marginal U(0,1)^γ has E[x²] = 1/(2γ+1), so γ is chosen
# to hit bound/2.
_MARGINAL_GAMMA = {"bank": 1.17, "credit": 6.64, "drive": 1.72, "news": 2.44}


def list_datasets() -> list[str]:
    """Names of all registered datasets, in Table II order."""
    return list(SPECS)


def get_spec(name: str) -> DatasetSpec:
    """Look up a dataset spec by name."""
    try:
        return SPECS[name]
    except KeyError:
        raise DatasetError(
            f"unknown dataset {name!r}; choose from {list(SPECS)}"
        ) from None


def load_dataset(
    name: str,
    *,
    n_samples: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> Dataset:
    """Materialize a registered dataset, min-max normalized into [0, 1].

    Parameters
    ----------
    name:
        One of :func:`list_datasets`.
    n_samples:
        Override the spec's sample count (downscaling is how the benches
        stay laptop-fast; trends are size-stable).
    rng:
        Seed or generator; defaults to the spec's fixed seed so the named
        datasets are stable across runs, like real files on disk would be.
    """
    spec = get_spec(name)
    if n_samples is None:
        n_samples = spec.n_samples
    if n_samples <= 0:
        raise DatasetError(f"n_samples must be positive, got {n_samples}")
    generator = check_random_state(spec.default_seed if rng is None else rng)

    if spec.kind == "real-substitute":
        X, y = make_correlated_tabular(
            n_samples,
            spec.n_features,
            n_classes=spec.n_classes,
            factor_strength=_FACTOR_STRENGTH[spec.name],
            marginal_gamma=_MARGINAL_GAMMA[spec.name],
            rng=generator,
        )
    else:
        X, y = make_classification(
            n_samples,
            spec.n_features,
            n_classes=spec.n_classes,
            class_sep=1.5,
            rng=generator,
        )
    X = MinMaxScaler().fit_transform(X)
    # Guarantee every class is present (tiny subsamples of many-class
    # datasets can miss one); re-label any absent tail classes.
    present = np.unique(y)
    if present.size < spec.n_classes and n_samples >= spec.n_classes:
        missing = np.setdiff1d(np.arange(spec.n_classes), present)
        donors = generator.choice(n_samples, size=missing.size, replace=False)
        y = y.copy()
        y[donors] = missing
    return Dataset(spec=spec, X=X, y=y)


def table2_rows() -> list[tuple[str, int, int, int]]:
    """Rows of the paper's Table II: (dataset, samples, classes, features)."""
    return [
        (spec.name, spec.n_samples, spec.n_classes, spec.n_features)
        for spec in SPECS.values()
    ]
