"""Dataset registry of the scenario API.

A thin, uniformly-keyed front over :mod:`repro.datasets`: every Table II
dataset is registered by name and resolves to its
:class:`~repro.datasets.registry.DatasetSpec`; :func:`load` materializes
it. Registered here (rather than just re-exported) so the facade can
validate dataset keys exactly like attack/defense/model keys — with an
error that lists the valid choices.
"""

from __future__ import annotations

import numpy as np

from repro.utils.registry import Registry
from repro.datasets import Dataset, DatasetSpec, list_datasets
from repro.datasets import get_spec as _get_spec
from repro.datasets import load_dataset as _load_dataset

#: Table II datasets, keyed by name (``"bank"``, ``"credit"``, ...).
DATASETS = Registry("dataset")

for _name in list_datasets():
    DATASETS.register(_name, _get_spec(_name))
del _name


def get_dataset_spec(name: str) -> DatasetSpec:
    """Static spec of a registered dataset (helpful error on unknown keys)."""
    return DATASETS.get(name)


def load(
    name: str,
    *,
    n_samples: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> Dataset:
    """Materialize a registered dataset (see :func:`repro.datasets.load_dataset`)."""
    DATASETS.get(name)
    return _load_dataset(name, n_samples=n_samples, rng=rng)
