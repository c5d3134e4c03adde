"""Ablation benches for this reproduction's own design choices.

DESIGN.md §6 lists the choices that deviate from or refine the paper's
description; each gets a measured comparison here so the trade-offs are
recorded next to the headline results:

- Adam (our default) vs mini-batch SGD (Algorithm 2's literal optimizer)
  for the GRNA generator;
- sigmoid output head (uses the threat model's known value ranges) vs the
  paper's weakest reading (linear output + variance penalty only);
- RF-surrogate capacity (paper's 2000/200 vs a slim 128/64).
"""

import pytest

from repro.attacks import GenerativeRegressionNetwork, attack_random_forest
from repro.datasets import load_dataset
from repro.federated import FeaturePartition
from repro.metrics import mse_per_feature
from repro.models import LogisticRegression, RandomForestClassifier, RandomForestDistiller


@pytest.fixture(scope="module")
def scenario():
    ds = load_dataset("bank", n_samples=1200)
    partition = FeaturePartition.adversary_target(ds.n_features, 0.4, rng=7)
    view = partition.adversary_view()
    model = LogisticRegression(epochs=40, rng=1).fit(ds.X, ds.y)
    X_adv, X_target = view.split(ds.X[:500])
    V = model.predict_proba(ds.X[:500])
    return dict(ds=ds, view=view, model=model, X_adv=X_adv, X_target=X_target, V=V)


def _grna_mse(scenario, **kwargs):
    defaults = dict(hidden_sizes=(128, 64), epochs=30, rng=3)
    defaults.update(kwargs)
    attack = GenerativeRegressionNetwork(
        scenario["model"], scenario["view"], **defaults
    )
    result = attack.run(scenario["X_adv"], scenario["V"])
    return mse_per_feature(result.x_target_hat, scenario["X_target"])


def test_ablation_optimizer_adam_vs_sgd(benchmark, scenario):
    """Adam (default) vs the paper's literal mini-batch SGD."""

    def run():
        adam = _grna_mse(scenario, optimizer="adam")
        sgd = _grna_mse(scenario, optimizer="sgd", lr=0.05)
        return adam, sgd

    adam, sgd = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nGRNA optimizer ablation: adam={adam:.4f}  sgd={sgd:.4f}")
    # Both must attack successfully; Adam should not be worse than SGD at
    # an equal epoch budget (that asymmetry is why it is the default).
    assert adam < 0.15 and sgd < 0.25


def test_ablation_output_head(benchmark, scenario):
    """Sigmoid head (range knowledge) vs linear head + variance penalty."""

    def run():
        sigmoid = _grna_mse(scenario, output_activation="sigmoid")
        linear = _grna_mse(scenario, output_activation="linear", clip_to_unit=True)
        return sigmoid, linear

    sigmoid, linear = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nGRNA output-head ablation: sigmoid={sigmoid:.4f}  linear={linear:.4f}")
    assert sigmoid <= linear + 0.02  # range knowledge never hurts


def test_ablation_distiller_capacity(benchmark, scenario):
    """Paper-shaped wide surrogate vs a slim one: fidelity and attack MSE."""
    ds, view = scenario["ds"], scenario["view"]
    forest = RandomForestClassifier(n_trees=20, max_depth=3, rng=1).fit(ds.X, ds.y)
    X_adv, X_target = view.split(ds.X[:400])
    V = forest.predict_proba(ds.X[:400])

    def run():
        out = {}
        for label, hidden in (("wide", (512, 128)), ("slim", (128, 64))):
            distiller = RandomForestDistiller(
                hidden_sizes=hidden, n_dummy=3000, epochs=8, rng=2
            )
            result, surrogate = attack_random_forest(
                forest, view, X_adv, V,
                distiller=distiller,
                grna_kwargs=dict(hidden_sizes=(128, 64), epochs=30, rng=3),
                rng=4,
            )
            out[label] = (
                surrogate.fidelity(ds.X[:400]),
                mse_per_feature(result.x_target_hat, X_target),
            )
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nRF-surrogate capacity ablation: {out}")
    # The wide surrogate must imitate the forest at least as faithfully.
    assert out["wide"][0] >= out["slim"][0] - 0.05
