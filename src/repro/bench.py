"""Model-kernel benchmark harness behind the ``repro-bench`` CLI.

Times the vectorized hot-path kernels introduced by the perf PR against
their retained seed references — the per-sample tree walk
(:meth:`~repro.models.tree.DecisionTreeClassifier._predict_slow`), the
per-node sort and split scan (``_best_split_slow``), the per-tree vote loop
(``_predict_proba_slow``), the per-node PRA BFS (``_restrict_slow``), the
per-path CBR loop (``path_cbr``), and
GRNA's composed-graph loss (``_prediction_loss_reference``) replayed
from a recorded tape against the dynamic one — plus the
end-to-end :class:`~repro.serving.PredictionService` throughput with seed
vs vectorized kernels. Every reference is bit-identical to its fast
kernel (regression-tested), so a bench run measures *speed only*.

Each run writes a ``BENCH_<label>.json`` summary: per-kernel wall time,
speedup over the in-run seed reference, and machine info. The checked-in
files form the repo's perf trajectory:

- ``BENCH_seed.json`` — the anchor: seed-kernel timings (``--seed-baseline``);
- ``BENCH_vectorized.json`` — the first post-optimization run (``make bench``);
- ``BENCH_smoke.json`` — smoke-scale reference used as the CI regression
  gate: ``repro-bench --smoke`` fails when any kernel's live speedup
  drops more than 1.5× below the recorded one.

Usage::

    PYTHONPATH=src python -m repro.bench                # full scale
    PYTHONPATH=src python -m repro.bench --smoke        # CI gate
    repro-bench --seed-baseline                         # regenerate anchor
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import dataclass

import numpy as np

#: Kernel workload sizes per bench scale; "default" is the largest scale
#: and the one headline speedups are quoted at.
BENCH_SCALES: dict[str, dict] = {
    "smoke": dict(
        fit_samples=400,
        fit_features=12,
        fit_depth=5,
        predict_samples=6000,
        rf_trees=20,
        rf_depth=3,
        rf_fit_samples=400,
        grna_samples=128,
        grna_hidden=(64,),
        grna_epochs=2,
        grna_batch=32,
        pra_samples=1000,
        pra_depth=5,
        service_queries=1000,
    ),
    "default": dict(
        fit_samples=4000,
        fit_features=24,
        fit_depth=8,
        predict_samples=20000,
        rf_trees=100,
        rf_depth=3,
        rf_fit_samples=1000,
        grna_samples=384,
        grna_hidden=(600, 200, 100),
        grna_epochs=3,
        grna_batch=64,
        pra_samples=4000,
        pra_depth=6,
        service_queries=1500,
    ),
}

#: Default regression-gate slack: live speedup may be at most this factor
#: below the checked-in reference speedup before the gate fails.
GATE_MARGIN = 1.5


@dataclass
class KernelResult:
    """One benched kernel: fast seconds, seed-reference seconds, metadata."""

    seconds: float
    baseline_seconds: "float | None"
    meta: dict

    @property
    def speedup(self) -> "float | None":
        if self.baseline_seconds is None or self.seconds <= 0:
            return None
        return self.baseline_seconds / self.seconds

    def to_json(self) -> dict:
        return {
            "seconds": self.seconds,
            "baseline_seconds": self.baseline_seconds,
            "speedup": self.speedup,
            "meta": self.meta,
        }


def timed(fn, repeats: int) -> float:
    """Best-of-N wall-clock seconds (robust to scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
def bench_dt_fit(sizes: dict, repeats: int) -> KernelResult:
    from repro.models.tree import DecisionTreeClassifier

    rng = np.random.default_rng(0)
    X = rng.random((sizes["fit_samples"], sizes["fit_features"]))
    y = rng.integers(0, 2, size=sizes["fit_samples"])

    def fit(fast: bool):
        tree = DecisionTreeClassifier(max_depth=sizes["fit_depth"], rng=0)
        tree._fast_split = fast
        tree.fit(X, y)

    return KernelResult(
        seconds=timed(lambda: fit(True), repeats),
        baseline_seconds=timed(lambda: fit(False), repeats),
        meta={k: sizes[k] for k in ("fit_samples", "fit_features", "fit_depth")},
    )


def bench_dt_predict(sizes: dict, repeats: int) -> KernelResult:
    from repro.models.tree import DecisionTreeClassifier

    rng = np.random.default_rng(0)
    X = rng.random((sizes["fit_samples"], sizes["fit_features"]))
    y = rng.integers(0, 2, size=sizes["fit_samples"])
    tree = DecisionTreeClassifier(max_depth=sizes["fit_depth"], rng=0).fit(X, y)
    Xq = rng.random((sizes["predict_samples"], sizes["fit_features"]))
    tree.predict(Xq)  # warm the flat-structure cache
    return KernelResult(
        seconds=timed(lambda: tree.predict(Xq), repeats),
        baseline_seconds=timed(lambda: tree._predict_slow(Xq), repeats),
        meta={"predict_samples": sizes["predict_samples"], "depth": sizes["fit_depth"]},
    )


def bench_rf_predict_proba(sizes: dict, repeats: int) -> KernelResult:
    from repro.models.forest import RandomForestClassifier

    rng = np.random.default_rng(0)
    X = rng.random((sizes["rf_fit_samples"], sizes["fit_features"]))
    y = rng.integers(0, 2, size=sizes["rf_fit_samples"])
    forest = RandomForestClassifier(
        n_trees=sizes["rf_trees"], max_depth=sizes["rf_depth"], rng=0
    ).fit(X, y)
    Xq = rng.random((sizes["predict_samples"], sizes["fit_features"]))
    forest.predict_proba(Xq)  # warm the decision-table cache
    return KernelResult(
        seconds=timed(lambda: forest.predict_proba(Xq), repeats),
        baseline_seconds=timed(lambda: forest._predict_proba_slow(Xq), repeats),
        meta={
            "predict_samples": sizes["predict_samples"],
            "n_trees": sizes["rf_trees"],
            "depth": sizes["rf_depth"],
        },
    )


def bench_pra_restrict(sizes: dict, repeats: int) -> KernelResult:
    from repro.attacks.pra import PathRestrictionAttack
    from repro.federated.partition import FeaturePartition
    from repro.models.tree import DecisionTreeClassifier

    rng = np.random.default_rng(0)
    d = sizes["fit_features"]
    X = rng.random((sizes["fit_samples"], d))
    y = rng.integers(0, 2, size=sizes["fit_samples"])
    tree = DecisionTreeClassifier(max_depth=sizes["pra_depth"], rng=0).fit(X, y)
    view = FeaturePartition.adversary_target(d, 0.4, rng=0).adversary_view()
    attack = PathRestrictionAttack(tree.tree_structure(), view)
    Xq = rng.random((sizes["pra_samples"], d))
    labels = tree.predict(Xq)
    X_adv = Xq[:, view.adversary_indices]

    def slow():
        for i in range(X_adv.shape[0]):
            attack._restrict_slow(X_adv[i], int(labels[i]))

    return KernelResult(
        seconds=timed(lambda: attack.restrict_batch(X_adv, labels), repeats),
        baseline_seconds=timed(slow, repeats),
        meta={"pra_samples": sizes["pra_samples"], "depth": sizes["pra_depth"]},
    )


def bench_path_cbr(sizes: dict, repeats: int) -> KernelResult:
    from repro.metrics import path_cbr, path_cbr_batch
    from repro.models.tree import DecisionTreeClassifier

    rng = np.random.default_rng(0)
    d = sizes["fit_features"]
    X = rng.random((sizes["fit_samples"], d))
    y = rng.integers(0, 2, size=sizes["fit_samples"])
    tree = DecisionTreeClassifier(max_depth=sizes["pra_depth"], rng=0).fit(X, y)
    structure = tree.tree_structure()
    Xq = rng.random((sizes["pra_samples"], d))
    leaves = rng.choice(structure.leaf_indices(), size=sizes["pra_samples"])
    paths = [structure.path_to(int(leaf)) for leaf in leaves]
    targets = np.arange(0, d, 2)

    def slow():
        for path, x in zip(paths, Xq):
            path_cbr(structure, path, x, targets)

    return KernelResult(
        seconds=timed(lambda: path_cbr_batch(structure, leaves, Xq, targets), repeats),
        baseline_seconds=timed(slow, repeats),
        meta={"pra_samples": sizes["pra_samples"], "depth": sizes["pra_depth"]},
    )


def _grna_setup(sizes: dict):
    from repro.attacks.grna import GenerativeRegressionNetwork
    from repro.datasets import load_dataset
    from repro.federated import FeaturePartition, train_vertical_model
    from repro.models.mlp import MLPClassifier

    n = 2 * sizes["grna_samples"]
    dataset = load_dataset("bank", n_samples=n, rng=0)
    half = n // 2
    partition = FeaturePartition.adversary_target(dataset.n_features, 0.4, rng=0)
    model = MLPClassifier(hidden_sizes=(32,), epochs=2, rng=0)
    vfl = train_vertical_model(
        model,
        dataset.X[:half],
        dataset.y[:half],
        dataset.X[half:],
        dataset.y[half:],
        partition,
    )
    view = partition.adversary_view()
    X_adv = vfl.adversary_features()[: sizes["grna_samples"]]
    V = vfl.predict(np.arange(sizes["grna_samples"]))

    def epoch_time(fast: bool) -> float:
        from repro.nn.optim import Adam
        from repro.nn.train import TrainStep

        attack = GenerativeRegressionNetwork(
            vfl.model,
            view,
            hidden_sizes=sizes["grna_hidden"],
            epochs=sizes["grna_epochs"],
            batch_size=sizes["grna_batch"],
            rng=7,
        )
        # The seed column runs the full retained reference: composed-graph
        # loss, the allocating optimizer step AND the dynamic tape.
        attack._fast_loss = fast
        previous_step, previous_static = Adam._fast_step, TrainStep.static
        Adam._fast_step = TrainStep.static = fast
        try:
            start = time.perf_counter()
            attack.fit(X_adv, V)
            return (time.perf_counter() - start) / sizes["grna_epochs"]
        finally:
            Adam._fast_step, TrainStep.static = previous_step, previous_static

    return epoch_time


def bench_grna_epoch(sizes: dict, repeats: int) -> KernelResult:
    epoch_time = _grna_setup(sizes)
    return KernelResult(
        seconds=min(epoch_time(True) for _ in range(repeats)),
        baseline_seconds=min(epoch_time(False) for _ in range(repeats)),
        meta={
            "grna_samples": sizes["grna_samples"],
            "hidden": list(sizes["grna_hidden"]),
            "batch_size": sizes["grna_batch"],
        },
    )


def bench_service_throughput(sizes: dict, repeats: int) -> KernelResult:
    """One-round RF-backed service query: vectorized vs seed tree kernels."""
    from repro.datasets import load_dataset
    from repro.federated import FeaturePartition, train_vertical_model
    from repro.models.forest import RandomForestClassifier
    from repro.serving import PredictionService

    n = 2 * sizes["service_queries"]
    dataset = load_dataset("bank", n_samples=n, rng=0)
    half = n // 2
    partition = FeaturePartition.adversary_target(dataset.n_features, 0.4, rng=0)
    model = RandomForestClassifier(
        n_trees=sizes["rf_trees"], max_depth=sizes["rf_depth"], rng=0
    )
    vfl = train_vertical_model(
        model,
        dataset.X[:half],
        dataset.y[:half],
        dataset.X[half:],
        dataset.y[half:],
        partition,
    )
    service = PredictionService(vfl)
    indices = np.arange(sizes["service_queries"])
    forest = vfl.model
    fast = timed(lambda: service.query(indices), repeats)
    # Shadow the bound method so the identical serving stack runs over the
    # retained seed kernel; restore afterwards.
    forest.predict_proba = forest._predict_proba_slow
    try:
        slow = timed(lambda: service.query(indices), repeats)
    finally:
        del forest.predict_proba
    return KernelResult(
        seconds=fast,
        baseline_seconds=slow,
        meta={
            "queries": sizes["service_queries"],
            "n_trees": sizes["rf_trees"],
            "queries_per_second": sizes["service_queries"] / fast if fast > 0 else None,
        },
    )


KERNELS = {
    "dt_fit": bench_dt_fit,
    "dt_predict": bench_dt_predict,
    "rf_predict_proba": bench_rf_predict_proba,
    "pra_restrict": bench_pra_restrict,
    "path_cbr": bench_path_cbr,
    "grna_epoch": bench_grna_epoch,
    "service_throughput": bench_service_throughput,
}


# ----------------------------------------------------------------------
# Summary, trajectory file, regression gate
# ----------------------------------------------------------------------
def machine_info() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
    }


def run_bench(
    scale: str,
    label: str,
    *,
    kernels: "list[str] | None" = None,
    repeats: int = 3,
    seed_baseline: bool = False,
) -> dict:
    """Execute the selected kernels and assemble the summary payload.

    With ``seed_baseline=True`` the recorded ``seconds`` are the seed
    references themselves (speedup 1.0) — the pre-optimization anchor the
    trajectory starts from.
    """
    sizes = BENCH_SCALES[scale]
    names = list(KERNELS) if kernels is None else kernels
    results: dict[str, dict] = {}
    for name in names:
        if name not in KERNELS:
            raise SystemExit(
                f"unknown kernel {name!r}; choose from {sorted(KERNELS)}"
            )
        result = KERNELS[name](sizes, repeats)
        if seed_baseline and result.baseline_seconds is not None:
            result = KernelResult(
                seconds=result.baseline_seconds,
                baseline_seconds=result.baseline_seconds,
                meta=result.meta,
            )
        results[name] = result.to_json()
        speedup = results[name]["speedup"]
        print(
            f"{name:<20} {results[name]['seconds']:>10.4f}s"
            + (f"  (seed {results[name]['baseline_seconds']:.4f}s, {speedup:.1f}x)"
               if speedup is not None else "")
        )
    return {
        "label": label,
        "scale": scale,
        "created": time.strftime("%Y-%m-%d %H:%M:%S"),
        "machine": machine_info(),
        "kernels": results,
    }


def regression_failures(
    live: dict, reference: dict, margin: float = GATE_MARGIN
) -> list[str]:
    """Kernels whose live speedup regressed >``margin``× vs the reference.

    Speedups (fast vs in-run seed reference) are compared rather than raw
    seconds so the gate is portable across machines.
    """
    failures = []
    for name, ref in reference.get("kernels", {}).items():
        ref_speedup = ref.get("speedup")
        if ref_speedup is None:
            continue
        live_kernel = live.get("kernels", {}).get(name)
        if live_kernel is None:
            # A kernel the baseline gates on but the live run skipped is a
            # hole in coverage, not a pass.
            failures.append(f"{name}: gated by the baseline but absent from the live run")
            continue
        live_speedup = live_kernel.get("speedup")
        if live_speedup is None or live_speedup < ref_speedup / margin:
            failures.append(
                f"{name}: live speedup {live_speedup if live_speedup is None else round(live_speedup, 2)}"
                f" < reference {round(ref_speedup, 2)} / {margin}"
            )
    return failures


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--scale", choices=sorted(BENCH_SCALES), default="default",
        help="workload sizes (default: the largest scale)",
    )
    parser.add_argument("--label", default=None, help="BENCH_<label>.json label")
    parser.add_argument(
        "--out", default=None, help="output path (default BENCH_<label>.json in cwd)"
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N repeats")
    parser.add_argument(
        "--kernels", nargs="+", default=None, help=f"subset of {sorted(KERNELS)}"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="smoke scale + regression gate against the checked-in baseline",
    )
    parser.add_argument(
        "--baseline", default="BENCH_smoke.json",
        help="reference summary the --smoke gate compares against",
    )
    parser.add_argument(
        "--seed-baseline", action="store_true",
        help="record the seed-kernel timings as the trajectory anchor",
    )
    args = parser.parse_args(argv)

    scale = "smoke" if args.smoke else args.scale
    if args.label:
        label = args.label
    elif args.seed_baseline:
        label = "seed"
    elif args.smoke:
        label = "smoke-live"  # never clobber the checked-in gate baseline
    else:
        label = "smoke" if scale == "smoke" else "vectorized"
    print(f"# repro-bench — scale={scale}, label={label}, repeats={args.repeats}")
    summary = run_bench(
        scale,
        label,
        kernels=args.kernels,
        repeats=args.repeats,
        seed_baseline=args.seed_baseline,
    )
    out = args.out or f"BENCH_{label}.json"
    if args.smoke and os.path.abspath(out) == os.path.abspath(args.baseline):
        print(
            "FAIL: --smoke output would overwrite its own gate baseline; "
            "pass a different --out/--label",
            file=sys.stderr,
        )
        return 1
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")

    if args.smoke:
        try:
            with open(args.baseline, encoding="utf-8") as fh:
                reference = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"FAIL: cannot read baseline {args.baseline}: {exc}", file=sys.stderr)
            return 1
        failures = regression_failures(summary, reference)
        if failures:
            for failure in failures:
                print(f"!! {failure}", file=sys.stderr)
            print("FAIL: kernel speedup regression detected", file=sys.stderr)
            return 1
        print(f"gate ok: no kernel regressed >{GATE_MARGIN}x vs {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
