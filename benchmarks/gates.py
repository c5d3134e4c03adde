"""Timed ratio gates: every wall-clock bound of the repository in one runner.

perfbench (``perfbench/run.py``) times whole paper cells; this runner
holds the layer-level ratios that have a fixed bound. Each ratio compares
two or more *arms* of one workload, run :data:`REPLAYS` times in
rotating order, and gates the median of the per-replay ratios. Timing
pairs from the same replay see the same machine state, so a noisy
neighbour moves both sides; the median drops the odd slow replay::

    PYTHONPATH=src python benchmarks/gates.py           # default scale
    PYTHONPATH=src python benchmarks/gates.py --tiny    # CI smoke scale

Gates (``make bench`` runs the default scale, ``make bench-smoke`` the tiny
one):

- ``kernel.*`` — each vectorized kernel's speedup over its seed
  reference (``tests/reference.py``) stays within 1.5x of the speedup
  recorded in the committed ``BENCH_smoke.json``;
- ``service.*`` — batched serving (``max_batch=64``) beats one
  ``query([i])`` round per sample, per model kind;
- ``federation.*`` — a metered runtime round costs at most 10x the
  in-process call, and the threaded scheduler overlaps a straggling
  party (``threaded+lag`` pays at most 2 delays per round over
  ``threaded``), per model kind;
- ``serving.*`` — sharded replay overhead over the raw predict loop
  stays within 1.5x of ``overhead_vs_raw`` in the committed
  ``BENCH_serving_scale.json``;
- ``storm.*`` — a flaky/timeout storm with retries and quorum costs at
  most 12x the fault-free rounds;
- ``telemetry.*`` — one trace record costs at most 50 us, and traced
  wide-chunk serving at most 1.05x (1.50x at tiny scale, where one run
  is a few milliseconds) of untraced serving.

The deterministic contracts these workloads also satisfy (metering
exactness, retry accounting, scheduler and shard-count identity, trace
determinism) are tier-1 tests, not gates here.

The summary JSON (``BENCH_gates.json``, or ``BENCH_gates-live.json``
with ``--tiny``) records the machine, the replay count, and per case the
median, interquartile range, bound and verdict, plus one overall verdict.
Each ``federation.*``, ``serving.*`` and ``storm.*`` case also records
the median seconds of the two arms its ratio divides (``arm_median_s``,
arm name to seconds), printed beside the ratio: a change that speeds
both arms leaves the ratio flat, and the seconds show it.
The exit status is 0 iff every case passes.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import platform
import sys
import time
from pathlib import Path
from types import MethodType
from typing import Callable

import numpy as np

from repro.api import make_model
from repro.attacks.grna import GenerativeRegressionNetwork
from repro.attacks.pra import PathRestrictionAttack
from repro.config import ScaleConfig
from repro.datasets import load_dataset
from repro.federated import FeaturePartition, train_vertical_model
from repro.federation import FaultPlan, FederationRuntime
from repro.metrics import path_cbr, path_cbr_batch
from repro.models.forest import RandomForestClassifier
from repro.models.logistic import LogisticRegression
from repro.models.tree import DecisionTreeClassifier
from repro.nn import train
from repro.nn.optim import Adam
from repro.serving import PredictionService
from repro.telemetry import MemorySink, Tracer
from repro.workload import ShardedPredictionService, make_trace

# The seed kernels live beside the tests that check them.
sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
import reference  # noqa: E402

#: Interleaved replays per workload; every gated value is their median.
REPLAYS = 5

#: Shortest timed sample; faster calls are looped and averaged.
MIN_SAMPLE_S = 0.02

ROOT = Path(__file__).resolve().parents[1]

#: Committed summaries the relative gates read. The runner never writes them.
KERNEL_BASELINE = ROOT / "BENCH_smoke.json"
SERVING_BASELINE = ROOT / "BENCH_serving_scale.json"

#: Slack of both baseline-relative gates.
BASELINE_MARGIN = 1.5

MODEL_KINDS = ("lr", "nn", "dt", "rf")

OPS = {"<=": operator.le, ">=": operator.ge, ">": operator.gt}

#: Workload sizes per scale. ``model`` sizes every deployment; ``kernels``
#: are the sizes the ``BENCH_smoke.json`` speedups were recorded at
#: (tiny) and the largest kernel sizes (default).
SCALES: dict[str, dict] = {
    "tiny": dict(
        model=ScaleConfig(
            name="gates-tiny", n_samples=400, n_predictions=128, n_trials=1,
            fractions=(0.4,), lr_epochs=3, mlp_hidden=(16,), mlp_epochs=2,
            rf_trees=5, rf_depth=3, dt_depth=4,
        ),
        trace=(2_000, 4_000),
        wide_overhead=1.50,
        kernels=dict(
            fit_samples=400, fit_features=12, fit_depth=5, predict_samples=6000,
            lr_classes=5, lr_epochs=20,
            rf_trees=20, rf_depth=3, rf_fit_samples=400, grna_samples=128,
            grna_hidden=(64,), grna_epochs=2, grna_batch=32, pra_samples=1000,
            pra_depth=5, service_queries=1000,
        ),
    ),
    "default": dict(
        model=ScaleConfig(
            name="gates-default", n_samples=4000, n_predictions=1536, n_trials=1,
            fractions=(0.4,), lr_epochs=10, mlp_hidden=(64, 32), mlp_epochs=4,
            rf_trees=20, rf_depth=3, dt_depth=5,
        ),
        trace=(100_000, 100_000),
        wide_overhead=1.05,
        kernels=dict(
            fit_samples=4000, fit_features=24, fit_depth=8, predict_samples=20000,
            lr_classes=5, lr_epochs=20,
            rf_trees=100, rf_depth=3, rf_fit_samples=1000, grna_samples=384,
            grna_hidden=(600, 200, 100), grna_epochs=3, grna_batch=64,
            pra_samples=4000, pra_depth=6, service_queries=1500,
        ),
    ),
}


# ----------------------------------------------------------------------
# Deployment, timing, verdicts
# ----------------------------------------------------------------------
def deploy(kind, scale: ScaleConfig, *, n_parties=2, n_samples=None, **model_params):
    """One trained VFL deployment on ``bank``; the held-out half is served."""
    dataset = load_dataset("bank", n_samples=n_samples or scale.n_samples, rng=0)
    half = dataset.n_samples // 2
    partition = FeaturePartition.from_topology(
        dataset.n_features, 0.4, n_parties=n_parties, rng=0
    )
    model = make_model(kind, scale, np.random.default_rng(0), **model_params)
    return train_vertical_model(
        model,
        dataset.X[:half],
        dataset.y[:half],
        dataset.X[half:],
        dataset.y[half:],
        partition,
    )


def chunks(indices: np.ndarray, batch: int) -> list[np.ndarray]:
    return [indices[start : start + batch] for start in range(0, indices.size, batch)]


def over(rounds: list[np.ndarray], predict: Callable) -> Callable[[], None]:
    """Serve every round through ``predict``."""

    def run() -> None:
        for chunk in rounds:
            predict(chunk)

    return run


def timed(fn: Callable) -> Callable[[], float]:
    """An arm timing ``fn``: mean seconds per call over enough calls to
    last :data:`MIN_SAMPLE_S`, so a sub-millisecond kernel is timed warm.

    Calibrating the call count (doubling, as ``timeit`` does) also warms
    ``fn``'s lazy caches before the first replay.
    """
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - start >= MIN_SAMPLE_S:
            break
        calls *= 2

    def arm() -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - start) / calls

    return arm


def interleave(arms: dict[str, Callable[[], float]]) -> dict[str, np.ndarray]:
    """Seconds per arm per replay; replay ``i`` starts at arm ``i mod len(arms)``.

    Each arm returns the seconds it took: :func:`timed` wraps a call,
    and a sharded replay reports its own event loop, not the shard set-up.
    """
    names = list(arms)
    seconds = {name: np.empty(REPLAYS) for name in names}
    for replay in range(REPLAYS):
        for offset in range(len(names)):
            name = names[(replay + offset) % len(names)]
            seconds[name][replay] = arms[name]()
    return seconds


def arm_seconds(seconds: dict[str, np.ndarray], *arms: str) -> dict[str, float]:
    """Median seconds of the named arms, kept beside the ratio they form."""
    return {arm: float(np.median(seconds[arm])) for arm in arms}


def verdict(samples: "np.ndarray | None", bound: float, op: str) -> dict:
    """Median and IQR of ``samples``, gated as ``median <op> bound``.

    ``samples=None`` is a case a baseline gates but the run did not
    measure: a hole in coverage, so it fails.
    """
    if samples is None:
        return {"median": None, "iqr": None, "bound": bound, "op": op, "pass": False}
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {
        "median": float(median),
        "iqr": float(q3 - q1),
        "bound": float(bound),
        "op": op,
        "pass": bool(OPS[op](median, bound)),
    }


def against_baseline(
    prefix: str, samples: dict[str, np.ndarray], bounds: dict[str, float], op: str
) -> dict[str, dict]:
    """One case per baseline entry, whether or not the live run measured it."""
    return {
        f"{prefix}.{name}": verdict(samples.get(name), bound, op)
        for name, bound in sorted(bounds.items())
    }


def read_baseline(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Kernel speedups: each fast kernel against its retained reference
# ----------------------------------------------------------------------
def _tree_data(k: dict):
    rng = np.random.default_rng(0)
    X = rng.random((k["fit_samples"], k["fit_features"]))
    y = rng.integers(0, 2, size=k["fit_samples"])
    return rng, X, y


def kernel_dt_fit(k: dict):
    _, X, y = _tree_data(k)

    def fast() -> None:
        DecisionTreeClassifier(max_depth=k["fit_depth"], rng=0).fit(X, y)

    def slow() -> None:
        reference.tree_fit(DecisionTreeClassifier(max_depth=k["fit_depth"], rng=0), X, y)

    return fast, slow


def kernel_lr_fit(k: dict):
    """A binary and a multinomial fit; the reference runs the allocating SGD loops."""
    rng, X, _ = _tree_data(k)
    labels = [rng.integers(0, c, size=k["fit_samples"]) for c in (2, k["lr_classes"])]

    def fit(fast: bool) -> None:
        for y in labels:
            model = LogisticRegression(epochs=k["lr_epochs"], rng=0)
            if not fast:
                model._fit_binary = MethodType(reference.lr_fit_binary, model)
                model._fit_multinomial = MethodType(reference.lr_fit_multinomial, model)
            model.fit(X, y)

    return lambda: fit(True), lambda: fit(False)


def kernel_dt_predict(k: dict):
    rng, X, y = _tree_data(k)
    tree = DecisionTreeClassifier(max_depth=k["fit_depth"], rng=0).fit(X, y)
    Xq = rng.random((k["predict_samples"], k["fit_features"]))
    tree.predict(Xq)  # warm the flat-structure cache
    return lambda: tree.predict(Xq), lambda: reference.tree_predict(tree, Xq)


def kernel_rf_predict_proba(k: dict):
    rng = np.random.default_rng(0)
    X = rng.random((k["rf_fit_samples"], k["fit_features"]))
    y = rng.integers(0, 2, size=k["rf_fit_samples"])
    forest = RandomForestClassifier(
        n_trees=k["rf_trees"], max_depth=k["rf_depth"], rng=0
    ).fit(X, y)
    Xq = rng.random((k["predict_samples"], k["fit_features"]))
    forest.predict_proba(Xq)  # warm the decision-table cache
    return (
        lambda: forest.predict_proba(Xq),
        lambda: reference.forest_predict_proba(forest, Xq),
    )


def _pra_tree(k: dict):
    rng, X, y = _tree_data(k)
    tree = DecisionTreeClassifier(max_depth=k["pra_depth"], rng=0).fit(X, y)
    return rng, tree, rng.random((k["pra_samples"], k["fit_features"]))


def kernel_pra_restrict(k: dict):
    _, tree, Xq = _pra_tree(k)
    view = FeaturePartition.adversary_target(k["fit_features"], 0.4, rng=0).adversary_view()
    attack = PathRestrictionAttack(tree.tree_structure(), view)
    labels = tree.predict(Xq)
    X_adv = Xq[:, view.adversary_indices]

    def slow() -> None:
        for i in range(X_adv.shape[0]):
            reference.pra_restrict(attack, X_adv[i], int(labels[i]))

    return lambda: attack.restrict_batch(X_adv, labels), slow


def kernel_path_cbr(k: dict):
    rng, tree, Xq = _pra_tree(k)
    structure = tree.tree_structure()
    leaves = rng.choice(structure.leaf_indices(), size=k["pra_samples"])
    paths = [structure.path_to(int(leaf)) for leaf in leaves]
    targets = np.arange(0, k["fit_features"], 2)

    def slow() -> None:
        for path, x in zip(paths, Xq):
            path_cbr(structure, path, x, targets)

    return lambda: path_cbr_batch(structure, leaves, Xq, targets), slow


def kernel_grna_epoch(k: dict):
    """Generator training; the reference runs the composed-graph loss, the
    allocating optimizer step and the dynamic tape together."""
    n = k["grna_samples"]
    # The overrides fix every size the model reads from the scale.
    vfl = deploy(
        "nn", SCALES["tiny"]["model"], n_samples=2 * n, hidden_sizes=(32,), epochs=2
    )
    view = vfl.partition.adversary_view()
    X_adv = vfl.adversary_features()[:n]
    V = vfl.predict(np.arange(n))

    def fit(fast: bool) -> None:
        attack = GenerativeRegressionNetwork(
            vfl.model, view, hidden_sizes=k["grna_hidden"], epochs=k["grna_epochs"],
            batch_size=k["grna_batch"], rng=7,
        )
        if fast:
            attack.fit(X_adv, V)
            return
        attack._prediction_loss = MethodType(reference.grna_prediction_loss, attack)
        step, max_tapes = Adam.step, train._MAX_TAPES
        Adam.step, train._MAX_TAPES = reference.adam_step, 0
        try:
            attack.fit(X_adv, V)
        finally:
            Adam.step, train._MAX_TAPES = step, max_tapes

    return lambda: fit(True), lambda: fit(False)


def kernel_service_throughput(k: dict):
    """One RF-backed service round: the serving stack over the fast forest
    kernel, then over the reference kernel shadowing the bound ``_proba``
    (the kernel a served round calls)."""
    n = k["service_queries"]
    # The overrides fix every size the model reads from the scale.
    vfl = deploy(
        "rf", SCALES["tiny"]["model"], n_samples=2 * n,
        n_trees=k["rf_trees"], max_depth=k["rf_depth"],
    )
    service = PredictionService(vfl)
    indices = np.arange(n)
    forest = vfl.model

    def slow() -> None:
        forest._proba = MethodType(reference.forest_predict_proba, forest)
        try:
            service.query(indices)
        finally:
            del forest._proba

    return lambda: service.query(indices), slow


KERNELS = {
    "dt_fit": kernel_dt_fit,
    "lr_fit": kernel_lr_fit,
    "dt_predict": kernel_dt_predict,
    "rf_predict_proba": kernel_rf_predict_proba,
    "pra_restrict": kernel_pra_restrict,
    "path_cbr": kernel_path_cbr,
    "grna_epoch": kernel_grna_epoch,
    "service_throughput": kernel_service_throughput,
}


def kernel_gates(scale: str) -> dict[str, dict]:
    sizes = SCALES[scale]["kernels"]
    samples = {}
    for name, setup in KERNELS.items():
        fast, slow = setup(sizes)
        seconds = interleave({"fast": timed(fast), "slow": timed(slow)})
        samples[name] = seconds["slow"] / seconds["fast"]
    bounds = {
        name: entry["speedup"] / BASELINE_MARGIN
        for name, entry in read_baseline(KERNEL_BASELINE)["kernels"].items()
        if entry.get("speedup") is not None
    }
    return against_baseline("kernel", samples, bounds, ">=")


# ----------------------------------------------------------------------
# Serving and federation rounds
# ----------------------------------------------------------------------
def service_gates(scale: str) -> dict[str, dict]:
    """Batched rounds against one true 1-row round per sample."""
    model = SCALES[scale]["model"]
    indices = np.arange(model.n_predictions)
    cases = {}
    for kind in MODEL_KINDS:
        vfl = deploy(kind, model)
        per_sample = PredictionService(vfl)
        batched = PredictionService(vfl, max_batch=64)
        seconds = interleave({
            "per-sample": timed(lambda: [per_sample.query([i]) for i in indices]),
            "batched": timed(lambda: batched.query(indices)),
        })
        cases[f"service.{kind}.batched_speedup"] = verdict(
            seconds["per-sample"] / seconds["batched"], 1.0, ">"
        )
    return cases


#: Round size and the straggling party's per-round delay (seconds).
FEDERATION_BATCH = 64
STRAGGLER_DELAY = 0.002


def federation_gates(scale: str) -> dict[str, dict]:
    """Metered 4-party rounds against the in-process protocol call."""
    model = SCALES[scale]["model"]
    rounds = chunks(np.arange(model.n_predictions), FEDERATION_BATCH)
    cases = {}
    for kind in MODEL_KINDS:
        vfl = deploy(kind, model, n_parties=4)
        sequential = FederationRuntime(vfl, scheduler="sequential")
        threaded = FederationRuntime(vfl, scheduler="threaded")
        lagged = FederationRuntime(
            vfl,
            scheduler="threaded",
            faults=FaultPlan.from_specs(
                [("straggler", {"party": 1, "delay": STRAGGLER_DELAY})]
            ),
        )
        try:
            seconds = interleave({
                "in-process": timed(over(rounds, vfl.predict)),
                "sequential": timed(over(rounds, sequential.predict)),
                "threaded": timed(over(rounds, threaded.predict)),
                "threaded+lag": timed(over(rounds, lagged.predict)),
            })
        finally:
            threaded.close()
            lagged.close()
        cases[f"federation.{kind}.round_overhead"] = {
            **verdict(seconds["sequential"] / seconds["in-process"], 10.0, "<="),
            "arm_median_s": arm_seconds(seconds, "sequential", "in-process"),
        }
        # Under the threaded barrier a round waits for the straggler about
        # once; the bound leaves one more delay of slack.
        cases[f"federation.{kind}.straggler_delays_per_round"] = {
            **verdict(
                (seconds["threaded+lag"] - seconds["threaded"])
                / (STRAGGLER_DELAY * len(rounds)),
                2.0,
                "<=",
            ),
            "arm_median_s": arm_seconds(seconds, "threaded+lag", "threaded"),
        }
    return cases


def serving_gates(scale: str) -> dict[str, dict]:
    """Sharded replay of one traffic trace against the bare predict loop.

    Overheads are ratios to the in-run raw loop, so the committed
    full-scale baseline gates any machine and trace size.
    """
    n_consumers, n_events = SCALES[scale]["trace"]
    # A small model at every scale: this gate measures the serving layer.
    vfl = deploy("lr", SCALES["tiny"]["model"], n_parties=4)
    trace = make_trace(n_consumers, n_events, n_samples=vfl.n_samples, seed=11)
    sample_ids, offsets = trace.sample_ids, trace.offsets

    def raw() -> None:
        logging, vfl.log_predictions = vfl.log_predictions, False
        try:
            for event in range(trace.n_events):
                vfl.predict(sample_ids[offsets[event] : offsets[event + 1]])
        finally:
            vfl.log_predictions = logging

    def replay(n_shards: int, mode: str) -> Callable[[], float]:
        # Fresh shards per replay, so every ledger starts empty.
        return lambda: ShardedPredictionService(
            vfl, n_shards=n_shards, seed=11
        ).replay(trace, mode=mode).elapsed_s

    vfl.predict(sample_ids[offsets[0] : offsets[1]])  # warm lazy kernel caches
    seconds = interleave({
        "raw-predict": timed(raw),
        "serial-1shard": replay(1, "serial"),
        "serial-4shard": replay(4, "serial"),
        "threads-4shard": replay(4, "threads"),
    })
    bounds = {
        mode: entry["overhead_vs_raw"] * BASELINE_MARGIN
        for mode, entry in read_baseline(SERVING_BASELINE)["modes"].items()
        if entry.get("overhead_vs_raw") is not None
    }
    samples = {mode: seconds[mode] / seconds["raw-predict"] for mode in seconds}
    cases = against_baseline("serving", samples, bounds, "<=")
    # A change that also speeds the raw loop moves every ratio; each
    # case keeps its arms' absolute medians beside the gated ratio.
    for mode in sorted(bounds.keys() & seconds.keys()):
        cases[f"serving.{mode}"]["arm_median_s"] = arm_seconds(
            seconds, mode, "raw-predict"
        )
    return cases


#: Two flaky parties and one timeout-prone party, with retries and quorum.
STORM = (
    ("flaky", {"party": 1, "p": 0.25, "seed": 11}),
    ("flaky", {"party": 2, "p": 0.25, "seed": 12}),
    ("timeout", {"party": 3, "p": 0.2, "delay": 0.5, "seed": 13}),
)
STORM_RETRY = {"max_attempts": 3, "backoff_base": 0.01, "jitter": 0.25, "timeout": 0.1}
STORM_BATCH = 16


def storm_gates(scale: str) -> dict[str, dict]:
    """Sequential storm rounds against fault-free fail-fast rounds."""
    model = SCALES[scale]["model"]
    vfl = deploy("lr", model, n_parties=4)
    rounds = chunks(np.arange(model.n_predictions), STORM_BATCH)

    def arm(**knobs) -> Callable[[], float]:
        # A fresh runtime per call, so every call runs rounds 0..n-1.
        return timed(lambda: over(rounds, FederationRuntime(vfl, **knobs).predict)())

    seconds = interleave({
        "fault-free": arm(),
        "storm": arm(
            faults=FaultPlan.from_specs(STORM), retry=dict(STORM_RETRY),
            quorum=0.5, degradation="last_known",
        ),
    })
    return {
        "storm.sequential_overhead": {
            **verdict(seconds["storm"] / seconds["fault-free"], 12.0, "<="),
            "arm_median_s": arm_seconds(seconds, "storm", "fault-free"),
        }
    }


#: Fine chunks make span bookkeeping visible next to the LR math; wide
#: chunks (four of them, wrapping the served rows) are the realistic regime.
BATCH_FINE = 16
BATCH_WIDE = 2048


def telemetry_gates(scale: str) -> dict[str, dict]:
    """Traced serving against untraced serving."""
    model = SCALES[scale]["model"]
    vfl = deploy("lr", model)
    fine = chunks(np.arange(model.n_predictions), BATCH_FINE)
    wide = chunks(np.arange(4 * BATCH_WIDE) % vfl.n_samples, BATCH_WIDE)

    def serve(queries, batch, tracer=None) -> None:
        service = PredictionService(vfl, max_batch=batch, tracer=tracer)
        for chunk in queries:
            service.query(chunk, consumer="bench")

    probe = Tracer(MemorySink())
    serve(fine, BATCH_FINE, probe)
    seconds = interleave({
        "untraced-fine": timed(lambda: serve(fine, BATCH_FINE)),
        "traced-fine": timed(lambda: serve(fine, BATCH_FINE, Tracer(MemorySink()))),
        "untraced-wide": timed(lambda: serve(wide, BATCH_WIDE)),
        "traced-wide": timed(lambda: serve(wide, BATCH_WIDE, Tracer(MemorySink()))),
    })
    return {
        "telemetry.record_cost_us": verdict(
            (seconds["traced-fine"] - seconds["untraced-fine"])
            / probe.records_emitted
            * 1e6,
            50.0,
            "<=",
        ),
        "telemetry.wide_overhead": verdict(
            seconds["traced-wide"] / seconds["untraced-wide"],
            SCALES[scale]["wide_overhead"],
            "<=",
        ),
    }


GROUPS = [
    kernel_gates,
    service_gates,
    federation_gates,
    serving_gates,
    storm_gates,
    telemetry_gates,
]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny", action="store_true", help="CI smoke scale (seconds, small models)"
    )
    parser.add_argument(
        "--out", default=None,
        help="summary path (default: BENCH_gates.json, or BENCH_gates-live.json "
        "with --tiny)",
    )
    args = parser.parse_args(argv)
    scale = "tiny" if args.tiny else "default"
    out = Path(args.out or ("BENCH_gates-live.json" if args.tiny else "BENCH_gates.json"))
    if out.resolve() in (KERNEL_BASELINE, SERVING_BASELINE):
        print(f"FAIL: {out} is a committed baseline the gates read", file=sys.stderr)
        return 1

    print(f"# timed gates — scale={scale}, median of {REPLAYS} interleaved replays")
    header = f"{'case':<42} {'median':>10} {'iqr':>9}   bound       verdict"
    print(header)
    print("-" * len(header))
    cases: dict[str, dict] = {}
    for group in GROUPS:
        for name, case in group(scale).items():
            cases[name] = case
            shown = (
                "missing" if case["median"] is None
                else f"{case['median']:>10.3f} {case['iqr']:>9.3f}"
            )
            absolute = (
                "  ("
                + ", ".join(
                    f"{arm} {median_s:.3g} s"
                    for arm, median_s in case["arm_median_s"].items()
                )
                + ")"
                if "arm_median_s" in case
                else ""
            )
            print(
                f"{name:<42} {shown:>20}   {case['op']:>2} {case['bound']:<8.3f}"
                f" {'ok' if case['pass'] else 'FAIL'}{absolute}"
            )
    summary = {
        "scale": scale,
        "created": time.strftime("%Y-%m-%d %H:%M:%S"),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "replays": REPLAYS,
        "cases": cases,
        "pass": all(case["pass"] for case in cases.values()),
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    if not summary["pass"]:
        failed = sorted(name for name, case in cases.items() if not case["pass"])
        print(f"FAIL: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
