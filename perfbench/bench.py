"""Measurement loop, correctness checks and metric report of the benchmark.

One run sets a workload up several times (the median is ``setup_s``),
then repeats the workload's fixed list of operations -- one *rep* -- for
about ``--seconds``. Every timed interval is converted to seconds at
reference core speed (:mod:`perfbench.speed`). End-to-end metrics sum or
take the median of each operation's median over the untraced reps. With
tracing on, untraced and traced reps alternate: the traced reps give the
per-layer numbers (raw wall seconds), and the ratio of the two is the
tracing overhead.

An operation fails when it raises, when an invariant check fails, or
when its output digest differs from the committed one for this seed
(``expected.json``) -- or, for a seed with no committed digests, from
the digest the same operation produced in the run's first rep.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.speed import SpeedSampler
from perfbench.tracing import LAYER_NAMES, LayerTracer, summarize
from perfbench.workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"
OUT_DIR = HERE / "out"

#: Seed kept out of every tuning run, for confirming a claimed gain.
HELD_OUT_SEED = 1009

SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cell_p50_s", "s"),
    ("predictions_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Counts the program reports in its outputs (not spans); they must
#: repeat exactly between runs of one seed.
COUNTS = (
    ("federation.rounds", "count"),
    ("federation.bytes", "bytes"),
    ("federation.messages", "count"),
    ("resilience.retries", "count"),
    ("resilience.timeouts", "count"),
    ("resilience.rounds_degraded", "count"),
    ("resilience.first_try_ratio", "ratio"),
    ("serving.queries_used", "count"),
    ("serving.cache_hits", "count"),
    ("serving.cache_hit_ratio", "ratio"),
    ("serving.refusals", "count"),
)

PER_LAYER = (
    *(
        metric
        for layer in LAYER_NAMES
        for metric in (
            (f"{layer}_s", "s"),
            (f"{layer}_self_s", "s"),
            (f"{layer}_calls", "count"),
        )
    ),
    ("federation.round_clean_us", "us"),
    ("federation.round_storm_us", "us"),
    *COUNTS,
    ("unattributed_s", "s"),
    ("trace_overhead", "ratio"),
    ("failed_frac", "ratio"),
)


def digest(payload: dict) -> str:
    """Content hash of an operation's output (floats at full precision)."""

    def plain(value):
        if isinstance(value, np.generic):
            return value.item()
        if isinstance(value, np.ndarray):
            return value.tolist()
        raise TypeError(f"cannot digest {type(value).__name__}")

    text = json.dumps(payload, sort_keys=True, default=plain)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def load_expected(seed: int, workload: str) -> dict[str, str]:
    if not EXPECTED_PATH.is_file():
        return {}
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle).get(str(seed), {}).get(workload, {})


@dataclass
class Rep:
    """One pass over the workload's operations.

    ``op_walls`` are seconds at reference speed (see :mod:`perfbench.speed`);
    ``raw_wall`` is the rep's wall-clock time.
    """

    traced: bool
    raw_wall: float = 0.0
    op_walls: list[float] = field(default_factory=list)
    served: int = 0
    counts: Counter = field(default_factory=Counter)
    digests: dict[str, str] = field(default_factory=dict)
    failed: int = 0
    tracer: "LayerTracer | None" = None


def _interval(speed: "SpeedSampler | None", start: float) -> float:
    end = time.perf_counter()
    return end - start if speed is None else speed.normalise(start, end)


def run_rep(
    ops: list[Op],
    traced: bool,
    reference: dict[str, str],
    speed: "SpeedSampler | None" = None,
) -> Rep:
    """Run every operation once; ``reference`` maps op id -> expected digest.

    Operations missing from ``reference`` are added to it, so a later rep
    must reproduce this rep's digests. Without a ``speed`` sampler the
    times are plain wall seconds.
    """
    rep = Rep(traced=traced, tracer=LayerTracer() if traced else None)
    context: dict = {}
    if rep.tracer is not None:
        rep.tracer.install()
    try:
        rep_start = time.perf_counter()
        for op in ops:
            start = time.perf_counter()
            try:
                if rep.tracer is None:
                    outcome = op.run(context)
                else:
                    with rep.tracer.root(op.kind):
                        outcome = op.run(context)
            except Exception as exc:  # a failed operation is counted, not fatal
                rep.op_walls.append(_interval(speed, start))
                rep.failed += 1
                print(f"# {op.op_id}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            rep.op_walls.append(_interval(speed, start))
            rep.served += outcome.served
            rep.counts.update(outcome.counts)
            rep.digests[op.op_id] = found = digest(outcome.payload)
            want = reference.setdefault(op.op_id, found)
            if outcome.problem is not None or found != want:
                rep.failed += 1
                why = outcome.problem or f"digest {found} != expected {want}"
                print(f"# {op.op_id}: {why}", file=sys.stderr)
        rep.raw_wall = time.perf_counter() - rep_start
    finally:
        if rep.tracer is not None:
            rep.tracer.uninstall()
    return rep


def setup(name: str, seed: int, tiny: bool, speed: SpeedSampler) -> tuple[list[Op], float]:
    """Build the workload and warm it up, several times; median seconds.

    Warming runs the tiny variant's operations once, so lazy set-up in
    the program (first calls into BLAS, code paths never run yet) is
    paid here and not by the first timed rep.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = WORKLOADS[name](seed, tiny)
        run_rep(WORKLOADS[name](seed, tiny=True), traced=False, reference={})
        samples.append(_interval(speed, start))
    return ops, statistics.median(samples)


def measure(
    ops: list[Op], seconds: float, trace: bool, reference: dict, speed: SpeedSampler
) -> list[Rep]:
    """Repeat the workload for about ``seconds`` of wall time.

    Another rep starts while the run would end closer to ``seconds``
    with it than without it. Each rep starts from a collected heap, so
    garbage left by one rep is not collected inside the next.
    """
    reps: list[Rep] = []
    start = time.perf_counter()
    while True:
        n_traced = sum(rep.traced for rep in reps)
        gc.collect()
        traced = trace and n_traced < len(reps) - n_traced
        reps.append(run_rep(ops, traced, reference, speed))
        elapsed = time.perf_counter() - start
        both = not trace or 0 < sum(rep.traced for rep in reps) < len(reps)
        if both and elapsed + _median(rep.raw_wall for rep in reps) / 2 > seconds:
            return reps


def _median(values) -> float:
    return float(statistics.median(values))


def op_medians(reps: list[Rep]) -> list[float]:
    """Each operation's median wall across ``reps``.

    Summing these estimates a rep's wall with every operation's own
    outliers filtered, which is steadier than the median rep on a noisy
    host.
    """
    return [_median(walls) for walls in zip(*(rep.op_walls for rep in reps))]


def end_to_end_metrics(ops: list[Op], reps: list[Rep], setup_s: float) -> dict[str, float]:
    plain = [rep for rep in reps if not rep.traced]
    walls = op_medians(plain)
    cells: dict[str, float] = {}
    for op, wall in zip(ops, walls):
        key = op.cell or op.op_id
        cells[key] = cells.get(key, 0.0) + wall
    wall = sum(walls)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "cell_p50_s": _median(cells.values()),
        "predictions_per_s": _median(rep.served for rep in plain) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _ratio(numerator: float, denominator: float, empty: float) -> float:
    return numerator / denominator if denominator else empty


def per_layer_metrics(reps: list[Rep]) -> tuple[dict[str, float], float]:
    """Per-layer metrics of the traced reps, and their median traced wall."""
    traced = [rep for rep in reps if rep.traced]
    plain = [rep for rep in reps if not rep.traced]
    summaries = [summarize(rep.tracer) for rep in traced]
    first = summaries[0]
    metrics: dict[str, float] = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}_s"] = _median(s["layers"][layer]["busy_s"] for s in summaries)
        metrics[f"{layer}_self_s"] = _median(s["layers"][layer]["self_s"] for s in summaries)
        metrics[f"{layer}_calls"] = first["layers"][layer]["calls"]
    metrics["federation.round_clean_us"] = _median(s["round_clean_us"] for s in summaries)
    metrics["federation.round_storm_us"] = _median(s["round_storm_us"] for s in summaries)
    counts = reps[0].counts
    for name, _ in COUNTS:
        metrics[name] = counts.get(name, 0)
    metrics["resilience.first_try_ratio"] = _ratio(
        counts["federation.requests"],
        counts["federation.requests"] + counts["resilience.retries"],
        1.0,
    )
    metrics["serving.cache_hit_ratio"] = _ratio(
        counts["serving.cache_hits"],
        counts["serving.cache_hits"] + counts["serving.queries_used"],
        0.0,
    )
    metrics["unattributed_s"] = _median(s["unattributed_s"] for s in summaries)
    metrics["trace_overhead"] = sum(op_medians(traced)) / sum(op_medians(plain))
    attempted = sum(len(rep.op_walls) for rep in reps)
    metrics["failed_frac"] = sum(rep.failed for rep in reps) / attempted
    return metrics, _median(s["wall_s"] for s in summaries)


def _git_commit() -> "str | None":
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
    }


def print_layer_report(metrics: dict[str, float], traced_wall: float) -> None:
    """Per-layer table on stderr: calls, busy, self, share of traced wall."""
    out = sys.stderr
    print(f"{'layer':<22} {'calls':>8} {'busy_s':>9} {'self_s':>9} {'self%':>6}", file=out)
    rows = [
        (layer, metrics[f"{layer}_calls"], metrics[f"{layer}_s"], metrics[f"{layer}_self_s"])
        for layer in LAYER_NAMES
    ]
    rows.sort(key=lambda row: -row[3])
    rows.append(("unattributed", "", "", metrics["unattributed_s"]))
    for layer, calls, busy, self_s in rows:
        busy_text = f"{busy:9.3f}" if busy != "" else " " * 9
        share = 100.0 * self_s / traced_wall if traced_wall else 0.0
        print(f"{layer:<22} {calls!s:>8} {busy_text} {self_s:9.3f} {share:6.1f}", file=out)
    print(f"traced wall {traced_wall:.3f} s; trace_overhead {metrics['trace_overhead']:.3f}x", file=out)


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    tiny: bool = False,
    expected: "dict[str, str] | None" = None,
    speed: "SpeedSampler | None" = None,
    import_s: float = 0.0,
    spans_path: "Path | None" = None,
) -> tuple[dict, dict]:
    """One benchmark run: the result object the CLI prints last, and notes.

    ``speed`` is a started sampler (one is started for the run when not
    given); ``import_s`` is the program's import time at reference speed.
    The notes give the raw wall time and the host slowdown behind the
    reported times.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    own = speed is None
    if own:
        speed = SpeedSampler()
        speed.start()
    try:
        ops, setup_s = setup(name, seed, tiny, speed)
        reference = dict(load_expected(seed, name) if expected is None else expected)
        start = time.perf_counter()
        reps = measure(ops, seconds, trace, reference, speed)
        slowdown = speed.slowdown(start, time.perf_counter())
    finally:
        if own:
            speed.stop()
    attempted = sum(len(rep.op_walls) for rep in reps)
    failed = sum(rep.failed for rep in reps)
    if trace:
        values, traced_wall = per_layer_metrics(reps)
        units = dict(PER_LAYER)
        print_layer_report(values, traced_wall)
        if spans_path is not None:
            first = next(rep for rep in reps if rep.traced)
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            first.tracer.write(spans_path, provenance(name, seed, seconds, trace))
    else:
        values = end_to_end_metrics(ops, reps, import_s + setup_s)
        units = dict(END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }
    notes = {
        "reps": len(reps),
        "raw_rep_wall_s": _median(rep.raw_wall for rep in reps if rep.traced == trace),
        "slowdown": slowdown,
    }
    return result, notes


def record(name: str, seed: int) -> None:
    """Store one clean rep's output digests under ``seed`` in ``expected.json``."""
    rep = run_rep(WORKLOADS[name](seed), traced=False, reference={})
    if rep.failed:
        raise RuntimeError(f"{name} seed {seed}: {rep.failed} operation(s) failed")
    table = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.is_file() else {}
    table.setdefault(str(seed), {})[name] = rep.digests
    EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
