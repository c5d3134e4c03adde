"""Tests of the benchmark itself, on the tiny variant of every workload."""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import bench, speed, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, Op, Outcome  # noqa: E402


def _names(metrics) -> list[str]:
    return [name for name, _ in metrics]


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_runs_at_tiny_size(name, trace):
    result, _ = bench.run(name, 0, 0.0, trace, tiny=True, expected={})
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS[name](0, tiny=True))
    wanted = bench.PER_LAYER if trace else bench.END_TO_END
    assert list(result["metrics"]) == _names(wanted)
    for name_, unit in wanted:
        assert result["metrics"][name_]["unit"] == unit
    if trace:
        assert result["metrics"]["failed_frac"]["value"] == 0.0
        assert result["metrics"]["trace_overhead"]["value"] > 0.0
    else:
        assert all(m["value"] > 0.0 for m in result["metrics"].values())


def test_metric_and_workload_names_match_benchmark_json(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(WORKLOADS)
    for key, declared in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        entries = benchmark_json[key]
        assert [(m["name"], m["unit"]) for m in entries] == list(declared)


def test_same_seed_same_outputs_and_other_seed_differs():
    first = bench.run_rep(WORKLOADS["storm"](3, tiny=True), False, {}).digests
    again = bench.run_rep(WORKLOADS["storm"](3, tiny=True), False, {}).digests
    other = bench.run_rep(WORKLOADS["storm"](4, tiny=True), False, {}).digests
    assert first == again
    assert first.keys() == other.keys() and first != other


def test_corrupted_digest_counts_as_failure():
    digests = bench.run_rep(WORKLOADS["closed_form"](0, tiny=True), False, {}).digests
    clean, _ = bench.run("closed_form", 0, 0.0, False, tiny=True, expected=digests)
    assert clean["failed"] == 0

    corrupted = dict(digests)
    op_id = sorted(corrupted)[0]
    corrupted[op_id] = "0" * len(corrupted[op_id])
    result, _ = bench.run("closed_form", 0, 0.0, True, tiny=True, expected=corrupted)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["failed_frac"]["value"] > 0.0


def test_raising_operation_counts_as_failure():
    def boom(context: dict) -> Outcome:
        raise RuntimeError("injected")

    def fine(context: dict) -> Outcome:
        return Outcome(payload={"ok": 1}, served=1)

    rep = bench.run_rep([Op("boom", "cell", boom), Op("fine", "cell", fine)], False, {})
    assert rep.failed == 1 and len(rep.op_walls) == 2


def _bound_attributes() -> dict[tuple[int, str], object]:
    return {
        (id(owner), attr): vars(owner)[attr]
        for _, targets in tracing.LAYERS
        for target in targets
        for owner, attr in tracing._resolve(target)[1]
    }


def test_tracer_restores_every_wrapped_attribute():
    before = _bound_attributes()
    tracer = tracing.LayerTracer()
    with tracer:
        during = _bound_attributes()
        assert during.keys() == before.keys()
        assert all(during[key] is not before[key] for key in before)
    assert all(value is before[key] for key, value in _bound_attributes().items())

    bench.run("grna", 0, 0.0, True, tiny=True, expected={})
    assert all(value is before[key] for key, value in _bound_attributes().items())


def test_spans_nest_and_self_time_adds_up():
    rep = bench.run_rep(WORKLOADS["closed_form"](0, tiny=True), True, {})
    summary = tracing.summarize(rep.tracer)
    layers = summary["layers"]
    assert layers["federated.train"]["busy_s"] >= layers["models.fit"]["busy_s"] > 0.0
    total_self = sum(entry["self_s"] for entry in layers.values())
    assert total_self + summary["unattributed_s"] == pytest.approx(summary["wall_s"], rel=1e-6)


def test_speed_sampler_samples_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.4:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.times) >= speed.MIN_SAMPLES
    assert sampler.slowdown(start, end) > 0.0
    assert 0.0 < sampler.normalise(start, end) < 10 * (end - start)
