"""Documentation checks: the docs exist, name what they must, and every
public package describes itself.

One table row per check; ``make docs-check`` runs this file.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Documents that must exist.
DOCUMENTS = ("README.md", "docs/architecture.md")

#: (document, text it must contain) — CLI flags, entry points, section
#: headings and the names readers look up.
MENTIONS = [
    ("README.md", "--jobs"),
    ("README.md", "--store-dir"),
    ("README.md", "run_scenario"),
    ("README.md", "repro-experiments"),
    ("README.md", "query_budget"),
    ("README.md", "comm_budget"),
    ("README.md", "benchmarks/gates.py"),
    ("README.md", "BENCH_vectorized"),
    ("docs/architecture.md", "trial_units"),
    ("docs/architecture.md", "run_scenario"),
    ("docs/architecture.md", "DefenseStack"),
    ("docs/architecture.md", "PredictionService"),
    ("docs/architecture.md", "on_query"),
    ("docs/architecture.md", "## Federation runtime"),
    ("docs/architecture.md", "CommLedger"),
    ("docs/architecture.md", "TopologyConfig"),
    ("docs/architecture.md", "## Performance"),
    ("docs/architecture.md", "benchmarks/gates.py"),
    ("docs/architecture.md", "## Workload layer"),
    ("docs/architecture.md", "ShardedPredictionService"),
    ("docs/architecture.md", "make_trace"),
    ("README.md", "repro.workload"),
    ("README.md", "BENCH_serving_scale"),
    ("README.md", "repro-lint"),
    ("docs/architecture.md", "## Static analysis"),
    ("docs/architecture.md", "rng-discipline"),
    ("docs/architecture.md", "layer-boundary"),
    ("docs/architecture.md", "## Checkpoint layer"),
    ("docs/architecture.md", "SnapshotStore"),
    ("docs/architecture.md", "checkpoint-completeness"),
    ("docs/architecture.md", "run_scenario_resumable"),
    ("README.md", "repro-ckpt"),
    ("README.md", "run_scenario_resumable"),
    ("docs/architecture.md", "## Resilience layer"),
    ("docs/architecture.md", "RetryPolicy"),
    ("docs/architecture.md", "quorum"),
    ("docs/architecture.md", "CircuitBreaker"),
    ("README.md", "fault_storm"),
    ("README.md", "BENCH_resilience"),
    ("docs/architecture.md", "## Telemetry layer"),
    ("docs/architecture.md", "Tracer"),
    ("docs/architecture.md", "repro-trace"),
    ("README.md", "repro-trace"),
    ("README.md", "BENCH_telemetry"),
]

#: (package, word its docstring must contain, exports that need docstrings).
PACKAGE_DOCS = [
    ("repro.analysis", "repro-lint",
     ("run_lint", "LintConfig", "LintReport", "Finding", "RULES")),
    ("repro.federation", "CommLedger",
     ("Message", "Transport", "CommLedger", "FederationRuntime",
      "TopologyConfig", "FaultPlan")),
    ("repro.resilience", "RetryPolicy",
     ("RetryPolicy", "BreakerPolicy", "CircuitBreaker", "SimClock", "ReplyCache")),
    ("repro.workload", "TrafficTrace",
     ("ShardedPredictionService", "TrafficTrace", "WorkloadReport",
      "make_trace", "attacker_trace", "shard_of")),
    ("repro.experiments", "run_batch",
     ("ResultsStore", "RunSummary", "run_batch", "TrialSpec")),
    ("repro.api", "run_scenario",
     ("Registry", "DefenseStack", "ScenarioAttack", "ScenarioConfig",
      "ScenarioReport", "run_scenario")),
    ("repro.checkpoint", "bit-identical",
     ("CHECKPOINTS", "StateCodec", "CheckpointPlan", "Snapshot",
      "SnapshotStore", "capture_state", "restore_state")),
    ("repro.telemetry", "Tracer",
     ("Tracer", "TRACE_SINKS", "MemorySink", "JsonlSink", "make_tracer",
      "load_trace")),
]


@pytest.mark.parametrize("document", DOCUMENTS)
def test_document_exists(document):
    assert (ROOT / document).is_file()


@pytest.mark.parametrize(
    "document,text", MENTIONS, ids=[f"{d}:{t}" for d, t in MENTIONS]
)
def test_document_mentions(document, text):
    assert text in (ROOT / document).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "package,word,exports", PACKAGE_DOCS, ids=[p for p, _, _ in PACKAGE_DOCS]
)
def test_package_describes_itself(package, word, exports):
    module = importlib.import_module(package)
    assert module.__doc__ and word in module.__doc__
    undocumented = [name for name in exports if not getattr(module, name).__doc__]
    assert undocumented == []


def test_experiments_cli_help():
    package_root = Path(importlib.import_module("repro").__file__).parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "--help"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
        check=False,
    )
    assert result.returncode == 0, result.stderr
