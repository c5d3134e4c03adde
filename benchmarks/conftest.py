"""Benchmark harness configuration.

Each benchmark module regenerates one table or figure of the paper at the
``smoke`` scale (seconds per experiment) and prints the resulting series so
a run of ``pytest benchmarks/ --benchmark-only`` doubles as a compact
reproduction report. Set ``REPRO_BENCH_SCALE=default`` (or ``full``) in the
environment to regenerate at larger scales. The modules time and check
their runs with :func:`bench_report.run_and_report`.
"""

from __future__ import annotations

import os

import pytest

from repro.config import PRESETS


@pytest.fixture(scope="session")
def bench_scale():
    """Scale preset for the benchmark runs (env-overridable)."""
    name = os.environ.get("REPRO_BENCH_SCALE", "smoke")
    return PRESETS[name]
