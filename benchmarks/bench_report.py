"""Time one benchmark experiment run, print its table, check it is pinned.

A module of its own (not ``conftest``), so ``from bench_report import
run_and_report`` resolves to this file even when one pytest command
collects ``tests/`` too, whose ``conftest`` module would shadow ours.
At the ``smoke`` scale each result must equal its pinned table under
``tests/fixtures/pinned_experiments`` (see ``tests/pinned_tables.py``).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
from pinned_tables import assert_pinned  # noqa: E402


def run_and_report(benchmark, runner, *args, **kwargs):
    """Time one experiment run and print its result table."""
    result = benchmark.pedantic(
        runner, args=args, kwargs=kwargs, rounds=1, iterations=1
    )
    print()
    print(result.to_text())
    # Table II carries no scale: its statistics are the same at every one.
    if result.meta.get("scale", "smoke") == "smoke":
        assert_pinned(result, **kwargs)
    return result
