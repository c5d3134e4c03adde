"""Bench: regenerate Table II (dataset statistics)."""

from bench_report import run_and_report

from repro.experiments import table2_datasets


def test_table2_datasets(benchmark):
    result = run_and_report(benchmark, lambda: table2_datasets())
    assert len(result.rows) == 6
