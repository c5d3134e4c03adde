"""Bench: regenerate Fig. 9 (effect of the number of accumulated predictions)."""

from bench_report import run_and_report

from repro.experiments import fig9_num_predictions


def test_fig9_num_predictions(benchmark, bench_scale):
    result = run_and_report(
        benchmark, fig9_num_predictions, bench_scale,
        datasets=("synthetic1", "synthetic2"),
    )
    # Shape: GRNA beats random guessing at every accumulation level, and
    # more predictions never catastrophically hurt (paper: more helps).
    for row in result.rows:
        assert row[3] < row[4]
