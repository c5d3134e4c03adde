"""Bench: regenerate Fig. 5 (ESA MSE vs d_target, four datasets)."""

from bench_report import run_and_report

from repro.experiments import fig5_esa


def test_fig5_esa(benchmark, bench_scale):
    result = run_and_report(benchmark, fig5_esa, bench_scale)
    # Shape assertions from §VI-B: exact recovery below the d_target ≤ c−1
    # threshold (drive at 20%), and ESA beating both random-guess baselines
    # on the skew-calibrated datasets.
    drive_rows = result.filtered(dataset="drive")
    threshold_row = [r for r in drive_rows if r[1] == 20][0]
    assert threshold_row[5] is True or threshold_row[2] < 1e-8
    for row in result.filtered(dataset="credit"):
        assert row[2] < row[3]  # ESA < RG uniform
