"""Bench: regenerate Fig. 10 (per-feature MSE vs correlation diagnostics)."""

from bench_report import run_and_report

from repro.experiments import fig10_correlations


def test_fig10_correlations(benchmark, bench_scale):
    result = run_and_report(benchmark, fig10_correlations, bench_scale)
    # Both panels present, one row per target feature, correlations bounded.
    assert {r[0] for r in result.rows} == {"bank", "credit"}
    for row in result.rows:
        assert 0.0 <= row[4] <= 1.0 and 0.0 <= row[5] <= 1.0
