"""Bench: regenerate Fig. 8 (GRNA on the RF model, CBR metric)."""

from bench_report import run_and_report

from repro.experiments import fig8_grna_rf_cbr


def test_fig8_grna_rf_cbr(benchmark, bench_scale):
    result = run_and_report(benchmark, fig8_grna_rf_cbr, bench_scale)
    # Shape: on average GRNA recovers more branches than random guessing.
    grna = sum(r[2] for r in result.rows) / len(result.rows)
    rg = sum(r[3] for r in result.rows) / len(result.rows)
    assert grna > rg
