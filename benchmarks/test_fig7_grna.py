"""Bench: regenerate Fig. 7 (GRNA MSE for LR/RF/NN vs d_target)."""

from bench_report import run_and_report

from repro.experiments import fig7_grna


def test_fig7_grna(benchmark, bench_scale):
    result = run_and_report(benchmark, fig7_grna, bench_scale)
    # Shape: every GRNA variant beats the uniform random-guess baseline on
    # every dataset/fraction, with a clear average margin (the Gaussian
    # baseline is tighter; per-cell wins against it need more trials than
    # the smoke scale runs).
    for row in result.rows:
        assert row[2] < row[5] and row[3] < row[5] and row[4] < row[5]
    mean = lambda i: sum(r[i] for r in result.rows) / len(result.rows)
    assert mean(2) < 0.8 * mean(6)
    assert mean(4) < 0.8 * mean(6)
