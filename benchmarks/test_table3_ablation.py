"""Bench: regenerate Table III (GRN component ablation on bank + LR)."""

from bench_report import run_and_report

from repro.experiments import table3_ablation


def test_table3_ablation(benchmark, bench_scale):
    result = run_and_report(benchmark, table3_ablation, bench_scale)
    mse = {row[0]: row[5] for row in result.rows}
    # Paper-shape assertions: the full GRN (case 5) beats random guess
    # (case 6), and removing the generator entirely (case 4) is the single
    # most damaging change — worse than random guessing.
    assert mse[5] < mse[6]
    assert mse[4] > mse[6]
