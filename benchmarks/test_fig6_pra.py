"""Bench: regenerate Fig. 6 (PRA correct branching rate vs d_target)."""

from bench_report import run_and_report

from repro.experiments import fig6_pra


def test_fig6_pra(benchmark, bench_scale):
    result = run_and_report(benchmark, fig6_pra, bench_scale)
    # Shape: PRA beats the random-path baseline on every dataset/fraction,
    # and the 11-class drive dataset stays high (paper: small per-class
    # path counts keep the CBR stable).
    for row in result.rows:
        assert row[2] > row[3] - 0.02
    drive = result.filtered(dataset="drive")
    assert min(r[2] for r in drive) > 0.7
