"""Bench: regenerate Fig. 11 (rounding and dropout countermeasures)."""

from bench_report import run_and_report

from repro.experiments import fig11_defenses


def test_fig11_defenses(benchmark, bench_scale):
    result = run_and_report(benchmark, fig11_defenses, bench_scale)
    # Shape: aggressive rounding (b=1) hurts ESA far more than mild
    # rounding (b=3); GRNA is comparatively insensitive to rounding.
    for dataset in ("bank", "drive"):
        coarse = result.filtered(dataset=dataset, defense="round_0.1")
        none = result.filtered(dataset=dataset, defense="no_round")
        mean = lambda rows, i: sum(r[i] for r in rows) / len(rows)
        assert mean(coarse, 4) > mean(none, 4)  # ESA degraded by rounding
        # GRNA under heavy rounding stays within 2x of the undefended run.
        assert mean(coarse, 5) < 2.0 * mean(none, 5) + 0.05
