"""Tiny-scale execution tests for every figure runner.

These run each experiment end-to-end at a micro scale so every code path
(model kinds, distillation, defenses, correlation panels) is exercised in
the unit suite; the benchmark suite asserts the paper-shape claims at the
larger smoke/default scales.
"""

import numpy as np

from repro.experiments import (
    ScaleConfig,
    fig7_grna,
    fig8_grna_rf_cbr,
    fig9_num_predictions,
    fig10_correlations,
    fig11_defenses,
    table3_ablation,
)

MICRO = ScaleConfig(
    name="micro",
    n_samples=160,
    n_predictions=60,
    n_trials=1,
    fractions=(0.4,),
    lr_epochs=4,
    mlp_hidden=(12,),
    mlp_epochs=2,
    rf_trees=3,
    rf_depth=2,
    dt_depth=3,
    grna_hidden=(16,),
    grna_epochs=2,
    grna_batch_size=32,
    distiller_hidden=(24,),
    distiller_dummy=120,
    distiller_epochs=2,
)


class TestFig7:
    def test_runs_all_models(self):
        result = fig7_grna(MICRO, datasets=("bank",), seed=1)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row[0] == "bank" and row[1] == 40
        for value in row[2:]:
            assert np.isfinite(value) and value >= 0

    def test_model_subset(self):
        result = fig7_grna(MICRO, datasets=("bank",), models=("lr",), seed=1)
        assert "grna_lr_mse" in result.columns
        assert "grna_rf_mse" not in result.columns


class TestFig8:
    def test_runs(self):
        result = fig8_grna_rf_cbr(MICRO, datasets=("bank",), seed=1)
        row = result.rows[0]
        assert 0.0 <= row[2] <= 1.0 or np.isnan(row[2])
        assert 0.0 <= row[3] <= 1.0 or np.isnan(row[3])


class TestFig9:
    def test_runs_with_pool_fractions(self):
        result = fig9_num_predictions(
            MICRO, datasets=("bank",), pool_fractions=(0.3, 0.6), seed=1
        )
        assert len(result.rows) == 2
        assert result.column("predictions_pct") == [30, 60]

    def test_prediction_counts_scale_with_pool(self):
        result = fig9_num_predictions(
            MICRO, datasets=("bank",), pool_fractions=(0.2,), seed=1
        )
        assert result.rows[0][2] == 20


class TestFig10:
    def test_panels_and_ranges(self):
        result = fig10_correlations(MICRO, seed=1)
        datasets = {row[0] for row in result.rows}
        assert datasets == {"bank", "credit"}
        for row in result.rows:
            assert 0.0 <= row[4] <= 1.0
            assert 0.0 <= row[5] <= 1.0
            assert row[3] >= 0.0

    def test_one_row_per_target_feature(self):
        result = fig10_correlations(MICRO, seed=1)
        bank_rows = result.filtered(dataset="bank")
        # bank: 20 features at 40% -> 8 target features.
        assert len(bank_rows) == 8


class TestFig11:
    def test_all_defense_rows_present(self):
        result = fig11_defenses(MICRO, seed=1)
        defenses = {row[2] for row in result.rows}
        assert defenses == {"round_0.1", "round_0.001", "no_round", "dropout", "no_dropout"}

    def test_lr_rows_have_esa_and_nn_rows_do_not(self):
        result = fig11_defenses(MICRO, seed=1)
        for row in result.rows:
            if row[1] == "lr":
                assert np.isfinite(row[4])
            else:
                assert np.isnan(row[4])


class TestTable3:
    def test_all_six_cases(self):
        result = table3_ablation(MICRO, seed=1)
        assert [row[0] for row in result.rows] == [1, 2, 3, 4, 5, 6]

    def test_case5_is_full_grn(self):
        result = table3_ablation(MICRO, seed=1)
        case5 = result.rows[4]
        assert case5[1:5] == (True, True, True, True)

    def test_case6_is_random_guess(self):
        result = table3_ablation(MICRO, seed=1)
        case6 = result.rows[5]
        assert case6[1:5] == (False, False, False, False)
        assert 0.0 < case6[5] < 0.5
