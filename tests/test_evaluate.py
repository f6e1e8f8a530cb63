"""Scoring metrics, fold assignment, CV hygiene, and result exports."""

import csv
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import myotorque.evaluate as evaluate
from myotorque.errors import (
    DegenerateTarget,
    LengthMismatch,
    ModelFormatError,
    NonPositiveBaseline,
    TooFewUnits,
    ZeroVariance,
)
from myotorque.evaluate import (
    DEFAULT_TRAIN_CAP,
    CvResult,
    FoldAssignment,
    MetricsReport,
    _fold_of_row,
    _normalize_columns,
    _train,
    estimate_table,
    evaluate_cv,
    export_scatter,
    export_timeseries,
    fold_statistics,
    kfold_split,
    load_estimator,
    mse,
    relative_improvement,
    rmse,
    rmse_percent_of_peak,
    save_estimator,
    subsample_stride,
    train_model,
    write_metrics_csv,
)
from myotorque.gpr import GpOptions, load_model, predict_mean, save_model
from myotorque.preprocess import FeatureTable, Joint, ModelConfig, feature_columns


def make_table(rows, targets, segments, config=ModelConfig.BASELINE):
    """Ankle table from raw arrays; baseline keeps the width at two."""
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    return FeatureTable(
        joint=Joint.ANKLE,
        config=config,
        rows=rows,
        targets=np.asarray(targets, dtype=np.float64),
        segment_of_row=np.asarray(segments, dtype=np.intp),
        times_s=np.arange(n) / 200.0,
        sample_rate_hz=200.0,
        column_names=feature_columns(Joint.ANKLE, config),
    )


def smooth_table(n_segments=10, rows_per_segment=100):
    """Noise-free table whose target is a linear map of the two features."""
    n = n_segments * rows_per_segment
    t = np.linspace(0.0, 6.0 * np.pi, n)
    rows = np.column_stack([np.sin(t), np.cos(t)])
    targets = 0.5 * rows[:, 0] - 0.2 * rows[:, 1] + 3.0
    segments = 1 + np.arange(n) // rows_per_segment
    return make_table(rows, targets, segments)


class TestMetrics:
    def test_mse_rmse_hand_values(self):
        truth = np.array([1.0, 2.0, 3.0])
        est = np.array([1.0, 4.0, 2.0])
        assert mse(truth, est) == pytest.approx((0 + 4 + 1) / 3)
        assert rmse(truth, est) == pytest.approx(np.sqrt(5 / 3))

    def test_perfect_estimate_scores_zero(self):
        y = np.linspace(-2, 5, 40)
        assert mse(y, y) == 0.0
        assert rmse(y, y) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mse(np.zeros(3), np.zeros(4))

    def test_relative_improvement(self):
        assert relative_improvement(2.0, 0.5) == pytest.approx(0.75)
        assert relative_improvement(2.0, 2.0) == 0.0
        assert relative_improvement(1.0, 2.0) == pytest.approx(-1.0)
        with pytest.raises(NonPositiveBaseline):
            relative_improvement(0.0, 0.5)

    def test_rmse_percent_of_peak(self):
        targets = np.array([-10.0, 4.0, 7.0])
        assert rmse_percent_of_peak(2.0, targets) == pytest.approx(20.0)
        with pytest.raises(DegenerateTarget):
            rmse_percent_of_peak(1.0, np.zeros(5))


class TestFolds:
    def test_balanced_sizes(self):
        folds = kfold_split(np.arange(1, 14), k=5, seed=0)
        sizes = folds.fold_sizes()
        assert sum(sizes) == 13
        assert max(sizes) - min(sizes) <= 1

    def test_each_unit_appears_once(self):
        ids = np.arange(1, 22)
        folds = kfold_split(ids, k=5, seed=3)
        assert sorted(folds.assignment) == list(ids)

    def test_seed_changes_assignment_not_membership(self):
        ids = np.arange(1, 31)
        a = kfold_split(ids, k=5, seed=0)
        b = kfold_split(ids, k=5, seed=1)
        assert a.assignment != b.assignment
        assert kfold_split(ids, k=5, seed=0).assignment == a.assignment

    def test_too_few_units(self):
        with pytest.raises(TooFewUnits):
            kfold_split(np.arange(1, 5), k=5)

    def test_duplicate_units_rejected(self):
        with pytest.raises(ValueError):
            kfold_split(np.array([1, 2, 2, 3, 4]), k=2)

    @pytest.mark.parametrize("k", [1, 0, -3])
    def test_fewer_than_two_folds_rejected(self, k):
        # One fold would train only on the rows outside every segment.
        with pytest.raises(ValueError, match="at least 2 folds"):
            kfold_split(np.arange(1, 10), k=k)

    def test_subsample_stride(self):
        assert list(subsample_stride(5, 10)) == [0, 1, 2, 3, 4]
        idx = subsample_stride(10, 4)
        assert len(idx) <= 4
        assert idx[0] == 0
        diffs = np.diff(idx)
        assert np.all(diffs == diffs[0])  # even spacing
        with pytest.raises(ValueError):
            subsample_stride(10, 0)


def reference_fold_of_row(table, folds):
    """Per-row loop: the fold of each row's segment, -1 for segment 0."""
    out = np.full(table.n_rows, -1)
    for i in range(table.n_rows):
        u = int(table.segment_of_row[i])
        if u != 0:
            out[i] = folds.assignment[u]
    return out


class TestFoldOfRow:
    def test_segments_match_the_row_loop(self):
        table = smooth_table()
        segs = table.segment_of_row.copy()
        segs[:150] = 0
        segs[-30:] = 0
        table = make_table(table.rows, table.targets, segs)
        for seed in range(3):
            folds = kfold_split(table.segment_ids(), k=4, seed=seed)
            split = _fold_of_row(table, folds)
            assert np.array_equal(split, reference_fold_of_row(table, folds))
            assert np.all(split[:150] == -1)

    def test_unassigned_unit_rejected(self):
        table = smooth_table()
        folds = kfold_split(table.segment_ids()[:-1], k=5, seed=0)
        with pytest.raises(TooFewUnits):
            _fold_of_row(table, folds)


class TestFoldStatistics:
    def test_stats_come_from_masked_rows_only(self):
        table = smooth_table()
        mask = np.zeros(table.n_rows, dtype=bool)
        mask[:200] = True
        col_stats, tgt_stats = fold_statistics(table, mask)
        assert col_stats[0].mean == pytest.approx(
            np.mean(table.rows[:200, 0])
        )
        assert tgt_stats.std_dev == pytest.approx(
            np.std(table.targets[:200], ddof=1)
        )

    def test_constant_column_names_the_feature(self):
        table = smooth_table()
        rows = table.rows.copy()
        rows[:, 1] = 5.0
        flat = make_table(rows, table.targets, table.segment_of_row)
        with pytest.raises(ZeroVariance, match="velocity_deg_s"):
            fold_statistics(flat, np.ones(flat.n_rows, dtype=bool))

    def test_constant_target_is_degenerate(self):
        table = smooth_table()
        flat = make_table(
            table.rows, np.full(table.n_rows, 2.0), table.segment_of_row
        )
        with pytest.raises(DegenerateTarget):
            fold_statistics(flat, np.ones(flat.n_rows, dtype=bool))


class TestEvaluateCv:
    def test_learnable_map_scores_near_zero(self):
        result = evaluate_cv(smooth_table(), seed=0)
        assert result.cell.mse < 1e-4
        assert result.cell.n_segments == 10
        assert len(result.cell.per_fold_mse) == 5

    def test_pure_noise_scores_near_unit_variance(self, rng):
        n = 1000
        rows = rng.standard_normal((n, 2))
        targets = rng.standard_normal(n)
        segments = 1 + np.arange(n) // 100
        result = evaluate_cv(make_table(rows, targets, segments), seed=0)
        assert 0.8 < result.cell.mse < 1.25

    def test_deterministic(self):
        table = smooth_table()
        a = evaluate_cv(table, seed=0)
        b = evaluate_cv(table, seed=0)
        assert np.array_equal(a.cell.per_fold_mse, b.cell.per_fold_mse)
        assert np.array_equal(
            a.predictions.predicted_nm, b.predictions.predicted_nm
        )

    def test_predictions_cover_all_segmented_rows(self):
        table = smooth_table()
        result = evaluate_cv(table, seed=0)
        tested = result.predictions.fold_of_row >= 0
        assert np.array_equal(tested, table.segment_of_row > 0)
        assert np.all(np.isnan(result.predictions.predicted_nm[~tested]))
        assert np.all(np.isfinite(result.predictions.predicted_nm[tested]))

    def test_unsegmented_rows_never_tested(self):
        table = smooth_table()
        segs = table.segment_of_row.copy()
        segs[:150] = 0  # first segment and a half becomes warmup
        table2 = make_table(table.rows, table.targets, segs)
        result = evaluate_cv(table2, seed=0)
        assert np.all(result.predictions.fold_of_row[:150] == -1)

    def test_no_leakage_from_test_rows(self):
        # Corrupting fold f's test rows must not change the model trained
        # for fold f: its tuned noise variance stays bit-identical.
        table = smooth_table()
        folds = kfold_split(table.segment_ids(), k=5, seed=0)
        clean = evaluate_cv(table, folds=folds, seed=0)
        fold = 2
        test_units = [u for u, f in folds.assignment.items() if f == fold]
        bad = np.isin(table.segment_of_row, test_units)
        assert bad.any()
        targets = table.targets.copy()
        targets[bad] += 100.0
        rows = table.rows.copy()
        rows[bad] *= -3.0
        corrupted = make_table(rows, targets, table.segment_of_row)
        dirty = evaluate_cv(corrupted, folds=folds, seed=0)
        assert (
            dirty.cell.noise_variances[fold] == clean.cell.noise_variances[fold]
        )
        # Sanity: the corruption did reach the scores of that fold.
        assert dirty.cell.per_fold_mse[fold] > 10 * clean.cell.per_fold_mse[fold]

    def test_one_fold_model_at_a_time(self):
        # A fold builds one n x n block, the search's gram matrix, whose
        # reflectors give the mean-only model's weights before it is
        # freed. The previous fold's block is gone by then, so the peak
        # stays near one block (n = 1,200 training rows per fold here,
        # 11.5 MB); with it alive it is two.
        table = smooth_table(n_segments=5, rows_per_segment=300)
        tracemalloc.start()
        try:
            evaluate_cv(table, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 1200**2 * 8

    @pytest.mark.parametrize("case", [
        "noise at the lower bound", "one training row", "pure noise", "noisy map",
    ])
    def test_mean_only_folds_match_the_cholesky_fit(self, rng, case):
        # A noise-only fold's model comes from the search's reduction; its
        # held-out means are those of fit + predict_mean, to rounding.
        table, cap = smooth_table(), DEFAULT_TRAIN_CAP
        if case == "one training row":
            cap = 1
        elif case == "pure noise":
            n = 1000
            table = make_table(
                rng.standard_normal((n, 2)), rng.standard_normal(n),
                1 + np.arange(n) // 100,
            )
        elif case == "noisy map":
            noisy = table.targets + 0.5 * np.sin(17.0 * table.times_s)
            table = make_table(table.rows, noisy, table.segment_of_row)
        result = evaluate_cv(table, train_cap=cap, seed=0)
        if case == "noise at the lower bound":
            assert np.all(result.cell.noise_variances == math.exp(-16.0))
        fold_of_row = result.predictions.fold_of_row
        for fold in range(result.cell.n_folds):
            test = fold_of_row == fold
            est = _train(table, ~test, GpOptions(seed=0), cap)
            assert est.model.cholesky_lower is not None
            assert est.model.n_train == (1 if case == "one training row" else 800)
            x_test = _normalize_columns(table.rows[test], est.column_stats)
            expected = predict_mean(est.model, x_test)
            err = np.max(np.abs(result.predictions.predicted_norm[test] - expected))
            assert err <= 1e-9

    @pytest.mark.parametrize("free", [False, True], ids=["noise only", "free scale"])
    def test_only_noise_only_folds_are_mean_only(self, monkeypatch, free):
        models = []
        real_fit = evaluate.fit

        def recording_fit(*args, **kwargs):
            models.append(real_fit(*args, **kwargs))
            return models[-1]

        monkeypatch.setattr(evaluate, "fit", recording_fit)
        evaluate_cv(smooth_table(4, 25), n_folds=2, seed=0,
                    options=GpOptions(seed=0, optimize_length_scale=free))
        assert len(models) == 2
        assert all((m.cholesky_lower is not None) == free for m in models)

    def test_train_cap_is_respected(self):
        table = smooth_table()
        capped = evaluate_cv(table, train_cap=50, seed=0)
        uncapped = evaluate_cv(table, seed=0)
        assert capped.cell.mse < 0.05  # smooth map still easy from 50 points
        assert not np.array_equal(
            capped.predictions.predicted_nm, uncapped.predictions.predicted_nm
        )


class TestTrainedEstimator:
    def test_train_then_predict_recovers_map(self):
        table = smooth_table()
        est = train_model(table, options=GpOptions(seed=0), train_cap=400)
        mean, std = est.predict_torque(table.rows)
        assert rmse(table.targets, mean) < 1e-3
        assert np.all(std >= 0)

    def test_wrong_width_rejected(self):
        est = train_model(smooth_table(), train_cap=100)
        with pytest.raises(LengthMismatch):
            est.predict_torque(np.zeros((4, 3)))

    def test_save_load_round_trip(self, tmp_path):
        table = smooth_table()
        est = train_model(table, train_cap=200)
        path = tmp_path / "model.npz"
        save_estimator(est, path)
        loaded = load_estimator(path)
        assert loaded.joint is est.joint
        assert loaded.config is est.config
        assert loaded.column_names == est.column_names
        assert loaded.sample_rate_hz == est.sample_rate_hz
        m0, s0 = est.predict_torque(table.rows[:50])
        m1, s1 = loaded.predict_torque(table.rows[:50])
        assert np.array_equal(m0, m1)
        assert np.array_equal(s0, s1)


    @pytest.mark.parametrize("key", ["column_means", "target_std", "joint"])
    def test_missing_metadata_key_is_model_format_error(self, tmp_path, key):
        est = train_model(smooth_table(), train_cap=100)
        path = tmp_path / "model.npz"
        save_estimator(est, path)
        model, meta = load_model(path)
        del meta[key]
        save_model(model, path, meta)
        with pytest.raises(ModelFormatError, match=key):
            load_estimator(path)

    def test_metadata_width_mismatch_is_model_format_error(self, tmp_path):
        est = train_model(smooth_table(), train_cap=100)
        path = tmp_path / "model.npz"
        save_estimator(est, path)
        model, meta = load_model(path)
        meta["column_stds"] = meta["column_stds"][:-1]
        save_model(model, path, meta)
        with pytest.raises(ModelFormatError, match="column stds"):
            load_estimator(path)


@pytest.fixture(scope="module")
def report():
    report = MetricsReport(n_folds=5, seed=0)
    table = smooth_table()
    result = evaluate_cv(table, seed=0)
    report.cells[(Joint.ANKLE, ModelConfig.BASELINE)] = result.cell
    noisy = make_table(
        table.rows,
        table.targets + 0.5 * np.sin(17.0 * table.times_s),
        table.segment_of_row,
    )
    report.cells[(Joint.ANKLE, ModelConfig.FMG)] = evaluate_cv(noisy, seed=0).cell
    return report


class TestReportAndExports:
    def test_improvements_sign_and_key(self, report):
        imps = report.improvements()
        key = (Joint.ANKLE, ModelConfig.FMG, "mse")
        assert key in imps
        assert imps[key] < 0  # the noisy cell is worse than baseline

    def test_estimate_table_lists_every_cell(self, report):
        text = estimate_table(report)
        assert "ankle" in text
        assert "baseline" in text
        assert "fmg" in text
        assert "vs baseline" in text

    def test_metrics_csv_round_trip(self, report, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10  # 2 cells x 5 folds
        assert set(rows[0]) == {"joint", "config", "fold", "mse_norm", "rmse_norm"}
        cell = report.cells[(Joint.ANKLE, ModelConfig.BASELINE)]
        got = [
            float(r["mse_norm"]) for r in rows if r["config"] == "baseline"
        ]
        assert got == list(cell.per_fold_mse)  # full-precision round trip

    def test_metrics_csv_bytes_with_twelve_folds(self, report, tmp_path):
        # Two-digit fold numbers, and fold scores that take the writer's
        # fast path and its %-formatted zero.
        mse = np.array([0.0, 1e-300, 0.1, 2.5] + [1.0 / k for k in range(3, 11)])
        cell = dataclasses.replace(report.cells[(Joint.ANKLE, ModelConfig.BASELINE)],
                                   n_folds=12, per_fold_mse=mse)
        one = MetricsReport(n_folds=12, seed=0, cells={(Joint.KNEE, ModelConfig.EMG): cell})
        path = tmp_path / "metrics.csv"
        write_metrics_csv(one, path)
        assert path.read_bytes() == (
            "joint,config,fold,mse_norm,rmse_norm\r\n" + "".join(
                f"knee,emg,{k},{format(m, '.17g')},{format(math.sqrt(m), '.17g')}\r\n"
                for k, m in enumerate(mse.tolist())
            )
        ).encode()

    def test_scatter_export(self, tmp_path):
        result = evaluate_cv(smooth_table(), seed=0)
        path = tmp_path / "scatter.csv"
        export_scatter(result, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        tested = result.predictions.fold_of_row >= 0
        assert len(rows) == int(tested.sum())
        assert set(rows[0]) == {"measured_nm", "estimated_nm", "split"}
        assert {r["split"] for r in rows} == {"test"}
        assert float(rows[0]["measured_nm"]) == result.predictions.true_nm[
            tested
        ][0]

    def test_timeseries_export(self, tmp_path):
        times = np.array([0.0, 0.005, 0.01])
        measured = np.array([1.0, 2.0, 3.0])
        estimated = np.array([1.1, 1.9, 3.2])
        path = tmp_path / "ts.csv"
        export_timeseries(times, measured, estimated, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"time_s", "measured_nm", "estimated_nm"}
        assert [float(r["estimated_nm"]) for r in rows] == [1.1, 1.9, 3.2]
