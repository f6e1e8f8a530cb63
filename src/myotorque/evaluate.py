"""Cross-validated evaluation of the torque estimator, plus exports.

Splitting happens at the motion-segment level by default so a swing never
straddles the train/test boundary; rows outside any segment always train.
Each fold fits its normalization statistics on training rows only and
scores on the variance-normalized target, which makes results comparable
across joints and velocities. The same training path, run on every row,
produces a reusable estimator that predicts in physical units.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateTarget,
    LengthMismatch,
    ModelFormatError,
    NonPositiveBaseline,
    TooFewUnits,
    ZeroVariance,
)
from .gpr import (
    GpOptions,
    GprModel,
    fit,
    fit_mean,
    load_model,
    optimize_hyperparameters,
    predict,
    predict_mean,
    save_model,
)
from .preprocess import FeatureTable, Joint, ModelConfig, concat_tables
from .recordings import write_float_table
from .timeseries import NormalizationStats, fit_stats

DEFAULT_FOLDS = 5
DEFAULT_TRAIN_CAP = 2000


def mse(truth: np.ndarray, estimate: np.ndarray) -> float:
    a = np.asarray(truth, dtype=np.float64).ravel()
    b = np.asarray(estimate, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise LengthMismatch(f"{a.shape[0]} true values vs {b.shape[0]} estimates")
    if a.shape[0] == 0:
        raise LengthMismatch("mse needs at least one pair")
    return float(np.mean((a - b) ** 2))


def rmse(truth: np.ndarray, estimate: np.ndarray) -> float:
    return float(np.sqrt(mse(truth, estimate)))


def relative_improvement(reference: float, improved: float) -> float:
    """Fractional error reduction going from ``reference`` to ``improved``."""
    if reference <= 0:
        raise NonPositiveBaseline(
            f"reference metric must be positive, got {reference}"
        )
    return (reference - improved) / reference


def rmse_percent_of_peak(error: float, targets: np.ndarray) -> float:
    """An error as a percentage of the peak absolute target value."""
    peak = float(np.max(np.abs(targets)))
    if peak <= 0:
        raise DegenerateTarget("peak torque is zero; percent-of-peak undefined")
    return 100.0 * error / peak


@dataclass(frozen=True)
class FoldAssignment:
    """Which CV fold each unit (motion segment) belongs to.

    Units are shuffled once with the given seed, then dealt round-robin,
    so fold sizes differ by at most one unit.
    """

    k: int
    seed: int
    assignment: dict[int, int]

    def fold_sizes(self) -> list[int]:
        sizes = [0] * self.k
        for fold in self.assignment.values():
            sizes[fold] += 1
        return sizes


def kfold_split(unit_ids, k: int = DEFAULT_FOLDS, seed: int = 0) -> FoldAssignment:
    if k < 2:
        # One fold would test on every unit and train on none of them.
        raise ValueError(f"cross-validation needs at least 2 folds, got {k}")
    ids = [int(u) for u in unit_ids]
    if len(set(ids)) != len(ids):
        raise ValueError("unit ids must be distinct")
    if len(ids) < k:
        raise TooFewUnits(f"{len(ids)} units cannot fill {k} folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    assignment = {ids[order[i]]: i % k for i in range(len(ids))}
    return FoldAssignment(k=k, seed=seed, assignment=assignment)


def _fold_of_row(table: FeatureTable, folds: FoldAssignment) -> np.ndarray:
    """Test fold of every row; -1 marks rows outside every segment, which
    always train."""
    units = table.segment_of_row
    ids = np.fromiter(folds.assignment, dtype=np.intp, count=len(folds.assignment))
    fold_of_unit = np.full(max(units.max(initial=0), ids.max(initial=0)) + 1, -1)
    fold_of_unit[ids] = list(folds.assignment.values())
    fold_of_unit[0] = -1
    fold = fold_of_unit[units]
    if np.any(fold[units > 0] < 0):
        raise TooFewUnits("the fold assignment misses units of the table")
    return fold


def _normalize_columns(
    rows: np.ndarray, stats: list[NormalizationStats]
) -> np.ndarray:
    means = np.array([st.mean for st in stats])
    stds = np.array([st.std_dev for st in stats])
    # A value near the float maximum overflows to inf; the model rejects
    # the non-finite row as a DataError, so numpy's warning is noise.
    with np.errstate(over="ignore"):
        return (rows - means) / stds


def fold_statistics(
    table: FeatureTable, train_mask: np.ndarray
) -> tuple[list[NormalizationStats], NormalizationStats]:
    """Normalization statistics from the masked (training) rows alone.

    This is the only place evaluation derives statistics, so splitting
    hygiene is auditable: the mask is the sole connection to the fold.
    """
    column_stats = []
    for j, name in enumerate(table.column_names):
        try:
            column_stats.append(fit_stats(table.rows[train_mask, j]))
        except ZeroVariance as exc:
            raise ZeroVariance(f"feature column {name!r}: {exc}") from exc
    try:
        target_stats = fit_stats(table.targets[train_mask])
    except ZeroVariance as exc:
        raise DegenerateTarget(f"torque target has no variance: {exc}") from exc
    return column_stats, target_stats


def subsample_stride(n_rows: int, cap: int) -> np.ndarray:
    """Indices of an even subsample with at most ``cap`` elements."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if n_rows <= cap:
        return np.arange(n_rows)
    stride = int(np.ceil(n_rows / cap))
    return np.arange(0, n_rows, stride)


@dataclass
class CvCell:
    """Scores and metadata of one (joint, config) cell of the results table."""

    joint: Joint
    config: ModelConfig
    n_folds: int
    seed: int
    n_rows: int
    n_features: int
    n_segments: int
    mse: float
    rmse: float
    rmse_pct_peak: float
    per_fold_mse: np.ndarray
    noise_variances: np.ndarray

    @property
    def per_fold_rmse(self) -> np.ndarray:
        return np.sqrt(self.per_fold_mse)


@dataclass
class CvPredictions:
    """Row-aligned CV predictions; rows never tested carry fold -1 and NaN."""

    fold_of_row: np.ndarray
    true_norm: np.ndarray
    predicted_norm: np.ndarray
    true_nm: np.ndarray
    predicted_nm: np.ndarray


@dataclass
class CvResult:
    cell: CvCell
    predictions: CvPredictions


def evaluate_cv(
    table: FeatureTable,
    folds: FoldAssignment | None = None,
    options: GpOptions | None = None,
    train_cap: int = DEFAULT_TRAIN_CAP,
    n_folds: int = DEFAULT_FOLDS,
    seed: int = 0,
) -> CvResult:
    """k-fold CV of the GP estimator on one feature table.

    Per fold: normalization statistics from training rows only, even
    training subsample up to ``train_cap`` rows, noise tuned by marginal
    likelihood, test rows scored on the normalized scale. The reported MSE
    pools squared errors over every tested row; RMSE is its square root.
    A fold asks only for the posterior mean, so with the noise alone free
    its model is mean-only (:func:`fit_mean`).
    """
    if folds is None:
        folds = kfold_split(table.segment_ids(), n_folds, seed)
    if options is None:
        options = GpOptions(seed=folds.seed)

    n = table.n_rows
    fold_of_row = _fold_of_row(table, folds)
    predicted_norm = np.full(n, np.nan)
    true_norm = np.full(n, np.nan)
    predicted_nm = np.full(n, np.nan)
    per_fold_mse = np.empty(folds.k)
    noise_variances = np.empty(folds.k)

    for fold in range(folds.k):
        test_mask = fold_of_row == fold
        est = _train(table, ~test_mask, options, train_cap, mean_only=True)
        x_test = _normalize_columns(table.rows[test_mask], est.column_stats)
        t_mean, t_std = est.target_stats.mean, est.target_stats.std_dev
        y_test = (table.targets[test_mask] - t_mean) / t_std
        y_hat = predict_mean(est.model, x_test)
        predicted_norm[test_mask] = y_hat
        true_norm[test_mask] = y_test
        predicted_nm[test_mask] = y_hat * t_std + t_mean
        per_fold_mse[fold] = mse(y_test, y_hat)
        noise_variances[fold] = est.model.hyper.noise_variance
        del est  # the next fold's n x n block need not coexist with it

    tested = fold_of_row >= 0
    pooled_mse = mse(true_norm[tested], predicted_norm[tested])
    err_nm = rmse(table.targets[tested], predicted_nm[tested])
    cell = CvCell(
        joint=table.joint,
        config=table.config,
        n_folds=folds.k,
        seed=folds.seed,
        n_rows=n,
        n_features=table.n_features,
        n_segments=len(table.segment_ids()),
        mse=pooled_mse,
        rmse=float(np.sqrt(pooled_mse)),
        rmse_pct_peak=rmse_percent_of_peak(err_nm, table.targets),
        per_fold_mse=per_fold_mse,
        noise_variances=noise_variances,
    )
    predictions = CvPredictions(
        fold_of_row=fold_of_row,
        true_norm=true_norm,
        predicted_norm=predicted_norm,
        true_nm=np.where(tested, table.targets, np.nan),
        predicted_nm=predicted_nm,
    )
    return CvResult(cell=cell, predictions=predictions)


@dataclass
class TrainedEstimator:
    """A fitted model plus everything needed to apply it to raw features."""

    model: GprModel
    joint: Joint
    config: ModelConfig
    column_names: tuple[str, ...]
    column_stats: list[NormalizationStats]
    target_stats: NormalizationStats
    sample_rate_hz: float

    def predict_torque(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior torque mean and standard deviation in newton-metres."""
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        if rows.shape[1] != len(self.column_stats):
            raise LengthMismatch(
                f"estimator expects {len(self.column_stats)} features, "
                f"got {rows.shape[1]}"
            )
        x = _normalize_columns(rows, self.column_stats)
        mean_norm, var_norm = predict(self.model, x)
        scale = self.target_stats.std_dev
        return (
            mean_norm * scale + self.target_stats.mean,
            np.sqrt(var_norm) * scale,
        )


def train_model(
    table: FeatureTable,
    options: GpOptions | None = None,
    train_cap: int = DEFAULT_TRAIN_CAP,
    seed: int = 0,
) -> TrainedEstimator:
    """Fit a deployable estimator on every row of the table."""
    if options is None:
        options = GpOptions(seed=seed)
    return _train(table, np.ones(table.n_rows, dtype=bool), options, train_cap)


def _train(
    table: FeatureTable,
    train_mask: np.ndarray,
    options: GpOptions,
    train_cap: int,
    mean_only: bool = False,
) -> TrainedEstimator:
    """The one training path of CV folds and :func:`train_model`: statistics
    from the masked rows, an even subsample of at most ``train_cap`` of them
    normalized by those statistics, the noise tuned on it, the exact fit.

    ``mean_only`` takes the fold's model from :func:`fit_mean`, which with
    the noise alone free builds no second n x n block and no Cholesky
    factor, and serves ``predict_mean`` only. Otherwise the fit is the
    Cholesky one a saved model is refit with."""
    column_stats, target_stats = fold_statistics(table, train_mask)
    train_rows = np.flatnonzero(train_mask)
    keep = train_rows[subsample_stride(len(train_rows), train_cap)]
    x = _normalize_columns(table.rows[keep], column_stats)
    y = (table.targets[keep] - target_stats.mean) / target_stats.std_dev
    if mean_only:
        model = fit_mean(x, y, options)
    else:
        model = fit(x, y, optimize_hyperparameters(x, y, options=options))
    return TrainedEstimator(
        model=model,
        joint=table.joint,
        config=table.config,
        column_names=table.column_names,
        column_stats=column_stats,
        target_stats=target_stats,
        sample_rate_hz=table.sample_rate_hz,
    )


def save_estimator(estimator: TrainedEstimator, path) -> None:
    metadata = {
        "joint": estimator.joint.value,
        "config": estimator.config.value,
        "column_names": list(estimator.column_names),
        "column_means": [s.mean for s in estimator.column_stats],
        "column_stds": [s.std_dev for s in estimator.column_stats],
        "target_mean": estimator.target_stats.mean,
        "target_std": estimator.target_stats.std_dev,
        "sample_rate_hz": estimator.sample_rate_hz,
    }
    save_model(estimator.model, path, metadata)


def load_estimator(path) -> TrainedEstimator:
    """Inverse of :func:`save_estimator`; incomplete metadata is a
    :class:`ModelFormatError`, raised before the model is refit."""

    def number(field: str, value) -> float:
        """A finite metadata number as a float; its errors name ``field``."""
        try:
            finite = math.isfinite(value)
        # OverflowError: an integer too large for a float.
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"{field}: {exc}") from None
        if not finite:
            raise ValueError(f"{field} must be finite, got {value}")
        return float(value)

    def stats(mean_field: str, mean, std_field: str, std) -> NormalizationStats:
        try:
            return NormalizationStats(
                mean=number(mean_field, mean), std_dev=number(std_field, std)
            )
        except ZeroVariance as exc:  # a finite std_dev <= 0
            raise ValueError(f"{std_field}: {exc}") from None

    def read_metadata(meta: dict, n_features: int) -> dict:
        try:
            means, stds = meta["column_means"], meta["column_stds"]
            if not len(means) == len(stds) == n_features:
                raise ValueError(
                    f"{len(means)} column means and {len(stds)} column stds "
                    f"for {n_features} model features"
                )
            rate = number("sample_rate_hz", meta["sample_rate_hz"])
            if rate <= 0:
                raise ValueError(f"sample_rate_hz must be > 0, got {rate}")
            return dict(
                joint=Joint(meta["joint"]),
                config=ModelConfig(meta["config"]),
                column_stats=[
                    stats(f"column_means[{i}]", m, f"column_stds[{i}]", s)
                    for i, (m, s) in enumerate(zip(means, stds))
                ],
                column_names=tuple(meta["column_names"]),
                target_stats=stats(
                    "target_mean", meta["target_mean"],
                    "target_std", meta["target_std"],
                ),
                sample_rate_hz=rate,
            )
        except KeyError as exc:
            raise ModelFormatError(f"{path}: model metadata lacks {exc}") from exc
        except (ValueError, TypeError) as exc:
            raise ModelFormatError(f"{path}: bad model metadata: {exc}") from exc

    model, fields = load_model(path, read_metadata)
    return TrainedEstimator(model=model, **fields)


@dataclass
class MetricsReport:
    """All CV cells of a run, keyed by (joint, config)."""

    n_folds: int
    seed: int
    cells: dict[tuple[Joint, ModelConfig], CvCell] = field(default_factory=dict)

    def improvements(self) -> dict[tuple[Joint, ModelConfig, str], float]:
        """Fractional error reduction of each muscle-informed config over
        the kinematics-only baseline, per joint and metric."""
        out: dict[tuple[Joint, ModelConfig, str], float] = {}
        for (joint, config), cell in self.cells.items():
            base = self.cells.get((joint, ModelConfig.BASELINE))
            if config is ModelConfig.BASELINE or base is None:
                continue
            out[(joint, config, "mse")] = relative_improvement(base.mse, cell.mse)
            out[(joint, config, "rmse")] = relative_improvement(base.rmse, cell.rmse)
        return out


_CONFIG_ORDER = (ModelConfig.BASELINE, ModelConfig.EMG, ModelConfig.FMG)
_JOINT_ORDER = (Joint.ANKLE, Joint.KNEE)


def estimate_table(report: MetricsReport) -> str:
    """Render the results as a fixed-width text table.

    One block per joint with one row per input configuration and MSE/RMSE
    columns, followed by the baseline-relative improvements.
    """
    joints = [j for j in _JOINT_ORDER if any(k[0] is j for k in report.cells)]
    lines = [
        f"Torque estimation, {report.n_folds}-fold cross-validation "
        f"(seed {report.seed})",
        "",
        f"{'joint':<8}{'config':<10}{'MSE':>10}{'RMSE':>10}{'RMSE %peak':>12}",
    ]
    for joint in joints:
        for config in _CONFIG_ORDER:
            cell = report.cells.get((joint, config))
            if cell is None:
                continue
            lines.append(
                f"{joint.value:<8}{config.value:<10}"
                f"{cell.mse:>10.4f}{cell.rmse:>10.4f}{cell.rmse_pct_peak:>11.1f}%"
            )
    lines.append("")
    for (joint, config, metric), value in sorted(
        report.improvements().items(),
        key=lambda kv: (kv[0][0].value, kv[0][1].value, kv[0][2]),
    ):
        lines.append(
            f"{joint.value} {config.value} vs baseline: "
            f"{100.0 * value:.1f} % lower {metric.upper()}"
        )
    lines.append("")
    lines.append(
        "MSE and RMSE are computed on torque normalized to unit variance; "
        "lower is better."
    )
    return "\n".join(lines) + "\n"


def write_metrics_csv(report: MetricsReport, path) -> None:
    """Per-fold normalized scores, one row per (joint, config, fold)."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["joint", "config", "fold", "mse_norm", "rmse_norm"])
        for joint in _JOINT_ORDER:
            for config in _CONFIG_ORDER:
                cell = report.cells.get((joint, config))
                if cell is None:
                    continue
                # An integral float's %.17g cell is its %d cell.
                write_float_table(
                    fh,
                    None,
                    [joint.value, config.value, np.arange(cell.n_folds),
                     cell.per_fold_mse, cell.per_fold_rmse],
                )


def export_scatter(result: CvResult, path) -> None:
    """Measured vs estimated torque (newton-metres) for every tested row.

    Every exported row was predicted while held out, so the split tag is
    uniformly "test"; training rows are never predicted during CV.
    """
    tested = result.predictions.fold_of_row >= 0
    with open(path, "w", newline="") as fh:
        write_float_table(
            fh,
            ["measured_nm", "estimated_nm", "split"],
            [result.predictions.true_nm[tested], result.predictions.predicted_nm[tested],
             "test"],
        )


def export_timeseries(
    times_s: np.ndarray,
    measured_nm: np.ndarray,
    estimated_nm: np.ndarray,
    path,
) -> None:
    """One take's measured and estimated torque over time."""
    if not (len(times_s) == len(measured_nm) == len(estimated_nm)):
        raise LengthMismatch("timeseries columns must share length")
    with open(path, "w", newline="") as fh:
        write_float_table(
            fh,
            ["time_s", "measured_nm", "estimated_nm"],
            [times_s, measured_nm, estimated_nm],
        )


FIG_TIMESERIES_VELOCITY = 60.0


@dataclass
class TakeTables:
    """Per-take feature tables of one (joint, config) cell, in session order."""

    joint: Joint
    config: ModelConfig
    velocities: list[float]
    tables: list[FeatureTable]


def evaluate_with_exports(
    cells: dict[tuple[Joint, ModelConfig], TakeTables],
    out_dir,
    n_folds: int = DEFAULT_FOLDS,
    seed: int = 0,
    options: GpOptions | None = None,
    train_cap: int = DEFAULT_TRAIN_CAP,
) -> MetricsReport:
    """Run CV on every cell and write metrics, report, and per-cell CSVs.

    The timeseries export covers one take per cell: the first take at
    60 deg/s (a velocity both joint protocols share), using that take's
    held-out CV predictions.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = MetricsReport(n_folds=n_folds, seed=seed)
    for (joint, config), cell_tables in sorted(
        cells.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
    ):
        table = concat_tables(cell_tables.tables)
        result = evaluate_cv(
            table, options=options, train_cap=train_cap, n_folds=n_folds, seed=seed
        )
        report.cells[(joint, config)] = result.cell
        stem = f"{joint.value}_{config.value}"
        export_scatter(result, out / f"scatter_{stem}.csv")

        velocities = cell_tables.velocities
        pick = next(
            (i for i, v in enumerate(velocities) if v == FIG_TIMESERIES_VELOCITY), 0
        )
        start = sum(t.n_rows for t in cell_tables.tables[:pick])
        stop = start + cell_tables.tables[pick].n_rows
        rows = np.arange(start, stop)
        tested = result.predictions.fold_of_row[rows] >= 0
        rows = rows[tested]
        export_timeseries(
            table.times_s[rows],
            result.predictions.true_nm[rows],
            result.predictions.predicted_nm[rows],
            out / f"timeseries_{stem}.csv",
        )
        # Exported: the next cell's folds, and their n x n blocks, need not
        # coexist with this cell's table and predictions.
        del table, result
    write_metrics_csv(report, out / "metrics.csv")
    (out / "report.txt").write_text(estimate_table(report))
    return report
