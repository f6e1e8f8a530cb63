"""The four benchmark workloads and the checks on their outputs.

Each workload drives the library's public functions the way the matching
``myotorque`` command does, on a knee session generated from the
benchmark seed. A workload has a set-up (timed apart, repeated), a round
(the timed part; a run repeats whole rounds), a check of the last round's
outputs against the numpy oracle or against properties the method must
have, and the per-layer metrics read from its segment of a traced run.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
from tracing import NullTracer
from myotorque import cli
from myotorque.errors import MyotorqueError
from myotorque.evaluate import (
    DEFAULT_FOLDS,
    DEFAULT_TRAIN_CAP,
    TakeTables,
    estimate_table,
    evaluate_with_exports,
    load_estimator,
    save_estimator,
    train_model,
)
from myotorque.gpr import GpOptions
from myotorque.preprocess import (
    Joint,
    ModelConfig,
    build_features,
    compute_calibration,
    concat_tables,
    fmg_channel,
    muscles_for,
)
from myotorque.recordings import load_session
from myotorque.streaming import StreamingPredictor
from myotorque.synthgen import SessionSpec, default_session_spec, generate_session

JOINT = Joint.KNEE
CONFIGS = (ModelConfig.BASELINE, ModelConfig.EMG, ModelConfig.FMG)
GP_SEED = 0                        # the commands' default --seed
PREDICT_TAKE = (150.0, 2)          # the take `predict` scores in session-roundtrip
STREAM_TAKES = ((150.0, 2), (120.0, 2))  # held out of the stream model, then replayed
DROPOUT_FROM_END = 10              # the non-finite row sits this many ticks before a take's end
STREAM_WARMUP_TICKS = 20           # ticks skipped when correlating with batch output
FREE_CAP = 200                     # training cap of train-free-scales
LOG_BOUNDS = (-16.0, 8.0)          # the optimizer's box on every log hyperparameter
MB = 1e6

# Tolerances of the checks.
ORACLE_MEAN_TOL = 1e-6     # max |program - oracle| held-out mean, in target standard deviations
ORACLE_LML_RTOL = 1e-8     # saved log_marginal against the oracle LML
NOISE_GRAD_TOL = 1e-2      # |d LML / d log noise| at the tuned noise (cv-knee fold 0)
FREE_GRAD_TOL = 1e-2       # |d LML / d log theta| at the tuned point (train-free-scales)
PREDICT_NRMSE_MAX = 0.15   # predicted vs exact clean torque, session-roundtrip
STREAM_CORR_MIN = 0.9      # streamed vs batch estimates on the same rows

STREAM_ERRORS = (ValueError, MyotorqueError)


@dataclass(frozen=True)
class Size:
    velocities: tuple[float, ...] | None  # None keeps the protocol's four
    cap: int
    free_cap: int


SIZES = {
    "full": Size(None, DEFAULT_TRAIN_CAP, FREE_CAP),
    # For the benchmark's self-test only: two velocities and small caps.
    "tiny": Size((120.0, 150.0), 600, 60),
}


@dataclass
class Context:
    seed: int
    size: Size
    work_dir: Path
    tracer: object = field(default_factory=NullTracer)

    def spec(self) -> SessionSpec:
        spec = default_session_spec(JOINT, seed=self.seed)
        if self.size.velocities is not None:
            spec = SessionSpec.from_dict(
                {**spec.to_dict(), "velocities_deg_s": list(self.size.velocities)}
            )
        return spec


@dataclass
class Round:
    latencies_s: list[float]
    attempted: int
    failed: int


def find_take(session, velocity: float, index: int):
    for take in session.takes:
        if take.velocity_deg_s == velocity and take.take_index == index:
            return take
    raise KeyError(f"session has no take {index} at {velocity} deg/s")


def feature_tables(session, config: ModelConfig, calib) -> list:
    """Per-take feature tables, as the commands build them."""
    return [build_features(t.recording, JOINT, config, calib) for t in session.takes]


def calibration_of(session):
    return compute_calibration(session.standing, session.initial_angle)


def clean_torque_at(take, times_s: np.ndarray) -> np.ndarray:
    """synthgen's exact torque at take-local FMG-grid times."""
    clean = take.truth.clean_torque_fmg
    idx = np.rint((times_s - clean.start_time_s) * clean.sample_rate_hz).astype(int)
    return clean.values[idx]


def nrmse(estimate: np.ndarray, truth: np.ndarray) -> float:
    return float(np.sqrt(np.mean((estimate - truth) ** 2)) / np.std(truth))


def dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file()) / MB


def at_bound(log_value: float) -> bool:
    return min(abs(log_value - LOG_BOUNDS[0]), abs(log_value - LOG_BOUNDS[1])) < 1e-3


class Workload:
    """Base of the four workloads, which each define ``setup()``,
    ``run_round() -> Round``, ``check(last_round) -> list of problems``
    (empty when correct) and ``layer_metrics(span_view, segment)``."""

    name = ""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.out = ctx.work_dir / self.name
        self.out.mkdir(parents=True, exist_ok=True)


class CvKnee(Workload):
    """`myotorque evaluate --joint knee --config all`, exports included."""

    name = "cv-knee"

    def setup(self):
        self.session = generate_session(self.ctx.spec())

    def run_round(self):
        t0 = perf_counter()
        calib = calibration_of(self.session)
        cells = {}
        for config in CONFIGS:
            with self.ctx.tracer.span(f"bench.features.{config.value}"):
                tables = feature_tables(self.session, config, calib)
            cells[(JOINT, config)] = TakeTables(
                joint=JOINT,
                config=config,
                velocities=[t.velocity_deg_s for t in self.session.takes],
                tables=tables,
            )
        self.report = evaluate_with_exports(
            cells,
            self.out,
            n_folds=DEFAULT_FOLDS,
            seed=GP_SEED,
            options=GpOptions(seed=GP_SEED),
            train_cap=self.ctx.size.cap,
        )
        estimate_table(self.report)  # the table the command prints
        elapsed = perf_counter() - t0
        self.fmg_tables = cells[(JOINT, ModelConfig.FMG)].tables
        return Round([elapsed], 1, 0)

    def _folds(self):
        """The fmg cell's split, rebuilt apart from the program: shuffled
        segments dealt round-robin, statistics from training rows only."""
        tables = self.fmg_tables
        rows = np.concatenate([t.rows for t in tables])
        targets = np.concatenate([t.targets for t in tables])
        segments, offset = [], 0
        for t in tables:
            ids = t.segment_of_row.copy()
            ids[ids > 0] += offset
            segments.append(ids)
            offset = max(offset, int(ids.max(initial=0)))
        segment = np.concatenate(segments)
        units = np.unique(segment[segment > 0])
        order = np.random.default_rng(GP_SEED).permutation(len(units))
        fold_of_unit = np.zeros(int(units.max()) + 1, dtype=int)
        fold_of_unit[units[order]] = np.arange(len(units)) % DEFAULT_FOLDS
        fold_of_row = np.where(segment > 0, fold_of_unit[segment], -1)
        return rows, targets, segment, fold_of_row

    def _fold_data(self, rows, targets, test):
        train = ~test
        mean, std = rows[train].mean(axis=0), rows[train].std(axis=0, ddof=1)
        t_mean, t_std = targets[train].mean(), targets[train].std(ddof=1)
        idx = np.flatnonzero(train)
        cap = self.ctx.size.cap
        stride = 1 if len(idx) <= cap else math.ceil(len(idx) / cap)
        keep = idx[::stride]
        x = (rows - mean) / std
        y = (targets - t_mean) / t_std
        return x[keep], y[keep], x[test], t_mean, t_std

    def check(self, last):
        problems = []
        rmse = {c: self.report.cells[(JOINT, c)].rmse for c in CONFIGS}
        base, emg, fmg = (rmse[c] for c in CONFIGS)
        if not fmg < emg < base:
            problems.append(f"cv-knee: RMSE order fmg < emg < baseline fails: {fmg}, {emg}, {base}")
        if not fmg <= 0.6 * base:
            problems.append(f"cv-knee: fmg RMSE {fmg} exceeds 0.6 x baseline {base}")

        with open(self.out / "metrics.csv", newline="") as fh:
            folds = list(csv.DictReader(fh))
        if len(folds) != len(CONFIGS) * DEFAULT_FOLDS:
            problems.append(f"cv-knee: metrics.csv has {len(folds)} fold rows")
        for row in folds:
            mse, r = float(row["mse_norm"]), float(row["rmse_norm"])
            if not (math.isfinite(r) and r > 0 and r == math.sqrt(mse)):
                problems.append(f"cv-knee: fold row {row} has rmse_norm != sqrt(mse_norm)")

        rows, targets, segment, fold_of_row = self._folds()
        test = fold_of_row == 0
        x_train, y_train, x_test, t_mean, t_std = self._fold_data(rows, targets, test)
        noise = float(self.report.cells[(JOINT, ModelConfig.FMG)].noise_variances[0])
        log_hyper = np.array([0.0, 0.0, math.log(noise)])

        with open(self.out / "scatter_knee_fmg.csv", newline="") as fh:
            scatter = np.array([[float(r["measured_nm"]), float(r["estimated_nm"])]
                                for r in csv.DictReader(fh)])
        tested = segment > 0
        if scatter.shape[0] != tested.sum() or not np.array_equal(scatter[:, 0], targets[tested]):
            problems.append("cv-knee: scatter export rows do not line up with the tested rows")
        else:
            program = scatter[test[tested], 1]
            expected = oracle.predictive_mean(x_train, y_train, x_test, log_hyper) * t_std + t_mean
            err = float(np.max(np.abs(program - expected))) / t_std
            if not err <= ORACLE_MEAN_TOL:
                problems.append(f"cv-knee: fold 0 held-out means differ from the oracle by {err:.3g} sd")
        if not at_bound(log_hyper[2]):
            grad = float(oracle.lml_gradient_fd(x_train, y_train, log_hyper, coords=(2,))[0])
            if not abs(grad) <= NOISE_GRAD_TOL:
                problems.append(f"cv-knee: oracle d LML / d log noise = {grad:.3g} at the tuned noise")
        return problems

    def layer_metrics(self, view, seg):
        m = {}
        for config in CONFIGS:
            (parent,) = view.select(f"bench.features.{config.value}", within=seg)
            m[f"preprocess.build_features_s.{config.value}"] = (
                float(view.durations("preprocess.build_features", within=parent).sum()), "s")
        m["preprocess.emg_envelope_s"] = (float(view.durations("preprocess.emg_envelope", within=seg).sum()), "s")
        m["preprocess.rows"] = (sum(t.n_rows for t in self.fmg_tables), "count")
        # evaluate_with_exports runs the cells in config-name order, CONFIGS' order.
        cells = dict(zip(CONFIGS, view.select("evaluate.evaluate_cv", within=seg)))
        for config, idx in cells.items():
            m[f"evaluate.evaluate_cv_s.{config.value}"] = (float(view.duration[idx]), "s")
        fmg_cell = cells[ModelConfig.FMG]
        m["evaluate.export_s"] = (sum(
            float(view.durations(name, within=seg).sum())
            for name in ("evaluate.export_scatter", "evaluate.export_timeseries",
                         "evaluate.write_metrics_csv", "evaluate.estimate_table")), "s")
        for fn in ("gram_matrix", "optimize_hyperparameters", "fit", "predict_mean"):
            m[f"gpr.{fn}_s"] = (float(np.median(view.durations(f"gpr.{fn}", within=fmg_cell))), "s")
        rows, targets, _, fold_of_row = self._folds()
        blocks = []
        for k in range(DEFAULT_FOLDS):
            test = fold_of_row == k
            blocks.append((len(self._fold_data(rows, targets, test)[1]), int(test.sum())))
        m["gpr.train_rows"] = (blocks[0][0], "count")
        m["gpr.query_rows"] = (blocks[0][1], "count")
        m["gpr.cross_covariance_mb"] = (max(a * b for a, b in blocks) * 8 / MB, "MB")
        for config in CONFIGS:
            m[f"evaluate.cv_rmse.{config.value}"] = (self.report.cells[(JOINT, config)].rmse, "ratio")
        return m


class SessionRoundtrip(Workload):
    """`simulate` to disk, `train --config fmg` on it, `predict` one take."""

    name = "session-roundtrip"

    def setup(self):
        self.session = generate_session(self.ctx.spec())
        self.spec_path = self.out / "spec.json"
        self.spec_path.write_text(json.dumps(self.session.spec.to_dict()))
        self.session_dir = self.out / "session"
        self.model_path = self.out / "knee_fmg.npz"
        self.predict_path = self.out / "predict.csv"

    def run_round(self):
        if self.session_dir.exists():
            shutil.rmtree(self.session_dir)
        velocity, index = PREDICT_TAKE
        commands = [
            ["simulate", "--spec", str(self.spec_path), "--out", str(self.session_dir)],
            ["train", "--session", str(self.session_dir), "--config", "fmg",
             "--cap", str(self.ctx.size.cap), "--out", str(self.model_path)],
            ["predict", "--model", str(self.model_path), "--session", str(self.session_dir),
             "--velocity", f"{velocity:g}", "--take", str(index), "--out", str(self.predict_path)],
        ]
        failed = 0
        t0 = perf_counter()
        with redirect_stdout(io.StringIO()):
            for argv in commands:
                if cli.main(argv) != 0:
                    failed += 1
        elapsed = perf_counter() - t0
        return Round([elapsed], len(commands), failed)

    def _predictions(self):
        with open(self.predict_path, newline="") as fh:
            data = np.array([[float(v) for v in row.values()] for row in csv.DictReader(fh)])
        return data[:, 0], data[:, 2], data[:, 3]  # time, mean, std

    def check(self, last):
        problems = []
        loaded = load_session(self.session_dir)
        gen = self.session
        pairs = [(gen.standing.channels, loaded.standing.channels),
                 ({"angle_deg": gen.initial_angle}, {"angle_deg": loaded.initial_angle})]
        if len(gen.takes) != len(loaded.takes):
            problems.append("session-roundtrip: reloaded session has a different take count")
        for a, b in zip(gen.takes, loaded.takes):
            if (a.velocity_deg_s, a.take_index) != (b.velocity_deg_s, b.take_index):
                problems.append("session-roundtrip: reloaded takes are out of order")
            pairs.append((a.recording.channels, b.recording.channels))
        for want, got in pairs:
            if set(want) != set(got):
                problems.append(f"session-roundtrip: channels {sorted(want)} reload as {sorted(got)}")
                continue
            for label, series in want.items():
                other = got[label]
                if not (np.array_equal(series.values, other.values)
                        and series.sample_rate_hz == other.sample_rate_hz
                        and series.start_time_s == other.start_time_s):
                    problems.append(f"session-roundtrip: channel {label} does not reload bit for bit")

        calib = calibration_of(gen)
        in_memory = train_model(
            concat_tables(feature_tables(gen, ModelConfig.FMG, calib)),
            options=GpOptions(seed=GP_SEED), train_cap=self.ctx.size.cap, seed=GP_SEED,
        )
        take = find_take(gen, *PREDICT_TAKE)
        table = build_features(take.recording, JOINT, ModelConfig.FMG, calib)
        mean, std = in_memory.predict_torque(table.rows)
        re_mean, re_std = load_estimator(self.model_path).predict_torque(table.rows)
        if not (np.array_equal(mean, re_mean) and np.array_equal(std, re_std)):
            problems.append("session-roundtrip: reloaded estimator predicts differently from the in-memory one")
        times, out_mean, out_std = self._predictions()
        if not (np.array_equal(times, table.times_s) and np.array_equal(out_mean, mean)
                and np.array_equal(out_std, std)):
            problems.append("session-roundtrip: predict output differs from the in-memory estimator")
        if not (np.all(np.isfinite(out_std)) and np.all(out_std >= 0)):
            problems.append("session-roundtrip: a predicted std is negative or not finite")
        err = self.predict_nrmse()
        if not err <= PREDICT_NRMSE_MAX:
            problems.append(f"session-roundtrip: predicted torque is {err:.3g} normalized RMSE from the clean torque")
        return problems

    def predict_nrmse(self):
        times, mean, _ = self._predictions()
        take = find_take(self.session, *PREDICT_TAKE)
        return nrmse(mean, clean_torque_at(take, times))

    def layer_metrics(self, view, seg):
        (predict,) = view.select("cli.cmd_predict", within=seg)

        def median_s(name, within=seg):
            return float(np.median(view.durations(name, within=within))), "s"

        session_mb = dir_mb(self.session_dir)
        write_s = median_s("recordings.write_session")[0]
        return {
            "cli.simulate_s": median_s("cli.cmd_simulate"),
            "cli.train_s": median_s("cli.cmd_train"),
            "cli.predict_s": (float(view.duration[predict]), "s"),
            "cli.predict_self_s": (float(view.self_time[predict]), "s"),
            "synthgen.generate_session_s": median_s("synthgen.generate_session"),
            "recordings.write_session_s": (write_s, "s"),
            "recordings.write_mb_s": (session_mb / write_s, "MB/s"),
            "recordings.load_session_s": median_s("recordings.load_session"),
            "recordings.load_take_s": median_s("recordings.load_take"),
            "recordings.session_mb": (session_mb, "MB"),
            "evaluate.train_model_s": median_s("evaluate.train_model"),
            "evaluate.save_estimator_s": median_s("evaluate.save_estimator"),
            "evaluate.load_estimator_s": median_s("evaluate.load_estimator"),
            "evaluate.predict_torque_s": median_s("evaluate.TrainedEstimator.predict_torque", predict),
            "evaluate.model_mb": (self.model_path.stat().st_size / MB, "MB"),
            "gpr.predict_s": median_s("gpr.predict", predict),
            "cli.predict_nrmse": (self.predict_nrmse(), "ratio"),
        }


@dataclass
class Replay:
    take: object
    ticks: list          # (angle_deg, fmg values, time_s) per FMG-rate tick
    dropout: int         # index of the non-finite row
    start_s: float
    rate_hz: float


class StreamReplay(Workload):
    """`StreamingPredictor.push` over held-out takes, one caller, closed loop."""

    name = "stream-replay"

    def setup(self):
        session = generate_session(self.ctx.spec())
        self.calibration = calibration_of(session)
        held = [find_take(session, v, i) for v, i in STREAM_TAKES]
        training = [t for t in session.takes if all(t is not h for h in held)]
        tables = [build_features(t.recording, JOINT, ModelConfig.FMG, self.calibration) for t in training]
        self.estimator = train_model(
            concat_tables(tables), options=GpOptions(seed=GP_SEED),
            train_cap=self.ctx.size.cap, seed=GP_SEED,
        )
        self.replays = [self._replay(take) for take in held]

    @staticmethod
    def _replay(take) -> Replay:
        channels = [take.recording[fmg_channel(m)] for m in muscles_for(JOINT)]
        ref = channels[0]
        times = ref.start_time_s + np.arange(len(ref)) / ref.sample_rate_hz
        angle = take.recording["angle_deg"]
        angle_at = np.interp(times, angle.times, angle.values)
        fmg = np.column_stack([c.values for c in channels])
        ticks = [(float(a), tuple(f.tolist()), float(t)) for a, f, t in zip(angle_at, fmg, times)]
        dropout = len(ticks) - DROPOUT_FROM_END
        ticks[dropout] = (math.nan, (math.nan,) * fmg.shape[1], ticks[dropout][2])
        return Replay(take, ticks, dropout, ref.start_time_s, ref.sample_rate_hz)

    def run_round(self):
        latencies, attempted, failed = [], 0, 0
        self.estimates = []
        for replay in self.replays:
            predictor = StreamingPredictor(self.estimator, self.calibration)
            estimate = np.full(len(replay.ticks), np.nan)
            for i, (angle, fmg, time_s) in enumerate(replay.ticks):
                if i == replay.dropout:
                    try:
                        predictor.push(angle, fmg, time_s)
                    except STREAM_ERRORS:
                        pass
                    continue
                attempted += 1
                t0 = perf_counter()
                try:
                    sample = predictor.push(angle, fmg, time_s)
                except STREAM_ERRORS:
                    sample = None
                t1 = perf_counter()
                if (sample is not None and math.isfinite(sample.torque_nm)
                        and math.isfinite(sample.torque_std_nm)):
                    latencies.append(t1 - t0)
                    estimate[i] = sample.torque_nm
                else:
                    failed += 1
            self.estimates.append(estimate)
        return Round(latencies, attempted, failed)

    def check(self, last):
        problems = []
        after_dropout = sum(len(r.ticks) - r.dropout - 1 for r in self.replays)
        # The known fault (a NaN row poisons the causal filter for the rest
        # of the take) fails exactly the finite ticks after each dropout; a
        # fix moves that count to zero. Anything in between is a new fault.
        if last.failed not in (after_dropout, 0):
            problems.append(f"stream-replay: {last.failed} ticks failed, expected {after_dropout} or 0")
        for replay, estimate in zip(self.replays, self.estimates):
            ok = np.isfinite(estimate)
            ok[replay.dropout] = True
            if not np.all(ok[:replay.dropout]):
                problems.append(f"stream-replay: a tick before the dropout failed on take {replay.take.velocity_deg_s:g}")
            table = build_features(replay.take.recording, JOINT, ModelConfig.FMG, self.calibration)
            batch, _ = self.estimator.predict_torque(table.rows)
            tick = np.rint((table.times_s - replay.start_s) * replay.rate_hz).astype(int)
            use = (tick >= STREAM_WARMUP_TICKS) & np.isfinite(estimate[tick])
            r = float(np.corrcoef(estimate[tick[use]], batch[use])[0, 1])
            if not r >= STREAM_CORR_MIN:
                problems.append(f"stream-replay: streamed vs batch correlation {r:.3f} on take {replay.take.velocity_deg_s:g}")
        return problems

    def stream_nrmse(self):
        est, truth = [], []
        for replay, estimate in zip(self.replays, self.estimates):
            ok = np.flatnonzero(np.isfinite(estimate))
            est.append(estimate[ok])
            truth.append(replay.take.truth.clean_torque_fmg.values[ok])
        return nrmse(np.concatenate(est), np.concatenate(truth))

    def layer_metrics(self, view, seg):
        push = view.durations("streaming.CausalFilter.push", within=seg, ok_only=True)
        tick = view.durations("evaluate.TrainedEstimator.predict_torque", within=seg,
                              parent="streaming.StreamingPredictor.push", ok_only=True)
        return {
            "streaming.filter_push_us": (float(np.median(push)) * 1e6, "us"),
            "streaming.predict_tick_ms.p50": (float(np.median(tick)) * 1e3, "ms"),
            "streaming.predict_tick_ms.p99": (float(np.percentile(tick, 99)) * 1e3, "ms"),
            "streaming.nrmse": (self.stream_nrmse(), "ratio"),
        }


class TrainFreeScales(Workload):
    """`train --config fmg --fix-scales false` on each take of a knee session.

    One free-scale train costs what its L-BFGS-B search takes, and the
    number of evaluations follows the data (116 to 181 at 300 rows across
    sessions), so a round trains on every take, twelve independent
    problems, at a cap of 200 rows.
    """

    name = "train-free-scales"

    def setup(self):
        self.session = generate_session(self.ctx.spec())

    def model_path(self, i: int) -> Path:
        return self.out / f"take{i:02d}_fmg_free.npz"

    def run_round(self):
        options = GpOptions(seed=GP_SEED, optimize_output_scale=True, optimize_length_scale=True)
        t0 = perf_counter()
        self.tables = feature_tables(self.session, ModelConfig.FMG, calibration_of(self.session))
        for i, table in enumerate(self.tables):
            estimator = train_model(table, options=options,
                                    train_cap=self.ctx.size.free_cap, seed=GP_SEED)
            save_estimator(estimator, self.model_path(i))
        elapsed = perf_counter() - t0
        return Round([elapsed], len(self.tables), 0)

    def _training_data(self, table):
        rows, targets = table.rows, table.targets
        cap = self.ctx.size.free_cap
        stride = 1 if len(rows) <= cap else math.ceil(len(rows) / cap)
        x = (rows - rows.mean(axis=0)) / rows.std(axis=0, ddof=1)
        y = (targets - targets.mean()) / targets.std(ddof=1)
        return x[::stride], y[::stride]

    def check(self, last):
        problems = []
        for i, table in enumerate(self.tables):
            problems += [f"train-free-scales: take {i}: {p}" for p in self._check_model(i, table)]
        return problems

    def _check_model(self, i, table):
        model = load_estimator(self.model_path(i)).model
        x, y = self._training_data(table)
        if not (x.shape == model.inputs.shape and np.allclose(model.inputs, x, rtol=0, atol=1e-12)
                and np.allclose(model.targets, y, rtol=0, atol=1e-12)):
            return ["saved training rows differ from the normalized subsample"]
        problems = []
        hyper = model.hyper
        log_hyper = np.log([hyper.output_scale, hyper.length_scale, hyper.noise_variance])
        lml = oracle.log_marginal(x, y, log_hyper)
        if not abs(lml - model.log_marginal) <= ORACLE_LML_RTOL * max(1.0, abs(lml)):
            problems.append(f"saved log_marginal {model.log_marginal} vs oracle {lml}")
        start = oracle.log_marginal(x, y, np.zeros(3))
        if not lml >= start:
            problems.append(f"tuned LML {lml} is below the start point's {start}")
        free = tuple(c for c in range(3) if not at_bound(log_hyper[c]))
        grad = oracle.lml_gradient_fd(x, y, log_hyper, coords=free)
        if free and not np.max(np.abs(grad)) <= FREE_GRAD_TOL:
            problems.append(f"oracle LML gradient {grad} at the tuned point {log_hyper}")
        return problems

    def layer_metrics(self, view, seg):
        grads = view.durations("gpr.lml_gradient", within=seg)
        return {
            "gpr.lml_gradient_s": (float(np.median(grads)), "s"),
            "gpr.lml_gradient_calls": (len(grads), "count"),
            "gpr.optimize_hyperparameters_s.free": (
                float(np.median(view.durations("gpr.optimize_hyperparameters", within=seg))), "s"),
        }


WORKLOADS = {w.name: w for w in (CvKnee, SessionRoundtrip, StreamReplay, TrainFreeScales)}
