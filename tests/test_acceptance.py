"""Acceptance gate: seven checks, one printed [PASS]/[FAIL] line each.

They pin, in order: the error-reduction arithmetic on the reference
cross-validation scores this package is built to reproduce, the GP and
filter numerics against independent oracles, preprocessing fidelity on
the pinned synthetic sessions, the fmg < emg < baseline error ordering,
determinism plus train/test hygiene, and causal-vs-batch agreement.
Each check also enforces its runtime budget.
"""

import math
from time import perf_counter

import numpy as np
import pytest

from myotorque.cli import main
from myotorque.evaluate import (
    evaluate_cv,
    fold_statistics,
    kfold_split,
    relative_improvement,
    train_model,
)
from myotorque.filters import (
    design_butterworth_bandpass,
    design_butterworth_lowpass,
    filtfilt,
)
from myotorque.gpr import (
    GpOptions,
    Hyperparameters,
    fit,
    lml_gradient,
    log_marginal_likelihood,
    predict,
)
from myotorque.preprocess import (
    FeatureTable,
    Joint,
    ModelConfig,
    build_features,
    compute_calibration,
    concat_tables,
    emg_channel,
    emg_envelope,
    fmg_channel,
    muscles_for,
)
from myotorque.recordings import write_session
from myotorque.streaming import StreamingPredictor


def _check(log: list, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] {name}"
    if detail:
        line += f"  ({detail})"
    log.append(line)
    print(line, flush=True)
    assert ok, line


def _corr(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.corrcoef(a, b)[0, 1])


# --------------------------------------------------------------------------
# 1. Error-reduction arithmetic on the reference 5-fold CV scores
#    (normalized scale; measured on human-subject data this desk-scale
#    build cannot regenerate, so the scores themselves are pinned inputs).

REFERENCE_SCORES = {
    # joint: {metric: (baseline, fmg)}
    "ankle": {"mse": (0.0906, 0.0105), "rmse": (0.3009, 0.1026)},
    "knee": {"mse": (0.0428, 0.0092), "rmse": (0.2070, 0.0957)},
}

CLAIMED_REDUCTION_PCT = {
    ("ankle", "mse"): 88.4,
    ("ankle", "rmse"): 65.9,
    ("knee", "mse"): 78.5,
    ("knee", "rmse"): 53.8,
}


def test_01_reference_improvement_arithmetic(acceptance_log):
    t0 = perf_counter()
    ok = True
    got = {}
    for (joint, metric), claimed in CLAIMED_REDUCTION_PCT.items():
        base, fmg = REFERENCE_SCORES[joint][metric]
        pct = 100.0 * relative_improvement(base, fmg)
        got[(joint, metric)] = pct
        ok = ok and abs(pct - claimed) <= 0.5
    elapsed = perf_counter() - t0
    ok = ok and elapsed < 1.0
    detail = ", ".join(
        f"{j} {m} {got[(j, m)]:.1f}% vs {c}%"
        for (j, m), c in CLAIMED_REDUCTION_PCT.items()
    )
    _check(
        acceptance_log,
        "improvement arithmetic reproduces the reference reductions +-0.5",
        ok,
        f"{detail}; {elapsed:.2f}s",
    )


# --------------------------------------------------------------------------
# 2. GP regression numerics against dense linear algebra.


def _gram_oracle(x: np.ndarray, hyper: Hyperparameters) -> np.ndarray:
    n = len(x)
    k = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            d2 = float(np.sum((x[i] - x[j]) ** 2))
            k[i, j] = hyper.output_scale**2 * math.exp(
                -d2 / (2.0 * hyper.length_scale**2)
            )
    return k


def _lml_oracle(x: np.ndarray, y: np.ndarray, hyper: Hyperparameters) -> float:
    k = _gram_oracle(x, hyper) + hyper.noise_variance * np.eye(len(y))
    sign, logdet = np.linalg.slogdet(k)
    assert sign > 0
    return float(
        -0.5 * y @ np.linalg.inv(k) @ y
        - 0.5 * logdet
        - 0.5 * len(y) * np.log(2.0 * np.pi)
    )


def test_02_gpr_correctness(acceptance_log):
    t0 = perf_counter()

    worst_lml = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 51))
        x = rng.standard_normal((n, int(rng.integers(1, 4))))
        y = rng.standard_normal(n)
        hyper = Hyperparameters(
            output_scale=float(rng.uniform(0.3, 3.0)),
            length_scale=float(rng.uniform(0.3, 3.0)),
            noise_variance=float(rng.uniform(0.01, 1.0)),
        )
        model = fit(x, y, hyper)
        worst_lml = max(
            worst_lml,
            abs(log_marginal_likelihood(model) - _lml_oracle(x, y, hyper)),
        )
    lml_ok = worst_lml < 1e-8

    worst_grad = 0.0
    h = 1e-5
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        x = rng.standard_normal((20, 2))
        y = rng.standard_normal(20)
        hyper = Hyperparameters(1.3, 0.9, 0.2)
        grad = lml_gradient(fit(x, y, hyper))
        theta = hyper.log_array()
        for i in range(3):
            up, dn = theta.copy(), theta.copy()
            up[i] += h
            dn[i] -= h
            fd = (
                _lml_oracle(x, y, Hyperparameters.from_log_array(up))
                - _lml_oracle(x, y, Hyperparameters.from_log_array(dn))
            ) / (2.0 * h)
            worst_grad = max(
                worst_grad, abs(grad[i] - fd) / max(1.0, abs(fd))
            )
    grad_ok = worst_grad <= 1e-4

    rng = np.random.default_rng(7)
    x = rng.uniform(-2.0, 2.0, (40, 2))
    y = np.sin(x[:, 0]) + 0.5 * np.cos(2.0 * x[:, 1])
    clean = fit(x, y, Hyperparameters(1.0, 1.0, 1e-10))
    mean_at_train, _ = predict(clean, x)
    interp_err = float(np.max(np.abs(mean_at_train - y)))
    interp_ok = interp_err < 1e-6

    grid = np.vstack([x, rng.uniform(-30.0, 30.0, (200, 2))])
    _, var = predict(clean, grid)
    prior_var = clean.hyper.output_scale**2
    var_ok = bool(np.all(var >= 0.0) and np.all(var <= prior_var + 1e-9))

    elapsed = perf_counter() - t0
    ok = lml_ok and grad_ok and interp_ok and var_ok and elapsed < 30.0
    _check(
        acceptance_log,
        "GP numerics: dense-oracle LML, FD gradients, interpolation, "
        "variance bounds",
        ok,
        f"lml err {worst_lml:.1e}, grad rel err {worst_grad:.1e}, "
        f"interp err {interp_err:.1e}, var in bounds {var_ok}; {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 3. Filter designs and zero-phase behaviour via a direct frequency oracle.

# Every design the pipeline constructs: velocity pre-filter (batch and
# causal rates), envelope smoother, and the EMG band-pass.
_PIPELINE_LOWPASS = [(2, 20.0, 2000.0), (4, 6.0, 2000.0), (2, 20.0, 200.0)]
_PIPELINE_BANDPASS = [(4, 20.0, 500.0, 2000.0)]


def _sos_response(sos: np.ndarray, f_hz: float, fs_hz: float) -> complex:
    """Transfer function at one frequency, straight from the sections."""
    z = np.exp(2j * np.pi * f_hz / fs_hz)
    h = 1.0 + 0.0j
    for b0, b1, b2, a0, a1, a2 in sos:
        h *= (b0 + b1 / z + b2 / z**2) / (a0 + a1 / z + a2 / z**2)
    return h


def _sos_poles(sos: np.ndarray) -> np.ndarray:
    return np.concatenate([np.roots(row[3:]) for row in sos])


def test_03_filter_suite(acceptance_log):
    t0 = perf_counter()
    stable_ok = dc_ok = cut_ok = True
    worst_dc = worst_cut = 0.0

    designs = []
    for order, fc, fs in _PIPELINE_LOWPASS:
        coeffs = design_butterworth_lowpass(order, fc, fs)
        designs.append((coeffs, [fc], fs))
        dc_err = abs(abs(_sos_response(coeffs.sos, 0.0, fs)) - 1.0)
        worst_dc = max(worst_dc, dc_err)
        dc_ok = dc_ok and dc_err <= 1e-9
    for order, lo, hi, fs in _PIPELINE_BANDPASS:
        coeffs = design_butterworth_bandpass(order, lo, hi, fs)
        designs.append((coeffs, [lo, hi], fs))

    for coeffs, cutoffs, fs in designs:
        stable_ok = stable_ok and bool(
            np.all(np.abs(_sos_poles(coeffs.sos)) < 1.0)
        )
        for fc in cutoffs:
            gain_err = abs(abs(_sos_response(coeffs.sos, fc, fs)) - 0.7071)
            worst_cut = max(worst_cut, gain_err)
            cut_ok = cut_ok and gain_err <= 1e-3

    # Zero phase: a passband sinusoid keeps its alignment through the
    # forward-backward pass (cross-correlation peak at lag zero).
    fs = 2000.0
    coeffs = design_butterworth_lowpass(4, 6.0, fs)
    t = np.arange(int(8.0 * fs)) / fs
    phase_ok = True
    for f_sig in (1.0, 3.0):
        x = np.sin(2.0 * np.pi * f_sig * t)
        y = filtfilt(coeffs, x)
        m = len(x) // 2
        lags = range(-40, 41)
        xc = [np.dot(y[m - 2000 + k : m + 2000 + k], x[m - 2000 : m + 2000])
              for k in lags]
        phase_ok = phase_ok and (int(np.argmax(xc)) == 40)

    x = np.sin(2.0 * np.pi * 6.0 * t)
    y = filtfilt(coeffs, x)
    mid = y[len(y) // 4 : -len(y) // 4]
    two_pass_gain = float(np.ptp(mid) / 2.0)
    amp_ok = abs(two_pass_gain - 0.5) <= 1e-2

    elapsed = perf_counter() - t0
    ok = stable_ok and dc_ok and cut_ok and phase_ok and amp_ok and elapsed < 10.0
    _check(
        acceptance_log,
        "filter suite: stability, DC gain, cutoff gains, zero phase, "
        "two-pass cutoff amplitude",
        ok,
        f"dc err {worst_dc:.1e}, cutoff err {worst_cut:.1e}, "
        f"two-pass gain {two_pass_gain:.4f}; {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 4. Preprocessing fidelity on the pinned synthetic sessions (seed 42).


def test_04_pipeline_fidelity(acceptance_log, knee_session, ankle_session):
    t0 = perf_counter()
    assert knee_session.spec.seed == 42 and ankle_session.spec.seed == 42
    n_takes = 0
    seg_ok = True
    min_env = min_fmg = 1.0
    for session in (knee_session, ankle_session):
        spec = session.spec
        calib = compute_calibration(session.standing, session.initial_angle)
        step = int(round(spec.high_rate_hz / spec.fmg_rate_hz))
        for take in session.takes:
            n_takes += 1
            table = build_features(
                take.recording, spec.joint, ModelConfig.FMG, calib
            )
            seg_ok = seg_ok and (
                len(table.segment_ids()) == take.truth.segment_count
            )
            for m in muscles_for(spec.joint):
                act = take.truth.activations[m].values
                env = emg_envelope(take.recording[emg_channel(m)]).values
                min_env = min(min_env, _corr(env, act))
                fmg = take.recording[fmg_channel(m)].values
                min_fmg = min(min_fmg, _corr(fmg, act[::step]))
    elapsed = perf_counter() - t0
    ok = (
        n_takes == 24
        and seg_ok
        and min_env >= 0.9
        and min_fmg >= 0.95
        and elapsed < 60.0
    )
    _check(
        acceptance_log,
        "pipeline fidelity: segment counts and signal-activation agreement "
        "on all 24 takes",
        ok,
        f"segments match {seg_ok}, min envelope corr {min_env:.3f}, "
        f"min fmg corr {min_fmg:.3f}; {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 5. Error ordering of the three input configurations on both joints.


def _cv_rmse(session, config: ModelConfig) -> float:
    calib = compute_calibration(session.standing, session.initial_angle)
    tables = [
        build_features(t.recording, session.spec.joint, config, calib)
        for t in session.takes
    ]
    result = evaluate_cv(
        concat_tables(tables), options=GpOptions(seed=0), train_cap=2000
    )
    return result.cell.rmse


def test_05_input_config_ordering(acceptance_log, knee_session, ankle_session):
    t0 = perf_counter()
    ok = True
    details = []
    for session in (ankle_session, knee_session):
        scores = {
            config: _cv_rmse(session, config)
            for config in (ModelConfig.BASELINE, ModelConfig.EMG, ModelConfig.FMG)
        }
        base = scores[ModelConfig.BASELINE]
        emg = scores[ModelConfig.EMG]
        fmg = scores[ModelConfig.FMG]
        ok = ok and (fmg < emg < base) and (fmg <= 0.6 * base)
        details.append(
            f"{session.spec.joint.value} rmse base {base:.4f} emg {emg:.4f} "
            f"fmg {fmg:.4f}"
        )
    elapsed = perf_counter() - t0
    ok = ok and elapsed < 300.0
    _check(
        acceptance_log,
        "5-fold normalized RMSE orders fmg < emg < baseline on both joints "
        "with fmg <= 0.6 x baseline",
        ok,
        "; ".join(details) + f"; {elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# 6. Determinism of the evaluate command and train/test isolation.


def test_06_no_leakage_and_determinism(acceptance_log, knee_session, tmp_path, capsys):
    t0 = perf_counter()

    session_dir = tmp_path / "session"
    write_session(knee_session, session_dir)
    runs = []
    for sub in ("a", "b"):
        code = main([
            "evaluate", "--session", str(session_dir), "--joint", "knee",
            "--config", "fmg", "--cap", "300", "--seed", "0",
            "--out", str(tmp_path / sub),
        ])
        assert code == 0
        runs.append((tmp_path / sub / "metrics.csv").read_bytes())
    capsys.readouterr()
    identical = runs[0] == runs[1]

    # Structural hygiene: statistics and the tuned fold model may depend
    # on training rows only, so corrupting one fold's test rows must leave
    # both bit-identical for that fold.
    n = 800
    t = np.linspace(0.0, 4.0 * np.pi, n)
    rows = np.column_stack([np.sin(t), np.cos(t)])
    targets = 2.0 * rows[:, 0] - rows[:, 1]
    segments = 1 + np.arange(n) // 80
    table = FeatureTable(
        joint=Joint.ANKLE, config=ModelConfig.BASELINE, rows=rows,
        targets=targets, segment_of_row=segments, times_s=t,
        sample_rate_hz=200.0,
        column_names=("angle_deg", "velocity_deg_s"),
    )
    folds = kfold_split(table.segment_ids(), k=5, seed=0)
    fold = 1
    test_rows = np.isin(
        table.segment_of_row,
        [u for u, f in folds.assignment.items() if f == fold],
    )
    bad_rows = rows.copy()
    bad_rows[test_rows] *= 40.0
    bad_targets = targets.copy()
    bad_targets[test_rows] -= 1e3
    corrupted = FeatureTable(
        joint=Joint.ANKLE, config=ModelConfig.BASELINE, rows=bad_rows,
        targets=bad_targets, segment_of_row=segments, times_s=t,
        sample_rate_hz=200.0,
        column_names=("angle_deg", "velocity_deg_s"),
    )

    stats_clean = fold_statistics(table, ~test_rows)
    stats_dirty = fold_statistics(corrupted, ~test_rows)
    stats_same = all(
        a.mean == b.mean and a.std_dev == b.std_dev
        for a, b in zip(stats_clean[0] + [stats_clean[1]],
                        stats_dirty[0] + [stats_dirty[1]])
    )
    cv_clean = evaluate_cv(table, folds=folds, seed=0)
    cv_dirty = evaluate_cv(corrupted, folds=folds, seed=0)
    noise_same = bool(
        cv_clean.cell.noise_variances[fold]
        == cv_dirty.cell.noise_variances[fold]
    )
    corruption_visible = (
        cv_dirty.cell.per_fold_mse[fold] > 100.0 * cv_clean.cell.per_fold_mse[fold]
    )

    elapsed = perf_counter() - t0
    ok = (
        identical and stats_same and noise_same and corruption_visible
        and elapsed < 300.0
    )
    _check(
        acceptance_log,
        "repeated evaluation is byte-identical and fold models never see "
        "test rows",
        ok,
        f"metrics.csv identical {identical}, stats unchanged {stats_same}, "
        f"fold noise unchanged {noise_same}; {elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# 7. Causal streaming tracks the batch estimator.


def test_07_streaming_consistency(acceptance_log, knee_session):
    t0 = perf_counter()
    session = knee_session
    spec = session.spec
    calib = compute_calibration(session.standing, session.initial_angle)
    tables = [
        build_features(t.recording, spec.joint, ModelConfig.FMG, calib)
        for t in session.takes[:3]
    ]
    estimator = train_model(
        concat_tables(tables), options=GpOptions(seed=0), train_cap=600
    )

    held_out = session.takes[4]
    batch_table = build_features(
        held_out.recording, spec.joint, ModelConfig.FMG, calib
    )
    batch_est, _ = estimator.predict_torque(batch_table.rows)

    muscles = muscles_for(spec.joint)
    step = int(round(spec.high_rate_hz / spec.fmg_rate_hz))
    angle = held_out.recording["angle_deg"].values[::step]
    fmg = np.column_stack(
        [held_out.recording[fmg_channel(m)].values for m in muscles]
    )
    stream = StreamingPredictor(estimator, calib)
    n = min(len(angle), len(fmg), len(batch_est))
    streamed = np.array(
        [stream.push(angle[i], tuple(fmg[i])).torque_nm for i in range(n)]
    )
    r = _corr(streamed[20:], batch_est[20:n])
    elapsed = perf_counter() - t0
    ok = r >= 0.9 and elapsed < 30.0
    _check(
        acceptance_log,
        "streamed estimates track batch estimates on a replayed take",
        ok,
        f"correlation {r:.3f} over {n - 20} ticks; {elapsed:.1f}s",
    )
