"""Synthetic session generator: determinism, physics, and ground truth."""

import dataclasses

import numpy as np
import pytest
from scipy import signal

from myotorque import filters
from myotorque.errors import InvalidSpec
from myotorque.preprocess import Joint, compute_calibration, muscles_for
from myotorque.synthgen import (
    NoiseSpec,
    SessionSpec,
    TorqueModel,
    _band_noise,
    default_session_spec,
    generate_calibration,
    generate_session,
    generate_take,
)


def arrays_of(obj, path="session"):
    """Every array reachable from a generated session, by path."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from arrays_of(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from arrays_of(value, f"{path}[{key}]")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from arrays_of(value, f"{path}[{i}]")


def quiet_spec(**overrides):
    """Small noise-free knee protocol with a sample-aligned swing period."""
    base = dict(
        joint=Joint.KNEE,
        velocities_deg_s=(50.0,),
        angle_low_deg=20.0,
        angle_high_deg=70.0,  # span 50 deg at 50 deg/s: period exactly 2 s
        takes_per_velocity=1,
        swings_per_take=4,
        rep_amplitude_jitter=0.0,
        high_rate_hz=2000.0,
        fmg_rate_hz=200.0,
        seed=7,
        torque=TorqueModel(
            0.3, 0.04, {m: (30.0 if i % 2 else -30.0)
                        for i, m in enumerate(muscles_for(Joint.KNEE))}
        ),
        noise=NoiseSpec(emg_snr=1e9, fmg_noise_std=0.0, torque_noise_std=0.0,
                        angle_noise_std_deg=0.0, fmg_drift_amp=0.0),
    )
    base.update(overrides)
    return SessionSpec(**base)


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            quiet_spec(angle_low_deg=80.0)  # low above high
        with pytest.raises(ValueError):
            quiet_spec(swings_per_take=0)
        with pytest.raises(ValueError):
            quiet_spec(fmg_rate_hz=300.0)  # 2000/300 not an integer

    def test_dict_round_trip(self):
        spec = default_session_spec(Joint.ANKLE)
        assert SessionSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: [1, 2], "JSON object"),
            (lambda d: {k: v for k, v in d.items() if k != "seed"}, "lacks 'seed'"),
            (lambda d: {**d, "joint": 5}, "'joint' must be a string"),
            (lambda d: {**d, "joint": "elbow"}, "unknown joint"),
            (lambda d: {**d, "seed": "7"}, "'seed' must be an integer"),
            (lambda d: {**d, "takes_per_velocity": True}, "must be an integer"),
            (lambda d: {**d, "hold_s": None}, "'hold_s' must be a number"),
            (lambda d: {**d, "velocities_deg_s": 60}, "must be a list"),
            (lambda d: {**d, "velocities_deg_s": [60, "x"]}, "velocity must be"),
            (lambda d: {**d, "torque": []}, "'torque' must be"),
            (lambda d: {**d, "torque": {**d["torque"], "muscle_weights": {"XX": 1}}},
             "unknown muscle"),
            (lambda d: {**d, "noise": {**d["noise"], "snr": 3.0}},
             r"unknown noise keys \['snr'\]"),
            (lambda d: {**d, "angle_low_deg": 200.0}, "must exceed"),
            (lambda d: {**d, "fmg_rate_hz": 0}, "invalid session spec"),
            (lambda d: {**d, "seed": -1}, "seed must be >= 0"),
        ],
    )
    def test_malformed_dict_is_invalid_spec(self, edit, message):
        d = default_session_spec(Joint.KNEE).to_dict()
        with pytest.raises(InvalidSpec, match=message):
            SessionSpec.from_dict(edit(d))

    def test_noise_keys_default_when_missing(self):
        d = default_session_spec(Joint.KNEE).to_dict()
        d["noise"] = {"emg_snr": 5}
        spec = SessionSpec.from_dict(d)
        assert spec.noise == NoiseSpec(emg_snr=5.0)

    def test_default_specs_cover_both_joints(self):
        knee = default_session_spec(Joint.KNEE)
        ankle = default_session_spec(Joint.ANKLE)
        assert knee.joint is Joint.KNEE
        assert ankle.joint is Joint.ANKLE
        assert knee.takes_per_velocity * len(knee.velocities_deg_s) == 12
        assert ankle.takes_per_velocity * len(ankle.velocities_deg_s) == 12
        assert 60.0 in knee.velocities_deg_s
        assert 60.0 in ankle.velocities_deg_s
        assert default_session_spec(Joint.KNEE, seed=9).seed == 9


class TestDeterminism:
    def test_take_regeneration_is_bit_identical(self):
        spec = default_session_spec(Joint.KNEE)
        a = generate_take(spec, 60.0, 1)
        b = generate_take(spec, 60.0, 1)
        for label in a.recording.labels():
            assert np.array_equal(
                a.recording[label].values, b.recording[label].values
            )
        assert np.array_equal(a.truth.efforts, b.truth.efforts)

    def test_takes_differ_from_each_other(self):
        spec = default_session_spec(Joint.KNEE)
        a = generate_take(spec, 60.0, 0)
        b = generate_take(spec, 60.0, 1)
        assert not np.array_equal(
            a.recording["torque_nm"].values, b.recording["torque_nm"].values
        )

    def test_seed_changes_everything(self):
        a = generate_take(quiet_spec(noise=NoiseSpec()), 50.0, 0)
        b = generate_take(quiet_spec(noise=NoiseSpec(), seed=8), 50.0, 0)
        assert not np.array_equal(
            a.recording["torque_nm"].values, b.recording["torque_nm"].values
        )

    def test_session_is_the_same_with_a_cold_design_cache(self):
        spec = default_session_spec(Joint.KNEE, seed=5)
        filters._butterworth.cache_clear()
        cold = dict(arrays_of(generate_session(spec)))
        warm = dict(arrays_of(generate_session(spec)))
        assert cold.keys() == warm.keys() and len(cold) > 100
        for path, values in cold.items():
            assert np.array_equal(values, warm[path]), path

    def test_band_noise_matches_scipy_reference(self):
        n, rate = 5000, 2000.0
        white = np.random.default_rng(3).standard_normal(n)
        sos = signal.butter(4, [20.0, 500.0], btype="bandpass", fs=rate, output="sos")
        shaped = signal.sosfiltfilt(sos, white, padtype="odd", padlen=24)
        got = _band_noise(np.random.default_rng(3), n, rate)
        assert np.array_equal(got, shaped / np.std(shaped))

    def test_sensor_offsets_shared_across_takes(self):
        spec = default_session_spec(Joint.ANKLE)
        a = generate_take(spec, 60.0, 0)
        b = generate_take(spec, 120.0, 2)
        assert a.truth.calibration.fmg_offsets == b.truth.calibration.fmg_offsets
        assert a.truth.calibration.angle_offset == b.truth.calibration.angle_offset


class TestMotionProfile:
    def test_swing_period_is_exact(self):
        # Span 50 deg at 50 deg/s gives a 2 s hi-lo-hi period, which is a
        # whole number of samples, so mid-sweep swings repeat exactly.
        take = generate_take(quiet_spec(), 50.0, 0)
        angle = take.recording["angle_deg"].values
        peaks = take.truth.swing_peak_times_s
        period = int(round(2.0 * 2000.0))
        i0 = int(round(peaks[0] * 2000.0))
        i1 = int(round(peaks[-2] * 2000.0))
        seg = angle[i0:i1]
        assert np.allclose(seg, angle[i0 + period : i1 + period], atol=1e-9)

    def test_plateau_velocity_within_one_percent(self):
        take = generate_take(quiet_spec(), 50.0, 0)
        truth = take.truth
        omega = truth.true_velocity.values
        peaks = truth.swing_peak_times_s
        t = truth.true_angle.times
        # Middle of the first descending leg: clean constant speed.
        mid = (t > peaks[0] + 0.3) & (t < peaks[0] + 0.7)
        assert np.median(np.abs(omega[mid])) == pytest.approx(50.0, rel=0.01)

    def test_angle_stays_in_protocol_band(self):
        take = generate_take(quiet_spec(), 50.0, 0)
        angle = take.truth.true_angle.values
        assert angle.min() >= 20.0 - 1e-6
        assert angle.max() <= 70.0 + 1e-6

    def test_segment_boundaries_are_angle_maxima(self):
        take = generate_take(quiet_spec(), 50.0, 0)
        step = 10
        angle_fmg = take.truth.true_angle.values[::step]
        for idx in take.truth.segment_boundaries_fmg:
            lo = max(0, idx - 3)
            window = angle_fmg[lo : idx + 4]
            assert np.max(window) == pytest.approx(angle_fmg[idx], abs=1e-3)

    def test_boundary_count_and_segment_count(self):
        spec = quiet_spec(swings_per_take=6)
        take = generate_take(spec, 50.0, 0)
        assert len(take.truth.segment_boundaries_fmg) == 7
        assert take.truth.segment_count == 6


class TestTorqueLaw:
    def test_reconstruction_from_truth_fields(self):
        take = generate_take(quiet_spec(), 50.0, 0)
        truth = take.truth
        c = truth.coefficients
        rebuilt = c.angle_coeff * (
            truth.true_angle.values - truth.true_angle.values[0]
        )
        rebuilt += c.velocity_coeff * truth.true_velocity.values
        for m, w in c.muscle_weights.items():
            rebuilt += w * truth.activations[m].values
        assert np.max(np.abs(rebuilt - truth.clean_torque.values)) < 1e-10

    def test_fmg_rate_torque_is_exact_subsample(self):
        take = generate_take(quiet_spec(), 50.0, 0)
        truth = take.truth
        assert np.array_equal(
            truth.clean_torque.values[::10], truth.clean_torque_fmg.values
        )

    def test_zero_weights_leave_pure_kinematic_torque(self):
        spec = quiet_spec(
            torque=TorqueModel(0.3, 0.04,
                               {m: 0.0 for m in muscles_for(Joint.KNEE)})
        )
        take = generate_take(spec, 50.0, 0)
        truth = take.truth
        expect = 0.3 * (truth.true_angle.values - truth.true_angle.values[0])
        expect += 0.04 * truth.true_velocity.values
        assert np.allclose(truth.clean_torque.values, expect, atol=1e-12)

    def test_muscles_fire_on_opposite_half_cycles(self):
        take = generate_take(quiet_spec(), 50.0, 0)
        weights = take.truth.coefficients.muscle_weights
        pos = [m for m, w in weights.items() if w > 0]
        neg = [m for m, w in weights.items() if w < 0]
        a_pos = take.truth.activations[pos[0]].values
        a_neg = take.truth.activations[neg[0]].values
        overlap = np.minimum(a_pos, a_neg)
        assert np.max(overlap) < 1e-9  # never active together
        assert a_pos.max() > 0.5
        assert a_neg.max() > 0.5

    def test_effort_jitter_spreads_swing_peaks(self):
        spec = default_session_spec(Joint.KNEE)
        take = generate_take(spec, 60.0, 0)
        efforts = take.truth.efforts
        assert np.all(np.abs(efforts - 1.0) <= spec.rep_amplitude_jitter + 1e-12)
        assert np.ptp(efforts) > spec.rep_amplitude_jitter / 4


class TestSensorModels:
    def test_emg_is_zero_mean_and_tracks_activation_power(self):
        spec = default_session_spec(Joint.KNEE)
        take = generate_take(spec, 60.0, 0)
        m = muscles_for(Joint.KNEE)[0]
        emg = take.recording[f"emg_{m.name}"].values
        act = take.truth.activations[m].values
        assert abs(np.mean(emg)) < 1e-5
        active = act > 0.5 * act.max()
        idle = act < 1e-9
        assert np.std(emg[active]) > 5 * np.std(emg[idle])

    def test_fmg_offset_recoverable(self):
        spec = default_session_spec(Joint.ANKLE)
        take = generate_take(spec, 60.0, 0)
        m = muscles_for(Joint.ANKLE)[0]
        fmg = take.recording[f"fmg_{m.name}"].values
        act = take.truth.activations[m].values[::10]
        idle = act < 1e-9
        est = float(np.mean(fmg[idle]))
        assert est == pytest.approx(
            take.truth.calibration.fmg_offsets[m], abs=0.02
        )

    def test_calibration_recordings_match_truth(self):
        spec = default_session_spec(Joint.KNEE)
        standing, initial_angle, truth = generate_calibration(spec)
        measured = compute_calibration(standing, initial_angle)
        for m in muscles_for(Joint.KNEE):
            assert measured.fmg_offsets[m] == pytest.approx(
                truth.fmg_offsets[m], abs=5e-3
            )
        assert measured.angle_offset == pytest.approx(
            truth.angle_offset, abs=0.05
        )

    def test_calibration_lengths(self):
        spec = default_session_spec(Joint.KNEE)
        standing, initial_angle, _ = generate_calibration(spec)
        label = standing.labels()[0]
        assert len(standing[label]) == int(10.0 * spec.fmg_rate_hz)
        assert len(initial_angle) == int(10.0 * spec.high_rate_hz)


class TestSession:
    def test_default_session_take_grid(self, knee_session, ankle_session):
        assert len(knee_session.takes) == 12
        assert len(ankle_session.takes) == 12
        velocities = sorted({t.velocity_deg_s for t in knee_session.takes})
        assert velocities == sorted(knee_session.spec.velocities_deg_s)

    def test_session_calibration_agrees_with_takes(self, knee_session):
        take_truth = knee_session.takes[0].truth.calibration
        assert knee_session.calibration.fmg_offsets == take_truth.fmg_offsets
        assert knee_session.calibration.angle_offset == take_truth.angle_offset

    def test_rejects_out_of_protocol_velocity(self):
        spec = quiet_spec()
        with pytest.raises(ValueError):
            generate_take(spec, 123.0, 0)
