"""Preprocessing pipeline: calibration, envelopes, velocity, segmentation,
feature assembly. Oracles are constructed signals with known answers."""

import numpy as np
import pytest
from scipy import signal

from myotorque.errors import MissingChannel, NoMotionDetected
from myotorque.preprocess import (
    ALIGNED_RATE_HZ,
    CalibrationRecord,
    FeatureTable,
    Joint,
    ModelConfig,
    Muscle,
    apply_calibration,
    build_features,
    compute_calibration,
    concat_tables,
    emg_envelope,
    feature_columns,
    feature_dimension,
    fmg_channel,
    joint_velocity,
    muscles_for,
    segment_ids_for_rows,
    segment_motions,
    smooth_angle,
)
from myotorque.timeseries import MultiChannelRecording, TimeSeries, Unit

HI = 2000.0


def series(values, rate=HI, start=0.0, label="x", unit=Unit.DIMENSIONLESS):
    return TimeSeries(label, unit, rate, start, np.asarray(values, dtype=float))


class TestVocabulary:
    def test_muscle_counts(self):
        assert len(muscles_for(Joint.ANKLE)) == 3
        assert len(muscles_for(Joint.KNEE)) == 5

    def test_feature_dimensions(self):
        assert feature_dimension(Joint.ANKLE, ModelConfig.BASELINE) == 2
        assert feature_dimension(Joint.ANKLE, ModelConfig.EMG) == 5
        assert feature_dimension(Joint.ANKLE, ModelConfig.FMG) == 5
        assert feature_dimension(Joint.KNEE, ModelConfig.BASELINE) == 2
        assert feature_dimension(Joint.KNEE, ModelConfig.EMG) == 7
        assert feature_dimension(Joint.KNEE, ModelConfig.FMG) == 7

    def test_feature_columns_start_with_kinematics(self):
        cols = feature_columns(Joint.KNEE, ModelConfig.FMG)
        assert cols[:2] == ("angle_deg", "velocity_deg_s")
        assert len(cols) == 7


class TestCalibration:
    def test_offsets_are_channel_means(self, rng):
        muscles = muscles_for(Joint.ANKLE)
        offsets = {m: float(rng.uniform(0.5, 1.5)) for m in muscles}
        standing = MultiChannelRecording(
            channels={
                fmg_channel(m): series(
                    offsets[m] + 0.01 * rng.standard_normal(400),
                    rate=200.0,
                    label=fmg_channel(m),
                    unit=Unit.NORMALIZED_FORCE,
                )
                for m in muscles
            },
            meta={},
        )
        pose = series(
            57.0 + 0.05 * rng.standard_normal(1000), label="angle_deg",
            unit=Unit.DEGREES,
        )
        calib = compute_calibration(standing, pose)
        # The estimate is exactly the sample mean.
        for m in muscles:
            expect = float(np.mean(standing[fmg_channel(m)].values))
            assert calib.fmg_offsets[m] == pytest.approx(expect, abs=1e-15)
            assert calib.fmg_offsets[m] == pytest.approx(offsets[m], abs=5e-3)
        assert calib.angle_offset == pytest.approx(float(np.mean(pose.values)),
                                                   abs=1e-12)

    def test_apply_subtracts_offsets(self):
        m = muscles_for(Joint.ANKLE)[0]
        rec = MultiChannelRecording(
            channels={
                "angle_deg": series([10.0, 11.0], label="angle_deg",
                                    unit=Unit.DEGREES),
                fmg_channel(m): series([1.2, 1.3], label=fmg_channel(m)),
            },
            meta={},
        )
        calib = CalibrationRecord(fmg_offsets={m: 1.0}, angle_offset=10.0)
        out = apply_calibration(rec, calib)
        assert np.allclose(out["angle_deg"].values, [0.0, 1.0])
        assert np.allclose(out[fmg_channel(m)].values, [0.2, 0.3])

    def test_uncovered_fmg_channel_rejected(self):
        # Every FMG channel present in the recording needs an offset.
        rec = MultiChannelRecording(
            channels={
                "angle_deg": series([1.0, 2.0], label="angle_deg"),
                fmg_channel(Muscle.TA): series([1.0, 2.0],
                                               label=fmg_channel(Muscle.TA)),
            },
            meta={},
        )
        calib = CalibrationRecord(fmg_offsets={Muscle.GM: 1.0}, angle_offset=0.0)
        with pytest.raises(MissingChannel):
            apply_calibration(rec, calib)


class TestEmgEnvelope:
    def test_recovers_amplitude_modulation(self, rng):
        # AM oracle: a known slow envelope modulates a wideband carrier.
        # After bandpass/rectify/lowpass the output must track the envelope
        # up to the rectification gain.
        t = np.arange(int(10 * HI)) / HI
        envelope = 1.0 + 0.8 * np.sin(2 * np.pi * 0.4 * t)
        carrier = rng.standard_normal(t.size)
        from myotorque.filters import design_butterworth_bandpass, filtfilt

        shaped = filtfilt(design_butterworth_bandpass(4, 20.0, 500.0, HI), carrier)
        shaped = shaped / np.std(shaped)
        raw = series(envelope * shaped, label="emg_TA", unit=Unit.VOLTS)
        out = emg_envelope(raw)
        core = slice(int(HI), int(9 * HI))
        r = np.corrcoef(out.values[core], envelope[core])[0, 1]
        assert r > 0.95
        # Rectified unit-variance noise has mean sqrt(2/pi); the envelope
        # scale should come back within ~10 %.
        gain = np.mean(out.values[core]) / np.mean(envelope[core])
        assert gain == pytest.approx(np.sqrt(2.0 / np.pi), rel=0.1)

    def test_matches_scipy_chain(self, rng):
        # Band-pass, rectify, low-pass: the plain scipy chain, bit for bit,
        # on the raw channel's grid.
        x = rng.normal(0.0, 1e-3, 6000)
        band = signal.butter(4, [20.0, 500.0], btype="bandpass", fs=HI, output="sos")
        low = signal.butter(4, 6.0, fs=HI, output="sos")
        expect = signal.sosfiltfilt(
            low,
            np.abs(signal.sosfiltfilt(band, x, padtype="odd", padlen=24)),
            padtype="odd",
            padlen=12,
        )
        out = emg_envelope(series(x, start=1.5, label="emg_TA", unit=Unit.VOLTS))
        assert np.array_equal(out.values, expect)
        assert (out.label, out.unit) == ("emg_TA", Unit.VOLTS)
        assert (out.sample_rate_hz, out.start_time_s) == (HI, 1.5)

    def test_removes_dc_offset(self):
        # The 20 Hz highpass edge kills a constant baseline.
        raw = series(np.full(8000, 0.5), label="emg_TA", unit=Unit.VOLTS)
        out = emg_envelope(raw)
        assert np.max(np.abs(out.values[2000:-2000])) < 1e-6


class TestVelocity:
    def test_triangle_wave_plateaus(self):
        # A triangle angle has piecewise-constant slope; after smoothing,
        # the interior of each leg must sit at the true rate.
        period = 2.0
        t = np.arange(int(8 * HI)) / HI
        tri = 20.0 * np.abs(2.0 * (t / period - np.floor(t / period + 0.5)))
        s = series(tri, label="angle_deg", unit=Unit.DEGREES)
        vel = joint_velocity(s)
        assert vel.unit is Unit.DEGREES_PER_SECOND
        slope = 20.0 * 2.0 / period
        falling = (t % period > 1.2) & (t % period < 1.8)
        rising = (t % period > 0.2) & (t % period < 0.8)
        assert np.median(vel.values[falling]) == pytest.approx(-slope, rel=0.01)
        assert np.median(vel.values[rising]) == pytest.approx(slope, rel=0.01)

    def test_sine_derivative(self):
        t = np.arange(int(4 * HI)) / HI
        s = series(10.0 * np.sin(2 * np.pi * 0.5 * t), label="angle_deg",
                   unit=Unit.DEGREES)
        vel = joint_velocity(s).values
        expect = 10.0 * 2 * np.pi * 0.5 * np.cos(2 * np.pi * 0.5 * t)
        core = slice(500, -500)
        assert np.max(np.abs(vel[core] - expect[core])) < 0.05 * np.max(expect)


    @pytest.mark.parametrize("rate", [HI, ALIGNED_RATE_HZ])
    def test_matches_scipy_chain(self, rate, rng):
        # 20 Hz zero-phase low-pass, then the gradient: the plain scipy and
        # numpy chain, bit for bit, on the angle's grid.
        x = np.cumsum(rng.normal(0.0, 0.1, 4000)) + 30.0
        angle_lp = signal.butter(2, 20.0, fs=rate, output="sos")
        smoothed = signal.sosfiltfilt(angle_lp, x, padtype="odd", padlen=6)
        expect = np.gradient(smoothed, 1.0 / rate, edge_order=1)
        angle = series(x, rate=rate, start=0.25, label="angle_deg", unit=Unit.DEGREES)
        assert np.array_equal(smooth_angle(angle).values, smoothed)
        vel = joint_velocity(angle)
        assert np.array_equal(vel.values, expect)
        assert (vel.label, vel.unit) == ("velocity_deg_s", Unit.DEGREES_PER_SECOND)
        assert (vel.sample_rate_hz, vel.start_time_s) == (rate, 0.25)


class TestSegmentation:
    def test_sine_cycles(self):
        # 5.25 periods of a sine starting at phase 0 contain 5 interior
        # maxima, which pair into 4 cycles.
        t = np.arange(int(10.5 * ALIGNED_RATE_HZ)) / ALIGNED_RATE_HZ
        s = series(30.0 * np.sin(2 * np.pi * 0.5 * t), rate=ALIGNED_RATE_HZ,
                   label="angle_deg", unit=Unit.DEGREES)
        bounds = segment_motions(s.values, s.sample_rate_hz)
        assert len(bounds.segments) == 4
        for (a, b), (c, d) in zip(bounds.segments, bounds.segments[1:]):
            assert b == c  # consecutive cycles share a boundary

    def test_flat_signal_rejected(self):
        s = series(np.zeros(1000), rate=ALIGNED_RATE_HZ, label="angle_deg")
        with pytest.raises(NoMotionDetected):
            segment_motions(s.values, s.sample_rate_hz)

    def test_single_swing_rejected(self):
        # One maximum cannot form a cycle.
        t = np.arange(400) / ALIGNED_RATE_HZ
        s = series(np.sin(np.pi * t / 2.0), rate=ALIGNED_RATE_HZ,
                   label="angle_deg")
        with pytest.raises(NoMotionDetected):
            segment_motions(s.values, s.sample_rate_hz)

    def test_small_ripples_ignored(self, rng):
        # Prominence gating: millimetre-scale ripple on a big swing must not
        # create segments.
        t = np.arange(int(8 * ALIGNED_RATE_HZ)) / ALIGNED_RATE_HZ
        main = 25.0 * np.sin(2 * np.pi * 0.5 * t)
        ripple = 0.3 * np.sin(2 * np.pi * 7.0 * t)
        bounds = segment_motions(main + ripple, ALIGNED_RATE_HZ)
        assert len(bounds.segments) == 3

    def test_row_ids_cover_segments(self):
        t = np.arange(int(10.5 * ALIGNED_RATE_HZ)) / ALIGNED_RATE_HZ
        s = series(30.0 * np.sin(2 * np.pi * 0.5 * t), rate=ALIGNED_RATE_HZ,
                   label="angle_deg")
        bounds = segment_motions(s.values, s.sample_rate_hz)
        ids = segment_ids_for_rows(bounds, len(s))
        assert ids.min() == 0  # lead-in before the first maximum
        assert ids.max() == len(bounds.segments)
        first_start = bounds.segments[0][0]
        assert np.all(ids[:first_start] == 0)
        for seg_id, (a, b) in enumerate(bounds.segments, start=1):
            assert np.all(ids[a:b] == seg_id)


class TestBuildFeatures(object):
    def test_table_contract_on_synthetic_take(self, knee_session):
        take = knee_session.takes[0]
        calib = compute_calibration(
            knee_session.standing, knee_session.initial_angle
        )
        for config in ModelConfig:
            table = build_features(
                take.recording, Joint.KNEE, config, calib
            )
            assert table.column_names == feature_columns(Joint.KNEE, config)
            assert table.rows.shape == (
                table.n_rows, feature_dimension(Joint.KNEE, config)
            )
            assert table.sample_rate_hz == ALIGNED_RATE_HZ
            assert table.targets.shape == (table.n_rows,)
            assert table.segment_of_row.shape == (table.n_rows,)
            assert len(table.segment_ids()) == knee_session.spec.swings_per_take

    def test_rows_on_fmg_clock(self, knee_session):
        # The aligned grid is anchored on the FMG channels: feature times
        # must be a contiguous slice of the FMG sample times.
        take = knee_session.takes[0]
        calib = compute_calibration(
            knee_session.standing, knee_session.initial_angle
        )
        table = build_features(take.recording, Joint.KNEE, ModelConfig.FMG, calib)
        label = fmg_channel(muscles_for(Joint.KNEE)[0])
        fmg_times = take.recording[label].times
        start = int(round((table.times_s[0] - fmg_times[0]) * ALIGNED_RATE_HZ))
        assert np.allclose(
            table.times_s, fmg_times[start : start + table.n_rows], atol=1e-9
        )

    def test_angle_column_is_calibrated(self, knee_session):
        take = knee_session.takes[0]
        calib = compute_calibration(
            knee_session.standing, knee_session.initial_angle
        )
        table = build_features(
            take.recording, Joint.KNEE, ModelConfig.BASELINE, calib
        )
        # Angle near zero at the start pose, excursions of roughly the
        # protocol span below it.
        assert abs(np.median(table.rows[:50, 0])) < 1.0
        assert table.rows[:, 0].min() < -30.0

    def test_missing_required_channel(self, knee_session):
        take = knee_session.takes[0]
        calib = compute_calibration(
            knee_session.standing, knee_session.initial_angle
        )
        channels = dict(take.recording.channels)
        victim = fmg_channel(muscles_for(Joint.KNEE)[0])
        del channels[victim]
        crippled = MultiChannelRecording(channels=channels, meta={})
        with pytest.raises(MissingChannel, match=victim):
            build_features(crippled, Joint.KNEE, ModelConfig.FMG, calib)


class TestConcatTables:
    @staticmethod
    def toy_table(n, ids, joint=Joint.KNEE):
        cols = feature_columns(joint, ModelConfig.BASELINE)
        return FeatureTable(
            joint=joint,
            config=ModelConfig.BASELINE,
            rows=np.zeros((n, len(cols))),
            targets=np.zeros(n),
            segment_of_row=np.asarray(ids, dtype=np.intp),
            times_s=np.arange(n) / ALIGNED_RATE_HZ,
            sample_rate_hz=ALIGNED_RATE_HZ,
            column_names=cols,
        )

    def test_segment_renumbering(self):
        a = self.toy_table(6, [0, 1, 1, 2, 2, 0])
        b = self.toy_table(5, [0, 1, 1, 2, 2])
        merged = concat_tables([a, b])
        assert merged.n_rows == 11
        assert list(merged.segment_of_row) == [0, 1, 1, 2, 2, 0, 0, 3, 3, 4, 4]
        assert list(merged.segment_ids()) == [1, 2, 3, 4]

    def test_rejects_mismatched_configs(self):
        a = self.toy_table(3, [0, 1, 1])
        b = self.toy_table(3, [0, 1, 1], joint=Joint.ANKLE)
        with pytest.raises(ValueError):
            concat_tables([a, b])
