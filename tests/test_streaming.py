"""Causal (sample-at-a-time) estimation against the batch pipeline."""

import numpy as np
import pytest
from scipy.signal import sosfilt, sosfilt_zi

from myotorque.errors import DataError
from myotorque.evaluate import train_model
from myotorque.filters import design_butterworth_lowpass
from myotorque.gpr import GpOptions
from myotorque.preprocess import (
    ModelConfig,
    angle_prefilter,
    build_features,
    concat_tables,
    fmg_channel,
    muscles_for,
)
from myotorque.streaming import CausalFilter, StreamingPredictor


class SosfiltFilter:
    """Reference: the single-sample ``sosfilt`` call per push that the
    inline recurrence of :class:`CausalFilter` replaced."""

    def __init__(self, coeffs):
        self._sos = coeffs.sos
        self._state = None

    def push(self, value):
        if self._state is None:
            self._state = sosfilt_zi(self._sos) * value
        out, self._state = sosfilt(self._sos, [value], zi=self._state)
        return float(out[0])


def primed_single_pass(coeffs, x):
    """Oracle: one sosfilt call over the whole signal with the state
    primed to the first sample's step response."""
    out, _ = sosfilt(coeffs.sos, x, zi=sosfilt_zi(coeffs.sos) * x[0])
    return out


class TestCausalFilter:
    def test_matches_primed_single_pass_filter(self, rng):
        coeffs = design_butterworth_lowpass(2, 20.0, 200.0)
        x = rng.standard_normal(400) + 3.0
        filt = CausalFilter(coeffs)
        got = np.array([filt.push(v) for v in x])
        assert np.array_equal(got, primed_single_pass(coeffs, x))

    def test_matches_primed_single_pass_filter_two_sections(self, rng):
        coeffs = design_butterworth_lowpass(4, 20.0, 200.0)
        assert coeffs.sos.shape[0] == 2
        x = rng.standard_normal(400) + 3.0
        filt = CausalFilter(coeffs)
        got = np.array([filt.push(v) for v in x])
        assert np.array_equal(got, primed_single_pass(coeffs, x))

    def test_constant_input_passes_unchanged(self):
        filt = CausalFilter(design_butterworth_lowpass(2, 20.0, 200.0))
        outs = [filt.push(5.0) for _ in range(50)]
        assert np.allclose(outs, 5.0, atol=1e-9)

    def test_is_causal(self, rng):
        # The output up to tick k must not depend on later inputs.
        coeffs = design_butterworth_lowpass(2, 20.0, 200.0)
        x = rng.standard_normal(100)
        a = CausalFilter(coeffs)
        head = [a.push(v) for v in x[:60]]
        b = CausalFilter(coeffs)
        full = [b.push(v) for v in x]
        assert np.allclose(head, full[:60], atol=0)


@pytest.fixture(scope="module")
def fmg_setup(knee_session):
    session = knee_session
    tables = [
        build_features(t.recording, session.spec.joint, ModelConfig.FMG,
                       session.calibration)
        for t in session.takes[:3]
    ]
    estimator = train_model(
        concat_tables(tables), options=GpOptions(seed=0), train_cap=600
    )
    return session, estimator


class TestStreamingPredictor:
    def test_rejects_emg_models(self, knee_session):
        session = knee_session
        table = build_features(
            session.takes[0].recording, session.spec.joint,
            ModelConfig.EMG, session.calibration,
        )
        est = train_model(table, train_cap=200)
        with pytest.raises(DataError, match="causal"):
            StreamingPredictor(est, session.calibration)

    def test_calibration_of_another_joint_rejected(self, fmg_setup, ankle_session):
        _, estimator = fmg_setup
        with pytest.raises(DataError, match="no FMG offset for BF"):
            StreamingPredictor(estimator, ankle_session.calibration)

    def test_fmg_value_count_enforced(self, fmg_setup):
        session, estimator = fmg_setup
        stream = StreamingPredictor(estimator, session.calibration)
        with pytest.raises(DataError, match="5"):
            stream.push(30.0, (0.1, 0.2))

    def test_baseline_model_takes_bare_angle(self, fmg_setup):
        session, _ = fmg_setup
        table = build_features(
            session.takes[0].recording, session.spec.joint,
            ModelConfig.BASELINE, session.calibration,
        )
        est = train_model(table, train_cap=300)
        stream = StreamingPredictor(est, session.calibration)
        sample = stream.push(40.0)
        assert np.isfinite(sample.torque_nm)
        assert sample.torque_std_nm >= 0

    def test_tracks_batch_predictions(self, fmg_setup):
        # Replay a held-out take tick by tick; causal estimates must
        # correlate strongly with the measured torque.
        session, estimator = fmg_setup
        take = session.takes[4]
        rec = take.recording
        muscles = muscles_for(session.spec.joint)
        angle = rec["angle_deg"].values[::10]  # high rate -> FMG ticks
        fmg = np.column_stack(
            [rec[fmg_channel(m)].values for m in muscles]
        )
        torque = rec["torque_nm"].values[::10]
        n = min(len(angle), len(fmg))
        stream = StreamingPredictor(estimator, session.calibration)
        est = np.array([
            stream.push(angle[i], tuple(fmg[i])).torque_nm for i in range(n)
        ])
        r = np.corrcoef(est[20:], torque[20:n])[0, 1]
        assert r > 0.9

    def test_replayed_take_matches_sosfilt_predictor(self, fmg_setup):
        # A whole held-out take through the inline filter gives the same
        # samples, bit for bit, as a predictor running sosfilt per tick.
        session, estimator = fmg_setup
        rec = session.takes[4].recording
        muscles = muscles_for(session.spec.joint)
        angle = rec["angle_deg"].values[::10]
        fmg = np.column_stack([rec[fmg_channel(m)].values for m in muscles])
        n = min(len(angle), len(fmg))
        inline = StreamingPredictor(estimator, session.calibration)
        reference = StreamingPredictor(estimator, session.calibration)
        reference._angle_filter = SosfiltFilter(
            angle_prefilter(estimator.sample_rate_hz)
        )
        got, expected = [], []
        for i in range(n):
            tick = (float(angle[i]), tuple(fmg[i].tolist()))
            got.append(inline.push(*tick))
            expected.append(reference.push(*tick))
        assert got == expected

    def test_emitted_clock_counts_ticks(self, fmg_setup):
        session, estimator = fmg_setup
        stream = StreamingPredictor(estimator, session.calibration)
        dt = 1.0 / estimator.sample_rate_hz
        times = [
            stream.push(30.0, (0.0,) * 5).time_s for _ in range(3)
        ]
        assert times == pytest.approx([0.0, dt, 2 * dt])
        explicit = stream.push(30.0, (0.0,) * 5, time_s=9.5)
        assert explicit.time_s == 9.5

    def test_uncalibrated_stream_accepts_centered_data(self, fmg_setup):
        session, estimator = fmg_setup
        cal = session.calibration
        raw = StreamingPredictor(estimator, cal)
        bare = StreamingPredictor(estimator, None)
        muscles = muscles_for(session.spec.joint)
        angle, fmg = 45.0, (0.3, 0.2, 0.1, 0.25, 0.15)
        centered = tuple(
            v - cal.fmg_offsets[m] for v, m in zip(fmg, muscles)
        )
        a = raw.push(angle, fmg)
        b = bare.push(angle - cal.angle_offset, centered)
        assert a.torque_nm == pytest.approx(b.torque_nm, abs=1e-12)

    @pytest.mark.parametrize("bad", [
        (float("nan"), (0.1, 0.2, 0.1, 0.2, 0.1)),
        (30.0, (0.1, float("inf"), 0.1, 0.2, 0.1)),
        (float("nan"), (float("nan"),) * 5),
    ])
    def test_non_finite_tick_rejected_without_touching_state(self, fmg_setup,
                                                            bad):
        session, estimator = fmg_setup
        rec = session.takes[4].recording
        muscles = muscles_for(session.spec.joint)
        angle = rec["angle_deg"].values[::10][:40]
        fmg = np.column_stack(
            [rec[fmg_channel(m)].values[:40] for m in muscles]
        )
        ticks = [(float(a), tuple(f)) for a, f in zip(angle, fmg)]
        clean = StreamingPredictor(estimator, session.calibration)
        faulty = StreamingPredictor(estimator, session.calibration)
        expected = [clean.push(a, f) for a, f in ticks]
        got = []
        for i, (a, f) in enumerate(ticks):
            if i == 25:
                with pytest.raises(DataError, match="non-finite"):
                    faulty.push(*bad)
            got.append(faulty.push(a, f))
        # Same torques, stds and tick clock as a stream that never saw
        # the bad row.
        assert got == expected

    @pytest.mark.parametrize("position", [0, 25])
    @pytest.mark.parametrize("bad, match", [
        # Finite, but it would have left the filter state overflowing the
        # velocity of the ordinary ticks after it.
        ((1.7e308, (0.1, 0.2, 0.1, 0.2, 0.1)), "beyond"),
        ((-2e6, (0.1, 0.2, 0.1, 0.2, 0.1)), "beyond"),
        # Finite, but its normalized FMG feature overflows: the model
        # rejects the row after the filter has already run.
        ((30.0, (0.1, 0.2, np.finfo(float).max, 0.2, 0.1)), "must be finite"),
    ])
    def test_rejected_finite_tick_moves_no_state(self, fmg_setup, bad, match,
                                                 position):
        session, estimator = fmg_setup
        rec = session.takes[4].recording
        muscles = muscles_for(session.spec.joint)
        angle = rec["angle_deg"].values[::10][:40]
        fmg = np.column_stack(
            [rec[fmg_channel(m)].values[:40] for m in muscles]
        )
        ticks = [(float(a), tuple(f)) for a, f in zip(angle, fmg)]
        clean = StreamingPredictor(estimator, session.calibration)
        faulty = StreamingPredictor(estimator, session.calibration)
        expected = [clean.push(a, f) for a, f in ticks]
        got = []
        for i, (a, f) in enumerate(ticks):
            if i == position:
                with pytest.raises(DataError, match=match):
                    faulty.push(*bad)
            got.append(faulty.push(a, f))
        assert got == expected

