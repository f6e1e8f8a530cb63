"""Core containers: construction rules, resampling, normalization."""

import numpy as np
import pytest

from myotorque.errors import (
    DataError,
    DegenerateSeries,
    TargetOutsideSupport,
    ZeroVariance,
)
from myotorque.timeseries import (
    MultiChannelRecording,
    NormalizationStats,
    TimeSeries,
    fit_stats,
    resample_linear,
)


def series(values, rate=100.0, start=0.0, label="x"):
    return TimeSeries(label, rate, start, np.asarray(values, dtype=float))


class TestTimeSeries:
    def test_times_are_start_plus_index_over_rate(self):
        s = series([1.0, 2.0, 3.0], rate=10.0, start=0.5)
        assert np.allclose(s.times, [0.5, 0.6, 0.7])
        assert s.end_time_s == pytest.approx(0.7)
        assert len(s) == 3

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError, match="non-finite"):
            series([1.0, np.nan])
        with pytest.raises(DataError, match="non-finite"):
            series([np.inf, 1.0])

    def test_rejects_values_that_are_not_1d(self):
        with pytest.raises(DataError, match="1-D"):
            series([[1.0, 2.0]])

    def test_empty_constructs_but_operations_reject(self):
        s = series([])
        assert len(s) == 0
        assert s.end_time_s == s.start_time_s
        with pytest.raises(DegenerateSeries):
            resample_linear(s, 10.0, 1, 0.0)

    def test_rejects_bad_rate(self):
        for rate in (0.0, -5.0, np.nan, np.inf):
            with pytest.raises(DataError, match="sample_rate_hz"):
                series([1.0], rate=rate)

    def test_values_are_copied_and_read_only(self):
        raw = np.array([1.0, 2.0])
        s = series(raw)
        raw[0] = 99.0
        assert s.values[0] == 1.0
        with pytest.raises(ValueError):
            s.values[0] = 7.0

    def test_with_values_keeps_grid(self):
        s = series([1.0, 2.0], rate=50.0, start=1.0, label="emg_TA")
        t = s.with_values(np.array([3.0, 4.0]))
        assert t.sample_rate_hz == 50.0
        assert t.start_time_s == 1.0
        assert t.label == "emg_TA"
        assert np.array_equal(t.values, [3.0, 4.0])


class TestRecording:
    def test_lookup_and_labels(self):
        rec = MultiChannelRecording(
            channels={"a": series([1.0, 2.0]), "b": series([3.0, 4.0])},
        )
        assert "a" in rec
        assert "z" not in rec
        assert rec.labels() == ["a", "b"]
        assert np.array_equal(rec["b"].values, [3.0, 4.0])


class TestResampleLinear:
    def test_exact_on_affine_signal(self):
        # Linear interpolation reproduces an affine function exactly, so any
        # in-span target grid must return a + b * t up to float rounding.
        a, b = 2.5, -3.0
        t_src = np.arange(101) / 100.0
        src = series(a + b * t_src, rate=100.0)
        out = resample_linear(src, target_rate_hz=37.0, target_count=30,
                              target_start_s=0.0)
        expect = a + b * (np.arange(30) / 37.0)
        assert np.allclose(out, expect, atol=1e-12)

    def test_downsample_hits_shared_grid_points(self):
        src = series(np.sin(np.arange(200) / 10.0), rate=200.0)
        out = resample_linear(src, target_rate_hz=50.0, target_count=40,
                              target_start_s=0.0)
        # Every 4th source sample lies exactly on the target grid.
        assert np.allclose(out, src.values[::4][:40], atol=1e-12)

    def test_target_start_offset(self):
        src = series(np.arange(11, dtype=float), rate=10.0)
        out = resample_linear(src, 10.0, 5, target_start_s=0.05)
        assert np.allclose(out, np.arange(5) + 0.5)

    def test_is_np_interp_on_the_grid(self, rng):
        src = series(rng.standard_normal(500), rate=2000.0, start=0.125)
        out = resample_linear(src, 200.0, 40, target_start_s=0.13)
        grid = 0.13 + np.arange(40) / 200.0
        assert type(out) is np.ndarray
        assert np.array_equal(out, np.interp(grid, src.times, src.values))

    def test_rejects_out_of_span_grid(self):
        src = series([0.0, 1.0, 2.0], rate=10.0)
        with pytest.raises(TargetOutsideSupport):
            resample_linear(src, 10.0, 4, target_start_s=0.0)
        with pytest.raises(TargetOutsideSupport):
            resample_linear(src, 10.0, 2, target_start_s=-0.5)

    def test_rejects_single_sample_source(self):
        with pytest.raises(DegenerateSeries):
            resample_linear(series([1.0]), 10.0, 1, 0.0)

    @pytest.mark.parametrize("rate, count", [(0.0, 1), (-10.0, 1), (10.0, 0),
                                             (np.nan, 1), (np.inf, 1)])
    def test_rejects_bad_target_rate_or_count(self, rate, count):
        with pytest.raises(DataError, match="must be positive"):
            resample_linear(series([0.0, 1.0, 2.0], rate=10.0), rate, count, 0.0)


class TestNormalization:
    def test_fit_stats_hand_value(self):
        # ddof=1: values 1,2,3 have mean 2 and standard deviation exactly 1.
        st = fit_stats([1.0, 2.0, 3.0])
        assert st.mean == pytest.approx(2.0)
        assert st.std_dev == pytest.approx(1.0)

    def test_fit_stats_matches_definition(self, rng):
        x = rng.normal(3.0, 2.0, 1000)
        st = fit_stats(x)
        mean = sum(x) / len(x)
        var = sum((v - mean) ** 2 for v in x) / (len(x) - 1)
        assert st.mean == pytest.approx(mean, rel=1e-12)
        assert st.std_dev == pytest.approx(var**0.5, rel=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ZeroVariance):
            fit_stats([4.0, 4.0, 4.0])
        with pytest.raises(ZeroVariance):
            NormalizationStats(mean=0.0, std_dev=0.0)
