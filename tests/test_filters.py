"""Filter design and application, verified against closed-form theory.

The oracles here avoid the library's own frequency-response helper: gains
are recomputed by direct polynomial evaluation of H(z) at z = e^{j omega},
and Butterworth magnitudes are checked against the analog prototype
|H(j W)|^2 = 1 / (1 + (W/Wc)^(2n)) at bilinear-prewarped frequencies.
"""

import numpy as np
import pytest
from scipy import signal
from scipy.integrate import cumulative_trapezoid

from myotorque.errors import InvalidBand, InvalidCutoff, InvalidOrder, SeriesTooShort
from myotorque.filters import (
    FilterKind,
    design_butterworth_bandpass,
    design_butterworth_lowpass,
    filtfilt,
    gradient,
    pole_magnitudes,
    rectify,
    single_pass_gain,
)
from myotorque.preprocess import angle_prefilter
from myotorque.synthgen import FMG_DECIMATE_HZ
from myotorque.timeseries import TimeSeries, Unit

FS = 2000.0


def series(values, rate=FS, unit=Unit.DIMENSIONLESS, label="x"):
    return TimeSeries(label, unit, rate, 0.0, np.asarray(values, dtype=float))


def h_of_z(coeffs, freq_hz):
    """Direct |H(e^{j omega})| from the expanded polynomials of the design,
    taken from scipy rather than from the library's sections."""
    d = coeffs.design
    band = d.cutoffs_hz if d.kind is FilterKind.BANDPASS else d.cutoffs_hz[0]
    b, a = signal.butter(d.order, band, btype=d.kind.value, fs=d.sample_rate_hz)
    z = np.exp(1j * 2.0 * np.pi * freq_hz / d.sample_rate_hz)
    # H(z) = sum b_k z^-k / sum a_k z^-k with the b[0] + b[1] z^-1 + ...
    # coefficient ordering.
    zi = 1.0 / z
    num = sum(bk * zi**k for k, bk in enumerate(b))
    den = sum(ak * zi**k for k, ak in enumerate(a))
    return abs(num / den)


def butterworth_lowpass_magnitude(freq_hz, cutoff_hz, order, fs):
    """Analog prototype magnitude at the prewarped digital frequency."""
    w = np.tan(np.pi * freq_hz / fs)
    wc = np.tan(np.pi * cutoff_hz / fs)
    return 1.0 / np.sqrt(1.0 + (w / wc) ** (2 * order))


LOWPASS_GRID = [(2, 20.0), (4, 6.0), (4, 50.0), (6, 100.0), (3, 400.0)]


class TestLowpassDesign:
    @pytest.mark.parametrize("order,cutoff", LOWPASS_GRID)
    def test_dc_gain_is_unity(self, order, cutoff):
        c = design_butterworth_lowpass(order, cutoff, FS)
        assert h_of_z(c, 0.0) == pytest.approx(1.0, abs=1e-9)
        assert single_pass_gain(c, 0.0) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("order,cutoff", LOWPASS_GRID)
    def test_cutoff_gain_is_half_power(self, order, cutoff):
        c = design_butterworth_lowpass(order, cutoff, FS)
        assert h_of_z(c, cutoff) == pytest.approx(2.0**-0.5, abs=1e-3)
        assert single_pass_gain(c, cutoff) == pytest.approx(2.0**-0.5, abs=1e-3)

    @pytest.mark.parametrize("order,cutoff", LOWPASS_GRID)
    def test_matches_analog_prototype_everywhere(self, order, cutoff):
        # The bilinear transform maps the analog Butterworth response onto
        # the digital axis exactly, so this holds at every frequency.
        c = design_butterworth_lowpass(order, cutoff, FS)
        for f in np.linspace(1.0, 0.95 * FS / 2, 40):
            expect = butterworth_lowpass_magnitude(f, cutoff, order, FS)
            assert single_pass_gain(c, f) == pytest.approx(expect, abs=1e-6)

    @pytest.mark.parametrize("order,cutoff", LOWPASS_GRID)
    def test_poles_strictly_inside_unit_circle(self, order, cutoff):
        c = design_butterworth_lowpass(order, cutoff, FS)
        assert np.all(pole_magnitudes(c) < 1.0 - 1e-9)

    def test_monotone_rolloff(self):
        c = design_butterworth_lowpass(4, 30.0, FS)
        gains = single_pass_gain(c, np.linspace(0.0, 900.0, 200))
        assert np.all(np.diff(gains) < 1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidCutoff):
            design_butterworth_lowpass(4, 0.0, FS)
        with pytest.raises(InvalidCutoff):
            design_butterworth_lowpass(4, FS / 2, FS)
        with pytest.raises(InvalidOrder):
            design_butterworth_lowpass(0, 10.0, FS)
        with pytest.raises(InvalidOrder):
            design_butterworth_lowpass(-2, 10.0, FS)


class TestBandpassDesign:
    def test_band_edges_at_half_power(self):
        c = design_butterworth_bandpass(4, 20.0, 500.0, FS)
        for edge in (20.0, 500.0):
            assert h_of_z(c, edge) == pytest.approx(2.0**-0.5, abs=1e-3)

    def test_passband_and_stopband(self):
        c = design_butterworth_bandpass(4, 20.0, 500.0, FS)
        assert single_pass_gain(c, 150.0) == pytest.approx(1.0, abs=1e-3)
        assert single_pass_gain(c, 1.0) < 1e-4
        assert single_pass_gain(c, 950.0) < 1e-3
        assert np.all(pole_magnitudes(c) < 1.0 - 1e-9)

    def test_invalid_band(self):
        with pytest.raises(InvalidBand):
            design_butterworth_bandpass(4, 500.0, 20.0, FS)
        with pytest.raises(InvalidBand):
            design_butterworth_bandpass(4, 20.0, FS, FS)
        with pytest.raises(InvalidOrder):
            design_butterworth_bandpass(0, 20.0, 500.0, FS)


class TestFiltfilt:
    def test_zero_phase_by_cross_correlation(self):
        # A zero-phase filter must not shift a passband sine: the
        # input/output cross-correlation peaks at lag zero.
        c = design_butterworth_lowpass(4, 50.0, FS)
        t = np.arange(int(4 * FS)) / FS
        x = np.sin(2 * np.pi * 10.0 * t)
        y = filtfilt(c, series(x)).values
        lags = np.arange(-40, 41)
        xcorr = [float(np.dot(x[40:-40], y[40 + k : len(y) - 40 + k])) for k in lags]
        assert lags[int(np.argmax(xcorr))] == 0

    def test_two_passes_halve_cutoff_power(self):
        # One pass leaves 1/sqrt(2) at the cutoff; forward+backward squares
        # the magnitude response, leaving 1/2.
        c = design_butterworth_lowpass(4, 25.0, FS)
        t = np.arange(int(8 * FS)) / FS
        x = np.sin(2 * np.pi * 25.0 * t)
        y = filtfilt(c, series(x)).values
        core = y[int(2 * FS) : int(6 * FS)]
        amplitude = (np.max(core) - np.min(core)) / 2.0
        assert amplitude == pytest.approx(0.5, abs=1e-2)

    def test_dc_preserved(self):
        c = design_butterworth_lowpass(2, 20.0, FS)
        y = filtfilt(c, series(np.full(4000, 3.7))).values
        assert np.allclose(y, 3.7, atol=1e-9)

    def test_affine_signal_passes_through_interior(self):
        # Zero phase + unit DC gain leave a straight line unchanged once the
        # edge transients (pad is short relative to the impulse response
        # tail) have decayed.
        c = design_butterworth_lowpass(2, 20.0, FS)
        t = np.arange(2000) / FS
        x = 1.5 - 40.0 * t
        y = filtfilt(c, series(x)).values
        assert np.allclose(y[200:-200], x[200:-200], atol=1e-7)

    def test_too_short_input(self):
        c = design_butterworth_lowpass(4, 50.0, FS)
        with pytest.raises(SeriesTooShort):
            filtfilt(c, series(np.ones(c.pad_length)))

    def test_grid_metadata_preserved(self):
        c = design_butterworth_lowpass(2, 20.0, FS)
        s = TimeSeries("angle_deg", Unit.DEGREES, FS, 2.5, np.ones(1000))
        y = filtfilt(c, s)
        assert y.sample_rate_hz == FS
        assert y.start_time_s == 2.5
        assert y.unit is Unit.DEGREES
        assert y.label == s.label


# Every design the package makes: the EMG envelope's band-pass and
# low-pass, the angle pre-filter at both rates, and the generator's
# anti-alias low-pass before FMG decimation.
PACKAGE_DESIGNS = {
    "emg-band": lambda: design_butterworth_bandpass(4, 20.0, 500.0, FS),
    "emg-envelope": lambda: design_butterworth_lowpass(4, 6.0, FS),
    "angle-200": lambda: angle_prefilter(200.0),
    "angle-2000": lambda: angle_prefilter(FS),
    "fmg-decimate": lambda: design_butterworth_lowpass(2, FMG_DECIMATE_HZ, FS),
}


class TestFiltfiltMatchesScipy:
    """filtfilt primes its passes from the stored steady state; scipy's
    sosfiltfilt solves for it on every call. The outputs are the same bits."""

    @pytest.mark.parametrize("name", sorted(PACKAGE_DESIGNS))
    @pytest.mark.parametrize("length", ["shortest", 1003, 40_000])
    def test_bit_identical_to_sosfiltfilt(self, name, length, rng):
        c = PACKAGE_DESIGNS[name]()
        pad = c.pad_length
        n = 3 * pad + 1 if length == "shortest" else length
        x = np.cumsum(rng.normal(0.0, 1.0, n)) + 5.0  # non-zero edges
        expect = signal.sosfiltfilt(c.sos, x, padtype="odd", padlen=pad)
        got = filtfilt(c, series(x, rate=c.design.sample_rate_hz)).values
        assert np.array_equal(got, expect)


class TestDesignCopies:
    @pytest.mark.parametrize("name", sorted(PACKAGE_DESIGNS))
    def test_repeated_designs_are_equal_and_independent(self, name):
        first = PACKAGE_DESIGNS[name]()
        sos, zi = first.sos.copy(), first.zi.copy()
        assert np.array_equal(zi, signal.sosfilt_zi(sos))
        # Writable (sosfilt refuses a read-only sos), and writing to one
        # design's arrays leaves the next call's arrays as they were.
        first.sos[...] = 0.0
        first.zi[...] = 0.0
        second = PACKAGE_DESIGNS[name]()
        assert np.array_equal(second.sos, sos)
        assert np.array_equal(second.zi, zi)


def scipy_ba(order, band, btype):
    return signal.butter(order, band, btype=btype, fs=FS)


ORDERS = [1, 2, 3, 4, 5, 6]


class TestSectionsOnly:
    """Pad length and poles follow from the sections and the design alone;
    the oracle is scipy's expanded transfer function."""

    @pytest.mark.parametrize("order", ORDERS)
    def test_pad_length_is_three_filter_orders(self, order):
        low = design_butterworth_lowpass(order, 50.0, FS)
        band = design_butterworth_bandpass(order, 20.0, 500.0, FS)
        for c, (b, a) in (
            (low, scipy_ba(order, 50.0, "lowpass")),
            (band, scipy_ba(order, [20.0, 500.0], "bandpass")),
        ):
            assert c.pad_length == 3 * (max(len(b), len(a)) - 1)

    @pytest.mark.parametrize("order", ORDERS)
    def test_poles_match_the_transfer_function(self, order):
        low = design_butterworth_lowpass(order, 50.0, FS)
        band = design_butterworth_bandpass(order, 20.0, 500.0, FS)
        for c, (_, a) in (
            (low, scipy_ba(order, 50.0, "lowpass")),
            (band, scipy_ba(order, [20.0, 500.0], "bandpass")),
        ):
            expect = np.sort(np.abs(np.roots(a)))
            assert np.allclose(pole_magnitudes(c), expect, rtol=0, atol=1e-6)


class TestRectify:
    def test_absolute_value(self, rng):
        x = rng.normal(0.0, 1.0, 500)
        y = rectify(series(x, unit=Unit.VOLTS))
        assert np.array_equal(y.values, np.abs(x))
        assert y.unit is Unit.VOLTS


class TestGradient:
    def test_exact_on_affine(self):
        t = np.arange(1000) / FS
        s = series(4.0 + 17.0 * t, unit=Unit.DEGREES)
        v = gradient(s)
        assert np.allclose(v.values, 17.0, atol=1e-9)
        assert v.unit is Unit.DEGREES_PER_SECOND

    def test_inverts_trapezoidal_integration_of_affine(self):
        # Central differences undo trapezoidal accumulation of an affine
        # signal exactly on interior points: the trapezoid sum of a + b t is
        # quadratic, and central differences are exact through degree 2.
        t = np.arange(800) / FS
        y = -7.0 + 120.0 * t
        integral = cumulative_trapezoid(y, dx=1.0 / FS, initial=0.0)
        recovered = gradient(series(integral)).values
        assert np.allclose(recovered[1:-1], y[1:-1], atol=1e-9)

    def test_quadratic_interior_exact(self):
        # Central differences are exact on polynomials up to degree 2.
        t = np.arange(2000) / FS
        s = series(3.0 * t**2 - 2.0 * t + 1.0)
        v = gradient(s).values
        assert np.allclose(v[1:-1], 6.0 * t[1:-1] - 2.0, atol=1e-8)

    def test_unit_mapping(self):
        t = np.arange(100) / FS
        v = gradient(series(t, unit=Unit.DIMENSIONLESS))
        assert v.unit is Unit.DIMENSIONLESS
