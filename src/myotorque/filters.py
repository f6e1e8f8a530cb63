"""Butterworth IIR design, zero-phase filtering, rectification, differentiation.

Designs go through the analog prototype + pre-warped bilinear transform
(scipy's ``butter``), so the single-pass magnitude at the cutoff is exactly
1/sqrt(2). A design is kept and applied as cascaded second-order sections
only: direct-form application of a high-order IIR at cutoff ratios like
6 Hz / 2000 Hz is numerically fragile.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy import signal

from .errors import InvalidBand, InvalidCutoff, InvalidOrder, SeriesTooShort
from .timeseries import TimeSeries, Unit


class FilterKind(enum.Enum):
    LOWPASS = "lowpass"
    BANDPASS = "bandpass"


@dataclass(frozen=True)
class FilterDesign:
    kind: FilterKind
    order: int
    cutoffs_hz: tuple[float, ...]
    sample_rate_hz: float

    @property
    def digital_order(self) -> int:
        """Order of the digital filter; the band-pass transform doubles it."""
        return 2 * self.order if self.kind is FilterKind.BANDPASS else self.order


@dataclass(frozen=True)
class IirCoefficients:
    """Designed digital IIR filter as second-order sections."""

    sos: np.ndarray
    design: FilterDesign

    @property
    def pad_length(self) -> int:
        """Edge padding of :func:`filtfilt`: three times the digital order."""
        return 3 * self.design.digital_order


def _check_order(order: int) -> None:
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise InvalidOrder(f"filter order must be a positive integer, got {order!r}")


def design_butterworth_lowpass(
    order: int, cutoff_hz: float, sample_rate_hz: float
) -> IirCoefficients:
    """Digital Butterworth low-pass with -3.01 dB exactly at ``cutoff_hz``."""
    _check_order(order)
    nyquist = sample_rate_hz / 2.0
    if not 0 < cutoff_hz < nyquist:
        raise InvalidCutoff(
            f"cutoff {cutoff_hz} Hz must lie in (0, {nyquist}) Hz at fs={sample_rate_hz}"
        )
    return IirCoefficients(
        sos=signal.butter(order, cutoff_hz, btype="low", fs=sample_rate_hz, output="sos"),
        design=FilterDesign(FilterKind.LOWPASS, order, (cutoff_hz,), sample_rate_hz),
    )


def design_butterworth_bandpass(
    order: int, low_hz: float, high_hz: float, sample_rate_hz: float
) -> IirCoefficients:
    """Digital Butterworth band-pass from an ``order``-th order low-pass prototype.

    The analog low-pass-to-band-pass transformation doubles the order, so
    the digital filter has order ``2 * order``. Each band edge sits at
    -3.01 dB for a single pass.
    """
    _check_order(order)
    nyquist = sample_rate_hz / 2.0
    if not 0 < low_hz < high_hz < nyquist:
        raise InvalidBand(
            f"band edges ({low_hz}, {high_hz}) Hz must satisfy "
            f"0 < low < high < {nyquist} Hz at fs={sample_rate_hz}"
        )
    return IirCoefficients(
        sos=signal.butter(
            order, [low_hz, high_hz], btype="bandpass", fs=sample_rate_hz, output="sos"
        ),
        design=FilterDesign(
            FilterKind.BANDPASS, order, (low_hz, high_hz), sample_rate_hz
        ),
    )


def single_pass_gain(coeffs: IirCoefficients, freq_hz: float | np.ndarray) -> np.ndarray:
    """|H(e^{j omega})| of one forward pass, evaluated section-wise."""
    freq = np.atleast_1d(np.asarray(freq_hz, dtype=np.float64))
    w = 2.0 * np.pi * freq / coeffs.design.sample_rate_hz
    _, h = signal.sosfreqz(coeffs.sos, worN=w)
    gain = np.abs(h)
    return gain if np.ndim(freq_hz) else gain[0]


def pole_magnitudes(coeffs: IirCoefficients) -> np.ndarray:
    """Magnitudes of the poles (stability: all < 1), ascending. The padding
    pole at the origin of an odd order's first-order section is left out."""
    _, poles, _ = signal.sos2zpk(coeffs.sos)
    return np.sort(np.abs(poles))[len(poles) - coeffs.design.digital_order :]


def filtfilt(coeffs: IirCoefficients, series: TimeSeries) -> TimeSeries:
    """Zero-phase filtering: forward pass, reverse, second pass, reverse.

    Edges are extended by odd (antisymmetric) reflection of
    ``3 * digital order`` samples on each side and trimmed after, which
    suppresses start-up transients on signals with non-zero boundary values.
    The net magnitude is the square of the single-pass magnitude.
    """
    pad = coeffs.pad_length
    if len(series) <= 3 * pad:
        raise SeriesTooShort(
            f"{series.label!r} has {len(series)} samples; zero-phase filtering "
            f"needs more than {3 * pad}"
        )
    filtered = signal.sosfiltfilt(coeffs.sos, series.values, padtype="odd", padlen=pad)
    return series.with_values(filtered)


def rectify(series: TimeSeries) -> TimeSeries:
    """Element-wise absolute value."""
    return series.with_values(np.abs(series.values))


_RATE_UNIT = {
    Unit.DEGREES: Unit.DEGREES_PER_SECOND,
    Unit.DIMENSIONLESS: Unit.DIMENSIONLESS,
}


def gradient(series: TimeSeries) -> TimeSeries:
    """Numerical time derivative.

    Central differences ``(x[i+1] - x[i-1]) * rate / 2`` on interior points,
    one-sided first differences at both ends. Degrees become degrees per
    second; other units map to dimensionless.
    """
    if len(series) < 3:
        raise SeriesTooShort(
            f"gradient of {series.label!r} needs >= 3 samples, got {len(series)}"
        )
    deriv = np.gradient(series.values, 1.0 / series.sample_rate_hz, edge_order=1)
    return series.with_values(deriv, unit=_RATE_UNIT.get(series.unit, Unit.DIMENSIONLESS))
