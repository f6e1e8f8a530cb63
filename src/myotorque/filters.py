"""Butterworth IIR design, zero-phase filtering and differentiation of arrays.

Arrays go in and arrays come out: nothing here builds a
:class:`~myotorque.timeseries.TimeSeries`. The channel check (1-D, finite,
a valid sample rate) runs where a channel is built from the result, once.

Designs go through the analog prototype + pre-warped bilinear transform
(scipy's ``butter``), so the single-pass magnitude at the cutoff is exactly
1/sqrt(2). A design is kept and applied as cascaded second-order sections
only: direct-form application of a high-order IIR at cutoff ratios like
6 Hz / 2000 Hz is numerically fragile.

Each distinct design (kind, order, cutoffs, rate) is computed once per
process and memoized, together with its steady state: the section states
``sosfilt_zi`` gives for a unit step input. The steady state travels with
the design in :class:`IirCoefficients`, so neither :func:`filtfilt` nor a
causal stream recomputes it. Every design call still hands out its own
writable copies of both arrays.

:func:`filtfilt` extends the signal by odd reflection, then runs two
``sosfilt`` passes, forward and over the reversed output, each primed with
the steady state scaled by its first input sample. This is
``scipy.signal.sosfiltfilt(sos, x, padtype="odd", padlen=pad)``, bit for
bit, without its per-call steady-state solve.

A sample rate that is not finite, or at which scipy cannot make the design
(at around 1e10 Hz and above the poles of a low cutoff round onto the unit
circle and the steady state is singular), is an :class:`InvalidCutoff` or
:class:`InvalidBand`, like a cutoff outside (0, Nyquist).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import signal

from .errors import InvalidBand, InvalidCutoff, InvalidOrder, SeriesTooShort


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
    """Designed digital IIR filter as second-order sections.

    ``zi`` is the steady state of the sections (one row of two states per
    section) for a unit step input; scaled by a constant input, it starts
    a filter as if that input had always been applied.
    """

    sos: np.ndarray
    zi: np.ndarray
    design: FilterDesign

    @property
    def pad_length(self) -> int:
        """Edge padding of :func:`filtfilt`: three times the digital order."""
        return 3 * self.design.digital_order


# Bounded: a caller may design at arbitrarily many sample rates.
@functools.lru_cache(maxsize=32)
def _butterworth(design: FilterDesign) -> tuple[np.ndarray, np.ndarray]:
    """Sections and steady state of a checked design, read-only: shared by
    every caller, so only copies leave this module."""
    if design.kind is FilterKind.LOWPASS:
        band, btype, invalid = design.cutoffs_hz[0], "low", InvalidCutoff
    else:
        band, btype, invalid = list(design.cutoffs_hz), "bandpass", InvalidBand
    try:
        sos = signal.butter(
            design.order, band, btype=btype, fs=design.sample_rate_hz, output="sos"
        )
        zi = signal.sosfilt_zi(sos)
    except ValueError as exc:  # numpy's LinAlgError is a ValueError
        edges = "-".join(f"{f:g}" for f in design.cutoffs_hz)
        raise invalid(
            f"no {design.kind.value} design for {edges} Hz "
            f"at fs={design.sample_rate_hz:g} Hz: {exc}"
        ) from exc
    sos.flags.writeable = zi.flags.writeable = False
    return sos, zi


def _coefficients(design: FilterDesign) -> IirCoefficients:
    # Writable copies: scipy's sosfilt rejects a read-only ``sos``.
    sos, zi = _butterworth(design)
    return IirCoefficients(sos=sos.copy(), zi=zi.copy(), design=design)


def _check_order(order: int) -> None:
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise InvalidOrder(f"filter order must be a positive integer, got {order!r}")


def design_butterworth_lowpass(
    order: int, cutoff_hz: float, sample_rate_hz: float
) -> IirCoefficients:
    """Digital Butterworth low-pass with -3.01 dB exactly at ``cutoff_hz``."""
    _check_order(order)
    nyquist = sample_rate_hz / 2.0
    if not (math.isfinite(sample_rate_hz) and 0 < cutoff_hz < nyquist):
        raise InvalidCutoff(
            f"cutoff {cutoff_hz} Hz must lie in (0, {nyquist}) Hz at fs={sample_rate_hz}"
        )
    return _coefficients(
        FilterDesign(FilterKind.LOWPASS, order, (cutoff_hz,), sample_rate_hz)
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
    if not (math.isfinite(sample_rate_hz) and 0 < low_hz < high_hz < nyquist):
        raise InvalidBand(
            f"band edges ({low_hz}, {high_hz}) Hz must satisfy "
            f"0 < low < high < {nyquist} Hz at fs={sample_rate_hz}"
        )
    return _coefficients(
        FilterDesign(FilterKind.BANDPASS, order, (low_hz, high_hz), sample_rate_hz)
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


def filtfilt(coeffs: IirCoefficients, x: np.ndarray) -> np.ndarray:
    """Zero-phase filtering: forward pass, reverse, second pass, reverse.

    Edges are extended by odd (antisymmetric) reflection of
    ``3 * digital order`` samples on each side and trimmed after, which
    suppresses start-up transients on signals with non-zero boundary values.
    The net magnitude is the square of the single-pass magnitude.
    """
    pad = coeffs.pad_length
    x = np.asarray(x, dtype=np.float64)
    if len(x) <= 3 * pad:
        raise SeriesTooShort(
            f"zero-phase filtering needs more than {3 * pad} samples, got {len(x)}"
        )
    # scipy's odd extension: 2 * edge - mirror image, ``pad`` samples a side.
    ext = np.concatenate((2 * x[:1] - x[pad:0:-1], x, 2 * x[-1:] - x[-2 : -pad - 2 : -1]))
    forward, _ = signal.sosfilt(coeffs.sos, ext, zi=coeffs.zi * ext[:1])
    backward, _ = signal.sosfilt(coeffs.sos, forward[::-1], zi=coeffs.zi * forward[-1:])
    return backward[::-1][pad:-pad]


def gradient(x: np.ndarray, sample_rate_hz: float) -> np.ndarray:
    """Numerical time derivative of samples taken at ``sample_rate_hz``.

    Central differences ``(x[i+1] - x[i-1]) * rate / 2`` on interior points,
    one-sided first differences at both ends.
    """
    if len(x) < 3:
        raise SeriesTooShort(f"gradient needs at least 3 samples, got {len(x)}")
    return np.gradient(x, 1.0 / sample_rate_hz, edge_order=1)
