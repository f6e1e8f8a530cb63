"""Uniformly sampled channels and the statistics of variance normalization.

Every channel the pipeline hands out is a :class:`TimeSeries`: a label, a
sample rate, a start time, and a dense, read-only float64 value array,
checked finite once, when the series is built. Sample ``i``
sits at ``start_time_s + i / sample_rate_hz`` exactly. The signal math in
:mod:`myotorque.filters` works on plain arrays in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, DegenerateSeries, TargetOutsideSupport, ZeroVariance


@dataclass(frozen=True)
class TimeSeries:
    """One uniformly sampled channel.

    Parameters
    ----------
    label : str
        Channel name, e.g. ``"angle_deg"`` or ``"fmg_TA"``.
    sample_rate_hz : float
        Sampling rate, finite and strictly positive.
    start_time_s : float
        Timestamp of the first sample.
    values : ndarray
        1-D float64 array; all values must be finite.
    """

    label: str
    sample_rate_hz: float
    start_time_s: float
    values: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise DataError(f"sample_rate_hz must be finite and > 0, "
                            f"got {self.sample_rate_hz}")
        # Copy unconditionally: freezing a view would freeze the caller's array.
        vals = np.array(self.values, dtype=np.float64, copy=True)
        if vals.ndim != 1:
            raise DataError(f"values must be 1-D, got shape {vals.shape}")
        if vals.size and not np.all(np.isfinite(vals)):
            raise DataError(f"channel {self.label!r} contains non-finite values")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size

    @property
    def times(self) -> np.ndarray:
        """Timestamps ``start_time_s + i / sample_rate_hz``."""
        return self.start_time_s + np.arange(self.values.size) / self.sample_rate_hz

    @property
    def end_time_s(self) -> float:
        if self.values.size == 0:
            return self.start_time_s
        return self.start_time_s + (self.values.size - 1) / self.sample_rate_hz

    def with_values(self, values: np.ndarray) -> "TimeSeries":
        """Copy keeping label and timing, swapping values."""
        return replace(self, values=values)


@dataclass(frozen=True)
class NormalizationStats:
    """Sample mean and (n-1) standard deviation of a training column."""

    mean: float
    std_dev: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.std_dev)):
            raise ZeroVariance("normalization stats must be finite")
        if self.std_dev <= 0:
            raise ZeroVariance(f"std_dev must be > 0, got {self.std_dev}")


@dataclass
class MultiChannelRecording:
    """A bundle of channels with possibly different sample rates.

    Channel labels are the dict keys, hence unique by construction.
    """

    channels: dict[str, TimeSeries]

    def __getitem__(self, label: str) -> TimeSeries:
        return self.channels[label]

    def __contains__(self, label: str) -> bool:
        return label in self.channels

    def labels(self) -> list[str]:
        return sorted(self.channels)


# Tolerance for grid-endpoint comparisons, in fractions of a sample period.
_GRID_EPS = 1e-9


def resample_linear(
    series: TimeSeries,
    target_rate_hz: float,
    target_count: int,
    target_start_s: float,
) -> np.ndarray:
    """Values of ``series`` linearly interpolated onto an equidistant grid.

    The grid starts at ``target_start_s`` and has ``target_count`` samples
    spaced ``1 / target_rate_hz``. The grid must lie within the source
    span; no extrapolation is performed.
    """
    if len(series) < 2:
        raise DegenerateSeries(
            f"cannot resample {series.label!r} with {len(series)} samples"
        )
    if not (math.isfinite(target_rate_hz) and target_rate_hz > 0) or target_count < 1:
        raise DataError("target_rate_hz and target_count must be positive and finite")
    t_target = target_start_s + np.arange(target_count) / target_rate_hz
    eps = _GRID_EPS / target_rate_hz
    if t_target[0] < series.start_time_s - eps or t_target[-1] > series.end_time_s + eps:
        raise TargetOutsideSupport(
            f"target grid [{t_target[0]:.6f}, {t_target[-1]:.6f}] s exceeds "
            f"source span [{series.start_time_s:.6f}, {series.end_time_s:.6f}] s "
            f"of {series.label!r}"
        )
    return np.interp(t_target, series.times, series.values)


def fit_stats(values: np.ndarray) -> NormalizationStats:
    """Sample mean and (n-1) standard deviation of a value sequence."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.size < 2:
        raise DegenerateSeries(f"need at least 2 samples, got {vals.size}")
    std = float(np.std(vals, ddof=1))
    if std <= 0:
        raise ZeroVariance("all values identical; variance normalization undefined")
    return NormalizationStats(mean=float(np.mean(vals)), std_dev=std)
