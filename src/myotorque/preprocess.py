"""Recording-to-feature pipeline: calibration, EMG envelopes, velocity,
motion segmentation, cross-rate alignment, and design-matrix assembly.

Channel naming contract (shared with the CSV recording format):
``angle_deg``, ``torque_nm``, ``emg_<MUSCLE>``, ``fmg_<MUSCLE>`` where
``<MUSCLE>`` is one of the eight instrumented muscles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import find_peaks

from .errors import (
    AlignmentError,
    DegenerateSeries,
    MissingChannel,
    NoMotionDetected,
)
from .filters import (
    IirCoefficients,
    design_butterworth_bandpass,
    design_butterworth_lowpass,
    filtfilt,
    gradient,
)
from .timeseries import MultiChannelRecording, TimeSeries, resample_linear


class Joint(enum.Enum):
    ANKLE = "ankle"
    KNEE = "knee"


class Muscle(enum.Enum):
    TA = "tibialis anterior"
    GM = "gastrocnemius medialis"
    GL = "gastrocnemius lateralis"
    BF = "biceps femoris"
    RF = "rectus femoris"
    ST = "semitendinosus"
    VM = "vastus medialis"
    VL = "vastus lateralis"


# Primary muscles per joint, in fixed feature-column order.
_JOINT_MUSCLES = {
    Joint.ANKLE: (Muscle.TA, Muscle.GM, Muscle.GL),
    Joint.KNEE: (Muscle.BF, Muscle.RF, Muscle.ST, Muscle.VM, Muscle.VL),
}


def muscles_for(joint: Joint) -> tuple[Muscle, ...]:
    """The fixed muscle set feeding the model for this joint."""
    return _JOINT_MUSCLES[joint]


class ModelConfig(enum.Enum):
    BASELINE = "baseline"
    EMG = "emg"
    FMG = "fmg"


def feature_dimension(joint: Joint, config: ModelConfig) -> int:
    if config is ModelConfig.BASELINE:
        return 2
    return 2 + len(muscles_for(joint))


def feature_columns(joint: Joint, config: ModelConfig) -> tuple[str, ...]:
    """Feature column labels in contract order: angle, velocity, then muscles."""
    cols = ["angle_deg", "velocity_deg_s"]
    if config is not ModelConfig.BASELINE:
        cols += [m.name for m in muscles_for(joint)]
    return tuple(cols)


@dataclass(frozen=True)
class CalibrationRecord:
    """Per-sensor offsets from the standing / initial-pose measurements."""

    fmg_offsets: dict[Muscle, float]
    angle_offset: float = 0.0


@dataclass(frozen=True)
class SegmentBoundaries:
    """Detected extrema and the full motion cycles between them.

    ``segments`` pairs consecutive maxima of the filtered angle, so each
    segment spans exactly one flexion+extension (or dorsi+plantarflexion)
    cycle.
    """

    extrema_indices: np.ndarray
    segments: tuple[tuple[int, int], ...]


@dataclass
class FeatureTable:
    """Aligned design matrix and torque target on a single 200 Hz timeline.

    Columns are ordered angle, velocity, then the joint's muscles in their
    fixed order. ``segment_of_row`` is 0 for rows outside any detected
    motion cycle and 1-based otherwise.
    """

    joint: Joint
    config: ModelConfig
    rows: np.ndarray
    targets: np.ndarray
    segment_of_row: np.ndarray
    times_s: np.ndarray
    sample_rate_hz: float
    column_names: tuple[str, ...]

    def __post_init__(self):
        n, d = self.rows.shape
        if d != feature_dimension(self.joint, self.config):
            raise ValueError(
                f"{self.config.value} table for {self.joint.value} must have "
                f"{feature_dimension(self.joint, self.config)} columns, got {d}"
            )
        if not (len(self.targets) == len(self.segment_of_row) == len(self.times_s) == n):
            raise ValueError("rows, targets, segment ids, and times must share length")

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]

    def segment_ids(self) -> np.ndarray:
        """Distinct nonzero segment ids, ascending."""
        ids = np.unique(self.segment_of_row)
        return ids[ids > 0]


ANGLE_CHANNEL = "angle_deg"
TORQUE_CHANNEL = "torque_nm"
ALIGNED_RATE_HZ = 200.0

# Segmentation thresholds: permissive at the slowest protocol velocity and
# robust to ripple on the filtered angle.
MIN_SEPARATION_S = 0.25
MIN_PROMINENCE_FRAC = 0.10


def emg_channel(muscle: Muscle) -> str:
    return f"emg_{muscle.name}"


def fmg_channel(muscle: Muscle) -> str:
    return f"fmg_{muscle.name}"


def _muscle_from_label(label: str) -> Muscle:
    name = label.split("_", 1)[1]
    try:
        return Muscle[name]
    except KeyError:
        raise MissingChannel(f"channel {label!r} does not name a known muscle") from None


def compute_calibration(
    standing_recording: MultiChannelRecording,
    initial_angle_recording: TimeSeries,
) -> CalibrationRecord:
    """Offsets as sample means over the calibration windows.

    FMG offsets come from the relaxed standing recording; the angle offset
    from the signal recorded while holding the initial pose.
    """
    fmg_labels = [l for l in standing_recording.channels if l.startswith("fmg_")]
    if not fmg_labels:
        raise DegenerateSeries("standing recording contains no FMG channels")
    offsets: dict[Muscle, float] = {}
    for label in sorted(fmg_labels):
        series = standing_recording[label]
        if len(series) == 0:
            raise DegenerateSeries(f"calibration channel {label!r} is empty")
        offsets[_muscle_from_label(label)] = float(np.mean(series.values))
    if len(initial_angle_recording) == 0:
        raise DegenerateSeries("initial-pose angle recording is empty")
    angle_offset = float(np.mean(initial_angle_recording.values))
    return CalibrationRecord(fmg_offsets=offsets, angle_offset=angle_offset)


def _fmg_offset(label: str, calib: CalibrationRecord) -> float:
    """The calibration offset of FMG channel ``label``."""
    muscle = _muscle_from_label(label)
    if muscle not in calib.fmg_offsets:
        raise MissingChannel(
            f"calibration record has no offset for {label!r} ({muscle.name})"
        )
    return calib.fmg_offsets[muscle]


def emg_envelope(raw: TimeSeries) -> TimeSeries:
    """Activation envelope of a raw EMG channel.

    Band-pass 20-500 Hz (4th order, zero-phase), rectify, then low-pass at
    6 Hz (4th order, zero-phase). The low-pass of a rectified signal can
    undershoot slightly, so the output is not guaranteed non-negative.
    """
    band = design_butterworth_bandpass(4, 20.0, 500.0, raw.sample_rate_hz)
    smooth = design_butterworth_lowpass(4, 6.0, raw.sample_rate_hz)
    return raw.with_values(filtfilt(smooth, np.abs(filtfilt(band, raw.values))))


def angle_prefilter(sample_rate_hz: float) -> IirCoefficients:
    """The 2nd-order 20 Hz low-pass that conditions the angle before its
    derivative is taken (zero-phase in batch, one-pass when streaming)."""
    return design_butterworth_lowpass(2, 20.0, sample_rate_hz)


def smooth_angle(angle: TimeSeries) -> TimeSeries:
    """Joint angle after the zero-phase angle pre-filter."""
    return angle.with_values(
        filtfilt(angle_prefilter(angle.sample_rate_hz), angle.values)
    )


def _velocity(smoothed: TimeSeries) -> TimeSeries:
    """The time derivative of the smoothed angle, as the velocity channel."""
    return replace(
        smoothed,
        label="velocity_deg_s",
        values=gradient(smoothed.values, smoothed.sample_rate_hz),
    )


def joint_velocity(angle: TimeSeries) -> TimeSeries:
    """Angular velocity: 20 Hz zero-phase pre-filter, then the gradient."""
    return _velocity(smooth_angle(angle))


def segment_motions(values: np.ndarray, sample_rate_hz: float) -> SegmentBoundaries:
    """Detect direction-change extrema of a filtered angle sampled at
    ``sample_rate_hz`` and pair consecutive maxima into cycles.

    Extrema must be at least :data:`MIN_SEPARATION_S` apart and have
    prominence at least :data:`MIN_PROMINENCE_FRAC` of the signal's global
    range.
    """
    vals = np.asarray(values, dtype=np.float64)
    span = float(np.max(vals) - np.min(vals)) if len(vals) else 0.0
    if span <= 0:
        raise NoMotionDetected("angle signal has no range; nothing to segment")
    distance = max(1, int(round(MIN_SEPARATION_S * sample_rate_hz)))
    prominence = MIN_PROMINENCE_FRAC * span
    maxima, _ = find_peaks(vals, distance=distance, prominence=prominence)
    minima, _ = find_peaks(-vals, distance=distance, prominence=prominence)

    # Merge and enforce alternation: of same-type neighbours keep the more
    # extreme one.
    tagged = sorted(
        [(int(i), 1) for i in maxima] + [(int(i), -1) for i in minima]
    )
    extrema: list[tuple[int, int]] = []
    for idx, kind in tagged:
        if extrema and extrema[-1][1] == kind:
            prev_idx = extrema[-1][0]
            better = vals[idx] > vals[prev_idx] if kind == 1 else vals[idx] < vals[prev_idx]
            if better:
                extrema[-1] = (idx, kind)
        else:
            extrema.append((idx, kind))

    if len(extrema) < 3:
        raise NoMotionDetected(
            f"found only {len(extrema)} alternating extrema; need at least 3"
        )
    kept_maxima = [idx for idx, kind in extrema if kind == 1]
    if len(kept_maxima) < 2:
        raise NoMotionDetected("fewer than two maxima; no complete cycle detected")
    segments = tuple(
        (kept_maxima[i], kept_maxima[i + 1]) for i in range(len(kept_maxima) - 1)
    )
    return SegmentBoundaries(
        extrema_indices=np.array([idx for idx, _ in extrema], dtype=np.intp),
        segments=segments,
    )


def segment_ids_for_rows(boundaries: SegmentBoundaries, n_rows: int) -> np.ndarray:
    """Per-row 1-based segment ids; 0 marks rows outside any cycle."""
    ids = np.zeros(n_rows, dtype=np.intp)
    for seg_id, (start, end) in enumerate(boundaries.segments, start=1):
        ids[start:end] = seg_id
    if boundaries.segments:
        last_end = boundaries.segments[-1][1]
        ids[last_end] = len(boundaries.segments)
    return ids


_CHANNEL_EPS = 1e-9


def _grid_indices(ref: TimeSeries, rate: float, used: list[TimeSeries]) -> tuple[int, int]:
    common_start = max(ch.start_time_s for ch in used)
    common_end = min(ch.end_time_s for ch in used)
    if common_end <= common_start:
        raise AlignmentError(
            f"channel time spans do not overlap (start {common_start:.3f} s "
            f">= end {common_end:.3f} s)"
        )
    eps = _CHANNEL_EPS / rate
    i0 = int(np.ceil((common_start - ref.start_time_s) * rate - eps))
    i1 = int(np.floor((common_end - ref.start_time_s) * rate + eps))
    if i1 < i0:
        raise AlignmentError("common time span shorter than one aligned sample")
    return i0, i1


def build_features(
    recording: MultiChannelRecording,
    joint: Joint,
    config: ModelConfig,
    calib: CalibrationRecord,
) -> FeatureTable:
    """Run the full preprocessing pipeline for one recording.

    Order: subtract the calibration offsets from the angle and the used
    FMG channels; EMG envelopes and angular velocity at the native (high)
    rate; linear resampling of angle, velocity, torque, and envelopes onto
    the 200 Hz timeline of the first FMG channel (FMG channels used
    as-is); column assembly in the fixed order; per-row segment ids from
    the resampled filtered angle. Every FMG channel of the recording must
    have a calibration offset, whether the config uses it or not.
    """
    muscles = muscles_for(joint)
    required = [ANGLE_CHANNEL, TORQUE_CHANNEL]
    if config is ModelConfig.EMG:
        required += [emg_channel(m) for m in muscles]
    elif config is ModelConfig.FMG:
        required += [fmg_channel(m) for m in muscles]
    for label in required:
        if label not in recording:
            raise MissingChannel(f"recording lacks required channel {label!r}")
    offsets = {
        label: _fmg_offset(label, calib)
        for label in recording.channels if label.startswith("fmg_")
    }

    raw_angle = recording[ANGLE_CHANNEL]
    angle = raw_angle.with_values(raw_angle.values - calib.angle_offset)
    torque = recording[TORQUE_CHANNEL]
    filtered_angle = smooth_angle(angle)
    velocity = _velocity(filtered_angle)

    muscle_channels: list[TimeSeries] = []
    if config is ModelConfig.EMG:
        muscle_channels = [emg_envelope(recording[emg_channel(m)]) for m in muscles]
    elif config is ModelConfig.FMG:
        for m in muscles:
            fmg = recording[fmg_channel(m)]
            muscle_channels.append(
                fmg.with_values(fmg.values - offsets[fmg_channel(m)])
            )

    if offsets:
        ref = recording[min(offsets)]
        rate = ref.sample_rate_hz
    else:
        ref = angle
        rate = ALIGNED_RATE_HZ

    i0, i1 = _grid_indices(ref, rate, [angle, velocity, torque] + muscle_channels)
    count = i1 - i0 + 1
    grid_start = ref.start_time_s + i0 / rate

    def onto_grid(series: TimeSeries) -> np.ndarray:
        if (
            series.sample_rate_hz == rate
            and series.start_time_s == ref.start_time_s
            and len(series) > i1
        ):
            return series.values[i0 : i1 + 1]
        return resample_linear(series, rate, count, grid_start)

    columns = [onto_grid(ch) for ch in [angle, velocity] + muscle_channels]
    targets = onto_grid(torque)

    boundaries = segment_motions(onto_grid(filtered_angle), rate)
    seg_ids = segment_ids_for_rows(boundaries, count)

    return FeatureTable(
        joint=joint,
        config=config,
        rows=np.column_stack(columns),
        targets=np.asarray(targets, dtype=np.float64),
        segment_of_row=seg_ids,
        times_s=grid_start + np.arange(count) / rate,
        sample_rate_hz=rate,
        column_names=feature_columns(joint, config),
    )


def concat_tables(tables: list[FeatureTable]) -> FeatureTable:
    """Stack per-take tables, renumbering segment ids to stay unique.

    Rows tagged 0 (outside any cycle) keep their tag. Times stay take-local;
    concatenated tables are meant for training and fold assignment, not for
    time-axis exports.
    """
    if not tables:
        raise ValueError("no tables to concatenate")
    first = tables[0]
    for t in tables[1:]:
        if t.joint is not first.joint or t.config is not first.config:
            raise ValueError("cannot concatenate tables of different joint/config")
        if t.column_names != first.column_names:
            raise ValueError("cannot concatenate tables with different columns")
    seg_parts = []
    offset = 0
    for t in tables:
        ids = t.segment_of_row.copy()
        ids[ids > 0] += offset
        seg_parts.append(ids)
        offset = int(max(offset, ids.max(initial=0)))
    return FeatureTable(
        joint=first.joint,
        config=first.config,
        rows=np.concatenate([t.rows for t in tables], axis=0),
        targets=np.concatenate([t.targets for t in tables]),
        segment_of_row=np.concatenate(seg_parts),
        times_s=np.concatenate([t.times_s for t in tables]),
        sample_rate_hz=first.sample_rate_hz,
        column_names=first.column_names,
    )
