"""Causal, sample-by-sample torque estimation for live use.

The batch pipeline filters forward and backward over whole recordings,
which needs the future. This module swaps in single-pass equivalents:
a causal low-pass on the angle (state primed to the first sample so there
is no start-up step), a backward-difference velocity, and direct FMG
offset subtraction. EMG models are not supported here; the envelope chain
runs at the high rate and its zero-phase stages have no causal drop-in
with the same contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .evaluate import TrainedEstimator
from .filters import IirCoefficients
from .preprocess import CalibrationRecord, ModelConfig, angle_prefilter, muscles_for

# A joint angle beyond this is a sensor fault. Accepting one would leave a
# value in the angle filter so large that the velocity of every ordinary
# tick after it overflows, and each of those ticks would be rejected in
# turn.
_MAX_ABS_ANGLE_DEG = 1e6


class CausalFilter:
    """Stateful single-pass IIR filter (second-order sections).

    Each push runs scipy's ``sosfilt`` recurrence (transposed direct form
    II, the same operations in the same order) on Python floats, so the
    output is bit-identical to one ``sosfilt`` call over the whole signal
    at a small fraction of the cost of a single-sample ``sosfilt`` call.
    """

    def __init__(self, coeffs: IirCoefficients):
        # (b0, b1, b2, a1, a2) per section; sos rows are normalized, a0 = 1.
        self._sections = [
            (b0, b1, b2, a1, a2) for b0, b1, b2, _, a1, a2 in coeffs.sos.tolist()
        ]
        self._zi = coeffs.zi.tolist()
        # One (z0, z1) pair per section. Each push replaces the tuple
        # rather than mutating it, so a caller can hold on to the state
        # before a push and put it back.
        self._state: tuple[tuple[float, float], ...] | None = None

    def push(self, value: float) -> float:
        x = float(value)
        state = self._state
        if state is None:
            # Prime to the step response so the first samples are not a
            # decay from zero.
            state = [(z0 * x, z1 * x) for z0, z1 in self._zi]
        after = []
        for (b0, b1, b2, a1, a2), (z0, z1) in zip(self._sections, state):
            y = b0 * x + z0
            after.append((b1 * x - a1 * y + z1, b2 * x - a2 * y))
            x = y
        self._state = tuple(after)
        return x


@dataclass
class StreamSample:
    """One emitted estimate."""

    time_s: float
    torque_nm: float
    torque_std_nm: float


@dataclass
class StreamingPredictor:
    """Feeds calibrated, causally filtered features into a trained model.

    Expects one row per FMG-rate tick: the raw angle plus, for FMG models,
    the raw FMG value of each of the model's muscles in their fixed order.
    A tick rejected with :class:`DataError` moves no state: the filter,
    the previous angle and the tick clock stay as they were. A
    calibration without an offset for one of the model's muscles (another
    joint's) is a :class:`DataError` at construction.
    """

    estimator: TrainedEstimator
    calibration: CalibrationRecord | None = None
    _angle_filter: CausalFilter = field(init=False)
    _prev_angle: float | None = field(init=False, default=None)
    _tick: int = field(init=False, default=0)

    def __post_init__(self):
        if self.estimator.config is ModelConfig.EMG:
            raise DataError(
                "streaming supports baseline and fmg models only; "
                "the EMG envelope is not causal"
            )
        if self.calibration is not None:
            missing = [
                m.name for m in self.muscles if m not in self.calibration.fmg_offsets
            ]
            if missing:
                raise DataError(
                    f"calibration has no FMG offset for {', '.join(missing)}, "
                    f"which the {self.estimator.joint.value} model needs"
                )
        self._angle_filter = CausalFilter(angle_prefilter(self.estimator.sample_rate_hz))

    @property
    def muscles(self):
        if self.estimator.config is ModelConfig.BASELINE:
            return ()
        return muscles_for(self.estimator.joint)

    def push(
        self, angle_deg: float, fmg_values: tuple[float, ...] = (), time_s: float | None = None
    ) -> StreamSample:
        muscles = self.muscles
        if len(fmg_values) != len(muscles):
            raise DataError(
                f"model needs {len(muscles)} FMG values per tick, "
                f"got {len(fmg_values)}"
            )
        if time_s is not None and not math.isfinite(time_s):
            raise DataError(f"tick has a non-finite time {time_s!r}")
        if not (np.isfinite(angle_deg) and np.all(np.isfinite(fmg_values))):
            # Reject before any state moves: a NaN in the filter state
            # would poison every later tick of the stream.
            raise DataError("tick has a non-finite angle or FMG value")
        if abs(angle_deg) > _MAX_ABS_ANGLE_DEG:
            raise DataError(
                f"tick angle {angle_deg:g} deg is beyond ±{_MAX_ABS_ANGLE_DEG:g} deg"
            )
        rate = self.estimator.sample_rate_hz
        if time_s is None:
            time_s = self._tick / rate

        if self.calibration is not None:
            angle_deg = angle_deg - self.calibration.angle_offset
            fmg_values = tuple(
                v - self.calibration.fmg_offsets[m]
                for v, m in zip(fmg_values, muscles)
            )

        # The angle feature stays raw (matching the batch pipeline); the
        # low-pass only conditions the velocity estimate.
        filter_state = self._angle_filter._state
        smooth = self._angle_filter.push(angle_deg)
        if self._prev_angle is None:
            velocity = 0.0
        else:
            velocity = (smooth - self._prev_angle) * rate
        row = np.array([angle_deg, velocity, *fmg_values])
        try:
            # The model rejects a row whose normalized features overflow
            # (a finite but huge FMG value).
            mean, std = self.estimator.predict_torque(row[None, :])
        except DataError:
            # A rejected tick leaves no trace: the stream goes on as if
            # the line had never arrived.
            self._angle_filter._state = filter_state
            raise
        self._prev_angle = smooth
        self._tick += 1
        return StreamSample(
            time_s=float(time_s),
            torque_nm=float(mean[0]),
            torque_std_nm=float(std[0]),
        )
