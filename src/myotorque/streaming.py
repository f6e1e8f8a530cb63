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

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import sosfilt, sosfilt_zi

from .errors import DataError
from .evaluate import TrainedEstimator
from .filters import IirCoefficients
from .preprocess import CalibrationRecord, ModelConfig, angle_prefilter, muscles_for


class CausalFilter:
    """Stateful single-pass IIR filter (second-order sections)."""

    def __init__(self, coeffs: IirCoefficients):
        self._sos = coeffs.sos
        self._state: np.ndarray | None = None

    def push(self, value: float) -> float:
        if self._state is None:
            # Prime to the step response so the first samples are not a
            # decay from zero.
            self._state = sosfilt_zi(self._sos) * value
        out, self._state = sosfilt(self._sos, [value], zi=self._state)
        return float(out[0])


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
        if not (np.isfinite(angle_deg) and np.all(np.isfinite(fmg_values))):
            # Reject before any state moves: a NaN in the filter state
            # would poison every later tick of the stream.
            raise DataError("tick has a non-finite angle or FMG value")
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
        smooth = self._angle_filter.push(angle_deg)
        if self._prev_angle is None:
            velocity = 0.0
        else:
            velocity = (smooth - self._prev_angle) * rate
        self._prev_angle = smooth
        self._tick += 1

        row = np.array([angle_deg, velocity, *fmg_values])
        mean, std = self.estimator.predict_torque(row[None, :])
        return StreamSample(
            time_s=float(time_s),
            torque_nm=float(mean[0]),
            torque_std_nm=float(std[0]),
        )
