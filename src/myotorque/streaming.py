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
from scipy.signal import sosfilt_zi

from .errors import DataError
from .evaluate import TrainedEstimator
from .filters import IirCoefficients
from .preprocess import CalibrationRecord, ModelConfig, angle_prefilter, muscles_for


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
        self._zi = sosfilt_zi(coeffs.sos).tolist()
        self._state: list[list[float]] | None = None

    def push(self, value: float) -> float:
        x = float(value)
        if self._state is None:
            # Prime to the step response so the first samples are not a
            # decay from zero.
            self._state = [[z0 * x, z1 * x] for z0, z1 in self._zi]
        for (b0, b1, b2, a1, a2), z in zip(self._sections, self._state):
            y = b0 * x + z[0]
            z[0] = b1 * x - a1 * y + z[1]
            z[1] = b2 * x - a2 * y
            x = y
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
