"""Synthetic isokinetic dynamometer sessions with known ground truth.

Each take holds the limb at the starting pose, sweeps through a fixed
number of constant-speed flexion/extension swings between two angle
limits, and returns to the start. Muscle activation follows the motion
(each muscle fires on its own half of the cycle) but its amplitude is
jittered per swing, so the muscle channels carry torque information the
kinematics alone cannot explain. Everything downstream of the public
pipeline (sensor offsets, noise, per-swing efforts, the clean torque) is
exposed in :class:`GroundTruth` so tests can compare against the truth
rather than against the code under test.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec
from .filters import design_butterworth_bandpass, design_butterworth_lowpass, filtfilt
from .preprocess import CalibrationRecord, Joint, Muscle, muscles_for
from .timeseries import MultiChannelRecording, TimeSeries

HOLD_S = 0.5           # dwell at the starting pose before and after the sweep
LEAD_FRAC = 0.3        # lead-in/lead-out travel as a fraction of the angle span
BLEND_S = 0.010        # Hann smoothing width applied to the triangle wave
EMG_GAIN_V = 1e-3      # activation-to-volts gain of the simulated amplifier
FMG_DECIMATE_HZ = 10.0  # anti-alias cutoff before decimating FMG to its rate
DRIFT_FREQ_HZ = 0.05   # slow baseline wander frequency on FMG channels
CALIBRATION_S = 10.0   # length of each calibration recording

_KIND_NAMES = {float: "a number", int: "an integer", str: "a string",
               list: "a list", dict: "a JSON object"}


def _checked(value, kind: type, what: str):
    """``value`` if it is a JSON value of ``kind``, else :class:`InvalidSpec`.

    A number field takes an integer too (returned as a float); no field
    takes a bool.
    """
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise InvalidSpec(f"{what} must be {_KIND_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value


def _field(d: dict, key: str, kind: type):
    """``d[key]`` checked by :func:`_checked`; a missing key is InvalidSpec."""
    if key not in d:
        raise InvalidSpec(f"lacks {key!r}")
    return _checked(d[key], kind, repr(key))


def _member(enum_cls, name: str, what: str):
    try:
        return enum_cls[name.upper()]
    except KeyError:
        raise InvalidSpec(f"unknown {what} {name!r}") from None


@dataclass(frozen=True)
class NoiseSpec:
    """Sensor noise levels; see the default session files for typical values."""

    emg_snr: float = 10.0
    fmg_noise_std: float = 0.02
    torque_noise_std: float = 0.5
    angle_noise_std_deg: float = 0.05
    fmg_drift_amp: float = 0.005

    def to_dict(self) -> dict:
        return {
            "emg_snr": self.emg_snr,
            "fmg_noise_std": self.fmg_noise_std,
            "torque_noise_std": self.torque_noise_std,
            "angle_noise_std_deg": self.angle_noise_std_deg,
            "fmg_drift_amp": self.fmg_drift_amp,
        }

    @staticmethod
    def from_dict(d: dict) -> "NoiseSpec":
        """Missing levels keep their defaults; an unknown key is InvalidSpec."""
        d = _checked(d, dict, "'noise'")
        known = NoiseSpec().to_dict()
        unknown = sorted(set(d) - set(known))
        if unknown:
            raise InvalidSpec(f"unknown noise keys {unknown}")
        return NoiseSpec(**{k: _field(d, k, float) for k in d})


@dataclass(frozen=True)
class TorqueModel:
    """Linear torque law T = c_angle * theta + c_velocity * omega + sum w_m a_m.

    theta is the angle relative to the starting pose (what calibration
    recovers), omega its derivative, and a_m the per-muscle activation.
    A muscle's sign in ``muscle_weights`` doubles as its firing direction:
    positive-weight muscles activate on the positive-velocity half of the
    cycle, negative-weight ones on the other half.
    """

    angle_coeff: float
    velocity_coeff: float
    muscle_weights: dict[Muscle, float]

    def to_dict(self) -> dict:
        return {
            "angle_coeff": self.angle_coeff,
            "velocity_coeff": self.velocity_coeff,
            "muscle_weights": {m.name: w for m, w in self.muscle_weights.items()},
        }

    @staticmethod
    def from_dict(d: dict) -> "TorqueModel":
        d = _checked(d, dict, "'torque'")
        weights = _field(d, "muscle_weights", dict)
        return TorqueModel(
            angle_coeff=_field(d, "angle_coeff", float),
            velocity_coeff=_field(d, "velocity_coeff", float),
            muscle_weights={
                _member(Muscle, k, "muscle"): _checked(v, float, f"weight of {k!r}")
                for k, v in weights.items()
            },
        )


@dataclass(frozen=True)
class SessionSpec:
    """Complete description of one synthetic recording session.

    An out-of-range field raises :class:`InvalidSpec` naming it.
    """

    joint: Joint
    velocities_deg_s: tuple[float, ...]
    angle_low_deg: float
    angle_high_deg: float
    takes_per_velocity: int = 3
    swings_per_take: int = 5
    rep_amplitude_jitter: float = 0.15
    hold_s: float = HOLD_S
    high_rate_hz: float = 2000.0
    fmg_rate_hz: float = 200.0
    seed: int = 42
    torque: TorqueModel = field(kw_only=True)
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self):
        def require(ok: bool, name: str, rule: str, value) -> None:
            if not ok:
                raise InvalidSpec(f"{name} must be {rule}, got {value!r}")

        require(len(self.velocities_deg_s) > 0, "velocities_deg_s",
                "a non-empty list", list(self.velocities_deg_s))
        for v in self.velocities_deg_s:
            require(0.0 < v < np.inf, "velocities_deg_s", "finite and > 0", v)
        require(len(set(self.velocities_deg_s)) == len(self.velocities_deg_s),
                "velocities_deg_s", "distinct", list(self.velocities_deg_s))
        for name in ("angle_low_deg", "angle_high_deg"):
            require(np.isfinite(getattr(self, name)), name, "finite",
                    getattr(self, name))
        if self.angle_high_deg <= self.angle_low_deg:
            raise InvalidSpec("angle_high_deg must exceed angle_low_deg")
        require(self.takes_per_velocity >= 1, "takes_per_velocity", ">= 1",
                self.takes_per_velocity)
        require(self.swings_per_take >= 1, "swings_per_take", ">= 1",
                self.swings_per_take)
        require(0.0 <= self.rep_amplitude_jitter < 1.0, "rep_amplitude_jitter",
                "in [0, 1)", self.rep_amplitude_jitter)
        require(0.0 <= self.hold_s < np.inf, "hold_s", "finite and >= 0", self.hold_s)
        require(self.seed >= 0, "seed", ">= 0", self.seed)
        for name in ("high_rate_hz", "fmg_rate_hz"):
            rate = getattr(self, name)
            require(0.0 < rate < np.inf, name, "finite and > 0", rate)
        for name in ("angle_coeff", "velocity_coeff"):
            value = getattr(self.torque, name)
            require(np.isfinite(value), f"torque.{name}", "finite", value)
        missing = [
            m.name for m in muscles_for(self.joint)
            if m not in self.torque.muscle_weights
        ]
        if missing:
            raise InvalidSpec(f"torque.muscle_weights lacks {missing}")
        for m, w in self.torque.muscle_weights.items():
            require(np.isfinite(w), f"torque.muscle_weights[{m.name}]", "finite", w)
        for name, level in self.noise.to_dict().items():
            if name == "emg_snr":
                require(0.0 < level < np.inf, "noise.emg_snr", "finite and > 0", level)
            else:
                require(0.0 <= level < np.inf, f"noise.{name}", "finite and >= 0", level)
        ratio = self.high_rate_hz / self.fmg_rate_hz
        if abs(ratio - round(ratio)) > 1e-9:
            raise InvalidSpec("high_rate_hz must be an integer multiple of fmg_rate_hz")

    @property
    def span_deg(self) -> float:
        return self.angle_high_deg - self.angle_low_deg

    def to_dict(self) -> dict:
        return {
            "joint": self.joint.name.lower(),
            "velocities_deg_s": list(self.velocities_deg_s),
            "angle_low_deg": self.angle_low_deg,
            "angle_high_deg": self.angle_high_deg,
            "takes_per_velocity": self.takes_per_velocity,
            "swings_per_take": self.swings_per_take,
            "rep_amplitude_jitter": self.rep_amplitude_jitter,
            "hold_s": self.hold_s,
            "high_rate_hz": self.high_rate_hz,
            "fmg_rate_hz": self.fmg_rate_hz,
            "seed": self.seed,
            "torque": self.torque.to_dict(),
            "noise": self.noise.to_dict(),
        }

    @staticmethod
    def from_dict(d: dict) -> "SessionSpec":
        """Inverse of :meth:`to_dict`; a malformed spec (not an object, a
        missing key, a wrongly typed or out-of-range field, an unknown
        joint, muscle or noise key) raises :class:`InvalidSpec`."""
        d = _checked(d, dict, "a session spec")
        fields = dict(
            joint=_member(Joint, _field(d, "joint", str), "joint"),
            velocities_deg_s=tuple(
                _checked(v, float, "a velocity")
                for v in _field(d, "velocities_deg_s", list)
            ),
            angle_low_deg=_field(d, "angle_low_deg", float),
            angle_high_deg=_field(d, "angle_high_deg", float),
            takes_per_velocity=_field(d, "takes_per_velocity", int),
            swings_per_take=_field(d, "swings_per_take", int),
            rep_amplitude_jitter=_field(d, "rep_amplitude_jitter", float),
            hold_s=_field(d, "hold_s", float),
            high_rate_hz=_field(d, "high_rate_hz", float),
            fmg_rate_hz=_field(d, "fmg_rate_hz", float),
            seed=_field(d, "seed", int),
            torque=TorqueModel.from_dict(_field(d, "torque", dict)),
            noise=NoiseSpec.from_dict(_field(d, "noise", dict)),
        )
        try:
            return SessionSpec(**fields)
        except InvalidSpec as exc:
            raise InvalidSpec(f"invalid session spec: {exc}") from None


@dataclass
class GroundTruth:
    """Everything the sensors hide: the oracle side of a synthetic take.

    ``clean_torque``, ``true_angle`` and ``true_velocity`` live on the
    high-rate grid; ``clean_torque_fmg`` is the same torque sampled at the
    FMG ticks, and ``segment_boundaries_fmg`` gives the swing boundary
    (angle maximum) indices on that grid. ``coefficients`` is the exact
    torque law, so T can be rebuilt from the other truth fields.
    """

    clean_torque: TimeSeries
    clean_torque_fmg: TimeSeries
    true_angle: TimeSeries
    true_velocity: TimeSeries
    coefficients: TorqueModel
    activations: dict[Muscle, TimeSeries]
    efforts: np.ndarray
    swing_peak_times_s: np.ndarray
    segment_boundaries_fmg: np.ndarray
    calibration: CalibrationRecord
    segment_count: int


@dataclass
class TakeData:
    velocity_deg_s: float
    take_index: int
    recording: MultiChannelRecording
    truth: GroundTruth


@dataclass
class SyntheticSession:
    spec: SessionSpec
    standing: MultiChannelRecording
    initial_angle: TimeSeries
    calibration: CalibrationRecord
    takes: list[TakeData]

    @property
    def joint(self) -> Joint:
        return self.spec.joint


def _session_offsets(spec: SessionSpec) -> tuple[dict[Muscle, float], float]:
    """Per-session sensor offsets, derived from the seed alone so the
    calibration recordings and every take agree on them."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    fmg = {
        m: float(rng.uniform(0.5, 1.5)) for m in muscles_for(spec.joint)
    }
    angle = float(rng.uniform(-2.0, 2.0))
    return fmg, angle


def _hann_smooth(x: np.ndarray, rate_hz: float, width_s: float) -> np.ndarray:
    """Moving average with a normalized Hann window; exact on straight lines."""
    m = int(round(width_s * rate_hz))
    if m < 2:
        return x
    if m % 2 == 0:
        m += 1
    kernel = np.hanning(m + 2)[1:-1]
    kernel /= kernel.sum()
    half = m // 2
    padded = np.pad(x, half, mode="edge")
    return np.convolve(padded, kernel, mode="valid")


def _motion_profile(
    spec: SessionSpec, speed_deg_s: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angle waveform on the high-rate grid plus the swing peak times.

    Returns (times, clean angle, peak times). The waveform starts and ends
    at ``high - LEAD_FRAC * span`` with holds, so every maximum is interior
    and the sweep contains exactly ``swings_per_take + 1`` maxima.
    """
    lo, hi = spec.angle_low_deg, spec.angle_high_deg
    span = spec.span_deg
    start = hi - LEAD_FRAC * span
    leg = span / speed_deg_s
    lead = LEAD_FRAC * span / speed_deg_s

    bp_t = [0.0, spec.hold_s]
    bp_v = [start, start]
    t = spec.hold_s + lead
    bp_t.append(t)
    bp_v.append(hi)
    peaks = [t]
    for _ in range(spec.swings_per_take):
        t += leg
        bp_t.append(t)
        bp_v.append(lo)
        t += leg
        bp_t.append(t)
        bp_v.append(hi)
        peaks.append(t)
    t += lead
    bp_t.append(t)
    bp_v.append(start)
    t += spec.hold_s
    bp_t.append(t)
    bp_v.append(start)

    n = int(np.floor(t * spec.high_rate_hz)) + 1
    times = np.arange(n) / spec.high_rate_hz
    tri = np.interp(times, bp_t, bp_v)
    angle = _hann_smooth(tri, spec.high_rate_hz, BLEND_S)
    return times, angle, np.asarray(peaks)


def _band_noise(rng: np.random.Generator, n: int, rate_hz: float) -> np.ndarray:
    """Unit-RMS noise restricted to the surface-EMG band (20-500 Hz)."""
    band = design_butterworth_bandpass(4, 20.0, 500.0, rate_hz)
    shaped = filtfilt(band, rng.standard_normal(n))
    return shaped / np.std(shaped)


def generate_take(
    spec: SessionSpec, velocity_deg_s: float, take_index: int
) -> TakeData:
    """One recording at one protocol velocity, with its ground truth.

    Deterministic in (seed, velocity index, take index); regenerating any
    take reproduces it bit for bit.
    """
    if velocity_deg_s not in spec.velocities_deg_s:
        raise ValueError(
            f"velocity {velocity_deg_s} deg/s is not part of this session"
        )
    vel_idx = spec.velocities_deg_s.index(velocity_deg_s)
    rng = np.random.default_rng(
        np.random.SeedSequence(spec.seed, spawn_key=(vel_idx, take_index))
    )
    fmg_offsets, angle_offset_extra = _session_offsets(spec)
    muscles = muscles_for(spec.joint)

    times, angle_true, peak_times = _motion_profile(spec, velocity_deg_s)
    n = len(times)
    rate = spec.high_rate_hz
    omega_true = np.gradient(angle_true, 1.0 / rate)
    drive = np.clip(omega_true / velocity_deg_s, -1.0, 1.0)

    # Per-swing effort: constant inside each peak-to-peak interval, 1 outside.
    efforts = 1.0 + spec.rep_amplitude_jitter * rng.uniform(-1.0, 1.0, spec.swings_per_take)
    effort_of_t = np.ones(n)
    for k in range(spec.swings_per_take):
        mask = (times >= peak_times[k]) & (times < peak_times[k + 1])
        effort_of_t[mask] = efforts[k]

    activations: dict[Muscle, TimeSeries] = {}
    muscle_torque = np.zeros(n)
    for m in muscles:
        w = spec.torque.muscle_weights[m]
        a = effort_of_t * np.maximum(np.sign(w) * drive, 0.0)
        activations[m] = TimeSeries(
            label=f"activation_{m.name}",
            sample_rate_hz=rate,
            start_time_s=0.0,
            values=a,
        )
        muscle_torque += w * a

    start_pose = spec.angle_high_deg - LEAD_FRAC * spec.span_deg
    theta_rel = angle_true - start_pose
    clean_torque = (
        spec.torque.angle_coeff * theta_rel
        + spec.torque.velocity_coeff * omega_true
        + muscle_torque
    )

    noise = spec.noise
    channels: dict[str, TimeSeries] = {
        "angle_deg": TimeSeries(
            label="angle_deg",
            sample_rate_hz=rate,
            start_time_s=0.0,
            values=angle_true
            + angle_offset_extra
            + noise.angle_noise_std_deg * rng.standard_normal(n),
        ),
        "torque_nm": TimeSeries(
            label="torque_nm",
            sample_rate_hz=rate,
            start_time_s=0.0,
            values=clean_torque + noise.torque_noise_std * rng.standard_normal(n),
        ),
    }

    for m in muscles:
        a = activations[m].values
        carrier = _band_noise(rng, n, rate)
        floor = _band_noise(rng, n, rate)
        peak = max(float(np.max(a)), 1e-9)
        channels[f"emg_{m.name}"] = TimeSeries(
            label=f"emg_{m.name}",
            sample_rate_hz=rate,
            start_time_s=0.0,
            values=EMG_GAIN_V * (a * carrier + (peak / noise.emg_snr) * floor),
        )

    step = int(round(rate / spec.fmg_rate_hz))
    n_fmg = (n + step - 1) // step
    t_fmg = times[::step]
    anti_alias = design_butterworth_lowpass(2, FMG_DECIMATE_HZ, rate)
    for m in muscles:
        smooth = filtfilt(anti_alias, activations[m].values)[::step]
        drift = noise.fmg_drift_amp * np.sin(
            2.0 * np.pi * DRIFT_FREQ_HZ * t_fmg + rng.uniform(0.0, 2.0 * np.pi)
        )
        channels[f"fmg_{m.name}"] = TimeSeries(
            label=f"fmg_{m.name}",
            sample_rate_hz=spec.fmg_rate_hz,
            start_time_s=0.0,
            values=smooth
            + fmg_offsets[m]
            + drift
            + noise.fmg_noise_std * rng.standard_normal(n_fmg),
        )

    truth = GroundTruth(
        clean_torque=TimeSeries(
            label="torque_clean",
            sample_rate_hz=rate,
            start_time_s=0.0,
            values=clean_torque,
        ),
        clean_torque_fmg=TimeSeries(
            label="torque_clean",
            sample_rate_hz=spec.fmg_rate_hz,
            start_time_s=0.0,
            values=clean_torque[::step].copy(),
        ),
        true_angle=TimeSeries(
            label="angle_true",
            sample_rate_hz=rate,
            start_time_s=0.0,
            values=angle_true,
        ),
        true_velocity=TimeSeries(
            label="velocity_true",
            sample_rate_hz=rate,
            start_time_s=0.0,
            values=omega_true,
        ),
        coefficients=spec.torque,
        activations=activations,
        efforts=efforts,
        swing_peak_times_s=peak_times,
        segment_boundaries_fmg=np.round(peak_times * spec.fmg_rate_hz).astype(
            np.intp
        ),
        calibration=CalibrationRecord(
            fmg_offsets=dict(fmg_offsets),
            angle_offset=start_pose + angle_offset_extra,
        ),
        segment_count=spec.swings_per_take,
    )
    return TakeData(
        velocity_deg_s=velocity_deg_s,
        take_index=take_index,
        recording=MultiChannelRecording(channels),
        truth=truth,
    )


def generate_calibration(
    spec: SessionSpec,
) -> tuple[MultiChannelRecording, TimeSeries, CalibrationRecord]:
    """Relaxed standing FMG recording, initial-pose angle recording, and
    the true offsets both are centred on."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(100,)))
    fmg_offsets, angle_offset_extra = _session_offsets(spec)
    start_pose = spec.angle_high_deg - LEAD_FRAC * spec.span_deg

    n_fmg = int(round(CALIBRATION_S * spec.fmg_rate_hz))
    channels = {
        f"fmg_{m.name}": TimeSeries(
            label=f"fmg_{m.name}",
            sample_rate_hz=spec.fmg_rate_hz,
            start_time_s=0.0,
            values=fmg_offsets[m]
            + spec.noise.fmg_noise_std * rng.standard_normal(n_fmg),
        )
        for m in muscles_for(spec.joint)
    }
    standing = MultiChannelRecording(channels)

    n_angle = int(round(CALIBRATION_S * spec.high_rate_hz))
    initial_angle = TimeSeries(
        label="angle_deg",
        sample_rate_hz=spec.high_rate_hz,
        start_time_s=0.0,
        values=start_pose
        + angle_offset_extra
        + spec.noise.angle_noise_std_deg * rng.standard_normal(n_angle),
    )
    truth = CalibrationRecord(
        fmg_offsets=dict(fmg_offsets),
        angle_offset=start_pose + angle_offset_extra,
    )
    return standing, initial_angle, truth


def generate_session(spec: SessionSpec) -> SyntheticSession:
    """All takes of the protocol plus the session's calibration recordings."""
    standing, initial_angle, truth = generate_calibration(spec)
    takes = [
        generate_take(spec, velocity, take_index)
        for velocity in spec.velocities_deg_s
        for take_index in range(spec.takes_per_velocity)
    ]
    return SyntheticSession(
        spec=spec,
        standing=standing,
        initial_angle=initial_angle,
        calibration=truth,
        takes=takes,
    )


def default_session_spec(joint: Joint, seed: int | None = None) -> SessionSpec:
    """The packaged per-joint session description; ``seed`` overrides."""
    text = (
        importlib.resources.files("myotorque")
        .joinpath("data/default_session.json")
        .read_text()
    )
    d = json.loads(text)[joint.value]
    if seed is not None:
        d["seed"] = seed
    return SessionSpec.from_dict(d)
