"""Generating, saving, and reloading a synthetic recording session.

The generator plays an isokinetic dynamometer protocol with a known
torque law, so every recording comes with its ground truth attached.

Run with: python3 demos/04_synthetic_session.py
"""

import tempfile
from pathlib import Path

import numpy as np

from myotorque.preprocess import Joint
from myotorque.recordings import load_session, write_session
from myotorque.synthgen import default_session_spec, generate_session

spec = default_session_spec(Joint.ANKLE)
print(f"protocol: {spec.joint.value}, velocities {spec.velocities_deg_s} deg/s, "
      f"{spec.takes_per_velocity} takes each, {spec.swings_per_take} swings")

session = generate_session(spec)
take = session.takes[0]
truth = take.truth
print(f"channels per take: {sorted(take.recording.labels())}")
print(f"per-swing effort levels: {np.round(truth.efforts, 3)}")
print(f"clean torque range: [{truth.clean_torque.values.min():.1f}, "
      f"{truth.clean_torque.values.max():.1f}] Nm")

# The torque law is exactly reconstructible from the truth fields. The
# waveform starts at the neutral pose, so sample 0 is the angle reference.
c = truth.coefficients
rebuilt = c.angle_coeff * (truth.true_angle.values - truth.true_angle.values[0])
rebuilt += c.velocity_coeff * truth.true_velocity.values
for muscle, weight in c.muscle_weights.items():
    rebuilt += weight * truth.activations[muscle].values
err = np.max(np.abs(rebuilt - truth.clean_torque.values))
print(f"torque law reconstruction error: {err:.2e} Nm")

# Sessions round-trip through CSV files bit for bit.
with tempfile.TemporaryDirectory() as tmp:
    out = write_session(session, Path(tmp) / "ankle")
    back = load_session(out)
    a = session.takes[0].recording["torque_nm"].values
    b = back.takes[0].recording["torque_nm"].values
    print(f"wrote {len(list(out.glob('*.csv')))} CSV files; "
          f"round trip bit-exact: {np.array_equal(a, b)}")
