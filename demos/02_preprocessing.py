"""From raw channels to a model-ready feature table.

Generates one synthetic knee take and walks it through calibration, EMG
envelope extraction, velocity computation, motion segmentation, and
cross-rate alignment onto the FMG clock.

Run with: python3 demos/02_preprocessing.py
"""

import numpy as np

from myotorque.preprocess import (
    Joint,
    ModelConfig,
    build_features,
    compute_calibration,
    emg_envelope,
    joint_velocity,
    muscles_for,
    segment_motions,
    smooth_angle,
)
from myotorque.synthgen import default_session_spec, generate_session

spec = default_session_spec(Joint.KNEE)
session = generate_session(spec)
take = session.takes[0]
print(f"take: {take.velocity_deg_s:g} deg/s, "
      f"{len(take.recording['angle_deg'])} high-rate samples")

# Calibration comes from two short static recordings: relaxed standing for
# the FMG offsets, the initial pose for the angle offset.
calib = compute_calibration(session.standing, session.initial_angle)
print(f"angle offset: {calib.angle_offset:+.2f} deg "
      f"(true {session.calibration.angle_offset:+.2f})")

# EMG to amplitude envelope: bandpass, rectify, lowpass.
muscle = muscles_for(Joint.KNEE)[0]
env = emg_envelope(take.recording[f"emg_{muscle.name}"])
act = take.truth.activations[muscle].values
corr = np.corrcoef(env.values, act)[0, 1]
print(f"{muscle.name} envelope vs true activation: r = {corr:.3f}")

# Velocity from the smoothed angle.
vel = joint_velocity(take.recording["angle_deg"])
print(f"velocity range: [{vel.values.min():.1f}, {vel.values.max():.1f}] deg/s")

# Motion segmentation finds the swing boundaries (angle maxima).
smoothed = smooth_angle(take.recording["angle_deg"])
bounds = segment_motions(smoothed.values, smoothed.sample_rate_hz)
print(f"segments found: {len(bounds.segments)} "
      f"(protocol swings: {spec.swings_per_take})")

# Everything lands on the 200 Hz FMG clock in one table per configuration.
for config in (ModelConfig.BASELINE, ModelConfig.EMG, ModelConfig.FMG):
    table = build_features(take.recording, Joint.KNEE, config, calib)
    print(f"{config.value:9s} {table.n_rows} rows x {table.n_features} features "
          f"({', '.join(table.column_names)})")
