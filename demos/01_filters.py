"""Tour of the filtering toolbox: design, gain checks, zero-phase smoothing.

Run with: python3 demos/01_filters.py
"""

import numpy as np

from myotorque.filters import (
    design_butterworth_bandpass,
    design_butterworth_lowpass,
    filtfilt,
    gradient,
    pole_magnitudes,
    single_pass_gain,
)

FS = 2000.0

# The two lowpass designs the pipeline uses, plus the surface-EMG bandpass.
lp_envelope = design_butterworth_lowpass(4, 6.0, FS)
lp_angle = design_butterworth_lowpass(2, 20.0, FS)
bp_emg = design_butterworth_bandpass(4, 20.0, 500.0, FS)

for name, design in [("lp 6 Hz", lp_envelope), ("lp 20 Hz", lp_angle)]:
    dc = single_pass_gain(design, 0.0)
    fc = design.design.cutoffs_hz[0]
    at_fc = single_pass_gain(design, fc)
    worst_pole = max(pole_magnitudes(design))
    print(
        f"{name:9s} gain(0)={dc:.9f}  gain(fc)={at_fc:.4f}  "
        f"max|pole|={worst_pole:.6f}"
    )

# Zero-phase filtering: a noisy ramp keeps its timing after filtfilt.
rng = np.random.default_rng(7)
t = np.arange(int(2 * FS)) / FS
ramp = 30.0 * t + rng.normal(0.0, 0.8, t.size)
smooth = filtfilt(lp_angle, ramp)

# On a straight line the derivative should be flat at the slope.
vel = gradient(smooth, FS)
interior = vel[200:-200]
print(f"ramp slope recovered: {np.median(interior):.3f} deg/s (expected 30)")

# Forward-backward filtering leaves no lag: the cross-correlation between
# input and output peaks at zero shift.
wave = np.sin(2 * np.pi * 3.0 * t)
out = filtfilt(lp_angle, wave)
lags = np.arange(-50, 51)
xc = [np.dot(wave, np.roll(out, k)) for k in lags]
print(f"cross-correlation peak at lag {lags[int(np.argmax(xc))]} samples")
