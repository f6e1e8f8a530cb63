"""Joint torque estimation from kinematics and muscle signals.

A Gaussian process regressor maps joint angle and angular velocity, plus
optional FMG (force myography) or EMG channels, to knee or ankle torque.
The package covers the full chain: signal conditioning, calibration,
cross-rate alignment, motion segmentation, model fitting and selection,
cross-validated evaluation, synthetic sessions with ground truth, file
round-tripping, and a causal streaming mode.
"""

__version__ = "0.1.0"
