"""Causal sample-by-sample torque prediction vs the offline pipeline.

Trains an FMG model on a shortened knee session, then replays one take
through the streaming predictor exactly as the CLI `stream` subcommand
would, and compares against batch predictions on the same take. The
streaming path must use causal filters, so it lags the zero-phase batch
result slightly; the two stay strongly correlated.

Run with: python3 demos/06_streaming.py
"""

import numpy as np

from myotorque.evaluate import train_model
from myotorque.preprocess import (
    Joint,
    ModelConfig,
    build_features,
    compute_calibration,
    concat_tables,
    muscles_for,
)
from myotorque.streaming import StreamingPredictor
from myotorque.synthgen import SessionSpec, default_session_spec, generate_session

base = default_session_spec(Joint.KNEE).to_dict()
base.update(velocities_deg_s=[60.0], takes_per_velocity=2)
spec = SessionSpec.from_dict(base)
session = generate_session(spec)
calib = compute_calibration(session.standing, session.initial_angle)

tables = [build_features(t.recording, spec.joint, ModelConfig.FMG, calib)
          for t in session.takes]
estimator = train_model(concat_tables(tables), train_cap=600, seed=0)
print(f"trained on {estimator.model.n_train} rows, "
      f"noise std {np.sqrt(estimator.model.hyper.noise_variance):.4f}")

# Replay take 0 tick by tick from its raw channels.
take = session.takes[0]
muscles = muscles_for(spec.joint)
fmg = [take.recording[f"fmg_{m.name}"].values for m in muscles]
angle_hi = take.recording["angle_deg"].values
step = int(round(spec.high_rate_hz / spec.fmg_rate_hz))

predictor = StreamingPredictor(estimator, calib)
streamed = np.array([
    predictor.push(angle_hi[i * step], tuple(f[i] for f in fmg)).torque_nm
    for i in range(len(fmg[0]))
])

batch, _ = estimator.predict_torque(tables[0].rows)
r = np.corrcoef(streamed, batch)[0, 1]
lagged = np.corrcoef(streamed[2:], batch[:-2])[0, 1]
print(f"stream vs batch: r = {r:.3f} (r = {lagged:.3f} after 2-tick shift)")
print(f"peak torque streamed {streamed.min():.1f}..{streamed.max():.1f} Nm, "
      f"batch {batch.min():.1f}..{batch.max():.1f} Nm")
