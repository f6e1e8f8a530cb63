"""Cross-validated comparison of the three input configurations.

Uses a shortened protocol (one velocity, smaller training cap) so the
demo finishes in seconds; the packaged default protocol is what the test
suite evaluates.

Run with: python3 demos/05_evaluation.py
"""

from myotorque.evaluate import MetricsReport, estimate_table, evaluate_cv
from myotorque.preprocess import (
    Joint,
    ModelConfig,
    build_features,
    compute_calibration,
    concat_tables,
)
from myotorque.synthgen import SessionSpec, default_session_spec, generate_session

base = default_session_spec(Joint.KNEE).to_dict()
base.update(velocities_deg_s=[60.0], takes_per_velocity=2)
spec = SessionSpec.from_dict(base)
session = generate_session(spec)
calib = compute_calibration(session.standing, session.initial_angle)

report = MetricsReport(n_folds=5, seed=0)
for config in (ModelConfig.BASELINE, ModelConfig.EMG, ModelConfig.FMG):
    table = concat_tables(
        [build_features(t.recording, spec.joint, config, calib)
         for t in session.takes]
    )
    result = evaluate_cv(table, train_cap=500, n_folds=5, seed=0)
    report.cells[(spec.joint, config)] = result.cell
    tested = result.predictions.fold_of_row >= 0
    print(f"{config.value:9s} tested {int(tested.sum())}/{table.n_rows} rows, "
          f"noise var per fold min/max: "
          f"{result.cell.noise_variances.min():.2e}/"
          f"{result.cell.noise_variances.max():.2e}")

print()
print(estimate_table(report))
