"""Gaussian process regression on a toy problem.

Fits the exact GP to noisy samples of a smooth function, tunes the noise
variance by marginal likelihood, and reports the predictive band.

Run with: python3 demos/03_gpr_basics.py
"""

import numpy as np

from myotorque.gpr import (
    GpOptions,
    Hyperparameters,
    fit,
    kernel_rbf,
    log_marginal_likelihood,
    optimize_hyperparameters,
    predict,
)

rng = np.random.default_rng(3)
x_train = np.sort(rng.uniform(-3.0, 3.0, 60))[:, None]
noise_std = 0.1
y_train = np.sin(2.0 * x_train[:, 0]) * np.exp(-0.1 * x_train[:, 0] ** 2)
y_train += noise_std * rng.standard_normal(60)

print(f"kernel at zero distance: {kernel_rbf(np.zeros(1), np.zeros(1)):.3f}")

# Marginal likelihood before and after tuning the noise.
start = Hyperparameters(noise_variance=1.0)
model0 = fit(x_train, y_train, start)
hyper = optimize_hyperparameters(x_train, y_train, options=GpOptions(seed=0))
model = fit(x_train, y_train, hyper)
print(f"log marginal likelihood: {log_marginal_likelihood(model0):.2f} -> "
      f"{log_marginal_likelihood(model):.2f}")
print(f"tuned noise std: {np.sqrt(hyper.noise_variance):.3f} "
      f"(true {noise_std})")

# Posterior mean tracks the function; the band widens away from the data.
x_test = np.linspace(-4.0, 4.0, 9)[:, None]
mean, var = predict(model, x_test)
truth = np.sin(2.0 * x_test[:, 0]) * np.exp(-0.1 * x_test[:, 0] ** 2)
print(f"{'x':>6} {'truth':>8} {'mean':>8} {'std':>7}")
for xi, ti, mi, vi in zip(x_test[:, 0], truth, mean, var):
    print(f"{xi:6.2f} {ti:8.3f} {mi:8.3f} {np.sqrt(vi):7.3f}")
print("note the inflated std at x = +/-4, outside the training span")
