"""Dense Gaussian-process oracle in plain numpy, independent of ``myotorque.gpr``.

RBF kernel s^2 exp(-|x - x'|^2 / (2 l^2)) with explicit coordinate
differences, the log marginal likelihood from ``slogdet`` and ``solve``,
and gradients by central finite differences. It is slow and simple on
purpose: the correctness checks compare the program against it.
"""

from __future__ import annotations

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))
_BLOCK = 1024


def kernel(xa: np.ndarray, xb: np.ndarray, log_hyper) -> np.ndarray:
    """Noise-free covariance between two point sets; log_hyper = (log s, log l, log v)."""
    s2 = np.exp(2.0 * log_hyper[0])
    ell2 = np.exp(2.0 * log_hyper[1])
    out = np.empty((xa.shape[0], xb.shape[0]))
    for lo in range(0, xb.shape[0], _BLOCK):
        block = xb[lo:lo + _BLOCK]
        d2 = np.zeros((xa.shape[0], block.shape[0]))
        for j in range(xa.shape[1]):
            d2 += (xa[:, j, None] - block[None, :, j]) ** 2
        out[:, lo:lo + _BLOCK] = s2 * np.exp(-0.5 * d2 / ell2)
    return out


def _noisy(x: np.ndarray, log_hyper) -> np.ndarray:
    return kernel(x, x, log_hyper) + np.exp(log_hyper[2]) * np.eye(x.shape[0])


def log_marginal(x: np.ndarray, y: np.ndarray, log_hyper) -> float:
    k = _noisy(x, log_hyper)
    sign, logdet = np.linalg.slogdet(k)
    if sign <= 0:
        raise np.linalg.LinAlgError("covariance is not positive definite")
    alpha = np.linalg.solve(k, y)
    return float(-0.5 * y @ alpha - 0.5 * logdet - 0.5 * len(y) * LOG_2PI)


def lml_gradient_fd(x: np.ndarray, y: np.ndarray, log_hyper, coords=(0, 1, 2),
                    step: float = 1e-4) -> np.ndarray:
    """Central differences of the log marginal likelihood in the log parameters."""
    base = np.asarray(log_hyper, dtype=np.float64)
    grads = []
    for c in coords:
        up, down = base.copy(), base.copy()
        up[c] += step
        down[c] -= step
        grads.append((log_marginal(x, y, up) - log_marginal(x, y, down)) / (2.0 * step))
    return np.array(grads)


def predictive_mean(x: np.ndarray, y: np.ndarray, x_query: np.ndarray, log_hyper) -> np.ndarray:
    weights = np.linalg.solve(_noisy(x, log_hyper), y)
    return kernel(x_query, x, log_hyper) @ weights
