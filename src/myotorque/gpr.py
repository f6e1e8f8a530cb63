"""Exact Gaussian process regression with an RBF kernel.

Zero-mean prior, closed-form posterior via Cholesky factorization, and
marginal-likelihood hyperparameter selection in log space. The default
configuration keeps the output and length scales fixed at 1, so the
kernel is exactly exp(-||x - x'||^2 / 2), and tunes only the observation
noise; both scales can be freed through ``GpOptions``.

The noise-only search (Rasmussen & Williams 2006, sections 2.2 and 5.4)
builds one n x n block per search: the gram matrix, which a Householder
reduction K = H T H' overwrites in place. What it keeps is O(n): the
tridiagonal T, z = H'y (the reflectors applied to y alone) and the
eigenvalues of T, which are those of K; no eigenvector is computed.
Each evaluation then solves (T + noise I) u = z with one O(n) LAPACK
``ptsv``, so y'(K + noise I)^-1 y = z'u and ||(K + noise I)^-1 y||^2 =
u'u, while the log determinant and the trace come from the eigenvalues.

Predictions run over blocks of at most ``_QUERY_BLOCK`` query rows, so
the cross-covariance (and, in :func:`predict`, the triangular solve)
held at any time is n x block whatever the query size.

A cross-validation fold of n training and m held-out rows therefore
builds two n x n blocks, one after the other: the search's gram matrix,
freed once it is reduced, and :func:`fit`'s, which becomes the model's
Cholesky factor in place. The m predictions add one n x
``_QUERY_BLOCK`` (128) block at a time. At the default cap of 2,000 rows
that is 32 MB per n x n block and 2 MB per query block.

The free-scale search computes the squared distances between training
points once. Each evaluation builds the gram matrix from them once,
with the bits :func:`gram_matrix` gives, so its objective equals
``fit(...).log_marginal`` bit for bit; factors a copy of it once
with LAPACK ``potrf``, in place; and hands the distances and the gram
matrix to :func:`lml_gradient`, which inverts the factor once (LAPACK
``potri``) and builds no kernel of its own.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal, solve_triangular
from scipy.linalg.blas import dgemm, dtrsv
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dptsv, dsytrd, dsytrd_lwork
from scipy.optimize import minimize

from .errors import (
    DataError,
    DegenerateSeries,
    DimensionMismatch,
    ModelFormatError,
    NotPositiveDefinite,
    NumericalError,
)

_LOG_2PI = float(np.log(2.0 * np.pi))

# Jitter ladder: relative to mean(diag(K + noise I)), escalating tenfold.
_JITTER_START = 1e-9
_JITTER_LIMIT = 1e-3

# Query rows per cross-covariance block in predict and predict_mean.
_QUERY_BLOCK = 128


@dataclass(frozen=True)
class Hyperparameters:
    """Kernel and noise parameters, stored on their natural (positive)
    scale; the optimizer works on their logs."""

    output_scale: float = 1.0
    length_scale: float = 1.0
    noise_variance: float = 1.0

    def __post_init__(self):
        for name in ("output_scale", "length_scale", "noise_variance"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ValueError(f"{name} must be finite and positive, got {v}")

    def log_array(self) -> np.ndarray:
        """(log output_scale, log length_scale, log noise_variance)."""
        return np.log(
            [self.output_scale, self.length_scale, self.noise_variance]
        )

    @staticmethod
    def from_log_array(theta: np.ndarray) -> "Hyperparameters":
        s, ell, v = np.exp(np.asarray(theta, dtype=np.float64))
        return Hyperparameters(
            output_scale=float(s), length_scale=float(ell), noise_variance=float(v)
        )


# Hyperparameter search: total L-BFGS-B starts, the iteration cap and
# gradient tolerance of each, and the log range random starts are drawn from.
RESTARTS = 5
MAX_ITERATIONS = 200
GRADIENT_TOLERANCE = 1e-8
INIT_LOG_BOUNDS = (-4.0, 1.0)


@dataclass(frozen=True)
class GpOptions:
    """Controls for marginal-likelihood optimization.

    Noise is always free; the two kernel scales join the search only when
    the corresponding flag is set. The search makes :data:`RESTARTS`
    starts: the first is the initial hyperparameter value, the others draw
    log parameters uniformly from :data:`INIT_LOG_BOUNDS` with ``seed``,
    so the search is deterministic.
    """

    optimize_output_scale: bool = False
    optimize_length_scale: bool = False
    seed: int = 0

    def free_mask(self) -> np.ndarray:
        return np.array(
            [self.optimize_output_scale, self.optimize_length_scale, True]
        )


@dataclass
class GprModel:
    """A fitted regressor: training set, factorization, and dual weights.

    Immutable in use; every prediction is a pure function of the stored
    arrays. ``weights`` solves (K + noise I) w = y.

    Every model, fitted, loaded or built by hand, is validated once here:
    the four arrays are finite float64 with consistent shapes and the
    factor has a positive diagonal. Predictions trust them afterwards and
    check only their query points.
    """

    inputs: np.ndarray
    targets: np.ndarray
    hyper: Hyperparameters
    cholesky_lower: np.ndarray
    weights: np.ndarray
    log_marginal: float
    jitter: float = 0.0

    def __post_init__(self):
        arrays = {
            "inputs": self.inputs,
            "targets": self.targets,
            "cholesky_lower": self.cholesky_lower,
            "weights": self.weights,
        }
        for name, arr in arrays.items():
            if not isinstance(arr, np.ndarray) or arr.dtype != np.float64:
                raise DataError(f"{name} must be a float64 array")
        if self.inputs.ndim != 2 or self.inputs.shape[0] == 0:
            raise DimensionMismatch(
                f"inputs must be a non-empty 2-D array, got shape {self.inputs.shape}"
            )
        n = self.inputs.shape[0]
        shapes = {"targets": (n,), "cholesky_lower": (n, n), "weights": (n,)}
        for name, shape in shapes.items():
            if arrays[name].shape != shape:
                raise DimensionMismatch(
                    f"{name} has shape {arrays[name].shape}, expected {shape} "
                    f"for {n} training rows"
                )
        for name, arr in arrays.items():
            if not np.isfinite(arr).all():
                raise DataError(f"{name} has a non-finite value")
        if not np.all(np.diagonal(self.cholesky_lower) > 0.0):
            raise DataError("cholesky_lower has a non-positive diagonal entry")

    @property
    def n_train(self) -> int:
        return self.inputs.shape[0]

    @cached_property
    def _input_sq_norms(self) -> np.ndarray:
        """sum(inputs * inputs, axis=1), which every block of prediction
        distances starts from; computed on first use, once per model."""
        return np.sum(self.inputs * self.inputs, axis=1)


def _as_points(x: np.ndarray, what: str = "inputs") -> np.ndarray:
    """Coerce to a finite (n, d) float64 matrix; 1-D means n points in 1-D."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DimensionMismatch(f"{what} must be 1-D or 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataError(f"{what} must be finite")
    return arr


def _training_set(
    inputs: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Finite training inputs (n, d) and targets (n,) with n >= 1."""
    x = _as_points(inputs, "training inputs")
    y = np.asarray(targets, dtype=np.float64).ravel()
    if not np.isfinite(y).all():
        raise DataError("training targets must be finite")
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatch(
            f"{x.shape[0]} input rows but {y.shape[0]} targets"
        )
    if x.shape[0] == 0:
        raise DegenerateSeries("cannot fit a model on zero rows")
    return x, y


def _sq_distances(
    xa: np.ndarray, xb: np.ndarray, xa_norms: np.ndarray | None = None
) -> np.ndarray:
    """The n x m block of squared distances ||a - b||^2, allocated once.
    ``xa_norms``, when the caller holds it, is sum(xa * xa, axis=1)."""
    if xa.shape[1] != xb.shape[1]:
        raise DimensionMismatch(
            f"input dimensions differ: {xa.shape[1]} vs {xb.shape[1]}"
        )
    if xa_norms is None:
        xa_norms = np.sum(xa * xa, axis=1)
    # The block starts as ||a||^2 + ||b||^2 and one GEMM adds -2 a.b' into
    # it; BLAS is column-major, so it works on the transposed view of the
    # C-ordered block.
    d2 = np.add.outer(xa_norms, np.sum(xb * xb, axis=1))
    if d2.size:  # the BLAS wrapper rejects empty operands
        d2 = dgemm(-2.0, xb, xa, beta=1.0, c=d2.T, trans_b=1, overwrite_c=1).T
    np.maximum(d2, 0.0, out=d2)  # clamped against rounding
    return d2


def _rbf_from_sq(
    d2: np.ndarray, hyper: Hyperparameters, out: np.ndarray | None = None
) -> np.ndarray:
    """The kernel block from a block of squared distances, written to
    ``out`` (by default over ``d2`` itself)."""
    k = np.multiply(d2, -0.5, out=d2 if out is None else out)
    k /= hyper.length_scale**2
    np.exp(k, out=k)
    k *= hyper.output_scale**2
    return k


def _cross_covariance(
    xa: np.ndarray,
    xb: np.ndarray,
    hyper: Hyperparameters,
    xa_norms: np.ndarray | None = None,
) -> np.ndarray:
    return _rbf_from_sq(_sq_distances(xa, xb, xa_norms), hyper)


def _symmetrize(k: np.ndarray) -> np.ndarray:
    """(k + k') / 2 in place: the GEMM that builds a square block of
    distances need not return a symmetric one. On a symmetric k this is
    an exact no-op. It goes one pair of blocks at a time, so it makes no
    n x n temporary (``k += k.T`` makes one) and stays in cache."""
    n, step = k.shape[0], 128
    for i in range(0, n, step):
        for j in range(i, n, step):
            mean = k[i : i + step, j : j + step] + k[j : j + step, i : i + step].T
            mean *= 0.5
            k[i : i + step, j : j + step] = mean
            k[j : j + step, i : i + step] = mean.T
    return k


def kernel_rbf(
    x: np.ndarray, x_prime: np.ndarray, hyper: Hyperparameters | None = None
) -> float:
    """RBF covariance between two points.

    k(x, x') = s^2 exp(-||x - x'||^2 / (2 l^2)); with default
    hyperparameters this is exactly exp(-||x - x'||^2 / 2).
    """
    if hyper is None:
        hyper = Hyperparameters()
    a = np.atleast_1d(np.asarray(x, dtype=np.float64))
    b = np.atleast_1d(np.asarray(x_prime, dtype=np.float64))
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise DimensionMismatch(
            f"kernel_rbf wants two equal-length vectors, got {a.shape} and {b.shape}"
        )
    d2 = float(np.sum((a - b) ** 2))
    return float(hyper.output_scale**2 * np.exp(-0.5 * d2 / hyper.length_scale**2))


def gram_matrix(x: np.ndarray, hyper: Hyperparameters | None = None) -> np.ndarray:
    """Symmetric noise-free covariance matrix of one input set (n x d)."""
    if hyper is None:
        hyper = Hyperparameters()
    pts = _as_points(x)
    return _symmetrize(_rbf_from_sq(_sq_distances(pts, pts), hyper))


def _diagonal_scale(k: np.ndarray) -> float:
    """Mean diagonal of ``k``; raises :class:`NotPositiveDefinite` unless
    it is finite and positive."""
    scale = float(np.mean(np.diagonal(k)))
    # Also false for NaN, which finite but huge inputs give.
    if not 0.0 < scale < np.inf:
        raise NotPositiveDefinite(
            "covariance matrix has a non-finite or non-positive mean diagonal"
        )
    return scale


def _factor(k: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of the symmetric ``k``, in place, escalating
    diagonal jitter until it succeeds; Fortran-ordered, zeros above.

    LAPACK ``potrf`` on the Fortran view ``k.T`` gives the bits scipy's
    ``cholesky`` gives, without its finiteness scan and copy (``k`` comes
    from checked data). It writes one triangle, so a failed attempt is
    undone from the other before the jitter grows.
    """
    n = k.shape[0]
    diag = np.diagonal(k).copy()
    # The jitter ladder below ends only on a finite positive scale.
    scale = _diagonal_scale(k)
    below = np.tri(n, k=-1, dtype=bool)  # the triangle potrf leaves alone
    jitter = 0.0
    while True:
        lower, info = dpotrf(k.T, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            np.copyto(k, 0.0, where=below)
            return lower, jitter
        jitter = _JITTER_START * scale if jitter == 0.0 else 10.0 * jitter
        if jitter > _JITTER_LIMIT * scale:
            raise NotPositiveDefinite(
                "covariance matrix is not positive definite even with "
                f"jitter up to {_JITTER_LIMIT:g} x mean diagonal"
            )
        np.copyto(k.T, k, where=below)  # the upper triangle from the lower
        k.flat[:: n + 1] = diag + jitter


def fit(
    inputs: np.ndarray, targets: np.ndarray, hyper: Hyperparameters
) -> GprModel:
    """Exact fit: factor K + noise I and solve for the dual weights."""
    x, y = _training_set(inputs, targets)
    return _fit_gram(x, y, gram_matrix(x, hyper), hyper)


def _fit_gram(
    x: np.ndarray, y: np.ndarray, k: np.ndarray, hyper: Hyperparameters
) -> GprModel:
    """The body of :func:`fit` on checked data and its gram matrix ``k``,
    which becomes K + noise I and then its factor, in place."""
    k.flat[:: x.shape[0] + 1] += hyper.noise_variance
    lower, jitter = _factor(k)
    alpha, _ = dpotrs(lower, y, lower=1)
    model = GprModel(
        inputs=x,
        targets=y,
        hyper=hyper,
        cholesky_lower=lower,
        weights=alpha,
        log_marginal=0.0,
        jitter=jitter,
    )
    model.log_marginal = log_marginal_likelihood(model)
    return model


def log_marginal_likelihood(model: GprModel) -> float:
    """log p(y | X, hyper): -y'w/2 - sum(log L_ii) - (n/2) log 2 pi."""
    return (
        -0.5 * float(model.targets @ model.weights)
        - float(np.sum(np.log(np.diag(model.cholesky_lower))))
        - 0.5 * model.n_train * _LOG_2PI
    )


def lml_gradient(
    model: GprModel,
    active: np.ndarray | None = None,
    *,
    blocks: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Marginal-likelihood gradient w.r.t. the log hyperparameters.

    Components are ordered (log output_scale, log length_scale,
    log noise_variance); ``active`` selects a subset. Uses
    tr((ww' - (K + noise I)^-1) dK/dt) / 2 with w the dual weights
    (Rasmussen & Williams 2006, section 5.4.1), so each component is
    (w' M w - tr((K + noise I)^-1 M)) / 2 for the symmetric dK/dt = M.

    The inverse comes from the lower triangle of the stored factor by
    LAPACK ``potri``; whatever lies above the diagonal is never read.
    ``blocks`` hands over (d2, k_f): the squared distances between the
    model's inputs and the gram matrix built from them, as the free-scale
    search already holds them. ``k_f`` is overwritten. Without ``blocks``
    both are computed here.
    """
    alpha = model.weights
    hyper = model.hyper
    x = model.inputs
    d2, k_f = blocks or (_sq_distances(x, x), gram_matrix(x, hyper))
    # The factor's lower triangle, inverted in place: the transpose of the
    # C-ordered copy is its Fortran-ordered view, LAPACK's upper triangle.
    k_inv, info = dpotri(np.tril(model.cholesky_lower).T, lower=0, overwrite_c=1)
    if info != 0:
        raise NumericalError(f"inverse from the Cholesky factor failed (info={info})")
    k_inv = k_inv.T  # C-ordered, K^-1 in the lower triangle, zeros above
    inv_diag = np.diagonal(k_inv)

    def half_trace_term(m: np.ndarray) -> float:
        # tr(K^-1 M) for a symmetric M from K^-1's lower triangle only.
        trace = 2.0 * float(np.vdot(k_inv, m)) - float(inv_diag @ np.diagonal(m))
        return 0.5 * (float(alpha @ (m @ alpha)) - trace)

    grads = np.empty(3)
    grads[0] = 2.0 * half_trace_term(k_f)  # dK/dlog s = 2 K_f
    k_f *= d2  # dK/dlog l = K_f * d2 / l^2, over K_f
    k_f /= hyper.length_scale**2
    grads[1] = half_trace_term(k_f)
    grads[2] = 0.5 * hyper.noise_variance * (
        float(alpha @ alpha) - float(np.sum(inv_diag))
    )
    if active is not None:
        return grads[np.asarray(active, dtype=bool)]
    return grads


def _spectrum(
    k: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What the noise-only search needs from a symmetric K, without any
    eigenvector: (lam, d, e, z).

    K = H T H' by Householder reduction; d and e are the diagonal and
    subdiagonal of T, z = H' y (the n - 1 reflectors applied to y only)
    and lam the eigenvalues of T, which are those of K, ascending and
    clamped at zero against rounding. d, e and z carry one extra decoupled row (d = 1, e = 0, z = 0): it leaves
    every solve with T unchanged and keeps e non-empty at n = 1, which
    the LAPACK wrappers require. ``k`` is overwritten. Raises
    :class:`NotPositiveDefinite`, as :func:`fit` does, on a ``k`` whose
    mean diagonal is not finite and positive: finite but huge inputs give
    NaN entries, which the tridiagonal routines reject with a bare
    ``ValueError``.
    """
    _diagonal_scale(k)
    n = k.shape[0]
    lwork, _ = dsytrd_lwork(n, lower=1)
    # k.T is the Fortran-ordered view of the symmetric k, so LAPACK reduces
    # it in place; the queried workspace selects the blocked reduction
    # (scipy's default workspace runs the unblocked one, twice as slow).
    a, d, e, tau, info = dsytrd(k.T, lower=1, lwork=int(lwork), overwrite_a=1)
    if info != 0:
        raise NumericalError(f"tridiagonal reduction failed (info={info})")
    # H = H_0 H_1 ... H_{n-2}, H_i = I - tau_i v v' with v[:i+1] = 0,
    # v[i+1] = 1 and v[i+2:] stored below the subdiagonal of column i.
    # H' y applies H_0 first.
    z = np.append(y, 0.0)
    for i in range(n - 1):
        v = a[i + 1 :, i]
        v[0] = 1.0  # the slot held e[i], which is already in ``e``
        z[i + 1 : n] -= (tau[i] * (v @ z[i + 1 : n])) * v
    lam = np.maximum(eigvalsh_tridiagonal(d, e), 0.0)
    return lam, np.append(d, 1.0), np.append(e, 0.0), z


def _noise_lml_and_grad(
    spectrum: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    log_noise: float,
) -> tuple[float, float]:
    """Noise-only objective and its derivative in log noise from
    :func:`_spectrum`'s output, in O(n).

    One tridiagonal solve (T + v I) u = z gives the quadratic term
    y'(K + v I)^-1 y = z'u and the gradient's data term
    ||(K + v I)^-1 y||^2 = u'u (H is orthogonal). The log determinant and
    tr((K + v I)^-1) come from the eigenvalues. Raises
    :class:`NotPositiveDefinite` when LAPACK ``ptsv`` finds T + v I not
    positive definite.
    """
    lam, d, e, z = spectrum
    v = np.exp(log_noise)
    _, _, u, info = dptsv(d + v, e, z)
    if info != 0:
        raise NotPositiveDefinite(
            f"tridiagonal solve at noise {v:g} failed (info={info})"
        )
    denom = lam + v
    n = lam.shape[0]
    lml = (
        -0.5 * float(z @ u)
        - 0.5 * float(np.sum(np.log(denom)))
        - 0.5 * n * _LOG_2PI
    )
    grad = 0.5 * v * (float(u @ u) - float(np.sum(1.0 / denom)))
    return lml, grad


def optimize_hyperparameters(
    inputs: np.ndarray,
    targets: np.ndarray,
    initial: Hyperparameters | None = None,
    options: GpOptions = GpOptions(),
) -> Hyperparameters:
    """Maximize the log marginal likelihood over the free log parameters.

    Multi-start quasi-Newton ascent (L-BFGS-B on the negated objective),
    returning the best candidate across starts, which is never worse than
    any start's own objective value.

    When only the noise is free, the search builds one n x n block, the
    gram matrix, and reduces it in place to a tridiagonal T; it keeps T,
    the targets' coordinates z = H'y and the eigenvalues, all O(n), and
    frees the block before the first evaluation. Each evaluation is one
    O(n) tridiagonal solve (:func:`_noise_lml_and_grad`).

    When a scale is free, the search holds four n x n blocks: the squared
    distances, and per evaluation the gram matrix, the copy of it that is
    factored and the inverse :func:`lml_gradient` makes from the factor.
    """
    x, y = _training_set(inputs, targets)
    if initial is None:
        initial = Hyperparameters()
    free = options.free_mask()
    theta0 = initial.log_array()
    noise_only = not (options.optimize_output_scale or options.optimize_length_scale)

    if noise_only:
        spectrum = _spectrum(gram_matrix(x, initial), y)
    else:
        d2 = _sq_distances(x, x)  # fixed for the whole search
        # The GEMM behind d2 can leave a few entries asymmetric; a kernel
        # block built from d2 is asymmetric there only, so taking the mean
        # with the transpose there gives gram_matrix's bits (the mean of
        # two equal entries is that entry).
        rows, cols = np.nonzero(d2 != d2.T)
        # Rewritten by every evaluation: fresh n x n blocks on each one
        # cost as much in page faults as the kernel build itself.
        k_f, k = np.empty_like(d2), np.empty_like(d2)

    def negative(theta_free: np.ndarray) -> tuple[float, np.ndarray]:
        if noise_only:
            try:
                lml, g = _noise_lml_and_grad(spectrum, float(theta_free[0]))
            except NotPositiveDefinite:
                return 1e25, np.zeros(1)
            return -lml, np.array([-g])
        theta = theta0.copy()
        theta[free] = theta_free
        hyper = Hyperparameters.from_log_array(theta)
        # One kernel build per evaluation: the factor gets a copy of the
        # gram matrix and the gradient the gram matrix itself.
        _rbf_from_sq(d2, hyper, out=k_f)
        k_f[rows, cols] = (k_f[rows, cols] + k_f[cols, rows]) * 0.5
        np.copyto(k, k_f)
        try:
            model = _fit_gram(x, y, k, hyper)
        except NotPositiveDefinite:
            return 1e25, np.zeros(int(free.sum()))
        return -model.log_marginal, -lml_gradient(model, active=free, blocks=(d2, k_f))

    rng = np.random.default_rng(options.seed)
    lo, hi = INIT_LOG_BOUNDS
    n_free = int(free.sum())
    starts = [theta0[free]]
    for _ in range(RESTARTS - 1):
        starts.append(rng.uniform(lo, hi, size=n_free))

    best_theta, best_value = None, np.inf
    for start in starts:
        result = minimize(
            negative,
            start,
            jac=True,
            method="L-BFGS-B",
            bounds=[(-16.0, 8.0)] * n_free,
            options={
                "maxiter": MAX_ITERATIONS,
                "gtol": GRADIENT_TOLERANCE,
            },
        )
        if result.fun < best_value:
            best_value, best_theta = result.fun, result.x
    if best_theta is None or not np.isfinite(best_value):
        raise NotPositiveDefinite("hyperparameter search found no usable optimum")

    theta = theta0.copy()
    theta[free] = best_theta
    return Hyperparameters.from_log_array(theta)


def _query_points(model: GprModel, x_star: np.ndarray) -> np.ndarray:
    """The query as a checked (m, d) matrix; only the query is checked,
    the model was validated when built."""
    xq = _as_points(x_star, "query points")
    if xq.shape[1] != model.inputs.shape[1]:
        raise DimensionMismatch(
            f"model has {model.inputs.shape[1]} features, query has {xq.shape[1]}"
        )
    return xq


def _query_blocks(model: GprModel, xq: np.ndarray):
    """(rows, K*) for each block of at most ``_QUERY_BLOCK`` checked query
    rows, K* the n_train x block covariance with the training points."""
    for start in range(0, xq.shape[0], _QUERY_BLOCK):
        rows = slice(start, start + _QUERY_BLOCK)
        yield rows, _cross_covariance(
            model.inputs, xq[rows], model.hyper, model._input_sq_norms
        )


def predict(
    model: GprModel, x_star: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at the query points.

    mean = K*' w; variance = k(x*, x*) - ||L^-1 K*||^2 per point, clamped
    at zero. The variance is the latent-function variance; observation
    noise is not added. Query rows go through in blocks of
    ``_QUERY_BLOCK``, so the temporaries are n_train x block whatever
    the query size; a query of one block computes exactly what a single
    whole-query expression would.

    Finiteness is checked once per model, when the :class:`GprModel` is
    built (by :func:`fit`, :func:`load_model` or by hand), and per call
    only on the query points, which raise :class:`DataError` if any is
    NaN or infinite. The triangular solve therefore skips scipy's
    finiteness scan of the n x n factor, which costs several times the
    O(n^2) solve itself on a one-row query. A block of one row solves
    with :func:`_lower_solve_vector`, to the same bits.
    """
    xq = _query_points(model, x_star)
    mean, var = np.empty(xq.shape[0]), np.empty(xq.shape[0])
    prior_var = model.hyper.output_scale**2
    for rows, k_star in _query_blocks(model, xq):
        mean[rows] = k_star.T @ model.weights
        if k_star.shape[1] == 1:
            v = _lower_solve_vector(model.cholesky_lower, k_star[:, 0])[:, None]
        else:
            v = solve_triangular(
                model.cholesky_lower, k_star, lower=True, check_finite=False
            )
        var[rows] = np.maximum(prior_var - np.sum(v * v, axis=0), 0.0)
    return mean, var


def _lower_solve_vector(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^-1 b for one right-hand side by BLAS ``trsv``, with the bits of
    ``solve_triangular(lower, b, lower=True)``: the same call on the
    same orientation of ``lower``. LAPACK ``trtrs``, behind
    ``solve_triangular``, first reads the n diagonal entries, one per
    column of the n x n factor, to test for a zero; the model's positive
    diagonal makes that test redundant, and on a one-row query its n
    scattered reads are about a tenth of the solve."""
    if lower.flags.f_contiguous:
        return dtrsv(lower, b, lower=1)
    # trtrs takes a Fortran-ordered matrix, so scipy solves the transposed
    # (upper) system of any other layout; so does this.
    return dtrsv(lower.T, b, lower=0, trans=1)


def predict_mean(model: GprModel, x_star: np.ndarray) -> np.ndarray:
    """Posterior mean only; skips the triangular solve for the variance.
    Query rows go through in blocks, as in :func:`predict`."""
    xq = _query_points(model, x_star)
    mean = np.empty(xq.shape[0])
    for rows, k_star in _query_blocks(model, xq):
        mean[rows] = k_star.T @ model.weights
    return mean


_FORMAT_VERSION = 1
_MODEL_KIND = "gpr-rbf"


def save_model(model: GprModel, path, metadata: dict | None = None) -> None:
    """Serialize a fitted model (and free-form metadata) to an npz file.

    All float64 arrays round-trip bit-exactly, so a reloaded model makes
    identical predictions.
    """
    np.savez(
        path,
        format_version=np.int64(_FORMAT_VERSION),
        model_kind=np.str_(_MODEL_KIND),
        inputs=model.inputs,
        targets=model.targets,
        cholesky_lower=model.cholesky_lower,
        weights=model.weights,
        hyper=np.array(
            [
                model.hyper.output_scale,
                model.hyper.length_scale,
                model.hyper.noise_variance,
            ]
        ),
        log_marginal=np.float64(model.log_marginal),
        jitter=np.float64(model.jitter),
        metadata_json=np.str_(json.dumps(metadata or {})),
    )


def load_model(path) -> tuple[GprModel, dict]:
    """Inverse of :func:`save_model`; validates the container first.

    A file that is not a saved model (not an npz archive, truncated or
    corrupt, a field of the wrong shape or dtype), or whose arrays fail
    the :class:`GprModel` checks (shapes, finiteness, positive factor
    diagonal), raises :class:`ModelFormatError`.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            if "format_version" not in data or "model_kind" not in data:
                raise ModelFormatError(f"{path} is not a saved model")
            if str(data["model_kind"]) != _MODEL_KIND:
                raise ModelFormatError(
                    f"unsupported model kind {str(data['model_kind'])!r}"
                )
            version = int(data["format_version"])
            if version != _FORMAT_VERSION:
                raise ModelFormatError(
                    f"unsupported model format version {version}"
                )
            s, ell, v = (float(h) for h in data["hyper"])
            model = GprModel(
                inputs=data["inputs"],
                targets=data["targets"],
                hyper=Hyperparameters(s, ell, v),
                cholesky_lower=data["cholesky_lower"],
                weights=data["weights"],
                log_marginal=float(data["log_marginal"]),
                jitter=float(data["jitter"]),
            )
            metadata = json.loads(str(data["metadata_json"]))
    except ModelFormatError:
        raise
    # A damaged archive fails in zipfile (BadZipFile, EOFError, and a
    # RuntimeError for a member flagged as encrypted or compressed by an
    # unsupported method) or in zlib; a field of the wrong shape or dtype
    # fails the scalar conversions with a TypeError.
    except (
        OSError, ValueError, KeyError, TypeError, EOFError, RuntimeError,
        zipfile.BadZipFile, zlib.error, DataError,
    ) as exc:
        raise ModelFormatError(f"cannot load model from {path}: {exc}") from exc
    return model, metadata
