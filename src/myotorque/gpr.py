"""Exact Gaussian process regression with an RBF kernel.

Zero-mean prior, closed-form posterior via Cholesky factorization, and
marginal-likelihood hyperparameter selection in log space. The default
configuration keeps the output and length scales fixed at 1, so the
kernel is exactly exp(-||x - x'||^2 / 2), and tunes only the observation
noise; both scales can be freed through ``GpOptions``. A model file holds
what :func:`fit` needs, and :func:`load_model` refits it.

The hyperparameter search (:func:`optimize_hyperparameters`) is one
multi-start L-BFGS-B driver, :func:`_multi_start`, over one of two
objectives, each mapping the free log parameters to the log marginal
likelihood and its gradient. With the noise alone free (Rasmussen &
Williams 2006, sections 2.2 and 5.4), the objective is a reduction of K
made once per search (:func:`_noise_reduction`): the low-rank basis of a
pivoted Cholesky factor (:class:`_LowRank`, O(r) per evaluation and no
n x n block) when K's numerical rank is within an eighth of the rows,
else the reduction K = Q B Q' of the gram matrix in place to a band B of
kd = 32 subdiagonals (:class:`_Reduction`, one O(n kd^2) band solve per
evaluation). That reduction is LAPACK's two-stage one (dense to band,
then band to tridiagonal for the eigenvalues), bound through ctypes
because scipy does not wrap it; where scipy's LAPACK lacks it, the
one-stage Householder reduction to tridiagonal form (B with one
subdiagonal) takes its place. With a scale free, it is
:func:`_free_scale_objective`, which factors K + noise I once per
evaluation. The driver gives a point whose covariance cannot be factored
a finite sentinel. In a free-scale search it stops a later start that
enters the basin of an optimum already found, or whose latest
evaluations all trailed the best completed start far behind.

Predictions run over blocks of at most ``_QUERY_BLOCK`` query rows, so
the cross-covariance (and, in :func:`predict`, the triangular solve)
held at any time is n x block whatever the query size.

A cross-validation fold of n training and m held-out rows asks only for
the mean, and gets its model from :func:`fit_mean`. With the noise alone
free, the search's reduction already fixes it: the dual weights
w = (K + noise I)^-1 y and the log marginal likelihood come from the
reduction at the tuned noise. So such a fold factors nothing by
Cholesky, builds at most one n x n block, the search's gram matrix, and
none when K is low-rank; its model is mean-only (:func:`predict_mean`).
The m predictions add one n x ``_QUERY_BLOCK`` (128) block at a time.
At the default cap of 2,000 rows that is 32 MB for the n x n block and
2 MB per query block. Every other fit factors K + noise I by Cholesky,
so that a model that is saved equals its refit bit for bit.
"""

from __future__ import annotations

import ctypes
import json
import zipfile
import zlib
from dataclasses import astuple, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg import _flapack, eigh, solve_triangular
from scipy.linalg.blas import dgemm, dtrsv
from scipy.linalg.lapack import (
    dgeqrf,
    dormqr,
    dpbsv,
    dpotrf,
    dpotri,
    dpotrs,
    dsterf,
    dsytrd,
    dsytrd_lwork,
)
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

# Noise-only search: the pivoted Cholesky probe runs on at least
# _PROBE_MIN_ROWS training rows, takes at most _PROBE_BUDGET of them as
# columns before the search reduces the whole gram matrix instead, and
# may give up on a slow decay from _PROBE_WARMUP columns on
# (:func:`_pivoted_cholesky`). A probe that gives up costs 1-3 ms, about
# 4 % of the reduction at 512 rows and 20 % at 256 (7 features, one BLAS
# thread), so below _PROBE_MIN_ROWS it is not tried.
_PROBE_MIN_ROWS = 512
_PROBE_BUDGET = 0.125
_PROBE_WARMUP = 32

# A kernel block of at least this many bytes (an n x n block from about
# 1,000 rows) is allocated only after the C allocator's free pages are
# handed back to the OS (:func:`_release_free_heap`).
_TRIM_BYTES = 8 << 20

try:  # glibc's; None where the C library has no malloc_trim
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
    _MALLOC_TRIM.argtypes, _MALLOC_TRIM.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):
    _MALLOC_TRIM = None

# Noise-only search: the subdiagonals of the band that the two-stage
# reduction leaves (:func:`_band_reduction`). On a 1,860-row fmg fold (one
# BLAS thread) the first stage took 0.33 s at 16, 0.21 s at 32, 0.20 s at
# 64 and 0.23 s at 96; the second took 0.12 s up to 32 and 0.20-0.21 s at
# 64 and 96, and each band solve grows as the width squared.
_BAND_WIDTH = 32


def _two_stage_routines():
    """LAPACK's ``dsytrd_sy2sb`` and ``dsytrd_sb2st`` as ctypes functions,
    or None where the LAPACK behind scipy lacks either.

    scipy wraps neither, so they are looked up through the handle of its
    own LAPACK extension; dlsym searches that library's dependencies too,
    so this finds the LAPACK whose ``dsytrd`` scipy calls, where scipy's
    build prefixes the names with ``scipy_``. Both take 32-bit integers by
    reference and, per CHARACTER argument, one trailing hidden length
    (the gfortran convention)."""
    try:
        lib = ctypes.CDLL(_flapack.__file__)
    except OSError:
        return None
    sy2sb, sb2st = (
        getattr(lib, f"scipy_{name}_", None) or getattr(lib, f"{name}_", None)
        for name in ("dsytrd_sy2sb", "dsytrd_sb2st")
    )
    if sy2sb is None or sb2st is None:
        return None
    char, ptr, length = ctypes.c_char_p, ctypes.c_void_p, ctypes.c_size_t
    # uplo, n, kd, a, lda, ab, ldab, tau, work, lwork, info
    sy2sb.argtypes = [char] + [ptr] * 10 + [length]
    # stage1, vect, uplo, n, kd, ab, ldab, d, e, hous, lhous, work, lwork, info
    sb2st.argtypes = [char] * 3 + [ptr] * 11 + [length] * 3
    sy2sb.restype = sb2st.restype = None
    return sy2sb, sb2st


_TWO_STAGE = _two_stage_routines()


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
# gradient tolerance of each, the log range random starts are drawn from
# and the box every log parameter is searched in.
RESTARTS = 5
MAX_ITERATIONS = 200
GRADIENT_TOLERANCE = 1e-8
INIT_LOG_BOUNDS = (-4.0, 1.0)
LOG_BOUNDS = (-16.0, 8.0)

# Free-scale search only: a start after the first stops once an iterate
# lies within BASIN_RADIUS (Euclidean, over the free log parameters) of an
# optimum a completed start reached, or before its next evaluation once
# each of its last TRAIL_EVALUATIONS evaluations, line-search trials
# included, trailed the best completed start's LML by more than
# TRAIL_MARGIN of that LML's size and by more than TRAIL_FLOOR log units.
# The floor keeps the margin from vanishing when the best LML is near 0:
# a later start can trail by up to about 90 log units over its first
# evaluations and still climb past the best.
BASIN_RADIUS = 1.0
TRAIL_EVALUATIONS = 5
TRAIL_MARGIN = 0.1
TRAIL_FLOOR = 150.0

# The objective of an evaluation whose covariance cannot be factored:
# finite, so L-BFGS-B backs off from it.
_FAILED = 1e25


@dataclass(frozen=True)
class GpOptions:
    """Controls for marginal-likelihood optimization.

    Noise is always free; the two kernel scales join the search only when
    the corresponding flag is set. The search makes :data:`RESTARTS`
    starts: the first is the initial hyperparameter value, the others draw
    log parameters uniformly from :data:`INIT_LOG_BOUNDS` with ``seed``,
    so the search is deterministic. With a free scale, a start after the
    first may stop early, on a rule that reads only its own evaluations
    and the completed starts' optima, so that stays deterministic too
    (see :func:`_multi_start`).
    """

    optimize_output_scale: bool = False
    optimize_length_scale: bool = False
    seed: int = 0

    def free_mask(self) -> np.ndarray:
        return np.array(
            [self.optimize_output_scale, self.optimize_length_scale, True]
        )

    @property
    def noise_only(self) -> bool:
        return not (self.optimize_output_scale or self.optimize_length_scale)


@dataclass
class GprModel:
    """A fitted regressor: training set, factorization, and dual weights.

    Immutable in use; every prediction is a pure function of the stored
    arrays. ``weights`` solves (K + noise I) w = y.

    A mean-only model, which :func:`fit_mean` makes from the noise
    search's reduction for a CV fold, has no factor (``cholesky_lower`` is
    None): it serves :func:`predict_mean`, and :func:`predict`,
    :func:`lml_gradient` and :func:`save_model` refuse it.

    Every model, fitted (loaded ones too) or built by hand, is checked here:
    the arrays are finite float64 with consistent shapes and the factor, if
    any, has a positive diagonal. Predictions trust them afterwards and
    check only their query points. Only the free-scale search skips the
    checks, for the model of each evaluation (:meth:`_unchecked`).
    """

    inputs: np.ndarray
    targets: np.ndarray
    hyper: Hyperparameters
    cholesky_lower: np.ndarray | None
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
        if self.cholesky_lower is None:
            del arrays["cholesky_lower"]
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
            if name in arrays and arrays[name].shape != shape:
                raise DimensionMismatch(
                    f"{name} has shape {arrays[name].shape}, expected {shape} "
                    f"for {n} training rows"
                )
        for name, arr in arrays.items():
            if not np.isfinite(arr).all():
                raise DataError(f"{name} has a non-finite value")
        if self.cholesky_lower is not None and not np.all(
            np.diagonal(self.cholesky_lower) > 0.0
        ):
            raise DataError("cholesky_lower has a non-positive diagonal entry")

    @classmethod
    def _unchecked(cls, **fields) -> "GprModel":
        """A model of arrays made from checked data, built without the
        scans of :meth:`__post_init__`."""
        model = cls.__new__(cls)
        vars(model).update(fields)
        return model

    @property
    def n_train(self) -> int:
        return self.inputs.shape[0]

    def _factor_for(self, what: str) -> np.ndarray:
        """The Cholesky factor that ``what`` needs; a ValueError on a
        mean-only model, which has none."""
        if self.cholesky_lower is None:
            raise ValueError(
                f"{what} needs a Cholesky factor, and this model is mean-only "
                "(fit_mean's, from the noise search's reduction): use "
                "predict_mean, or fit"
            )
        return self.cholesky_lower

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


def _release_free_heap() -> None:
    """Hand the C heap's free pages back to the OS, so that the resident
    size of the process follows the blocks alive and not the ones freed.

    Once glibc has freed one block as large as an n x n block, it raises
    its mmap threshold to that size (up to 32 MB) and puts the next ones
    on its heap, where a freed block's pages stay resident. Whether the
    next block then fits the hole one left depends on what else landed
    there: a process that trained a model while still holding the
    previous one read a peak RSS of 215 or 240 MB from one run to the
    next. ``malloc_trim`` returns the hole's pages, so a new block either
    reuses the hole or extends the heap at the same resident cost. A
    no-op where the C library has no ``malloc_trim``.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _sq_distances(
    xa: np.ndarray, xb: np.ndarray, xa_norms: np.ndarray | None = None
) -> np.ndarray:
    """The n x m block of squared distances ||a - b||^2, allocated once.
    ``xa_norms``, when the caller holds it, is sum(xa * xa, axis=1)."""
    if xa.shape[1] != xb.shape[1]:
        raise DimensionMismatch(
            f"input dimensions differ: {xa.shape[1]} vs {xb.shape[1]}"
        )
    if xa.shape[0] * xb.shape[0] * 8 >= _TRIM_BYTES:
        _release_free_heap()
    # Finite but huge inputs overflow the norms to inf; the NaN distances
    # they give fail the kernel's checks as NotPositiveDefinite (or give a
    # zero covariance to a huge query point), so numpy's warning is noise.
    with np.errstate(over="ignore"):
        if xa_norms is None:
            xa_norms = np.sum(xa * xa, axis=1)
        # The block starts as ||a||^2 + ||b||^2 and one GEMM adds -2 a.b'
        # into it; BLAS is column-major, so it works on the transposed view
        # of the C-ordered block.
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


def gram_matrix(
    x: np.ndarray, hyper: Hyperparameters | None = None, _symmetric: bool = True
) -> np.ndarray:
    """Symmetric noise-free covariance matrix of one input set (n x d).

    With ``_symmetric`` false, which only the noise-only search passes, it
    is the block as the GEMM behind it leaves it, symmetric to rounding."""
    if hyper is None:
        hyper = Hyperparameters()
    pts = _as_points(x)
    k = _rbf_from_sq(_sq_distances(pts, pts), hyper)
    return _symmetrize(k) if _symmetric else k


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
    diagonal jitter until it succeeds; Fortran-ordered. Above its diagonal
    it keeps k's entries.

    LAPACK ``potrf`` on the Fortran view ``k.T`` gives the bits scipy's
    ``cholesky`` gives, without its finiteness scan and copy (``k`` comes
    from checked data). It writes one triangle, so a failed attempt is
    undone from the other before the jitter grows.
    """
    n = k.shape[0]
    diag = np.diagonal(k).copy()
    # The jitter ladder below ends only on a finite positive scale.
    scale = _diagonal_scale(k)
    jitter = 0.0
    while True:
        lower, info = dpotrf(k.T, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            return lower, jitter
        jitter = _JITTER_START * scale if jitter == 0.0 else 10.0 * jitter
        if jitter > _JITTER_LIMIT * scale:
            raise NotPositiveDefinite(
                "covariance matrix is not positive definite even with "
                f"jitter up to {_JITTER_LIMIT:g} x mean diagonal"
            )
        # The triangle potrf wrote, restored from the one it left alone.
        np.copyto(k.T, k, where=np.tri(n, k=-1, dtype=bool))
        k.flat[:: n + 1] = diag + jitter


def fit(
    inputs: np.ndarray,
    targets: np.ndarray,
    hyper: Hyperparameters,
    _reduction: _Reduction | _LowRank | None = None,
) -> GprModel:
    """Exact fit: factor K + noise I and solve for the dual weights.

    With ``_reduction``, the noise search's reduction of K on the same
    inputs and kernel scales, which only :func:`fit_mean` passes, the fit
    is mean-only (:class:`GprModel`): no factor, no n x n block and jitter
    0, the weights and the LML taken from the reduction (its ``weights``).
    They agree with the Cholesky ones to rounding, not bit for bit (on a
    low-rank reduction, to the dropped trailing block of K, whose
    diagonal is below n eps)."""
    x, y = _training_set(inputs, targets)
    if _reduction is not None:
        w, lml = _reduction.weights(hyper.noise_variance)
        return GprModel(
            inputs=x, targets=y, hyper=hyper, cholesky_lower=None,
            weights=w, log_marginal=lml,
        )
    lower, alpha, jitter = _factor_solve(gram_matrix(x, hyper), y, hyper.noise_variance)
    # The model's factor has zeros above its diagonal.
    np.copyto(lower.T, 0.0, where=np.tri(x.shape[0], k=-1, dtype=bool))
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


def _factor_solve(
    k: np.ndarray, y: np.ndarray, noise_variance: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """(factor, weights, jitter) of K + noise I from the gram matrix ``k``
    of checked data, which becomes K + noise I and then the factor, in
    place. Above its diagonal the factor keeps k's entries; the weights,
    the LML and :func:`lml_gradient` read only its lower triangle."""
    k.flat[:: k.shape[0] + 1] += noise_variance
    lower, jitter = _factor(k)
    alpha, _ = dpotrs(lower, y, lower=1)
    return lower, alpha, jitter


def log_marginal_likelihood(model: GprModel) -> float:
    """log p(y | X, hyper): -y'w/2 - sum(log L_ii) - (n/2) log 2 pi."""
    lower = model._factor_for("log_marginal_likelihood")
    return (
        -0.5 * float(model.targets @ model.weights)
        - float(np.sum(np.log(np.diag(lower))))
        - 0.5 * model.n_train * _LOG_2PI
    )


def lml_gradient(
    model: GprModel,
    *,
    blocks: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Marginal-likelihood gradient w.r.t. the log hyperparameters.

    Components are ordered (log output_scale, log length_scale,
    log noise_variance). Uses tr((ww' - (K + noise I)^-1) dK/dt) / 2
    with w the dual weights (Rasmussen & Williams 2006, section 5.4.1),
    so each component is (w' M w - tr((K + noise I)^-1 M)) / 2 for the
    symmetric dK/dt = M.

    The inverse comes from the lower triangle of the stored factor by
    LAPACK ``potri``; whatever lies above the diagonal is never read.
    ``blocks`` hands over (d2, k_f, l_c) as the free-scale search holds
    them: the squared distances between the model's inputs, the gram
    matrix built from them, and ``np.tril`` of the model's factor in a
    C-ordered block, which takes the place of the factor. ``k_f`` and
    ``l_c`` are overwritten. Without ``blocks`` all three are computed
    here.
    """
    lower = model._factor_for("lml_gradient")
    alpha = model.weights
    hyper = model.hyper
    x = model.inputs
    d2, k_f, l_c = blocks or (
        _sq_distances(x, x), gram_matrix(x, hyper), np.tril(lower)
    )
    # The factor's lower triangle, inverted in place: the transpose of the
    # C-ordered copy is its Fortran-ordered view, LAPACK's upper triangle.
    k_inv, info = dpotri(l_c.T, lower=0, overwrite_c=1)
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
    return grads


class _Reduction(NamedTuple):
    """K = Q B Q' as :func:`_spectrum` leaves it, B a symmetric band of
    ``kd`` subdiagonals: the noise-only objective in O(n kd^2) per
    evaluation."""

    lam: np.ndarray
    band: np.ndarray
    z: np.ndarray
    reflectors: np.ndarray
    tau: np.ndarray
    kd: int

    def _solve(self, v: float) -> tuple[float, np.ndarray]:
        """(LML, u) at noise ``v``. One band solve (B + v I) u = z gives the
        quadratic term y'(K + v I)^-1 y = z'u; the log determinant comes
        from the eigenvalues. Raises :class:`NotPositiveDefinite` when
        LAPACK ``pbsv`` finds B + v I not positive definite."""
        ab = self.band.copy(order="F")
        ab[0] += v
        _, u, info = dpbsv(ab, self.z, lower=1, overwrite_ab=1)
        if info != 0:
            raise NotPositiveDefinite(f"band solve at noise {v:g} failed (info={info})")
        lml = (
            -0.5 * float(self.z @ u)
            - 0.5 * float(np.sum(np.log(self.lam + v)))
            - 0.5 * self.lam.shape[0] * _LOG_2PI
        )
        return lml, u

    def lml_and_grad(self, log_noise: float) -> tuple[float, float]:
        """The LML and its derivative in log noise. The gradient's data
        term ||(K + v I)^-1 y||^2 is u'u, as Q is orthogonal, and
        tr((K + v I)^-1) comes from the eigenvalues."""
        v = np.exp(log_noise)
        lml, u = self._solve(v)
        return lml, 0.5 * v * (float(u @ u) - float(np.sum(1.0 / (self.lam + v))))

    def weights(self, noise: float) -> tuple[np.ndarray, float]:
        """(w, LML) at ``noise``: w = Q u = H_0 (H_1 (... (H_last u))),
        the last reflector applied first."""
        lml, w = self._solve(noise)
        a, tau, kd = self.reflectors, self.tau, self.kd
        for i in range(tau.shape[0] - 1, -1, -1):
            v = a[i + kd :, i]
            w[i + kd :] -= (tau[i] * (v @ w[i + kd :])) * v
        return w, lml


def _spectrum(k: np.ndarray, y: np.ndarray) -> _Reduction:
    """What the noise-only search needs from a symmetric K, without any
    eigenvector: (lam, band, z, reflectors, tau, kd).

    K = Q B Q' with B a symmetric band of ``kd`` subdiagonals, by the
    two-stage reduction (:func:`_band_reduction`, kd = :data:`_BAND_WIDTH`)
    or, where the LAPACK behind scipy lacks it, by the one-stage
    Householder reduction to tridiagonal form (:func:`_tridiagonal_reduction`,
    kd = 1). Either reads one triangle of ``k`` only. ``band`` is B in
    LAPACK's lower band storage (row r holds the r-th subdiagonal), z = Q'y
    (the reflectors applied to y only) and lam the eigenvalues of K,
    ascending and clamped at zero against rounding, from the tridiagonal
    form by LAPACK ``sterf``. ``k`` is overwritten: ``reflectors`` is its
    Fortran-ordered view, Q = H_0 H_1 ... with H_i = I - tau_i v v',
    v[:i+kd] = 0 and v[i+kd:] = reflectors[i+kd:, i] (its leading 1
    written in). Raises :class:`NotPositiveDefinite`, as :func:`fit`
    does, on a ``k`` whose mean diagonal is not finite and positive:
    finite but huge inputs give NaN entries, which would pass through the
    reduction unnoticed.
    """
    _diagonal_scale(k)
    reduce = _band_reduction if _TWO_STAGE is not None else _tridiagonal_reduction
    band, tau, d, e = reduce(k)
    kd, a = band.shape[0] - 1, k.T
    # Q'y applies H_0 first.
    z = y.copy()
    for i in range(tau.shape[0]):
        v = a[i + kd :, i]
        v[0] = 1.0  # the slot held the band's last entry, which is in ``band``
        z[i + kd :] -= (tau[i] * (v @ z[i + kd :])) * v
    lam, info = dsterf(d, e, overwrite_d=1)
    if info != 0:
        raise NumericalError(f"tridiagonal eigenvalues failed (info={info})")
    return _Reduction(np.maximum(lam, 0.0), band, z, a, tau, kd)


def _band_reduction(k: np.ndarray):
    """(band, tau, d, e) of the symmetric ``k``, reduced in place in two
    stages (Bischof, Lang & Sun 2000): LAPACK ``dsytrd_sy2sb`` takes K to
    the band B = Q'KQ of :data:`_BAND_WIDTH` subdiagonals with level-3
    BLAS, leaving Q's n - kd reflectors below the band of its lower
    triangle, and ``dsytrd_sb2st`` takes a copy of B to its tridiagonal
    form, whose diagonal is d and subdiagonal e (padded to one entry at
    n = 1, as ``sterf``'s wrapper wants), without its reflectors.

    On the knee emg and fmg folds at the default cap (1,824-1,983 rows,
    one BLAS thread) the two stages took 0.30-0.44 s against 0.51-0.72 s
    for the one-stage ``dsytrd``; at 1,000 rows and below they are no
    faster."""
    # LAPACK reads k.T through a pointer, as n x n Fortran-ordered doubles.
    if k.dtype != np.float64 or not k.flags.c_contiguous:
        raise ValueError("the band reduction needs a C-ordered float64 block")
    sy2sb, sb2st = _TWO_STAGE
    n, kd = k.shape[0], _BAND_WIDTH
    band = np.zeros((kd + 1, n), order="F")
    tau = np.zeros(max(n - kd, 1))
    d, e = np.empty(n), np.empty(max(n - 1, 1))
    info = ctypes.c_int()

    def ref(value: int):
        return ctypes.byref(ctypes.c_int(value))

    def stage1(work: np.ndarray, lwork: int) -> None:
        sy2sb(b"L", ref(n), ref(kd), k.ctypes, ref(n), band.ctypes, ref(kd + 1),
              tau.ctypes, work.ctypes, ref(lwork), ctypes.byref(info), 1)

    def stage2(hous: np.ndarray, lhous: int, work: np.ndarray, lwork: int) -> None:
        sb2st(b"N", b"N", b"L", ref(n), ref(kd), band.ctypes, ref(kd + 1),
              d.ctypes, e.ctypes, hous.ctypes, ref(lhous), work.ctypes,
              ref(lwork), ctypes.byref(info), 1, 1, 1)

    # With sizes of -1 each routine only writes the workspace sizes it
    # needs to their first entry. One workspace then serves both stages.
    sizes = np.zeros(3)
    stage1(sizes[0:], -1)
    stage2(sizes[1:], -1, sizes[2:], -1)
    lwork, lhous = int(max(sizes[0], sizes[2], 1)), int(max(sizes[1], 1))
    work, hous = np.empty(lwork), np.empty(lhous)
    stage1(work, lwork)
    if info.value != 0:
        raise NumericalError(f"band reduction failed (info={info.value})")
    stage2(hous, lhous, work, lwork)
    if info.value != 0:
        raise NumericalError(
            f"band to tridiagonal reduction failed (info={info.value})"
        )
    return band, tau[: max(n - kd, 0)], d, e


def _tridiagonal_reduction(k: np.ndarray):
    """(band, tau, d, e) of the symmetric ``k`` as :func:`_band_reduction`
    gives them, from LAPACK's one-stage ``dsytrd`` in place: the band is
    the tridiagonal form itself (kd = 1), the rows d and e."""
    n = k.shape[0]
    lwork, _ = dsytrd_lwork(n, lower=1)
    # k.T is the Fortran-ordered view of the symmetric k, so LAPACK reduces
    # it in place; the queried workspace selects the blocked reduction
    # (scipy's default workspace runs the unblocked one, twice as slow).
    _, d, e, tau, info = dsytrd(k.T, lower=1, lwork=int(lwork), overwrite_a=1)
    if info != 0:
        raise NumericalError(f"tridiagonal reduction failed (info={info})")
    band = np.asfortranarray([d, np.append(e, 0.0)])
    return band, tau, d, band[1, : max(n - 1, 1)]


def _pivoted_cholesky(
    x: np.ndarray, hyper: Hyperparameters, budget: int
) -> np.ndarray | None:
    """The greedy pivoted Cholesky factor of the RBF gram matrix of ``x``
    when its numerical rank is at most ``budget``; else None.

    Each step takes as pivot the row of largest remaining diagonal (the
    largest conditional variance given the pivots so far), builds that
    one kernel column from the inputs and subtracts the columns already
    taken, so no n x n block is built. It stops when the largest remaining
    diagonal falls to LAPACK ``dpstrf``'s default tolerance, n eps times
    the largest diagonal of K; the r columns taken by then give
    K = L L' to rounding (Harbrecht, Peters & Schneider 2012). The result
    is L' (r x n).

    It returns None when it cannot stop within ``budget`` columns: when
    it has taken them all, meets a non-finite pivot (finite but huge
    inputs) or, from :data:`_PROBE_WARMUP` columns on, when the decay of
    the largest remaining diagonal over the second half of the columns
    taken, continued geometrically to ``budget`` columns, would still not
    reach the tolerance. The first pivots of an RBF kernel fall more
    slowly than the later ones, so the decay since the start would
    understate the rate; a diagonal still at its first value (clusters
    too far apart to correlate) has no decay to continue.
    """
    n = x.shape[0]
    with np.errstate(over="ignore"):  # huge inputs: as in _sq_distances
        norms = np.sum(x * x, axis=1)
    remaining = np.full(n, hyper.output_scale**2)
    tolerance = n * np.finfo(np.float64).eps * hyper.output_scale**2
    log_pivots = []
    factor = np.empty((budget, n))
    for j in range(budget + 1):
        p = int(np.argmax(remaining))
        pivot = remaining[p]
        if not np.isfinite(pivot):
            return None
        if pivot <= tolerance:
            return factor[:j]
        log_pivots.append(np.log(pivot))
        if j == budget:
            return None
        if j >= _PROBE_WARMUP and log_pivots[j] < log_pivots[0]:
            rate = (log_pivots[j] - log_pivots[j // 2]) / (j - j // 2)
            if log_pivots[j] + (budget - j) * rate > np.log(tolerance):
                return None
        column = _cross_covariance(x, x[p : p + 1], hyper, norms)[:, 0]
        column -= factor[:j].T @ factor[:j, p]
        column /= np.sqrt(pivot)
        factor[j] = column
        remaining -= column * column


class _LowRank(NamedTuple):
    """K = Q1 U diag(lam) U' Q1' to rounding, as :func:`_low_rank` leaves
    it: Q = [Q1 Q2] the orthogonal factor of a QR of L, held as LAPACK's
    reflectors. The noise-only objective in O(r) per evaluation past one
    O(n) norm."""

    lam: np.ndarray
    c: np.ndarray
    outside: np.ndarray
    rotation: np.ndarray
    reflectors: np.ndarray
    tau: np.ndarray

    def _solve(self, v: float) -> tuple[float, np.ndarray, float]:
        """(LML, c / (lam + v), ||outside||^2) at noise ``v``: in the basis
        (K + v I)^-1 y has the coordinates c / (lam + v), outside it the
        residual / v, and the n - r eigenvalues outside the basis are 0."""
        n, r = self.c.shape[0] + self.outside.shape[0], self.lam.shape[0]
        coef = self.c / (self.lam + v)
        outside = float(self.outside @ self.outside)
        lml = (
            -0.5 * (float(self.c @ coef) + outside / v)
            - 0.5 * (float(np.sum(np.log(self.lam + v))) + (n - r) * np.log(v))
            - 0.5 * n * _LOG_2PI
        )
        return lml, coef, outside

    def lml_and_grad(self, log_noise: float) -> tuple[float, float]:
        """The LML and its derivative in log noise. The gradient's data
        term ||(K + v I)^-1 y||^2 is the sum of the basis and residual
        parts, and tr((K + v I)^-1) takes 1 / v for each eigenvalue
        outside the basis."""
        v = np.exp(log_noise)
        lml, coef, outside = self._solve(v)
        data = float(coef @ coef) + outside / v**2
        trace = float(np.sum(1.0 / (self.lam + v))) + self.outside.shape[0] / v
        return lml, 0.5 * v * (data - trace)

    def weights(self, noise: float) -> tuple[np.ndarray, float]:
        """(w, LML) at ``noise``: w = Q (U coef, outside / v), the basis
        part and the residual's."""
        lml, coef, _ = self._solve(noise)
        w = _apply_q(
            self.reflectors, self.tau,
            np.concatenate([self.rotation @ coef, self.outside / noise]), "N",
        )
        return w, lml


def _low_rank(factor: np.ndarray, y: np.ndarray) -> _LowRank:
    """What the noise-only search needs from a pivoted Cholesky factor
    (r x n, :func:`_pivoted_cholesky`, overwritten):
    (lam, c, outside, rotation, reflectors, tau).

    L = Q R by LAPACK ``geqrf``, and R R' = U diag(lam) U' (r x r), so
    B = Q1 U is an orthonormal basis of L's range and K = L L' =
    B diag(lam) B'; lam are K's nonzero eigenvalues, clamped at zero
    against rounding. Q'y = (z1, z2) splits the targets: c = U'z1 = B'y
    are their coordinates in the basis, and ``outside`` = z2 those of
    the residual y - B c = Q2 z2, which the noise alone sees. The
    residual is kept in these coordinates, computed by orthogonal
    transforms and never by subtracting B c from y, which would cancel at
    small noise.
    """
    r = factor.shape[0]
    # factor.T is the Fortran-ordered view, so geqrf works in place.
    qr, tau, _, info = dgeqrf(factor.T, overwrite_a=1)
    if info != 0:
        raise NumericalError(
            f"QR of the pivoted Cholesky factor failed (info={info})"
        )
    upper = np.triu(qr[:r, :r])
    lam, rotation = eigh(upper @ upper.T, check_finite=False)
    z = _apply_q(qr, tau, y, "T")
    return _LowRank(
        np.maximum(lam, 0.0), rotation.T @ z[:r], z[r:], rotation, qr, tau
    )


def _apply_q(
    reflectors: np.ndarray, tau: np.ndarray, b: np.ndarray, trans: str
) -> np.ndarray:
    """Q b (``trans`` "N") or Q'b ("T") for the orthogonal factor of a
    ``geqrf`` QR, applied reflector by reflector (LAPACK ``ormqr``)."""
    qb, _, info = dormqr("L", trans, reflectors, tau, b[:, None], lwork=1)
    if info != 0:
        raise NumericalError(f"applying the QR factor failed (info={info})")
    return qb[:, 0]


def _noise_reduction(
    x: np.ndarray, y: np.ndarray, hyper: Hyperparameters
) -> _Reduction | _LowRank:
    """The noise-only search's reduction of K: low-rank when the pivoted
    Cholesky probe stops within :data:`_PROBE_BUDGET` of the rows, else
    the band reduction of the gram matrix (:func:`_spectrum`). The probe's
    columns are freed before the gram matrix is built. The reduction reads
    one triangle, so the block is left as the GEMM behind it leaves it,
    symmetric to rounding only, without :func:`gram_matrix`'s
    symmetrizing pass (7-8 ms at 1,900 rows). The two-feature
    kinematics baseline has rank 150-175 at about 1,900 rows; the EMG and
    FMG features do not stop within the budget."""
    n = x.shape[0]
    if n >= _PROBE_MIN_ROWS:
        factor = _pivoted_cholesky(x, hyper, int(_PROBE_BUDGET * n))
        if factor is not None:
            return _low_rank(factor, y)
    return _spectrum(gram_matrix(x, hyper, _symmetric=False), y)


class _Pruned(Exception):
    """Raised from the L-BFGS-B callback or objective to stop a start that
    cannot win."""


def _free_scale_objective(
    x: np.ndarray, y: np.ndarray, theta0: np.ndarray, free: np.ndarray
):
    """The free-scale objective: theta_free -> (LML, its gradient over the
    free log parameters), the fixed ones taken from ``theta0``.

    Built once per search, it holds four n x n blocks: the squared
    distances, and three that every evaluation writes over, the gram
    matrix, the copy of it that is factored and the copy of the factor's
    lower triangle that :func:`lml_gradient` inverts. Each evaluation
    builds the gram matrix once, with the bits :func:`gram_matrix` gives,
    so its value equals ``fit(...).log_marginal`` bit for bit; factors a
    copy of it once with LAPACK ``potrf``, in place; and hands the
    distances and the gram matrix to one :func:`lml_gradient` call, which
    builds no kernel of its own. Its model skips what a returned one gets:
    the validation scans and zeros above the factor's diagonal, which
    nothing it is handed to reads. Raises :class:`NotPositiveDefinite`
    where K + noise I cannot be factored or its LML is not finite.
    """
    d2 = _sq_distances(x, x)  # fixed for the whole search
    # The GEMM behind d2 can leave a few entries asymmetric; a kernel
    # block built from d2 is asymmetric there only, so taking the mean
    # with the transpose there gives gram_matrix's bits (the mean of
    # two equal entries is that entry). _symmetrize gives the same bits
    # but costs 144 us per evaluation at 200 rows, against 6 us.
    rows, cols = np.nonzero(d2 != d2.T)
    # Rewritten by every evaluation: fresh n x n blocks on each one
    # cost as much in page faults as the kernel build itself. l_c gets
    # the factor's lower triangle; its zeros above stay.
    k_f, k, l_c = np.empty_like(d2), np.empty_like(d2), np.zeros_like(d2)
    on_or_below = np.tri(d2.shape[0], dtype=bool)

    def lml_and_grad(theta_free: np.ndarray) -> tuple[float, np.ndarray]:
        theta = theta0.copy()
        theta[free] = theta_free
        hyper = Hyperparameters.from_log_array(theta)
        # One kernel build per evaluation: the factor gets a copy of the
        # gram matrix and the gradient the gram matrix itself.
        _rbf_from_sq(d2, hyper, out=k_f)
        k_f[rows, cols] = (k_f[rows, cols] + k_f[cols, rows]) * 0.5
        np.copyto(k, k_f)
        lower, alpha, jitter = _factor_solve(k, y, hyper.noise_variance)
        model = GprModel._unchecked(
            inputs=x, targets=y, hyper=hyper, cholesky_lower=lower,
            weights=alpha, log_marginal=0.0, jitter=jitter,
        )
        model.log_marginal = lml = log_marginal_likelihood(model)
        if not np.isfinite(lml):
            raise NotPositiveDefinite("the log marginal likelihood is not finite")
        np.copyto(l_c, lower, where=on_or_below)
        return lml, lml_gradient(model, blocks=(d2, k_f, l_c))[free]

    return lml_and_grad


def _multi_start(objective, first: np.ndarray, seed: int, prune: bool) -> np.ndarray:
    """The best optimum of :data:`RESTARTS` L-BFGS-B starts on the negated
    ``objective`` (theta_free -> (LML, gradient), which may be a scalar
    when one parameter is free), among the starts that ran to completion:
    the first start is ``first``, the others are drawn uniformly from
    :data:`INIT_LOG_BOUNDS` with ``seed``.

    An evaluation whose objective raises :class:`NotPositiveDefinite`
    gets the finite :data:`_FAILED` and a zero gradient, so L-BFGS-B backs
    off from it; when no start reached a usable optimum, the search raises
    :class:`NotPositiveDefinite`.

    Without ``prune`` every start runs to completion. With it, the first
    start does; a later one is stopped, and takes no part in the
    comparison, once it is not expected to win: when its start point or
    an iterate lies within :data:`BASIN_RADIUS` of an optimum a completed
    start reached, so it would most likely end there too (multi-level
    single linkage, Rinnooy Kan & Timmer 1987), or, before its next
    evaluation, when each of its last :data:`TRAIL_EVALUATIONS`
    evaluations trailed the best completed start's LML by more than
    :data:`TRAIL_MARGIN` of that LML's size and by more than
    :data:`TRAIL_FLOOR` log units. The trail counts every evaluation,
    line-search trials and unfactorable points too, so a start whose line
    search stalls far behind the best costs at most that many
    evaluations; each one the start makes is still handed to L-BFGS-B. A
    stopped start might have gone on to a better optimum, so the result
    can be worse than the best of the same starts run to the end.
    """
    n_free = first.shape[0]
    rng = np.random.default_rng(seed)
    starts = [first] + [
        rng.uniform(*INIT_LOG_BOUNDS, size=n_free) for _ in range(RESTARTS - 1)
    ]
    found = []  # the usable optimum of each completed start, when pruning
    best_theta, best_value = None, np.inf
    trailing = 0  # this start's latest evaluations in a row behind the best

    def negative(theta_free: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal trailing
        if trailing >= TRAIL_EVALUATIONS:
            raise _Pruned
        try:
            lml, grad = objective(theta_free)
            value, grad = -lml, -np.atleast_1d(grad)
        except NotPositiveDefinite:
            value, grad = _FAILED, np.zeros(n_free)
        margin = max(TRAIL_MARGIN * abs(best_value), TRAIL_FLOOR)
        trails = bool(found) and value > best_value + margin
        trailing = trailing + 1 if trails else 0
        return value, grad

    def in_found_basin(theta_free: np.ndarray) -> bool:
        return any(np.linalg.norm(theta_free - opt) <= BASIN_RADIUS for opt in found)

    def after_iteration(theta_free: np.ndarray) -> None:
        """The L-BFGS-B callback of a later pruned start: the basin stop."""
        if in_found_basin(theta_free):
            raise _Pruned

    for start in starts:
        if in_found_basin(start):
            continue
        trailing = 0
        try:
            result = minimize(
                negative,
                start,
                jac=True,
                method="L-BFGS-B",
                bounds=[LOG_BOUNDS] * n_free,
                options={
                    "maxiter": MAX_ITERATIONS,
                    "gtol": GRADIENT_TOLERANCE,
                },
                callback=after_iteration if found else None,
            )
        except _Pruned:
            continue
        if prune and result.fun < _FAILED:
            found.append(result.x)
        if result.fun < best_value:
            best_value, best_theta = result.fun, result.x
    if not best_value < _FAILED:  # also when no start completed
        raise NotPositiveDefinite("hyperparameter search found no usable optimum")
    return best_theta


def optimize_hyperparameters(
    inputs: np.ndarray,
    targets: np.ndarray,
    initial: Hyperparameters | None = None,
    options: GpOptions = GpOptions(),
    _keep: list | None = None,
) -> Hyperparameters:
    """Maximize the log marginal likelihood over the free log parameters.

    One multi-start L-BFGS-B driver (:func:`_multi_start`) runs over one
    of two objectives and returns the best optimum among the starts that
    ran to completion. It raises :class:`NotPositiveDefinite` when none of
    them reached a point whose covariance could be factored.

    - Noise only: the objective is the reduction of K that
      :func:`_noise_reduction` chooses by K's numerical rank, low-rank
      (:class:`_LowRank`) or band (:class:`_Reduction`), and every
      start runs to completion. The reduction is freed when the search
      returns, unless ``_keep``, a list only :func:`fit_mean` passes,
      takes it for the fold's mean-only fit.
    - A scale free: the objective is :func:`_free_scale_objective`, over
      four n x n blocks, and the driver stops later starts that cannot
      win: one that enters a found optimum's basin, and one whose last
      :data:`TRAIL_EVALUATIONS` evaluations all trailed the best by more
      than :data:`TRAIL_MARGIN` of its size and :data:`TRAIL_FLOOR`.
    """
    x, y = _training_set(inputs, targets)
    if initial is None:
        initial = Hyperparameters()
    free = options.free_mask()
    theta = initial.log_array()
    if options.noise_only:
        reduction = _noise_reduction(x, y, initial)
        if _keep is not None:
            _keep.append(reduction)
        objective = lambda theta_free: reduction.lml_and_grad(float(theta_free[0]))
    else:
        objective = _free_scale_objective(x, y, theta.copy(), free)
    theta[free] = _multi_start(
        objective, theta[free], options.seed, prune=not options.noise_only
    )
    return Hyperparameters.from_log_array(theta)


def fit_mean(
    inputs: np.ndarray, targets: np.ndarray, options: GpOptions = GpOptions()
) -> GprModel:
    """The model a cross-validation fold predicts held-out means from:
    :func:`fit` at the hyperparameters :func:`optimize_hyperparameters`
    tunes. With the noise alone free, the fit takes its weights from the
    search's reduction of K, so it makes no second n x n block and no
    Cholesky factor, and the model is mean-only (:class:`GprModel`)."""
    kept: list = []
    hyper = optimize_hyperparameters(inputs, targets, options=options, _keep=kept)
    return fit(inputs, targets, hyper, _reduction=kept.pop() if kept else None)


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

    Only the query points are checked (:class:`DataError` on a NaN or
    infinity): the model was, when built (:class:`GprModel`), so the
    triangular solve skips scipy's finiteness scan of the n x n factor,
    several times the O(n^2) solve itself on a one-row query. A block of
    one row solves with :func:`_lower_solve_vector`, to the same bits.
    """
    lower = model._factor_for("predict")
    xq = _query_points(model, x_star)
    mean, var = np.empty(xq.shape[0]), np.empty(xq.shape[0])
    prior_var = model.hyper.output_scale**2
    for rows, k_star in _query_blocks(model, xq):
        mean[rows] = k_star.T @ model.weights
        if k_star.shape[1] == 1:
            v = _lower_solve_vector(lower, k_star[:, 0])[:, None]
        else:
            v = solve_triangular(lower, k_star, lower=True, check_finite=False)
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


_FORMAT_VERSION = 2
_MODEL_KIND = "gpr-rbf"


def save_model(model: GprModel, path, metadata: dict | None = None) -> None:
    """Serialize what :func:`fit` makes a model from (inputs, targets,
    hyperparameters), the jitter it used and free-form metadata to an npz
    file. Every float64 array round-trips bit-exactly. A mean-only model
    is refused: :func:`load_model` would refit it with a factor, so the
    model reloaded would not be the model saved."""
    model._factor_for("save_model")
    np.savez(
        path,
        format_version=np.int64(_FORMAT_VERSION),
        model_kind=np.str_(_MODEL_KIND),
        inputs=model.inputs,
        targets=model.targets,
        hyper=np.array(astuple(model.hyper)),
        jitter=np.float64(model.jitter),
        metadata_json=np.str_(json.dumps(metadata or {})),
    )


def load_model(path, read_metadata=None) -> tuple[GprModel, object]:
    """Inverse of :func:`save_model`: :func:`fit` on the stored arrays,
    which rebuilds the saved model bit for bit. Its n x n block and
    factorization are part of ``predict``'s and ``stream``'s start-up.

    ``read_metadata(metadata, n_features)``, when given, runs before the
    refit, so a file whose metadata it rejects (by raising) costs no
    n x n block; what it returns is returned in place of the metadata.

    A file that is not a saved model of this kind and format version (not
    an npz archive, truncated or corrupt, a field of the wrong shape or
    dtype), whose hyperparameters lie outside the search box
    :data:`LOG_BOUNDS` or whose refit fails, runs out of memory or needs
    another jitter than the stored one raises :class:`ModelFormatError`.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            if "format_version" not in data or "model_kind" not in data:
                raise ModelFormatError(f"{path} is not a saved model")
            kind, version = str(data["model_kind"]), int(data["format_version"])
            if (kind, version) != (_MODEL_KIND, _FORMAT_VERSION):
                raise ValueError(
                    f"a {kind!r} model of format version {version} is not read "
                    "here; retrain the model with 'myotorque train'"
                )
            x, y = data["inputs"], data["targets"]
            for name, arr, ndim in (("inputs", x, 2), ("targets", y, 1)):
                # fit would cast or reshape them without a word.
                if arr.dtype != np.float64 or arr.ndim != ndim:
                    raise ValueError(f"{name} must be a {ndim}-D float64 array")
            hyper = Hyperparameters(*(float(h) for h in data["hyper"]))
            # The search box, with slack for the exp/log round trip.
            theta, (lo, hi) = hyper.log_array(), LOG_BOUNDS
            if not np.all((lo - 1e-9 <= theta) & (theta <= hi + 1e-9)):
                raise ValueError(f"hyper {astuple(hyper)} is outside the search box")
            jitter = float(data["jitter"])
            metadata = json.loads(str(data["metadata_json"]))
    # A damaged archive fails in zipfile (BadZipFile, EOFError, and a
    # RuntimeError for a member flagged as encrypted or compressed by an
    # unsupported method) or in zlib; a field of the wrong shape or dtype
    # fails the scalar conversions with a TypeError or the checks above.
    except (
        OSError, ValueError, KeyError, TypeError, EOFError, RuntimeError,
        zipfile.BadZipFile, zlib.error,
    ) as exc:
        raise ModelFormatError(f"cannot load model from {path}: {exc}") from exc
    if read_metadata is not None:
        metadata = read_metadata(metadata, x.shape[1])
    try:
        model = fit(x, y, hyper)
    except MemoryError:
        raise ModelFormatError(
            f"{path}: not enough memory to refit its {x.shape[0]} rows"
        ) from None
    except (DataError, NotPositiveDefinite) as exc:
        raise ModelFormatError(f"{path}: refit failed: {exc}") from exc
    if model.jitter != jitter:
        raise ModelFormatError(
            f"{path}: refit used jitter {model.jitter:g}, the file stores {jitter:g}"
        )
    return model, metadata
