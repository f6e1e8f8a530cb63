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
held at any time is n x block whatever the query size. A query of one
row, a stream tick's, takes its variance from the inverse factor
M = L^-1 instead (:func:`_one_row_sq_norm`), which LAPACK ``trtri``
makes once per model (n x n more doubles) and :func:`prepare_one_row`
makes ahead of the first such query. ||M k*||^2 splits into two parts of
about equal bytes, rows [0, h) of M and rows [h, n) with h about
n / sqrt 2, each a few level-2 BLAS calls bound through ctypes, which
release the GIL: on a model of 1,000 rows or more, where a second thread
gets a core of its own (:func:`_spare_core`), one persistent worker
takes the second part, else the calling thread runs both, with the same
calls and the same bits.

A cross-validation fold of n training and m held-out rows asks only for
the mean, and gets its model and means from :func:`fit_mean`, which takes
a cell's folds in one call. With the noise alone free, the search's
reduction already fixes the model: the dual weights
w = (K + noise I)^-1 y and the log marginal likelihood come from the
reduction at the tuned noise. So such a fold factors nothing by
Cholesky, builds at most one n x n block, the search's gram matrix, and
none when K is low-rank; its model is mean-only (:func:`predict_mean`).
Two folds that both need the band reduction share one block of
(N + 1) x N doubles, each reduced in its own triangle on its own thread
(:func:`_fit_pair`), where the process has a second core and the BLAS
runs one thread, or is set to for the pair's duration
(:func:`_spare_core`). The folds come as one stream, which may span a
run's cells, so of a run of consecutive such folds only an odd last one
runs alone. The m predictions add one
n x ``_QUERY_BLOCK`` (128) block at a time. At the default cap of 2,000
rows that is 32 MB for the n x n block and 2 MB per query block. Every
other fit factors K + noise I by Cholesky, so that a model that is saved
equals its refit bit for bit.
"""

from __future__ import annotations

import ctypes
import json
import os
import zipfile
import zlib
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg import _flapack, eigh, solve_triangular
from scipy.linalg.blas import dgemm
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
    dtrtri,
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

# Rows of a gram matrix that :func:`_gram_triangle` builds at a time. Each
# thread of a fold pair holds one such block beside the pair's shared one,
# so a smaller block keeps the pair's peak closer to that one block.
_TRIANGLE_ROWS = 32

# A one-row variance on fewer training rows runs whole on the calling
# thread (:func:`_one_row_sq_norm`): there its inverse factor (8 MB at
# 1,000 rows) is read from cache in less time than handing half of it to
# the worker takes, about 0.1 ms (2-core Xeon, one BLAS thread).
_ONE_ROW_WORKER_ROWS = 1000

# Noise-only search: the off-diagonals of the band that the two-stage
# reduction leaves (:func:`_band_reduction`). A wider band makes the first
# stage faster up to about 32 and the second stage slower beyond it, and
# each band solve grows as the width squared.
_BAND_WIDTH = 32


def _scipy_symbol(name: str):
    """The C function ``name`` as a ctypes function of the LAPACK and BLAS
    behind scipy, or None where they lack it.

    It is looked up through the handle of scipy's own LAPACK extension;
    dlsym searches that library's dependencies too, so this finds the
    library whose ``dsytrd`` scipy calls, where scipy's build prefixes the
    names with ``scipy_``."""
    try:
        lib = ctypes.CDLL(_flapack.__file__)
    except OSError:
        return None
    return getattr(lib, f"scipy_{name}", None) or getattr(lib, name, None)


def _two_stage_routines():
    """LAPACK's ``dsytrd_sy2sb``, ``dsytrd_sb2st`` and ``dsterf`` as ctypes
    functions, or None where the LAPACK behind scipy lacks any of them
    (scipy wraps neither of the first two, and its ``dsterf`` wrapper holds
    the GIL for the whole call, where a ctypes call releases it). All take
    32-bit integers by reference and, per CHARACTER argument, one trailing
    hidden length (the gfortran convention)."""
    names = ("dsytrd_sy2sb_", "dsytrd_sb2st_", "dsterf_")
    routines = [_scipy_symbol(name) for name in names]
    if None in routines:
        return None
    sy2sb, sb2st, sterf = routines
    char, ptr, length = ctypes.c_char_p, ctypes.c_void_p, ctypes.c_size_t
    # uplo, n, kd, a, lda, ab, ldab, tau, work, lwork, info
    sy2sb.argtypes = [char] + [ptr] * 10 + [length]
    # stage1, vect, uplo, n, kd, ab, ldab, d, e, hous, lhous, work, lwork, info
    sb2st.argtypes = [char] * 3 + [ptr] * 11 + [length] * 3
    # n, d, e, info
    sterf.argtypes = [ptr] * 4
    sy2sb.restype = sb2st.restype = sterf.restype = None
    return sy2sb, sb2st, sterf


_TWO_STAGE = _two_stage_routines()

# OpenBLAS's count of its threads and its setter (:func:`_one_blas_thread`);
# None where the BLAS behind scipy lacks them.
_BLAS_THREADS = _scipy_symbol("openblas_get_num_threads")
if _BLAS_THREADS is not None:
    _BLAS_THREADS.argtypes, _BLAS_THREADS.restype = [], ctypes.c_int
_SET_BLAS_THREADS = _scipy_symbol("openblas_set_num_threads")
if _SET_BLAS_THREADS is not None:
    _SET_BLAS_THREADS.argtypes, _SET_BLAS_THREADS.restype = [ctypes.c_int], None


def _level2_routines():
    """BLAS ``dtrmv``, ``dgemv`` and ``ddot`` as ctypes functions, which a
    one-row :func:`predict` calls (:func:`_inverse_rows_sq_norm`), or None
    where the BLAS behind scipy lacks any of them. The calling conventions
    are those of :func:`_two_stage_routines`."""
    routines = [_scipy_symbol(name) for name in ("dtrmv_", "dgemv_", "ddot_")]
    if None in routines:
        return None
    trmv, gemv, dot = routines
    char, ptr, length = ctypes.c_char_p, ctypes.c_void_p, ctypes.c_size_t
    # uplo, trans, diag, n, a, lda, x, incx
    trmv.argtypes = [char] * 3 + [ptr] * 5 + [length] * 3
    # trans, m, n, alpha, a, lda, x, incx, beta, y, incy
    gemv.argtypes = [char] + [ptr] * 10 + [length]
    # n, x, incx, y, incy
    dot.argtypes = [ptr] * 5
    trmv.restype = gemv.restype = None
    dot.restype = ctypes.c_double
    return trmv, gemv, dot


_LEVEL2 = _level2_routines()


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

    @cached_property
    def _inverse_factor(self) -> np.ndarray:
        """M = L^-1, C-ordered, which a one-row :func:`predict` reads (its
        lower triangle only); made on first use, once per model, by LAPACK
        ``trtri``: n x n more doubles. ``trtri`` inverts the transpose L',
        whose inverse M' it leaves Fortran-ordered, in a copy: the same
        memory as a C-ordered M. A factor with a positive diagonal always
        inverts."""
        lower = self._factor_for("predict")
        inverse_t, _ = dtrtri(lower.T, lower=0)
        return inverse_t.T


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
    # A scale of exactly 1 (the fixed scales' default) leaves every bit as
    # it is, so its pass over the block is skipped.
    if hyper.length_scale != 1.0:
        k /= hyper.length_scale**2
    np.exp(k, out=k)
    if hyper.output_scale != 1.0:
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
    x: np.ndarray,
    hyper: Hyperparameters | None = None,
    _symmetric: bool = True,
    _triangle: tuple[np.ndarray, bool] | None = None,
) -> np.ndarray:
    """Symmetric noise-free covariance matrix of one input set (n x d).

    With ``_symmetric`` false, which only the noise-only search passes, it
    is the block as the GEMM behind it leaves it, symmetric to rounding.
    With ``_triangle`` = (k, upper), which only a fold pair passes, the
    default-kernel matrix is written into one triangle of ``k``, which is
    returned (:func:`_gram_triangle`)."""
    if _triangle is not None:
        return _gram_triangle(x, *_triangle)
    if hyper is None:
        hyper = Hyperparameters()
    pts = _as_points(x)
    k = _rbf_from_sq(_sq_distances(pts, pts), hyper)
    return _symmetrize(k) if _symmetric else k


def _gram_triangle(x: np.ndarray, k: np.ndarray, upper: bool) -> np.ndarray:
    """The default-kernel :func:`gram_matrix` of ``x`` written into one
    triangle of the n x n ``k``, which is returned: the triangle on and
    above the diagonal of ``k.T`` with ``upper``, else the one on and
    below. The other triangle is not touched. It is built
    :data:`_TRIANGLE_ROWS` rows at a time, so there is no n x n temporary;
    the GEMM of a block of rows may round an entry differently from the
    GEMM of all."""
    pts, hyper = _as_points(x), Hyperparameters()
    n = pts.shape[0]
    for r0 in range(0, n, _TRIANGLE_ROWS):
        # k.T's upper triangle is k's lower one: in rows [r0, r1) of k, the
        # columns up to r1 (else from r0 on), each on its side of the diagonal.
        r1 = min(r0 + _TRIANGLE_ROWS, n)
        c0, c1 = (0, r1) if upper else (r0, n)
        block = _cross_covariance(pts[r0:r1], pts[c0:c1], hyper)
        row, col = np.ogrid[r0:r1, c0:c1]
        np.copyto(k[r0:r1, c0:c1], block, where=(col <= row) if upper else (col >= row))
        del block  # before the next block of rows is made
    return k


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
    ``kd`` off-diagonals held in its ``upper`` or lower triangle: the
    noise-only objective in O(n kd^2) per evaluation."""

    lam: np.ndarray
    band: np.ndarray
    z: np.ndarray
    reflectors: np.ndarray
    tau: np.ndarray
    kd: int
    upper: bool

    def _reflect(self, b: np.ndarray, adjoint: bool) -> np.ndarray:
        """Q'b (``adjoint``) or Q b, in place, one reflector at a time:
        Q = H_0 H_1 ... in either triangle, H_i = I - tau_i v v' with
        v[:i+kd] = 0 and v[i+kd:] column i of ``reflectors`` (lower) or
        row i (upper) from the band's edge on. So Q'b applies H_0 first and
        Q b the last reflector first."""
        a, tau, kd = self.reflectors, self.tau, self.kd
        order = range(tau.shape[0])
        for i in order if adjoint else reversed(order):
            v = a[i, i + kd :] if self.upper else a[i + kd :, i]
            b[i + kd :] -= (tau[i] * (v @ b[i + kd :])) * v
        return b

    def _solve(self, v: float) -> tuple[float, np.ndarray]:
        """(LML, u) at noise ``v``. One band solve (B + v I) u = z gives the
        quadratic term y'(K + v I)^-1 y = z'u; the log determinant comes
        from the eigenvalues. Raises :class:`NotPositiveDefinite` when
        LAPACK ``pbsv`` finds B + v I not positive definite."""
        ab = self.band.copy(order="F")
        ab[self.kd if self.upper else 0] += v  # the diagonal's row
        _, u, info = dpbsv(ab, self.z, lower=int(not self.upper), overwrite_ab=1)
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
        """(w, LML) at ``noise``: w = Q u."""
        lml, u = self._solve(noise)
        return self._reflect(u, adjoint=False), lml


def _spectrum(k: np.ndarray, y: np.ndarray, upper: bool = False) -> _Reduction:
    """What the noise-only search needs from the symmetric ``k.T``, of
    which it reads the ``upper`` or lower triangle only, without any
    eigenvector: (lam, band, z, reflectors, tau, kd, upper).

    K = Q B Q' with B a symmetric band of ``kd`` off-diagonals, by the
    two-stage reduction (:func:`_band_reduction`, kd = :data:`_BAND_WIDTH`)
    or, where the LAPACK behind scipy lacks it, by the one-stage
    Householder reduction of the lower triangle to tridiagonal form
    (:func:`_tridiagonal_reduction`, kd = 1). ``band`` is B in LAPACK's
    band storage of that triangle (lower: row r holds the r-th
    subdiagonal; upper: row kd - r the r-th superdiagonal), z = Q'y (the
    reflectors applied to y only) and lam the eigenvalues of K, ascending
    and clamped at zero against rounding, from the tridiagonal form by
    LAPACK ``sterf``. ``k``'s triangle is overwritten: ``reflectors`` is
    ``k.T``, holding Q's reflectors (:meth:`_Reduction._reflect`) with
    their leading 1 written in. ``k`` is a C-ordered n x n block or such
    a view of a wider one, so ``k.T`` may have a leading dimension larger
    than n. Raises :class:`NotPositiveDefinite`, as :func:`fit` does, on a
    ``k`` whose mean diagonal is not finite and positive: finite but huge
    inputs give NaN entries, which would pass through the reduction
    unnoticed.
    """
    _diagonal_scale(k)
    reduce = _band_reduction if _TWO_STAGE is not None else _tridiagonal_reduction
    band, tau, lam = reduce(k, upper)
    kd, a = band.shape[0] - 1, k.T
    # Each reflector's leading 1 goes where the band's outermost entry was;
    # that entry is in ``band``.
    i = np.arange(tau.shape[0])
    a[(i, i + kd) if upper else (i + kd, i)] = 1.0
    reduction = _Reduction(np.maximum(lam, 0.0), band, y.copy(), a, tau, kd, upper)
    reduction._reflect(reduction.z, adjoint=True)
    return reduction


def _band_reduction(k: np.ndarray, upper: bool):
    """(band, tau, lam) of the symmetric ``k.T``, reduced in place in two
    stages (Bischof, Lang & Sun 2000): LAPACK ``dsytrd_sy2sb`` takes the
    ``upper`` or lower triangle of K to the band B = Q'KQ of
    :data:`_BAND_WIDTH` off-diagonals with level-3 BLAS, leaving Q's
    n - kd reflectors outside the band of that triangle, and
    ``dsytrd_sb2st`` takes a copy of B to its tridiagonal form, without
    its reflectors, whose eigenvalues lam ``dsterf`` gives. None of them
    reads or writes an entry of ``k`` outside that triangle, and each
    releases the GIL."""
    # LAPACK reads k.T through a pointer, as n x n Fortran-ordered doubles
    # with a leading dimension of lda.
    n, kd = k.shape[0], _BAND_WIDTH
    lda = k.strides[0] // 8
    if k.dtype != np.float64 or k.strides[1] != 8 or k.strides[0] != 8 * lda or lda < n:
        raise ValueError("the band reduction needs float64 rows, each contiguous")
    sy2sb, sb2st, sterf = _TWO_STAGE
    uplo = b"U" if upper else b"L"
    band = np.zeros((kd + 1, n), order="F")
    tau = np.zeros(max(n - kd, 1))
    d, e = np.empty(n), np.empty(max(n - 1, 1))
    info = ctypes.c_int()

    def ref(value: int):
        return ctypes.byref(ctypes.c_int(value))

    def stage1(work: np.ndarray, lwork: int) -> None:
        sy2sb(uplo, ref(n), ref(kd), ctypes.c_void_p(k.ctypes.data), ref(lda),
              band.ctypes, ref(kd + 1), tau.ctypes, work.ctypes, ref(lwork),
              ctypes.byref(info), 1)

    def stage2(hous: np.ndarray, lhous: int, work: np.ndarray, lwork: int) -> None:
        sb2st(b"N", b"N", uplo, ref(n), ref(kd), band.ctypes, ref(kd + 1),
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
    sterf(ref(n), d.ctypes, e.ctypes, ctypes.byref(info))  # d becomes lam
    if info.value != 0:
        raise NumericalError(f"tridiagonal eigenvalues failed (info={info.value})")
    return band, tau[: max(n - kd, 0)], d


def _tridiagonal_reduction(k: np.ndarray, upper: bool):
    """(band, tau, lam) of the symmetric ``k.T`` as :func:`_band_reduction`
    gives them for its lower triangle, from LAPACK's one-stage ``dsytrd``
    in place: the band is the tridiagonal form itself (kd = 1), the rows
    d and e, and lam its eigenvalues by scipy's ``dsterf``. ``k`` must be
    C-contiguous, so that the reduction is done in it and not in a
    copy."""
    if upper or not k.flags.c_contiguous:
        raise ValueError("the one-stage reduction takes a C-ordered lower triangle")
    n = k.shape[0]
    lwork, _ = dsytrd_lwork(n, lower=1)
    # k.T is the Fortran-ordered view of the symmetric k, so LAPACK reduces
    # it in place; the queried workspace selects the blocked reduction
    # (scipy's default workspace runs the unblocked one, twice as slow).
    _, d, e, tau, info = dsytrd(k.T, lower=1, lwork=int(lwork), overwrite_a=1)
    if info != 0:
        raise NumericalError(f"tridiagonal reduction failed (info={info})")
    band = np.asfortranarray([d, np.append(e, 0.0)])
    # sterf's wrapper copies e, which it destroys, and wants one entry at n = 1.
    lam, info = dsterf(d, band[1, : max(n - 1, 1)], overwrite_d=1)
    if info != 0:
        raise NumericalError(f"tridiagonal eigenvalues failed (info={info})")
    return band, tau, lam


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
    Cholesky probe stops (:func:`_low_rank_reduction`), else the band
    reduction of the gram matrix (:func:`_spectrum`), left as the GEMM
    behind it leaves it, without :func:`gram_matrix`'s symmetrizing pass:
    the reduction reads one triangle."""
    reduction = _low_rank_reduction(x, y, hyper)
    if reduction is None:
        reduction = _spectrum(gram_matrix(x, hyper, _symmetric=False), y)
    return reduction


def _low_rank_reduction(
    x: np.ndarray, y: np.ndarray, hyper: Hyperparameters
) -> _LowRank | None:
    """The noise-only search's reduction of K when the pivoted Cholesky
    probe stops within :data:`_PROBE_BUDGET` of the rows; else None. The
    probe's columns are freed before anything else is built. The
    two-feature kinematics baseline has rank 150-175 at about 1,900 rows;
    the EMG and FMG features do not stop within the budget."""
    n = x.shape[0]
    if n < _PROBE_MIN_ROWS:
        return None
    factor = _pivoted_cholesky(x, hyper, int(_PROBE_BUDGET * n))
    return None if factor is None else _low_rank(factor, y)


def _pair_blocks(n_a: int, n_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Two folds' gram matrices in one block: a C-ordered block of
    (N + 1) x N doubles, N = max(n_a, n_b), as its n_a x n_a view at
    (0, 0) and its n_b x n_b view at (1, 0), the transpose of each being
    that fold's matrix. In the block's Fortran view, N x (N + 1), the
    first starts at (0, 0) and takes the triangle on and below its
    diagonal, and the second starts at (0, 1) and takes the one on and
    above its own, which lies above the first's. The two share no entry
    (the rectangular full packed layout of Gustavson, Wasniewski, Dongarra
    & Langou 2010)."""
    width = max(n_a, n_b)
    if (width + 1) * width * 8 >= _TRIM_BYTES:
        _release_free_heap()
    block = np.empty((width + 1, width))
    return block[:n_a, :n_a], block[1 : n_b + 1, :n_b]


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
    _reduction: _Reduction | _LowRank | None = None,
) -> Hyperparameters:
    """Maximize the log marginal likelihood over the free log parameters.

    One multi-start L-BFGS-B driver (:func:`_multi_start`) runs over one
    of two objectives and returns the best optimum among the starts that
    ran to completion. It raises :class:`NotPositiveDefinite` when none of
    them reached a point whose covariance could be factored.

    - Noise only: the objective is the reduction of K that
      :func:`_noise_reduction` chooses by K's numerical rank, low-rank
      (:class:`_LowRank`) or band (:class:`_Reduction`), and every start
      runs to completion. ``_reduction``, which only :func:`fit_mean`
      passes, is such a reduction made beforehand on the same inputs and
      ``initial``'s kernel scales.
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
        reduction = _noise_reduction(x, y, initial) if _reduction is None else _reduction
        objective = lambda theta_free: reduction.lml_and_grad(float(theta_free[0]))
    else:
        objective = _free_scale_objective(x, y, theta.copy(), free)
    theta[free] = _multi_start(
        objective, theta[free], options.seed, prune=not options.noise_only
    )
    return Hyperparameters.from_log_array(theta)


def fit_mean(problems, options: GpOptions = GpOptions()):
    """The models cross-validation folds predict held-out means from, with
    those means: for each problem (inputs, targets, queries), in order, the
    pair (:func:`fit` at the hyperparameters
    :func:`optimize_hyperparameters` tunes, :func:`predict_mean` of it at
    the queries).

    A generator: it takes a problem from ``problems`` only when it gets to
    it and yields each result as soon as it has it. With a scale free
    each fold is fitted by Cholesky. With the noise alone free a fold's fit
    takes its weights from the search's reduction of K, so its model is
    mean-only, without a Cholesky factor. A fold whose K the pivoted
    Cholesky probe finds low-rank runs alone; so does every fold where the
    two-stage reduction is missing or a second thread would have no core
    of its own (:func:`_spare_core`). The other folds run two at a time
    (:func:`_fit_pair`), each on its own thread and in its own triangle of
    one block; a fold left without a partner, at the end of ``problems``
    or before a low-rank fold, runs alone. The problems may span several
    tables, as they do in :func:`~myotorque.evaluate.evaluate_with_exports`,
    so a table's last fold may pair with the next table's first.

    An error leaves only after every earlier problem's result has been
    yielded and both of a pair's threads have ended, so it is the error of
    the first problem that fails, or of taking the next one from
    ``problems``, as if the folds ran one at a time.
    """
    pair_width = 2 if _TWO_STAGE is not None and _spare_core() else 1
    held: list = []  # full-rank folds (x, y, queries) waiting for a partner

    def run_held():
        folds, held[:] = list(held), []
        if len(folds) == 2:
            yield from _fit_pair(folds, options)
        elif folds:
            ((x, y, queries),) = folds
            yield _fit_one(x, y, queries, options, _spectrum(gram_matrix(x, _symmetric=False), y))

    def take(inputs, targets, queries):
        """The results ready once this problem is taken, in order. Its
        reduction is freed once they are out, before the next problem's is
        made."""
        x, y = _training_set(inputs, targets)
        reduction = None
        if options.noise_only:
            reduction = _low_rank_reduction(x, y, Hyperparameters())
            if reduction is None:
                held.append((x, y, queries))
                if len(held) == pair_width:
                    yield from run_held()
                return
        yield from run_held()
        yield _fit_one(x, y, queries, options, reduction)

    try:
        for problem in problems:
            yield from take(*problem)
    except Exception:
        yield from run_held()
        raise
    yield from run_held()


def _spare_core() -> bool:
    """Whether a second thread, a fold pair's or the one that takes part
    of a one-row variance (:func:`_one_row_sq_norm`), gets a core of its
    own: this process may run on more than one core, and the BLAS behind
    scipy runs one thread or reports a count that can be set to one for
    the pair's or the variance's duration (:func:`_one_blas_thread`). A
    BLAS that reports no count counts as threaded: it would spread each
    thread's calls over the cores, and the second thread would compete
    with them."""
    threads = _BLAS_THREADS() if _BLAS_THREADS is not None else 0
    settable = threads > 0 and _SET_BLAS_THREADS is not None
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity is not None else os.cpu_count() or 1
    return (threads == 1 or settable) and cores > 1


@contextmanager
def _one_blas_thread():
    """The BLAS behind scipy at one thread for the block, and at its
    earlier count after it, also after an error. A no-op where it already
    runs one thread or reports no count."""
    threads = _BLAS_THREADS() if _BLAS_THREADS is not None else 1
    if threads == 1 or _SET_BLAS_THREADS is None:
        yield
        return
    _SET_BLAS_THREADS(1)
    try:
        yield
    finally:
        _SET_BLAS_THREADS(threads)


def _fit_pair(folds: list, options: GpOptions):
    """Two full-rank folds (x, y, queries) of :func:`fit_mean`, the first
    on this thread and the second on another, with the BLAS at one thread
    (:func:`_one_blas_thread`): the first builds and reduces its gram
    matrix in the lower triangle of :func:`_pair_blocks`' block, the
    second in the upper one, and each searches and fits from its
    reduction. The two-stage reduction reads and writes its triangle only,
    and its LAPACK calls release the GIL, so each fold gets the bits it
    would get alone in the same triangle. Once both fits are done the
    block is freed, and each fold predicts its held-out means on its
    thread.

    A generator of the two results, in fold order, once both threads have
    ended. An error leaves in fold order too: the first fold's (its fit,
    then its means) before any result, the second's after the first
    fold's result, as if the folds ran one at a time."""
    blocks = _pair_blocks(*(x.shape[0] for x, _, _ in folds))

    def fit_in(fold, k, upper):
        x, y, _ = fold
        reduction = _spectrum(gram_matrix(x, _triangle=(k, upper)), y, upper)
        return _fit_reduced(x, y, options, reduction)

    with _one_blas_thread(), ThreadPoolExecutor(max_workers=1) as pool:
        second = pool.submit(fit_in, folds[1], blocks[1], True)
        first = fit_in(folds[0], blocks[0], False)
        wait([second])
        del blocks  # the predictions need no n x n block
        second_means = pool.submit(lambda: predict_mean(second.result(), folds[1][2]))
        first_means = predict_mean(first, folds[0][2])
    yield first, first_means
    yield second.result(), second_means.result()


def _fit_reduced(x, y, options: GpOptions, reduction) -> GprModel:
    """The search over ``reduction`` (None with a scale free) and the fit."""
    hyper = optimize_hyperparameters(x, y, options=options, _reduction=reduction)
    return fit(x, y, hyper, _reduction=reduction)


def _fit_one(x, y, queries, options: GpOptions, reduction) -> tuple:
    """One fold of :func:`fit_mean` (:func:`_fit_reduced`) with its
    held-out means."""
    model = _fit_reduced(x, y, options, reduction)
    return model, predict_mean(model, queries)


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
    whole-query expression would. A query of exactly one row takes
    ||L^-1 k*||^2 from the model's inverse factor instead
    (:func:`_one_row_sq_norm`), which differs from the solve's in the
    last digits; the first such query makes that factor unless
    :func:`prepare_one_row` has. Its mean keeps the bits.

    Only the query points are checked (:class:`DataError` on a NaN or
    infinity): the model was, when built (:class:`GprModel`), so the
    triangular solve skips scipy's finiteness scan of the n x n factor,
    several times the O(n^2) solve itself on a query of a few rows.
    """
    lower = model._factor_for("predict")
    xq = _query_points(model, x_star)
    mean, var = np.empty(xq.shape[0]), np.empty(xq.shape[0])
    prior_var = model.hyper.output_scale**2
    for rows, k_star in _query_blocks(model, xq):
        mean[rows] = k_star.T @ model.weights
        if xq.shape[0] == 1 and _LEVEL2 is not None:
            sq_norm = _one_row_sq_norm(model._inverse_factor, k_star[:, 0])
        else:
            v = solve_triangular(lower, k_star, lower=True, check_finite=False)
            sq_norm = np.sum(v * v, axis=0)
        var[rows] = np.maximum(prior_var - sq_norm, 0.0)
    return mean, var


def prepare_one_row(model: GprModel) -> None:
    """Make the inverse factor that a one-row :func:`predict` reads now, so
    that no such query pays for it: a stream does at start-up. A no-op
    where the BLAS routines of the one-row path are missing."""
    if _LEVEL2 is not None:
        model._inverse_factor  # a cached property, made once


def _one_row_sq_norm(inverse: np.ndarray, k: np.ndarray) -> float:
    """||M k||^2 = k'(K + noise I)^-1 k for the C-ordered inverse factor M
    (:attr:`GprModel._inverse_factor`) and one column k, as the sum of two
    parts of about equal bytes (:func:`_inverse_rows_sq_norm`): the
    triangle of M's rows [0, h), and its rows [h, n), a rectangle beside a
    triangle, with h about n / sqrt 2. The second part runs on a
    persistent worker thread where the model has at least
    :data:`_ONE_ROW_WORKER_ROWS` rows and the thread gets a core of its
    own (:func:`_spare_core`), else after the first on this thread; the
    BLAS runs one thread for both, so either way they make the same calls
    and give the same bits."""
    n, k = k.shape[0], np.ascontiguousarray(k)
    h = round(n / 2**0.5)
    y = k.copy()  # each part's M[r0:r1] k is made in y[r0:r1]
    # Addresses as ints: each lookup of an array's ``ctypes`` costs microseconds.
    at = (inverse.ctypes.data, k.ctypes.data, y.ctypes.data, n)
    with _one_blas_thread():
        if n >= _ONE_ROW_WORKER_ROWS and _spare_core():
            second = _one_row_worker().submit(_inverse_rows_sq_norm, *at, h, n)
            try:
                return _inverse_rows_sq_norm(*at, 0, h) + second.result()
            finally:
                wait([second])  # it reads the arrays by address, also after an error
        return _inverse_rows_sq_norm(*at, 0, h) + _inverse_rows_sq_norm(*at, h, n)


@cache
def _one_row_worker() -> ThreadPoolExecutor:
    """The one thread that takes the second part of every one-row variance
    (:func:`_one_row_sq_norm`), started on first use and kept for the
    process."""
    return ThreadPoolExecutor(max_workers=1)


def _inverse_rows_sq_norm(m: int, x: int, y: int, n: int, r0: int, r1: int) -> float:
    """||M[r0:r1] x||^2 for the C-ordered, lower triangular n x n M and
    n-vector x, by BLAS through ctypes (:data:`_LEVEL2`), made in
    y[r0:r1], which holds x[r0:r1] on entry: ``trmv`` for the triangle
    M[r0:r1, r0:r1], ``gemv`` adding the rectangle M[r0:r1, :r0] and
    ``ddot``. The arrays are given by the addresses of their first
    entries. BLAS reads M as its Fortran-ordered transpose M', upper
    triangular with a leading dimension of n, so each product is by M'
    transposed."""
    size = r1 - r0
    if size == 0:
        return 0.0
    trmv, gemv, dot = _LEVEL2
    rows, lda, inc = (ctypes.byref(ctypes.c_int(v)) for v in (size, n, 1))
    out = y + 8 * r0
    trmv(b"U", b"T", b"N", rows, m + 8 * (r0 * n + r0), lda, out, inc, 1, 1, 1)
    if r0:
        one = ctypes.byref(ctypes.c_double(1.0))
        gemv(b"T", ctypes.byref(ctypes.c_int(r0)), rows, one, m + 8 * r0 * n, lda,
             x, inc, one, out, inc, 1)
    return dot(rows, out, inc, out, inc)


def predict_mean(model: GprModel, x_star: np.ndarray) -> np.ndarray:
    """Posterior mean only; skips the triangular solve for the variance.
    Query rows go through in blocks, as in :func:`predict`."""
    xq = _query_points(model, x_star)
    mean = np.empty(xq.shape[0])
    for rows, k_star in _query_blocks(model, xq):
        mean[rows] = k_star.T @ model.weights
        del k_star  # before the next block is made
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
