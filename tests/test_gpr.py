"""Exact GP regression, checked against independent dense linear algebra.

The oracle path never touches the library's Cholesky machinery: kernels
are rebuilt with explicit loops, the marginal likelihood is computed from
``np.linalg.inv`` + ``slogdet``, and gradients are confirmed by central
finite differences in log-parameter space.
"""

import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky, eigh, eigh_tridiagonal, solve_triangular
from scipy.linalg.lapack import dpotri
from scipy.optimize import minimize

import myotorque.gpr as gpr
from myotorque.errors import (
    DataError,
    DegenerateSeries,
    DimensionMismatch,
    ModelFormatError,
    NotPositiveDefinite,
)
from myotorque.evaluate import train_model
from myotorque.gpr import (
    GpOptions,
    GprModel,
    Hyperparameters,
    _cross_covariance,
    _factor,
    _spectrum,
    _sq_distances,
    fit,
    fit_mean,
    gram_matrix,
    kernel_rbf,
    lml_gradient,
    load_model,
    log_marginal_likelihood,
    optimize_hyperparameters,
    predict,
    predict_mean,
    save_model,
)
from myotorque.preprocess import (
    Joint,
    ModelConfig,
    build_features,
    compute_calibration,
    concat_tables,
)
from myotorque.synthgen import default_session_spec, generate_session


def kernel_oracle(xa, xb, out_scale, length):
    """Independent elementwise kernel: s^2 exp(-||d||^2 / (2 l^2))."""
    d2 = sum((a - b) ** 2 for a, b in zip(xa, xb))
    return out_scale**2 * math.exp(-d2 / (2.0 * length**2))


def gram_oracle(x, hyper):
    n = len(x)
    k = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            k[i, j] = kernel_oracle(
                x[i], x[j], hyper.output_scale, hyper.length_scale
            )
    return k


def lml_oracle(x, y, hyper):
    """Dense route: explicit inverse and slogdet, no Cholesky."""
    n = len(y)
    k = gram_oracle(x, hyper) + hyper.noise_variance * np.eye(n)
    sign, logdet = np.linalg.slogdet(k)
    assert sign > 0
    return float(
        -0.5 * y @ np.linalg.inv(k) @ y - 0.5 * logdet - 0.5 * n * np.log(2 * np.pi)
    )


def random_problem(seed, n_max=50, d_max=4):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    x = rng.normal(0.0, 1.5, (n, d))
    y = rng.normal(0.0, 1.0, n)
    hyper = Hyperparameters(
        output_scale=float(rng.uniform(0.3, 3.0)),
        length_scale=float(rng.uniform(0.3, 3.0)),
        noise_variance=float(rng.uniform(1e-3, 1.0)),
    )
    return x, y, hyper


class TestKernel:
    @pytest.mark.parametrize("n", [1, 5, 127, 128, 129, 300])
    def test_symmetrize_is_the_mean_with_the_transpose(self, rng, n):
        # Block by block, with the bits of (k + k') / 2 on the whole matrix.
        k = rng.standard_normal((n, n))
        assert np.array_equal(gpr._symmetrize(k.copy()), (k + k.T) * 0.5)

    def test_zero_distance_gives_signal_variance(self):
        h = Hyperparameters(output_scale=1.7)
        v = kernel_rbf(np.array([0.3, -1.0]), np.array([0.3, -1.0]), h)
        assert v == pytest.approx(1.7**2, rel=1e-15)

    def test_unit_scale_closed_form(self):
        # ||d||^2 = 2 at unit scales: k = exp(-1).
        v = kernel_rbf(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert v == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_matches_oracle_on_random_pairs(self, rng):
        h = Hyperparameters(output_scale=0.8, length_scale=2.3)
        for _ in range(50):
            a, b = rng.normal(size=3), rng.normal(size=3)
            assert kernel_rbf(a, b, h) == pytest.approx(
                kernel_oracle(a, b, 0.8, 2.3), rel=1e-12
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kernel_rbf(np.zeros(2), np.zeros(3))

    def test_block_matches_pointwise_kernel_at_non_unit_scales(self, rng):
        # The n x m block is built in place from one GEMM; every entry
        # must equal the two-point kernel.
        hyper = Hyperparameters(output_scale=1.7, length_scale=0.6)
        xa = rng.standard_normal((9, 3))
        xb = rng.standard_normal((13, 3))
        block = _cross_covariance(xa, xb, hyper)
        assert block.shape == (9, 13)
        for i in range(9):
            for j in range(13):
                assert block[i, j] == pytest.approx(
                    kernel_rbf(xa[i], xb[j], hyper), rel=1e-12, abs=1e-300
                )

    def test_empty_block(self):
        hyper = Hyperparameters()
        assert _cross_covariance(np.ones((3, 2)), np.ones((0, 2)), hyper).shape == (3, 0)
        assert _cross_covariance(np.ones((0, 2)), np.ones((3, 2)), hyper).shape == (0, 3)

    def test_gram_symmetric_positive_semidefinite(self, rng):
        x = rng.normal(size=(30, 2))
        k = gram_matrix(x)
        assert np.array_equal(k, k.T)
        eigvals = np.linalg.eigvalsh(k)
        assert eigvals.min() > -1e-10 * eigvals.max()

    @pytest.mark.parametrize("n, d", [(1, 1), (7, 2), (200, 7)])
    def test_gram_bit_identical_to_scale_exp_scale_symmetrize(self, rng, n, d):
        # The one kernel path: squared distances scaled, exponentiated and
        # scaled in place, then symmetrized, in this order.
        hyper = Hyperparameters(output_scale=1.3, length_scale=0.7)
        x = rng.standard_normal((n, d))
        k = _sq_distances(x, x)
        k *= -0.5
        k /= hyper.length_scale**2
        np.exp(k, out=k)
        k *= hyper.output_scale**2
        k += k.T
        k *= 0.5
        assert np.array_equal(gram_matrix(x, hyper), k)

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            Hyperparameters(output_scale=0.0)
        with pytest.raises(ValueError):
            Hyperparameters(length_scale=-1.0)
        with pytest.raises(ValueError):
            Hyperparameters(noise_variance=float("nan"))


class TestLogMarginalLikelihood:
    def test_dense_oracle_twenty_seeds(self):
        for seed in range(20):
            x, y, hyper = random_problem(seed)
            model = fit(x, y, hyper)
            ours = log_marginal_likelihood(model)
            theirs = lml_oracle(x, y, hyper)
            assert ours == pytest.approx(theirs, rel=1e-8, abs=1e-8)

    def test_single_point_closed_form(self):
        # n=1, y=0, unit scales, noise 1: K+s2I = [[2]], so
        # lml = -(log 2 + log 2pi) / 2.
        model = fit(np.array([[0.0]]), np.array([0.0]), Hyperparameters())
        expect = -0.5 * (math.log(2.0) + math.log(2.0 * math.pi))
        assert log_marginal_likelihood(model) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(-1.26551, abs=5e-6)

    def test_single_point_with_signal(self):
        # Adding y=1 contributes -y^2 / (2 * 2) = -1/4.
        model = fit(np.array([[0.0]]), np.array([1.0]), Hyperparameters())
        expect = -0.25 - 0.5 * (math.log(2.0) + math.log(2.0 * math.pi))
        assert log_marginal_likelihood(model) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(-1.51551, abs=5e-6)

    def test_permutation_invariance(self, rng):
        x, y, hyper = random_problem(99)
        perm = rng.permutation(len(y))
        a = log_marginal_likelihood(fit(x, y, hyper))
        b = log_marginal_likelihood(fit(x[perm], y[perm], hyper))
        assert a == pytest.approx(b, rel=1e-10)


class TestGradient:
    @staticmethod
    def fd_gradient(x, y, hyper, step=1e-6):
        theta = hyper.log_array()
        grad = np.empty(3)
        for i in range(3):
            up, dn = theta.copy(), theta.copy()
            up[i] += step
            dn[i] -= step
            f_up = lml_oracle(x, y, Hyperparameters.from_log_array(up))
            f_dn = lml_oracle(x, y, Hyperparameters.from_log_array(dn))
            grad[i] = (f_up - f_dn) / (2.0 * step)
        return grad

    def test_matches_central_differences(self):
        for seed in range(8):
            x, y, hyper = random_problem(seed, n_max=25)
            analytic = lml_gradient(fit(x, y, hyper))
            numeric = self.fd_gradient(x, y, hyper)
            scale = np.maximum(np.abs(numeric), 1e-6)
            assert np.all(np.abs(analytic - numeric) / scale <= 1e-4)

    def test_single_point_noise_gradient(self):
        # n=1, y=0, unit scales: d lml / d log(noise) = -noise / (2 (1+noise))
        # which is -1/4 at noise 1.
        model = fit(np.array([[0.0]]), np.array([0.0]), Hyperparameters())
        grad = lml_gradient(model)
        assert grad[2] == pytest.approx(-0.25, abs=1e-12)


def identity_solve_gradient(model):
    """Reference gradient: K^-1 from cho_solve on an identity and every
    term an elementwise n x n sum."""
    n = model.n_train
    alpha = model.weights
    k_inv = cho_solve((model.cholesky_lower, True), np.eye(n))
    inner = np.outer(alpha, alpha) - k_inv
    hyper = model.hyper
    k_f = gram_matrix(model.inputs, hyper)
    d2 = _sq_distances(model.inputs, model.inputs)
    grads = np.empty(3)
    grads[0] = 0.5 * float(np.sum(inner * (2.0 * k_f)))
    grads[1] = 0.5 * float(np.sum(inner * (k_f * d2 / hyper.length_scale**2)))
    grads[2] = 0.5 * hyper.noise_variance * float(np.trace(inner))
    return grads


def exact_identity_solve_gradient(model):
    """The same formula on the model's stored arrays in exact rational
    arithmetic: K = L L' and its inverse by Gauss-Jordan on fractions."""
    n = model.n_train
    lower = [[Fraction(v) for v in row] for row in model.cholesky_lower.tolist()]
    k = [[sum(lower[i][m] * lower[j][m] for m in range(min(i, j) + 1))
          for j in range(n)] for i in range(n)]
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(k)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    alpha = [Fraction(v) for v in model.weights.tolist()]
    inner = [[alpha[i] * alpha[j] - aug[i][n + j] for j in range(n)] for i in range(n)]
    hyper = model.hyper
    k_f = gram_matrix(model.inputs, hyper).tolist()
    d2 = _sq_distances(model.inputs, model.inputs).tolist()
    ell2 = Fraction(hyper.length_scale) ** 2

    def half_trace(m):
        return float(sum(inner[i][j] * m(i, j) for i in range(n) for j in range(n)) / 2)

    return np.array([
        half_trace(lambda i, j: 2 * Fraction(k_f[i][j])),
        half_trace(lambda i, j: Fraction(k_f[i][j]) * Fraction(d2[i][j]) / ell2),
        float(Fraction(hyper.noise_variance) * sum(inner[i][i] for i in range(n)) / 2),
    ])


class TestGradientFromFactor:
    """``lml_gradient`` takes K^-1 from the stored factor (potri) and its
    data terms as mat-vecs; the reference keeps the identity solve."""

    def test_matches_identity_solve_on_random_models(self):
        for seed in range(30):
            x, y, hyper = random_problem(seed, n_max=60)
            model = fit(x, y, hyper)
            reference = identity_solve_gradient(model)
            assert np.allclose(lml_gradient(model), reference, rtol=1e-9, atol=0)

    def test_single_point(self):
        model = fit(np.array([[0.4, -1.0]]), np.array([0.7]),
                    Hyperparameters(output_scale=1.3, length_scale=0.8,
                                    noise_variance=0.2))
        grads = lml_gradient(model)
        assert np.allclose(grads, identity_solve_gradient(model), rtol=1e-9, atol=0)
        # Closed form: k = s^2 + v, grad_s = s^2 (y^2/k^2 - 1/k),
        # grad_l = 0, grad_v = v (y^2/k^2 - 1/k) / 2.
        k = 1.3**2 + 0.2
        common = 0.7**2 / k**2 - 1.0 / k
        assert grads[0] == pytest.approx(1.3**2 * common, rel=1e-12)
        assert grads[1] == 0.0
        assert grads[2] == pytest.approx(0.5 * 0.2 * common, rel=1e-12)

    def test_model_that_needed_jitter(self):
        # Three coincident points: K + noise I holds a rank-one 3 x 3 block
        # of s^2 plus a noise lost to rounding, so the factor needed jitter
        # and K^-1 has entries near 1 / jitter. A component that sums such
        # entries against dK/dt cancels them: in float64 the identity solve
        # misses the exact value of its own formula by up to 100 % here, so
        # the reference is that formula in exact arithmetic, to 1e-9
        # relative or the rounding bound of the n^2-term sum, whichever is
        # larger, and the new gradient must be no farther from it than the
        # float64 identity solve, up to one rounding.
        x = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [2.0, -1.0]])
        y = np.array([0.4, -1.1, 0.9, 0.3])
        hyper = Hyperparameters(output_scale=1.5, length_scale=0.7,
                                noise_variance=1e-20)
        model = fit(x, y, hyper)
        assert model.jitter > 0
        grads = lml_gradient(model)
        reference = identity_solve_gradient(model)
        exact = exact_identity_solve_gradient(model)
        k_f = gram_matrix(x, hyper)
        derivatives = [2.0 * k_f, k_f * _sq_distances(x, x) / 0.7**2,
                       1e-20 * np.eye(4)]
        largest_inverse = np.abs(cho_solve((model.cholesky_lower, True), np.eye(4))).max()
        for i, dk in enumerate(derivatives):
            bound = 4 * 4**2 * np.finfo(float).eps * largest_inverse * np.abs(dk).max()
            assert grads[i] == pytest.approx(exact[i], rel=1e-9, abs=bound)
            assert abs(grads[i] - exact[i]) <= (
                abs(reference[i] - exact[i]) + 1e-15 * abs(exact[i])
            )


def pre_change_gradient(model):
    """``lml_gradient`` as it was before the search handed over its blocks:
    the distances recomputed, the kernel rebuilt without symmetrizing, and
    K^-1 by potri on a copy of the factor with zeros above the diagonal."""
    alpha, hyper = model.weights, model.hyper
    k_inv, info = dpotri(np.tril(model.cholesky_lower).T, lower=0, overwrite_c=1)
    assert info == 0
    k_inv = k_inv.T
    inv_diag = np.diagonal(k_inv)

    def half_trace_term(m):
        trace = 2.0 * float(np.vdot(k_inv, m)) - float(inv_diag @ np.diagonal(m))
        return 0.5 * (float(alpha @ (m @ alpha)) - trace)

    d2 = _sq_distances(model.inputs, model.inputs)
    k_f = d2 * -0.5
    k_f /= hyper.length_scale**2
    np.exp(k_f, out=k_f)
    k_f *= hyper.output_scale**2
    grads = np.empty(3)
    grads[0] = 2.0 * half_trace_term(k_f)
    d2 *= k_f
    d2 /= hyper.length_scale**2
    grads[1] = half_trace_term(d2)
    grads[2] = 0.5 * hyper.noise_variance * (float(alpha @ alpha) - float(np.sum(inv_diag)))
    return grads


def record_search(monkeypatch, x, y, initial, opts):
    """Run the search and return (theta_free, value, gradient) of every
    objective evaluation L-BFGS-B made."""
    seen = []

    def recording_minimize(fun, x0, **kwargs):
        def wrapped(theta_free):
            value, grad = fun(theta_free)
            seen.append((theta_free.copy(), value, grad.copy()))
            return value, grad
        return minimize(wrapped, x0, **kwargs)

    monkeypatch.setattr(gpr, "minimize", recording_minimize)
    optimize_hyperparameters(x, y, initial=initial, options=opts)
    return seen


class TestSearchEvaluation:
    """One free-scale evaluation computes the kernel once and hands it, with
    the search's distance block, to one ``lml_gradient`` call."""

    @pytest.mark.parametrize("free", [(True, True), (False, True), (True, False)])
    def test_one_gradient_per_evaluation(self, rng, monkeypatch, free):
        x = rng.uniform(-2.0, 2.0, (30, 3))
        y = np.cos(x[:, 0]) + 0.1 * rng.standard_normal(30)
        calls = []

        def counting_gradient(model, **kwargs):
            calls.append(kwargs)
            return lml_gradient(model, **kwargs)

        monkeypatch.setattr(gpr, "lml_gradient", counting_gradient)
        monkeypatch.setattr(gpr, "RESTARTS", 2)
        opts = GpOptions(seed=1, optimize_output_scale=free[0],
                         optimize_length_scale=free[1])
        seen = record_search(monkeypatch, x, y, Hyperparameters(), opts)
        assert len(seen) > 5
        assert len(calls) == len(seen)
        assert all(set(kw) == {"blocks"} for kw in calls)

    def test_entries_above_the_factor_diagonal_are_ignored(self, rng):
        for seed in range(10):
            x, y, hyper = random_problem(seed, n_max=40)
            clean = fit(x, y, hyper)
            n = clean.n_train
            junk = clean.cholesky_lower + np.triu(rng.uniform(-5.0, 5.0, (n, n)), 1)
            dirty = dataclasses.replace(clean, cholesky_lower=junk)
            assert np.array_equal(lml_gradient(dirty), lml_gradient(clean))

    def test_matches_pre_change_formula(self):
        models = [fit(*random_problem(seed, n_max=80)) for seed in range(40)]
        # Three coincident points and a noise lost to rounding: the factor
        # needed jitter.
        x = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [2.0, -1.0]])
        jittered = fit(x, np.array([0.4, -1.1, 0.9, 0.3]),
                       Hyperparameters(output_scale=1.5, length_scale=0.7,
                                       noise_variance=1e-20))
        assert jittered.jitter > 0
        for model in models + [jittered]:
            assert np.allclose(lml_gradient(model), pre_change_gradient(model),
                               rtol=1e-9, atol=0)

    def test_asymmetric_distance_block(self, rng, monkeypatch):
        # The GEMM behind the distances need not return a symmetric block
        # (it does not at some shapes); then each evaluation symmetrizes its
        # kernel block, as gram_matrix does, and still equals a fresh fit.
        def nudged(xa, xb):
            d2 = _sq_distances(xa, xb)
            if xa is xb:
                d2[3, 1] = np.nextafter(d2[3, 1], np.inf)
            return d2

        monkeypatch.setattr(gpr, "_sq_distances", nudged)
        x = rng.uniform(-2.0, 2.0, (25, 2))
        y = np.sin(x[:, 0]) + 0.1 * rng.standard_normal(25)
        assert not np.array_equal(nudged(x, x), nudged(x, x).T)
        initial = Hyperparameters(output_scale=1.2, length_scale=0.9, noise_variance=0.3)
        monkeypatch.setattr(gpr, "RESTARTS", 2)
        opts = GpOptions(seed=2, optimize_output_scale=True,
                         optimize_length_scale=True)
        seen = record_search(monkeypatch, x, y, initial, opts)
        assert len(seen) > 5
        for theta_free, value, grad in seen:
            model = fit(x, y, Hyperparameters.from_log_array(theta_free))
            assert -value == model.log_marginal
            assert np.array_equal(-grad, lml_gradient(model))


class TestFit:
    def test_factor_has_scipy_cholesky_bits(self):
        # The factor comes from LAPACK potrf directly; it must keep the bits
        # scipy's cholesky gave it, jitter included, so saved models and
        # every exported figure stay byte-identical.
        problems = [random_problem(seed, n_max=80) for seed in range(20)]
        x = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [2.0, -1.0]])
        problems.append((x, np.array([0.4, -1.1, 0.9, 0.3]),
                         Hyperparameters(1.5, 0.7, 1e-20)))
        for x, y, hyper in problems:
            model = fit(x, y, hyper)
            k = gram_matrix(x, hyper) + hyper.noise_variance * np.eye(len(y))
            if model.jitter:
                k = k + model.jitter * np.eye(len(y))
            reference = cholesky(k, lower=True)
            assert np.array_equal(model.cholesky_lower, reference)
            assert np.array_equal(model.weights, cho_solve((reference, True), y))

    def test_single_point_weight(self):
        # alpha = (K + noise I)^-1 y = 2 / (1 + 1) = 1.
        model = fit(np.array([[0.0]]), np.array([2.0]), Hyperparameters())
        assert model.weights[0] == pytest.approx(1.0, abs=1e-15)

    def test_two_point_hand_solve(self):
        # K+s2I = [[1.5, e^-0.5], [e^-0.5, 1.5]]; invert a 2x2 by hand.
        x = np.array([[0.0], [1.0]])
        y = np.array([1.0, 2.0])
        h = Hyperparameters(noise_variance=0.5)
        off = math.exp(-0.5)
        det = 1.5 * 1.5 - off * off
        alpha = np.array(
            [(1.5 * 1.0 - off * 2.0) / det, (1.5 * 2.0 - off * 1.0) / det]
        )
        model = fit(x, y, h)
        assert np.allclose(model.weights, alpha, rtol=1e-12)

    def test_one_dimensional_inputs_accepted(self):
        model = fit(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]),
                    Hyperparameters())
        assert model.inputs.shape == (3, 1)

    def test_shape_errors(self):
        with pytest.raises(DimensionMismatch):
            fit(np.zeros((3, 2)), np.zeros(4), Hyperparameters())
        with pytest.raises(DegenerateSeries):
            fit(np.zeros((0, 2)), np.zeros(0), Hyperparameters())

    @pytest.mark.parametrize("where, bad", [
        ("inputs", np.nan), ("inputs", np.inf), ("targets", np.nan),
        ("targets", -np.inf),
    ])
    def test_non_finite_training_data_is_data_error(self, where, bad):
        x, y, hyper = random_problem(3)
        x, y = x.copy(), y.copy()
        if where == "inputs":
            x[2, 0] = bad
        else:
            y[2] = bad
        with pytest.raises(DataError, match="must be finite"):
            fit(x, y, hyper)

    def test_duplicate_rows_still_fit(self):
        x = np.array([[0.0], [0.0], [1.0]])
        y = np.array([1.0, 1.0, 2.0])
        model = fit(x, y, Hyperparameters(noise_variance=1e-15))
        assert np.isfinite(log_marginal_likelihood(model))
        assert np.allclose(predict_mean(model, x), y, atol=1e-5)

    def test_jitter_ladder_rescues_singular_matrix(self):
        # The all-ones matrix is PSD but rank one; plain Cholesky fails and
        # the escalating diagonal jitter must step in. Above its diagonal
        # the factor keeps the matrix's entries.
        lower, jitter = _factor(np.ones((4, 4)))
        assert jitter > 0
        lower = np.tril(lower)
        rebuilt = lower @ lower.T
        assert np.allclose(rebuilt, np.ones((4, 4)) + jitter * np.eye(4))

    def test_factor_gives_up_beyond_jitter_ceiling(self):
        with pytest.raises(NotPositiveDefinite):
            _factor(np.array([[-1.0, 0.0], [0.0, -1.0]]))

    @pytest.mark.parametrize("value", [0.0, np.nan, np.inf])
    def test_factor_refuses_a_diagonal_the_jitter_cannot_scale(self, value):
        # The jitter ladder grows from the mean diagonal; on a zero or
        # non-finite one it would never reach its ceiling.
        with pytest.raises(NotPositiveDefinite):
            _factor(np.full((3, 3), value))

    def test_fit_on_finite_but_huge_inputs_raises(self):
        # Squared norms overflow, the distances hold inf - inf = NaN, and so
        # does the gram matrix's diagonal.
        with np.errstate(over="ignore"):
            with pytest.raises(NotPositiveDefinite):
                fit(np.array([[1e160], [0.0]]), np.array([1.0, 2.0]),
                    Hyperparameters())

    def test_noise_search_on_finite_but_huge_inputs_raises(self):
        # The same NaN gram matrix as above: the noise-only search refuses
        # it as fit does, before the tridiagonal routines see it.
        with np.errstate(over="ignore"):
            with pytest.raises(NotPositiveDefinite):
                optimize_hyperparameters(
                    np.array([[1e160], [0.0]]), np.array([1.0, 2.0])
                )


class TestPredict:
    def test_noise_free_interpolation(self, rng):
        x = rng.uniform(-2.0, 2.0, (25, 2))
        y = np.sin(x[:, 0]) + 0.5 * np.cos(2.0 * x[:, 1])
        model = fit(x, y, Hyperparameters(noise_variance=1e-12))
        mean, var = predict(model, x)
        assert np.max(np.abs(mean - y)) < 1e-6
        assert np.all(var >= 0.0)
        assert np.max(var) < 1e-6

    def test_variance_bounded_by_prior(self, rng):
        x, y, hyper = random_problem(11)
        model = fit(x, y, hyper)
        x_star = rng.normal(0.0, 3.0, (200, x.shape[1]))
        _, var = predict(model, x_star)
        assert np.all(var >= 0.0)
        assert np.all(var <= hyper.output_scale**2 + 1e-9)

    def test_far_points_revert_to_prior(self):
        x = np.zeros((5, 1))
        x[:, 0] = np.arange(5)
        y = np.array([1.0, -1.0, 2.0, 0.5, 1.5])
        h = Hyperparameters(output_scale=1.3, noise_variance=0.1)
        model = fit(x, y, h)
        mean, var = predict(model, np.array([[1e4]]))
        assert abs(mean[0]) < 1e-12
        assert var[0] == pytest.approx(1.3**2, rel=1e-10)

    def test_posterior_mean_matches_dense_oracle(self, rng):
        x, y, hyper = random_problem(21, n_max=30)
        model = fit(x, y, hyper)
        x_star = rng.normal(size=(7, x.shape[1]))
        k = gram_oracle(x, hyper) + hyper.noise_variance * np.eye(len(y))
        k_star = np.array(
            [
                [
                    kernel_oracle(xs, xi, hyper.output_scale, hyper.length_scale)
                    for xi in x
                ]
                for xs in x_star
            ]
        )
        expect_mean = k_star @ np.linalg.inv(k) @ y
        expect_var = hyper.output_scale**2 - np.einsum(
            "ij,jk,ik->i", k_star, np.linalg.inv(k), k_star
        )
        mean, var = predict(model, x_star)
        assert np.allclose(mean, expect_mean, rtol=1e-8, atol=1e-10)
        assert np.allclose(var, expect_var, rtol=1e-6, atol=1e-10)

    def test_dimension_mismatch(self):
        model = fit(np.zeros((3, 2)), np.zeros(3), Hyperparameters())
        with pytest.raises(DimensionMismatch):
            predict(model, np.zeros((4, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", [predict, predict_mean])
    def test_non_finite_query_is_data_error(self, rng, call, bad):
        x, y, hyper = random_problem(5)
        model = fit(x, y, hyper)
        x_star = rng.normal(size=(4, x.shape[1]))
        x_star[1, 0] = bad
        with pytest.raises(DataError, match="query points must be finite"):
            call(model, x_star)

    def test_predict_mean_agrees_with_predict(self, rng):
        x, y, hyper = random_problem(5)
        model = fit(x, y, hyper)
        x_star = rng.normal(size=(11, x.shape[1]))
        mean, _ = predict(model, x_star)
        assert np.array_equal(predict_mean(model, x_star), mean)


def whole_query_prediction(model, x_star):
    """predict and predict_mean as one expression over the whole query:
    one n x m cross-covariance and one triangular solve."""
    k_star = _cross_covariance(model.inputs, np.asarray(x_star, dtype=np.float64), model.hyper)
    mean = k_star.T @ model.weights
    v = solve_triangular(model.cholesky_lower, k_star, lower=True, check_finite=False)
    var = np.maximum(model.hyper.output_scale**2 - np.sum(v * v, axis=0), 0.0)
    return mean, var


class TestBlockedPrediction:
    """Queries go through in blocks of ``_QUERY_BLOCK`` rows. A query of one
    block, such as a stream tick's single row, computes the whole-query
    expression and gets its bits; a longer one may differ from it in the
    last digits, as the distance GEMM and the matrix-vector product round
    a partial block differently."""

    B = gpr._QUERY_BLOCK

    @pytest.mark.parametrize("m", [0, 1, B - 1, B, B + 1, 2 * B + 3])
    def test_matches_whole_query_expression(self, rng, m):
        x, y, hyper = random_problem(31, n_max=80)
        model = fit(x, y, hyper)
        x_star = rng.normal(0.0, 1.5, (m, x.shape[1]))
        ref_mean, ref_var = whole_query_prediction(model, x_star)
        mean, var = predict(model, x_star)
        only_mean = predict_mean(model, x_star)
        assert mean.shape == var.shape == only_mean.shape == (m,)
        assert np.array_equal(only_mean, mean)
        if m <= self.B:
            assert np.array_equal(mean, ref_mean)
            assert np.array_equal(var, ref_var)
        else:
            assert np.allclose(mean, ref_mean, rtol=1e-12, atol=1e-12)
            assert np.allclose(var, ref_var, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("layout", ["fortran", "c", "strided"])
    @pytest.mark.parametrize("n", [1, 2, 65, 300])
    def test_one_row_solve_has_solve_triangular_bits(self, rng, layout, n):
        # A one-row block solves with BLAS trsv instead of LAPACK trtrs;
        # scipy picks the orientation of the factor by its layout, and so
        # must the one-row path, on a factor built by hand as well.
        x = rng.normal(0.0, 1.5, (n, 3))
        lower = fit(x, rng.normal(size=n), Hyperparameters(noise_variance=0.01)).cholesky_lower
        if layout == "c":
            lower = np.ascontiguousarray(lower)
        elif layout == "strided":
            lower = np.asfortranarray(np.repeat(lower, 2, axis=1))[:, ::2]
        for _ in range(5):
            b = rng.normal(0.0, 3.0, n)
            ref = solve_triangular(lower, b[:, None], lower=True, check_finite=False)
            assert np.array_equal(gpr._lower_solve_vector(lower, b), ref[:, 0])


def traced_peak_bytes(call):
    """The peak of numpy and Python allocations while ``call`` runs, above
    what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestMemory:
    """Bounded temporaries at 1,500 training rows, seen by ``tracemalloc``
    (numpy reports its allocations to it). One n x n block is 18 MB: the
    search may hold the gram matrix it reduces, but not a second block
    such as an eigenvector matrix (54 MB with one). One n x m block for
    6,000 query rows is 72 MB; prediction holds n x ``_QUERY_BLOCK``
    blocks (216 MB for ``predict`` with whole-query blocks)."""

    N, M = 1500, 6000

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((self.N, 3))
        y = np.sin(x[:, 0]) + 0.1 * rng.standard_normal(self.N)
        return x, y, rng.standard_normal((self.M, 3))

    def test_noise_search_holds_one_gram_block(self, problem):
        x, y, _ = problem
        peak = traced_peak_bytes(lambda: optimize_hyperparameters(x, y))
        assert peak < 1.5 * self.N**2 * 8

    def test_mean_only_fold_holds_one_gram_block(self, problem):
        # A CV fold's search, mean-only fit and prediction together: the
        # reflectors are applied where the search left them, so no second
        # block (a copy of the reflectors, a gram matrix or a factor).
        x, y, x_star = problem

        def fold():
            predict_mean(fit_mean(x, y), x_star)

        assert traced_peak_bytes(fold) < 1.5 * self.N**2 * 8

    def test_free_heap_is_released_before_each_training_block(self, problem, monkeypatch):
        # Each n x n block (18 MB here) is allocated after the C heap's free
        # pages go back to the OS; a query block (n x 128, 1.5 MB) is not.
        x, y, x_star = problem
        model = fit(x, y, Hyperparameters(noise_variance=0.01))
        releases = []
        monkeypatch.setattr(gpr, "_release_free_heap", lambda: releases.append(1))
        gram_matrix(x)
        assert len(releases) == 1
        predict(model, x_star)
        predict_mean(model, x_star)
        assert len(releases) == 1
        fit(x, y, Hyperparameters(noise_variance=0.01))
        assert len(releases) == 2

    def test_releasing_the_free_heap_is_safe_to_call(self):
        gpr._release_free_heap()
        gpr._release_free_heap()

    @pytest.mark.parametrize("call", [predict, predict_mean])
    def test_prediction_holds_a_fraction_of_the_cross_covariance(self, problem, call):
        x, y, x_star = problem
        model = fit(x, y, Hyperparameters(noise_variance=0.01))
        peak = traced_peak_bytes(lambda: call(model, x_star))
        assert peak < self.N * self.M * 8 / 4


class TestOptimize:
    def test_noise_variance_recovered_within_factor_two(self, rng):
        x = rng.uniform(-3.0, 3.0, (120, 1))
        true_noise = 0.05
        y = np.sin(1.5 * x[:, 0]) + math.sqrt(true_noise) * rng.standard_normal(120)
        hyper = optimize_hyperparameters(x, y, options=GpOptions(seed=0))
        assert true_noise / 2 <= hyper.noise_variance <= true_noise * 2

    def test_pure_noise_drives_variance_up(self, rng):
        x = rng.uniform(-1.0, 1.0, (150, 2))
        y = rng.standard_normal(150)
        hyper = optimize_hyperparameters(x, y, options=GpOptions(seed=1))
        assert hyper.noise_variance >= 0.5 * float(np.var(y))

    def test_never_decreases_marginal_likelihood(self, rng):
        x = rng.uniform(-2.0, 2.0, (60, 1))
        y = np.cos(2.0 * x[:, 0]) + 0.2 * rng.standard_normal(60)
        initial = Hyperparameters(noise_variance=0.7)
        before = log_marginal_likelihood(fit(x, y, initial))
        hyper = optimize_hyperparameters(
            x, y, initial=initial, options=GpOptions(seed=2)
        )
        after = log_marginal_likelihood(fit(x, y, hyper))
        assert after >= before - 1e-9

    @pytest.mark.parametrize("where", ["inputs", "targets"])
    def test_non_finite_training_data_is_data_error(self, where):
        x, y, _ = random_problem(6)
        x, y = x.copy(), y.copy()
        if where == "inputs":
            x[1, 0] = np.nan
        else:
            y[1] = np.nan
        with pytest.raises(DataError, match="must be finite"):
            optimize_hyperparameters(x, y)

    def test_noise_only_mode_keeps_scales_fixed(self, rng):
        x = rng.uniform(-2.0, 2.0, (40, 1))
        y = np.sin(x[:, 0])
        hyper = optimize_hyperparameters(x, y, options=GpOptions(seed=0))
        assert hyper.output_scale == 1.0
        assert hyper.length_scale == 1.0

    def test_full_mode_can_move_scales(self, rng):
        x = rng.uniform(-2.0, 2.0, (50, 1))
        y = 3.0 * np.sin(0.5 * x[:, 0]) + 0.1 * rng.standard_normal(50)
        opts = GpOptions(seed=0, optimize_output_scale=True,
                         optimize_length_scale=True)
        hyper = optimize_hyperparameters(x, y, options=opts)
        assert hyper.output_scale != 1.0
        assert hyper.length_scale != 1.0

    @pytest.mark.parametrize("free", [(True, True), (False, True), (True, False)])
    def test_free_scale_objective_is_fit_log_marginal(self, rng, monkeypatch, free):
        # Every evaluation of the search builds K from squared distances
        # computed once; it must equal a fresh fit bit for bit, and its
        # gradient the gradient of that fit.
        x = rng.uniform(-2.0, 2.0, (40, 2))
        y = np.sin(x[:, 0]) * x[:, 1] + 0.1 * rng.standard_normal(40)
        initial = Hyperparameters(output_scale=1.2, length_scale=0.9,
                                  noise_variance=0.3)
        mask = np.array([*free, True])
        seen = []

        def recording_minimize(fun, x0, **kwargs):
            def wrapped(theta_free):
                value, grad = fun(theta_free)
                seen.append((theta_free.copy(), value, grad.copy()))
                return value, grad
            return minimize(wrapped, x0, **kwargs)

        monkeypatch.setattr(gpr, "minimize", recording_minimize)
        monkeypatch.setattr(gpr, "RESTARTS", 2)
        opts = GpOptions(seed=3, optimize_output_scale=free[0],
                         optimize_length_scale=free[1])
        optimize_hyperparameters(x, y, initial=initial, options=opts)
        assert len(seen) > 10
        for theta_free, value, grad in seen:
            theta = initial.log_array()
            theta[mask] = theta_free
            model = fit(x, y, Hyperparameters.from_log_array(theta))
            assert -value == model.log_marginal
            assert np.array_equal(-grad, lml_gradient(model)[mask])

    def test_noise_matches_dense_eigendecomposition_reference(self, rng):
        # The same multi-start L-BFGS-B over the eigenvector route: the
        # dense eigendecomposition T = V diag(lam) V' of the tridiagonal T,
        # y_hat = V'z, and sums over the clamped eigenvalues.
        x = rng.standard_normal((300, 4))
        y = np.sin(x[:, 0]) * np.cos(x[:, 1]) + 0.1 * rng.standard_normal(300)
        opts = GpOptions(seed=0)
        tuned = optimize_hyperparameters(x, y, options=opts)

        _, d, e, z = _spectrum(gram_matrix(x), y)[:4]
        lam, vecs = eigh_tridiagonal(d[:-1], e[:-1])
        y_hat = vecs.T @ z[:-1]

        def negative(theta):
            lml, g = spectral_objective(lam, y_hat, float(theta[0]))
            return -lml, np.array([-g])

        draws = np.random.default_rng(opts.seed)
        starts = [np.zeros(1)] + [
            draws.uniform(*gpr.INIT_LOG_BOUNDS, size=1)
            for _ in range(gpr.RESTARTS - 1)
        ]
        best = min(
            (minimize(negative, s, jac=True, method="L-BFGS-B",
                      bounds=[(-16.0, 8.0)],
                      options={"maxiter": gpr.MAX_ITERATIONS,
                               "gtol": gpr.GRADIENT_TOLERANCE})
             for s in starts),
            key=lambda r: r.fun,
        )
        reference = math.exp(float(best.x[0]))
        assert tuned.noise_variance == pytest.approx(reference, rel=1e-6)

    def test_failed_tridiagonal_solve_returns_the_sentinel(self, monkeypatch):
        # K = [[1, 2], [2, 1]] has the eigenvalue -1, so T + v I is not
        # positive definite for v <= 1 and LAPACK ptsv reports it.
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        y = np.array([0.5, -0.3])
        with pytest.raises(NotPositiveDefinite, match="tridiagonal solve"):
            _spectrum(indefinite.copy(), y).lml_and_grad(math.log(0.5))

        monkeypatch.setattr(gpr, "gram_matrix", lambda x, hyper=None: indefinite.copy())
        monkeypatch.setattr(gpr, "RESTARTS", 3)
        seen = record_search(monkeypatch, np.zeros((2, 1)), y,
                             Hyperparameters(noise_variance=2.0),
                             GpOptions(seed=0))
        failed = [(value, grad) for theta, value, grad in seen if theta[0] < -1e-9]
        solved = [value for theta, value, _ in seen if theta[0] > 1e-9]
        assert failed and solved
        assert all(value == 1e25 and grad.tolist() == [0.0] for value, grad in failed)
        assert all(np.isfinite(value) and value < 1e25 for value in solved)

    def test_search_with_no_factorable_point_raises(self, monkeypatch):
        # Every noise the box allows leaves 1e9 [[1, 2], [2, 1]] + v I
        # indefinite, so every evaluation fails and no start has a usable
        # optimum, though each ends on the finite sentinel.
        indefinite = 1e9 * np.array([[1.0, 2.0], [2.0, 1.0]])
        monkeypatch.setattr(gpr, "gram_matrix", lambda x, hyper=None: indefinite.copy())
        with pytest.raises(NotPositiveDefinite, match="no usable optimum"):
            optimize_hyperparameters(np.zeros((2, 1)), np.array([0.5, -0.3]))

    def test_free_scale_search_with_no_factorable_point_raises(self, rng, monkeypatch):
        def failing(k):
            raise NotPositiveDefinite("forced")

        monkeypatch.setattr(gpr, "_factor", failing)
        x = rng.uniform(-2.0, 2.0, (20, 2))
        opts = GpOptions(optimize_output_scale=True, optimize_length_scale=True)
        with pytest.raises(NotPositiveDefinite, match="no usable optimum"):
            optimize_hyperparameters(x, np.sin(x[:, 0]), options=opts)

    def test_eigendecomposition_path_matches_generic_objective(self, rng):
        # Noise-only tuning goes through a one-time tridiagonal reduction; its
        # stationary point must agree with a brute-force scan of the exact
        # marginal likelihood over log noise.
        x = rng.uniform(-2.0, 2.0, (35, 1))
        y = np.sin(x[:, 0]) + 0.3 * rng.standard_normal(35)
        hyper = optimize_hyperparameters(x, y, options=GpOptions(seed=0))
        best = log_marginal_likelihood(fit(x, y, hyper))
        for log_nv in np.linspace(-8.0, 2.0, 120):
            other = Hyperparameters(noise_variance=math.exp(log_nv))
            assert best >= log_marginal_likelihood(fit(x, y, other)) - 1e-6


FREE = GpOptions(seed=0, optimize_output_scale=True, optimize_length_scale=True)


def plain_starts(x, y, initial, opts):
    """The search's starts, each run to the end by plain scipy L-BFGS-B on
    ``fit`` and ``lml_gradient``: a list of (start, result)."""
    mask = opts.free_mask()
    theta0 = initial.log_array()

    def negative(theta_free):
        theta = theta0.copy()
        theta[mask] = theta_free
        try:
            model = fit(x, y, Hyperparameters.from_log_array(theta))
        except NotPositiveDefinite:
            return 1e25, np.zeros(len(theta_free))
        return -model.log_marginal, -lml_gradient(model)[mask]

    draws = np.random.default_rng(opts.seed)
    starts = [theta0[mask]] + [
        draws.uniform(*gpr.INIT_LOG_BOUNDS, size=int(mask.sum()))
        for _ in range(gpr.RESTARTS - 1)
    ]
    return [
        (start, minimize(negative, start, jac=True, method="L-BFGS-B",
                         bounds=[gpr.LOG_BOUNDS] * len(start),
                         options={"maxiter": gpr.MAX_ITERATIONS,
                                  "gtol": gpr.GRADIENT_TOLERANCE}))
        for start in starts
    ]


def record_runs(monkeypatch):
    """Wrap the search's L-BFGS-B: returns a list that gets, per start it
    runs, (start, evaluated points, whether it ran to the end)."""
    runs = []

    def recording_minimize(fun, x0, **kwargs):
        points = []
        runs.append((np.array(x0), points, False))

        def wrapped(theta_free):
            out = fun(theta_free)  # a stopped start raises before evaluating
            points.append(theta_free.copy())
            return out

        result = minimize(wrapped, x0, **kwargs)
        runs[-1] = (runs[-1][0], points, True)
        return result

    monkeypatch.setattr(gpr, "minimize", recording_minimize)
    return runs


def sine_problem(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, (30, 1))
    return x, np.sin(2.0 * x[:, 0]) + 0.1 * rng.standard_normal(30)


def multimodal_problem(seed):
    """A sine of random frequency, amplitude and noise at 20-80 points, and
    a random initial length scale: the first start alone often ends in a
    worse optimum than the best of five."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 81))
    x = rng.uniform(-3.0, 3.0, (n, 1))
    y = (rng.uniform(0.2, 3.0) * np.sin(rng.uniform(0.5, 6.0) * x[:, 0])
         + rng.uniform(0.01, 0.5) * rng.standard_normal(n))
    initial = Hyperparameters(length_scale=float(np.exp(rng.uniform(-2.0, 3.5))))
    return x, y, initial


def knee_fmg_problem(session_seed, cap):
    """The normalized training rows of a knee fmg model on a whole session."""
    session = generate_session(default_session_spec(Joint.KNEE, seed=session_seed))
    calib = compute_calibration(session.standing, session.initial_angle)
    table = concat_tables([
        build_features(take.recording, Joint.KNEE, ModelConfig.FMG, calib)
        for take in session.takes
    ])
    model = train_model(table, train_cap=cap).model
    return model.inputs, model.targets


def at_corner(theta):
    lo, hi = gpr.LOG_BOUNDS
    return np.count_nonzero((theta <= lo + 1e-3) | (theta >= hi - 1e-3)) >= 2


class TestPrunedSearch:
    """With a free scale, a later start stops once it enters the basin of
    an optimum already found, or once its last few evaluations all trailed
    the best; the search still returns the best optimum of the five."""

    def test_shared_optimum_costs_fewer_evaluations(self, monkeypatch):
        x, y = sine_problem(0)
        initial = Hyperparameters(length_scale=20.0)
        plain = plain_starts(x, y, initial, FREE)
        best = min(result.fun for _, result in plain)
        assert all(result.fun == pytest.approx(best, rel=1e-9) for _, result in plain)

        runs = record_runs(monkeypatch)
        hyper = optimize_hyperparameters(x, y, initial=initial, options=FREE)
        evaluations = sum(len(points) for _, points, _ in runs)
        assert evaluations < 0.8 * sum(result.nfev for _, result in plain)
        assert not all(done for _, _, done in runs[1:])
        winner = min((result for _, result in plain), key=lambda r: r.fun)
        assert np.allclose(hyper.log_array(), winner.x, rtol=0, atol=1e-4)

    def test_better_basin_found_by_a_later_start_is_returned(self, monkeypatch):
        # Started at a length scale of 20, the first start ends in the
        # basin where most of the sine counts as noise; the one random
        # start finds the sine, 41 log units of LML higher.
        monkeypatch.setattr(gpr, "RESTARTS", 2)
        x, y = sine_problem(4)
        initial = Hyperparameters(length_scale=20.0)
        (_, first), (_, second) = plain_starts(x, y, initial, FREE)
        assert -first.fun < -second.fun - 40.0
        assert np.linalg.norm(first.x - second.x) > 2 * gpr.BASIN_RADIUS

        hyper = optimize_hyperparameters(x, y, initial=initial, options=FREE)
        assert np.allclose(hyper.log_array(), second.x, rtol=0, atol=1e-4)

    def test_start_stalled_at_a_corner_is_abandoned(self, monkeypatch):
        # Knee fmg at 299 rows: run to the end, the fourth start sits at
        # the (8, 8, -16) corner for its last iterations with an LML 70 %
        # below the others'; the trailing stop ends it there.
        x, y = knee_fmg_problem(session_seed=1, cap=300)
        plain = plain_starts(x, y, Hyperparameters(), FREE)
        best = min(result.fun for _, result in plain)
        stalled = [(start, result) for start, result in plain
                   if at_corner(result.x) and result.fun > best + 0.1 * abs(best)]
        assert stalled

        runs = record_runs(monkeypatch)
        hyper = optimize_hyperparameters(x, y, options=FREE)
        for start, result in stalled:
            [(points, done)] = [(p, d) for s, p, d in runs if np.array_equal(s, start)]
            assert not done
            assert at_corner(points[-1])
            assert len(points) < result.nfev
        assert -fit(x, y, hyper).log_marginal == pytest.approx(best, rel=1e-6)

    def test_line_search_stalled_far_behind_stops_within_the_trail(self, monkeypatch):
        # Beyond a radius of 3 the LML is a plateau 1,000 log units below
        # the best whose gradient points outward, as at the (8, 8, -16)
        # corner of a knee fmg search: a start there finds no rise along
        # it, and its one line search backtracks until it fails.
        def objective(theta):
            radius = np.linalg.norm(theta)
            if radius > 3.0:
                return -1000.0, theta / radius
            return -float(theta @ theta), -2.0 * theta

        first, seed = np.full(3, 0.5), 0
        draws = np.random.default_rng(seed)
        later = [draws.uniform(*gpr.INIT_LOG_BOUNDS, size=3)
                 for _ in range(gpr.RESTARTS - 1)]
        on_plateau = [start for start in later if np.linalg.norm(start) > 3.0]
        assert on_plateau
        bounds = [gpr.LOG_BOUNDS] * 3
        for start in on_plateau:
            plain = minimize(lambda t: tuple(-np.asarray(v) for v in objective(t)),
                             start, jac=True, method="L-BFGS-B", bounds=bounds)
            assert plain.nit == 0 and plain.nfev > 2 * gpr.TRAIL_EVALUATIONS

        runs = record_runs(monkeypatch)
        theta = gpr._multi_start(objective, first, seed, prune=True)
        assert np.allclose(theta, 0.0, atol=1e-4)
        for start in on_plateau:
            [(points, done)] = [(p, d) for s, p, d in runs if np.array_equal(s, start)]
            assert not done
            assert len(points) == gpr.TRAIL_EVALUATIONS

    def test_line_search_stalled_at_the_knee_corner_stops_within_the_trail(
        self, monkeypatch
    ):
        # Knee fmg at 299 rows of session 39: run to the end, the fourth
        # start's first step lands at the corner and its one line search
        # fails there, about 30 evaluations for one iteration. Whether it
        # fails hangs on the last bits of the factorizations near the
        # corner, which the BLAS can change.
        x, y = knee_fmg_problem(session_seed=39, cap=300)
        plain = plain_starts(x, y, Hyperparameters(), FREE)
        best = min(result.fun for _, result in plain)
        margin = max(gpr.TRAIL_MARGIN * abs(best), gpr.TRAIL_FLOOR)
        stalled = [(start, result) for start, result in plain
                   if at_corner(result.x) and result.nit <= 1
                   and result.nfev > 2 * gpr.TRAIL_EVALUATIONS
                   and result.fun > best + margin]
        if not stalled:
            pytest.skip("no start's line search stalls at the corner with this BLAS")

        runs = record_runs(monkeypatch)
        hyper = optimize_hyperparameters(x, y, options=FREE)
        for start, _ in stalled:
            [(points, done)] = [(p, d) for s, p, d in runs if np.array_equal(s, start)]
            assert not done
            assert len(points) <= gpr.TRAIL_EVALUATIONS
        assert -fit(x, y, hyper).log_marginal == pytest.approx(best, rel=1e-6)

    @pytest.mark.parametrize("seed", [
        *range(30),
        # Multimodal problems on which a trailing margin proportional to
        # the best LML's size, which vanishes as that LML nears 0, stopped
        # the later start that goes on to the better optimum.
        30163, 30319, 30323, 30361, 30408, 30518, 30577,
        40018, 40090, 40252, 40358, 40378,
        pytest.param(37, marks=pytest.mark.xfail(
            reason="the better optimum lies 0.89 from a worse one a completed "
                   "start reached, inside BASIN_RADIUS", strict=False)),
    ])
    def test_never_worse_than_five_full_starts(self, seed):
        if seed < 3:
            x, y = sine_problem(seed + 2)
            initial = Hyperparameters(length_scale=20.0)
        elif seed < 6:
            rng = np.random.default_rng(seed)
            x = rng.uniform(-2.0, 2.0, (60, 3))
            y = np.sin(x[:, 0]) * x[:, 1] + 0.1 * rng.standard_normal(60)
            initial = Hyperparameters()
        else:
            x, y, initial = multimodal_problem(seed)
        opts = dataclasses.replace(FREE, seed=seed)
        best = -min(result.fun for _, result in plain_starts(x, y, initial, opts))
        hyper = optimize_hyperparameters(x, y, initial=initial, options=opts)
        assert fit(x, y, hyper).log_marginal >= best - 1e-6 * abs(best)

    def test_noise_only_search_runs_every_start(self, rng, monkeypatch):
        runs = record_runs(monkeypatch)
        x = rng.uniform(-2.0, 2.0, (40, 1))
        optimize_hyperparameters(x, np.sin(x[:, 0]), options=GpOptions(seed=0))
        assert len(runs) == gpr.RESTARTS
        assert all(done for _, _, done in runs)


class TestModelRoundTrip:
    def test_save_load_preserves_predictions(self, tmp_path, rng):
        x, y, hyper = random_problem(7)
        model = fit(x, y, hyper)
        path = tmp_path / "model.npz"
        save_model(model, path, {"note": "round-trip"})
        loaded, meta = load_model(path)
        assert meta["note"] == "round-trip"
        x_star = rng.normal(size=(9, x.shape[1]))
        m0, v0 = predict(model, x_star)
        m1, v1 = predict(loaded, x_star)
        assert np.array_equal(m0, m1)
        assert np.array_equal(v0, v1)
        assert loaded.hyper == model.hyper

    @pytest.mark.parametrize("free", [False, True], ids=["fixed", "free"])
    def test_reload_is_fit_bit_for_bit(self, tmp_path, rng, free):
        # A file holds only what fit needs; load refits, so every derived
        # array and every prediction equals the in-memory model's.
        x = rng.uniform(-2.0, 2.0, (120, 2))
        y = np.sin(x[:, 0]) * np.cos(x[:, 1]) + 0.05 * rng.normal(size=120)
        options = GpOptions(optimize_output_scale=free, optimize_length_scale=free)
        hyper = optimize_hyperparameters(x, y, options=options)
        assert (hyper.length_scale != 1.0) == free
        model = fit(x, y, hyper)
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded, _ = load_model(path)
        assert loaded.hyper == model.hyper
        assert np.array_equal(np.tril(loaded.cholesky_lower), np.tril(model.cholesky_lower))
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.log_marginal == model.log_marginal
        assert loaded.jitter == model.jitter
        x_star = rng.uniform(-2.5, 2.5, (300, 2))
        for a, b in zip(predict(loaded, x_star), predict(model, x_star)):
            assert np.array_equal(a, b)

    def test_file_holds_no_derived_array(self, tmp_path):
        x, y, hyper = random_problem(7)
        path = tmp_path / "model.npz"
        save_model(fit(x, y, hyper), path)
        with np.load(path) as data:
            assert set(data) == {
                "format_version", "model_kind", "inputs", "targets", "hyper",
                "jitter", "metadata_json",
            }

    @pytest.mark.parametrize("log_noise", [*gpr.LOG_BOUNDS, -16.0 - 1e-12, 8.0 + 1e-12])
    def test_noise_at_a_bound_reloads(self, tmp_path, log_noise):
        # L-BFGS-B can end exactly on a bound, and exp then log of a value
        # near one can land a few ulps outside: the loader's slack admits
        # both.
        x, y, _ = random_problem(3)
        hyper = Hyperparameters.from_log_array([0.0, 0.0, log_noise])
        model = fit(x, y, hyper)
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded, _ = load_model(path)
        assert loaded.hyper == hyper
        assert loaded.log_marginal == model.log_marginal

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "absent.npz")

    def test_damaged_archive_is_format_error_or_loads(self, tmp_path):
        # Flipped and cut bytes fail inside zipfile, zlib or the scalar
        # conversions; each must surface as ModelFormatError (exit 2), or
        # the file must load (a flip in a field zip does not check).
        x, y, hyper = random_problem(4, n_max=6)
        path = tmp_path / "model.npz"
        save_model(fit(x, y, hyper), path)
        data = path.read_bytes()
        damaged = [data[:cut] for cut in range(0, len(data), 41)]
        for i in range(0, len(data), 3):
            flipped = bytearray(data)
            flipped[i] ^= 0xFF if i % 2 else 0x01
            damaged.append(bytes(flipped))
        broken = tmp_path / "broken.npz"
        for blob in damaged:
            broken.write_bytes(blob)
            try:
                load_model(broken)
            except ModelFormatError:
                pass


def _corrupt(model: GprModel, name: str, how: str) -> np.ndarray:
    """A copy of one of the model's arrays with one defect."""
    arr = getattr(model, name).copy()
    if how == "nan":
        arr.flat[arr.size // 2] = np.nan
    elif how == "inf":
        arr.flat[0] = np.inf
    elif how == "short":
        arr = arr[:-1]
    elif how == "int":
        arr = arr.astype(np.int64)
    elif how == "zero diagonal":
        arr[1, 1] = 0.0
    return arr


HOSTILE_ARRAYS = [
    ("inputs", "nan"), ("inputs", "inf"), ("inputs", "int"),
    ("targets", "nan"), ("targets", "short"),
    ("cholesky_lower", "nan"), ("cholesky_lower", "inf"),
    ("cholesky_lower", "short"), ("cholesky_lower", "zero diagonal"),
    ("weights", "nan"), ("weights", "inf"), ("weights", "short"),
]


class TestModelFileErrors:
    """Hyperparameters a version-2 file may hold: the search box, with a
    slack for the exp/log round trip only. The other file errors are
    checked end to end in test_cli."""

    @pytest.mark.parametrize("index, log_value", [
        (0, 8.0 + 1e-6), (1, -16.0 - 1e-6), (2, 8.0 + 1e-6), (2, -16.0 - 1e-6),
    ])
    def test_hyperparameter_outside_search_box(self, tmp_path, index, log_value):
        x, y, hyper = random_problem(5)
        path = tmp_path / "model.npz"
        save_model(fit(x, y, hyper), path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["hyper"][index] = math.exp(log_value)
        np.savez(path, **arrays)
        with pytest.raises(ModelFormatError, match="outside the search box"):
            load_model(path)


class TestModelValidation:
    """Every model is checked once when built, so predictions can skip
    rescanning the n x n factor."""

    @pytest.mark.parametrize("name, how", HOSTILE_ARRAYS)
    def test_hand_built_model_rejected(self, name, how):
        x, y, hyper = random_problem(4)
        model = fit(x, y, hyper)
        with pytest.raises(DataError, match=name):
            dataclasses.replace(model, **{name: _corrupt(model, name, how)})

    def test_one_dimensional_inputs_rejected(self):
        x, y, hyper = random_problem(4)
        model = fit(x, y, hyper)
        with pytest.raises(DimensionMismatch, match="2-D"):
            dataclasses.replace(model, inputs=model.inputs[:, 0].copy())

    @pytest.mark.parametrize(
        "name, how", [(name, how) for name, how in HOSTILE_ARRAYS
                      if name in ("inputs", "targets")]
    )
    def test_hostile_model_file_is_format_error(self, tmp_path, name, how):
        x, y, hyper = random_problem(4)
        model = fit(x, y, hyper)
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays[name] = _corrupt(model, name, how)
        np.savez(path, **arrays)
        with pytest.raises(ModelFormatError, match=name):
            load_model(path)


def spectral_objective(lam, y_hat, log_noise):
    """The noise-only LML and its derivative in log noise from the
    eigenvalues of K, clamped at zero, and y_hat = Q'y in its eigenbasis."""
    v = math.exp(log_noise)
    denom = np.maximum(lam, 0.0) + v
    lml = (-0.5 * float(np.sum(y_hat**2 / denom))
           - 0.5 * float(np.sum(np.log(denom))) - 0.5 * len(lam) * math.log(2 * math.pi))
    grad = 0.5 * v * (float(np.sum(y_hat**2 / denom**2)) - float(np.sum(1.0 / denom)))
    return lml, grad


def dense_noise_objective(k, y, log_noise):
    """:func:`spectral_objective` from a dense ``eigh`` of K."""
    lam, q = eigh(k)
    return spectral_objective(lam, q.T @ y, log_noise)


class TestSpectrum:
    """The search's tridiagonal solve against a dense ``eigh``.

    Log noise runs from -12 up: near the lower bound of -16 the
    rounding-level eigenvalues of an RBF gram (about 1e-13 of the
    largest) are no longer small against the noise, and there the two
    routes differ by how they round them, not by what they compute.
    """

    LOG_NOISES = (-12.0, -8.0, -4.0, -1.0, 0.0, 2.0, 6.0)

    def check(self, k, y):
        k, y = np.asarray(k, dtype=np.float64), np.asarray(y, dtype=np.float64)
        spectrum = _spectrum(k.copy(), y)
        for log_noise in self.LOG_NOISES:
            lml, grad = spectrum.lml_and_grad(log_noise)
            ref_lml, ref_grad = dense_noise_objective(k, y, log_noise)
            assert lml == pytest.approx(ref_lml, rel=1e-9)
            assert grad == pytest.approx(ref_grad, rel=1e-9)

    def test_one_by_one(self):
        self.check([[2.5]], [-3.0])

    def test_two_by_two(self):
        self.check([[2.0, 0.7], [0.7, 1.0]], [0.3, -1.2])

    def test_three_by_three(self, rng):
        a = rng.standard_normal((3, 3))
        self.check(a @ a.T + np.eye(3), rng.standard_normal(3))

    def test_rbf_gram_500_rows(self, rng):
        # Three input dimensions give the cluster of rounding-level
        # eigenvalues a real training set has.
        x = rng.standard_normal((500, 3))
        y = np.sin(x[:, 0]) + 0.1 * rng.standard_normal(500)
        self.check(gram_matrix(x), y)

    def test_reduces_its_input_in_place(self, rng):
        k = gram_matrix(rng.standard_normal((20, 2)))
        before = k.copy()
        _spectrum(k, np.ones(20))
        assert not np.array_equal(k, before)


def mean_only_fit(x, y, hyper=None):
    """The mean-only model from the noise search's reduction: fit_mean's,
    at the tuned noise, or fit's from the reduction at ``hyper``."""
    if hyper is None:
        return fit_mean(x, y)
    return fit(x, y, hyper, _reduction=gpr._noise_reduction(x, y, hyper))


class TestMeanOnlyFit:
    """fit from the search's reduction: w = H u with (T + v I) u = z."""

    @pytest.mark.parametrize(
        "log_noise", [-16.0, -12.0, -8.0, -4.0, -1.0, 0.0, 2.0, 6.0, 8.0]
    )
    def test_weights_are_the_cholesky_weights(self, rng, log_noise):
        # The two routes round differently, by about eps times the
        # condition number of K + v I, which grows as 1 / v.
        x = rng.standard_normal((300, 3))
        y = np.sin(x[:, 0]) + 0.1 * rng.standard_normal(300)
        v = math.exp(log_noise)
        hyper = Hyperparameters(noise_variance=v)
        mean_only, exact = mean_only_fit(x, y, hyper), fit(x, y, hyper)
        assert mean_only.cholesky_lower is None and mean_only.jitter == 0.0
        err = np.max(np.abs(mean_only.weights - exact.weights))
        assert err <= 1e-13 * max(1.0, 1.0 / v) * np.max(np.abs(exact.weights))
        if log_noise >= -8.0:
            assert mean_only.log_marginal == pytest.approx(exact.log_marginal, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 40])
    def test_small_training_sets(self, rng, n):
        x = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        model = mean_only_fit(x, y)
        exact = fit(x, y, model.hyper)
        xq = rng.standard_normal((7, 2))
        assert np.allclose(predict_mean(model, xq), predict_mean(exact, xq),
                           rtol=0.0, atol=1e-9)
        assert model.log_marginal == pytest.approx(exact.log_marginal, rel=1e-9)

    @pytest.mark.parametrize("call", [
        lambda model, tmp_path: predict(model, model.inputs[:2]),
        lambda model, tmp_path: lml_gradient(model),
        lambda model, tmp_path: save_model(model, tmp_path / "m.npz"),
        lambda model, tmp_path: log_marginal_likelihood(model),
    ], ids=["predict", "lml_gradient", "save_model", "log_marginal_likelihood"])
    def test_mean_only_model_refuses_what_needs_a_factor(self, rng, tmp_path, call):
        model = mean_only_fit(rng.standard_normal((20, 2)), rng.standard_normal(20))
        with pytest.raises(ValueError, match="mean-only"):
            call(model, tmp_path)
        assert not (tmp_path / "m.npz").exists()

    def test_a_free_scale_gives_the_cholesky_fit(self, rng):
        x = rng.standard_normal((40, 2))
        y = np.sin(x[:, 0]) + 0.1 * rng.standard_normal(40)
        options = GpOptions(optimize_length_scale=True, seed=3)
        model = fit_mean(x, y, options)
        expected = fit(x, y, optimize_hyperparameters(x, y, options=options))
        assert model.hyper == expected.hyper
        for name in ("inputs", "targets", "cholesky_lower", "weights"):
            assert np.array_equal(getattr(model, name), getattr(expected, name))
        assert model.log_marginal == expected.log_marginal
        assert model.jitter == expected.jitter


def baseline_shaped(session, stride):
    """Every ``stride``-th normalized (angle, velocity) row of a default
    session with its normalized torque: the two-feature inputs whose RBF
    kernel has numerical rank 150-175."""
    calib = compute_calibration(session.standing, session.initial_angle)
    table = concat_tables([
        build_features(t.recording, session.spec.joint, ModelConfig.BASELINE, calib)
        for t in session.takes
    ])
    keep = slice(None, None, stride)
    x, y = table.rows[keep], table.targets[keep]
    return (x - x.mean(axis=0)) / x.std(axis=0), (y - y.mean()) / y.std()


def clustered(n_clusters, copies):
    """``copies`` rows at each of ``n_clusters`` 1-D points 40 apart: the
    kernel between clusters underflows to zero, so K has rank
    ``n_clusters`` exactly."""
    x = np.repeat(40.0 * np.arange(n_clusters), copies)[:, None]
    y = np.random.default_rng(n_clusters).standard_normal(x.shape[0])
    return x, y


def searched(x, y, initial=None):
    """(tuned hyperparameters, the mean-only model at them, which
    reduction the search used): fit_mean's steps, from ``initial``."""
    kept = []
    tuned = optimize_hyperparameters(x, y, initial=initial, _keep=kept)
    kind = type(kept[0])
    return tuned, fit(x, y, tuned, _reduction=kept.pop()), kind


class TestLowRankSearch:
    """The noise-only search on a kernel of low numerical rank: the
    pivoted Cholesky probe's basis against the Householder reduction
    (the probe's budget set to zero) and the Cholesky ``fit``."""

    @pytest.fixture(params=["1-D", "duplicated rows", "baseline-shaped"])
    def problem(self, request, knee_session):
        rng = np.random.default_rng(5)
        if request.param == "1-D":
            x = rng.uniform(-3.0, 3.0, (600, 1))
            y = np.sin(2.0 * x[:, 0]) + 0.1 * rng.standard_normal(600)
        elif request.param == "duplicated rows":
            x = np.full((600, 2), 0.3)
            y = rng.standard_normal(600)
        else:
            x, y = baseline_shaped(knee_session, 14)
            assert x.shape[0] == 1727
        x_star = rng.uniform(x.min(axis=0), x.max(axis=0), (300, x.shape[1]))
        return request.param, x, y, x_star

    def test_matches_the_householder_search(self, problem, monkeypatch):
        _, x, y, _ = problem
        tuned, model, kind = searched(x, y)
        assert kind is gpr._LowRank
        monkeypatch.setattr(gpr, "_PROBE_BUDGET", 0.0)
        ref_tuned, ref_model, ref_kind = searched(x, y)
        assert ref_kind is gpr._Reduction
        assert tuned.noise_variance == pytest.approx(ref_tuned.noise_variance, rel=1e-6)
        assert model.log_marginal == pytest.approx(ref_model.log_marginal, rel=1e-9)

    @pytest.mark.parametrize("noise_free", [False, True],
                             ids=["noisy targets", "noise at the lower bound"])
    def test_held_out_means_are_the_cholesky_ones(self, problem, noise_free):
        # The probe drops a trailing block of K whose diagonal is below
        # n eps: on the baseline-shaped inputs its 2-norm is about 1e-11,
        # which at the lower bound's noise of 1.1e-7 moves the means by up
        # to about 8e-9 sd, against 2e-11 from the low-rank solve itself.
        name, x, y, x_star = problem
        bound = 1e-8 if noise_free and name == "baseline-shaped" else 1e-9
        if noise_free:
            # A smooth map of the inputs, which the search interpolates.
            y = np.sin(x[:, 0]) + 0.5 * np.cos(x[:, -1])
        tuned, model, kind = searched(x, y)
        assert kind is gpr._LowRank and model.cholesky_lower is None
        if noise_free:
            assert tuned.noise_variance == math.exp(gpr.LOG_BOUNDS[0])
        exact = fit(x, y, model.hyper)
        assert exact.jitter == 0.0
        err = np.max(np.abs(predict_mean(model, x_star) - predict_mean(exact, x_star)))
        # Identical rows interpolated exactly share one target: sd 0.
        assert err <= bound * (np.std(y) if np.ptp(y) > 0 else 1.0)

    def test_non_unit_kernel_scales(self, monkeypatch):
        # The tolerance and the first diagonal scale with the output scale.
        rng = np.random.default_rng(10)
        x = rng.uniform(-3.0, 3.0, (600, 1))
        y = np.sin(2.0 * x[:, 0]) + 0.1 * rng.standard_normal(600)
        initial = Hyperparameters(output_scale=1.5, length_scale=0.7)
        tuned, model, kind = searched(x, y, initial)
        assert kind is gpr._LowRank
        assert (tuned.output_scale, tuned.length_scale) == (1.5, 0.7)
        monkeypatch.setattr(gpr, "_PROBE_BUDGET", 0.0)
        ref_tuned, ref_model, _ = searched(x, y, initial)
        assert tuned.noise_variance == pytest.approx(ref_tuned.noise_variance, rel=1e-6)
        assert model.log_marginal == pytest.approx(ref_model.log_marginal, rel=1e-9)
        x_star = rng.uniform(-3.0, 3.0, (300, 1))
        exact = fit(x, y, tuned)
        err = np.max(np.abs(predict_mean(model, x_star) - predict_mean(exact, x_star)))
        assert err <= 1e-9 * np.std(y)

    def test_full_rank_inputs_take_the_householder_path_bit_for_bit(self, monkeypatch):
        # Seven features: the probe gives up, and what follows is the
        # Householder search as if no probe had run.
        rng = np.random.default_rng(6)
        x = rng.standard_normal((600, 7))
        y = np.sin(x[:, 0]) + 0.1 * rng.standard_normal(600)
        probes = []
        real = gpr._pivoted_cholesky
        monkeypatch.setattr(gpr, "_pivoted_cholesky",
                            lambda *args: probes.append(real(*args)) or probes[-1])
        tuned, model, kind = searched(x, y)
        assert kind is gpr._Reduction and probes == [None]
        monkeypatch.setattr(gpr, "_PROBE_BUDGET", 0.0)
        ref_tuned, ref_model, _ = searched(x, y)
        assert tuned == ref_tuned
        assert np.array_equal(model.weights, ref_model.weights)
        assert model.log_marginal == ref_model.log_marginal

    @pytest.mark.parametrize("n_clusters, copies, low_rank", [
        (1, 1, False),    # n = 1
        (16, 31, False),  # 496 rows, below the probe's 512
        (16, 32, True),   # 512 rows of rank 16
        (1, 600, True),   # rank 1
        (40, 16, True),   # rank 40 of budget 80: 40 pivots on a plateau
    ])
    def test_row_and_rank_edges(self, monkeypatch, n_clusters, copies, low_rank):
        x, y = clustered(n_clusters, copies)
        tuned, model, kind = searched(x, y)
        assert (kind is gpr._LowRank) == low_rank
        monkeypatch.setattr(gpr, "_PROBE_BUDGET", 0.0)
        ref_tuned, ref_model, _ = searched(x, y)
        assert tuned.noise_variance == pytest.approx(ref_tuned.noise_variance, rel=1e-6)
        assert model.log_marginal == pytest.approx(ref_model.log_marginal, rel=1e-9)
        assert np.allclose(model.weights, ref_model.weights, rtol=1e-6, atol=1e-9)

    def test_probe_stops_at_a_rank_exactly_at_its_budget(self):
        x, _ = clustered(10, 8)
        factor = gpr._pivoted_cholesky(x, Hyperparameters(), 10)
        assert factor.shape == (10, 80)
        assert np.allclose(factor.T @ factor, gram_matrix(x), rtol=0.0, atol=1e-15)
        assert gpr._pivoted_cholesky(x, Hyperparameters(), 9) is None

    def test_slow_first_pivots_are_no_reason_to_give_up(self, ankle_session):
        # Rank 169 within a budget of 180. The first 32 pivots fall more
        # slowly than the rest: their decay, continued to the budget,
        # would not reach the tolerance, and the last half's does.
        x, _ = baseline_shaped(ankle_session, 17)
        assert x.shape[0] == 1441
        factor = gpr._pivoted_cholesky(x, Hyperparameters(), 180)
        assert factor is not None and factor.shape[0] <= 180

    def test_huge_input_row_still_raises(self):
        # The row's squared norm overflows and its own kernel entry is NaN:
        # the probe gives up on it, and the gram matrix is refused as before.
        rng = np.random.default_rng(8)
        x = rng.uniform(-3.0, 3.0, (600, 1))
        x[5, 0] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefinite):
                optimize_hyperparameters(x, np.sin(x[:, 0] % 7.0))

    def test_fold_builds_no_n_by_n_block(self):
        n = 1200
        rng = np.random.default_rng(9)
        x = rng.uniform(-3.0, 3.0, (n, 1))
        y = np.sin(2.0 * x[:, 0]) + 0.1 * rng.standard_normal(n)
        x_star = rng.uniform(-3.0, 3.0, (500, 1))
        kinds = []

        def fold():
            _, model, kind = searched(x, y)
            kinds.append(kind)
            predict_mean(model, x_star)

        peak = traced_peak_bytes(fold)
        assert kinds == [gpr._LowRank]
        assert peak < n * n * 8 / 4
