"""Closed-form Gaussian recursions against quadrature and joint-Gaussian oracles."""

import math

import numpy as np
import pytest

from grid_oracle import grid_posterior, random_scalar_model
from ssmkit import (
    LinearGaussianModel,
    ModelValidationError,
    NumericalDegeneracyError,
    ObservationSeries,
    SeededGenerator,
    gaussian_logpdf,
    kalman_filter,
    kalman_predict,
    rts_smoother,
    simulate_lgssm,
)


def scalar_model(a, q, c, r, mu0, sigma0):
    return LinearGaussianModel(
        A=[[a]], C=[[c]], Q=[[q]], R=[[r]], mu0=[mu0], Sigma0=[[sigma0]]
    )


def series(values):
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return ObservationSeries(arr, kind="real")


def joint_gaussian_posterior(model, ys):
    """Independent oracle: condition the joint Gaussian of all states on all
    observations with one dense solve instead of any recursion."""
    d_x, d_y = model.d_x, model.d_y
    t_len = len(ys)
    dim_z = d_x + (t_len - 1) * d_x + t_len * d_y
    cov_z = np.zeros((dim_z, dim_z))
    cov_z[:d_x, :d_x] = model.Sigma0
    for t in range(t_len - 1):
        lo = d_x + t * d_x
        cov_z[lo : lo + d_x, lo : lo + d_x] = model.Q
    obs_base = d_x + (t_len - 1) * d_x
    for t in range(t_len):
        lo = obs_base + t * d_y
        cov_z[lo : lo + d_y, lo : lo + d_y] = model.R

    b_states = np.zeros((t_len, d_x, dim_z))
    mean_states = np.zeros((t_len, d_x))
    b_states[0, :, :d_x] = np.eye(d_x)
    mean_states[0] = model.mu0
    for t in range(1, t_len):
        b_states[t] = model.A @ b_states[t - 1]
        lo = d_x + (t - 1) * d_x
        b_states[t, :, lo : lo + d_x] += np.eye(d_x)
        mean_states[t] = model.A @ mean_states[t - 1]

    b_x = b_states.reshape(t_len * d_x, dim_z)
    mean_x = mean_states.reshape(t_len * d_x)
    b_y = np.zeros((t_len * d_y, dim_z))
    mean_y = np.zeros(t_len * d_y)
    for t in range(t_len):
        b_y[t * d_y : (t + 1) * d_y] = model.C @ b_states[t]
        lo = obs_base + t * d_y
        b_y[t * d_y : (t + 1) * d_y, lo : lo + d_y] += np.eye(d_y)
        mean_y[t * d_y : (t + 1) * d_y] = model.C @ mean_states[t]

    cov_xx = b_x @ cov_z @ b_x.T
    cov_xy = b_x @ cov_z @ b_y.T
    cov_yy = b_y @ cov_z @ b_y.T
    flat_y = np.asarray(ys, dtype=float).reshape(t_len * d_y)

    gain = np.linalg.solve(cov_yy, cov_xy.T).T
    post_mean = mean_x + gain @ (flat_y - mean_y)
    post_cov = cov_xx - gain @ cov_xy.T
    smoothed_means = post_mean.reshape(t_len, d_x)
    smoothed_covs = np.array(
        [
            post_cov[t * d_x : (t + 1) * d_x, t * d_x : (t + 1) * d_x]
            for t in range(t_len)
        ]
    )

    filtered_means = np.zeros((t_len, d_x))
    for t in range(t_len):
        n = (t + 1) * d_y
        g = np.linalg.solve(cov_yy[:n, :n], cov_xy[t * d_x : (t + 1) * d_x, :n].T).T
        filtered_means[t] = mean_x[t * d_x : (t + 1) * d_x] + g @ (
            flat_y[:n] - mean_y[:n]
        )

    loglik = gaussian_logpdf(flat_y, mean_y, cov_yy)
    return filtered_means, smoothed_means, smoothed_covs, loglik


class TestFilterClosedForms:
    def test_static_state_conjugate_update(self):
        # A=1, Q=0: repeated noisy measurement of a fixed scalar.
        model = scalar_model(1.0, 0.0, 1.0, 0.5, 0.2, 1.0)
        ys = [0.5, -0.2, 0.9, 0.1, 0.4]
        result = kalman_filter(model, series(ys))
        for t in range(5):
            precision = 1.0 / 1.0 + (t + 1) / 0.5
            want_var = 1.0 / precision
            want_mean = want_var * (0.2 / 1.0 + sum(ys[: t + 1]) / 0.5)
            assert result.filtered_covs[t][0, 0] == pytest.approx(
                want_var, abs=1e-12
            )
            assert result.filtered_means[t][0] == pytest.approx(
                want_mean, abs=1e-12
            )

    def test_zero_observation_matrix_keeps_prior(self):
        model = scalar_model(0.8, 0.3, 0.0, 0.5, 1.5, 0.7)
        ys = [0.2, -0.4, 0.9]
        result = kalman_filter(model, series(ys))
        mean, var = 1.5, 0.7
        loglik = 0.0
        for t in range(3):
            if t > 0:
                mean, var = 0.8 * mean, 0.64 * var + 0.3
            assert result.filtered_means[t][0] == pytest.approx(mean, abs=1e-12)
            assert result.filtered_covs[t][0, 0] == pytest.approx(var, abs=1e-12)
            loglik += gaussian_logpdf(np.array([ys[t]]), np.zeros(1), np.array([[0.5]]))
        assert result.log_likelihood == pytest.approx(loglik, abs=1e-12)

    def test_loglik_is_sum_of_predictive_densities(self):
        model = LinearGaussianModel(
            A=[[0.9, 0.1], [0.0, 0.8]],
            C=[[1.0, 0.0]],
            Q=[[0.2, 0.05], [0.05, 0.1]],
            R=[[0.3]],
            mu0=[0.0, 0.0],
            Sigma0=[[1.0, 0.0], [0.0, 1.0]],
        )
        _, obs = simulate_lgssm(model, 30, SeededGenerator(7))
        result = kalman_filter(model, obs)
        total = 0.0
        for t in range(30):
            mean = model.C @ result.predicted_means[t]
            cov = model.C @ result.predicted_covs[t] @ model.C.T + model.R
            total += gaussian_logpdf(obs.values[t], mean, cov)
        assert result.log_likelihood == pytest.approx(total, abs=1e-10)

    def test_covariances_do_not_depend_on_data(self):
        model = scalar_model(0.9, 0.19, 1.0, 0.5, 0.0, 1.0)
        r1 = kalman_filter(model, series([0.5, -0.2, 0.9]))
        r2 = kalman_filter(model, series([100.0, -50.0, 7.0]))
        np.testing.assert_array_equal(r1.filtered_covs, r2.filtered_covs)
        np.testing.assert_array_equal(r1.predicted_covs, r2.predicted_covs)

    def test_joseph_form_long_run_stability(self):
        model = scalar_model(0.99, 1e-10, 1.0, 1e-4, 0.0, 1.0)
        rng = SeededGenerator(99)
        _, obs = simulate_lgssm(model, 10_000, rng)
        result = kalman_filter(model, obs)
        assert np.all(result.filtered_covs[:, 0, 0] > 0)
        np.testing.assert_array_equal(
            result.filtered_covs, np.swapaxes(result.filtered_covs, 1, 2)
        )

    def test_degenerate_innovation_covariance_raises(self):
        model = LinearGaussianModel(
            A=np.eye(2) * 0.5,
            C=np.zeros((2, 2)),
            Q=np.eye(2) * 0.1,
            R=np.diag([1.0, 1e-14]),
            mu0=np.zeros(2),
            Sigma0=np.eye(2),
        )
        with pytest.raises(NumericalDegeneracyError) as exc:
            kalman_filter(model, ObservationSeries(np.zeros((3, 2)), kind="real"))
        assert exc.value.time_index == 1


class TestGridOracle:
    def test_pinned_scalar_example(self):
        a, q, c, r, mu0, sigma0 = 0.9, 0.19, 1.0, 0.5, 0.0, 1.0
        ys = [0.5, -0.2, 0.9, 0.1, 0.4]
        f_mean, f_var, s_mean, s_var, loglik = grid_posterior(
            a, q, c, r, mu0, sigma0, ys
        )
        model = scalar_model(a, q, c, r, mu0, sigma0)
        result = kalman_filter(model, series(ys))
        smooth = rts_smoother(model, result)
        np.testing.assert_allclose(result.filtered_means[:, 0], f_mean, atol=1e-4)
        np.testing.assert_allclose(result.filtered_covs[:, 0, 0], f_var, atol=1e-4)
        np.testing.assert_allclose(smooth.smoothed_means[:, 0], s_mean, atol=1e-4)
        np.testing.assert_allclose(smooth.smoothed_covs[:, 0, 0], s_var, atol=1e-4)
        assert result.log_likelihood == pytest.approx(loglik, abs=1e-4)

    def test_random_scalar_models(self):
        rng = np.random.default_rng(21)
        for _ in range(4):
            a, q, c, r, mu0, sigma0 = random_scalar_model(rng)
            model = scalar_model(a, q, c, r, mu0, sigma0)
            t_len = int(rng.integers(3, 11))
            _, obs = simulate_lgssm(model, t_len, SeededGenerator(int(rng.integers(1 << 30))))
            ys = obs.values[:, 0]
            f_mean, f_var, s_mean, s_var, _ = grid_posterior(
                a, q, c, r, mu0, sigma0, ys
            )
            result = kalman_filter(model, obs)
            smooth = rts_smoother(model, result)
            np.testing.assert_allclose(result.filtered_means[:, 0], f_mean, atol=1e-4)
            np.testing.assert_allclose(
                result.filtered_covs[:, 0, 0], f_var, atol=1e-4
            )
            np.testing.assert_allclose(smooth.smoothed_means[:, 0], s_mean, atol=1e-4)
            np.testing.assert_allclose(smooth.smoothed_covs[:, 0, 0], s_var, atol=1e-4)


class TestJointGaussianOracle:
    def test_multivariate_filter_and_smoother(self):
        model = LinearGaussianModel(
            A=[[0.9, 0.1], [-0.2, 0.7]],
            C=[[1.0, 0.0], [0.5, 1.0]],
            Q=[[0.3, 0.1], [0.1, 0.2]],
            R=[[0.4, 0.0], [0.0, 0.6]],
            mu0=[0.5, -0.5],
            Sigma0=[[1.0, 0.2], [0.2, 0.8]],
        )
        _, obs = simulate_lgssm(model, 20, SeededGenerator(23))
        f_means, s_means, s_covs, loglik = joint_gaussian_posterior(model, obs.values)
        result = kalman_filter(model, obs)
        smooth = rts_smoother(model, result)
        np.testing.assert_allclose(result.filtered_means, f_means, atol=1e-8)
        np.testing.assert_allclose(smooth.smoothed_means, s_means, atol=1e-8)
        np.testing.assert_allclose(smooth.smoothed_covs, s_covs, atol=1e-8)
        assert result.log_likelihood == pytest.approx(loglik, abs=1e-8)

    def test_steady_state_past_the_freeze_step(self):
        # d_x = 3, d_y = 2: the covariances settle and freeze well before
        # T = 120, after which the filter and smoother run only their mean
        # recursions, with constant gains.
        gen = np.random.default_rng(31)
        q, _ = np.linalg.qr(gen.standard_normal((3, 3)))
        model = LinearGaussianModel(
            A=0.8 * q,
            C=gen.standard_normal((2, 3)),
            Q=[[0.3, 0.1, 0.0], [0.1, 0.2, 0.05], [0.0, 0.05, 0.4]],
            R=[[0.4, 0.1], [0.1, 0.6]],
            mu0=[0.5, -0.5, 1.0],
            Sigma0=np.eye(3),
        )
        _, obs = simulate_lgssm(model, 120, SeededGenerator(32))
        f_means, s_means, s_covs, loglik = joint_gaussian_posterior(model, obs.values)
        result = kalman_filter(model, obs)
        smooth = rts_smoother(model, result)
        covs = result.predicted_covs
        frozen = np.flatnonzero((covs != covs[-1]).any(axis=(1, 2)))[-1] + 1
        assert frozen < 80
        np.testing.assert_allclose(result.filtered_means, f_means, atol=1e-8)
        np.testing.assert_allclose(smooth.smoothed_means, s_means, atol=1e-8)
        np.testing.assert_allclose(smooth.smoothed_covs, s_covs, atol=1e-8)
        assert result.log_likelihood == pytest.approx(loglik, abs=1e-8)

    def test_rank_deficient_prediction_uses_pinv(self):
        model = LinearGaussianModel(
            A=[[0.5, 0.0], [0.5, 0.0]],
            C=[[1.0, 0.0]],
            Q=np.zeros((2, 2)),
            R=[[0.5]],
            mu0=[1.0, -1.0],
            Sigma0=np.eye(2),
        )
        obs = ObservationSeries(np.array([[0.3], [0.1], [-0.2], [0.4]]), kind="real")
        result = kalman_filter(model, obs)
        smooth = rts_smoother(model, result)
        assert len(smooth.pinv_steps) > 0
        assert np.all(np.isfinite(smooth.smoothed_means))
        _, s_means, _, _ = joint_gaussian_posterior(model, obs.values)
        np.testing.assert_allclose(smooth.smoothed_means, s_means, atol=1e-8)


class TestObservationChecks:
    MODEL = scalar_model(0.9, 0.19, 1.0, 0.5, 0.0, 1.0)

    def test_symbolic_series_rejected(self):
        with pytest.raises(ModelValidationError, match="real-valued observations"):
            kalman_filter(self.MODEL, ObservationSeries([0, 1], kind="symbolic"))

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="at least one entry"):
            kalman_filter(self.MODEL, ObservationSeries(np.zeros((0, 1)), kind="real"))

    def test_observation_width_must_match_the_model(self):
        with pytest.raises(ModelValidationError, match="dimension 2, model expects 1"):
            kalman_filter(self.MODEL, ObservationSeries(np.zeros((3, 2)), kind="real"))


class TestSmoother:
    def test_t1_smoothed_equals_filtered(self):
        model = scalar_model(0.9, 0.19, 1.0, 0.5, 0.0, 1.0)
        result = kalman_filter(model, series([0.7]))
        smooth = rts_smoother(model, result)
        np.testing.assert_array_equal(smooth.smoothed_means, result.filtered_means)
        np.testing.assert_array_equal(smooth.smoothed_covs, result.filtered_covs)

    def test_last_step_equals_filtered(self):
        model = scalar_model(0.9, 0.19, 1.0, 0.5, 0.0, 1.0)
        result = kalman_filter(model, series([0.5, -0.2, 0.9]))
        smooth = rts_smoother(model, result)
        np.testing.assert_array_equal(
            smooth.smoothed_means[-1], result.filtered_means[-1]
        )
        np.testing.assert_array_equal(
            smooth.smoothed_covs[-1], result.filtered_covs[-1]
        )

    def test_smoothing_never_inflates_variance(self):
        model = scalar_model(0.8, 0.3, 1.0, 0.4, 0.0, 1.0)
        _, obs = simulate_lgssm(model, 50, SeededGenerator(31))
        result = kalman_filter(model, obs)
        smooth = rts_smoother(model, result)
        assert np.all(
            smooth.smoothed_covs[:, 0, 0] <= result.filtered_covs[:, 0, 0] + 1e-12
        )


class TestPredict:
    def test_geometric_mean_decay(self):
        model = scalar_model(0.9, 0.19, 1.0, 0.5, 0.0, 1.0)
        steps = kalman_predict(model, np.array([2.0]), np.array([[0.1]]), 5)
        for k, (mean, _) in enumerate(steps, start=1):
            assert mean[0] == pytest.approx(2.0 * 0.9**k, abs=1e-12)

    def test_variance_reaches_stationary_point(self):
        # For a=0.9, q=0.19 the stationary variance is q/(1-a^2) = 1 exactly.
        model = scalar_model(0.9, 0.19, 1.0, 0.5, 0.0, 1.0)
        steps = kalman_predict(model, np.array([2.0]), np.array([[0.1]]), 200)
        mean, cov = steps[-1]
        assert cov[0, 0] == pytest.approx(1.0, abs=1e-6)
        assert mean[0] == pytest.approx(0.0, abs=1e-6)

    def test_matches_filter_predicted_moments(self):
        model = scalar_model(0.9, 0.19, 1.0, 0.5, 0.0, 1.0)
        result = kalman_filter(model, series([0.5, -0.2, 0.9]))
        one = kalman_predict(
            model, result.filtered_means[1], result.filtered_covs[1], 1
        )
        np.testing.assert_allclose(one[0][0], result.predicted_means[2], atol=1e-14)
        np.testing.assert_allclose(one[0][1], result.predicted_covs[2], atol=1e-14)

    def test_k_must_be_positive(self):
        model = scalar_model(0.9, 0.19, 1.0, 0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            kalman_predict(model, np.zeros(1), np.eye(1), 0)
