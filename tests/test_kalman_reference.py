"""The filter and smoother, with their batched checks, likelihood terms and
gains, against the plain per-step recursions, compared byte for byte."""

from types import SimpleNamespace

import numpy as np
import pytest

from ssmkit import (
    GaussianPosteriorSequence,
    LinearGaussianModel,
    NumericalDegeneracyError,
    ObservationSeries,
    SeededGenerator,
    gaussian_logpdf,
    kalman_filter,
    rts_smoother,
    simulate_lgssm,
)
from ssmkit import kalman
from ssmkit.kalman import CONDITION_GUARD, _check_real
from ssmkit.models import require_valid
from ssmkit.numerics import symmetrize

_LOG_2PI = float(np.log(2.0 * np.pi))


def reference_kalman_filter(model, obs):
    """The one-pass predict/update loop, computing every step in full."""
    require_valid(model)
    y = _check_real(model, obs)
    T = y.shape[0]
    d_x, d_y = model.d_x, model.d_y
    A, C, Q, R = model.A, model.C, model.Q, model.R
    eye = np.eye(d_x)

    filtered_means = np.empty((T, d_x))
    filtered_covs = np.empty((T, d_x, d_x))
    predicted_means = np.empty((T, d_x))
    predicted_covs = np.empty((T, d_x, d_x))

    mean_pred = model.mu0
    cov_pred = symmetrize(model.Sigma0)
    log_likelihood = 0.0
    log_increments = []
    for t in range(T):
        predicted_means[t] = mean_pred
        predicted_covs[t] = cov_pred

        innovation = y[t] - C @ mean_pred
        s = symmetrize(C @ cov_pred @ C.T + R)
        eigs = np.linalg.eigvalsh(s)
        if eigs[0] <= 0.0 or eigs[-1] / eigs[0] > CONDITION_GUARD:
            raise NumericalDegeneracyError(t + 1)
        chol = np.linalg.cholesky(s)
        # Solve S z = innovation and S^T K^T = (cov_pred C^T)^T via the factor.
        z = np.linalg.solve(chol, innovation)
        increment = -0.5 * (
            d_y * _LOG_2PI + 2.0 * np.sum(np.log(np.diag(chol))) + z @ z
        )
        log_increments.append(increment)
        log_likelihood += increment
        gain = np.linalg.solve(s, C @ cov_pred).T
        mean_filt = mean_pred + gain @ innovation
        j = eye - gain @ C
        cov_filt = symmetrize(j @ cov_pred @ j.T + gain @ R @ gain.T)
        filtered_means[t] = mean_filt
        filtered_covs[t] = cov_filt

        mean_pred = A @ mean_filt
        cov_pred = symmetrize(A @ cov_filt @ A.T + Q)
    return SimpleNamespace(
        filtered_means=filtered_means,
        filtered_covs=filtered_covs,
        predicted_means=predicted_means,
        predicted_covs=predicted_covs,
        log_increments=np.array(log_increments),
        log_likelihood=float(log_likelihood),
    )


def reference_rts_smoother(model, forward):
    """The backward loop, computing every gain and covariance in full."""
    require_valid(model)
    T = forward.filtered_means.shape[0]
    A = model.A
    smoothed_means = np.empty_like(forward.filtered_means)
    smoothed_covs = np.empty_like(forward.filtered_covs)
    smoothed_means[T - 1] = forward.filtered_means[T - 1]
    smoothed_covs[T - 1] = forward.filtered_covs[T - 1]
    pinv_steps: list[int] = []
    for t in range(T - 2, -1, -1):
        cov_filt = forward.filtered_covs[t]
        cov_pred_next = forward.predicted_covs[t + 1]
        cross = cov_filt @ A.T
        try:
            chol = np.linalg.cholesky(cov_pred_next)
            gain = np.linalg.solve(chol.T, np.linalg.solve(chol, cross.T)).T
        except np.linalg.LinAlgError:
            gain = cross @ np.linalg.pinv(cov_pred_next, rcond=1e-12)
            pinv_steps.append(t + 2)
        smoothed_means[t] = forward.filtered_means[t] + gain @ (
            smoothed_means[t + 1] - forward.predicted_means[t + 1]
        )
        smoothed_covs[t] = symmetrize(
            cov_filt + gain @ (smoothed_covs[t + 1] - cov_pred_next) @ gain.T
        )
    return SimpleNamespace(
        smoothed_means=smoothed_means,
        smoothed_covs=smoothed_covs,
        pinv_steps=tuple(reversed(pinv_steps)),
    )


SCALAR = LinearGaussianModel(
    A=[[0.9]], C=[[1.0]], Q=[[0.19]], R=[[0.5]], mu0=[0.0], Sigma0=[[1.0]]
)


def rotating_model(seed=26, d_x=6, d_y=3, rho=0.9):
    """A = rho * orthogonal; with seed 26 the predicted covariance first
    repeats near step 290, with period 58."""
    gen = np.random.default_rng(seed)
    q, _ = np.linalg.qr(gen.standard_normal((d_x, d_x)))
    c = gen.standard_normal((d_y, d_x))
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    return LinearGaussianModel(
        A=rho * q, C=c, Q=0.1 * np.eye(d_x), R=0.5 * np.eye(d_y),
        mu0=np.zeros(d_x), Sigma0=np.eye(d_x),
    )


# Q = 0 with an unobserved neutral state: from step 2 on the predicted
# covariance is diag(1, 0) exactly, so every smoother gain needs the
# pseudo-inverse.
SINGULAR_PREDICTION = LinearGaussianModel(
    A=[[1.0, 0.0], [0.0, 0.0]],
    C=[[0.0, 1.0]],
    Q=np.zeros((2, 2)),
    R=[[0.5]],
    mu0=[1.0, -1.0],
    Sigma0=np.eye(2),
)


def first_repeat(covs):
    """(step, period) of the first covariance equal bit for bit to an
    earlier one, or None."""
    seen = {}
    for t, cov in enumerate(covs):
        key = cov.tobytes()
        if key in seen:
            return t, t - seen[key]
        seen[key] = t
    return None


FILTER_ARRAYS = ("filtered_means", "filtered_covs", "predicted_means", "predicted_covs")
COMPARED_ARRAYS = FILTER_ARRAYS + ("log_increments",)


def assert_same_bytes(model, obs):
    ref = reference_kalman_filter(model, obs)
    got = kalman_filter(model, obs)
    for name in COMPARED_ARRAYS:
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
    assert np.float64(got.log_likelihood).tobytes() == np.float64(
        ref.log_likelihood
    ).tobytes()
    ref_smooth = reference_rts_smoother(model, ref)
    smooth = rts_smoother(model, got)
    assert smooth.smoothed_means.tobytes() == ref_smooth.smoothed_means.tobytes()
    assert smooth.smoothed_covs.tobytes() == ref_smooth.smoothed_covs.tobytes()
    assert smooth.pinv_steps == ref_smooth.pinv_steps
    return ref, ref_smooth


def simulated(model, T, seed):
    return simulate_lgssm(model, T, SeededGenerator(seed))[1]


@pytest.fixture(params=[1024, 3], ids=["default-block", "block-3"])
def block(request, monkeypatch):
    """Run with the default block size and with one that puts block
    boundaries inside short series."""
    monkeypatch.setattr(kalman, "_BLOCK", request.param)
    return request.param


@pytest.mark.usefixtures("block")
class TestMatchesPerStepRecursion:
    def test_scalar_fixed_point(self):
        obs = simulated(SCALAR, 300, 1)
        ref, _ = assert_same_bytes(SCALAR, obs)
        start, period = first_repeat(ref.predicted_covs)
        assert start < 100 and period == 1

    def test_rotating_model_past_its_cycle(self):
        model = rotating_model()
        obs = simulated(model, 700, 2)
        ref, _ = assert_same_bytes(model, obs)
        start, period = first_repeat(ref.predicted_covs)
        assert period > 1
        assert start + period < 700

    def test_series_longer_than_a_block(self):
        obs = simulated(SCALAR, 2500, 9)
        assert_same_bytes(SCALAR, obs)

    @pytest.mark.parametrize("T", [1, 2, 4, 50])
    def test_series_shorter_than_the_cycle(self, T):
        model = rotating_model()
        obs = simulated(model, T, 3)
        ref, _ = assert_same_bytes(model, obs)
        assert first_repeat(ref.predicted_covs) is None

    def test_pseudo_inverse_steps(self):
        obs = simulated(SINGULAR_PREDICTION, 200, 4)
        ref, ref_smooth = assert_same_bytes(SINGULAR_PREDICTION, obs)
        start, _ = first_repeat(ref.predicted_covs)
        assert start < 10
        assert ref_smooth.pinv_steps == tuple(range(2, 201))

    def test_degeneracy_raised_at_the_same_step(self):
        # The second state is forgotten at each step (A22 = Q22 = 0) and
        # observed through a tiny noise, so S loses rank at step 2.
        model = LinearGaussianModel(
            A=np.diag([0.9, 0.0]),
            C=np.eye(2),
            Q=np.diag([0.1, 0.0]),
            R=np.diag([1.0, 1e-13]),
            mu0=np.zeros(2),
            Sigma0=np.eye(2),
        )
        obs = ObservationSeries(np.zeros((5, 2)), kind="real")
        with pytest.raises(NumericalDegeneracyError) as ref_exc:
            reference_kalman_filter(model, obs)
        with pytest.raises(NumericalDegeneracyError) as exc:
            kalman_filter(model, obs)
        assert exc.value.time_index == ref_exc.value.time_index == 2

    def test_exactly_singular_innovation_covariance(self):
        # C P C^T swamps R in floating point, so S rounds to an exactly
        # singular matrix at step 1: the guard, not the solve, reports it.
        model = LinearGaussianModel(
            A=[[1.0]], C=[[1.0], [1.0]], Q=[[0.1]], R=np.eye(2),
            mu0=[0.0], Sigma0=[[1e20]],
        )
        obs = ObservationSeries(np.zeros((3, 2)), kind="real")
        with pytest.raises(NumericalDegeneracyError) as ref_exc:
            reference_kalman_filter(model, obs)
        with pytest.raises(NumericalDegeneracyError) as exc:
            kalman_filter(model, obs)
        assert exc.value.time_index == ref_exc.value.time_index == 1


@pytest.mark.usefixtures("block")
class TestSmootherOnHandBuiltSequences:
    def test_hand_built_sequence_with_repeats(self):
        # Two filter runs laid end to end: covariances repeat within each
        # half but the sequence as a whole is not one filter's cycle.
        a = reference_kalman_filter(SCALAR, simulated(SCALAR, 60, 5))
        b_model = LinearGaussianModel(
            A=[[0.5]], C=[[1.0]], Q=[[0.3]], R=[[0.2]], mu0=[1.0], Sigma0=[[2.0]]
        )
        b = reference_kalman_filter(b_model, simulated(b_model, 60, 6))
        forward = GaussianPosteriorSequence(
            *(
                np.concatenate([getattr(a, name), getattr(b, name), getattr(a, name)])
                for name in FILTER_ARRAYS
            ),
            log_increments=np.zeros(180),
            log_likelihood=0.0,
        )
        ref = reference_rts_smoother(SCALAR, forward)
        got = rts_smoother(SCALAR, forward)
        assert got.smoothed_means.tobytes() == ref.smoothed_means.tobytes()
        assert got.smoothed_covs.tobytes() == ref.smoothed_covs.tobytes()
        assert got.pinv_steps == ref.pinv_steps

    def test_singular_and_regular_predictions_mixed(self):
        # Pseudo-inverse steps in the middle of the sequence, between
        # Cholesky steps, and so inside a block.
        regular = LinearGaussianModel(
            A=[[0.9, 0.1], [0.0, 0.5]], C=[[0.0, 1.0]], Q=0.2 * np.eye(2),
            R=[[0.5]], mu0=[0.0, 0.0], Sigma0=np.eye(2),
        )
        a = reference_kalman_filter(regular, simulated(regular, 7, 10))
        b = reference_kalman_filter(
            SINGULAR_PREDICTION, simulated(SINGULAR_PREDICTION, 6, 11)
        )
        forward = GaussianPosteriorSequence(
            *(
                np.concatenate([getattr(a, name), getattr(b, name), getattr(a, name)])
                for name in FILTER_ARRAYS
            ),
            log_increments=np.zeros(20),
            log_likelihood=0.0,
        )
        ref = reference_rts_smoother(SINGULAR_PREDICTION, forward)
        got = rts_smoother(SINGULAR_PREDICTION, forward)
        assert got.smoothed_means.tobytes() == ref.smoothed_means.tobytes()
        assert got.smoothed_covs.tobytes() == ref.smoothed_covs.tobytes()
        assert got.pinv_steps == ref.pinv_steps
        assert ref.pinv_steps == tuple(range(9, 14))


class TestLogIncrements:
    def test_sequential_sum_is_the_log_likelihood(self):
        model = rotating_model()
        result = kalman_filter(model, simulated(model, 400, 7))
        total = 0.0
        for increment in result.log_increments:
            total += increment
        assert total == result.log_likelihood
        assert result.log_increments.shape == (400,)

    def test_increments_are_predictive_densities(self):
        model = rotating_model()
        obs = simulated(model, 100, 8)
        result = kalman_filter(model, obs)
        for t in range(100):
            want = gaussian_logpdf(
                obs.values[t],
                model.C @ result.predicted_means[t],
                model.C @ result.predicted_covs[t] @ model.C.T + model.R,
            )
            assert result.log_increments[t] == pytest.approx(want, rel=1e-12)
