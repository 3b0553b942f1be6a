"""The filter and smoother, with their batched checks, likelihood terms and
gains, against the plain per-step recursions, compared byte for byte.  The
scalar models (d_x = d_y = 1), which run the recursion on Python floats and
stop the variance recursion at its exact fixed point, are compared the same
way.  Larger models run the steady-state path, which freezes the covariance
recursion once it settles; the byte comparisons run them on the library's
per-step kernel (the per_step_loop fixture), and TestSteadyStatePath
compares the steady-state path with that kernel within a stated
tolerance."""

import warnings
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
from ssmkit import estimation, fit_mle, kalman
from ssmkit.kalman import CONDITION_GUARD, _check_rows
from ssmkit.models import require_valid
from ssmkit.numerics import symmetrize

_LOG_2PI = float(np.log(2.0 * np.pi))


def reference_kalman_filter(model, obs):
    """The one-pass predict/update loop, computing every step in full."""
    require_valid(model)
    y = _check_rows(obs, model.d_y)
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


def loop_moments(model, y):
    """The moment arrays of the library's per-step kernel, _moment_steps,
    run over the whole series."""
    arrays = kalman._moment_arrays(model, y.shape[0])
    kalman._moment_steps(model, y, arrays, 0, y.shape[0], model.mu0, symmetrize(model.Sigma0))
    return arrays


def loop_path(patch):
    """Put models with d > 1 on the per-step kernel: _steady_moments runs it
    over the whole series, and _steady_backward smooths no step, which
    leaves every step to the smoother's kernel.  Scalar models keep the
    Python-float path."""
    patch.setattr(kalman, "_steady_moments", lambda model, y: (loop_moments(model, y), len(y)))
    patch.setattr(
        kalman, "_steady_backward", lambda model, forward, *smoothed: len(forward.filtered_covs) - 1
    )


@pytest.fixture
def per_step_loop(monkeypatch):
    """Run models with d > 1 on the per-step kernel, which the byte
    comparisons hold to the plain recursion."""
    loop_path(monkeypatch)


@pytest.mark.usefixtures("block", "per_step_loop")
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


@pytest.mark.usefixtures("block", "per_step_loop")
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

    def test_pseudo_inverse_gains_off_the_axes(self):
        # Every other predicted covariance is indefinite along a rotated
        # axis, by -1e-14 of its variance: its Cholesky factor fails and the
        # pseudo-inverse drops that axis, so the gains are dense.  A
        # matrix-vector product rounds by the layout of its matrix, and
        # these gains keep the layout of the per-step product.
        model = LinearGaussianModel(
            A=[[0.9, 0.2], [-0.1, 0.7]], C=[[1.0, 0.5]], Q=0.2 * np.eye(2),
            R=[[0.5]], mu0=[0.0, 0.0], Sigma0=np.eye(2),
        )
        ref = reference_kalman_filter(model, simulated(model, 40, 3))
        c, s = np.cos(0.7), np.sin(0.7)
        rotation = np.array([[c, -s], [s, c]])
        predicted_covs = ref.predicted_covs.copy()
        for t in range(1, 40, 2):
            top = np.linalg.eigvalsh(predicted_covs[t])[1]
            predicted_covs[t] = symmetrize(rotation @ np.diag([top, -1e-14 * top]) @ rotation.T)
        forward = GaussianPosteriorSequence(
            ref.filtered_means, ref.filtered_covs, ref.predicted_means, predicted_covs,
            log_increments=np.zeros(40), log_likelihood=0.0,
        )
        want = reference_rts_smoother(model, forward)
        got = rts_smoother(model, forward)
        assert want.pinv_steps == tuple(range(2, 41, 2))
        assert got.smoothed_means.tobytes() == want.smoothed_means.tobytes()
        assert got.smoothed_covs.tobytes() == want.smoothed_covs.tobytes()
        assert got.pinv_steps == want.pinv_steps


# Tolerance of the steady-state path against the per-step loop, relative to
# each array's largest magnitude.
STEADY_RTOL = 1e-12


def slow_mixing_model():
    """rho = 0.999 and observation noise 1000 times the state noise: the
    covariance settles only after several hundred steps, so the freeze
    rule stops furthest from the fixed point."""
    model = rotating_model(seed=5, d_x=3, d_y=2, rho=0.999)
    return LinearGaussianModel(
        A=model.A, C=model.C, Q=0.01 * np.eye(3), R=10.0 * np.eye(2),
        mu0=np.zeros(3), Sigma0=np.eye(3),
    )


@pytest.fixture
def freezes(monkeypatch):
    """What the steady-state path did in each run: per filter run, the first
    step whose covariances it copied (T where they never settled); per
    smoother run, the first step it left to the block code (T - 1 where it
    smoothed none)."""
    seen = {"filter": [], "smoother": []}
    steady_moments, steady_backward = kalman._steady_moments, kalman._steady_backward

    def filter_spy(model, y):
        arrays, frozen = steady_moments(model, y)
        seen["filter"].append(frozen)
        return arrays, frozen

    def smoother_spy(*args):
        seen["smoother"].append(steady_backward(*args))
        return seen["smoother"][-1]

    monkeypatch.setattr(kalman, "_steady_moments", filter_spy)
    monkeypatch.setattr(kalman, "_steady_backward", smoother_spy)
    return seen


def on_the_loop(model, obs):
    """kalman_filter and rts_smoother on the per-step kernel."""
    with pytest.MonkeyPatch.context() as patch:
        loop_path(patch)
        forward = kalman_filter(model, obs)
        return forward, rts_smoother(model, forward)


def assert_close_to_the_loop(model, obs):
    """The steady-state outputs within STEADY_RTOL of the loop's, with NaN
    where the loop has NaN; returns them."""
    forward = kalman_filter(model, obs)
    smooth = rts_smoother(model, forward)
    ref, ref_smooth = on_the_loop(model, obs)
    pairs = [(getattr(forward, name), getattr(ref, name)) for name in COMPARED_ARRAYS]
    pairs += [
        (np.array(forward.log_likelihood), np.array(ref.log_likelihood)),
        (smooth.smoothed_means, ref_smooth.smoothed_means),
        (smooth.smoothed_covs, ref_smooth.smoothed_covs),
    ]
    for got, want in pairs:
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        if not nan.all():
            scale = np.abs(want[~nan]).max()
            assert np.abs(got[~nan] - want[~nan]).max() <= STEADY_RTOL * scale
    assert smooth.pinv_steps == ref_smooth.pinv_steps
    assert smooth.smoothed_means[-1].tobytes() == forward.filtered_means[-1].tobytes()
    return forward, smooth


class TestSteadyStatePath:
    @pytest.mark.parametrize(
        "model, settles_after",
        [(rotating_model(), 50), (slow_mixing_model(), 500)],
        ids=["d6", "slow-mixing"],
    )
    def test_within_rtol_of_the_loop(self, freezes, model, settles_after):
        obs = simulated(model, 10_000, 21)
        forward, smooth = assert_close_to_the_loop(model, obs)
        [frozen] = freezes["filter"]
        assert settles_after < frozen < 10_000
        assert freezes["smoother"] == [frozen - 1]
        # All six moment arrays, innovations and their covariances included.
        steady, _ = kalman._steady_moments(model, obs.values)
        for got, want in zip(steady, loop_moments(model, obs.values)):
            assert np.abs(got - want).max() <= STEADY_RTOL * np.abs(want).max()
        # The covariances are frozen from there on, and the smoothed ones
        # settle backward from T - 1.
        for covs in (forward.predicted_covs, forward.filtered_covs):
            assert (covs[frozen:] == covs[frozen]).all()
        assert (smooth.smoothed_covs[frozen:5000] == smooth.smoothed_covs[frozen]).all()

    def test_never_settling_model_runs_the_loop(self, freezes):
        # An unobserved mode that grows with no noise: its variance grows by
        # 1.02**2 each step and never settles.
        model = LinearGaussianModel(
            A=np.diag([1.02, 0.5]), C=[[0.0, 1.0]], Q=np.diag([0.0, 0.1]),
            R=[[0.5]], mu0=[1.0, 0.0], Sigma0=np.eye(2),
        )
        assert_same_bytes(model, simulated(model, 500, 22))
        assert freezes == {"filter": [500], "smoother": [499]}

    def test_series_shorter_than_the_freeze_step(self, freezes):
        model = rotating_model()
        y = simulated(model, 400, 23).values
        kalman_filter(model, ObservationSeries(y, kind="real"))
        [frozen] = freezes["filter"]
        assert 50 < frozen < 400
        # Up to T = frozen no step copies another, so the loop is all that
        # runs; one step more and the last step is a copy.
        lengths = [1, 2, kalman._FREEZE_CHECK + 1, frozen - 1, frozen]
        for T in lengths:
            assert_same_bytes(model, ObservationSeries(y[:T], kind="real"))
        obs = ObservationSeries(y[: frozen + 1], kind="real")
        forward, _ = assert_close_to_the_loop(model, obs)
        assert forward.predicted_covs[-1].tobytes() == forward.predicted_covs[-2].tobytes()
        assert freezes["filter"] == [frozen] + lengths + [frozen]

    @pytest.mark.parametrize("short_by", [None, 1e-14], ids=["step-40", "near-freeze"])
    def test_degeneracy_raised_at_the_same_step(self, freezes, short_by):
        # The first variance settles from 0 while the second is forgotten at
        # each step and observed through a noise r: the condition number of
        # S grows towards its limit and crosses CONDITION_GUARD at a step
        # set by r, before the covariance freezes.
        def model(r):
            return LinearGaussianModel(
                A=np.diag([0.99, 0.0]), C=np.eye(2), Q=np.diag([0.01, 0.0]),
                R=np.diag([1.0, r]), mu0=np.zeros(2), Sigma0=np.diag([0.0, 1.0]),
            )

        y = np.zeros((400, 2))
        s = loop_moments(model(1e-3), y)[5][:, 0, 0]
        if short_by is None:
            r = 0.5 * (s[38] + s[39]) / CONDITION_GUARD
        else:
            r = s[-1] / CONDITION_GUARD * (1.0 - short_by)
        step = assert_same_failure(model(r), ObservationSeries(y, kind="real"))
        if short_by is None:
            assert step == 40
        [frozen] = freezes["filter"]
        assert kalman._FREEZE_CHECK < step < frozen < 400

    def test_singular_frozen_prediction_keeps_the_pseudo_inverse(self, freezes):
        obs = simulated(SINGULAR_PREDICTION, 200, 24)
        _, smooth = assert_close_to_the_loop(SINGULAR_PREDICTION, obs)
        ref_smooth = reference_rts_smoother(
            SINGULAR_PREDICTION, reference_kalman_filter(SINGULAR_PREDICTION, obs)
        )
        assert smooth.pinv_steps == ref_smooth.pinv_steps == tuple(range(2, 201))
        # The filter froze, and the smoother left every step to the blocks.
        assert freezes["filter"][0] < 10
        assert freezes["smoother"] == [199]

    @pytest.mark.parametrize("step", [10, 300], ids=["before-freeze", "after-freeze"])
    def test_nan_observation_gives_nan_as_the_loop_does(self, freezes, step):
        # ObservationSeries rejects NaN and keeps its values read-only, so
        # the NaN reaches the filter in a plain namespace that bypasses it.
        model = rotating_model()
        values = simulated(model, 400, 25).values.copy()
        values[step, 1] = np.nan
        obs = SimpleNamespace(values=values, kind="real")
        forward, smooth = assert_close_to_the_loop(model, obs)
        [frozen] = freezes["filter"]
        assert frozen < 300
        assert freezes["smoother"] == [frozen - 1]
        assert np.isnan(forward.filtered_means[step:]).all()
        assert not np.isnan(forward.filtered_means[:step]).any()
        assert np.isnan(forward.log_likelihood)
        assert np.isnan(smooth.smoothed_means).all()


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


def batched_log_increments(innovation_covs, innovations):
    """_log_increments as batched LAPACK calls for any d_y: the guard, the
    Cholesky factor, its log-determinant and the triangular solve."""
    T, d_y = innovations.shape
    out = np.empty(T)
    for lo in range(0, T, kalman._BLOCK):
        hi = min(lo + kalman._BLOCK, T)
        s = innovation_covs[lo:hi]
        kalman._guard(s, lo)
        chol = np.linalg.cholesky(s)
        log_det = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
        z = np.linalg.solve(chol, innovations[lo:hi, :, None])
        out[lo:hi] = -0.5 * (
            d_y * _LOG_2PI + log_det + (z.transpose(0, 2, 1) @ z)[:, 0, 0]
        )
    return out


class TestScalarLogIncrements:
    """The closed form for d_y = 1 against the batched calls."""

    def test_random_draws(self):
        rng = np.random.default_rng(61)
        n = 20_000
        s = np.exp(rng.uniform(-40.0, 40.0, n)) * rng.random(n)
        v = rng.standard_normal(n) * np.exp(rng.uniform(-20.0, 20.0, n))
        got = kalman._log_increments(s[:, None, None], v[:, None])
        assert got.tobytes() == batched_log_increments(s[:, None, None], v[:, None]).tobytes()

    def test_extreme_values(self):
        s = np.array([np.nan, np.inf, 1e-310, 5e-324, 1e308, 1.0, 2.0, 1.0])
        v = np.array([1.0, 2.0, 1e-300, 1.0, 1e200, np.nan, np.inf, 0.0])
        with np.errstate(over="ignore"):
            got = kalman._log_increments(s[:, None, None], v[:, None])
            want = batched_log_increments(s[:, None, None], v[:, None])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [0.0, -1e-300, -2.0, -np.inf])
    @pytest.mark.parametrize("step", [0, 1500, 2999])
    def test_guard_at_the_same_step(self, bad, step):
        s = np.full(3000, 0.7)
        s[step] = bad
        s[-1:step:-1] = -1.0  # later failures must not be reported first
        v = np.ones(3000)
        with pytest.raises(NumericalDegeneracyError) as expected:
            batched_log_increments(s[:, None, None], v[:, None])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalDegeneracyError) as raised:
                kalman._log_increments(s[:, None, None], v[:, None])
        assert raised.value.time_index == expected.value.time_index == step + 1


def random_scalar_model(rng):
    """Signs and magnitudes over several decades; Q and Sigma0 are zero now
    and then."""

    def sign():
        return float(rng.choice([-1.0, 1.0]))

    def decades(lo, hi):
        return 10.0 ** rng.uniform(lo, hi)

    return LinearGaussianModel(
        A=[[sign() * decades(-3, 0.1)]],
        C=[[sign() * decades(-3, 1)]],
        Q=[[0.0 if rng.random() < 0.1 else decades(-6, 1)]],
        R=[[decades(-4, 2)]],
        mu0=[sign() * decades(-3, 2)],
        Sigma0=[[0.0 if rng.random() < 0.1 else decades(-4, 2)]],
    )


def scalar(A=0.9, C=1.0, Q=0.19, R=0.5, mu0=0.0, Sigma0=1.0):
    return LinearGaussianModel(
        A=[[A]], C=[[C]], Q=[[Q]], R=[[R]], mu0=[mu0], Sigma0=[[Sigma0]]
    )


def zeros(T):
    return ObservationSeries(np.zeros((T, 1)), kind="real")


def assert_same_failure(model, obs):
    """Both filters raise NumericalDegeneracyError at the same step; returns
    that step."""
    with pytest.raises(NumericalDegeneracyError) as ref_exc:
        reference_kalman_filter(model, obs)
    with pytest.raises(NumericalDegeneracyError) as exc:
        kalman_filter(model, obs)
    assert exc.value.time_index == ref_exc.value.time_index
    return exc.value.time_index


@pytest.mark.usefixtures("block")
class TestScalarPath:
    @pytest.mark.parametrize("chunk", range(4))
    def test_random_models(self, chunk):
        rng = np.random.default_rng([5, chunk])
        for _ in range(75):
            model = random_scalar_model(rng)
            T = int(rng.integers(1, 60))
            assert_same_bytes(model, simulated(model, T, int(rng.integers(1 << 30))))

    @pytest.mark.parametrize("T", [1, 2, 2500])
    def test_series_lengths(self, T):
        assert_same_bytes(SCALAR, simulated(SCALAR, T, 12))

    def test_unobserved_state(self):
        model = scalar(C=0.0, mu0=2.0)
        assert_same_bytes(model, simulated(model, 40, 13))

    def test_every_smoother_step_on_the_pseudo_inverse(self):
        # A = Q = 0: from step 2 on the predicted variance is exactly 0.
        model = scalar(A=0.0, Q=0.0, mu0=1.0)
        _, ref_smooth = assert_same_bytes(model, simulated(model, 30, 14))
        assert ref_smooth.pinv_steps == tuple(range(2, 31))

    def test_pseudo_inverse_of_negative_predicted_variances(self):
        # Sigma0 = 0 and a slightly negative Q (validation allows down to
        # -1e-10) make every predicted variance from step 2 on negative:
        # its Cholesky factor fails and the pseudo-inverse gives a nonzero
        # gain.
        model = scalar(A=1.0, Q=-1e-10, R=1.0, Sigma0=0.0)
        obs = ObservationSeries(np.linspace(-1.0, 1.0, 30)[:, None], kind="real")
        ref, ref_smooth = assert_same_bytes(model, obs)
        assert (ref.predicted_covs[1:] < 0.0).all()
        assert ref_smooth.pinv_steps == tuple(range(2, 31))
        assert (ref_smooth.smoothed_means[:-1] != ref.filtered_means[:-1]).any()

    def test_zero_initial_variance(self):
        model = scalar(Sigma0=0.0, mu0=-1.5)
        assert_same_bytes(model, simulated(model, 30, 15))

    @pytest.mark.parametrize("R, step", [(1e-12, 2), (3e-10, 6), (3e-9, 18)])
    def test_guard_fails_at_a_later_step(self, R, step):
        # A slightly negative Q (validation allows down to -1e-10) drives
        # the predicted variance below zero once the filter has shrunk it
        # to the order of R, and the innovation variance follows.
        model = scalar(A=1.0, Q=-1e-10, R=R)
        assert assert_same_failure(model, zeros(40)) == step

    def test_exactly_zero_innovation_variance_at_step_1(self):
        # C P C^T + R = -1e-11 + 1e-11 is exactly 0: the guard reports it
        # before the gain divides by it.
        model = scalar(Sigma0=-1e-11, R=1e-11)
        assert assert_same_failure(model, zeros(3)) == 1

    def test_exactly_zero_innovation_variance_at_a_later_step(self):
        model = scalar(A=0.0, Q=-1e-11, R=1e-11)
        assert assert_same_failure(model, zeros(5)) == 2

    @pytest.mark.parametrize("A", [1.05, -1.2])
    def test_explosive_state_over_a_long_series(self, A):
        model = scalar(A=A)
        obs = simulated(model, 2500, 16)
        assert np.abs(obs.values).max() > 1e50
        assert_same_bytes(model, obs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "model, T",
        [
            # Unobserved and explosive: the predicted variance overflows
            # near step 870 and is NaN from then on.
            (scalar(A=1.5, C=0.0, mu0=1.0), 1000),
            # C^2 P overflows, so S is inf at every step while the gain
            # C P / S is 0 and every other value stays finite.
            (scalar(C=1e160), 5),
        ],
        ids=["variance-overflow", "innovation-variance-overflow"],
    )
    def test_overflow_gives_the_numpy_loop_warnings(self, monkeypatch, model, T):
        # The scalar path hands a block with a non-finite value to the
        # numpy kernels, so the values and the warnings are theirs.
        obs = zeros(T)
        ref, _ = assert_same_bytes(model, obs)
        assert not np.isfinite(ref.predicted_covs[-1, 0, 0] * ref.log_likelihood)

        def run():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rts_smoother(model, kalman_filter(model, obs))
            return [str(w.message) for w in caught]

        got = run()
        monkeypatch.setattr(kalman, "_scalar_moments", loop_moments)
        monkeypatch.setattr(kalman, "_scalar_backward", lambda *block: False)
        assert got and got == run()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_failing_block_runs_on_the_kernel_from_its_start(self, monkeypatch, block):
        # Unobserved and explosive: the predicted variance overflows near
        # step 1055, after the first block at either block size, and every
        # value from there on is inf or NaN.
        model = scalar(A=1.4, C=0.0, mu0=1.0)
        obs = zeros(1200)
        loop = loop_moments(model, obs.values)
        bad = int(np.flatnonzero(~np.isfinite(loop[3][:, 0, 0]))[0])
        assert block <= bad and bad % block, "overflow after the first block, not at a block start"
        first = bad - bad % block

        def run():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                forward = kalman_filter(model, obs)
            return forward, [(w.category, str(w.message)) for w in caught]

        blocks = []
        moment_steps = kalman._moment_steps

        def spy(model, y, arrays, lo, hi, *moments):
            blocks.append((lo, hi))
            return moment_steps(model, y, arrays, lo, hi, *moments)

        monkeypatch.setattr(kalman, "_moment_steps", spy)
        got, got_warnings = run()
        assert blocks == [(lo, min(lo + block, 1200)) for lo in range(first, 1200, block)]
        monkeypatch.setattr(kalman, "_scalar_moments", loop_moments)
        want, want_warnings = run()
        assert blocks[-1] == (0, 1200)
        for name in COMPARED_ARRAYS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert np.isnan(got.log_likelihood) and np.isnan(want.log_likelihood)
        assert got_warnings and got_warnings == want_warnings
        assert all(category is RuntimeWarning for category, _ in got_warnings)

    @pytest.mark.parametrize("A", [-1e-200, 1e-200])
    @pytest.mark.parametrize("mu0", [-1e-150, 1e-150])
    def test_means_that_underflow_to_signed_zeros(self, A, mu0):
        # A * mean underflows; the product of a matmul is 0 + a*b, so a
        # zero comes out +0.0 where a bare product would give -0.0.
        model = scalar(A=A, C=-1e-160, mu0=mu0, Q=1e-300, R=1.0)
        ref, _ = assert_same_bytes(model, zeros(6))
        assert not np.signbit(ref.predicted_means[1:]).any()
        assert (ref.predicted_means[1:] == 0.0).all()


def freeze_step(ref):
    """The first step whose predicted variance repeats the step before it
    bit for bit, or None where none does."""
    b = ref.predicted_covs[:, 0, 0].view(np.int64)
    repeats = np.flatnonzero(b[1:] == b[:-1])
    return int(repeats[0]) + 1 if repeats.size else None


def frozen_spans(f, T, block):
    """The (lo, hi) spans the scalar filter runs with frozen variances when
    they freeze at step f: the rest of f's block, then each later block."""
    if f is None or f >= T:
        return []
    return [(max(lo, f), min(lo + block, T)) for lo in range(f - f % block, T, block)]


@pytest.fixture
def frozen_means(monkeypatch):
    """The (lo, hi) of every _scalar_means call: the spans the scalar filter
    ran with its variances frozen, the mean update alone."""
    calls = []
    scalar_means = kalman._scalar_means

    def spy(a, c, g, values, pm, lo, hi, m):
        calls.append((lo, hi))
        return scalar_means(a, c, g, values, pm, lo, hi, m)

    monkeypatch.setattr(kalman, "_scalar_means", spy)
    return calls


# Scalar models by where their variances freeze for each block size: step
# 2, 6 and 29 for A = 1e-9, 0.02 and 0.9; steps 1024 and 1045 for a random
# walk whose variance settles slowly.
FREEZE_CASES = {
    (3, "first-block"): (scalar(A=1e-9), 2),
    (3, "later-block"): (SCALAR, 29),
    (3, "block-boundary"): (scalar(A=0.02), 6),
    (1024, "first-block"): (SCALAR, 29),
    (1024, "later-block"): (scalar(A=1.0, Q=2.62e-4, R=1.0), 1045),
    (1024, "block-boundary"): (scalar(A=1.0, Q=2.615e-4, R=1.0), 1024),
}

# The variance of this model ends in a cycle of period 2 in its last bit,
# so it never freezes.
TWO_CYCLE = scalar(
    A=0.5369782826068812, C=-0.5375954858017445, Q=5.87219477461632e-05,
    R=0.0002020922025176783, Sigma0=0.008067042737072708,
)


@pytest.mark.usefixtures("block")
class TestScalarFixedPoint:
    """The scalar filter stops its variance recursion where a predicted
    variance repeats the step before it bit for bit, and the smoother stops
    its own on the repeated suffix; the outputs keep the full recursion's
    bytes."""

    @pytest.mark.parametrize("where", ["first-block", "later-block", "block-boundary"])
    def test_freeze_against_the_blocks(self, block, frozen_means, where):
        model, f = FREEZE_CASES[block, where]
        T = f + 2 * block + 5
        ref, _ = assert_same_bytes(model, simulated(model, T, 31))
        assert freeze_step(ref) == f
        assert {"first-block": f < block, "later-block": f > block and f % block,
                "block-boundary": f % block == 0}[where]
        # The frozen spans ran the mean update alone, so the fixed point was
        # found and the full recursion did not run past it.
        assert frozen_means == frozen_spans(f, T, block)

    @pytest.mark.parametrize("model, f", [(SCALAR, 29), (scalar(A=0.02), 6)], ids=["f29", "f6"])
    @pytest.mark.parametrize("past", [-1, 0, 1, 2])
    def test_series_ending_around_the_freeze(self, block, frozen_means, model, f, past):
        obs = simulated(model, f + past, 32)
        ref, _ = assert_same_bytes(model, obs)
        assert freeze_step(ref) == (f if past > 0 else None)
        assert frozen_means == frozen_spans(f, f + past, block)

    def test_two_cycle_never_freezes(self, frozen_means):
        ref, _ = assert_same_bytes(TWO_CYCLE, simulated(TWO_CYCLE, 400, 33))
        assert first_repeat(ref.predicted_covs)[1] == 2
        assert freeze_step(ref) is None and frozen_means == []

    def test_negative_zero_initial_variance(self, block, frozen_means):
        # The variance is -0.0 at step 0 and +0.0 from step 1 on: equal
        # floats, but step 1 does not repeat step 0 bit for bit.
        model = scalar(Q=0.0, Sigma0=-0.0)
        ref, _ = assert_same_bytes(model, simulated(model, 40, 34))
        assert np.signbit(ref.predicted_covs[0, 0, 0])
        assert (ref.predicted_covs[1:] == 0.0).all()
        assert freeze_step(ref) == 2
        assert frozen_means == frozen_spans(2, 40, block)

    def test_nan_observation_after_the_freeze(self, block, frozen_means, monkeypatch):
        # ObservationSeries rejects NaN, so it comes in a plain namespace;
        # its blocks run again on the kernel, values and warnings both.
        values = simulated(SCALAR, 400, 35).values.copy()
        values[300, 0] = np.nan
        obs = SimpleNamespace(values=values, kind="real")

        def run():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                forward = kalman_filter(SCALAR, obs)
                smooth = rts_smoother(SCALAR, forward)
            return forward, smooth, [(w.category, str(w.message)) for w in caught]

        got, got_smooth, got_warnings = run()
        assert frozen_means[0] == frozen_spans(29, 400, block)[0]
        assert np.isnan(got.filtered_means[300:]).all()
        assert not np.isnan(got.filtered_means[:300]).any()
        assert np.isnan(got_smooth.smoothed_means).all()
        monkeypatch.setattr(kalman, "_scalar_moments", loop_moments)
        monkeypatch.setattr(kalman, "_scalar_backward", lambda *block: False)
        want, want_smooth, want_warnings = run()
        for name in COMPARED_ARRAYS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got_smooth.smoothed_means.tobytes() == want_smooth.smoothed_means.tobytes()
        assert got_smooth.smoothed_covs.tobytes() == want_smooth.smoothed_covs.tobytes()
        assert got_warnings == want_warnings


@pytest.mark.parametrize("chunk", range(4))
def test_random_scalar_models_over_long_series(chunk):
    # T is log-uniform on [100, 3000]: most models freeze within their
    # series and some long before its end.
    rng = np.random.default_rng([26, chunk])
    for _ in range(50):
        model = random_scalar_model(rng)
        T = int(np.exp(rng.uniform(np.log(100), np.log(3000))))
        assert_same_bytes(model, simulated(model, T, int(rng.integers(1 << 30))))


@pytest.fixture
def scalar_suffixes(monkeypatch):
    """The first step _scalar_steady_backward smoothed in each smoother run
    (T - 1 where it smoothed none)."""
    seen = []
    steady = kalman._scalar_steady_backward

    def spy(*args):
        seen.append(steady(*args))
        return seen[-1]

    monkeypatch.setattr(kalman, "_scalar_steady_backward", spy)
    return seen


def repeated_suffix(model, T, start, cov_filt, cov_pred):
    """A reference filter run of T steps whose filtered and predicted
    variances are cov_filt and cov_pred from step start on."""
    ref = reference_kalman_filter(model, simulated(model, T, 36))
    filtered_covs, predicted_covs = ref.filtered_covs.copy(), ref.predicted_covs.copy()
    filtered_covs[start:] = cov_filt
    predicted_covs[start:] = cov_pred
    return GaussianPosteriorSequence(
        ref.filtered_means, filtered_covs, ref.predicted_means, predicted_covs,
        log_increments=np.zeros(T), log_likelihood=0.0,
    )


@pytest.mark.usefixtures("block")
class TestScalarSmootherSuffix:
    """The float suffix of the scalar smoother against the reference
    smoother, on hand-built float64 sequences."""

    def assert_same_smoothing(self, model, forward):
        want = reference_rts_smoother(model, forward)
        got = rts_smoother(model, forward)
        assert got.smoothed_means.tobytes() == want.smoothed_means.tobytes()
        assert got.smoothed_covs.tobytes() == want.smoothed_covs.tobytes()
        assert got.pinv_steps == want.pinv_steps
        return got

    def test_smoothed_variance_reaches_a_fixed_point(self, scalar_suffixes):
        forward = repeated_suffix(SCALAR, 300, 40, 0.3, 0.5)
        got = self.assert_same_smoothing(SCALAR, forward)
        assert scalar_suffixes == [40]
        covs = got.smoothed_covs[40:-1, 0, 0]
        assert first_repeat(covs[::-1, None])[1] == 1
        assert (covs[:200] == covs[0]).all()

    def test_smoothed_variance_never_repeats(self, scalar_suffixes):
        # The gain is just below 1, so the smoothed variance is still moving
        # at step 0.  It cannot cycle instead: each operation of its map is
        # monotone and the gain enters squared, so the map is nondecreasing.
        model = scalar(A=1.0)
        forward = repeated_suffix(model, 300, 0, 1.0, 1.0001)
        got = self.assert_same_smoothing(model, forward)
        assert scalar_suffixes == [0]
        assert first_repeat(got.smoothed_covs) is None

    def test_zero_predicted_variance_keeps_the_pseudo_inverse(self, scalar_suffixes):
        forward = repeated_suffix(SCALAR, 100, 20, 0.3, 0.0)
        got = self.assert_same_smoothing(SCALAR, forward)
        assert scalar_suffixes == [99]
        assert got.pinv_steps == tuple(range(21, 101))

    def test_vector_observation_model(self, freezes, scalar_suffixes):
        # d_x = 1 and d_y = 2: the filter freezes by the 1e-15 rule, and the
        # smoother takes the float suffix from the step the filter copies.
        model = LinearGaussianModel(
            A=[[0.9]], C=[[1.0], [0.5]], Q=[[0.19]], R=0.5 * np.eye(2),
            mu0=[0.0], Sigma0=[[1.0]],
        )
        forward = kalman_filter(model, simulated(model, 500, 37))
        [frozen] = freezes["filter"]
        assert frozen < 100
        self.assert_same_smoothing(model, forward)
        assert scalar_suffixes == [frozen - 1]
        assert freezes["smoother"] == []


@pytest.mark.usefixtures("block")
def test_scalar_smoother_signed_zeros():
    # A hand-built sequence whose filtered means are -0.0: the gain times
    # the correction underflows to -0.0, and the 0 + a*b of a matmul makes
    # the smoothed means +0.0.
    T = 8
    forward = GaussianPosteriorSequence(
        filtered_means=np.full((T, 1), -0.0),
        filtered_covs=np.full((T, 1, 1), 1e-300),
        predicted_means=np.full((T, 1), 1e-100),
        predicted_covs=np.ones((T, 1, 1)),
        log_increments=np.zeros(T),
        log_likelihood=0.0,
    )
    ref = reference_rts_smoother(SCALAR, forward)
    got = rts_smoother(SCALAR, forward)
    assert not np.signbit(ref.smoothed_means[:-1]).any()
    assert got.smoothed_means.tobytes() == ref.smoothed_means.tobytes()
    assert got.smoothed_covs.tobytes() == ref.smoothed_covs.tobytes()


def test_scalar_smoother_on_a_single_precision_sequence():
    # The smoothed arrays take the sequence's dtype, so each step reads
    # back a rounded value; the numpy loop does that, and runs here.
    ref = reference_kalman_filter(SCALAR, simulated(SCALAR, 50, 3))
    forward = GaussianPosteriorSequence(
        *(getattr(ref, name).astype(np.float32) for name in FILTER_ARRAYS),
        log_increments=np.zeros(50),
        log_likelihood=0.0,
    )
    expected = reference_rts_smoother(SCALAR, forward)
    got = rts_smoother(SCALAR, forward)
    assert got.smoothed_means.dtype == np.float32
    assert got.smoothed_means.tobytes() == expected.smoothed_means.tobytes()
    assert got.smoothed_covs.tobytes() == expected.smoothed_covs.tobytes()


def _fit_mle_lg_runs():
    """The (R, mu0) and (A, Q, R) fits of a scalar series of 300 steps, with
    the benchmark's budgets of 20 and 40 accepted steps; the score reads the
    filter's predicted moments, so those must match too."""
    _, obs = simulate_lgssm(SCALAR, 300, SeededGenerator(17))
    r_mu0 = scalar(R=1.0, mu0=1.0)
    a_q_r = scalar(A=0.5, Q=0.5, R=1.0)
    return [
        fit_mle(r_mu0, obs, tol=1e-6, max_iter=20, free_blocks=("R", "mu0")),
        fit_mle(a_q_r, obs, tol=1e-6, max_iter=40, free_blocks=("A", "Q", "R")),
    ]


def test_fit_mle_equals_a_fit_through_the_reference_filter(monkeypatch):
    fast = _fit_mle_lg_runs()
    monkeypatch.setattr(estimation, "kalman_filter", reference_kalman_filter)
    slow = _fit_mle_lg_runs()
    for (fitted, report), (ref_fitted, ref_report) in zip(fast, slow):
        assert report.argmin.tobytes() == ref_report.argmin.tobytes()
        assert report.final_value == ref_report.final_value
        assert report.iterations == ref_report.iterations
        assert report.converged == ref_report.converged
        assert report.simplex_spread == ref_report.simplex_spread
        for name in ("A", "C", "Q", "R", "mu0", "Sigma0"):
            assert getattr(fitted, name).tobytes() == getattr(ref_fitted, name).tobytes()
