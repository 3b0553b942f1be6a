"""Coordinate transforms, the simplex optimizer, and likelihood fitting."""

import math

import numpy as np
import pytest

from ssmkit import (
    BoundaryParameterError,
    DiscreteHMM,
    LinearGaussianModel,
    ObservationSeries,
    OptimizerReport,
    ParameterVector,
    SeededGenerator,
    SimplexInitError,
    exact_posterior_enumeration,
    fit_em,
    fit_mle,
    forward_filter,
    nelder_mead,
    negative_loglik,
    pack,
    simulate_hmm,
    unpack,
)

BENCH = DiscreteHMM([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[0.8, 0.2], [0.3, 0.7]])


def sym(values):
    return ObservationSeries(values, kind="symbolic")


def real(values):
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return ObservationSeries(arr, kind="real")


def random_interior_hmm(rng, k, m):
    def rows(n, width):
        raw = rng.exponential(size=(n, width)) + 0.05
        return raw / raw.sum(axis=1, keepdims=True)

    return DiscreteHMM(rows(1, k)[0], rows(k, k), rows(k, m))


def random_interior_lgssm(rng, d_x, d_y):
    def spd(d):
        b = rng.normal(size=(d, d))
        return b @ b.T + 0.2 * np.eye(d)

    return LinearGaussianModel(
        A=rng.normal(size=(d_x, d_x)) * 0.4,
        C=rng.normal(size=(d_y, d_x)),
        Q=spd(d_x),
        R=spd(d_y),
        mu0=rng.normal(size=d_x),
        Sigma0=spd(d_x),
    )


class TestCoordinates:
    def test_even_row_maps_to_zero(self):
        m = DiscreteHMM([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[0.8, 0.2], [0.3, 0.7]])
        theta = pack(m)
        assert theta.values[0] == pytest.approx(0.0, abs=1e-15)
        assert theta.family == "discrete-hmm"
        assert theta.shape == (2, 2)
        assert theta.values.shape == (5,)

    def test_scalar_variance_logs_its_root(self):
        m = LinearGaussianModel(
            A=[[0.9]], C=[[1.0]], Q=[[0.5]], R=[[0.25]], mu0=[0.3], Sigma0=[[1.0]]
        )
        theta = pack(m)
        # Layout: A, C, chol(Q), chol(R), mu0, chol(Sigma0).
        np.testing.assert_allclose(
            theta.values,
            [0.9, 1.0, math.log(math.sqrt(0.5)), math.log(0.5), 0.3, 0.0],
            atol=1e-12,
        )
        assert theta.family == "linear-gaussian"

    def test_hmm_round_trips(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            m = int(rng.integers(2, 5))
            model = random_interior_hmm(rng, k, m)
            back = unpack(pack(model))
            np.testing.assert_allclose(back.initial, model.initial, atol=1e-10)
            np.testing.assert_allclose(back.transition, model.transition, atol=1e-10)
            np.testing.assert_allclose(back.emission, model.emission, atol=1e-10)

    def test_lgssm_round_trips(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            d_x = int(rng.integers(1, 4))
            d_y = int(rng.integers(1, 4))
            model = random_interior_lgssm(rng, d_x, d_y)
            back = unpack(pack(model))
            for name in ("A", "C", "Q", "R", "mu0", "Sigma0"):
                np.testing.assert_allclose(
                    getattr(back, name), getattr(model, name), atol=1e-10
                )

    def test_unpack_always_valid(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            theta = ParameterVector(
                rng.normal(size=5) * 3.0, "discrete-hmm", (2, 2)
            )
            model = unpack(theta)
            np.testing.assert_allclose(model.transition.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(model.transition > 0)

    def test_zero_probability_is_boundary(self):
        m = DiscreteHMM([1.0, 0.0], [[0.9, 0.1], [0.2, 0.8]], [[0.8, 0.2], [0.3, 0.7]])
        with pytest.raises(BoundaryParameterError):
            pack(m)

    def test_singular_covariance_is_boundary(self):
        m = LinearGaussianModel(
            A=[[1.0]], C=[[1.0]], Q=[[0.0]], R=[[0.5]], mu0=[0.0], Sigma0=[[1.0]]
        )
        with pytest.raises(BoundaryParameterError):
            pack(m)

    def test_vector_length_checked(self):
        with pytest.raises(ValueError):
            ParameterVector(np.zeros(4), "discrete-hmm", (2, 2))
        with pytest.raises(ValueError):
            ParameterVector(np.zeros(5), "other", (2, 2))


class TestCoordinateLayout:
    def test_hmm_layout_k3_m4(self):
        # initial, then each transition row, then each emission row; every
        # row contributes log(p[:-1] / p[-1]).
        m = DiscreteHMM(
            [0.5, 0.3, 0.2],
            [[0.8, 0.15, 0.05], [0.1, 0.7, 0.2], [0.25, 0.25, 0.5]],
            [[0.6, 0.2, 0.1, 0.1], [0.1, 0.5, 0.3, 0.1], [0.05, 0.05, 0.2, 0.7]],
        )
        rows = [m.initial, *m.transition, *m.emission]
        want = np.concatenate([np.log(row[:-1] / row[-1]) for row in rows])
        theta = pack(m)
        assert theta.shape == (3, 4)
        assert theta.values.shape == (2 + 3 * 2 + 3 * 3,)
        np.testing.assert_array_equal(theta.values, want)

    def test_linear_gaussian_layout_d2(self):
        # A and C row-major, then the lower triangle of each Cholesky
        # factor row by row with the diagonal logged: (log L00, L10, log L11).
        lq = np.array([[2.0, 0.0], [0.5, 3.0]])
        lr = np.array([[0.5, 0.0], [-0.25, 0.75]])
        ls = np.array([[1.5, 0.0], [0.2, 0.4]])
        m = LinearGaussianModel(
            A=[[0.9, 0.1], [-0.2, 0.7]],
            C=[[1.0, 0.5], [0.3, -0.4]],
            Q=lq @ lq.T,
            R=lr @ lr.T,
            mu0=[0.1, -0.2],
            Sigma0=ls @ ls.T,
        )

        def tri(lower):
            return [math.log(lower[0, 0]), lower[1, 0], math.log(lower[1, 1])]

        want = [0.9, 0.1, -0.2, 0.7, 1.0, 0.5, 0.3, -0.4]
        want += tri(lq) + tri(lr) + [0.1, -0.2] + tri(ls)
        theta = pack(m)
        assert theta.shape == (2, 2)
        np.testing.assert_allclose(theta.values, want, rtol=1e-14, atol=1e-15)
        back = unpack(ParameterVector(np.array(want), "linear-gaussian", (2, 2)))
        np.testing.assert_allclose(back.Q, lq @ lq.T, rtol=1e-14)
        np.testing.assert_allclose(back.R, lr @ lr.T, rtol=1e-14)
        np.testing.assert_allclose(back.Sigma0, ls @ ls.T, rtol=1e-14)


class TestNegativeLoglik:
    def test_delegates_to_exact_filter(self):
        obs = sym([0, 1, 1, 0])
        theta = pack(BENCH)
        nll = negative_loglik(theta, obs)
        # The round trip through pack can move a parameter by an ulp, so the
        # filter runs on the model the objective evaluates.
        assert nll == -forward_filter(unpack(theta), obs).log_likelihood

    def test_matches_enumeration(self):
        obs = sym([0, 1, 1])
        nll = negative_loglik(pack(BENCH), obs)
        enum = exact_posterior_enumeration(BENCH, obs)
        assert nll == pytest.approx(-enum.log_likelihood, abs=1e-12)

    def test_uninformative_emission_is_constant(self):
        m = DiscreteHMM(
            [0.4, 0.6],
            [[0.7, 0.3], [0.1, 0.9]],
            [[1 / 3, 1 / 3, 1 / 3], [1 / 3, 1 / 3, 1 / 3]],
        )
        obs = sym([0, 2, 1, 1, 0])
        assert negative_loglik(pack(m), obs) == pytest.approx(
            5 * math.log(3.0), abs=1e-12
        )

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            negative_loglik(pack(BENCH), real([0.1, 0.2]))
        lg = LinearGaussianModel(
            A=[[0.9]], C=[[1.0]], Q=[[0.19]], R=[[0.5]], mu0=[0.0], Sigma0=[[1.0]]
        )
        with pytest.raises(ValueError):
            negative_loglik(pack(lg), sym([0, 1]))

    def test_gaussian_family(self):
        from ssmkit import kalman_filter

        lg = LinearGaussianModel(
            A=[[0.9]], C=[[1.0]], Q=[[0.19]], R=[[0.5]], mu0=[0.0], Sigma0=[[1.0]]
        )
        obs = real([0.5, -0.2, 0.9])
        assert negative_loglik(pack(lg), obs) == -kalman_filter(lg, obs).log_likelihood


class TestNelderMead:
    def test_scalar_quadratic(self):
        report = nelder_mead(lambda x: (x[0] - 2.0) ** 2, [0.0])
        assert report.converged
        assert report.argmin[0] == pytest.approx(2.0, abs=1e-4)
        assert report.final_value < 1e-8

    def test_shifted_bowl(self):
        target = np.array([1.0, -2.0, 3.0])
        report = nelder_mead(lambda x: float(np.sum((x - target) ** 2)), np.zeros(3))
        assert report.converged
        np.testing.assert_allclose(report.argmin, target, atol=1e-3)

    def test_rosenbrock(self):
        def rosen(x):
            return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2

        report = nelder_mead(rosen, [-1.2, 1.0], tol=1e-12, max_iter=5000)
        assert report.converged
        np.testing.assert_allclose(report.argmin, [1.0, 1.0], atol=1e-3)

    def test_constant_objective_converges_immediately(self):
        report = nelder_mead(lambda x: 7.0, [1.0, 2.0])
        assert report.converged
        assert report.iterations == 0
        assert report.final_value == 7.0
        np.testing.assert_array_equal(report.argmin, [1.0, 2.0])

    def test_nan_treated_as_inf(self):
        def partial(x):
            return float("nan") if x[0] < 0 else (x[0] - 1.0) ** 2

        report = nelder_mead(partial, [2.0])
        assert report.converged
        assert report.argmin[0] == pytest.approx(1.0, abs=1e-3)

    def test_all_inf_start_rejected(self):
        with pytest.raises(SimplexInitError):
            nelder_mead(lambda x: float("inf"), [0.0, 0.0])

    def test_budget_exhaustion_reported(self):
        def rosen(x):
            return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2

        report = nelder_mead(rosen, [-1.2, 1.0], tol=1e-15, max_iter=3)
        assert not report.converged
        assert report.iterations == 3

    def test_shrink_and_nan_spread(self):
        # The best vertex scores -inf, and a reflection or contraction that
        # scores -inf does not improve on it, so every iteration shrinks the
        # simplex.  Once every vertex scores -inf, the spread -inf - (-inf)
        # is NaN, which reads as inf, so the run never converges.
        report = nelder_mead(
            lambda x: -np.inf if x[0] > 0.1 else 0.0, [0.0], step=0.5, max_iter=7
        )
        assert not report.converged
        assert report.iterations == 7
        assert report.simplex_spread == np.inf
        assert report.final_value == -np.inf

    def test_deterministic(self):
        def bumpy(x):
            return float(np.sum(x**2) + 0.1 * np.sin(5 * x[0]))

        a = nelder_mead(bumpy, [2.0, -1.0])
        b = nelder_mead(bumpy, [2.0, -1.0])
        np.testing.assert_array_equal(a.argmin, b.argmin)
        assert a.iterations == b.iterations

    def test_input_validation(self):
        quad = lambda x: float(x[0] ** 2)
        with pytest.raises(ValueError):
            nelder_mead(quad, [1.0], step=0.0)
        with pytest.raises(ValueError):
            nelder_mead(quad, [1.0], tol=0.0)
        with pytest.raises(ValueError):
            nelder_mead(quad, [1.0], max_iter=0)
        with pytest.raises(ValueError):
            nelder_mead(quad, np.zeros((2, 2)))


class TestFitMle:
    def test_static_noise_recovery(self):
        # A=1, Q=0, Sigma0=0 pins the state at mu0, so observations are iid
        # N(mu0, R) and the maximizer is the sample mean and biased variance.
        rng = np.random.default_rng(54)
        y = 1.3 + math.sqrt(0.7) * rng.normal(size=500)
        template = LinearGaussianModel(
            A=[[1.0]], C=[[1.0]], Q=[[0.0]], R=[[1.0]], mu0=[0.0], Sigma0=[[0.0]]
        )
        fitted, report = fit_mle(
            template, real(y), tol=1e-10, max_iter=2000, free_blocks=("R", "mu0")
        )
        assert report.converged
        want_var = float(np.mean((y - y.mean()) ** 2))
        assert fitted.R[0, 0] == pytest.approx(want_var, rel=0.05)
        assert fitted.mu0[0] == pytest.approx(float(y.mean()), abs=1e-3)
        # Pinned blocks stay exactly where the template put them.
        np.testing.assert_array_equal(fitted.A, [[1.0]])
        np.testing.assert_array_equal(fitted.Q, [[0.0]])
        np.testing.assert_array_equal(fitted.Sigma0, [[0.0]])

    def test_never_worse_than_start(self):
        rng = np.random.default_rng(55)
        truth = BENCH
        _, obs = simulate_hmm(truth, 150, SeededGenerator(606))
        start = random_interior_hmm(rng, 2, 2)
        fitted, report = fit_mle(start, obs, tol=1e-6, max_iter=800)
        start_nll = negative_loglik(pack(start), obs)
        assert report.final_value <= start_nll + 1e-12
        assert report.final_value == pytest.approx(
            -forward_filter(fitted, obs).log_likelihood, abs=1e-9
        )

    def test_comparable_to_em(self):
        truth = DiscreteHMM(
            [0.5, 0.5], [[0.85, 0.15], [0.25, 0.75]], [[0.9, 0.1], [0.2, 0.8]]
        )
        _, obs = simulate_hmm(truth, 200, SeededGenerator(1234))
        start = DiscreteHMM(
            [0.5, 0.5], [[0.7, 0.3], [0.3, 0.7]], [[0.7, 0.3], [0.3, 0.7]]
        )
        em_model, _ = fit_em(start, obs, tol=1e-8, max_iter=300)
        em_ll = forward_filter(em_model, obs).log_likelihood
        mle_model, _ = fit_mle(start, obs, tol=1e-9, max_iter=4000)
        mle_ll = forward_filter(mle_model, obs).log_likelihood
        assert abs(mle_ll - em_ll) < 0.5

    def test_unknown_block_rejected(self):
        with pytest.raises(ValueError):
            fit_mle(BENCH, sym([0, 1]), free_blocks=("emission", "Q"))

    def test_empty_blocks_rejected(self):
        with pytest.raises(ValueError):
            fit_mle(BENCH, sym([0, 1]), free_blocks=())

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_mle(BENCH, real([0.5, 0.2]))

    def test_loglik_is_relabeling_invariant(self):
        rng = np.random.default_rng(56)
        model = random_interior_hmm(rng, 3, 2)
        y = rng.integers(0, 2, size=40)
        permuted = DiscreteHMM(
            model.initial[[2, 0, 1]],
            model.transition[np.ix_([2, 0, 1], [2, 0, 1])],
            model.emission[[2, 0, 1]],
        )
        obs = sym(y)
        assert negative_loglik(pack(model), obs) == pytest.approx(
            negative_loglik(pack(permuted), obs), abs=1e-12
        )
