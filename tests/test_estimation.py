"""Coordinate transforms, the simplex optimizer, and likelihood fitting."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ssmkit import estimation
from ssmkit.estimation import HMM_BLOCKS, LGSSM_BLOCKS
from ssmkit import (
    BoundaryParameterError,
    DiscreteHMM,
    LinearGaussianModel,
    ModelValidationError,
    ObservationSeries,
    OptimizerReport,
    ParameterVector,
    SeededGenerator,
    NumericalError,
    SimplexInitError,
    backward_smooth,
    exact_posterior_enumeration,
    fit_em,
    fit_mle,
    forward_filter,
    kalman_filter,
    nelder_mead,
    negative_loglik,
    pack,
    simulate_hmm,
    simulate_lgssm,
    unpack,
)

BENCH = DiscreteHMM([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[0.8, 0.2], [0.3, 0.7]])
SCALAR = LinearGaussianModel(
    A=[[0.9]], C=[[1.0]], Q=[[0.19]], R=[[0.5]], mu0=[0.0], Sigma0=[[1.0]]
)


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


class TestInvalidTrialPoints:
    # A trial point that gives no valid model scores +inf in both
    # negative_loglik and fit_mle, whichever check rejects it; a fault in
    # the series raises.

    @staticmethod
    def with_r_coordinate(value):
        # Coordinate 3 of the scalar model is log of R's Cholesky factor.
        theta = pack(SCALAR)
        values = theta.values.copy()
        values[3] = value
        return ParameterVector(values, theta.family, theta.shape)

    def test_r_that_underflows_scores_inf(self):
        # exp(-400) squared underflows to R = 0, which the constructor
        # accepts and the filter's require_valid rejects.
        theta = self.with_r_coordinate(-400.0)
        obs = real([0.5, -0.2, 0.9])
        with pytest.raises(ModelValidationError, match="R is not positive definite"):
            kalman_filter(unpack(theta), obs)
        assert negative_loglik(theta, obs) == np.inf

    def test_r_that_overflows_scores_inf(self):
        theta = self.with_r_coordinate(800.0)
        with np.errstate(over="ignore"):
            with pytest.raises(ModelValidationError, match="R must be finite"):
                unpack(theta)
            assert negative_loglik(theta, real([0.5, -0.2, 0.9])) == np.inf

    @pytest.mark.parametrize(
        "coords",
        [[800.0], [0.0, 1e200, 0.0], [0.0, 0.0, 800.0], [800.0, -1e200, 800.0]],
        ids=["scalar", "off-diagonal", "last-diagonal", "inf-minus-inf"],
    )
    def test_a_covariance_that_overflows_warns_nothing(self, coords):
        # The coordinates of R overflow its factor or its square to inf, or
        # to NaN (inf - inf, inf * 0); the point scores +inf, and no
        # warning reaches the caller.
        d_y = 1 if len(coords) == 1 else 2
        model = LinearGaussianModel(
            A=[[0.9]], C=np.ones((d_y, 1)), Q=[[0.19]], R=np.eye(d_y), mu0=[0.0], Sigma0=[[1.0]]
        )
        theta = pack(model)
        values = theta.values.copy()
        # Layout: A, C, chol(Q), chol(R), ...
        values[2 + d_y : 2 + d_y + len(coords)] = coords
        point = ParameterVector(values, theta.family, theta.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ModelValidationError, match="R must be finite"):
                unpack(point)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert negative_loglik(point, real(np.zeros((3, d_y)))) == np.inf

    def test_a_fit_that_steps_to_an_overflowing_r_warns_nothing(self):
        # A simplex step of 800 in R's coordinate overflows exp.
        _, y = simulate_lgssm(SCALAR, 50, SeededGenerator(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fitted, report = fit_mle(SCALAR, y, max_iter=200, step=800.0, free_blocks=("R", "Q"))
        assert np.isfinite(report.final_value)
        assert report.final_value == -kalman_filter(fitted, y).log_likelihood

    @pytest.mark.parametrize("r0, step", [(1e-300, 100.0), (1e-250, 200.0)])
    def test_fit_steps_over_a_singular_r(self, r0, step):
        # From a tiny R, a large simplex step in R's coordinate reaches
        # points where R underflows to zero.
        _, y = simulate_lgssm(SCALAR, 50, SeededGenerator(1))
        start = LinearGaussianModel(
            A=SCALAR.A, C=SCALAR.C, Q=SCALAR.Q, R=[[r0]], mu0=SCALAR.mu0, Sigma0=SCALAR.Sigma0
        )
        with np.errstate(over="ignore"):
            fitted, report = fit_mle(start, y, max_iter=200, step=step, free_blocks=("R", "Q"))
        assert np.isfinite(report.final_value)
        assert report.final_value <= negative_loglik(pack(start), y)
        assert report.final_value == -kalman_filter(fitted, y).log_likelihood

    @pytest.mark.parametrize(
        "model, obs, error",
        [
            (BENCH, sym([0, 2]), ModelValidationError),
            (BENCH, sym([]), ValueError),
            (SCALAR, real(np.zeros((3, 2))), ModelValidationError),
            (SCALAR, real(np.zeros((0, 1))), ValueError),
        ],
        ids=["alphabet", "empty-symbols", "dimension", "empty-rows"],
    )
    def test_series_faults_raise(self, model, obs, error):
        with pytest.raises(error):
            negative_loglik(pack(model), obs)
        with pytest.raises(error):
            fit_mle(model, obs, max_iter=5)


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
            nelder_mead(quad, [1.0], step=float("nan"))
        with pytest.raises(ValueError):
            nelder_mead(quad, [1.0], max_iter=0)
        with pytest.raises(ValueError):
            nelder_mead(quad, np.zeros((2, 2)))
        for max_iter in (2.5, 2.0, np.float64(3.0), "2"):
            with pytest.raises(ValueError, match="max_iter must be an integer"):
                nelder_mead(quad, [1.0], max_iter=max_iter)
        assert nelder_mead(quad, [1.0], max_iter=np.int64(2)).iterations == 2


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

    @pytest.mark.parametrize("arg", ["tol", "step"])
    def test_nan_tol_and_step_rejected(self, arg):
        with pytest.raises(ValueError, match=arg):
            fit_mle(BENCH, sym([0, 1]), **{arg: float("nan")})

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


def scored_objective(model, obs, blocks, family="discrete-hmm"):
    """The fit's objective over blocks as a function of the coordinates to
    the value and the gradient, formed at once, and its start."""
    spec = estimation._FAMILIES[family]
    shape = spec.shape(model)
    layout = estimation._layout(spec, shape, blocks)
    fixed = {name: getattr(model, name) for name in spec.blocks if name not in blocks}
    x0 = estimation._pack_blocks(model, layout)
    objective = estimation._objective(spec, shape, layout, fixed, obs)

    def value_and_gradient(x):
        value, score = objective(x)
        return value, score()

    return value_and_gradient, x0


def central_differences(model, obs, blocks, h=1e-5, family="discrete-hmm"):
    """Central differences of negative_loglik in the coordinates of blocks,
    in the order given, from the full coordinate vector."""
    theta = pack(model)
    spec = estimation._FAMILIES[family]
    spans = {
        name: range(i, j)
        for name, _, i, j in estimation._layout(spec, theta.shape, spec.blocks)
    }
    out = []
    for name in blocks:
        for i in spans[name]:
            up, down = theta.values.copy(), theta.values.copy()
            up[i] += h
            down[i] -= h
            f_up = negative_loglik(ParameterVector(up, theta.family, theta.shape), obs)
            f_down = negative_loglik(ParameterVector(down, theta.family, theta.shape), obs)
            out.append((f_up - f_down) / (2 * h))
    return np.array(out)


class TestHmmScore:
    # The score is the exact gradient of the log-likelihood in pack
    # coordinates (Fisher identity), so it matches central differences of
    # negative_loglik, and it vanishes where EM has converged.

    # Every (K, M, free blocks) with at least one coordinate: K = 1 has no
    # initial or transition coordinates, M = 1 no emission coordinates.
    CASES = [
        (k, m, blocks)
        for k in (1, 2, 3, 4)
        for m in (1, 3)
        for blocks in (HMM_BLOCKS, ("emission",), ("transition", "emission"), ("initial",))
        if k > 1 and blocks != ("emission",) or m > 1 and "emission" in blocks
    ]

    @pytest.mark.parametrize(
        "k, m, blocks", CASES, ids=[f"K{k}-M{m}-{'-'.join(b)}" for k, m, b in CASES]
    )
    def test_matches_central_differences(self, k, m, blocks):
        rng = np.random.default_rng(1000 * k + 10 * m + len(blocks))
        model = random_interior_hmm(rng, k, m)
        obs = sym(rng.integers(0, m, size=60))
        fg, x0 = scored_objective(model, obs, blocks)
        value, gradient = fg(x0)
        assert value == pytest.approx(negative_loglik(pack(model), obs), rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(
            gradient, central_differences(model, obs, blocks), rtol=1e-5, atol=1e-8
        )

    def test_vanishes_at_an_em_fixed_point(self):
        _, obs = simulate_hmm(BENCH, 300, SeededGenerator(71))
        start = DiscreteHMM([0.6, 0.4], [[0.7, 0.3], [0.4, 0.6]], [[0.6, 0.4], [0.3, 0.7]])
        fitted, _ = fit_em(start, obs, tol=1e-12, max_iter=100_000)
        _, gradient = scored_objective(fitted, obs, HMM_BLOCKS)[0](pack(fitted).values)
        assert np.max(np.abs(gradient)) < 1e-5


class TestLgScore:
    # The adjoint pass gives the exact gradient of the log-likelihood in
    # pack coordinates: it matches central differences, also where a
    # pinned Q and Sigma0 are singular, and it vanishes at a converged fit.

    # A seed for each shape whose random model is stable.
    CASES = [
        (d_x, d_y, seed, blocks)
        for d_x, d_y, seed in ((1, 1, 1), (2, 3, 2))
        for blocks in (LGSSM_BLOCKS, ("A", "Q", "R"), ("R", "mu0"), ("Sigma0", "C"))
    ]

    @pytest.mark.parametrize(
        "d_x, d_y, seed, blocks",
        CASES,
        ids=[f"{x}x{y}-{'-'.join(b)}" for x, y, _, b in CASES],
    )
    def test_matches_central_differences(self, d_x, d_y, seed, blocks):
        model = random_interior_lgssm(np.random.default_rng(seed), d_x, d_y)
        # Long enough that the filter freezes its covariances (d > 1), so
        # the adjoint runs its steady suffix.
        _, obs = simulate_lgssm(model, 400, SeededGenerator(seed))
        covs = kalman_filter(model, obs).predicted_covs
        assert np.array_equal(covs[-2], covs[-1])
        fg, x0 = scored_objective(model, obs, blocks, "linear-gaussian")
        value, gradient = fg(x0)
        assert value == pytest.approx(negative_loglik(pack(model), obs), rel=1e-12)
        np.testing.assert_allclose(
            gradient,
            central_differences(model, obs, blocks, family="linear-gaussian"),
            rtol=1e-5,
            atol=1e-8,
        )

    def test_holds_where_pinned_q_and_sigma0_are_singular(self):
        # A = 1, Q = 0, Sigma0 = 0: the state stays at mu0 and the
        # observations are iid N(mu0, R).
        rng = np.random.default_rng(57)
        obs = real(1.3 + 0.8 * rng.normal(size=200))
        model = LinearGaussianModel(
            A=[[1.0]], C=[[1.0]], Q=[[0.0]], R=[[0.9]], mu0=[0.4], Sigma0=[[0.0]]
        )
        fg, x0 = scored_objective(model, obs, ("R", "mu0"), "linear-gaussian")
        _, gradient = fg(x0)
        h = 1e-5
        differences = [
            (fg(x0 + h * e)[0] - fg(x0 - h * e)[0]) / (2 * h) for e in np.eye(len(x0))
        ]
        np.testing.assert_allclose(gradient, differences, rtol=1e-5, atol=1e-8)
        # The closed form: d/d mu0 = sum(y - mu0) / R, and in log sqrt(R),
        # sum((y - mu0)^2) / R - T.
        y = obs.values[:, 0]
        want = [np.sum((y - 0.4) ** 2) / 0.9 - len(y), np.sum(y - 0.4) / 0.9]
        np.testing.assert_allclose(-gradient, want, rtol=1e-10)

    def test_vanishes_at_a_converged_fit(self):
        _, obs = simulate_lgssm(SCALAR, 300, SeededGenerator(17))
        start = LinearGaussianModel(
            A=[[0.5]], C=[[1.0]], Q=[[0.5]], R=[[1.0]], mu0=[0.0], Sigma0=[[1.0]]
        )
        fitted, report = fit_mle(start, obs, tol=1e-12, max_iter=500, free_blocks=("A", "Q", "R"))
        assert report.converged
        fg, x0 = scored_objective(fitted, obs, ("A", "Q", "R"), "linear-gaussian")
        assert np.max(np.abs(fg(x0)[1])) < 1e-5


def quasi_newton(fg, x0, step=0.5, tol=1e-10, max_iter=1000):
    """_quasi_newton on fg(x) -> (value, gradient), each gradient formed
    when its value is."""

    def lazy(x):
        value, gradient = fg(x)
        return value, lambda: gradient

    return estimation._quasi_newton(lazy, x0, step, tol, max_iter)


def rosenbrock(x):
    value = (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
    gradient = np.array(
        [-2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2), 200 * (x[1] - x[0] ** 2)]
    )
    return value, gradient


class TestQuasiNewton:
    def test_quadratic_bowl(self):
        target = np.array([1.0, -2.0, 3.0])
        scales = np.array([1.0, 10.0, 0.1])

        def bowl(x):
            return float(np.sum(scales * (x - target) ** 2)), 2 * scales * (x - target)

        report = quasi_newton(bowl, np.zeros(3))
        assert report.converged
        assert report.simplex_spread < 1e-10
        np.testing.assert_allclose(report.argmin, target, atol=1e-5)

    def test_rosenbrock(self):
        report = quasi_newton(rosenbrock, [-1.2, 1.0], tol=1e-14)
        assert report.converged
        np.testing.assert_allclose(report.argmin, [1.0, 1.0], atol=1e-5)
        assert report.final_value == rosenbrock(report.argmin)[0]

    def test_budget_exhaustion_reported(self):
        start = rosenbrock(np.array([-1.2, 1.0]))[0]
        report = quasi_newton(rosenbrock, [-1.2, 1.0], tol=1e-15, max_iter=3)
        assert not report.converged
        assert report.iterations == 3
        assert report.simplex_spread >= 1e-15
        assert report.final_value < start

    def test_first_move_bounded_by_step(self):
        seen = []

        def steep(x):
            seen.append(x.copy())
            return float(50.0 * x @ x), 100.0 * x

        quasi_newton(steep, [1.0, -2.0], step=0.25, max_iter=1)
        assert np.max(np.abs(seen[1] - seen[0])) == pytest.approx(0.25, rel=1e-12)

    def test_a_small_first_decrease_does_not_stop_the_run(self):
        # The first move, bounded to 1e-6, lowers x.x by about 4e-6, below
        # tol; the decrease the next step predicts is not, so the run goes on.
        def bowl(x):
            return float(x @ x), 2 * x

        report = quasi_newton(bowl, [1.0, 1.0], step=1e-6, tol=1e-5)
        assert report.converged
        assert report.iterations > 1
        np.testing.assert_allclose(report.argmin, [0.0, 0.0], atol=1e-6)

    def test_backtracks_out_of_an_infinite_region(self):
        # Everything past x = 0.5 scores +inf; the unbounded first move of
        # 2.0 lands there, and halving brings the trial back.
        def walled(x):
            if x[0] > 0.5:
                return np.inf, np.zeros(1)
            return float((x[0] - 0.4) ** 2), 2 * (x - 0.4)

        report = quasi_newton(walled, [-1.0], step=2.0)
        assert report.converged
        assert report.argmin[0] == pytest.approx(0.4, abs=1e-5)

    def test_gradient_formed_only_at_kept_points(self):
        formed = []

        def bowl(x):
            def gradient():
                formed.append(x.copy())
                return 2 * x

            return float(x @ x), gradient

        report = estimation._quasi_newton(bowl, [3.0, -1.0], 0.5, 1e-10, 1000)
        assert report.converged
        # The start, then one per accepted step; rejected trials form none.
        assert len(formed) == report.iterations + 1
        assert formed[-1].tobytes() == report.argmin.tobytes()

    @pytest.mark.parametrize("missing", [None, np.array([np.nan])], ids=["none", "nan"])
    def test_a_trial_without_a_finite_gradient_is_rejected(self, missing):
        # Past x = 0.5 the value is finite and low but the score fails; the
        # first move of 2.0 lands there, and halving brings the trial back.
        kept = []

        def walled(x):
            def gradient():
                kept.append(x[0])
                return missing if x[0] > 0.5 else 2 * (x - 0.4)

            return float((x[0] - 0.4) ** 2), gradient

        report = estimation._quasi_newton(walled, [-1.0], 2.0, 1e-10, 1000)
        assert report.converged
        assert report.argmin[0] == pytest.approx(0.4, abs=1e-5)
        assert kept[1] > 0.5 and max(kept[2:]) <= 0.5

    def test_a_start_without_a_gradient_is_rejected(self):
        with pytest.raises(SimplexInitError):
            estimation._quasi_newton(lambda x: (1.0, lambda: None), [0.0], 0.5, 1e-10, 10)

    def test_nan_gradient_stops_unconverged(self):
        report = quasi_newton(lambda x: (1.0, np.full(1, np.nan)), [0.0])
        assert not report.converged
        assert report.iterations == 0
        assert report.simplex_spread == np.inf

    def test_stationary_start_converges_immediately(self):
        report = quasi_newton(lambda x: (7.0, np.zeros(2)), [1.0, 2.0])
        assert report.converged
        assert report.iterations == 0
        assert report.final_value == 7.0
        np.testing.assert_array_equal(report.argmin, [1.0, 2.0])

    def test_infinite_start_rejected(self):
        with pytest.raises(SimplexInitError):
            quasi_newton(lambda x: (np.inf, np.zeros(2)), [0.0, 0.0])

    def test_deterministic(self):
        def bumpy(x):
            value = float(np.sum(x**2) + 0.1 * np.sin(5 * x[0]))
            return value, 2 * x + np.array([0.5 * np.cos(5 * x[0]), 0.0])

        a = quasi_newton(bumpy, [2.0, -1.0])
        b = quasi_newton(bumpy, [2.0, -1.0])
        assert a.argmin.tobytes() == b.argmin.tobytes()
        assert (a.final_value, a.iterations, a.simplex_spread) == (
            b.final_value,
            b.iterations,
            b.simplex_spread,
        )

    def test_input_validation(self):
        with pytest.raises(ValueError):
            quasi_newton(rosenbrock, [1.0, 1.0], step=0.0)
        with pytest.raises(ValueError):
            quasi_newton(rosenbrock, [1.0, 1.0], tol=0.0)
        with pytest.raises(ValueError):
            quasi_newton(rosenbrock, [1.0, 1.0], tol=float("nan"))
        with pytest.raises(ValueError):
            quasi_newton(rosenbrock, [1.0, 1.0], max_iter=0)
        for max_iter in (2.5, 2.0, np.float64(3.0), "2"):
            with pytest.raises(ValueError, match="max_iter must be an integer"):
                quasi_newton(rosenbrock, [-1.2, 1.0], max_iter=max_iter)
        assert quasi_newton(rosenbrock, [-1.2, 1.0], max_iter=np.int64(2)).iterations == 2


class TestFitMleByScore:
    def test_matches_nelder_mead_on_criterion_5(self):
        # The HMM series and start of acceptance criterion 5.
        _, obs = simulate_hmm(BENCH, 200, SeededGenerator(55002))
        start = DiscreteHMM([0.5, 0.5], [[0.7, 0.3], [0.3, 0.7]], [[0.7, 0.3], [0.3, 0.7]])
        fitted, report = fit_mle(start, obs, tol=1e-10, max_iter=4000)
        assert report.converged
        objective, x0 = scored_objective(start, obs, HMM_BLOCKS)
        simplex = nelder_mead(lambda x: objective(x)[0], x0, step=0.25, tol=1e-10, max_iter=20_000)
        assert simplex.converged
        assert report.final_value == pytest.approx(simplex.final_value, abs=1e-6)
        assert report.final_value == -forward_filter(fitted, obs).log_likelihood

    def test_lg_matches_nelder_mead(self):
        # The benchmark's scalar (A, Q, R) fit.
        _, obs = simulate_lgssm(SCALAR, 300, SeededGenerator(17))
        start = LinearGaussianModel(
            A=[[0.5]], C=[[1.0]], Q=[[0.5]], R=[[1.0]], mu0=[0.0], Sigma0=[[1.0]]
        )
        blocks = ("A", "Q", "R")
        fitted, report = fit_mle(start, obs, tol=1e-6, max_iter=40, free_blocks=blocks)
        assert report.converged
        objective, x0 = scored_objective(start, obs, blocks, "linear-gaussian")
        simplex = nelder_mead(lambda x: objective(x)[0], x0, step=0.25, tol=1e-12, max_iter=20_000)
        assert simplex.converged
        assert report.final_value == pytest.approx(simplex.final_value, abs=1e-6)
        assert report.final_value == -kalman_filter(fitted, obs).log_likelihood

    def test_lg_fit_with_a_frozen_filter(self):
        # d = 2 over 500 steps: each filter freezes, and the adjoint runs
        # its steady suffix at every accepted point.
        truth = LinearGaussianModel(
            A=[[0.9, 0.1], [-0.1, 0.8]],
            C=[[1.0, 0.0], [0.5, 1.0]],
            Q=[[0.2, 0.05], [0.05, 0.1]],
            R=[[0.5, 0.1], [0.1, 0.4]],
            mu0=[0.0, 0.0],
            Sigma0=np.eye(2),
        )
        _, obs = simulate_lgssm(truth, 500, SeededGenerator(58))
        start = LinearGaussianModel(
            A=0.5 * np.eye(2), C=truth.C, Q=np.eye(2), R=np.eye(2), mu0=truth.mu0,
            Sigma0=truth.Sigma0,
        )
        blocks = ("A", "Q", "R")
        fitted, report = fit_mle(start, obs, tol=1e-8, max_iter=200, free_blocks=blocks)
        assert report.converged
        assert report.final_value < negative_loglik(pack(truth), obs)
        assert report.final_value == -kalman_filter(fitted, obs).log_likelihood
        fg, x0 = scored_objective(fitted, obs, blocks, "linear-gaussian")
        assert np.max(np.abs(fg(x0)[1])) < 1e-2

    def test_iterations_and_convergence(self):
        _, obs = simulate_hmm(BENCH, 200, SeededGenerator(7))
        start = DiscreteHMM([0.5, 0.5], [[0.7, 0.3], [0.3, 0.7]], [[0.7, 0.3], [0.3, 0.7]])
        start_value = negative_loglik(pack(start), obs)
        _, short = fit_mle(start, obs, tol=1e-6, max_iter=2)
        assert (short.iterations, short.converged) == (2, False)
        assert short.simplex_spread >= 1e-6
        _, full = fit_mle(start, obs, tol=1e-6, max_iter=500)
        assert full.converged and full.simplex_spread < 1e-6
        assert full.iterations < 500
        assert full.final_value < short.final_value < start_value

    def test_a_failing_backward_pass_scores_inf(self, monkeypatch):
        # One trial point's backward pass raises NumericalError; the point
        # scores +inf and the line search steps back from it.
        _, obs = simulate_hmm(BENCH, 150, SeededGenerator(606))
        start = random_interior_hmm(np.random.default_rng(55), 2, 2)
        calls = []

        def failing_once(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise NumericalError("injected")
            return backward_smooth(*args, **kwargs)

        monkeypatch.setattr(estimation, "backward_smooth", failing_once)
        fitted, report = fit_mle(start, obs, tol=1e-6, max_iter=500)
        assert len(calls) > 3
        assert np.isfinite(report.final_value)
        assert report.final_value <= negative_loglik(pack(start), obs)
        assert report.final_value == -forward_filter(fitted, obs).log_likelihood

    def test_a_failing_adjoint_pass_rejects_the_point(self, monkeypatch):
        _, obs = simulate_lgssm(SCALAR, 100, SeededGenerator(3))
        start = LinearGaussianModel(
            A=[[0.5]], C=[[1.0]], Q=[[0.5]], R=[[1.0]], mu0=[0.0], Sigma0=[[1.0]]
        )
        calls = []

        def failing_once(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise NumericalError("injected")
            return estimation_adjoint(*args, **kwargs)

        estimation_adjoint = estimation._adjoint
        monkeypatch.setattr(estimation, "_adjoint", failing_once)
        fitted, report = fit_mle(start, obs, tol=1e-6, max_iter=500, free_blocks=("A", "Q", "R"))
        assert len(calls) > 3
        assert report.converged
        assert report.final_value < negative_loglik(pack(start), obs)
        assert report.final_value == -kalman_filter(fitted, obs).log_likelihood

    def test_does_not_import_scipy_optimize(self):
        code = (
            "import sys\n"
            "import ssmkit\n"
            "model = ssmkit.DiscreteHMM([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]],"
            " [[0.8, 0.2], [0.3, 0.7]])\n"
            "obs = ssmkit.ObservationSeries([0, 1, 1, 0, 1, 1, 1, 0], kind='symbolic')\n"
            "ssmkit.fit_mle(model, obs)\n"
            "model = ssmkit.LinearGaussianModel(A=[[0.9]], C=[[1.0]], Q=[[0.19]],"
            " R=[[0.5]], mu0=[0.0], Sigma0=[[1.0]])\n"
            "obs = ssmkit.ObservationSeries([[0.3], [-0.2], [0.8], [1.1], [0.4]], kind='real')\n"
            "ssmkit.fit_mle(model, obs, free_blocks=('A', 'Q', 'R'))\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.stdout.strip() == "False"
