"""Monte Carlo filtering against exact recursions and resampling invariants."""

import numpy as np
import pytest

from ssmkit import (
    DiscreteHMM,
    GenericStateSpaceModel,
    LinearGaussianModel,
    ModelValidationError,
    ObservationSeries,
    ParticleCollapseError,
    SeededGenerator,
    backward_smooth,
    bootstrap_filter,
    fixed_lag_smoother,
    forward_filter,
    kalman_filter,
    lgssm_as_generic,
    multinomial_resample,
    pf_loglik,
    systematic_resample,
)


def real(values):
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return ObservationSeries(arr, kind="real")


def point_mass_model(value=3.0):
    """Every particle sits at `value` forever and explains data perfectly."""

    def init_sampler(n, rng):
        return np.full((n, 1), value)

    def transition_sampler(states, t, rng):
        return states

    def observation_logdensity(states, y, t):
        return np.zeros(states.shape[0])

    return GenericStateSpaceModel(
        d_x=1,
        init_sampler=init_sampler,
        transition_sampler=transition_sampler,
        observation_logdensity=observation_logdensity,
    )


class TestSystematicResample:
    def test_uniform_weights_identity(self):
        idx = systematic_resample([0.25, 0.25, 0.25, 0.25], 0.1)
        np.testing.assert_array_equal(idx, [0, 1, 2, 3])

    def test_one_hot(self):
        idx = systematic_resample([0.0, 1.0, 0.0], 0.7)
        np.testing.assert_array_equal(idx, [1, 1, 1])

    def test_proportional_counts(self):
        # Positions 0.005, 0.105, ..., 0.905 against the CDF [0.3, 1.0].
        idx = systematic_resample([0.3, 0.7], 0.05, n=10)
        assert idx.tolist() == [0, 0, 0, 1, 1, 1, 1, 1, 1, 1]

    def test_counts_within_one_of_expectation(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            w = rng.exponential(size=n)
            w /= w.sum()
            for u in [0.0, 0.123, 0.5, 0.999]:
                idx = systematic_resample(w, u)
                counts = np.bincount(idx, minlength=n)
                assert np.all(np.abs(counts - n * w) < 1.0)
                assert np.all(np.diff(idx) >= 0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            systematic_resample([0.5, 0.5], 1.0)
        with pytest.raises(ValueError):
            systematic_resample([0.5, 0.5], -0.1)
        with pytest.raises(ValueError):
            systematic_resample([0.6, 0.6], 0.5)
        with pytest.raises(ValueError):
            systematic_resample([1.2, -0.2], 0.5)


class TestMultinomialResample:
    def test_one_hot(self):
        idx = multinomial_resample([0.0, 0.0, 1.0], SeededGenerator(5))
        np.testing.assert_array_equal(idx, [2, 2, 2])

    def test_deterministic_given_seed(self):
        a = multinomial_resample([0.2, 0.3, 0.5], SeededGenerator(17))
        b = multinomial_resample([0.2, 0.3, 0.5], SeededGenerator(17))
        np.testing.assert_array_equal(a, b)

    def test_long_run_frequencies(self):
        idx = multinomial_resample([0.2, 0.8], SeededGenerator(101), n=100_000)
        freq = np.mean(idx == 1)
        assert abs(freq - 0.8) < 0.005


class TestBootstrapFilter:
    def test_point_mass_model_is_exact(self):
        result = bootstrap_filter(point_mass_model(), real(np.zeros(6)), 50,
                                  SeededGenerator(1))
        np.testing.assert_allclose(
            result.filtered_means, np.full((6, 1), 3.0), atol=1e-12
        )
        assert abs(result.log_likelihood_estimate) < 1e-12
        np.testing.assert_allclose(result.ess_trace, np.full(6, 50.0), atol=1e-9)
        assert result.resample_events == []
        assert result.final_set.time_index == 6

    def test_threshold_one_resamples_every_step(self):
        result = bootstrap_filter(
            point_mass_model(), real(np.zeros(5)), 20, SeededGenerator(2),
            resample_threshold=1.0,
        )
        assert result.resample_events == [1, 2, 3, 4, 5]
        np.testing.assert_allclose(
            result.final_set.log_weights, -np.log(20), atol=1e-12
        )

    def test_final_weights_normalized(self):
        model = lgssm_as_generic(
            LinearGaussianModel(
                A=[[0.9]], C=[[1.0]], Q=[[0.19]], R=[[0.5]], mu0=[0.0],
                Sigma0=[[1.0]],
            )
        )
        result = bootstrap_filter(model, real([0.4, -0.1, 0.7]), 100,
                                  SeededGenerator(3))
        total = np.logaddexp.reduce(result.final_set.log_weights)
        assert abs(total) < 1e-10
        assert np.all(result.ess_trace >= 1.0)
        assert np.all(result.ess_trace <= 100.0)

    def test_single_particle(self):
        model = point_mass_model(1.5)
        result = bootstrap_filter(model, real(np.zeros(4)), 1, SeededGenerator(4))
        np.testing.assert_array_equal(result.filtered_means, np.full((4, 1), 1.5))
        np.testing.assert_array_equal(result.ess_trace, np.ones(4))

    def test_deterministic_given_seed(self):
        model = lgssm_as_generic(
            LinearGaussianModel(
                A=[[0.9]], C=[[1.0]], Q=[[0.19]], R=[[0.5]], mu0=[0.0],
                Sigma0=[[1.0]],
            )
        )
        obs = real([0.5, -0.2, 0.9, 0.1])
        a = bootstrap_filter(model, obs, 64, SeededGenerator(12345))
        b = bootstrap_filter(model, obs, 64, SeededGenerator(12345))
        np.testing.assert_array_equal(a.filtered_means, b.filtered_means)
        assert a.log_likelihood_estimate == b.log_likelihood_estimate
        assert a.resample_events == b.resample_events
        c = bootstrap_filter(model, obs, 64, SeededGenerator(12346))
        assert not np.array_equal(a.filtered_means, c.filtered_means)

    def test_parameter_validation(self):
        model = point_mass_model()
        obs = real(np.zeros(3))
        rng = SeededGenerator(0)
        with pytest.raises(ValueError):
            bootstrap_filter(model, obs, 0, rng)
        with pytest.raises(ValueError):
            bootstrap_filter(model, obs, 10, rng, resample_threshold=0.0)
        with pytest.raises(ValueError):
            bootstrap_filter(model, obs, 10, rng, resample_threshold=1.5)
        with pytest.raises(ValueError):
            bootstrap_filter(model, obs, 10, rng, scheme="stratified")
        with pytest.raises(ModelValidationError):
            bootstrap_filter(
                model, ObservationSeries([0, 1], kind="symbolic"), 10, rng
            )

    def test_collapse_raises_with_time(self):
        def dead_logdensity(states, y, t):
            return np.full(states.shape[0], -np.inf)

        model = GenericStateSpaceModel(
            d_x=1,
            init_sampler=lambda n, rng: np.zeros((n, 1)),
            transition_sampler=lambda s, t, rng: s,
            observation_logdensity=dead_logdensity,
        )
        with pytest.raises(ParticleCollapseError) as exc:
            bootstrap_filter(model, real(np.zeros(3)), 10, SeededGenerator(0))
        assert exc.value.time_index == 1

    def test_tracks_kalman_filter(self):
        exact = LinearGaussianModel(
            A=[[0.9]], C=[[1.0]], Q=[[0.19]], R=[[0.5]], mu0=[0.0], Sigma0=[[1.0]]
        )
        from ssmkit import simulate_lgssm

        _, obs = simulate_lgssm(exact, 60, SeededGenerator(777))
        kal = kalman_filter(exact, obs)
        pf = bootstrap_filter(lgssm_as_generic(exact), obs, 4000, SeededGenerator(88))
        rmse = np.sqrt(
            np.mean((pf.filtered_means[:, 0] - kal.filtered_means[:, 0]) ** 2)
        )
        assert rmse < 0.05
        assert abs(pf.log_likelihood_estimate - kal.log_likelihood) < 1.5


class TestFixedLagSmoother:
    SCALAR = LinearGaussianModel(
        A=[[0.9]], C=[[1.0]], Q=[[0.19]], R=[[0.5]], mu0=[0.0], Sigma0=[[1.0]]
    )

    def test_lag_zero_reproduces_filter(self):
        model = lgssm_as_generic(self.SCALAR)
        obs = real([0.5, -0.2, 0.9, 0.1, 0.4])
        filt = bootstrap_filter(model, obs, 128, SeededGenerator(55))
        smoothed = fixed_lag_smoother(model, obs, 128, 0, SeededGenerator(55))
        np.testing.assert_array_equal(smoothed, filt.filtered_means)

    def test_lag_beyond_horizon_saturates(self):
        model = lgssm_as_generic(self.SCALAR)
        obs = real([0.5, -0.2, 0.9, 0.1, 0.4])
        a = fixed_lag_smoother(model, obs, 64, 5, SeededGenerator(9))
        b = fixed_lag_smoother(model, obs, 64, 12, SeededGenerator(9))
        np.testing.assert_array_equal(a, b)

    def test_terminal_row_equals_filtered(self):
        model = lgssm_as_generic(self.SCALAR)
        obs = real([0.5, -0.2, 0.9, 0.1, 0.4])
        filt = bootstrap_filter(model, obs, 64, SeededGenerator(10))
        smoothed = fixed_lag_smoother(model, obs, 64, 3, SeededGenerator(10))
        np.testing.assert_allclose(smoothed[-1], filt.filtered_means[-1], atol=1e-12)

    def test_negative_lag_rejected(self):
        model = lgssm_as_generic(self.SCALAR)
        with pytest.raises(ValueError):
            fixed_lag_smoother(model, real([0.1]), 8, -1, SeededGenerator(0))

    def test_embedded_chain_matches_exact_smoother(self):
        # Two-state chain embedded on {0.0, 1.0} so the smoothed mean equals
        # the exact posterior probability of state 1.
        hmm = DiscreteHMM(
            [0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[0.8, 0.2], [0.3, 0.7]]
        )
        symbols = [0, 1, 1]

        def init_sampler(n, rng):
            u = rng.uniforms(n)
            return (u >= hmm.initial[0]).astype(float)[:, None]

        def transition_sampler(states, t, rng):
            u = rng.uniforms(states.shape[0])
            stay0 = hmm.transition[0, 0]
            go0 = hmm.transition[1, 0]
            from0 = states[:, 0] < 0.5
            return np.where(from0, u >= stay0, u >= go0).astype(float)[:, None]

        def observation_logdensity(states, y, t):
            symbol = int(y[0])
            probs = np.where(
                states[:, 0] < 0.5,
                hmm.emission[0, symbol],
                hmm.emission[1, symbol],
            )
            return np.log(probs)

        generic = GenericStateSpaceModel(
            d_x=1,
            init_sampler=init_sampler,
            transition_sampler=transition_sampler,
            observation_logdensity=observation_logdensity,
        )
        obs_sym = ObservationSeries(symbols, kind="symbolic")
        obs_real = real([float(s) for s in symbols])

        fwd = forward_filter(hmm, obs_sym)
        exact = backward_smooth(hmm, obs_sym, fwd)

        smoothed = fixed_lag_smoother(generic, obs_real, 100_000, 3,
                                      SeededGenerator(2025))
        np.testing.assert_allclose(smoothed[:, 0], exact.smoothed[:, 1], atol=0.02)

        filt = bootstrap_filter(generic, obs_real, 100_000, SeededGenerator(2025))
        np.testing.assert_allclose(
            filt.filtered_means[:, 0], fwd.filtered[:, 1], atol=0.02
        )
        assert abs(filt.log_likelihood_estimate - fwd.log_likelihood) < 0.02


@pytest.mark.parametrize(
    "run",
    [
        lambda model, obs: bootstrap_filter(model, obs, 10, SeededGenerator(1)),
        lambda model, obs: fixed_lag_smoother(model, obs, 10, 1, SeededGenerator(1)),
        lambda model, obs: pf_loglik(model, obs, 10, 2, 1),
    ],
    ids=["bootstrap_filter", "fixed_lag_smoother", "pf_loglik"],
)
def test_empty_series_rejected(run):
    # As kalman_filter and forward_filter do, instead of a log-likelihood
    # of 0 over no steps.
    with pytest.raises(ValueError, match="at least one entry"):
        run(point_mass_model(), real(np.zeros((0, 1))))


class TestPfLoglik:
    MODEL = LinearGaussianModel(
        A=[[0.9]], C=[[1.0]], Q=[[0.19]], R=[[0.5]], mu0=[0.0], Sigma0=[[1.0]]
    )

    def test_single_rep_has_no_stderr(self):
        mean, stderr = pf_loglik(
            lgssm_as_generic(self.MODEL), real([0.4, -0.1]), 200, 1, 42
        )
        assert stderr is None
        assert np.isfinite(mean)

    def test_mean_and_stderr_definitions(self):
        model = lgssm_as_generic(self.MODEL)
        obs = real([0.5, -0.2, 0.9])
        mean, stderr = pf_loglik(model, obs, 150, 4, 70)
        singles = np.array(
            [
                bootstrap_filter(model, obs, 150, SeededGenerator(70 + r))
                .log_likelihood_estimate
                for r in range(4)
            ]
        )
        assert mean == pytest.approx(singles.mean(), abs=1e-12)
        assert stderr == pytest.approx(singles.std(ddof=1) / 2.0, abs=1e-12)

    def test_deterministic(self):
        model = lgssm_as_generic(self.MODEL)
        obs = real([0.5, -0.2])
        assert pf_loglik(model, obs, 100, 3, 9) == pf_loglik(model, obs, 100, 3, 9)

    def test_reps_validation(self):
        with pytest.raises(ValueError):
            pf_loglik(lgssm_as_generic(self.MODEL), real([0.1]), 10, 0, 1)

    def test_collapse_names_rep(self):
        model = GenericStateSpaceModel(
            d_x=1,
            init_sampler=lambda n, rng: np.zeros((n, 1)),
            transition_sampler=lambda s, t, rng: s,
            observation_logdensity=lambda s, y, t: np.full(s.shape[0], -np.inf),
        )
        with pytest.raises(ParticleCollapseError, match="rep 0"):
            pf_loglik(model, real(np.zeros(2)), 5, 2, 3)
