"""The particle layer against its plain forms, compared byte for byte: every
product through matmul, the observation density through a triangular solve
on every step, multinomial search on unsorted draws, and a separate ancestry
walk for every smoothed row."""

import numpy as np
import pytest

from ssmkit import (
    GenericStateSpaceModel,
    LinearGaussianModel,
    ObservationSeries,
    SeededGenerator,
    bootstrap_filter,
    fixed_lag_smoother,
    gaussian_logpdf,
    lgssm_as_generic,
    multinomial_resample,
    simulate_lgssm,
    systematic_resample,
)
from ssmkit.numerics import effective_sample_size, log_sum_exp, psd_sampling_factor
from ssmkit import particle
from ssmkit.particle import _check_weights


def reference_generic(model):
    """lgssm_as_generic with every product a plain matmul and the density
    solving against the Cholesky factor of R on every call."""
    l_init = psd_sampling_factor(model.Sigma0, "Sigma0")
    l_state = psd_sampling_factor(model.Q, "Q")
    chol_r = np.linalg.cholesky(model.R)
    log_det_r = 2.0 * float(np.sum(np.log(np.diag(chol_r))))
    log_norm = -0.5 * (model.d_y * np.log(2.0 * np.pi) + log_det_r)

    def init_sampler(n, rng):
        return model.mu0 + rng.normals(n * model.d_x).reshape(n, model.d_x) @ l_init.T

    def transition_sampler(states, t, rng):
        n = states.shape[0]
        z = rng.normals(n * model.d_x).reshape(n, model.d_x)
        return states @ model.A.T + z @ l_state.T

    def observation_logdensity(states, y, t):
        resid = y[None, :] - states @ model.C.T
        z = np.linalg.solve(chol_r, resid.T)
        return log_norm - 0.5 * np.sum(z * z, axis=0)

    return GenericStateSpaceModel(
        d_x=model.d_x,
        init_sampler=init_sampler,
        transition_sampler=transition_sampler,
        observation_logdensity=observation_logdensity,
    )


def reference_multinomial(weights, rng, n=None):
    """Categorical draws by searching the CDF in draw order; the CDF is 1.0
    from the last positive weight onward."""
    w = _check_weights(weights)
    n = w.shape[0] if n is None else n
    cdf = np.cumsum(w)
    cdf[np.flatnonzero(w)[-1]:] = 1.0
    return np.searchsorted(cdf, rng.uniforms(n), side="right").astype(np.int64)


def reference_filter(model, obs, N, seed, threshold, scheme):
    """The bootstrap filter loop with its full history, resampling through
    the reference multinomial draw."""
    rng = SeededGenerator(seed)
    y = obs.values
    T = y.shape[0]
    particles = np.asarray(
        model.init_sampler(N, rng.derive("step", 0)), dtype=float
    ).reshape(N, model.d_x)
    log_w = np.full(N, -np.log(N))
    means = np.empty((T, model.d_x))
    ess_trace = np.empty(T)
    events = []
    log_likelihood = 0.0
    ancestors = np.empty((T, N), dtype=np.int64)
    history = np.empty((T, N, model.d_x))
    weight_history = np.empty((T, N))
    for t in range(T):
        if t > 0:
            particles = np.asarray(
                model.transition_sampler(particles, t + 1, rng.derive("step", t)),
                dtype=float,
            ).reshape(N, model.d_x)
        log_g = np.asarray(
            model.observation_logdensity(particles, y[t], t + 1), dtype=float
        ).reshape(N)
        combined = log_w + log_g
        total = log_sum_exp(combined)
        log_likelihood += total
        log_w = combined - total
        weights = np.exp(log_w)
        weights = weights / weights.sum()
        means[t] = weights @ particles
        ess_trace[t] = effective_sample_size(weights)
        history[t] = particles
        weight_history[t] = weights
        if threshold >= 1.0 or ess_trace[t] < threshold * N:
            if scheme == "systematic":
                u = float(rng.derive("resample", t).uniforms(1)[0])
                idx = systematic_resample(weights, u)
            else:
                idx = reference_multinomial(weights, rng.derive("resample", t))
            particles = particles[idx]
            log_w = np.full(N, -np.log(N))
            events.append(t + 1)
            ancestors[t] = idx
        else:
            ancestors[t] = np.arange(N)
    return dict(
        filtered_means=means,
        ess_trace=ess_trace,
        log_likelihood_estimate=float(log_likelihood),
        resample_events=events,
        particles=particles,
        log_weights=log_w,
        ancestors=ancestors,
        history=history,
        weight_history=weight_history,
    )


def reference_lineage(ancestors, t, lag):
    """Walk the ancestry back from min(t+lag, T-1) to t, one step at a time."""
    T, N = ancestors.shape
    lineage = np.arange(N)
    for s in range(min(t + lag, T - 1), t, -1):
        lineage = ancestors[s - 1][lineage]
    return lineage


def reference_smoother(run, lag):
    T = run["history"].shape[0]
    smoothed = np.empty((T, run["history"].shape[2]))
    for t in range(T):
        horizon = min(t + lag, T - 1)
        lineage = reference_lineage(run["ancestors"], t, lag)
        smoothed[t] = run["weight_history"][horizon] @ run["history"][t][lineage]
    return smoothed


SCALAR = LinearGaussianModel(
    A=[[0.9]], C=[[1.0]], Q=[[0.19]], R=[[0.5]], mu0=[0.0], Sigma0=[[1.0]]
)


def diagonal_model(d_x=3, d_y=2, seed=7):
    """A d_y > 1 model whose R is diagonal, so the inverse factor is too."""
    gen = np.random.default_rng(seed)
    q, _ = np.linalg.qr(gen.standard_normal((d_x, d_x)))
    return LinearGaussianModel(
        A=0.9 * q, C=gen.standard_normal((d_y, d_x)), Q=0.1 * np.eye(d_x),
        R=np.diag(np.linspace(0.3, 0.8, d_y)), mu0=np.zeros(d_x),
        Sigma0=np.eye(d_x),
    )


def simulated(model, T, seed):
    _, obs = simulate_lgssm(model, T, SeededGenerator(seed))
    return obs


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


N = 200
# 0.5 / N: ESS never drops below half a particle, so nothing is resampled.
THRESHOLDS = [0.5, 1.0, 0.5 / N]


class TestFilterMatchesReference:
    @pytest.mark.parametrize("scheme", ["systematic", "multinomial"])
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    @pytest.mark.parametrize("model", [SCALAR, diagonal_model()], ids=["scalar", "diagonal_R"])
    def test_filter_outputs(self, model, threshold, scheme):
        obs = simulated(model, 40, 3)
        run = bootstrap_filter(lgssm_as_generic(model), obs, N, SeededGenerator(11),
                               resample_threshold=threshold, scheme=scheme)
        ref = reference_filter(reference_generic(model), obs, N, 11, threshold, scheme)
        assert same_bytes(run.filtered_means, ref["filtered_means"])
        assert same_bytes(run.ess_trace, ref["ess_trace"])
        assert run.log_likelihood_estimate == ref["log_likelihood_estimate"]
        assert run.resample_events == ref["resample_events"]
        assert same_bytes(run.final_set.particles, ref["particles"])
        assert same_bytes(run.final_set.log_weights, ref["log_weights"])
        if threshold == 0.5 / N:
            assert run.resample_events == []
        if threshold == 1.0:
            assert run.resample_events == list(range(1, 41))


class TestSmootherMatchesReference:
    T = 23  # not a multiple of any lag tested below except 1 and T

    # Threshold 1 resamples at the last step too, after its rows are formed.
    @pytest.mark.parametrize("threshold", [0.5, 1.0])
    @pytest.mark.parametrize("lag", [0, 1, 2, 5, 7, T - 1, T, T + 5])
    @pytest.mark.parametrize("scheme", ["systematic", "multinomial"])
    def test_rows(self, lag, scheme, threshold):
        obs = simulated(SCALAR, self.T, 4)
        rows = fixed_lag_smoother(lgssm_as_generic(SCALAR), obs, N, lag,
                                  SeededGenerator(12), resample_threshold=threshold,
                                  scheme=scheme)
        ref = reference_filter(reference_generic(SCALAR), obs, N, 12, threshold, scheme)
        assert same_bytes(rows, reference_smoother(ref, lag))

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_rows_across_thresholds(self, threshold):
        model = diagonal_model()
        obs = simulated(model, 30, 5)
        rows = fixed_lag_smoother(lgssm_as_generic(model), obs, N, 4,
                                  SeededGenerator(13), resample_threshold=threshold)
        ref = reference_filter(reference_generic(model), obs, N, 13, threshold,
                               "systematic")
        assert same_bytes(rows, reference_smoother(ref, 4))


class TestLineages:
    """The ring against a separate ancestry walk on prescribed random
    ancestries: the resampling draw is replaced by the given indices, and
    every particle position is a fresh normal, so a row only matches when
    each particle's carried position is its ancestor's."""

    @pytest.mark.parametrize("T", [1, 2, 9, 10, 11, 40])
    @pytest.mark.parametrize("lag", [0, 1, 2, 3, 5, 10, 39, 40, 45])
    def test_random_ancestries(self, T, lag, monkeypatch):
        gen = np.random.default_rng(T * 100 + lag)
        n, d_x = 17, 3
        ancestors = gen.integers(0, n, size=(T, n))
        ancestors[::3] = np.arange(n)  # steps that keep every particle
        history, weight_history = [], []

        def draw(states):
            return gen.standard_normal((states, d_x))

        def observation_logdensity(states, y, t):
            history.append(states.copy())
            return -0.5 * np.sum(states * states, axis=1)

        def prescribed(weights, u):
            weight_history.append(weights.copy())
            return ancestors[len(weight_history) - 1]

        model = GenericStateSpaceModel(
            d_x=d_x,
            init_sampler=lambda count, rng: draw(count),
            transition_sampler=lambda states, t, rng: draw(states.shape[0]),
            observation_logdensity=observation_logdensity,
        )
        monkeypatch.setattr(particle, "systematic_resample", prescribed)
        rows = fixed_lag_smoother(model, ObservationSeries(np.zeros((T, 1)), "real"), n,
                                  lag, SeededGenerator(0), resample_threshold=1.0)
        assert len(history) == len(weight_history) == T
        for t in range(T):
            horizon = min(t + lag, T - 1)
            lineage = reference_lineage(ancestors, t, lag)
            assert same_bytes(rows[t], weight_history[horizon] @ history[t][lineage])


class TestMultinomialMatchesReference:
    @pytest.mark.parametrize("n", [None, 1, 7, 333, 2500])
    def test_draws(self, n):
        gen = np.random.default_rng(8)
        w = gen.random(1000)
        w[gen.random(1000) < 0.4] = 0.0  # zero-weight entries are never drawn
        w /= w.sum()
        idx = multinomial_resample(w, SeededGenerator(21), n)
        ref = reference_multinomial(w, SeededGenerator(21), n)
        assert same_bytes(idx, ref)
        assert np.all(w[idx] > 0)

    def test_ties_and_one_hot(self):
        w = np.zeros(50)
        w[[0, 17, 49]] = [0.25, 0.5, 0.25]
        for seed in range(5):
            assert same_bytes(multinomial_resample(w, SeededGenerator(seed), 400),
                              reference_multinomial(w, SeededGenerator(seed), 400))

    def test_many_draws_per_bucket(self):
        # About 3 draws per 1/65536 of [0, 1), so draws that share their
        # top 16 bits reach the search out of order.
        gen = np.random.default_rng(9)
        w = gen.random(1000)
        w[gen.random(1000) < 0.3] = 0.0
        w /= w.sum()
        idx = multinomial_resample(w, SeededGenerator(22), 200_000)
        assert same_bytes(idx, reference_multinomial(w, SeededGenerator(22), 200_000))
        assert np.all(w[idx] > 0)

    def test_draws_on_and_just_below_cdf_entries(self):
        gen = np.random.default_rng(10)
        w = gen.random(300)
        w[gen.random(300) < 0.3] = 0.0
        w /= w.sum()
        cdf = np.cumsum(w)
        cdf = cdf[cdf < 1.0]
        draws = np.concatenate([cdf, np.nextafter(cdf, 0.0), [0.0, 1.0 - 2.0**-53]])
        draws = np.repeat(draws, 2)
        gen.shuffle(draws)

        class Replay:
            def uniforms(self, count):
                assert count == draws.size
                return draws.copy()

        idx = multinomial_resample(w, Replay(), draws.size)
        assert same_bytes(idx, reference_multinomial(w, Replay(), draws.size))
        assert np.all(w[idx] > 0)


class TestProductMatchesMatmul:
    """particle._times against the installed numpy's matmul, so a numpy
    whose loop rounds or signs zeros differently fails here."""

    SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                        2.2250738585072014e-308 / 3, 1e308, -1.5])

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 200, 10_000, 100_000])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_inner_size_one(self, n, k):
        gen = np.random.default_rng(n * 10 + k)
        x = gen.standard_normal((n, 1))
        special = gen.random((n, 1)) < 0.5
        x[special] = gen.choice(self.SPECIAL, size=int(special.sum()))
        x[0] = -0.0
        for m_row in [gen.standard_normal(k), gen.choice(self.SPECIAL, size=k),
                      np.full(k, -0.0), np.full(k, 5e-324)]:
            for m in (m_row[None, :], m_row[:, None].T):  # contiguous and a view
                with np.errstate(all="ignore"):
                    assert same_bytes(particle._times(x, m), x @ m)


class TestDenseObservationNoise:
    """With a non-diagonal R the inverse factor can round differently from
    a solve in the last bit, so the density is held to an oracle at 1e-12."""

    @pytest.mark.parametrize("d_y", [2, 3, 5])
    def test_density_matches_gaussian_logpdf(self, d_y):
        gen = np.random.default_rng(d_y)
        d_x = 4
        m = gen.standard_normal((d_y, d_y))
        model = LinearGaussianModel(
            A=0.5 * np.eye(d_x), C=gen.standard_normal((d_y, d_x)),
            Q=np.eye(d_x), R=m @ m.T + 0.5 * np.eye(d_y), mu0=np.zeros(d_x),
            Sigma0=np.eye(d_x),
        )
        states = gen.standard_normal((300, d_x))
        y = gen.standard_normal(d_y)
        got = lgssm_as_generic(model).observation_logdensity(states, y, 1)
        expected = np.array([gaussian_logpdf(y, model.C @ x, model.R) for x in states])
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
