"""Forward simulators: determinism, structural identities, moment checks."""

import numpy as np
import pytest

from ssmkit import (
    DiscreteHMM,
    LinearGaussianModel,
    ModelValidationError,
    SeededGenerator,
    simulate_hmm,
    simulate_lgssm,
)


def capped_cumsum(rows):
    """Cumulative sums along each row, 1.0 from its last positive entry on."""
    rows = np.atleast_2d(rows)
    cum = np.cumsum(rows, axis=1)
    for c, p in zip(cum, rows):
        c[np.flatnonzero(p)[-1]:] = 1.0
    return cum


def reference_simulate_hmm(model, T, rng):
    """simulate_hmm with one sorted search per step of the state chain."""
    cum_init = capped_cumsum(model.initial)[0]
    cum_trans = capped_cumsum(model.transition)
    cum_emit = capped_cumsum(model.emission)
    u_states = rng.uniforms(T)
    states = np.empty(T, dtype=np.int64)
    states[0] = np.searchsorted(cum_init, u_states[0], side="right")
    for t in range(1, T):
        row = cum_trans[states[t - 1]]
        states[t] = np.searchsorted(row, u_states[t], side="right")
    u_obs = rng.uniforms(T)
    rows = cum_emit[states]
    symbols = np.sum(u_obs[:, None] >= rows, axis=1)
    return states, symbols.astype(np.int64)


def random_hmm(K, M, gen):
    """A random HMM whose rows have interior and trailing zeros."""

    def rows(k, m):
        p = gen.exponential(size=(k, m))
        if m > 1:
            p[gen.random((k, m)) < 0.3] = 0.0
            p[: k // 2, -1] = 0.0  # trailing zeros on half the rows
        p[np.arange(k), gen.integers(0, m, size=k)] += 0.5  # no empty row
        return p / p.sum(axis=1, keepdims=True)

    return DiscreteHMM(rows(1, K)[0], rows(K, K), rows(K, M))


def two_state_hmm():
    return DiscreteHMM([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[0.8, 0.2], [0.3, 0.7]])


class TestSimulateHmm:
    def test_identity_emission_observations_equal_states(self):
        m = DiscreteHMM([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], np.eye(2))
        path, obs = simulate_hmm(m, 500, SeededGenerator(4))
        np.testing.assert_array_equal(path.states, obs.values)

    def test_same_seed_bit_identical(self):
        p1, o1 = simulate_hmm(two_state_hmm(), 200, SeededGenerator(12))
        p2, o2 = simulate_hmm(two_state_hmm(), 200, SeededGenerator(12))
        np.testing.assert_array_equal(p1.states, p2.states)
        np.testing.assert_array_equal(o1.values, o2.values)

    def test_empirical_transition_frequencies(self):
        m = two_state_hmm()
        path, _ = simulate_hmm(m, 100_000, SeededGenerator(2024))
        s = path.states
        for i in range(2):
            from_i = s[:-1] == i
            for j in range(2):
                freq = np.mean(s[1:][from_i] == j)
                assert abs(freq - m.transition[i, j]) < 0.01

    def test_uninformative_dynamics_marginal(self):
        r = np.array([0.35, 0.65])
        m = DiscreteHMM(r, [r, r], [[0.8, 0.2], [0.3, 0.7]])
        path, _ = simulate_hmm(m, 100_000, SeededGenerator(5))
        assert abs(np.mean(path.states == 1) - r[1]) < 0.01

    @pytest.mark.parametrize("K", [1, 2, 3, 10, 40])
    @pytest.mark.parametrize("T", [1, 2, 3000])
    def test_matches_per_step_reference(self, K, T):
        gen = np.random.default_rng(1000 * K + T)
        for seed in range(4):
            model = random_hmm(K, 4, gen)
            path, obs = simulate_hmm(model, T, SeededGenerator(seed))
            states, symbols = reference_simulate_hmm(model, T, SeededGenerator(seed))
            assert path.states.dtype == states.dtype
            assert path.states.tobytes() == states.tobytes()
            assert obs.values.dtype == symbols.dtype
            assert obs.values.tobytes() == symbols.tobytes()

    def test_uniforms_on_cumulative_entries_match_reference(self):
        # Draws equal to a cumulative entry, or just below one, are where a
        # search that breaks ties another way would give another index.
        gen = np.random.default_rng(77)
        model = random_hmm(6, 5, gen)
        cums = np.concatenate([np.cumsum(model.initial),
                               np.cumsum(model.transition, axis=1).ravel(),
                               np.cumsum(model.emission, axis=1).ravel()])
        cums = cums[cums < 1.0]
        values = np.concatenate([cums, np.nextafter(cums, 0.0)])
        draws = gen.choice(values, size=2 * 500)

        class Replay:
            def __init__(self):
                self.position = 0

            def uniforms(self, count):
                self.position += count
                return draws[self.position - count:self.position].copy()

        path, obs = simulate_hmm(model, 500, Replay())
        states, symbols = reference_simulate_hmm(model, 500, Replay())
        assert path.states.tobytes() == states.tobytes()
        assert obs.values.tobytes() == symbols.tobytes()

    def test_top_uniform_never_draws_probability_zero(self):
        # Each cumulative row ends at 0.9999999999999999, which is the
        # largest uniform, 1 - 2**-53; that draw goes to the last positive
        # entry, not past the row.
        p = [0.7, 0.2, 0.1, 0.0]
        model = DiscreteHMM(p, [p] * 4, [p] * 4)
        assert np.cumsum(p)[-1] == 1.0 - 2.0**-53

        class Top:
            def uniforms(self, count):
                return np.full(count, 1.0 - 2.0**-53)

        path, obs = simulate_hmm(model, 3, Top())
        assert path.states.tolist() == [2, 2, 2]
        assert obs.values.tolist() == [2, 2, 2]
        states, symbols = reference_simulate_hmm(model, 3, Top())
        assert path.states.tobytes() == states.tobytes()
        assert obs.values.tobytes() == symbols.tobytes()

    def test_t_must_be_positive(self):
        with pytest.raises(ValueError):
            simulate_hmm(two_state_hmm(), 0, SeededGenerator(1))

    def test_invalid_model_rejected(self):
        bad = DiscreteHMM([0.5, 0.5], [[0.5, 0.4], [0.2, 0.8]], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ModelValidationError):
            simulate_hmm(bad, 5, SeededGenerator(1))


class TestSimulateLgssm:
    def test_deterministic_fixed_point(self):
        m = LinearGaussianModel(
            A=np.eye(2), C=np.eye(2), Q=np.zeros((2, 2)), R=np.eye(2),
            mu0=[1.5, -2.0], Sigma0=np.zeros((2, 2)),
        )
        path, _ = simulate_lgssm(m, 10, SeededGenerator(3))
        np.testing.assert_allclose(path.states, np.tile([1.5, -2.0], (10, 1)))

    def test_zero_state_noise_is_linear_orbit(self):
        m = LinearGaussianModel(
            A=[[0.5]], C=[[1.0]], Q=[[0.0]], R=[[1.0]], mu0=[8.0], Sigma0=[[0.0]]
        )
        path, _ = simulate_lgssm(m, 6, SeededGenerator(3))
        np.testing.assert_allclose(
            path.states[:, 0], 8.0 * 0.5 ** np.arange(6), rtol=1e-14
        )

    def test_same_seed_bit_identical(self):
        m = LinearGaussianModel(
            A=[[0.9]], C=[[1.0]], Q=[[0.1]], R=[[0.5]], mu0=[0.0], Sigma0=[[1.0]]
        )
        p1, o1 = simulate_lgssm(m, 100, SeededGenerator(8))
        p2, o2 = simulate_lgssm(m, 100, SeededGenerator(8))
        np.testing.assert_array_equal(p1.states, p2.states)
        np.testing.assert_array_equal(o1.values, o2.values)

    def test_observation_noise_moment(self):
        m = LinearGaussianModel(
            A=[[1.0]], C=[[1.0]], Q=[[0.1]], R=[[0.5]], mu0=[0.0], Sigma0=[[1.0]]
        )
        path, obs = simulate_lgssm(m, 100_000, SeededGenerator(77))
        noise = obs.values[:, 0] - path.states[:, 0]
        assert abs(noise.var() - 0.5) < 0.01  # within 2% of R

    def test_rank_one_q_increments_stay_in_its_range(self):
        q_dir = np.array([1.0, 2.0, -1.0])
        q = 0.3 * np.outer(q_dir, q_dir)
        m = LinearGaussianModel(
            A=0.9 * np.eye(3), C=np.eye(3), Q=q, R=np.eye(3),
            mu0=np.zeros(3), Sigma0=np.eye(3),
        )
        path, _ = simulate_lgssm(m, 50_000, SeededGenerator(21))
        x = path.states
        increments = x[1:] - x[:-1] @ m.A.T
        unit = q_dir / np.linalg.norm(q_dir)
        off_range = increments - np.outer(increments @ unit, unit)
        assert np.max(np.abs(off_range)) <= 1e-12
        # Over 49,999 draws the largest entry's standard error is
        # sqrt(2 * 1.2**2 / 49,999) ~ 0.0076, so 0.05 is over 6 of them.
        np.testing.assert_allclose(np.cov(increments.T), q, atol=0.05)

    def test_rejects_indefinite_q(self):
        m = LinearGaussianModel(
            A=np.eye(2), C=np.eye(2), Q=[[1.0, 2.0], [2.0, 1.0]], R=np.eye(2),
            mu0=np.zeros(2), Sigma0=np.eye(2),
        )
        with pytest.raises(ModelValidationError):
            simulate_lgssm(m, 5, SeededGenerator(1))
