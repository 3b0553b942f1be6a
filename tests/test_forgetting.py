"""Filter sensitivity to the prior: TV curves, contraction, fitted rates."""

import numpy as np
import pytest

from ssmkit import (
    DegenerateCurveError,
    DiscreteHMM,
    ObservationSeries,
    SeededGenerator,
    dobrushin_coefficient,
    fit_decay_rate,
    forgetting_curve,
    simulate_hmm,
    tv_distance,
)


def sym(values):
    return ObservationSeries(values, kind="symbolic")


def uniform_emission_chain(b, c, m=2):
    return DiscreteHMM(
        [0.5, 0.5], [[1 - b, b], [c, 1 - c]], np.full((2, m), 1.0 / m)
    )


class TestTvDistance:
    def test_identical(self):
        assert tv_distance([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_disjoint_is_one(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_hand_value(self):
        assert tv_distance([0.7, 0.3], [0.5, 0.5]) == pytest.approx(0.2, abs=1e-15)

    def test_symmetric(self):
        p, q = [0.2, 0.3, 0.5], [0.6, 0.1, 0.3]
        assert tv_distance(p, q) == tv_distance(q, p)

    def test_validation(self):
        with pytest.raises(ValueError):
            tv_distance([0.5, 0.5], [0.5, 0.5, 0.0])
        with pytest.raises(ValueError):
            tv_distance([0.6, 0.6], [0.5, 0.5])
        with pytest.raises(ValueError):
            tv_distance([1.5, -0.5], [0.5, 0.5])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="p must be a probability vector"):
            tv_distance([np.nan, 1.0], [0.5, 0.5])


class TestDobrushin:
    def test_identity_does_not_contract(self):
        assert dobrushin_coefficient(np.eye(2)) == 1.0

    def test_rank_one_contracts_fully(self):
        assert dobrushin_coefficient([[0.3, 0.7], [0.3, 0.7]]) == 0.0

    def test_hand_value(self):
        assert dobrushin_coefficient([[0.9, 0.1], [0.2, 0.8]]) == pytest.approx(0.7)

    def test_single_state(self):
        assert dobrushin_coefficient([[1.0]]) == 0.0

    def test_bounds_one_step_contraction(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            k = int(rng.integers(2, 5))
            t = rng.exponential(size=(k, k)) + 0.01
            t /= t.sum(axis=1, keepdims=True)
            delta = dobrushin_coefficient(t)
            p = rng.exponential(size=k)
            p /= p.sum()
            q = rng.exponential(size=k)
            q /= q.sum()
            assert tv_distance(p @ t, q @ t) <= delta * tv_distance(p, q) + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            dobrushin_coefficient(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            dobrushin_coefficient([[0.9, 0.2], [0.2, 0.8]])


class TestFitDecayRate:
    def test_exact_geometric(self):
        curve = 0.3 * 0.8 ** np.arange(40)
        assert fit_decay_rate(curve, (0, 40)) == pytest.approx(0.8, abs=1e-10)

    def test_noisy_geometric(self):
        rng = np.random.default_rng(62)
        curve = 0.5 * 0.6 ** np.arange(60) * np.exp(rng.normal(0, 0.01, size=60))
        assert fit_decay_rate(curve, (0, 60)) == pytest.approx(0.6, abs=0.02)

    def test_growth_clamped_to_one(self):
        curve = 0.01 * 1.3 ** np.arange(20)
        assert fit_decay_rate(curve, (0, 20)) == 1.0

    def test_all_zero_curve(self):
        with pytest.raises(DegenerateCurveError):
            fit_decay_rate(np.zeros(10), (0, 10))

    def test_one_positive_entry(self):
        curve = np.zeros(10)
        curve[3] = 0.5
        with pytest.raises(DegenerateCurveError):
            fit_decay_rate(curve, (0, 10))

    def test_window_validation(self):
        curve = 0.5 ** np.arange(10)
        with pytest.raises(ValueError):
            fit_decay_rate(curve, (5, 5))
        with pytest.raises(ValueError):
            fit_decay_rate(curve, (0, 11))
        with pytest.raises(ValueError):
            fit_decay_rate(curve, (-1, 5))

    def test_subwindow_only(self):
        # Rate fitted on the window, ignoring a flat head outside it.
        curve = np.concatenate([np.full(5, 0.9), 0.9 * 0.5 ** np.arange(1, 21)])
        assert fit_decay_rate(curve, (5, 25)) == pytest.approx(0.5, abs=1e-8)


class TestForgettingCurve:
    def test_two_state_uniform_emission_is_exactly_geometric(self):
        # With uninformative observations the filter is pure prior
        # propagation, and for two states the TV gap contracts by exactly
        # |1 - b - c| per step.
        model = uniform_emission_chain(0.1, 0.2)
        obs = sym(np.zeros(40, dtype=int))
        curve = forgetting_curve(model, obs, [1.0, 0.0], [0.0, 1.0])
        rate = 0.7
        want = 1.0 * rate ** np.arange(40)
        np.testing.assert_allclose(curve.tv, want, atol=1e-12)
        assert curve.rho_hat == pytest.approx(rate, abs=1e-10)
        assert curve.fit_window == (10, 30)

    def test_pointwise_dobrushin_contraction(self):
        rng = np.random.default_rng(63)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            t = rng.exponential(size=(k, k)) + 0.05
            t /= t.sum(axis=1, keepdims=True)
            model = DiscreteHMM(np.full(k, 1.0 / k), t, np.full((k, 2), 0.5))
            delta = dobrushin_coefficient(t)
            obs = sym(rng.integers(0, 2, size=30))
            p = rng.exponential(size=k)
            p /= p.sum()
            q = rng.exponential(size=k)
            q /= q.sum()
            curve = forgetting_curve(model, obs, p, q)
            for t_idx in range(29):
                assert curve.tv[t_idx + 1] <= delta * curve.tv[t_idx] + 1e-12

    def test_identical_priors_give_no_rate(self):
        model = uniform_emission_chain(0.3, 0.3)
        curve = forgetting_curve(model, sym([0, 1, 0, 1]), [0.5, 0.5], [0.5, 0.5])
        np.testing.assert_array_equal(curve.tv, np.zeros(4))
        assert curve.rho_hat is None

    def test_short_series_widens_window(self):
        # T=2 makes the central-half window empty, so it widens to (0, T).
        model = uniform_emission_chain(0.2, 0.3)
        curve = forgetting_curve(model, sym([0, 1]), [1.0, 0.0], [0.0, 1.0])
        assert curve.fit_window == (0, 2)
        assert curve.rho_hat == pytest.approx(0.5, abs=1e-10)

    def test_informative_model_forgets(self):
        rng = np.random.default_rng(64)
        for _ in range(3):
            k = 3
            raw = rng.uniform(0.05, 1.0, size=(k, k))
            transition = raw / raw.sum(axis=1, keepdims=True)
            raw_e = rng.uniform(0.05, 1.0, size=(k, 2))
            emission = raw_e / raw_e.sum(axis=1, keepdims=True)
            model = DiscreteHMM(np.full(k, 1 / 3), transition, emission)
            _, obs = simulate_hmm(model, 300, SeededGenerator(int(rng.integers(1 << 30))))
            curve = forgetting_curve(model, obs, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
            assert curve.rho_hat is not None and curve.rho_hat < 1.0
            assert curve.tv[-1] < 1e-4

    def test_swapping_priors_changes_nothing(self):
        model = DiscreteHMM(
            [0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[0.8, 0.2], [0.3, 0.7]]
        )
        _, obs = simulate_hmm(model, 60, SeededGenerator(65))
        ab = forgetting_curve(model, obs, [0.9, 0.1], [0.2, 0.8])
        ba = forgetting_curve(model, obs, [0.2, 0.8], [0.9, 0.1])
        np.testing.assert_array_equal(ab.tv, ba.tv)
        assert ab.rho_hat == ba.rho_hat
        assert ab.fit_window == ba.fit_window

    def test_extreme_priors_merge_on_long_series(self):
        model = DiscreteHMM(
            [0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[0.8, 0.2], [0.3, 0.7]]
        )
        _, obs = simulate_hmm(model, 200, SeededGenerator(66))
        curve = forgetting_curve(model, obs, [1.0, 0.0], [0.0, 1.0])
        assert curve.tv[0] > 0.0
        assert curve.rho_hat is not None and curve.rho_hat < 1.0
        assert curve.tv[-1] < 1e-6

    def test_prior_validation(self):
        model = uniform_emission_chain(0.2, 0.3)
        with pytest.raises(ValueError):
            forgetting_curve(model, sym([0, 1]), [0.6, 0.6], [0.5, 0.5])

    def test_tv_values_are_probability_distances(self):
        model = DiscreteHMM(
            [0.5, 0.5], [[0.8, 0.2], [0.3, 0.7]], [[0.9, 0.1], [0.4, 0.6]]
        )
        _, obs = simulate_hmm(model, 50, SeededGenerator(12))
        curve = forgetting_curve(model, obs, [0.9, 0.1], [0.1, 0.9])
        assert np.all(curve.tv >= 0.0)
        assert np.all(curve.tv <= 1.0)


class TestPriorTolerance:
    # The priors are checked at the forward filter's 1e-12 row-sum
    # tolerance, so a prior off by 1e-10 is named here instead of failing
    # inside the filter; tv_distance keeps its looser 1e-9.
    def test_prior_off_by_1e_10_rejected_by_name(self):
        model = uniform_emission_chain(0.1, 0.2)
        obs = sym(np.zeros(10, dtype=int))
        near = [0.5, 0.5 + 1e-10]
        with pytest.raises(ValueError, match="prior_a"):
            forgetting_curve(model, obs, near, [0.0, 1.0])
        with pytest.raises(ValueError, match="prior_b"):
            forgetting_curve(model, obs, [1.0, 0.0], near)

    def test_prior_within_tolerance_accepted(self):
        model = uniform_emission_chain(0.1, 0.2)
        obs = sym(np.zeros(10, dtype=int))
        curve = forgetting_curve(model, obs, [0.5, 0.5 + 5e-13], [0.0, 1.0])
        assert curve.tv.shape == (10,)

    def test_tv_distance_keeps_its_tolerance(self):
        assert tv_distance([0.5, 0.5 + 1e-10], [0.5, 0.5]) == pytest.approx(5e-11)
