"""Exact HMM inference against brute-force enumeration.

The enumeration routine is itself checked against an independent
plain-Python path sum before being used as the oracle for the recursions.
"""

import contextlib
import itertools
import warnings
import math
import tracemalloc

import numpy as np
import pytest

from ssmkit import (
    DiscreteHMM,
    EnumerationSizeError,
    ImpossibleObservationError,
    ModelValidationError,
    NumericalError,
    ObservationSeries,
    SeededGenerator,
    backward_smooth,
    baum_welch_step,
    exact_posterior_enumeration,
    fit_em,
    forward_filter,
    predict_states,
    simulate_hmm,
    viterbi,
)
from ssmkit import hmm
from test_hmm_reference import (
    reference_backward_smooth,
    reference_forward_filter,
    reference_viterbi,
)

BENCH = DiscreteHMM([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[0.8, 0.2], [0.3, 0.7]])
BENCH_OBS = ObservationSeries([0, 1, 1], kind="symbolic")


def sym(values):
    return ObservationSeries(values, kind="symbolic")


def random_hmm(rng, k, m):
    def rows(n, width):
        raw = rng.exponential(size=(n, width)) + 0.05
        return raw / raw.sum(axis=1, keepdims=True)

    return DiscreteHMM(rows(1, k)[0], rows(k, k), rows(k, m))


def plain_python_posterior(model, y):
    """Independent reference: enumerate paths with vanilla float arithmetic."""
    k, t_len = model.K, len(y)
    weights = {}
    for path in itertools.product(range(k), repeat=t_len):
        w = model.initial[path[0]] * model.emission[path[0]][y[0]]
        for t in range(1, t_len):
            w *= model.transition[path[t - 1]][path[t]] * model.emission[path[t]][y[t]]
        weights[path] = w
    total = sum(weights.values())
    smoothed = np.zeros((t_len, k))
    for path, w in weights.items():
        for t, state in enumerate(path):
            smoothed[t][state] += w / total
    best = max(weights.values())
    argmax = min(
        (p for p, w in weights.items() if w == best), key=lambda p: tuple(reversed(p))
    )
    return smoothed, math.log(total), np.array(argmax)


class TestEnumerationOracle:
    def test_matches_plain_python_on_benchmark(self):
        enum = exact_posterior_enumeration(BENCH, BENCH_OBS)
        smoothed, loglik, argmax = plain_python_posterior(BENCH, [0, 1, 1])
        np.testing.assert_allclose(enum.smoothed, smoothed, atol=1e-12)
        assert enum.log_likelihood == pytest.approx(loglik, abs=1e-12)
        np.testing.assert_array_equal(enum.map_path, argmax)

    def test_matches_plain_python_random(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            k = int(rng.integers(2, 4))
            m = int(rng.integers(2, 4))
            t_len = int(rng.integers(1, 6))
            model = random_hmm(rng, k, m)
            y = rng.integers(0, m, size=t_len)
            enum = exact_posterior_enumeration(model, sym(y))
            smoothed, loglik, argmax = plain_python_posterior(model, list(y))
            np.testing.assert_allclose(enum.smoothed, smoothed, atol=1e-10)
            assert enum.log_likelihood == pytest.approx(loglik, abs=1e-10)
            np.testing.assert_array_equal(enum.map_path, argmax)

    def test_t1_posterior_proportional_to_prior_times_emission(self):
        enum = exact_posterior_enumeration(BENCH, sym([1]))
        want = BENCH.initial * BENCH.emission[:, 1]
        np.testing.assert_allclose(enum.smoothed[0], want / want.sum(), atol=1e-14)

    def test_identity_transition_point_mass(self):
        m = DiscreteHMM([1.0, 0.0], np.eye(2), [[0.5, 0.5], [0.5, 0.5]])
        enum = exact_posterior_enumeration(m, sym([0, 1, 0]))
        np.testing.assert_allclose(enum.smoothed[:, 0], 1.0)
        np.testing.assert_array_equal(enum.map_path, [0, 0, 0])

    def test_guard(self):
        m = DiscreteHMM([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(EnumerationSizeError):
            exact_posterior_enumeration(m, sym(np.zeros(21, dtype=int)))


class TestObservationChecks:
    MODEL = DiscreteHMM([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[0.8, 0.2], [0.3, 0.7]])

    def test_real_series_rejected(self):
        with pytest.raises(ModelValidationError, match="symbolic observations"):
            forward_filter(self.MODEL, ObservationSeries([0.5, 1.0], kind="real"))

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="at least one entry"):
            forward_filter(self.MODEL, sym(np.zeros(0, dtype=np.int64)))


class TestForwardFilter:
    def test_uninformative_emission_is_chain_marginal(self):
        m = DiscreteHMM(
            [0.3, 0.7], [[0.9, 0.1], [0.2, 0.8]], [[0.5, 0.5], [0.5, 0.5]]
        )
        t_len = 6
        result = forward_filter(m, sym(np.zeros(t_len, dtype=int)))
        marginal = np.array([0.3, 0.7])
        for t in range(t_len):
            np.testing.assert_allclose(result.filtered[t], marginal, atol=1e-12)
            marginal = marginal @ m.transition
        assert result.log_likelihood == pytest.approx(t_len * math.log(0.5), abs=1e-12)

    def test_identity_emission_point_mass(self):
        m = DiscreteHMM([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], np.eye(2))
        y = [0, 1, 1, 0]
        result = forward_filter(m, sym(y))
        np.testing.assert_allclose(result.filtered, np.eye(2)[y], atol=1e-14)

    def test_benchmark_matches_enumeration_tightly(self):
        fwd = forward_filter(BENCH, BENCH_OBS)
        enum = exact_posterior_enumeration(BENCH, BENCH_OBS)
        np.testing.assert_allclose(fwd.filtered, enum.filtered, atol=1e-12)
        assert fwd.log_likelihood == pytest.approx(enum.log_likelihood, abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        model = random_hmm(rng, 4, 3)
        y = rng.integers(0, 3, size=50)
        result = forward_filter(model, sym(y))
        np.testing.assert_allclose(result.filtered.sum(axis=1), 1.0, atol=1e-10)

    def test_initial_override(self):
        override = np.array([0.9, 0.1])
        with_override = forward_filter(BENCH, BENCH_OBS, initial_override=override)
        replaced = DiscreteHMM(override, BENCH.transition, BENCH.emission)
        direct = forward_filter(replaced, BENCH_OBS)
        np.testing.assert_array_equal(with_override.filtered, direct.filtered)

    def test_impossible_observation_names_time(self):
        m = DiscreteHMM([1.0, 0.0], np.eye(2), [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ImpossibleObservationError) as exc:
            forward_filter(m, sym([0, 1]))
        assert exc.value.time_index == 2

    def test_symbol_out_of_range(self):
        from ssmkit import ModelValidationError

        with pytest.raises(ModelValidationError):
            forward_filter(BENCH, sym([0, 2]))

    def test_nan_initial_rejected(self):
        from ssmkit import ModelValidationError

        m = DiscreteHMM([np.nan, 1.0], BENCH.transition, BENCH.emission)
        with pytest.raises(ModelValidationError, match="initial sums to nan"):
            forward_filter(m, BENCH_OBS)


class TestBackwardSmooth:
    def test_t1_equals_filtered(self):
        fwd = forward_filter(BENCH, sym([1]))
        smooth = backward_smooth(BENCH, sym([1]), fwd)
        np.testing.assert_array_equal(smooth.smoothed, fwd.filtered)
        assert smooth.pairwise.shape == (0, 2, 2)

    def test_last_row_equals_filtered_exactly(self):
        fwd = forward_filter(BENCH, BENCH_OBS)
        smooth = backward_smooth(BENCH, BENCH_OBS, fwd)
        np.testing.assert_array_equal(smooth.smoothed[-1], fwd.filtered[-1])

    def test_uninformative_emission_is_chain_marginal(self):
        m = DiscreteHMM(
            [0.3, 0.7], [[0.9, 0.1], [0.2, 0.8]], [[0.5, 0.5], [0.5, 0.5]]
        )
        y = sym(np.zeros(5, dtype=int))
        smooth = backward_smooth(m, y, forward_filter(m, y))
        marginal = np.array([0.3, 0.7])
        for t in range(5):
            np.testing.assert_allclose(smooth.smoothed[t], marginal, atol=1e-12)
            marginal = marginal @ m.transition

    def test_benchmark_matches_enumeration(self):
        fwd = forward_filter(BENCH, BENCH_OBS)
        smooth = backward_smooth(BENCH, BENCH_OBS, fwd)
        enum = exact_posterior_enumeration(BENCH, BENCH_OBS)
        np.testing.assert_allclose(smooth.smoothed, enum.smoothed, atol=1e-12)
        np.testing.assert_allclose(smooth.pairwise, enum.pairwise, atol=1e-12)

    def test_pairwise_marginalization(self):
        rng = np.random.default_rng(12)
        model = random_hmm(rng, 3, 2)
        y = sym(rng.integers(0, 2, size=30))
        smooth = backward_smooth(model, y, forward_filter(model, y))
        np.testing.assert_allclose(
            smooth.pairwise.sum(axis=2), smooth.smoothed[:-1], atol=1e-10
        )
        np.testing.assert_allclose(
            smooth.pairwise.sum(axis=(1, 2)), 1.0, atol=1e-10
        )

    def test_length_mismatch_rejected(self):
        fwd = forward_filter(BENCH, BENCH_OBS)
        with pytest.raises(ValueError):
            backward_smooth(BENCH, sym([0, 1]), fwd)


class TestPredictStates:
    def test_identity_transition_fixed(self):
        m = DiscreteHMM([0.5, 0.5], np.eye(2), [[0.8, 0.2], [0.3, 0.7]])
        out = predict_states(m, [0.3, 0.7], 4)
        np.testing.assert_allclose(out, np.tile([0.3, 0.7], (4, 1)))

    def test_one_step_row_extraction(self):
        np.testing.assert_allclose(predict_states(BENCH, [1.0, 0.0], 1), [[0.9, 0.1]])

    def test_converges_to_stationary(self):
        out = predict_states(BENCH, [1.0, 0.0], 200)
        # Stationary law by eigenvector oracle.
        vals, vecs = np.linalg.eig(BENCH.transition.T)
        pi = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
        pi = pi / pi.sum()
        assert 0.5 * np.abs(out[-1] - pi).sum() < 1e-8

    def test_rows_stochastic(self):
        out = predict_states(BENCH, [0.25, 0.75], 50)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_consistency_with_filter(self):
        # One prediction step plus a Bayes reweight equals the next filter row.
        rng = np.random.default_rng(13)
        model = random_hmm(rng, 3, 3)
        y = rng.integers(0, 3, size=20)
        fwd = forward_filter(model, sym(y))
        for t in range(19):
            pred = predict_states(model, fwd.filtered[t], 1)[0]
            reweighted = pred * model.emission[:, y[t + 1]]
            reweighted /= reweighted.sum()
            np.testing.assert_allclose(reweighted, fwd.filtered[t + 1], atol=1e-12)

    def test_row_sum_message_shows_the_deficit(self):
        from ssmkit import ModelValidationError

        with pytest.raises(ModelValidationError) as exc:
            predict_states(BENCH, [0.5, 0.5 + 1e-10], 1)
        assert "1.0000000001" in str(exc.value)
        assert "off by 1e-10" in str(exc.value)

    def test_nan_start_rejected(self):
        from ssmkit import ModelValidationError

        with pytest.raises(ModelValidationError, match="sums to nan"):
            predict_states(BENCH, [np.nan, 1.0], 1)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            predict_states(BENCH, [0.5, 0.5], 0)


class TestViterbi:
    def test_identity_emission_recovers_symbols(self):
        m = DiscreteHMM([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], np.eye(2))
        y = [0, 1, 1, 0, 0]
        path, _ = viterbi(m, sym(y))
        np.testing.assert_array_equal(path.states, y)

    def test_single_state(self):
        m = DiscreteHMM([1.0], [[1.0]], [[0.4, 0.6]])
        y = [0, 1, 1]
        path, log_joint = viterbi(m, sym(y))
        np.testing.assert_array_equal(path.states, [0, 0, 0])
        assert log_joint == pytest.approx(
            math.log(0.4) + 2 * math.log(0.6), abs=1e-12
        )

    def test_benchmark_matches_enumeration(self):
        path, log_joint = viterbi(BENCH, BENCH_OBS)
        enum = exact_posterior_enumeration(BENCH, BENCH_OBS)
        np.testing.assert_array_equal(path.states, enum.map_path)
        assert log_joint == pytest.approx(enum.map_log_joint, abs=1e-12)

    def test_log_joint_matches_direct_evaluation(self):
        rng = np.random.default_rng(14)
        model = random_hmm(rng, 3, 2)
        y = rng.integers(0, 2, size=12)
        path, log_joint = viterbi(model, sym(y))
        s = path.states
        direct = math.log(model.initial[s[0]]) + math.log(model.emission[s[0], y[0]])
        for t in range(1, 12):
            direct += math.log(model.transition[s[t - 1], s[t]])
            direct += math.log(model.emission[s[t], y[t]])
        assert log_joint == pytest.approx(direct, abs=1e-12)

    def test_full_tie_goes_to_state_zero(self):
        m = DiscreteHMM(
            [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]
        )
        path, _ = viterbi(m, sym([0, 1, 0]))
        np.testing.assert_array_equal(path.states, [0, 0, 0])


class TestOracleEquivalenceSweep:
    def test_two_hundred_random_instances(self):
        rng = np.random.default_rng(2718)
        for _ in range(200):
            k = int(rng.integers(2, 5))
            m = int(rng.integers(2, 4))
            t_len = int(rng.integers(1, 9))
            model = random_hmm(rng, k, m)
            y = sym(rng.integers(0, m, size=t_len))
            enum = exact_posterior_enumeration(model, y)
            fwd = forward_filter(model, y)
            np.testing.assert_allclose(fwd.filtered, enum.filtered, atol=1e-10)
            assert fwd.log_likelihood == pytest.approx(
                enum.log_likelihood, abs=1e-10
            )
            smooth = backward_smooth(model, y, fwd)
            np.testing.assert_allclose(smooth.smoothed, enum.smoothed, atol=1e-10)
            path, log_joint = viterbi(model, y)
            np.testing.assert_array_equal(path.states, enum.map_path)
            assert log_joint == pytest.approx(enum.map_log_joint, abs=1e-10)


class TestBaumWelch:
    def test_single_state_counts(self):
        m = DiscreteHMM([1.0], [[1.0]], [[0.5, 0.5]])
        y = [0, 1, 1, 1]
        step = baum_welch_step(m, sym(y))
        np.testing.assert_allclose(step.model.transition, [[1.0]])
        np.testing.assert_allclose(step.model.emission, [[0.25, 0.75]], atol=1e-12)

    def test_identity_emission_count_fixed_point(self):
        # With identity emission, states are observed; the empirical counts
        # are the EM fixed point.
        y = np.array([0, 0, 1, 0, 1, 1, 0, 0, 1, 0])
        counts = np.zeros((2, 2))
        for a, b in zip(y[:-1], y[1:]):
            counts[a, b] += 1
        transition = counts / counts.sum(axis=1, keepdims=True)
        initial = np.eye(2)[y[0]]
        model = DiscreteHMM(initial, transition, np.eye(2))
        step = baum_welch_step(model, sym(y))
        np.testing.assert_allclose(step.model.transition, transition, atol=1e-12)
        np.testing.assert_allclose(step.model.initial, initial, atol=1e-12)
        np.testing.assert_allclose(step.model.emission, np.eye(2), atol=1e-12)

    def test_expected_counts_match_enumeration(self):
        enum = exact_posterior_enumeration(BENCH, BENCH_OBS)
        step = baum_welch_step(BENCH, BENCH_OBS)
        trans_counts = enum.pairwise.sum(axis=0)
        want_transition = trans_counts / trans_counts.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(step.model.transition, want_transition, atol=1e-12)
        y = BENCH_OBS.values
        emit_counts = np.zeros((2, 2))
        for t in range(3):
            emit_counts[:, y[t]] += enum.smoothed[t]
        want_emission = emit_counts / emit_counts.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(step.model.emission, want_emission, atol=1e-12)
        np.testing.assert_allclose(step.model.initial, enum.smoothed[0], atol=1e-12)

    @pytest.mark.parametrize("k, m, t_len", [(1, 4, 40), (2, 5, 2000), (4, 9, 700), (10, 12, 1500)])
    def test_emission_counts_sum_in_order(self, k, m, t_len):
        # Expected symbol counts, each the sum of its smoothed entries over
        # t in order, give the emission rows' bytes.  Only symbols below
        # m - 3 occur, so the last three columns count nothing.
        rng = np.random.default_rng(k * m)
        model = random_hmm(rng, k, m)
        obs = sym(rng.integers(0, m - 3, size=t_len))
        smoothed = backward_smooth(model, obs, forward_filter(model, obs)).smoothed
        counts = np.zeros((k, m))
        for symbol, row in zip(obs.values, smoothed):
            counts[:, symbol] += row
        denoms = counts.sum(axis=1)[:, None]
        emission = np.divide(counts, denoms, out=model.emission.copy(), where=denoms > 0.0)
        got = baum_welch_step(model, obs).model.emission
        assert got.tobytes() == emission.tobytes()
        assert (got[:, m - 3 :] == 0.0).all()

    def test_loglik_never_decreases(self):
        rng = np.random.default_rng(15)
        model = random_hmm(rng, 3, 3)
        y = sym(rng.integers(0, 3, size=100))
        for _ in range(10):
            step = baum_welch_step(model, y)
            after = forward_filter(step.model, y).log_likelihood
            assert after >= step.log_likelihood - 1e-9
            model = step.model

    def test_zero_occupancy_row_held(self):
        # State 1 is unreachable: zero initial mass and no transitions in.
        m = DiscreteHMM(
            [1.0, 0.0], [[1.0, 0.0], [0.5, 0.5]], [[0.6, 0.4], [0.3, 0.7]]
        )
        step = baum_welch_step(m, sym([0, 1, 0]))
        assert 1 in step.held_emission_rows
        np.testing.assert_array_equal(step.model.emission[1], m.emission[1])

    def test_tuple_unpacking(self):
        new_model, loglik = baum_welch_step(BENCH, BENCH_OBS)
        assert isinstance(new_model, DiscreteHMM)
        assert loglik == pytest.approx(
            forward_filter(BENCH, BENCH_OBS).log_likelihood
        )


class TestFitEm:
    def test_fixed_point_single_trace_entry(self):
        y = np.array([0, 0, 1, 0, 1, 1, 0, 0, 1, 0])
        counts = np.zeros((2, 2))
        for a, b in zip(y[:-1], y[1:]):
            counts[a, b] += 1
        model = DiscreteHMM(
            np.eye(2)[y[0]], counts / counts.sum(axis=1, keepdims=True), np.eye(2)
        )
        fitted, trace = fit_em(model, sym(y), tol=1e-8, max_iter=50)
        assert len(trace) == 1
        np.testing.assert_allclose(fitted.transition, model.transition, atol=1e-12)

    def test_max_iter_one_equals_single_step(self):
        rng = np.random.default_rng(16)
        model = random_hmm(rng, 2, 2)
        y = sym(rng.integers(0, 2, size=50))
        fitted, _ = fit_em(model, y, tol=1e-12, max_iter=1)
        step = baum_welch_step(model, y)
        np.testing.assert_allclose(fitted.transition, step.model.transition)
        np.testing.assert_allclose(fitted.emission, step.model.emission)

    def test_trace_nondecreasing(self):
        rng = np.random.default_rng(17)
        model = random_hmm(rng, 3, 2)
        y = sym(rng.integers(0, 2, size=200))
        _, trace = fit_em(model, y, tol=1e-9, max_iter=60)
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-9)

    def test_parameter_recovery_t5000(self):
        truth = DiscreteHMM(
            [0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[0.95, 0.05], [0.05, 0.95]]
        )
        _, obs = simulate_hmm(truth, 5000, SeededGenerator(314159))
        start = DiscreteHMM(
            [0.5, 0.5], [[0.8, 0.2], [0.3, 0.7]], [[0.85, 0.15], [0.15, 0.85]]
        )
        fitted, trace = fit_em(start, obs, tol=1e-4, max_iter=100)
        # Canonical order: state with larger emission[., 0] first.
        order = np.argsort(-fitted.emission[:, 0])
        recovered = fitted.transition[np.ix_(order, order)]
        assert np.abs(recovered - truth.transition).max() < 0.05
        assert np.all(np.diff(trace) >= -1e-9)

    @pytest.mark.parametrize("tol, max_iter", [(1e-12, 4), (1e-2, 200)])
    def test_one_forward_pass_per_model(self, monkeypatch, tol, max_iter):
        rng = np.random.default_rng(21)
        _, obs = simulate_hmm(random_hmm(rng, 3, 4), 300, SeededGenerator(21))
        start = random_hmm(rng, 3, 4)
        calls = {"forward_filter": 0, "baum_welch_step": 0}

        def counted(name):
            wrapped = getattr(hmm, name)

            def counting(*args, **kwargs):
                calls[name] += 1
                return wrapped(*args, **kwargs)

            monkeypatch.setattr(hmm, name, counting)

        counted("forward_filter")
        counted("baum_welch_step")
        _, trace = fit_em(start, obs, tol=tol, max_iter=max_iter)
        steps = calls["baum_welch_step"]
        if max_iter == 4:
            assert len(trace) == max_iter + 1 and steps == max_iter
        else:
            assert len(trace) == steps < max_iter
        assert calls["forward_filter"] == steps + 1

    def test_invalid_tol_and_max_iter(self):
        with pytest.raises(ValueError):
            fit_em(BENCH, BENCH_OBS, tol=0.0)
        with pytest.raises(ValueError):
            fit_em(BENCH, BENCH_OBS, tol=float("nan"))
        with pytest.raises(ValueError):
            fit_em(BENCH, BENCH_OBS, max_iter=0)


class TestBaumWelchForwardArgument:
    def test_given_forward_pass_gives_the_same_step(self):
        rng = np.random.default_rng(22)
        model = random_hmm(rng, 3, 4)
        y = sym(rng.integers(0, 4, size=120))
        given = baum_welch_step(model, y, forward=forward_filter(model, y))
        own = baum_welch_step(model, y)
        for name in ("initial", "transition", "emission"):
            assert np.array_equal(getattr(given.model, name), getattr(own.model, name))
        assert given.log_likelihood == own.log_likelihood
        assert given.held_transition_rows == own.held_transition_rows
        assert given.held_emission_rows == own.held_emission_rows

    def test_forward_pass_of_wrong_length(self):
        with pytest.raises(ValueError):
            baum_welch_step(BENCH, BENCH_OBS, forward=forward_filter(BENCH, sym([0, 1])))

    def test_forward_pass_of_another_number_of_states(self):
        # A pass of the two-state BENCH given with a three-state model.
        model = random_hmm(np.random.default_rng(3), 3, 2)
        forward = forward_filter(BENCH, BENCH_OBS)
        for run in (
            lambda: baum_welch_step(model, BENCH_OBS, forward=forward),
            lambda: backward_smooth(model, BENCH_OBS, forward),
        ):
            with pytest.raises(ValueError, match=r"shape \(3, 2\).*\(3, 3\)"):
                run()


class TestBackwardSmoothMemory:
    def test_no_t_by_k_by_k_temporary(self):
        rng = np.random.default_rng(23)
        model = random_hmm(rng, 10, 5)
        t_len, k = 2000, 10
        y = sym(rng.integers(0, 5, size=t_len))
        fwd = forward_filter(model, y)
        tracemalloc.start()
        try:
            smooth = backward_smooth(model, y, fwd)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < smooth.pairwise.nbytes + smooth.smoothed.nbytes + 3 * t_len * k * 8


class TestRelabelingInvariance:
    def test_symbol_permutation(self):
        rng = np.random.default_rng(18)
        model = random_hmm(rng, 3, 3)
        y = rng.integers(0, 3, size=25)
        perm = np.array([2, 0, 1])  # symbol m becomes perm[m]
        inverse = np.argsort(perm)
        permuted_model = DiscreteHMM(
            model.initial, model.transition, model.emission[:, inverse]
        )
        fwd = forward_filter(model, sym(y))
        fwd_p = forward_filter(permuted_model, sym(perm[y]))
        np.testing.assert_allclose(fwd_p.filtered, fwd.filtered, atol=1e-14)
        assert fwd_p.log_likelihood == pytest.approx(fwd.log_likelihood, abs=1e-12)
        smooth = backward_smooth(model, sym(y), fwd)
        smooth_p = backward_smooth(permuted_model, sym(perm[y]), fwd_p)
        np.testing.assert_allclose(smooth_p.smoothed, smooth.smoothed, atol=1e-14)
        path, _ = viterbi(model, sym(y))
        path_p, _ = viterbi(permuted_model, sym(perm[y]))
        np.testing.assert_array_equal(path_p.states, path.states)


# The scans that forward_filter and backward_smooth run for small models,
# against enumeration and against the per-step kernel that larger models
# and failed blocks run.

# Deterministic alternation: state 0 emits only symbol 0, state 1 only
# symbol 1, so any repeated symbol is impossible.
ALTERNATING = DiscreteHMM([1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])


def sparse_hmm(rng, k, m):
    """Random model with about a third of the transition and emission
    entries exactly zero (each row keeps its largest entry)."""

    def rows(n, width):
        raw = rng.exponential(size=(n, width))
        raw[(rng.random((n, width)) < 0.35) & (raw < raw.max(axis=1, keepdims=True))] = 0.0
        return raw / raw.sum(axis=1, keepdims=True)

    return DiscreteHMM(rows(1, k)[0], rows(k, k), rows(k, m))


TINY = np.finfo(float).tiny


@contextlib.contextmanager
def forced_fill(fill):
    """Fill every pass of forward_filter, backward_smooth and viterbi one
    way ("scan", "lanes" or "kernel"), whatever the model's size and the
    series' length; viterbi runs every fill but lanes on its kernel."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hmm, "_block_fill", lambda k, n, scan=True: fill)
        yield


def per_step_kernel():
    """Run every block of forward_filter, backward_smooth and viterbi on
    the per-step kernel."""
    return forced_fill("kernel")


def kernel_forward(model, obs, initial_override=None):
    with per_step_kernel():
        return forward_filter(model, obs, initial_override=initial_override)


def loop_passes(model, obs, initial_override=None):
    with per_step_kernel():
        forward = forward_filter(model, obs, initial_override=initial_override)
        return forward, backward_smooth(model, obs, forward)


def rare_moves(rare, k=3):
    """Every path with positive probability makes the moves 0 -> 1 and
    1 -> 2 of probability rare on consecutive steps.  States 3..k-1 are
    entered by no path."""
    initial = np.zeros(k)
    initial[0] = 1.0
    transition = np.eye(k)
    transition[:3, :3] = [[1.0, rare, 0.0], [0.0, 1.0, rare], [0.0, 0.0, 1.0]]
    emission = np.full((k, 3), 1.0 / 3.0)
    emission[:3] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.5]]
    return DiscreteHMM(initial, transition, emission)


RARE_MOVES_OBS = sym([0, 0, 0, 1, 2, 2, 1, 2])


class TestScanAgainstEnumeration:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("make", [random_hmm, sparse_hmm], ids=["dense", "zeros"])
    def test_lengths_one_to_nine(self, k, make):
        rng = np.random.default_rng(50 + k)
        for t_len in range(1, 10):
            model = make(rng, k, 3)
            _, obs = simulate_hmm(model, t_len, SeededGenerator(100 * k + t_len))
            override = rng.dirichlet(np.ones(k))
            for initial in (model.initial, override):
                enum = exact_posterior_enumeration(
                    DiscreteHMM(initial, model.transition, model.emission), obs
                )
                fwd = forward_filter(model, obs, initial_override=initial)
                smooth = backward_smooth(model, obs, fwd)
                np.testing.assert_allclose(fwd.filtered, enum.filtered, rtol=0, atol=1e-12)
                np.testing.assert_allclose(smooth.smoothed, enum.smoothed, rtol=0, atol=1e-12)
                np.testing.assert_allclose(smooth.pairwise, enum.pairwise, rtol=0, atol=1e-12)
                assert fwd.log_likelihood == pytest.approx(enum.log_likelihood, abs=1e-12)

    def test_consecutive_rare_transitions(self):
        # The normalizers of the two rare steps are about 1e-160 each, so
        # backward variables scaled by their inverses would overflow.
        model, obs = rare_moves(1e-160), RARE_MOVES_OBS
        enum = exact_posterior_enumeration(model, obs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fwd = forward_filter(model, obs)
            smooth = backward_smooth(model, obs, fwd)
        np.testing.assert_allclose(fwd.filtered, enum.filtered, rtol=0, atol=1e-12)
        np.testing.assert_allclose(smooth.smoothed, enum.smoothed, rtol=0, atol=1e-12)
        np.testing.assert_allclose(smooth.pairwise, enum.pairwise, rtol=0, atol=1e-12)
        assert fwd.log_likelihood == pytest.approx(enum.log_likelihood, rel=1e-12)


def scan_lengths():
    block = hmm._SCAN_BLOCK
    return [1, 2, block - 1, block, block + 1, block + 2, 2000, 10_000]


class TestScanAgainstLoop:
    @pytest.mark.parametrize("t_len", scan_lengths())
    @pytest.mark.parametrize(
        "k, m, make",
        [
            (2, 4, random_hmm),
            (3, 4, sparse_hmm),
            (hmm._SCAN_MAX_K, 4, random_hmm),
            (3, hmm._SCAN_BLOCK + 1, random_hmm),
        ],
    )
    def test_within_1e_12(self, k, m, make, t_len):
        rng = np.random.default_rng(7 * k + t_len)
        model = make(rng, k, m)
        _, obs = simulate_hmm(model, t_len, SeededGenerator(k + t_len))
        for initial in (None, rng.dirichlet(np.ones(k))):
            fwd = forward_filter(model, obs, initial_override=initial)
            smooth = backward_smooth(model, obs, fwd)
            loop_fwd, loop_smooth = loop_passes(model, obs, initial)
            # Below the normal range a float carries fewer than 53 bits, so
            # the slack there is absolute; a zero on either side must still
            # be a zero or subnormal on the other.
            for got, want in [
                (fwd.filtered, loop_fwd.filtered),
                (fwd.log_normalizers, loop_fwd.log_normalizers),
                (smooth.smoothed, loop_smooth.smoothed),
                (smooth.pairwise, loop_smooth.pairwise),
            ]:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=TINY)
            assert fwd.log_likelihood == pytest.approx(loop_fwd.log_likelihood, rel=1e-12)
            np.testing.assert_array_equal(smooth.smoothed[-1], fwd.filtered[-1])

    def test_zeros_are_exact(self):
        rng = np.random.default_rng(31)
        model = sparse_hmm(rng, 4, 3)
        _, obs = simulate_hmm(model, 3000, SeededGenerator(31))
        fwd = forward_filter(model, obs)
        smooth = backward_smooth(model, obs, fwd)
        loop_fwd, loop_smooth = loop_passes(model, obs)
        assert (loop_fwd.filtered == 0.0).any() and (loop_smooth.pairwise == 0.0).any()
        # Every zero is structural: no value reaches the subnormal range.
        for values in (loop_fwd.filtered, loop_smooth.smoothed, loop_smooth.pairwise):
            assert not ((values > 0.0) & (values < TINY)).any()
        np.testing.assert_array_equal(fwd.filtered == 0.0, loop_fwd.filtered == 0.0)
        np.testing.assert_array_equal(smooth.smoothed == 0.0, loop_smooth.smoothed == 0.0)
        np.testing.assert_array_equal(smooth.pairwise == 0.0, loop_smooth.pairwise == 0.0)


def chunk_lengths():
    """Scanned rows per pass at and around the scan's chunk and block
    sizes: one row, a chunk less or more one row, one chunk, two chunks
    and a row, and a block two or one rows short or long."""
    c, block = hmm._SCAN_CHUNK, hmm._SCAN_BLOCK
    return [1, c - 1, c, c + 1, 2 * c + 1, block - 2, block - 1, block + 1, block + 2]


class TestScanChunkBoundaries:
    @pytest.mark.parametrize("rows", chunk_lengths())
    @pytest.mark.parametrize("make", [random_hmm, sparse_hmm], ids=["dense", "zeros"])
    @pytest.mark.parametrize("k", range(1, hmm._SCAN_MAX_K + 1))
    def test_against_the_kernel(self, monkeypatch, k, make, rows):
        # The forward pass scans rows 1..T-1, the backward pass one row less.
        t_len = rows + 1
        rng = np.random.default_rng(100 * k + rows)
        model = make(rng, k, 3)
        _, obs = simulate_hmm(model, t_len, SeededGenerator(k + rows))
        loop_fwd, loop_smooth = loop_passes(model, obs)
        starts = kernel_blocks(monkeypatch)
        fwd = forward_filter(model, obs)
        smooth = backward_smooth(model, obs, fwd)
        # A sparse model can decay an entry into the subnormal range, where
        # the scan's check fails and the block runs on the kernel.
        if make is random_hmm:
            assert starts == []
        for got, want in [
            (fwd.filtered, loop_fwd.filtered),
            (fwd.log_normalizers, loop_fwd.log_normalizers),
            (smooth.smoothed, loop_smooth.smoothed),
            (smooth.pairwise, loop_smooth.pairwise),
        ]:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=TINY)
            np.testing.assert_array_equal(got[want == 0.0], 0.0)
        assert fwd.log_likelihood == pytest.approx(loop_fwd.log_likelihood, rel=1e-12)

    @pytest.mark.parametrize("offset", [0, 1, 2])
    def test_an_impossible_observation_in_the_padded_last_chunk(self, offset):
        # Rows 1..2c+3 scan in three chunks, the last holding three rows
        # and padded with identities.
        c = hmm._SCAN_CHUNK
        t_len = 2 * c + 4
        position = 2 * c + 1 + offset
        y = np.arange(t_len) % 2
        y[position] = 1 - y[position]
        TestScanImpossibleObservation.check(ALTERNATING, y, None, position)


def impossible_positions():
    block = hmm._SCAN_BLOCK
    t_len = 2 * block + 3
    # First step, the last step of the first block (rows 1..block), the
    # first step of the second, and the last step.
    return t_len, [0, block, block + 1, t_len - 1]


class TestScanImpossibleObservation:
    @staticmethod
    def check(model, y, override, position):
        obs = ObservationSeries(y, kind="symbolic")
        with pytest.raises(ImpossibleObservationError) as expected:
            kernel_forward(model, obs, override)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ImpossibleObservationError) as raised:
                forward_filter(model, obs, initial_override=override)
        assert raised.value.time_index == expected.value.time_index == position + 1

    @pytest.mark.parametrize("override", [None, [0.0, 1.0]])
    @pytest.mark.parametrize("position", impossible_positions()[1])
    def test_repeated_symbol(self, override, position):
        t_len, _ = impossible_positions()
        first = 1 if override else 0
        y = (first + np.arange(t_len)) % 2
        y[position] = 1 - y[position]
        self.check(ALTERNATING, y, override, position)

    @pytest.mark.parametrize("override", [None, [0.2, 0.8]])
    @pytest.mark.parametrize("position", impossible_positions()[1])
    def test_symbol_no_state_emits(self, override, position):
        t_len, _ = impossible_positions()
        model = DiscreteHMM(
            [0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[0.6, 0.4, 0.0], [0.3, 0.7, 0.0]]
        )
        y = np.random.default_rng(position).integers(0, 2, size=t_len)
        y[position] = 2
        y[-1] = 2
        self.check(model, y, override, position)


def kernel_blocks(monkeypatch):
    """Record the first row of every block that runs on the per-step kernel."""
    starts = []
    kernel = hmm._step_block

    def recording(rows, lo, *args):
        starts.append(lo)
        return kernel(rows, lo, *args)

    monkeypatch.setattr(hmm, "_step_block", recording)
    return starts


def lane_passes(monkeypatch):
    """Record the number of rows of every pass that runs on lanes."""
    passes = []
    fill_blocks = hmm._fill_blocks

    def recording(fill, n, *args):
        if fill == "lanes":
            passes.append(n)
        return fill_blocks(fill, n, *args)

    monkeypatch.setattr(hmm, "_fill_blocks", recording)
    return passes


class TestScanDispatch:
    @pytest.mark.parametrize("k", range(1, hmm._SCAN_MAX_K + 1))
    def test_small_models_never_run_the_kernel(self, monkeypatch, k):
        rng = np.random.default_rng(k)
        model = random_hmm(rng, k, 3)
        _, obs = simulate_hmm(model, 700, SeededGenerator(k))
        starts = kernel_blocks(monkeypatch)
        backward_smooth(model, obs, forward_filter(model, obs))
        fit_em(model, obs, tol=1e-12, max_iter=2)
        assert starts == []

    def test_an_impossible_observation_is_raised_from_the_kernel(self, monkeypatch):
        starts = kernel_blocks(monkeypatch)
        with pytest.raises(ImpossibleObservationError) as raised:
            forward_filter(ALTERNATING, sym([0, 1, 1, 0]))
        assert raised.value.time_index == 3
        assert starts == [1]

    def test_ten_states_run_on_lanes(self, monkeypatch):
        rng = np.random.default_rng(10)
        model = random_hmm(rng, 10, 3)
        t_len = 2 * hmm._LANE_MIN_ROWS
        _, obs = simulate_hmm(model, t_len, SeededGenerator(10))
        passes = lane_passes(monkeypatch)
        starts = kernel_blocks(monkeypatch)
        backward_smooth(model, obs, forward_filter(model, obs))
        assert passes == [t_len, t_len - 1]
        # Every lane met the true rows: no block ran on the kernel.
        assert starts == []

    def test_short_series_above_scan_size_run_every_block_on_the_kernel(
        self, monkeypatch
    ):
        rng = np.random.default_rng(10)
        model = random_hmm(rng, 10, 3)
        t_len = hmm._LANE_MIN_ROWS - 1
        _, obs = simulate_hmm(model, t_len, SeededGenerator(10))
        passes = lane_passes(monkeypatch)
        starts = kernel_blocks(monkeypatch)
        backward_smooth(model, obs, forward_filter(model, obs))
        forward_starts = list(range(1, t_len, hmm._SCAN_BLOCK))
        backward_starts = list(range(1, t_len - 1, hmm._SCAN_BLOCK))
        assert passes == []
        assert starts == forward_starts + backward_starts

    def test_no_block_after_an_impossible_observation_is_filled(self, monkeypatch):
        y = np.arange(3 * hmm._SCAN_BLOCK) % 2
        y[2] = y[1]
        starts = kernel_blocks(monkeypatch)
        with pytest.raises(ImpossibleObservationError) as raised:
            forward_filter(ALTERNATING, sym(y))
        assert raised.value.time_index == 3
        assert starts == [1]

    def test_a_block_product_that_underflows_runs_the_kernel(self, monkeypatch):
        # From state 0, symbol 1 needs the rare move 0 -> 1 and symbol 2
        # then the rare move 1 -> 2.  At the first two steps of chunk 1
        # the scan's within-chunk product over those steps starts from
        # every state, not from the carry row: its entry for the path from
        # state 0 is 1e-340, which underflows to zero beside the paths from
        # states 1 and 2, while each step of the kernel is normalized.
        model = rare_moves(1e-170)
        y = sym([0] * (1 + hmm._SCAN_CHUNK) + [1, 2, 2, 1])
        starts = kernel_blocks(monkeypatch)
        fwd = forward_filter(model, y)
        assert starts == [1]
        expected = kernel_forward(model, y)
        np.testing.assert_array_equal(fwd.filtered, expected.filtered)
        assert fwd.log_likelihood == expected.log_likelihood

    def test_a_rare_pair_in_chunk_0_scans(self, monkeypatch):
        # The same moves inside chunk 0, where the carry row enters the
        # first factor: every product there is a normalized row, so
        # nothing underflows and no block runs on the kernel.
        model = rare_moves(1e-170)
        y = sym([0, 0, 0, 1, 2, 2, 1])
        starts = kernel_blocks(monkeypatch)
        fwd = forward_filter(model, y)
        assert starts == []
        expected = kernel_forward(model, y)
        np.testing.assert_allclose(fwd.filtered, expected.filtered, rtol=1e-12, atol=0)
        assert fwd.log_likelihood == pytest.approx(expected.log_likelihood, rel=1e-12)


class TestScanLostEntry:
    # A partial product of a block can lose an entry to underflow, or keep
    # it as a subnormal with few bits, while its other entries stay normal
    # floats, so no row turns NaN and no scale is zero.  The check against
    # one per-step recursion catches it and the block runs on the kernel.

    # The scan's product over steps 1 and 2 from state 0 holds rare**2.
    # At 1e-170 it flushes to zero, so row 2 would read [0, 1] where the
    # kernel keeps [1e-40, 1], and a symbol 1 after it would have a zero
    # normalizer, which is not an impossible observation.  At 1e-157 it is
    # a subnormal that puts a relative error of 3.6e-11 into row 2.
    @pytest.mark.parametrize(
        "rare, y", [(1e-170, [1, 0, 0]), (1e-170, [1, 0, 0, 1]), (1e-157, [1, 0, 0])]
    )
    def test_forward(self, monkeypatch, rare, y):
        model = DiscreteHMM(
            [1.0, 0.0], [[1.0, 1e-300], [0.0, 1.0]], [[rare, 1.0], [1.0, 0.0]]
        )
        starts = kernel_blocks(monkeypatch)
        fwd = forward_filter(model, sym(y))
        assert starts == [1]
        expected = kernel_forward(model, sym(y))
        np.testing.assert_array_equal(fwd.filtered, expected.filtered)
        assert fwd.log_likelihood == expected.log_likelihood

    def test_backward(self, monkeypatch):
        # The reversed-time factors A^T diag(e) are those of the forward
        # case: the scan would lose entry 0 of the backward row for step 1
        # (0-based), 1e-40 beside 1.  The initial weight of state 1 keeps
        # both states in the filtered rows of steps 0..2, so the masked
        # columns keep that entry, and the path that stays in state 0 has
        # all but 1e-90 of the posterior: smoothed[0] would read [0, 1]
        # where it is [1, 1e-90].
        model = DiscreteHMM(
            [1.0, 1e-300], [[1.0, 0.0], [1e-300, 1.0]], [[1e-170, 1.0], [1.0, 0.0]]
        )
        obs = sym([0, 0, 0, 1])
        fwd = forward_filter(model, obs)
        assert (fwd.filtered[:3] > 0.0).all()
        starts = kernel_blocks(monkeypatch)
        smooth = backward_smooth(model, obs, fwd)
        assert starts == [1]
        filtered, log_norms, _ = reference_forward_filter(model, obs)
        smoothed, pairwise = reference_backward_smooth(model, obs, filtered, log_norms)
        assert smooth.smoothed[0, 0] == pytest.approx(1.0)
        np.testing.assert_allclose(smooth.smoothed, smoothed, rtol=1e-12, atol=0)
        np.testing.assert_allclose(smooth.pairwise, pairwise, rtol=1e-12, atol=0)

    def test_one_block_of_a_long_series(self, monkeypatch):
        # The forward pattern in the middle of the second of four blocks:
        # symbol 1 holds the chain in state 0, then symbols 0 take the rare
        # move to state 1.  Only that block runs on the kernel, from the
        # scanned row before it.
        block = hmm._SCAN_BLOCK
        model = DiscreteHMM(
            [1.0, 0.0], [[1.0, 1e-300], [0.0, 1.0]], [[1e-170, 1.0], [1.0, 0.0]]
        )
        switch = block + block // 2
        y = np.zeros(4 * block, dtype=int)
        y[:switch] = 1
        obs = sym(y)
        starts = kernel_blocks(monkeypatch)
        fwd = forward_filter(model, obs)
        assert starts == [block + 1]
        smooth = backward_smooth(model, obs, fwd)
        assert starts == [block + 1]
        assert fwd.filtered[switch + 1, 0] > 0.0
        filtered, log_norms, log_likelihood = reference_forward_filter(model, obs)
        smoothed, pairwise = reference_backward_smooth(model, obs, filtered, log_norms)
        np.testing.assert_allclose(fwd.filtered, filtered, rtol=1e-12, atol=0)
        np.testing.assert_allclose(fwd.log_normalizers, log_norms, rtol=1e-12, atol=0)
        assert fwd.log_likelihood == pytest.approx(log_likelihood, rel=1e-12)
        np.testing.assert_allclose(smooth.smoothed, smoothed, rtol=1e-12, atol=0)
        np.testing.assert_allclose(smooth.pairwise, pairwise, rtol=1e-12, atol=0)


class TestRareMovesAboveScanSize:
    # Enumeration over K**T paths is out of reach at K = 9 and T = 8, but
    # no path enters the padding states, so the posterior is that of the
    # three-state model with zeros beside it.
    # At 1e-170 the backward variable of step 3 (1-based) would be 2e-340
    # on state 0, the only state its symbol 0 allows, beside the entry of
    # state 2 at step 4, which symbol 1 allows but the forward pass
    # excludes; the masked columns leave state 2 out of that row.
    @pytest.mark.parametrize("rare", [1e-160, 1e-170])
    @pytest.mark.parametrize("k", [3, hmm._SCAN_MAX_K + 1, 16])
    def test_matches_enumeration(self, k, rare):
        model = rare_moves(rare, k)
        enum = exact_posterior_enumeration(rare_moves(rare), RARE_MOVES_OBS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fwd = forward_filter(model, RARE_MOVES_OBS)
            smooth = backward_smooth(model, RARE_MOVES_OBS, fwd)
        pairwise = np.zeros_like(smooth.pairwise)
        pairwise[:, :3, :3] = enum.pairwise
        smoothed = np.zeros_like(smooth.smoothed)
        smoothed[:, :3] = enum.smoothed
        np.testing.assert_allclose(fwd.filtered[:, :3], enum.filtered, rtol=0, atol=1e-12)
        np.testing.assert_allclose(smooth.smoothed, smoothed, rtol=0, atol=1e-12)
        np.testing.assert_allclose(smooth.pairwise, pairwise, rtol=0, atol=1e-12)
        assert fwd.log_likelihood == pytest.approx(enum.log_likelihood, rel=1e-12)


class TestRareEmissionThenRareMove:
    # A backward row is the emission column times the backward prediction.
    # Here a symbol of probability 1e-170 is followed by a move of
    # probability 1e-170, and the only state the posterior allows at that
    # step is rare in both factors: the product of the row holds 1e-340,
    # which underflows as it stands, while the posterior has its mass on
    # one path.
    MODELS = {
        "emission on the likely state": (
            DiscreteHMM(
                [1.0, 0.0],
                [[1.0, 1e-170], [0.0, 1.0]],
                [[1e-170, 1.0, 0.0], [0.0, 0.5, 0.5]],
            ),
            sym([1, 0, 2]),
        ),
        "both factors rare on one state": (
            DiscreteHMM(
                [0.0, 1.0, 0.0],
                [[1.0, 0.0, 0.0], [0.0, 1.0, 1e-170], [0.0, 0.0, 1.0]],
                [[1.0, 0.0, 0.0], [1e-170, 0.0, 1.0], [0.0, 0.5, 0.5]],
            ),
            sym([2, 0, 1]),
        ),
    }

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("kernel", [False, True], ids=["dispatch", "kernel"])
    def test_matches_enumeration(self, name, kernel):
        model, obs = self.MODELS[name]
        enum = exact_posterior_enumeration(model, obs)
        with contextlib.ExitStack() as stack:
            if kernel:
                stack.enter_context(per_step_kernel())
            stack.enter_context(warnings.catch_warnings())
            warnings.simplefilter("error")
            fwd = forward_filter(model, obs)
            smooth = backward_smooth(model, obs, fwd)
        np.testing.assert_allclose(smooth.smoothed, enum.smoothed, rtol=0, atol=1e-12)
        np.testing.assert_allclose(smooth.pairwise, enum.pairwise, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kernel", [False, True], ids=["dispatch", "kernel"])
    def test_state_no_path_enters_does_not_swamp_the_backward_rows(self, kernel):
        # "emission on the likely state" with a third state that keeps to
        # itself and emits every symbol alike.  No path enters it, but its
        # entry in the backward row of step 2 is about 0.13, while the
        # entry of state 0, which every path takes, is 6e-341 and
        # underflows beside it.
        small, obs = self.MODELS["emission on the likely state"]
        third = 1.0 / 3.0
        model = DiscreteHMM(
            [1.0, 0.0, 0.0],
            [[1.0, 1e-170, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            np.vstack([small.emission, [third, third, third]]),
        )
        enum = exact_posterior_enumeration(model, obs)
        with contextlib.ExitStack() as stack:
            if kernel:
                stack.enter_context(forced_fill("kernel"))
            stack.enter_context(warnings.catch_warnings())
            warnings.simplefilter("error")
            fwd = forward_filter(model, obs)
            smooth = backward_smooth(model, obs, fwd)
        np.testing.assert_allclose(smooth.smoothed, enum.smoothed, rtol=0, atol=1e-12)
        np.testing.assert_allclose(smooth.pairwise, enum.pairwise, rtol=0, atol=1e-12)


class TestForwardRowThatUnderflows:
    # A forward step whose product underflows as a whole, on data of
    # positive probability.  In "rare move and rare symbol" the second step
    # needs the move 0 -> 1 and symbol 0 from state 1, each of probability
    # 1e-170; in "rare prior and rare symbol" the first step needs state 1,
    # of prior 1e-200, and its symbol 0, of probability 1e-200.  In
    # "subnormal move" the second step needs the move 0 -> 2 of probability
    # 5e-324, the smallest float: the prediction 0.4 * 5e-324 itself rounds
    # to zero, and so does the smoothed row before the move.  In "rescue's
    # reach" that move starts from state 1, of prior 1e-304, so the only
    # path has probability 1e-304 * 5e-324.  The driver forms each such
    # row again from the mantissas and exponents of its factors, and the
    # log normalizer is that of the product's true sum.
    MODELS = {
        "rare move and rare symbol": (
            DiscreteHMM(
                [1.0, 0.0], [[1.0, 1e-170], [0.0, 1.0]], [[0.0, 1.0, 0.0], [1e-170, 0.0, 1.0]]
            ),
            sym([1, 0]),
        ),
        "rare prior and rare symbol": (
            DiscreteHMM([1.0, 1e-200], [[0.9, 0.1], [0.2, 0.8]], [[0.0, 1.0], [1e-200, 1.0]]),
            sym([0, 1]),
        ),
        "subnormal move": (
            DiscreteHMM(
                [0.4, 0.6, 0.0],
                [[1.0, 0.0, 5e-324], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            ),
            sym([0, 1]),
        ),
        "rescue's reach": (
            DiscreteHMM(
                [1.0 - 1e-304, 1e-304, 0.0],
                [[1.0, 0.0, 0.0], [0.0, 1.0, 5e-324], [0.0, 0.0, 1.0]],
                [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            ),
            sym([0, 1]),
        ),
    }
    # Steps before the pattern, repeating its first symbol, and the symbol
    # after it, which every state emits with probability 1 or not at all.
    LONG = {
        "rare move and rare symbol": (1100, 2),
        "rare prior and rare symbol": (0, 1),
        "subnormal move": (1100, 1),
        "rescue's reach": (1100, 1),
    }
    # The defects the extended-range product mended, and their paths.
    SUBNORMAL = {"subnormal move": [0, 2], "rescue's reach": [1, 2]}

    @staticmethod
    def forward(model, obs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return forward_filter(model, obs)

    @staticmethod
    def smooth(model, obs, fwd):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return backward_smooth(model, obs, fwd)

    @classmethod
    def long_series(cls, name):
        """The series of name's pattern after its LONG steps and before a
        run that brings it to 1202 steps, and the lengths of both runs."""
        _, pattern = cls.MODELS[name]
        offset, last = cls.LONG[name]
        after = 1200 - offset
        y = np.concatenate([np.full(offset, pattern.values[0]), pattern.values, np.full(after, last)])
        return sym(y), offset, after

    @classmethod
    def assert_matches(cls, name, fwd, smooth, offset=0, after=0):
        """Check both passes over name's pattern after offset repeats of
        its first symbol and before after steps of its LONG symbol against
        enumeration of the pattern, with zeros for padded states.  The rows
        stay put before the pattern and move by the transition alone after
        it."""
        small, pattern = cls.MODELS[name]
        enum = exact_posterior_enumeration(small, pattern)

        def around(rows):
            ahead = predict_states(small, rows[-1], after) if after else rows[:0]
            return np.concatenate([np.repeat(rows[:1], offset, axis=0), rows, ahead])

        filtered, smoothed = around(enum.filtered), around(enum.smoothed)
        pairwise = np.concatenate(
            [
                np.repeat(np.diag(enum.smoothed[0])[None], offset, axis=0),
                enum.pairwise,
                smoothed[offset + len(pattern.values) - 1 : -1, :, None] * small.transition,
            ]
        )
        for actual, expected in (
            (fwd.filtered, filtered),
            (smooth.smoothed, smoothed),
            (smooth.pairwise, pairwise),
        ):
            pad = [(0, 0)] + [(0, actual.shape[-1] - small.K)] * (actual.ndim - 1)
            np.testing.assert_allclose(actual, np.pad(expected, pad), rtol=0, atol=1e-12)
        assert fwd.log_likelihood == pytest.approx(enum.log_likelihood, rel=1e-12)

    @pytest.mark.parametrize("name", MODELS)
    def test_matches_enumeration(self, name):
        model, obs = self.MODELS[name]
        fwd = self.forward(model, obs)
        self.assert_matches(name, fwd, self.smooth(model, obs, fwd))

    @pytest.mark.parametrize("name", MODELS)
    def test_padded_on_the_kernel(self, monkeypatch, name):
        small, obs = self.MODELS[name]
        model = padded(small, hmm._SCAN_MAX_K + 1)
        starts = kernel_blocks(monkeypatch)
        fwd = self.forward(model, obs)
        smooth = self.smooth(model, obs, fwd)
        assert starts == [1]
        self.assert_matches(name, fwd, smooth)

    @pytest.mark.parametrize("name", MODELS)
    def test_past_step_1024_on_lanes(self, monkeypatch, name):
        model = padded(self.MODELS[name][0], hmm._SCAN_MAX_K + 1)
        obs, offset, after = self.long_series(name)
        t_len = len(obs.values)
        assert t_len >= hmm._LANE_MIN_ROWS
        expected = kernel_passes(model, obs)
        passes = lane_passes(monkeypatch)
        fwd = self.forward(model, obs)
        smooth = self.smooth(model, obs, fwd)
        assert passes == [t_len, t_len - 1]
        arrays = (fwd.filtered, fwd.log_normalizers, smooth.smoothed, smooth.pairwise)
        assert tuple(a.tobytes() for a in arrays) == expected
        self.assert_matches(name, fwd, smooth, offset, after)

    @pytest.mark.parametrize("name", SUBNORMAL)
    def test_past_step_1024_on_scans(self, monkeypatch, name):
        # The block of the pattern fails its scan's check and runs on the
        # kernel, which goes on from the row after the rescued one; the
        # blocks around it scan.
        small = self.MODELS[name][0]
        obs, offset, after = self.long_series(name)
        starts = kernel_blocks(monkeypatch)
        fwd = self.forward(small, obs)
        assert starts == [1 + offset // hmm._SCAN_BLOCK * hmm._SCAN_BLOCK, offset + 2]
        self.assert_matches(name, fwd, self.smooth(small, obs, fwd), offset, after)

    @pytest.mark.parametrize("name", SUBNORMAL)
    def test_decodes_to_enumeration(self, name):
        small, pattern = self.MODELS[name]
        enum = exact_posterior_enumeration(small, pattern)
        path, log_joint = viterbi(small, pattern)
        assert path.states.tolist() == self.SUBNORMAL[name]
        assert log_joint == enum.map_log_joint == enum.log_likelihood


class TestForwardFilterMemory:
    def test_no_t_by_k_by_k_temporary(self):
        rng = np.random.default_rng(24)
        m = 4
        model = random_hmm(rng, 3, m)
        t_len, k = 50_000, 3
        y = sym(rng.integers(0, m, size=t_len))
        tracemalloc.start()
        try:
            fwd = forward_filter(model, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = fwd.filtered.nbytes + fwd.log_normalizers.nbytes
        assert peak < outputs + t_len * 8 + t_len * k * 8 // 4


# Lanes: above _SCAN_MAX_K states, a long series runs every block at once
# from uniform rows some steps before it, and a block keeps its lane's rows
# only where the lane met the true rows bit for bit.  Every test compares
# the bytes of both passes, or the error that stopped them, with the
# per-step kernel's.


def passes_or_error(model, obs, initial_override=None):
    """The bytes of both passes' outputs, or the type and message of the
    error that stopped them, with warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fwd = forward_filter(model, obs, initial_override=initial_override)
            smooth = backward_smooth(model, obs, fwd)
        except NumericalError as error:
            return type(error), str(error)
    arrays = (fwd.filtered, fwd.log_normalizers, smooth.smoothed, smooth.pairwise)
    return tuple(a.tobytes() for a in arrays)


def kernel_passes(model, obs, initial_override=None):
    with per_step_kernel():
        return passes_or_error(model, obs, initial_override)


def assert_lanes_equal_kernel(model, obs, initial_override=None):
    expected = kernel_passes(model, obs, initial_override)
    with forced_fill("lanes"):
        assert passes_or_error(model, obs, initial_override) == expected


def lane_blocks(n, overlap=None):
    """First rows of the blocks of a lane pass over n rows whose lanes
    start from a uniform row (from deltas of zero in Viterbi, whose lanes
    start _VITERBI_OVERLAP steps before their blocks)."""
    overlap = hmm._LANE_OVERLAP if overlap is None else overlap
    return list(range(1 + overlap + hmm._LANE_BLOCK, n, hmm._LANE_BLOCK))


def chunk_starts(blocks, n):
    """First rows of the kernel's chunks that run every row of the lane
    blocks starting at blocks, in a pass over n rows."""
    return [
        lo
        for start in blocks
        for lo in range(start, min(start + hmm._LANE_BLOCK, n), hmm._LANE_CHECK)
    ]


def slowly_mixing_hmm(rng, k, m, stay):
    transition = stay * np.eye(k) + (1.0 - stay) * rng.dirichlet(np.ones(k), size=k)
    transition /= transition.sum(axis=1, keepdims=True)
    return DiscreteHMM(np.full(k, 1.0 / k), transition, rng.dirichlet(np.ones(m), size=k))


def lane_lengths():
    block = hmm._LANE_BLOCK
    edges = {2 * block + 1, 511, 512, 513, 514}
    # The layouts of the sum-product passes and of Viterbi.
    for overlap in (hmm._LANE_OVERLAP, hmm._VITERBI_OVERLAP):
        span = block + overlap
        edges |= {span - 1, span, span + 1}
        # Series whose last row is the first of the second lane's block,
        # the last of it, and the first of the third's.
        edges |= {span + 2, span + block + 1, span + block + 2}
        # Series whose last block ends at or just past its first checkpoint.
        edges |= {span + 1 + hmm._LANE_CHECK, span + 2 + hmm._LANE_CHECK}
    edges |= {hmm._LANE_MIN_ROWS - 1, hmm._LANE_MIN_ROWS, hmm._LANE_MIN_ROWS + 1}
    return sorted(edges | {1, 2, 3})


class TestLanes:
    def test_permutation_with_uninformative_emissions(self, monkeypatch):
        # The forward rows are the initial law moved round a cycle, while a
        # lane from the uniform row stays uniform: no forward lane meets.
        # The backward rows are uniform, so every backward lane meets.
        # The second lane's repair lane starts from the first lane's end,
        # the true row, and gives its block; the kernel runs every row of
        # every later block, one chunk at a time.
        k, t_len = 10, 2000
        rng = np.random.default_rng(11)
        model = DiscreteHMM(
            rng.dirichlet(np.ones(k)), np.roll(np.eye(k), 1, axis=1), np.full((k, 2), 0.5)
        )
        obs = sym(rng.integers(0, 2, size=t_len))
        expected = kernel_passes(model, obs)
        passes = lane_passes(monkeypatch)
        starts = kernel_blocks(monkeypatch)
        assert passes_or_error(model, obs) == expected
        assert passes == [t_len, t_len - 1]
        assert starts == chunk_starts(lane_blocks(t_len)[1:], t_len)

    @pytest.mark.parametrize("override", [False, True])
    def test_slowly_mixing_model(self, monkeypatch, override):
        # Stay 0.9 at K = 25: few lanes forget their start within the
        # overlap, so most blocks run on the kernel from the row before.
        rng = np.random.default_rng(25)
        model = slowly_mixing_hmm(rng, 25, 5, 0.9)
        t_len = 3000
        _, obs = simulate_hmm(model, t_len, SeededGenerator(25))
        initial = rng.dirichlet(np.ones(25)) if override else None
        expected = kernel_passes(model, obs, initial)
        passes = lane_passes(monkeypatch)
        assert passes_or_error(model, obs, initial) == expected
        assert passes == [t_len, t_len - 1]

    @pytest.mark.parametrize("t_len", lane_lengths())
    @pytest.mark.parametrize(
        "k, make", [(9, sparse_hmm), (10, random_hmm)], ids=["sparse9", "dense10"]
    )
    def test_block_and_overlap_boundaries(self, k, make, t_len):
        rng = np.random.default_rng(k + t_len)
        model = make(rng, k, 4)
        _, obs = simulate_hmm(model, t_len, SeededGenerator(k * t_len))
        for initial in (None, rng.dirichlet(np.ones(k))):
            assert_lanes_equal_kernel(model, obs, initial)

    @pytest.mark.parametrize(
        "position, kernel_block",
        [
            (0, []),
            (1 + hmm._LANE_BLOCK + 10, [1]),
            (1 + hmm._LANE_OVERLAP + hmm._LANE_BLOCK + 10, lane_blocks(2000)[:1]),
            (1999, lane_blocks(2000)[-1:]),
        ],
        ids=["first step", "second lane's overlap", "second lane's block", "last step"],
    )
    def test_impossible_observation(self, monkeypatch, position, kernel_block):
        # Symbol 2 is emitted by no state.
        rng = np.random.default_rng(position)
        emission = np.zeros((10, 3))
        emission[:, :2] = rng.dirichlet(np.ones(2), size=10)
        model = DiscreteHMM(
            rng.dirichlet(np.ones(10)), rng.dirichlet(np.ones(10), size=10), emission
        )
        y = rng.integers(0, 2, size=2000)
        y[position] = 2
        obs = sym(y)
        expected = kernel_passes(model, obs)
        error = ImpossibleObservationError(position + 1)
        assert expected == (ImpossibleObservationError, str(error))
        passes = lane_passes(monkeypatch)
        starts = kernel_blocks(monkeypatch)
        assert passes_or_error(model, obs) == expected
        # Only the block of the impossible step ran on the kernel, in one
        # call from its first row: no checkpoint before the step can certify
        # the lane.  No block after it was filled.
        assert passes == ([] if position == 0 else [2000])
        assert starts == kernel_block

    @pytest.mark.parametrize("k", [hmm._SCAN_MAX_K + 1, 16])
    @pytest.mark.parametrize("rare", [1e-160, 1e-170])
    def test_rare_moves_past_step_1000(self, monkeypatch, k, rare):
        # The rare_moves pattern after 1100 steps in state 0 and before 200
        # in state 2.  Every path keeps to state 0 before the pattern and to
        # state 2 after it, so the posterior is the pattern's, from
        # enumeration, between point masses.  As in
        # TestRareMovesAboveScanSize, the masked columns keep the backward
        # rows from losing the mass at 1e-170, and no row needs
        # _extended_product.
        offset, span = 1100, len(RARE_MOVES_OBS.values)
        y = np.concatenate([np.zeros(offset, int), RARE_MOVES_OBS.values, [1, 2] * 100])
        obs, model, t_len = sym(y), rare_moves(rare, k), len(y)
        expected = kernel_passes(model, obs)
        passes = lane_passes(monkeypatch)
        rescues = extended_products(monkeypatch)
        assert passes_or_error(model, obs) == expected
        assert passes == [t_len, t_len - 1]
        assert rescues == []
        enum = exact_posterior_enumeration(rare_moves(rare), RARE_MOVES_OBS)
        smoothed = np.zeros((t_len, k))
        smoothed[:offset, 0] = smoothed[offset + span :, 2] = 1.0
        smoothed[offset : offset + span, :3] = enum.smoothed
        pairwise = np.zeros((t_len - 1, k, k))
        pairwise[:offset, 0, 0] = pairwise[offset + span - 1 :, 2, 2] = 1.0
        pairwise[offset : offset + span - 1, :3, :3] = enum.pairwise
        fwd, smooth = loop_passes(model, obs)
        np.testing.assert_allclose(smooth.smoothed, smoothed, rtol=0, atol=1e-12)
        np.testing.assert_allclose(smooth.pairwise, pairwise, rtol=0, atol=1e-12)
        # The 200 symbols after the pattern have probability 0.5 each.
        log_likelihood = enum.log_likelihood + 200 * np.log(0.5)
        assert fwd.log_likelihood == pytest.approx(log_likelihood, rel=1e-12)

    @pytest.mark.parametrize("name", TestRareEmissionThenRareMove.MODELS)
    def test_rare_emission_then_rare_move_past_step_1000(self, monkeypatch, name):
        # The pattern after 1100 repeats of its first symbol and before 200
        # of its last, with states no path enters up to K = 9: the driver
        # forms a backward row again with _extended_product and goes on within
        # the same pass, so each pass runs its lanes once.
        small, pattern = TestRareEmissionThenRareMove.MODELS[name]
        model = padded(small, hmm._SCAN_MAX_K + 1)
        first, last = pattern.values[0], pattern.values[-1]
        y = np.concatenate([np.full(1100, first), pattern.values, np.full(200, last)])
        obs, t_len = sym(y), len(y)
        expected = kernel_passes(model, obs)
        passes = lane_passes(monkeypatch)
        rescues = extended_products(monkeypatch)
        assert passes_or_error(model, obs) == expected
        assert len(rescues) == 1 and rescues[0] is not None
        assert passes == [t_len, t_len - 1]


def extended_products(monkeypatch):
    """Record what every call of _extended_product returns."""
    results = []
    product = hmm._extended_product

    def recording(*args):
        results.append(product(*args))
        return results[-1]

    monkeypatch.setattr(hmm, "_extended_product", recording)
    return results


def padded(model, k):
    """model with states up to k that no path enters: each keeps to itself
    and emits only a new symbol, which the series never shows, so that its
    backward entries are zero too."""
    small, m = model.K, model.M
    initial = np.zeros(k)
    initial[:small] = model.initial
    transition = np.eye(k)
    transition[:small, :small] = model.transition
    emission = np.zeros((k, m + 1))
    emission[:small, :m] = model.emission
    emission[small:, m] = 1.0
    return DiscreteHMM(initial, transition, emission)


class TestLaneStepIsTheKernelStep:
    # A lane step is the kernel's step only if a batched product and a
    # batched sum round as the per-row calls of _step_block do.  If this
    # fails, _step_block must take the batched call form.
    @pytest.mark.parametrize("batch", [1, 2, 7, 64])
    def test_batched_matmul_and_sum(self, batch):
        rng = np.random.default_rng(batch)
        for k in range(1, 41):
            matrix = rng.dirichlet(np.ones(k), size=k)
            rows = rng.dirichlet(np.ones(k), size=batch)
            batched = np.matmul(rows[:, None, :], matrix)[:, 0]
            single = np.array([row @ matrix for row in rows])
            assert batched.tobytes() == single.tobytes(), k
            sums = np.add.reduce(rows, axis=1)
            single = np.array([np.add.reduce(row) for row in rows])
            assert sums.tobytes() == single.tobytes(), k


# Viterbi runs the max-product recursion on normalized deltas, and on lanes
# for long series: a block keeps its lane's backpointers and deltas only
# where the lane's deltas before it equal the true ones bit for bit.  Every
# test compares the path and log_joint bytes, or the error that stopped
# them, with the per-step kernel's.


def viterbi_or_error(model, obs):
    """The bytes of viterbi's path and log_joint, or the type and message
    of the error that stopped it, with warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            path, log_joint = viterbi(model, obs)
        except NumericalError as error:
            return type(error), str(error)
    return path.states.tobytes(), np.float64(log_joint).tobytes()


def kernel_viterbi(model, obs):
    with per_step_kernel():
        return viterbi_or_error(model, obs)


def assert_viterbi_lanes_equal_kernel(model, obs):
    expected = kernel_viterbi(model, obs)
    with forced_fill("lanes"):
        assert viterbi_or_error(model, obs) == expected


def viterbi_kernel_blocks(monkeypatch):
    """Record the first step of every Viterbi block that runs on the
    kernel."""
    starts = []
    kernel = hmm._viterbi_block

    def recording(back, lo, *args):
        starts.append(lo)
        return kernel(back, lo, *args)

    monkeypatch.setattr(hmm, "_viterbi_block", recording)
    return starts


class TestViterbiLanes:
    def test_permutation_with_uninformative_emissions(self, monkeypatch):
        # The deltas are the initial law's logs moved round a cycle, while
        # a lane from zeros stays zeros: no lane but the first meets.
        # The second lane's repair lane starts from the first lane's end,
        # the true deltas, and gives its block; the kernel runs every row
        # of every later block, one chunk at a time.
        k, t_len = 10, 2000
        rng = np.random.default_rng(12)
        model = DiscreteHMM(
            rng.dirichlet(np.ones(k)), np.roll(np.eye(k), 1, axis=1), np.full((k, 2), 0.5)
        )
        obs = sym(rng.integers(0, 2, size=t_len))
        expected = kernel_viterbi(model, obs)
        passes = lane_passes(monkeypatch)
        starts = viterbi_kernel_blocks(monkeypatch)
        assert viterbi_or_error(model, obs) == expected
        assert passes == [t_len]
        assert starts == chunk_starts(lane_blocks(t_len, hmm._VITERBI_OVERLAP)[1:], t_len)

    @pytest.mark.parametrize("k, stay", [(25, 0.9), (40, 0.95)])
    def test_slowly_mixing_model(self, monkeypatch, k, stay):
        rng = np.random.default_rng(k)
        model = slowly_mixing_hmm(rng, k, 5, stay)
        t_len = 3000
        _, obs = simulate_hmm(model, t_len, SeededGenerator(k))
        expected = kernel_viterbi(model, obs)
        passes = lane_passes(monkeypatch)
        assert viterbi_or_error(model, obs) == expected
        assert passes == [t_len]

    @pytest.mark.parametrize("k", [1, 2])
    def test_one_and_two_states(self, monkeypatch, k):
        rng = np.random.default_rng(30 + k)
        model = random_hmm(rng, k, 3)
        t_len = 2000
        _, obs = simulate_hmm(model, t_len, SeededGenerator(k))
        expected = kernel_viterbi(model, obs)
        passes = lane_passes(monkeypatch)
        assert viterbi_or_error(model, obs) == expected
        assert passes == [t_len]

    @pytest.mark.parametrize("t_len", lane_lengths())
    @pytest.mark.parametrize(
        "k, make", [(3, sparse_hmm), (10, random_hmm)], ids=["sparse3", "dense10"]
    )
    def test_block_and_overlap_boundaries(self, k, make, t_len):
        rng = np.random.default_rng(k + t_len)
        model = make(rng, k, 4)
        _, obs = simulate_hmm(model, t_len, SeededGenerator(k * t_len))
        assert_viterbi_lanes_equal_kernel(model, obs)

    @pytest.mark.parametrize(
        "position, kernel_block",
        [
            (0, []),
            (1 + hmm._LANE_BLOCK + 10, [1]),
            (
                1 + hmm._VITERBI_OVERLAP + hmm._LANE_BLOCK + 10,
                lane_blocks(2000, hmm._VITERBI_OVERLAP)[:1],
            ),
            (1999, lane_blocks(2000, hmm._VITERBI_OVERLAP)[-1:]),
        ],
        ids=["first step", "second lane's overlap", "second lane's block", "last step"],
    )
    def test_impossible_observation(self, monkeypatch, position, kernel_block):
        # Symbol 2 is emitted by no state.
        rng = np.random.default_rng(position)
        emission = np.zeros((10, 3))
        emission[:, :2] = rng.dirichlet(np.ones(2), size=10)
        model = DiscreteHMM(
            rng.dirichlet(np.ones(10)), rng.dirichlet(np.ones(10), size=10), emission
        )
        y = rng.integers(0, 2, size=2000)
        y[position] = 2
        obs = sym(y)
        with pytest.raises(ImpossibleObservationError) as reference:
            reference_viterbi(model, obs)
        assert reference.value.time_index == position + 1
        expected = kernel_viterbi(model, obs)
        assert expected == (ImpossibleObservationError, str(reference.value))
        passes = lane_passes(monkeypatch)
        starts = viterbi_kernel_blocks(monkeypatch)
        assert viterbi_or_error(model, obs) == expected
        # Only the block of the impossible step ran on the kernel, in one
        # call from its first row.
        assert passes == ([] if position == 0 else [2000])
        assert starts == kernel_block


class TestLaneRepair:
    # A lane that misses the true row before its block is taken from a
    # later checkpoint, and the rows before it come from its repair lane,
    # where that lane started from the true row, or from the kernel.
    def test_last_short_block_whose_repair_lane_never_meets(self, monkeypatch):
        # The last block is 207 steps long and its repair lane never meets
        # its lane, while the batch runs longer: the block's last deltas are
        # the repair lane's at its own last step, not at the batch's.
        t_len = 10_000
        rng = np.random.default_rng(2)
        model = slowly_mixing_hmm(rng, 12, 3, 0.95)
        _, obs = simulate_hmm(model, t_len, SeededGenerator(2))
        expected = kernel_viterbi(model, obs)
        starts = viterbi_kernel_blocks(monkeypatch)
        assert viterbi_or_error(model, obs) == expected
        # The lanes gave the last block.
        assert max(starts) < lane_blocks(t_len, hmm._VITERBI_OVERLAP)[-1]

    @pytest.mark.parametrize("viterbi_pass", [False, True], ids=["forward", "viterbi"])
    def test_impossible_observation_in_a_repaired_block(self, monkeypatch, viterbi_pass):
        # The permutation model of TestLanes, whose second block comes from
        # its repair lane, with a symbol no state emits 40 steps into that
        # block: the repair lane's rows are not taken, and the block runs
        # on the kernel from its first row, which raises at the step.
        k, t_len = 10, 2000
        rng = np.random.default_rng(13)
        emission = np.zeros((k, 3))
        emission[:, :2] = 0.5
        model = DiscreteHMM(rng.dirichlet(np.ones(k)), np.roll(np.eye(k), 1, axis=1), emission)
        overlap = hmm._VITERBI_OVERLAP if viterbi_pass else hmm._LANE_OVERLAP
        lo = lane_blocks(t_len, overlap)[0]
        y = rng.integers(0, 2, size=t_len)
        y[lo + 40] = 2
        obs = sym(y)
        run = viterbi_or_error if viterbi_pass else passes_or_error
        with per_step_kernel():
            expected = run(model, obs)
        assert expected == (ImpossibleObservationError, str(ImpossibleObservationError(lo + 41)))
        record = viterbi_kernel_blocks if viterbi_pass else kernel_blocks
        starts = record(monkeypatch)
        assert run(model, obs) == expected
        assert starts == [lo]

    @pytest.mark.parametrize("k, stay", [(12, 0.95), (16, 0.99), (25, 0.9), (40, 0.9)])
    def test_default_dispatch_equals_the_kernel(self, k, stay):
        rng = np.random.default_rng([k, 3])
        model = slowly_mixing_hmm(rng, k, 5, stay)
        _, obs = simulate_hmm(model, 3000, SeededGenerator(k))
        assert passes_or_error(model, obs) == kernel_passes(model, obs)
        assert viterbi_or_error(model, obs) == kernel_viterbi(model, obs)


class TestViterbiLaneStepIsTheKernelStep:
    # A lane step is _viterbi_block's step only if the batched add, argmax,
    # maximum and subtraction give each row what the per-row calls give it.
    @pytest.mark.parametrize("batch", [1, 2, 7, 64])
    def test_batched_max_plus_step(self, batch):
        rng = np.random.default_rng(100 + batch)
        for k in range(1, 41):
            with np.errstate(divide="ignore"):
                trans_t = np.log(sparse_hmm(rng, k, 2).transition.T.copy())
            previous = np.log(rng.dirichlet(np.ones(k), size=batch))
            previous[rng.random((batch, k)) < 0.2] = -np.inf
            previous[:, 0] = 0.0
            emitted = np.log(rng.dirichlet(np.ones(k), size=batch))
            # Ties: equal deltas on the first two states of every row.
            previous[:, 1 % k] = previous[:, 0]

            scores = np.empty((k, k))
            single_back = np.empty((batch, k), dtype=np.int64)
            single = emitted.copy()
            for row, last, pointers in zip(single, previous, single_back):
                np.add(last, trans_t, out=scores)
                scores.argmax(axis=1, out=pointers)
                row += np.maximum.reduce(scores, axis=1)
                row -= np.maximum.reduce(row)

            batched_scores = np.empty((batch, k, k))
            offsets = np.arange(0, batch * k * k, k).reshape(batch, k)
            # Backpointers go to a strided view, as lanes write them.
            back = np.zeros((3 * batch, k), dtype=np.int64)
            pointers = back[::3]
            np.add(previous[:, None, :], trans_t, out=batched_scores)
            batched_scores.argmax(axis=2, out=pointers)
            batched = emitted.copy()
            batched += batched_scores.reshape(-1)[pointers + offsets]
            batched -= np.maximum.reduce(batched, axis=1)[:, None]
            assert pointers.tobytes() == single_back.tobytes(), k
            assert batched.tobytes() == single.tobytes(), k


class TestLaneGeometry:
    # The lane schedule lives in _LANE_OVERLAP, _VITERBI_OVERLAP,
    # _LANE_BLOCK, _LANE_CHECK and the one lane driver: at other overlaps,
    # block sizes and checkpoint spacings, lanes still equal the kernel in
    # all three passes.
    @pytest.mark.parametrize(
        "overlap, viterbi_overlap, block",
        [(64, 32, 256), (256, 64, 128), (96, 200, 192), (32, 96, 512)],
    )
    # A checkpoint at every step, every _LANE_CHECK steps, and only before
    # each block.
    @pytest.mark.parametrize("check", [1, hmm._LANE_CHECK, None], ids=["1", "check", "block"])
    @pytest.mark.parametrize("k", [3, 10, 25])
    def test_lanes_equal_the_kernel(self, monkeypatch, overlap, viterbi_overlap, block, check, k):
        monkeypatch.setattr(hmm, "_LANE_OVERLAP", overlap)
        monkeypatch.setattr(hmm, "_VITERBI_OVERLAP", viterbi_overlap)
        monkeypatch.setattr(hmm, "_LANE_BLOCK", block)
        monkeypatch.setattr(hmm, "_LANE_CHECK", block if check is None else check)
        rng = np.random.default_rng([k, overlap, block])
        model = slowly_mixing_hmm(rng, k, 4, 0.6)
        for t_len in (overlap + block + 2, viterbi_overlap + block + 2, 1500):
            _, obs = simulate_hmm(model, t_len, SeededGenerator(k * t_len))
            assert_lanes_equal_kernel(model, obs)
            assert_viterbi_lanes_equal_kernel(model, obs)


class TestViterbiMemory:
    def test_no_lane_rows_kept(self):
        rng = np.random.default_rng(26)
        model = random_hmm(rng, 10, 5)
        t_len, k = 10_000, 10
        y = sym(rng.integers(0, 5, size=t_len))
        tracemalloc.start()
        try:
            viterbi(model, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        back = t_len * k * 8
        assert peak < back + 2 * t_len * k * 8
