"""The forward filter, backward smoother, Baum-Welch step, EM loop and
Viterbi decoder against the plain per-step recursions and the two-pass EM
loop.

The forward and backward passes, the Baum-Welch step and the EM loop run
with the dispatch pinned to the per-step kernel (loop_path): the prefix
scans that small models run instead change the arithmetic, and
tests/test_hmm.py checks them against enumeration and against the kernel
within 1e-12.  The forward pass is compared byte for byte.  Everything
that goes through the backward pass is compared within 1e-12 relative:
the kernel scales each backward row by its own sum, where the reference
divides by the forward normalizers.  Viterbi is compared byte for byte
with the per-step recursion on normalized deltas, and with the plain
unnormalized recursion byte for byte where the two paths agree; where
rounding separates a tie differently, the two paths must score the same."""


import math
import warnings

import numpy as np
import pytest

from ssmkit import (
    DiscreteHMM,
    ImpossibleObservationError,
    ObservationSeries,
    SeededGenerator,
    backward_smooth,
    baum_welch_step,
    fit_em,
    forward_filter,
    simulate_hmm,
    viterbi,
)
from ssmkit import hmm
from ssmkit.hmm import _check_probability_vector, _check_symbols
from ssmkit.models import require_valid


def reference_forward_filter(model, obs, initial_override=None):
    """One propagate/reweight/normalize step at a time, stopping at the
    first impossible observation."""
    require_valid(model)
    y = _check_symbols(obs, model.M)
    if initial_override is not None:
        prior = _check_probability_vector(initial_override, model.K, "initial_override")
    else:
        prior = model.initial
    T = y.shape[0]
    emit_cols = model.emission.T
    filtered = np.empty((T, model.K))
    log_norms = np.empty(T)
    predicted = prior
    for t in range(T):
        weighted = predicted * emit_cols[y[t]]
        norm = weighted.sum()
        if norm <= 0.0:
            raise ImpossibleObservationError(t + 1)
        filtered[t] = weighted / norm
        log_norms[t] = np.log(norm)
        if t + 1 < T:
            predicted = filtered[t] @ model.transition
    return filtered, log_norms, float(log_norms.sum())


def reference_backward_smooth(model, obs, filtered, log_norms):
    """Every smoothed row and pairwise slab formed inside the backward loop."""
    y = _check_symbols(obs, model.M)
    T = y.shape[0]
    K = model.K
    emit_cols = model.emission.T
    norms = np.exp(log_norms)
    beta = np.ones(K)
    smoothed = np.empty((T, K))
    pairwise = np.empty((max(T - 1, 0), K, K))
    smoothed[T - 1] = filtered[T - 1]
    for t in range(T - 2, -1, -1):
        rescaled = emit_cols[y[t + 1]] * beta / norms[t + 1]
        pairwise[t] = filtered[t][:, None] * model.transition * rescaled[None, :]
        beta = model.transition @ rescaled
        smoothed[t] = filtered[t] * beta
    return smoothed, pairwise


def reference_baum_welch_step(model, obs):
    """Returns (model, log_likelihood, held transition rows, held emission rows)."""
    y = _check_symbols(obs, model.M)
    filtered, log_norms, log_likelihood = reference_forward_filter(model, obs)
    smoothed, pairwise = reference_backward_smooth(model, obs, filtered, log_norms)
    K, M = model.K, model.M

    new_initial = smoothed[0].copy()
    new_initial /= new_initial.sum()

    trans_counts = pairwise.sum(axis=0) if len(y) > 1 else np.zeros((K, K))
    trans_denoms = trans_counts.sum(axis=1)
    new_transition = model.transition.copy()
    held_trans = []
    for i in range(K):
        if trans_denoms[i] > 0.0:
            new_transition[i] = trans_counts[i] / trans_denoms[i]
        else:
            held_trans.append(i)

    emit_counts = np.zeros((K, M))
    np.add.at(emit_counts.T, y, smoothed)
    emit_denoms = emit_counts.sum(axis=1)
    new_emission = model.emission.copy()
    held_emit = []
    for i in range(K):
        if emit_denoms[i] > 0.0:
            new_emission[i] = emit_counts[i] / emit_denoms[i]
        else:
            held_emit.append(i)
    new_model = DiscreteHMM(new_initial, new_transition, new_emission)
    return new_model, log_likelihood, tuple(held_trans), tuple(held_emit)


def reference_fit_em(model0, obs, tol, max_iter):
    """Two forward passes per step: one inside the step, one for the trace."""
    current = model0
    trace = []
    for _ in range(max_iter):
        new_model, log_likelihood, _, _ = reference_baum_welch_step(current, obs)
        if not trace:
            trace.append(log_likelihood)
        current = new_model
        new_ll = reference_forward_filter(current, obs)[2]
        if new_ll - trace[-1] < tol:
            break
        trace.append(new_ll)
    return current, trace


def reference_viterbi(model, obs):
    """The max-product step with a fresh score matrix, a gather of the
    maxima through the argmax, and the impossibility check at every step."""
    require_valid(model)
    y = _check_symbols(obs, model.M)
    T = y.shape[0]
    K = model.K
    with np.errstate(divide="ignore"):
        log_init = np.log(model.initial)
        log_trans = np.log(model.transition)
        log_emit = np.log(model.emission)
    delta = log_init + log_emit[:, y[0]]
    if np.max(delta) == -np.inf:
        raise ImpossibleObservationError(1)
    back = np.empty((T, K), dtype=np.int64)
    for t in range(1, T):
        scores = delta[:, None] + log_trans
        back[t] = np.argmax(scores, axis=0)
        delta = scores[back[t], np.arange(K)] + log_emit[:, y[t]]
        if np.max(delta) == -np.inf:
            raise ImpossibleObservationError(t + 1)
    path = np.empty(T, dtype=np.int64)
    path[T - 1] = int(np.argmax(delta))
    log_joint = float(delta[path[T - 1]])
    for t in range(T - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path, log_joint


def reference_viterbi_normalized(model, obs):
    """The max-product step on normalized deltas: a fresh score matrix, a
    gather of the maxima through the argmax, the emission terms, then the
    row's maximum subtracted, with the impossibility check at every step.
    log_joint adds the path's log terms one at a time on Python floats."""
    require_valid(model)
    y = _check_symbols(obs, model.M)
    T = y.shape[0]
    K = model.K
    with np.errstate(divide="ignore"):
        log_init = np.log(model.initial)
        log_trans = np.log(model.transition)
        log_emit = np.log(model.emission)
    delta = log_emit[:, y[0]] + log_init
    if np.max(delta) == -np.inf:
        raise ImpossibleObservationError(1)
    delta = delta - np.max(delta)
    back = np.empty((T, K), dtype=np.int64)
    for t in range(1, T):
        scores = delta[:, None] + log_trans
        back[t] = np.argmax(scores, axis=0)
        delta = scores[back[t], np.arange(K)] + log_emit[:, y[t]]
        if np.max(delta) == -np.inf:
            raise ImpossibleObservationError(t + 1)
        delta = delta - np.max(delta)
    path = np.empty(T, dtype=np.int64)
    path[T - 1] = int(np.argmax(delta))
    for t in range(T - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    log_joint = float(log_emit[path[0], y[0]] + log_init[path[0]])
    for t in range(1, T):
        log_joint += float(log_trans[path[t - 1], path[t]])
        log_joint += float(log_emit[path[t], y[t]])
    return path, log_joint


def path_log_terms(model, y, path):
    """The log-probability terms of a path: initial, first emission, then a
    transition and an emission per step."""
    with np.errstate(divide="ignore"):
        terms = [np.log(model.initial[path[0]]), np.log(model.emission[path[0], y[0]])]
        for t in range(1, len(y)):
            terms.append(np.log(model.transition[path[t - 1], path[t]]))
            terms.append(np.log(model.emission[path[t], y[t]]))
    return [float(term) for term in terms]


def assert_bytes_equal(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def random_hmm(rng, k, m):
    def rows(n, width):
        raw = rng.exponential(size=(n, width)) + 0.05
        return raw / raw.sum(axis=1, keepdims=True)

    return DiscreteHMM(rows(1, k)[0], rows(k, k), rows(k, m))


# State 2 is never entered, so EM holds its transition and emission rows;
# symbol 2 is only emitted from state 2, so it never occurs either.
SPARSE = DiscreteHMM(
    [0.6, 0.4, 0.0],
    [[0.7, 0.3, 0.0], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]],
    [[0.5, 0.5, 0.0], [0.1, 0.9, 0.0], [0.0, 0.0, 1.0]],
)


TINY = np.finfo(float).tiny


@pytest.fixture
def loop_path(monkeypatch):
    """Pin forward_filter and backward_smooth to their per-step kernel."""
    monkeypatch.setattr(hmm, "_block_fill", lambda k, n: "kernel")


def assert_models_close(actual, expected):
    for name in ("initial", "transition", "emission"):
        np.testing.assert_allclose(
            getattr(actual, name), getattr(expected, name), rtol=1e-12, atol=0
        )


def assert_close_to_reference(actual, expected):
    """Zero exactly where the reference is zero, within 1e-12 relative
    where it is a normal float, and within TINY where it is subnormal: a
    subnormal float carries fewer than 53 bits, and may round to zero."""
    np.testing.assert_array_equal(actual[expected == 0.0], 0.0)
    normal = expected >= TINY
    np.testing.assert_allclose(actual[normal], expected[normal], rtol=1e-12, atol=0)
    np.testing.assert_allclose(actual[~normal], expected[~normal], rtol=0, atol=TINY)


def check_against_reference(model, obs, initial_override=None):
    expected = reference_forward_filter(model, obs, initial_override)
    forward = forward_filter(model, obs, initial_override)
    assert_bytes_equal(forward.filtered, expected[0])
    assert_bytes_equal(forward.log_normalizers, expected[1])
    assert forward.log_likelihood == expected[2]

    smooth = backward_smooth(model, obs, forward)
    smoothed, pairwise = reference_backward_smooth(model, obs, expected[0], expected[1])
    assert_close_to_reference(smooth.smoothed, smoothed)
    assert_close_to_reference(smooth.pairwise, pairwise)


@pytest.mark.usefixtures("loop_path")
class TestForwardBackward:
    @pytest.mark.parametrize("k, m", [(2, 2), (3, 4), (10, 5)])
    @pytest.mark.parametrize("t_len", [1, 2, 3, 57, 2000])
    def test_random_model(self, k, m, t_len):
        rng = np.random.default_rng(1000 * k + t_len)
        model = random_hmm(rng, k, m)
        _, obs = simulate_hmm(model, t_len, SeededGenerator(k + t_len))
        check_against_reference(model, obs)

    @pytest.mark.parametrize("t_len", [1, 2, 3, 57, 2000])
    def test_initial_override(self, t_len):
        rng = np.random.default_rng(t_len)
        model = random_hmm(rng, 3, 4)
        _, obs = simulate_hmm(model, t_len, SeededGenerator(t_len))
        override = rng.exponential(size=3)
        check_against_reference(model, obs, override / override.sum())

    @pytest.mark.parametrize("t_len", [1, 2, 3, 57, 2000])
    def test_zero_entries(self, t_len):
        _, obs = simulate_hmm(SPARSE, t_len, SeededGenerator(7 + t_len))
        check_against_reference(SPARSE, obs)
        check_against_reference(SPARSE, obs, [0.0, 1.0, 0.0])


@pytest.mark.usefixtures("loop_path")
class TestBaumWelchStep:
    @pytest.mark.parametrize("k, m", [(2, 2), (3, 4), (10, 5)])
    @pytest.mark.parametrize("t_len", [1, 2, 3, 57, 2000])
    def test_random_model(self, k, m, t_len):
        rng = np.random.default_rng(2000 * k + t_len)
        model = random_hmm(rng, k, m)
        _, obs = simulate_hmm(model, t_len, SeededGenerator(3 * k + t_len))
        step = baum_welch_step(model, obs)
        new_model, log_likelihood, held_trans, held_emit = reference_baum_welch_step(
            model, obs
        )
        assert_models_close(step.model, new_model)
        assert step.log_likelihood == log_likelihood
        assert step.held_transition_rows == held_trans
        assert step.held_emission_rows == held_emit

    @pytest.mark.parametrize("t_len", [1, 2, 57, 2000])
    def test_held_rows(self, t_len):
        _, obs = simulate_hmm(SPARSE, t_len, SeededGenerator(t_len))
        step = baum_welch_step(SPARSE, obs)
        new_model, log_likelihood, held_trans, held_emit = reference_baum_welch_step(
            SPARSE, obs
        )
        assert 2 in held_trans and held_emit == (2,)
        assert_models_close(step.model, new_model)
        assert step.log_likelihood == log_likelihood
        assert step.held_transition_rows == held_trans
        assert step.held_emission_rows == held_emit


@pytest.mark.usefixtures("loop_path")
class TestFitEm:
    @pytest.mark.parametrize("k, m", [(2, 2), (3, 4), (10, 5)])
    def test_stops_by_tolerance(self, k, m):
        rng = np.random.default_rng(30 + k)
        truth = random_hmm(rng, k, m)
        _, obs = simulate_hmm(truth, 57, SeededGenerator(k))
        start = random_hmm(rng, k, m)
        fitted, trace = fit_em(start, obs, tol=1e-3, max_iter=500)
        expected_model, expected_trace = reference_fit_em(start, obs, 1e-3, 500)
        assert len(trace) < 501
        np.testing.assert_allclose(trace, expected_trace, rtol=1e-12, atol=0)
        assert_models_close(fitted, expected_model)

    @pytest.mark.parametrize("k, m", [(2, 2), (3, 4), (10, 5)])
    def test_stops_by_max_iter(self, k, m):
        rng = np.random.default_rng(40 + k)
        truth = random_hmm(rng, k, m)
        _, obs = simulate_hmm(truth, 2000, SeededGenerator(k))
        start = random_hmm(rng, k, m)
        fitted, trace = fit_em(start, obs, tol=1e-12, max_iter=4)
        expected_model, expected_trace = reference_fit_em(start, obs, 1e-12, 4)
        assert len(trace) == 5
        np.testing.assert_allclose(trace, expected_trace, rtol=1e-12, atol=0)
        assert_models_close(fitted, expected_model)

    def test_zero_entries(self):
        _, obs = simulate_hmm(SPARSE, 200, SeededGenerator(5))
        fitted, trace = fit_em(SPARSE, obs, tol=1e-8, max_iter=30)
        expected_model, expected_trace = reference_fit_em(SPARSE, obs, 1e-8, 30)
        np.testing.assert_allclose(trace, expected_trace, rtol=1e-12, atol=0)
        assert_models_close(fitted, expected_model)


def check_viterbi(model, obs):
    """Bytes equal to the normalized recursion's.  Bytes equal to the plain
    recursion's where the paths agree; where they do not, rounding broke a
    tie the other way, and the two paths score the same."""
    path, log_joint = viterbi(model, obs)
    expected_path, expected_log_joint = reference_viterbi_normalized(model, obs)
    assert_bytes_equal(path.states, expected_path)
    assert np.float64(log_joint).tobytes() == np.float64(expected_log_joint).tobytes()
    plain_path, plain_log_joint = reference_viterbi(model, obs)
    if np.array_equal(path.states, plain_path):
        assert np.float64(log_joint).tobytes() == np.float64(plain_log_joint).tobytes()
    else:
        y = obs.values
        assert math.fsum(path_log_terms(model, y, path.states)) == math.fsum(
            path_log_terms(model, y, plain_path)
        )
        assert log_joint == pytest.approx(plain_log_joint, rel=1e-12, abs=0)


@pytest.fixture(params=[hmm._SCAN_BLOCK, 4], ids=["default-block", "block-4"])
def viterbi_block(request, monkeypatch):
    """Run with the default block size and with one that puts block
    boundaries inside short series."""
    monkeypatch.setattr(hmm, "_SCAN_BLOCK", request.param)


@pytest.mark.usefixtures("viterbi_block")
class TestViterbi:
    @pytest.mark.parametrize("k, m", [(2, 2), (3, 4), (10, 5)])
    @pytest.mark.parametrize("t_len", [1, 2, 3, 57, 2000])
    def test_random_model(self, k, m, t_len):
        rng = np.random.default_rng(3000 * k + t_len)
        model = random_hmm(rng, k, m)
        _, obs = simulate_hmm(model, t_len, SeededGenerator(5 * k + t_len))
        check_viterbi(model, obs)

    @pytest.mark.parametrize("t_len", [1, 2, 57, 2000])
    def test_zero_entries(self, t_len):
        _, obs = simulate_hmm(SPARSE, t_len, SeededGenerator(9 + t_len))
        check_viterbi(SPARSE, obs)

    @pytest.mark.parametrize("t_len", [1, 2, 57])
    def test_tied_scores(self, t_len):
        # Equal transition entries and equal emission rows tie every score,
        # and a block of equal entries ties some of them; ties go to the
        # lower index.
        uniform = DiscreteHMM(np.full(4, 0.25), np.full((4, 4), 0.25), np.full((4, 3), 1 / 3))
        blocks = DiscreteHMM(
            [0.5, 0.5, 0.0],
            [[0.4, 0.4, 0.2], [0.4, 0.4, 0.2], [0.3, 0.3, 0.4]],
            [[0.5, 0.5], [0.5, 0.5], [0.9, 0.1]],
        )
        for model in (uniform, blocks):
            _, obs = simulate_hmm(model, t_len, SeededGenerator(t_len))
            check_viterbi(model, obs)
        path, _ = viterbi(uniform, simulate_hmm(uniform, t_len, SeededGenerator(1))[1])
        assert not path.states.any()


# Deterministic alternation: state 0 emits only symbol 0, state 1 only
# symbol 1, so any repeated symbol is impossible.
ALTERNATING = DiscreteHMM([1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])


@pytest.mark.usefixtures("loop_path")
class TestImpossibleObservation:
    @pytest.mark.parametrize("override", [None, [0.0, 1.0]])
    @pytest.mark.parametrize("t_len, position", [(1, 0), (9, 0), (9, 4), (9, 8)])
    def test_reported_at_the_reference_step(self, override, t_len, position):
        first = 1 if override == [0.0, 1.0] else 0
        y = (first + np.arange(t_len)) % 2
        y[position] = 1 - y[position]
        obs = ObservationSeries(y, kind="symbolic")
        with pytest.raises(ImpossibleObservationError) as expected:
            reference_forward_filter(ALTERNATING, obs, override)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ImpossibleObservationError) as raised:
                forward_filter(ALTERNATING, obs, override)
        assert raised.value.time_index == expected.value.time_index == position + 1

    @pytest.mark.parametrize("override", [None, [0.2, 0.8]])
    @pytest.mark.parametrize("position", [0, 30, 56])
    def test_symbol_no_state_emits(self, override, position):
        model = DiscreteHMM(
            [0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[0.6, 0.4, 0.0], [0.3, 0.7, 0.0]]
        )
        y = np.random.default_rng(position).integers(0, 2, size=57)
        y[position] = 2
        y[-1] = 2
        obs = ObservationSeries(y, kind="symbolic")
        with pytest.raises(ImpossibleObservationError) as expected:
            reference_forward_filter(model, obs, override)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ImpossibleObservationError) as raised:
                forward_filter(model, obs, override)
        assert raised.value.time_index == expected.value.time_index == position + 1


@pytest.mark.usefixtures("viterbi_block")
class TestViterbiImpossibleObservation:
    @pytest.mark.parametrize("t_len, position", [(1, 0), (9, 0), (9, 4), (9, 8)])
    def test_repeated_symbol(self, t_len, position):
        y = np.arange(t_len) % 2
        y[position] = 1 - y[position]
        self.check(ALTERNATING, ObservationSeries(y, kind="symbolic"), position)

    @pytest.mark.parametrize("position", [0, 30, 56])
    def test_symbol_no_state_emits(self, position):
        model = DiscreteHMM(
            [0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[0.6, 0.4, 0.0], [0.3, 0.7, 0.0]]
        )
        y = np.random.default_rng(position).integers(0, 2, size=57)
        y[position] = 2
        y[-1] = 2
        self.check(model, ObservationSeries(y, kind="symbolic"), position)

    @staticmethod
    def check(model, obs, position):
        with pytest.raises(ImpossibleObservationError) as expected:
            reference_viterbi(model, obs)
        with pytest.raises(ImpossibleObservationError) as normalized:
            reference_viterbi_normalized(model, obs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ImpossibleObservationError) as raised:
                viterbi(model, obs)
        assert raised.value.time_index == expected.value.time_index == position + 1
        assert normalized.value.time_index == position + 1
