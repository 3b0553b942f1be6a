"""Exact inference for finite-state hidden Markov models.

Forward/backward passes use per-step normalization with the normalizers
accumulated in log domain.  Time indices reported in errors are 1-based,
matching the t column of series files.

The forward and backward passes run one of two ways, chosen by the number
of states K alone (_use_scan).  Up to _SCAN_MAX_K states they are blocked
prefix scans.  The unnormalized filter row t is alpha_0 @ M_1 @ ... @ M_t
with M_t = A diag(e_t), so the rows of a block of _SCAN_BLOCK steps come
from log2(_SCAN_BLOCK) batched matrix products started from the last row
of the block before; the backward pass scans the transposed factors over
reversed time.  The scans change the order of the arithmetic: their
outputs agree with the per-step loops within 1e-12 relative, zeros stay
exact zeros, and smoothed[T-1] equals filtered[T-1] exactly.  Every
scanned row is checked against one per-step recursion from the row
before it; a block that fails the check (an impossible observation, or an
entry a partial product lost to underflow) hands the series to the loop,
which raises or computes it.  Their work per step grows as K**3 times the
levels of a block, so above _SCAN_MAX_K the per-step loops are faster and
run instead.

Each loop carries only its recursion.  The forward loop finishes a row of
gathered emission columns in place (weight by the prediction, sum,
divide, predict); the logs of the normalizers and the impossibility check
run batched afterwards.  The backward loop finishes a row of gathered
emission columns in place (weight by beta, divide by the normalizer) and
writes the next beta into the smoothed array; the product with the
filtered rows and the pairwise slabs are then formed batched, with no
T x K x K temporary.  The Viterbi loop writes each step's scores into one
K x K buffer and finishes a row of gathered log emission columns with
their column maxima; the impossibility check runs once per block of
gathered rows.  Every element goes through the same floating-point
operations in the same order as in the plain per-step recursion, so the
loops' outputs and Viterbi's equal it byte for byte.  fit_em filters each
model once and hands that pass to the next baum_welch_step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EnumerationSizeError,
    ImpossibleObservationError,
    ModelValidationError,
)
from .models import DiscreteHMM, ObservationSeries, StatePath, _row_faults, require_valid

__all__ = [
    "CategoricalPosteriorSequence",
    "SmoothedSequence",
    "BaumWelchStep",
    "EnumerationResult",
    "forward_filter",
    "backward_smooth",
    "predict_states",
    "viterbi",
    "baum_welch_step",
    "fit_em",
    "exact_posterior_enumeration",
]

ENUMERATION_GUARD = 10**6
# Steps per block of gathered log emission columns in viterbi; bounds the
# memory the gather takes.
_BLOCK = 1024
# Models with at most this many states run the forward and backward passes
# as blocked prefix scans: measured faster than the per-step loops at every
# series length up to this K, while at K = 9 and 10 the backward scan was no
# faster than its loop.
_SCAN_MAX_K = 8
# Steps per block of the scans; a block's partial products take
# _SCAN_BLOCK * K * K floats.
_SCAN_BLOCK = 512
# Largest relative difference, entry by entry, between a scanned row and
# one per-step recursion from the row before it that _scan_block accepts.
_SCAN_RTOL = 1e-12


@dataclass(frozen=True)
class CategoricalPosteriorSequence:
    """Filtering output: row t of filtered is P(X_t | Y_1..Y_t).

    log_normalizers[t] is the log of step t's normalizing constant, so the
    log-likelihood equals their sum; the backward pass reuses them.
    """

    filtered: np.ndarray
    log_normalizers: np.ndarray
    log_likelihood: float


@dataclass(frozen=True)
class SmoothedSequence:
    """Smoothing output: row t of smoothed is P(X_t | Y_1..Y_T); slab t of
    pairwise is P(X_t = i, X_{t+1} = j | Y_1..Y_T)."""

    smoothed: np.ndarray
    pairwise: np.ndarray


@dataclass(frozen=True)
class BaumWelchStep:
    """One EM step: re-estimated model and the log-likelihood of the input
    model.  Rows that received zero expected occupancy are kept equal to
    the input rows and listed here by index."""

    model: DiscreteHMM
    log_likelihood: float
    held_transition_rows: tuple[int, ...] = ()
    held_emission_rows: tuple[int, ...] = ()

    def __iter__(self):
        # Allows ``new_model, loglik = baum_welch_step(...)``.
        return iter((self.model, self.log_likelihood))


@dataclass(frozen=True)
class EnumerationResult:
    """Brute-force posterior over all K**T hidden paths."""

    filtered: np.ndarray
    smoothed: np.ndarray
    pairwise: np.ndarray
    log_likelihood: float
    map_path: np.ndarray
    map_log_joint: float


def _check_symbolic(model: DiscreteHMM, obs: ObservationSeries) -> np.ndarray:
    if obs.kind != "symbolic":
        raise ModelValidationError(
            "discrete HMM inference requires symbolic observations"
        )
    y = obs.values
    if y.shape[0] < 1:
        raise ValueError("observation series must have at least one entry")
    if y.size and (y.min() < 0 or y.max() >= model.M):
        bad = int(np.flatnonzero((y < 0) | (y >= model.M))[0])
        raise ModelValidationError(
            f"symbol {y[bad]} at t={bad + 1} outside alphabet of size {model.M}"
        )
    return y


def _check_probability_vector(p, k: int, name: str) -> np.ndarray:
    v = np.asarray(p, dtype=float)
    if v.shape != (k,):
        raise ModelValidationError(f"{name} must have length {k}, got shape {v.shape}")
    s, negative, off = _row_faults(v)
    if negative:
        raise ModelValidationError(f"{name} has negative entries")
    if off:
        raise ModelValidationError(f"{name} sums to {s:.17g}, off by {s - 1.0:.3g}")
    return v


def forward_filter(
    model: DiscreteHMM,
    obs: ObservationSeries,
    initial_override=None,
) -> CategoricalPosteriorSequence:
    """Scaled forward recursion.

    Each step propagates through the transition matrix, reweights by the
    emission column of the observed symbol, and renormalizes; the log of
    each normalizer is accumulated so log_likelihood = sum_t log c_t.
    initial_override replaces model.initial for the first step when given.
    Models with at most _SCAN_MAX_K states run it as a blocked prefix scan.
    """
    require_valid(model)
    y = _check_symbolic(model, obs)
    if initial_override is not None:
        prior = _check_probability_vector(initial_override, model.K, "initial_override")
    else:
        prior = model.initial
    if _use_scan(model.K):
        forward = _forward_scan(model, y, prior)
        if forward is not None:
            return forward
    return _forward_loop(model, y, prior)


def _use_scan(k: int) -> bool:
    """Whether forward_filter and backward_smooth run a K-state model as
    blocked prefix scans rather than per-step loops."""
    return k <= _SCAN_MAX_K


def _forward_loop(
    model: DiscreteHMM, y: np.ndarray, prior: np.ndarray
) -> CategoricalPosteriorSequence:
    """forward_filter one step at a time, from checked symbols and prior."""
    T = y.shape[0]
    transition = model.transition
    # Row t starts as the emission column of y[t] and is finished in place.
    filtered = model.emission.T[y]
    norms = np.empty(T)
    predicted = prior
    with np.errstate(divide="ignore", invalid="ignore"):
        for t, row in enumerate(filtered):
            row *= predicted
            # norms[t, ...] is a 0-d view: numpy divides by it faster than
            # by the scalar row.sum() returns, with the same result.
            row /= np.add.reduce(row, out=norms[t, ...])
            predicted = row @ transition
        log_norms = np.log(norms)
        # An impossible step leaves NaN behind it, so the first non-positive
        # normalizer is the first impossible observation.
        impossible = np.flatnonzero(norms <= 0.0)
    if impossible.size:
        raise ImpossibleObservationError(int(impossible[0]) + 1)
    return CategoricalPosteriorSequence(
        filtered=filtered,
        log_normalizers=log_norms,
        log_likelihood=float(log_norms.sum()),
    )


def _scan_block(
    rows: np.ndarray, lo: int, hi: int, matrix: np.ndarray, cols: np.ndarray
) -> np.ndarray | None:
    """Fill rows[lo:hi] from rows[lo - 1] by a prefix scan, and check it.

    Row t becomes rows[lo - 1] @ F_lo @ ... @ F_t scaled to sum to one,
    where F_s = matrix @ diag(cols[s - lo]).  Inclusive Hillis-Steele scan:
    at stride d = 1, 2, 4, ... every partial product is multiplied by the
    one d steps before it, so a block of n steps takes ceil(log2(n))
    batched matmuls.  Each partial product is rescaled to unit sum, so a
    product over many steps does not underflow as a whole.  The carry
    enters through the first factor, whose rows all become
    rows[lo - 1] @ F_lo: every row of a prefix product is then the wanted
    row.

    A partial product can still lose an entry that the per-step recursion
    keeps, to zero or to a subnormal float, where its other entries are
    far larger.  So each row is compared with one step of that recursion
    from the row before it, (rows[t - 1] @ matrix) * cols[t - lo] scaled
    to sum to one.  Returns the sums of those unscaled steps, or None when
    some entry differs from its step by more than _SCAN_RTOL relative,
    which includes an impossible step (NaN rows) and a lost entry.
    """
    k = matrix.shape[0]
    ones = np.ones(k * k)
    n = hi - lo
    # Flat entry (i, j) of F_s is matrix[i, j] * cols[s - lo, j]; gathering
    # the columns k times over is faster than a broadcast multiply.
    prods = np.multiply(cols[:, np.arange(k * k) % k], matrix.ravel(), order="C")
    prods = prods.reshape(n, k, k)
    prods[0] = rows[lo - 1] @ prods[0]
    d = 1
    while d < n:
        joined = np.matmul(prods[:-d], prods[d:])
        joined /= (joined.reshape(n - d, k * k) @ ones)[:, None, None]
        prods[d:] = joined
        d *= 2
    out = rows[lo:hi]
    out[...] = prods[:, 0]
    out /= (out @ ones[:k])[:, None]
    step = rows[lo - 1 : hi - 1] @ matrix
    step *= cols
    sums = step @ ones[:k]
    step /= sums[:, None]
    error = out - step
    np.abs(error, out=error)
    step *= _SCAN_RTOL
    # A NaN on either side fails the comparison.
    if not (error <= step).all():
        return None
    return sums


def _forward_scan(
    model: DiscreteHMM, y: np.ndarray, prior: np.ndarray
) -> CategoricalPosteriorSequence | None:
    """forward_filter as a prefix scan, or None where a block fails its
    check (an impossible step or a lost entry), so that the loop runs and
    raises or computes it instead.

    The unnormalized filter row t is alpha_0 @ M_1 @ ... @ M_t with
    M_t = A diag(e_t); each block of _SCAN_BLOCK steps is scanned from the
    last filtered row of the one before.  The normalizers are the sums of
    the checking steps, filtered[t-1] @ A times the emission column of
    y[t], as in the loop.
    """
    T = y.shape[0]
    transition = model.transition
    emission_cols = model.emission.T
    filtered = np.empty((T, model.K))
    norms = np.empty(T)
    with np.errstate(divide="ignore", invalid="ignore"):
        first = prior * emission_cols[y[0]]
        norms[0] = np.add.reduce(first)
        if not norms[0] > 0.0:
            return None
        np.divide(first, norms[0], out=filtered[0])
        for lo in range(1, T, _SCAN_BLOCK):
            hi = min(lo + _SCAN_BLOCK, T)
            sums = _scan_block(filtered, lo, hi, transition, emission_cols[y[lo:hi]])
            if sums is None:
                return None
            norms[lo:hi] = sums
    log_norms = np.log(norms)
    return CategoricalPosteriorSequence(
        filtered=filtered,
        log_normalizers=log_norms,
        log_likelihood=float(log_norms.sum()),
    )


def backward_smooth(
    model: DiscreteHMM,
    obs: ObservationSeries,
    forward: CategoricalPosteriorSequence,
) -> SmoothedSequence:
    """Scaled backward recursion combined with the forward pass.

    Smoothed row t is elementwise filtered[t] * beta[t], with the backward
    variables scaled so that the row sums to one; row T equals the filtered
    row exactly.  Models with at most _SCAN_MAX_K states run it as a
    blocked suffix scan.
    """
    y = _check_symbolic(model, obs)
    T = y.shape[0]
    if forward.filtered.shape[0] != T:
        raise ValueError(
            f"forward pass covers {forward.filtered.shape[0]} steps, data has {T}"
        )
    if _use_scan(model.K):
        smooth = _backward_scan(model, y, forward.filtered)
        if smooth is not None:
            return smooth
    return _backward_loop(model, y, forward)


def _backward_loop(
    model: DiscreteHMM, y: np.ndarray, forward: CategoricalPosteriorSequence
) -> SmoothedSequence:
    """backward_smooth one step at a time, from checked symbols."""
    T, K = y.shape[0], model.K
    transition = model.transition
    filtered = forward.filtered
    norms = np.exp(forward.log_normalizers)
    smoothed = np.empty((T, K))
    pairwise = np.empty((max(T - 1, 0), K, K))
    # Row t of rescaled starts as the emission column of y[t + 1]; the loop
    # finishes it in place and writes beta[t] into smoothed[t].
    rescaled = model.emission.T[y[1:]]
    beta = np.ones(K)
    for t in range(T - 2, -1, -1):
        row = rescaled[t]
        row *= beta
        row /= norms[t + 1, ...]  # a 0-d view, as in _forward_loop
        beta = np.matmul(transition, row, out=smoothed[t])
    smoothed[:-1] *= filtered[:-1]
    smoothed[T - 1] = filtered[T - 1]
    np.multiply(filtered[:-1, :, None], transition, out=pairwise)
    pairwise *= rescaled[:, None, :]
    return SmoothedSequence(smoothed=smoothed, pairwise=pairwise)


def _backward_scan(
    model: DiscreteHMM, y: np.ndarray, filtered: np.ndarray
) -> SmoothedSequence | None:
    """backward_smooth as a suffix scan, or None where a block fails its
    check or a scale is not positive, so that the loop runs instead.

    Row t of the loop's rescaled array, e_{t+1} * beta[t+1] / c_{t+1}, is
    up to scale g_{t+1} with g_{T-1} = e_{T-1} and
    g_t = g_{t+1} @ A^T diag(e_t): a prefix scan over reversed time.  Its
    scale follows from smoothed[t] = filtered[t] * (A @ rescaled[t])
    summing to one, so the normalizers are not needed.
    """
    T, K = y.shape[0], model.K
    transition = model.transition
    smoothed = np.empty((T, K))
    # Row j holds g_{T-1-j} scaled to sum to one, from symbol y[T-1-j].
    reversed_rows = np.empty((T - 1, K))
    reversed_y = y[::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        if T > 1:
            last = model.emission[:, reversed_y[0]]
            np.divide(last, np.add.reduce(last), out=reversed_rows[0])
            transposed = np.ascontiguousarray(transition.T)
            for lo in range(1, T - 1, _SCAN_BLOCK):
                hi = min(lo + _SCAN_BLOCK, T - 1)
                cols = model.emission.T[reversed_y[lo:hi]]
                if _scan_block(reversed_rows, lo, hi, transposed, cols) is None:
                    return None
        rescaled = reversed_rows[::-1]
        beta = rescaled @ transition.T
        np.multiply(filtered[:-1], beta, out=smoothed[:-1])
        scale = smoothed[:-1] @ np.ones(K)
    if not (scale > 0.0).all():
        return None
    smoothed[:-1] /= scale[:, None]
    smoothed[T - 1] = filtered[T - 1]
    # Scaled last, so that a tiny scale cannot overflow a factor to inf.
    pairwise = np.multiply(filtered[:-1, :, None], transition)
    pairwise *= rescaled[:, None, :]
    pairwise /= scale[:, None, None]
    return SmoothedSequence(smoothed=smoothed, pairwise=pairwise)


def predict_states(model: DiscreteHMM, filtered_t, k: int) -> np.ndarray:
    """Push a filtering distribution j steps ahead for j = 1..k.

    Row j-1 of the output equals filtered_t @ transition**j.
    """
    require_valid(model)
    if k < 1:
        raise ValueError("k must be at least 1")
    current = _check_probability_vector(filtered_t, model.K, "filtered_t")
    out = np.empty((k, model.K))
    for j in range(k):
        current = current @ model.transition
        out[j] = current
    return out


def viterbi(model: DiscreteHMM, obs: ObservationSeries) -> tuple[StatePath, float]:
    """Most probable hidden path and its joint log-probability.

    Max-product recursion in log domain.  Ties are broken toward the lower
    state index at every backtrack step, so the result is the reverse-
    lexicographically smallest maximizing path.
    """
    require_valid(model)
    y = _check_symbolic(model, obs)
    T = y.shape[0]
    K = model.K
    with np.errstate(divide="ignore"):
        log_init = np.log(model.initial)
        log_trans = np.log(model.transition)
        log_emit = np.log(model.emission)
    back = np.empty((T, K), dtype=np.int64)
    scores = np.empty((K, K))
    delta = None
    for lo in range(0, T, _BLOCK):
        # Each row starts as the gathered log emission column of its symbol
        # and is finished in place into the best score of each state.
        deltas = log_emit.T[y[lo : lo + _BLOCK]]
        for t, row in enumerate(deltas, lo):
            if delta is None:
                row += log_init
            else:
                np.add(delta[:, None], log_trans, out=scores)
                np.argmax(scores, axis=0, out=back[t])
                row += scores.max(axis=0)
            delta = row
        # Scores are never NaN, and a row of -inf stays -inf, so the first
        # such row is the first impossible step.
        impossible = np.flatnonzero(deltas.max(axis=1) == -np.inf)
        if impossible.size:
            raise ImpossibleObservationError(lo + int(impossible[0]) + 1)
    path = np.empty(T, dtype=np.int64)
    path[T - 1] = int(np.argmax(delta))
    log_joint = float(delta[path[T - 1]])
    for t in range(T - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return StatePath(path), log_joint


def baum_welch_step(
    model: DiscreteHMM,
    obs: ObservationSeries,
    forward: CategoricalPosteriorSequence | None = None,
) -> BaumWelchStep:
    """One EM re-estimation step.

    E-step runs the forward and backward passes; M-step sets the initial
    law to smoothed row 1, transition rows to normalized expected
    transition counts, and emission rows to normalized expected symbol
    counts.  A state with zero expected occupancy keeps its input row.

    forward, when given, must be forward_filter(model, obs); it is used
    instead of running the forward pass again, and the result is the same.
    A pass over a different number of steps raises ValueError.
    """
    y = _check_symbolic(model, obs)
    if forward is None:
        forward = forward_filter(model, obs)
    smooth = backward_smooth(model, obs, forward)
    K, M = model.K, model.M

    new_initial = smooth.smoothed[0].copy()
    new_initial /= new_initial.sum()

    trans_counts = smooth.pairwise.sum(axis=0) if len(y) > 1 else np.zeros((K, K))
    trans_denoms = trans_counts.sum(axis=1)
    new_transition = model.transition.copy()
    held_trans = []
    for i in range(K):
        if trans_denoms[i] > 0.0:
            new_transition[i] = trans_counts[i] / trans_denoms[i]
        else:
            held_trans.append(i)

    emit_counts = np.zeros((K, M))
    np.add.at(emit_counts.T, y, smooth.smoothed)
    emit_denoms = emit_counts.sum(axis=1)
    new_emission = model.emission.copy()
    held_emit = []
    for i in range(K):
        if emit_denoms[i] > 0.0:
            new_emission[i] = emit_counts[i] / emit_denoms[i]
        else:
            held_emit.append(i)

    return BaumWelchStep(
        model=DiscreteHMM(new_initial, new_transition, new_emission),
        log_likelihood=forward.log_likelihood,
        held_transition_rows=tuple(held_trans),
        held_emission_rows=tuple(held_emit),
    )


def fit_em(
    model0: DiscreteHMM,
    obs: ObservationSeries,
    tol: float = 1e-6,
    max_iter: int = 100,
    *,
    _with_forward: bool = False,
) -> tuple[DiscreteHMM, list[float]]:
    """Iterate baum_welch_step until the log-likelihood gain drops below tol.

    The trace starts with the initial model's log-likelihood and gains one
    entry per step whose improvement reached tol, so a start at a fixed
    point yields a single-entry trace.  The trace is nondecreasing within
    1e-9 per step.  max_iter bounds the number of steps taken.  Each model
    is filtered once: its forward pass gives both the tolerance test and
    the next step's E-step, so k steps take k + 1 forward passes.

    _with_forward, for the command line, appends the fitted model's forward
    pass to the returned tuple, so that it need not be run again.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    current = model0
    forward = forward_filter(current, obs)
    trace = [forward.log_likelihood]
    for _ in range(max_iter):
        current = baum_welch_step(current, obs, forward).model
        forward = forward_filter(current, obs)
        if forward.log_likelihood - trace[-1] < tol:
            break
        trace.append(forward.log_likelihood)
    if _with_forward:
        return current, trace, forward
    return current, trace


def exact_posterior_enumeration(
    model: DiscreteHMM, obs: ObservationSeries
) -> EnumerationResult:
    """Brute-force posterior by enumerating all K**T hidden paths.

    Prefix weights are expanded one step at a time with the new state as
    the fastest-varying index, so flat prefix index i encodes the path as
    the base-K digits of i (most significant digit = x_1).  Serves as the
    oracle for the recursive algorithms; guarded to K**T <= 10**6.
    """
    require_valid(model)
    y = _check_symbolic(model, obs)
    T = y.shape[0]
    K = model.K
    if K**T > ENUMERATION_GUARD:
        raise EnumerationSizeError(
            f"K**T = {K}**{T} exceeds the enumeration guard of {ENUMERATION_GUARD}"
        )
    with np.errstate(divide="ignore"):
        log_init = np.log(model.initial)
        log_trans = np.log(model.transition)
        log_emit = np.log(model.emission)

    filtered = np.empty((T, K))
    logw = log_init + log_emit[:, y[0]]  # flat over paths, last axis = newest state
    last = np.arange(K)

    def _filtered_row(logw_flat: np.ndarray, last_states: np.ndarray, t: int) -> np.ndarray:
        m = np.max(logw_flat)
        if m == -np.inf:
            raise ImpossibleObservationError(t + 1)
        w = np.exp(logw_flat - m)
        row = np.bincount(last_states, weights=w, minlength=K)
        return row / row.sum()

    filtered[0] = _filtered_row(logw, last, 0)
    for t in range(1, T):
        logw = (logw[:, None] + log_trans[last] + log_emit[:, y[t]][None, :]).ravel()
        last = np.tile(np.arange(K), last.shape[0])
        filtered[t] = _filtered_row(logw, last, t)

    m = np.max(logw)
    shifted = np.exp(logw - m)
    total = shifted.sum()
    log_likelihood = float(m + np.log(total))
    post = (shifted / total).reshape((K,) * T)

    smoothed = np.empty((T, K))
    for t in range(T):
        axes = tuple(a for a in range(T) if a != t)
        smoothed[t] = post.sum(axis=axes) if axes else post
    pairwise = np.empty((max(T - 1, 0), K, K))
    for t in range(T - 1):
        axes = tuple(a for a in range(T) if a not in (t, t + 1))
        pairwise[t] = post.sum(axis=axes) if axes else post

    best = np.flatnonzero(logw == m)
    candidates = [np.unravel_index(i, (K,) * T) for i in best]
    map_path = np.array(min(candidates, key=lambda p: tuple(reversed(p))), dtype=np.int64)
    return EnumerationResult(
        filtered=filtered,
        smoothed=smoothed,
        pairwise=pairwise,
        log_likelihood=log_likelihood,
        map_path=map_path,
        map_log_joint=float(m),
    )
