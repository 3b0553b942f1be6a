"""Exact inference for linear-Gaussian state-space models.

The filter uses the Joseph-form covariance update, which preserves symmetry
and positive semidefiniteness over long horizons, and accumulates the
log-likelihood by the prediction-error decomposition: each observation
contributes log N(y_t; C m_pred, C P_pred C^T + R).

Each pass chooses its path once, from the model's shape, and falls back
one block at a time on a per-step numpy kernel: _moment_steps for the
filter's moment recursion, _backward for the smoother's.

A scalar model (d_x = d_y = 1) runs both recursions on Python floats, since
a numpy call on 1x1 arrays costs far more than its arithmetic.  They keep
the kernels' operation order; a 1x1 matmul product is 0 + a*b and a 1x1
solve is a division, so the outputs equal the kernels' byte for byte.  A
block with an exactly zero innovation variance or a value that is not
finite runs again on the kernel from the moments it began with, so its
errors and warnings are the kernel's.

Any other model runs the steady-state path.  Every model is time-invariant,
so the covariance recursion never reads the data and contracts to its
Riccati fixed point.  The filter runs the kernel until the predicted
covariance settles (max|P_t - P_{t-1}| <= 1e-15 max|P_{t-1}|,
_FREEZE_RTOL) and freezes it there: later steps copy that step's
covariances, the guard and Cholesky factor of the frozen innovation
covariance are taken once, and only the mean recursion runs, as one affine
recursion with the frozen gain.  The smoother does the same over the
frozen steps: one backward gain, and a smoothed covariance that runs
backward from T - 1 until it settles by the same rule.  These outputs
differ from the kernels' in the last bits (tested within 1e-12 of each
array's maximum), and the cost of a series depends on how fast its model's
covariance settles.  Where it never settles or the series ends first, the
kernel is all that runs; the smoother runs its kernel where the frozen
predicted covariance has no Cholesky factor (the pseudo-inverse case) and
on sequences that are not float64.

Only the moment recursions run step by step.  What no later step reads
(the CONDITION_GUARD eigenvalue check on every innovation covariance, its
Cholesky factor, the log-determinant and the solved innovation) is
computed afterwards in batched calls over blocks of steps, or in closed
form when the observation is scalar; the smoother likewise computes its
backward gains in blocks before running its recursion through them.  A
batched LAPACK or matmul call works matrix by matrix, with the strides of
the per-step call, and the closed forms repeat what LAPACK computes on a
1x1 matrix, so these outputs equal the per-step recursion byte for byte.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ModelValidationError, NumericalDegeneracyError
from .models import SYMMETRY_TOL, LinearGaussianModel, ObservationSeries, require_valid
from .numerics import symmetrize

__all__ = [
    "GaussianPosteriorSequence",
    "GaussianSmoothedSequence",
    "kalman_filter",
    "rts_smoother",
    "kalman_predict",
]

_LOG_2PI = float(np.log(2.0 * np.pi))
CONDITION_GUARD = 1e12
# Steps per batched call in the filter's checks and likelihood terms and in
# the smoother's gains; bounds the memory the batches take.
_BLOCK = 1024
# The freeze rule: a covariance recursion has settled at a step where
# max|P_t - P_{t-1}| <= _FREEZE_RTOL * max|P_{t-1}|.
_FREEZE_RTOL = 1e-15
# Steps the filter loop runs between checks of the freeze rule.
_FREEZE_CHECK = 16


@dataclass(frozen=True)
class GaussianPosteriorSequence:
    """Filtering output: P(x_t | y_1..y_t) = N(filtered_means[t],
    filtered_covs[t]); predicted_* hold the one-step-ahead moments
    P(x_t | y_1..y_{t-1}) used by the smoother and the likelihood.

    log_increments[t] is log N(y_t; C m_pred, C P_pred C^T + R), and the
    log-likelihood is their sequential sum.
    """

    filtered_means: np.ndarray
    filtered_covs: np.ndarray
    predicted_means: np.ndarray
    predicted_covs: np.ndarray
    log_increments: np.ndarray
    log_likelihood: float


@dataclass(frozen=True)
class GaussianSmoothedSequence:
    """Smoothing output: P(x_t | y_1..y_T) = N(smoothed_means[t],
    smoothed_covs[t]).  pinv_steps lists the 1-based times where a singular
    predicted covariance forced a pseudo-inverse in the backward gain."""

    smoothed_means: np.ndarray
    smoothed_covs: np.ndarray
    pinv_steps: tuple[int, ...] = ()


def _check_real(model: LinearGaussianModel, obs: ObservationSeries) -> np.ndarray:
    if obs.kind != "real":
        raise ModelValidationError(
            "linear-Gaussian inference requires real-valued observations"
        )
    y = obs.values
    if y.shape[0] < 1:
        raise ValueError("observation series must have at least one entry")
    if y.shape[1] != model.d_y:
        raise ModelValidationError(
            f"observations have dimension {y.shape[1]}, model expects {model.d_y}"
        )
    return y


def _guard(innovation_covs: np.ndarray, offset: int) -> None:
    """Raise NumericalDegeneracyError at the first innovation covariance that
    is not positive definite or whose condition number exceeds
    CONDITION_GUARD; offset is the 0-based step of innovation_covs[0]."""
    eigs = np.linalg.eigvalsh(innovation_covs)
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = (eigs[:, 0] <= 0.0) | (eigs[:, -1] / eigs[:, 0] > CONDITION_GUARD)
    if bad.any():
        raise NumericalDegeneracyError(offset + int(np.argmax(bad)) + 1)


def _log_increments(innovation_covs: np.ndarray, innovations: np.ndarray) -> np.ndarray:
    """-0.5 (d_y log 2 pi + log det S + z^T z) per step, with S = L L^T and
    L z = innovation, after the guard check on every S.

    With d_y = 1 the factor is sqrt(s) and the solve a division, as LAPACK
    computes them on 1x1 matrices, so the closed form gives the same bytes;
    its guard reduces to s > 0, since the condition number of a 1x1 matrix
    is 1 (NaN and inf pass, as they pass the eigenvalue check).
    """
    T, d_y = innovations.shape
    if d_y == 1:
        s = innovation_covs[:, 0, 0]
        bad = np.flatnonzero(s <= 0.0)
        if bad.size:
            raise NumericalDegeneracyError(int(bad[0]) + 1)
        root = np.sqrt(s)
        z = innovations[:, 0] / root
        return -0.5 * (_LOG_2PI + 2.0 * np.log(root) + z * z)
    out = np.empty(T)
    for lo in range(0, T, _BLOCK):
        hi = min(lo + _BLOCK, T)
        s = innovation_covs[lo:hi]
        _guard(s, lo)
        chol = np.linalg.cholesky(s)
        log_det = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
        z = np.linalg.solve(chol, innovations[lo:hi, :, None])
        out[lo:hi] = -0.5 * (
            d_y * _LOG_2PI + log_det + (z.transpose(0, 2, 1) @ z)[:, 0, 0]
        )
    return out


def _steady_log_increments(s: np.ndarray, innovations: np.ndarray) -> np.ndarray:
    """_log_increments for steps that all share the innovation covariance
    s, which passed the guard at the step they copy: one Cholesky factor
    and one triangular solve for all of them."""
    chol = np.linalg.cholesky(s)
    log_det = 2.0 * np.sum(np.log(np.diagonal(chol)))
    z = np.linalg.solve(chol, innovations.T)
    return -0.5 * (len(s) * _LOG_2PI + log_det + np.einsum("it,it->t", z, z))


def _moment_arrays(model: LinearGaussianModel, T: int) -> tuple[np.ndarray, ...]:
    """Empty arrays for T steps of the moment recursion: filtered,
    predicted, innovation and innovation-covariance arrays, in that order
    (means before covs)."""
    d_x, d_y = model.d_x, model.d_y
    return (
        np.empty((T, d_x)), np.empty((T, d_x, d_x)), np.empty((T, d_x)),
        np.empty((T, d_x, d_x)), np.empty((T, d_y)), np.empty((T, d_y, d_y)),
    )


def _moment_steps(model, y, arrays, lo, hi, mean_pred, cov_pred):
    """Steps lo..hi-1 of the predict/update moment recursion, one numpy
    step at a time, from the predicted moments of step lo, written into
    the arrays of _moment_arrays; returns the predicted moments of step hi.
    The scalar and steady-state paths fall back on it."""
    A, C, Q, R = model.A, model.C, model.Q, model.R
    eye = np.eye(model.d_x)
    (
        filtered_means, filtered_covs, predicted_means, predicted_covs,
        innovations, innovation_covs,
    ) = arrays
    for t in range(lo, hi):
        predicted_means[t] = mean_pred
        predicted_covs[t] = cov_pred

        innovation = y[t] - C @ mean_pred
        innovations[t] = innovation
        cross = C @ cov_pred
        s = symmetrize(cross @ C.T + R)
        innovation_covs[t] = s
        try:
            gain = np.linalg.solve(s, cross).T
        except np.linalg.LinAlgError:
            # A singular S fails the guard, which takes precedence.
            _guard(innovation_covs[: t + 1], 0)
            raise
        mean_filt = mean_pred + gain @ innovation
        j = eye - gain @ C
        cov_filt = symmetrize(j @ cov_pred @ j.T + gain @ R @ gain.T)
        filtered_means[t] = mean_filt
        filtered_covs[t] = cov_filt

        mean_pred = A @ mean_filt
        cov_pred = symmetrize(A @ cov_filt @ A.T + Q)
    return mean_pred, cov_pred


def _affine_recursion(matrix, first, offsets, out) -> None:
    """out[0] = first and out[t + 1] = matrix @ out[t] + offsets[t], in
    blocks of L ~ sqrt(T) steps.

    Row j of block k is matrix**j @ out[kL] plus the block's own recursion
    from zero, which runs for all blocks at once, a batched product per
    step; the block starts then follow one another through matrix**L.
    That is about 3 sqrt(T) numpy calls where the plain loop makes 2 T.
    """
    n, d = len(offsets), len(first)
    size = math.isqrt(n) + 1
    blocks = n // size + 1
    padded = np.zeros((blocks * size, d))
    padded[:n] = offsets
    padded = padded.reshape(blocks, size, d)
    within = np.zeros((blocks, size + 1, d))
    powers = np.empty((size + 1, d, d))
    powers[0] = np.eye(d)
    for j in range(size):
        within[:, j + 1] = within[:, j] @ matrix.T + padded[:, j]
        powers[j + 1] = matrix @ powers[j]
    starts = np.empty((blocks, d))
    starts[0] = first
    for k in range(blocks - 1):
        starts[k + 1] = powers[size] @ starts[k] + within[k, size]
    rows = np.einsum("jab,kb->kja", powers[:size], starts) + within[:, :size]
    out[0] = first
    out[1:] = rows.reshape(-1, d)[1 : n + 1]


def _settled(prev: np.ndarray, new: np.ndarray) -> np.ndarray:
    """The freeze rule, per matrix of a pair of stacks (or of one pair):
    max|new - prev| <= _FREEZE_RTOL * max|prev|.  NaN never settles."""
    axes = (-2, -1)
    return np.abs(new - prev).max(axis=axes) <= _FREEZE_RTOL * np.abs(prev).max(axis=axes)


def _steady_moments(
    model: LinearGaussianModel, y: np.ndarray
) -> tuple[tuple[np.ndarray, ...], int]:
    """_moment_steps until the predicted covariance settles, then the mean
    recursion alone.

    The kernel runs in blocks of _FREEZE_CHECK steps and checks the freeze
    rule on each block's predicted covariances.  At the first step f whose
    P_pred settled against step f - 1, the covariances, innovation
    covariance and gain of step f are frozen: later steps copy them, and
    their predicted means follow m_{t+1} = A (I - G C) m_t + A G y_t, with
    the innovations and filtered means formed batched afterwards.  Returns
    the moment arrays and the first step that copies step f, or T where
    the covariance never settled (the kernel's arrays, unchanged).
    """
    T = y.shape[0]
    A, C = model.A, model.C
    arrays = _moment_arrays(model, T)
    (
        filtered_means, filtered_covs, predicted_means, predicted_covs,
        innovations, innovation_covs,
    ) = arrays
    mean_pred, cov_pred = model.mu0, symmetrize(model.Sigma0)
    frozen = T
    for lo in range(0, T, _FREEZE_CHECK):
        hi = min(lo + _FREEZE_CHECK, T)
        mean_pred, cov_pred = _moment_steps(model, y, arrays, lo, hi, mean_pred, cov_pred)
        first = max(lo - 1, 0)
        settled = np.flatnonzero(
            _settled(predicted_covs[first : hi - 1], predicted_covs[first + 1 : hi])
        )
        if settled.size:
            frozen = first + int(settled[0]) + 2
            break
    if frozen == T:
        return arrays, T
    f = frozen - 1
    predicted_covs[frozen:] = predicted_covs[f]
    filtered_covs[frozen:] = filtered_covs[f]
    innovation_covs[frozen:] = innovation_covs[f]
    gain = np.linalg.solve(innovation_covs[f], C @ predicted_covs[f]).T
    transition = A @ (np.eye(model.d_x) - gain @ C)
    # The observation's share of the next predicted mean, A G y_t.
    drive = y[frozen:-1] @ (A @ gain).T
    means = predicted_means[frozen:]
    _affine_recursion(transition, A @ filtered_means[f], drive, means)
    innovations[frozen:] = y[frozen:] - means @ C.T
    filtered_means[frozen:] = means + innovations[frozen:] @ gain.T
    return arrays, frozen


def _scalar_moments(model: LinearGaussianModel, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """_moment_steps for d_x = d_y = 1 on Python floats, operation for
    operation, in blocks of _BLOCK steps.

    A 1x1 product comes back from matmul as 0 + a*b, so each product adds
    0.0 (which turns -0.0 into +0.0), and a 1x1 solve is b / s.  A block
    with an exactly zero innovation variance or a value that is not finite
    runs again on _moment_steps from the moments it began with, which
    reports it with the kernel's errors and warnings.
    """
    T = y.shape[0]
    a, c, q, r = (float(m[0, 0]) for m in (model.A, model.C, model.Q, model.R))
    arrays = _moment_arrays(model, T)
    fm, fc, pm, pc, inn, ic = (memoryview(x.reshape(T)) for x in arrays)
    values = memoryview(np.ascontiguousarray(y[:, 0]))
    m = float(model.mu0[0])
    p = float(model.Sigma0[0, 0])
    p = 0.5 * (p + p)
    for lo in range(0, T, _BLOCK):
        hi = min(lo + _BLOCK, T)
        m0, p0 = m, p
        for t, yt in enumerate(values[lo:hi], lo):
            pm[t] = m
            pc[t] = p
            e = yt - (c * m + 0.0)
            cross = c * p + 0.0
            s = cross * c + 0.0 + r
            s = 0.5 * (s + s)
            inn[t] = e
            ic[t] = s
            if s == 0.0:
                break
            g = cross / s
            mf = m + (g * e + 0.0)
            j = 1.0 - (g * c + 0.0)
            pf = ((j * p + 0.0) * j + 0.0) + ((g * r + 0.0) * g + 0.0)
            pf = 0.5 * (pf + pf)
            fm[t] = mf
            fc[t] = pf
            m = a * mf + 0.0
            p = (a * pf + 0.0) * a + 0.0 + q
            p = 0.5 * (p + p)
        else:
            # No zero innovation variance: keep the block if it is finite.
            finite = math.isfinite(m) and math.isfinite(p)
            if finite and all(np.isfinite(x[lo:hi]).all() for x in arrays):
                continue
        mean, cov = _moment_steps(model, y, arrays, lo, hi, np.array([m0]), np.array([[p0]]))
        m, p = float(mean[0]), float(cov[0, 0])
    return arrays


def kalman_filter(
    model: LinearGaussianModel, obs: ObservationSeries
) -> GaussianPosteriorSequence:
    """Standard predict/update recursion with Joseph-form updates.

    Raises NumericalDegeneracyError at the first step whose innovation
    covariance fails the CONDITION_GUARD check.
    """
    require_valid(model)
    y = _check_real(model, obs)
    T = y.shape[0]
    if model.d_x == model.d_y == 1:
        moments, frozen = _scalar_moments(model, y), T
    else:
        moments, frozen = _steady_moments(model, y)
    (
        filtered_means, filtered_covs, predicted_means, predicted_covs,
        innovations, innovation_covs,
    ) = moments
    log_increments = _log_increments(innovation_covs[:frozen], innovations[:frozen])
    if frozen < T:
        log_increments = np.concatenate([
            log_increments,
            _steady_log_increments(innovation_covs[frozen], innovations[frozen:]),
        ])
    # Sequential addition, as a per-step accumulation would give.
    log_likelihood = 0.0
    for increment in log_increments.tolist():
        log_likelihood += increment
    return GaussianPosteriorSequence(
        filtered_means=filtered_means,
        filtered_covs=filtered_covs,
        predicted_means=predicted_means,
        predicted_covs=predicted_covs,
        log_increments=log_increments,
        log_likelihood=log_likelihood,
    )


def _backward_gains(
    A: np.ndarray, filtered_covs: np.ndarray, predicted_next: np.ndarray
) -> tuple[np.ndarray | list[np.ndarray], list[int]]:
    """Smoother gains P_filt[t] A^T P_pred[t+1]^-1 for a block of steps, and
    the positions in the block where P_pred[t+1] is singular.

    Where P_pred[t+1] has a Cholesky factor the gain is the transpose view
    of the solved system, as in the per-step form; at a singular position
    it goes through the pseudo-inverse.  A matrix-vector product rounds by
    the layout of its matrix, so a block with singular positions comes back
    as a list in which each pseudo-inverse gain keeps its own layout.
    """
    cross = filtered_covs @ A.T
    singular = np.zeros(len(cross), dtype=bool)
    try:
        chol = np.linalg.cholesky(predicted_next)
    except np.linalg.LinAlgError:
        chol = np.zeros_like(predicted_next)
        for i, p in enumerate(predicted_next):
            try:
                chol[i] = np.linalg.cholesky(p)
            except np.linalg.LinAlgError:
                singular[i] = True
    # Solve P_pred[t+1] G = (P_filt[t] A^T)^T through the factor.
    ok = ~singular
    lower = chol[ok]
    solved = np.empty_like(cross)
    solved[ok] = np.linalg.solve(
        lower.transpose(0, 2, 1),
        np.linalg.solve(lower, cross[ok].transpose(0, 2, 1)),
    )
    gains = solved.transpose(0, 2, 1)
    positions = np.flatnonzero(singular).tolist()
    if positions:
        gains = list(gains)
        for i in positions:
            gains[i] = cross[i] @ np.linalg.pinv(predicted_next[i], rcond=1e-12)
    return gains, positions


def _backward(forward, gains, smoothed_means, smoothed_covs, lo, hi) -> None:
    """The RTS mean and covariance recursion from step hi - 1 down to lo,
    through the gains of _backward_gains for that block."""
    filtered_means, filtered_covs = forward.filtered_means, forward.filtered_covs
    predicted_means, predicted_covs = forward.predicted_means, forward.predicted_covs
    for t in range(hi - 1, lo - 1, -1):
        gain = gains[t - lo]
        smoothed_means[t] = filtered_means[t] + gain @ (
            smoothed_means[t + 1] - predicted_means[t + 1]
        )
        smoothed_covs[t] = symmetrize(
            filtered_covs[t]
            + gain @ (smoothed_covs[t + 1] - predicted_covs[t + 1]) @ gain.T
        )


def _scalar_backward(forward, gains, smoothed_means, smoothed_covs, lo, hi) -> bool:
    """_backward for d_x = 1 on Python floats, operation for operation, as
    _scalar_moments does the filter.  Returns False when a value is not
    finite; _backward then runs the block again."""
    gains = np.asarray(gains)[:, 0, 0].tolist()
    filt_m = forward.filtered_means[lo:hi, 0].tolist()
    filt_c = forward.filtered_covs[lo:hi, 0, 0].tolist()
    pred_m = forward.predicted_means[lo + 1 : hi + 1, 0].tolist()
    pred_c = forward.predicted_covs[lo + 1 : hi + 1, 0, 0].tolist()
    means = array("d", bytes(8 * (hi - lo)))
    covs = array("d", bytes(8 * (hi - lo)))
    m = float(smoothed_means[hi, 0])
    p = float(smoothed_covs[hi, 0, 0])
    for i in range(hi - lo - 1, -1, -1):
        g = gains[i]
        m = filt_m[i] + (g * (m - pred_m[i]) + 0.0)
        p = filt_c[i] + ((g * (p - pred_c[i]) + 0.0) * g + 0.0)
        p = 0.5 * (p + p)
        means[i] = m
        covs[i] = p
    means, covs = np.frombuffer(means), np.frombuffer(covs)
    if not (np.isfinite(means).all() and np.isfinite(covs).all()):
        return False
    smoothed_means[lo:hi, 0] = means
    smoothed_covs[lo:hi, 0, 0] = covs
    return True


def _steady_backward(model, forward, smoothed_means, smoothed_covs) -> int:
    """The RTS recursion over the steps whose gain is constant; returns the
    first step it did not smooth.

    Those are the steps from the start of the suffix where the filtered
    and predicted covariances repeat their last values bit for bit, as a
    frozen filter leaves them, up to T - 2.  The gain is solved once; the
    smoothed covariance runs backward from T - 1 until it settles by the
    freeze rule and is copied from there on down; the means follow
    m_t = J m_{t+1} + (filtered m_t - J predicted m_{t+1}).  Where there is
    no such suffix, or its predicted covariance has no Cholesky factor
    (the pseudo-inverse case), nothing is smoothed and T - 1 comes back.
    """
    filtered_covs, predicted_covs = forward.filtered_covs, forward.predicted_covs
    T = len(filtered_covs)
    axes = (1, 2)
    repeated = (filtered_covs == filtered_covs[-1]).all(axis=axes) & (
        predicted_covs == predicted_covs[-1]
    ).all(axis=axes)
    changed = np.flatnonzero(~repeated)
    start = int(changed[-1]) + 1 if changed.size else 0
    if start >= T - 1:
        return T - 1
    gains, singular = _backward_gains(
        model.A, filtered_covs[start : start + 1], predicted_covs[start + 1 : start + 2]
    )
    if singular:
        return T - 1
    gain = gains[0]
    cov_filt, cov_pred = filtered_covs[-1], predicted_covs[-1]
    cov = smoothed_covs[T - 1]
    for t in range(T - 2, start - 1, -1):
        new = symmetrize(cov_filt + gain @ (cov - cov_pred) @ gain.T)
        smoothed_covs[t] = new
        if _settled(cov, new):
            smoothed_covs[start:t] = new
            break
        cov = new
    offsets = forward.filtered_means[start:-1] - forward.predicted_means[start + 1 :] @ gain.T
    # Backward in time: the reversed views run the recursion forward.
    _affine_recursion(gain, smoothed_means[T - 1], offsets[::-1], smoothed_means[start:][::-1])
    return start


def rts_smoother(
    model: LinearGaussianModel, forward: GaussianPosteriorSequence
) -> GaussianSmoothedSequence:
    """Backward Rauch-Tung-Striebel pass over a completed filter run.

    The backward gain solves against the predicted covariance at t+1; when
    that matrix is singular (possible with Q = 0) a pseudo-inverse with a
    1e-12 cutoff is used and the step is recorded in pinv_steps.
    """
    require_valid(model)
    T = forward.filtered_means.shape[0]
    smoothed_means = np.empty_like(forward.filtered_means)
    smoothed_covs = np.empty_like(forward.filtered_covs)
    smoothed_means[T - 1] = forward.filtered_means[T - 1]
    smoothed_covs[T - 1] = forward.filtered_covs[T - 1]
    # The Python-float and steady-state paths compute in float64; a sequence
    # of another dtype reads each smoothed step back rounded, as only the
    # numpy kernel does.
    float64 = smoothed_means.dtype == smoothed_covs.dtype == float
    scalar = float64 and model.d_x == 1
    start = (
        _steady_backward(model, forward, smoothed_means, smoothed_covs)
        if float64 and model.d_x > 1
        else T - 1
    )
    pinv_steps: list[int] = []
    for hi in range(start, 0, -_BLOCK):
        lo = max(hi - _BLOCK, 0)
        gains, singular = _backward_gains(
            model.A, forward.filtered_covs[lo:hi], forward.predicted_covs[lo + 1 : hi + 1]
        )
        pinv_steps[:0] = [i + lo + 2 for i in singular]
        block = (forward, gains, smoothed_means, smoothed_covs, lo, hi)
        if not (scalar and _scalar_backward(*block)):
            _backward(*block)
    return GaussianSmoothedSequence(
        smoothed_means=smoothed_means,
        smoothed_covs=smoothed_covs,
        pinv_steps=tuple(pinv_steps),
    )


def kalman_predict(
    model: LinearGaussianModel, mean, cov, k: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Propagate Gaussian moments k steps ahead with no data.

    Output j (1-based) has mean A**j m and covariance built by iterating
    P <- A P A^T + Q.
    """
    require_valid(model)
    if k < 1:
        raise ValueError("k must be at least 1")
    m = np.asarray(mean, dtype=float)
    p = np.asarray(cov, dtype=float)
    if m.shape != (model.d_x,):
        raise ModelValidationError(f"mean must have length {model.d_x}")
    if p.shape != (model.d_x, model.d_x):
        raise ModelValidationError(f"cov must be {model.d_x}x{model.d_x}")
    if np.max(np.abs(p - p.T), initial=0.0) > SYMMETRY_TOL:
        raise ModelValidationError("cov must be symmetric")
    out = []
    for _ in range(k):
        m = model.A @ m
        p = symmetrize(model.A @ p @ model.A.T + model.Q)
        out.append((m.copy(), p.copy()))
    return out
