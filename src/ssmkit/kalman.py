"""Exact inference for linear-Gaussian state-space models.

The filter uses the Joseph-form covariance update, which preserves symmetry
and positive semidefiniteness over long horizons, and accumulates the
log-likelihood by the prediction-error decomposition: each observation
contributes log N(y_t; C m_pred, C P_pred C^T + R).

Only the moment recursions run step by step.  The filter loop carries the
predicted and filtered moments through the gain; what no later step reads
(the CONDITION_GUARD eigenvalue check on every innovation covariance, its
Cholesky factor, the log-determinant and the solved innovation) is computed
afterwards in batched calls over blocks of steps, or in closed form when
the observation is scalar.  The RTS smoother likewise computes its
backward gains in blocks before running the mean and covariance recursion
through them.  A batched LAPACK or matmul call works matrix by matrix,
with the strides of the per-step call, and the closed forms repeat what
LAPACK computes on a 1x1 matrix, so every output equals the per-step
recursion byte for byte, and the cost of a step does not depend on the
model's values.

A scalar model (d_x = d_y = 1) runs the same filter and smoother
recursions on Python floats, since a numpy call on 1x1 arrays costs far
more than its arithmetic.  They keep the numpy loops' operation order; a
1x1 matmul product is 0 + a*b and a 1x1 solve is a division, so the outputs
equal the numpy loops byte for byte.  A series with an exactly zero
innovation variance or a value that is not finite goes through the numpy
loop instead, which reports it with its own errors and warnings.
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


def _moments(model: LinearGaussianModel, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """The predict/update moment recursion: filtered, predicted, innovation
    and innovation-covariance arrays, in that order (means before covs)."""
    T = y.shape[0]
    d_x, d_y = model.d_x, model.d_y
    A, C, Q, R = model.A, model.C, model.Q, model.R
    eye = np.eye(d_x)

    filtered_means = np.empty((T, d_x))
    filtered_covs = np.empty((T, d_x, d_x))
    predicted_means = np.empty((T, d_x))
    predicted_covs = np.empty((T, d_x, d_x))
    innovations = np.empty((T, d_y))
    innovation_covs = np.empty((T, d_y, d_y))

    mean_pred = model.mu0
    cov_pred = symmetrize(model.Sigma0)
    for t in range(T):
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
    return (
        filtered_means, filtered_covs, predicted_means, predicted_covs,
        innovations, innovation_covs,
    )


def _scalar_moments(
    model: LinearGaussianModel, y: np.ndarray
) -> tuple[np.ndarray, ...] | None:
    """_moments for d_x = d_y = 1 on Python floats, operation for operation.

    A 1x1 product comes back from matmul as 0 + a*b, so each product adds
    0.0 (which turns -0.0 into +0.0), and a 1x1 solve is b / s.  Returns
    None when an innovation variance is zero or a value is not finite; the
    numpy loop then runs the series with its own errors and warnings.
    """
    T = y.shape[0]
    a, c, q, r = (float(m[0, 0]) for m in (model.A, model.C, model.Q, model.R))
    arrays = (
        np.empty((T, 1)), np.empty((T, 1, 1)), np.empty((T, 1)), np.empty((T, 1, 1)),
        np.empty((T, 1)), np.empty((T, 1, 1)),
    )
    fm, fc, pm, pc, inn, ic = (memoryview(x.reshape(T)) for x in arrays)
    m = float(model.mu0[0])
    p = float(model.Sigma0[0, 0])
    p = 0.5 * (p + p)
    for t, yt in enumerate(memoryview(np.ascontiguousarray(y[:, 0]))):
        pm[t] = m
        pc[t] = p
        e = yt - (c * m + 0.0)
        cross = c * p + 0.0
        s = cross * c + 0.0 + r
        s = 0.5 * (s + s)
        inn[t] = e
        ic[t] = s
        if s == 0.0:
            return None
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
    finite = math.isfinite(m) and math.isfinite(p)
    return arrays if finite and all(np.isfinite(x).all() for x in arrays) else None


def kalman_filter(
    model: LinearGaussianModel, obs: ObservationSeries
) -> GaussianPosteriorSequence:
    """Standard predict/update recursion with Joseph-form updates.

    Raises NumericalDegeneracyError at the first step whose innovation
    covariance fails the CONDITION_GUARD check.
    """
    require_valid(model)
    y = _check_real(model, obs)
    moments = _scalar_moments(model, y) if model.d_x == model.d_y == 1 else None
    if moments is None:
        moments = _moments(model, y)
    (
        filtered_means, filtered_covs, predicted_means, predicted_covs,
        innovations, innovation_covs,
    ) = moments
    log_increments = _log_increments(innovation_covs, innovations)
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
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Smoother gains P_filt[t] A^T P_pred[t+1]^-1 for a block of steps.

    Returns the solved systems G, whose transposes are the gains where
    P_pred[t+1] has a Cholesky factor, and, by position in the block, the
    gains through the pseudo-inverse where P_pred[t+1] is singular.
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
    # Solve P_pred[t+1] G = (P_filt[t] A^T)^T through the factor; the gain
    # is the transpose view of G, as in the per-step form.
    ok = ~singular
    lower = chol[ok]
    solved = np.empty_like(cross)
    solved[ok] = np.linalg.solve(
        lower.transpose(0, 2, 1),
        np.linalg.solve(lower, cross[ok].transpose(0, 2, 1)),
    )
    pinv = {
        i: cross[i] @ np.linalg.pinv(predicted_next[i], rcond=1e-12)
        for i in np.flatnonzero(singular).tolist()
    }
    return solved, pinv


def _backward(forward, solved, pinv, smoothed_means, smoothed_covs, lo, hi) -> None:
    """The RTS mean and covariance recursion from step hi - 1 down to lo,
    through the gains of _backward_gains for that block."""
    filtered_means, filtered_covs = forward.filtered_means, forward.filtered_covs
    predicted_means, predicted_covs = forward.predicted_means, forward.predicted_covs
    gains = list(solved.transpose(0, 2, 1))
    for i, gain in pinv.items():
        gains[i] = gain
    for t in range(hi - 1, lo - 1, -1):
        gain = gains[t - lo]
        smoothed_means[t] = filtered_means[t] + gain @ (
            smoothed_means[t + 1] - predicted_means[t + 1]
        )
        smoothed_covs[t] = symmetrize(
            filtered_covs[t]
            + gain @ (smoothed_covs[t + 1] - predicted_covs[t + 1]) @ gain.T
        )


def _scalar_backward(
    forward, solved, pinv, smoothed_means, smoothed_covs, lo, hi
) -> bool:
    """_backward for d_x = 1 on Python floats, operation for operation, as
    _scalar_moments does the filter.  Returns False when a value is not
    finite; the numpy loop then runs the block again."""
    gains = solved[:, 0, 0]
    for i, gain in pinv.items():
        gains[i] = gain[0, 0]
    gains = gains.tolist()
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
    scalar = model.d_x == 1 and smoothed_means.dtype == smoothed_covs.dtype == float
    pinv_steps: list[int] = []
    for hi in range(T - 1, 0, -_BLOCK):
        lo = max(hi - _BLOCK, 0)
        solved, pinv = _backward_gains(
            model.A, forward.filtered_covs[lo:hi], forward.predicted_covs[lo + 1 : hi + 1]
        )
        pinv_steps[:0] = [i + lo + 2 for i in pinv]
        block = (forward, solved, pinv, smoothed_means, smoothed_covs, lo, hi)
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
