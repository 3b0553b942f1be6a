"""Exact inference for linear-Gaussian state-space models.

The filter uses the Joseph-form covariance update, which preserves symmetry
and positive semidefiniteness over long horizons, and accumulates the
log-likelihood by the prediction-error decomposition: each observation
contributes log N(y_t; C m_pred, C P_pred C^T + R).

Only the moment recursions run step by step.  The filter loop carries the
predicted and filtered moments through the gain; what no later step reads
(the CONDITION_GUARD eigenvalue check on every innovation covariance, its
Cholesky factor, the log-determinant and the solved innovation) is computed
afterwards in batched calls over blocks of steps.  The RTS smoother
likewise computes its backward gains in blocks before running the mean and
covariance recursion through them.  A batched LAPACK or matmul call works
matrix by matrix, with the strides of the per-step call, so every output
equals the per-step recursion byte for byte, and the cost of a step does
not depend on the model's values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelValidationError, NumericalDegeneracyError
from .models import LinearGaussianModel, ObservationSeries, require_valid
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
    L z = innovation, after the guard check on every S."""
    T, d_y = innovations.shape
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
) -> tuple[list[np.ndarray], np.ndarray]:
    """Smoother gains P_filt[t] A^T P_pred[t+1]^-1 for a block of steps, and
    which of them needed the pseudo-inverse because P_pred[t+1] is singular."""
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
    gains = list(solved.transpose(0, 2, 1))
    for i in np.flatnonzero(singular).tolist():
        gains[i] = cross[i] @ np.linalg.pinv(predicted_next[i], rcond=1e-12)
    return gains, singular


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
    A = model.A
    filtered_means, filtered_covs = forward.filtered_means, forward.filtered_covs
    predicted_means, predicted_covs = forward.predicted_means, forward.predicted_covs
    smoothed_means = np.empty_like(filtered_means)
    smoothed_covs = np.empty_like(filtered_covs)
    smoothed_means[T - 1] = filtered_means[T - 1]
    smoothed_covs[T - 1] = filtered_covs[T - 1]
    pinv_steps: list[int] = []
    for hi in range(T - 1, 0, -_BLOCK):
        lo = max(hi - _BLOCK, 0)
        gains, singular = _backward_gains(
            A, filtered_covs[lo:hi], predicted_covs[lo + 1 : hi + 1]
        )
        pinv_steps[:0] = (np.flatnonzero(singular) + lo + 2).tolist()
        for t in range(hi - 1, lo - 1, -1):
            gain = gains[t - lo]
            smoothed_means[t] = filtered_means[t] + gain @ (
                smoothed_means[t + 1] - predicted_means[t + 1]
            )
            smoothed_covs[t] = symmetrize(
                filtered_covs[t]
                + gain @ (smoothed_covs[t + 1] - predicted_covs[t + 1]) @ gain.T
            )
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
    if np.max(np.abs(p - p.T), initial=0.0) > 1e-12:
        raise ModelValidationError("cov must be symmetric")
    out = []
    for _ in range(k):
        m = model.A @ m
        p = symmetrize(model.A @ p @ model.A.T + model.Q)
        out.append((m.copy(), p.copy()))
    return out
