"""Reference values the benchmark computes with its own code.

Nothing here calls ssmkit, so a defect in the library cannot hide in its
own reference.  HMM likelihoods come from a log-domain forward recursion,
linear-Gaussian likelihoods and conditional means from the joint Gaussian
law of a prefix short enough to form densely.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy.special import logsumexp

_LOG_2PI = float(np.log(2.0 * np.pi))


def hmm_loglik(initial, transition, emission, y) -> float:
    """log p(y_1..y_T) by the unscaled forward recursion in log space."""
    with np.errstate(divide="ignore"):
        log_a = np.log(np.asarray(transition, dtype=float))
        log_b = np.log(np.asarray(emission, dtype=float)).T  # (M, K)
        alpha = np.log(np.asarray(initial, dtype=float)) + log_b[y[0]]
    for t in range(1, len(y)):
        alpha = logsumexp(alpha[:, None] + log_a, axis=0) + log_b[y[t]]
    return float(logsumexp(alpha))


def hmm_log_joint(initial, transition, emission, path, y) -> float:
    """log p(x_1..x_T, y_1..y_T) for one state path."""
    path = np.asarray(path)
    with np.errstate(divide="ignore"):
        return float(
            np.log(initial[path[0]])
            + np.log(transition[path[:-1], path[1:]]).sum()
            + np.log(emission[path, y]).sum()
        )


def _state_moments(A, Q, mu0, sigma0, P):
    """Means and cross-covariances of x_1..x_P as dense arrays."""
    d = A.shape[0]
    means = np.empty((P, d))
    marg = np.empty((P, d, d))
    powers = np.empty((P, d, d))
    means[0], marg[0], powers[0] = mu0, sigma0, np.eye(d)
    for t in range(1, P):
        means[t] = A @ means[t - 1]
        marg[t] = A @ marg[t - 1] @ A.T + Q
        powers[t] = A @ powers[t - 1]
    lower = np.zeros((P * d, P * d))
    for t in range(P):
        # Cov(x_s, x_t) = A^(s-t) Var(x_t) for s >= t.
        lower[t * d :, t * d : (t + 1) * d] = (powers[: P - t] @ marg[t]).reshape(-1, d)
    cov = lower + lower.T
    for t in range(P):
        cov[t * d : (t + 1) * d, t * d : (t + 1) * d] -= marg[t]
    return means, cov


def lg_prefix_reference(A, C, Q, R, mu0, sigma0, y_prefix):
    """Joint-Gaussian log p(y_1..y_P) and E[x_P | y_1..y_P]."""
    A, C, Q, R = (np.asarray(m, dtype=float) for m in (A, C, Q, R))
    y_prefix = np.asarray(y_prefix, dtype=float)
    P, d_y = y_prefix.shape
    d_x = A.shape[0]
    means, cov_x = _state_moments(A, Q, np.asarray(mu0, float), np.asarray(sigma0, float), P)
    big_c = np.kron(np.eye(P), C)
    cov_y = big_c @ cov_x @ big_c.T + np.kron(np.eye(P), R)
    resid = y_prefix.ravel() - (means @ C.T).ravel()
    chol = np.linalg.cholesky(cov_y)
    z = np.linalg.solve(chol, resid)
    loglik = -0.5 * (P * d_y * _LOG_2PI + 2.0 * np.log(np.diag(chol)).sum() + z @ z)
    cross = cov_x[(P - 1) * d_x :, :] @ big_c.T  # Cov(x_P, y_1..y_P)
    weights = np.linalg.solve(chol.T, z)
    return float(loglik), means[P - 1] + cross @ weights


def lg_increments(C, R, y, predicted_means, predicted_covs) -> np.ndarray:
    """Per-step log N(y_t; C m_t, C P_t C^T + R) from a filter's predicted moments."""
    C, R = np.asarray(C, float), np.asarray(R, float)
    d_y = C.shape[0]
    s = C @ predicted_covs @ C.T + R
    s = 0.5 * (s + np.swapaxes(s, 1, 2))
    chol = np.linalg.cholesky(s)
    resid = (y - predicted_means @ C.T)[..., None]
    z = np.linalg.solve(chol, resid)[..., 0]
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    return -0.5 * (d_y * _LOG_2PI + logdet + (z * z).sum(axis=1))


def lg_predict(A, Q, mean, cov, k):
    """Moments k steps ahead with no data, by plain iteration."""
    out = []
    for _ in range(k):
        mean = A @ mean
        cov = A @ cov @ A.T + Q
        out.append((mean, cov))
    return out


def read_csv(path: str) -> np.ndarray:
    """Body of a CSV file the CLI wrote, below its header, as floats."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(cell) for cell in row] for row in rows[1:] if row])


def write_series_csv(path: str, values: np.ndarray, symbolic: bool) -> None:
    """Series file in the documented t,y / t,y1..yd format."""
    if symbolic:
        lines = ["t,y"] + [f"{t + 1},{int(v)}" for t, v in enumerate(values)]
    else:
        d = values.shape[1]
        lines = ["t," + ",".join(f"y{j}" for j in range(1, d + 1))]
        lines += [
            f"{t + 1}," + ",".join(f"{float(v):.17g}" for v in row)
            for t, row in enumerate(values)
        ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
