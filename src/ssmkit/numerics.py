"""Shared numerical primitives for log-domain and Gaussian computations."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateWeightsError, ModelValidationError

__all__ = [
    "log_sum_exp",
    "normalize_log_weights",
    "effective_sample_size",
    "psd_sampling_factor",
    "gaussian_logpdf",
    "symmetrize",
]

_LOG_2PI = float(np.log(2.0 * np.pi))


def log_sum_exp(values) -> float:
    """log(sum(exp(values))) via max-shift; never overflows for finite input.

    Returns -inf iff every entry is -inf.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("log_sum_exp of an empty sequence is undefined")
    m = np.maximum.reduce(v, axis=None)
    if not np.isfinite(m):
        if m == -np.inf:
            return -np.inf
        raise ValueError("log_sum_exp requires entries in [-inf, inf)")
    return float(m + np.log(np.add.reduce(np.exp(v - m), axis=None)))


def normalize_log_weights(log_weights) -> np.ndarray:
    """exp(logw - log_sum_exp(logw)); sums to 1 within 1e-12.

    Raises DegenerateWeightsError when all entries are -inf.
    """
    lw = np.asarray(log_weights, dtype=float)
    total = log_sum_exp(lw)
    if total == -np.inf:
        raise DegenerateWeightsError("cannot normalize: all log-weights are -inf")
    w = np.exp(lw - total)
    return w / w.sum()


def effective_sample_size(weights: np.ndarray) -> float:
    """1 / sum(w_i^2) for normalized weights; equals N when uniform."""
    w = np.asarray(weights, dtype=float)
    return float(1.0 / np.add.reduce(w * w, axis=None))


def _last_positive(p: np.ndarray) -> int:
    """Index of the last positive entry of a nonnegative vector."""
    last = p.shape[0] - 1
    return last if p[last] > 0.0 else int(np.flatnonzero(p)[-1])


def _capped_cdf(p: np.ndarray) -> np.ndarray:
    """Cumulative sums of a probability vector, 1.0 from its last positive
    entry onward.

    The entries sum to 1 only to rounding, so a uniform on [0, 1) can fall
    at or past their sum; searched against this CDF it then goes to the
    last positive entry, never to a zero one or past the end.
    """
    cdf = np.cumsum(p)
    cdf[_last_positive(p):] = 1.0
    return cdf


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """(M + M.T) / 2, forcing exact symmetry after accumulated roundoff."""
    return 0.5 * (mat + mat.T)


def psd_sampling_factor(mat: np.ndarray, name: str = "covariance") -> np.ndarray:
    """Square factor F with mat = F F^T, valid for any PSD matrix.

    A positive definite matrix gets its Cholesky factor.  Otherwise F is
    V diag(sqrt(w)) from eigh of the lower triangle, with eigenvalues at
    or below 1e-12 of the largest magnitude set to zero, so F has no
    column outside the range of mat.  mat is rejected unless
    max|mat - F F^T| <= 1e-8 * max(max|diag mat|, 1).
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ModelValidationError(f"{name} must be a square matrix")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(a)
    w[w <= 1e-12 * np.max(np.abs(w))] = 0.0
    factor = v * np.sqrt(w)
    scale = float(np.max(np.abs(np.diag(a))))
    if np.max(np.abs(a - factor @ factor.T)) > 1e-8 * max(scale, 1.0):
        raise ModelValidationError(f"{name} is not positive semidefinite")
    return factor


def gaussian_logpdf(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """Multivariate normal log-density at x; cov must be positive definite."""
    d = mean.shape[0]
    chol = np.linalg.cholesky(cov)
    z = np.linalg.solve(chol, np.asarray(x, dtype=float) - mean)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (d * _LOG_2PI + logdet + float(z @ z))
