"""Empirical measurement of filter forgetting.

Two filters launched from different priors on the same data are compared in
total variation at every step; the decay of that distance is summarized by
a fitted geometric rate, with the Dobrushin coefficient of the transition
matrix as the reference contraction bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCurveError
from .hmm import forward_filter
from .models import ROW_SUM_TOL, DiscreteHMM, ObservationSeries, _row_faults

__all__ = [
    "ForgettingCurve",
    "tv_distance",
    "dobrushin_coefficient",
    "forgetting_curve",
    "fit_decay_rate",
]

POSITIVE_FLOOR = 1e-14


@dataclass(frozen=True)
class ForgettingCurve:
    """tv[t] is the total-variation distance between the two filters after
    observation t+1; rho_hat is the fitted geometric rate over fit_window
    (half-open index range), or None when the curve was too flat to fit."""

    tv: np.ndarray
    rho_hat: float | None
    fit_window: tuple[int, int]


def _check_distribution(p, name: str, tol: float) -> np.ndarray:
    v = np.asarray(p, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a vector")
    _, negative, off = _row_faults(v, tol)
    if negative or off:
        raise ValueError(f"{name} must be a probability vector")
    return v


def tv_distance(p, q) -> float:
    """Total-variation distance: half the L1 distance, in [0, 1]."""
    pv = _check_distribution(p, "p", 1e-9)
    qv = _check_distribution(q, "q", 1e-9)
    if pv.shape != qv.shape:
        raise ValueError(f"length mismatch: {pv.shape[0]} vs {qv.shape[0]}")
    return float(0.5 * np.abs(pv - qv).sum())


def dobrushin_coefficient(transition) -> float:
    """Worst-case one-step contraction: max pairwise TV between rows."""
    t = np.asarray(transition, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("transition must be a square matrix")
    _, negative, off = _row_faults(t)
    if negative.any() or off.any():
        raise ValueError("transition must be row-stochastic")
    k = t.shape[0]
    best = 0.0
    for i in range(k):
        diffs = 0.5 * np.abs(t[i + 1 :] - t[i]).sum(axis=1)
        if diffs.size:
            best = max(best, float(diffs.max()))
    return best


def fit_decay_rate(curve, window: tuple[int, int]) -> float:
    """Geometric rate of a decaying curve over a half-open index window.

    Least-squares slope of log(curve[t]) against t, using only entries
    above 1e-14 inside the window; returned as exp(slope) clamped to
    [0, 1].  Fewer than two usable entries cannot pin a rate.
    """
    c = np.asarray(curve, dtype=float)
    start, stop = window
    if not 0 <= start < stop <= c.shape[0]:
        raise ValueError(f"window {window} outside curve of length {c.shape[0]}")
    idx = np.arange(start, stop)
    vals = c[start:stop]
    keep = vals > POSITIVE_FLOOR
    if keep.sum() < 2:
        raise DegenerateCurveError(
            f"window {window} has {int(keep.sum())} positive entries; need 2"
        )
    slope = np.polyfit(idx[keep], np.log(vals[keep]), 1)[0]
    return float(min(max(np.exp(slope), 0.0), 1.0))


def forgetting_curve(
    model: DiscreteHMM,
    obs: ObservationSeries,
    prior_a,
    prior_b,
) -> ForgettingCurve:
    """Filter the same data from two priors and track their TV distance.

    The rate is fitted over the central half of the series, widened to the
    whole series when that window has fewer than two entries or no usable
    positive entries; a curve that is degenerate even over the whole series
    (identical priors, say) yields rho_hat None.  fit_window reports the
    window actually used.
    """
    # The filter's own tolerance, so that forward_filter accepts both priors.
    pa = _check_distribution(prior_a, "prior_a", ROW_SUM_TOL)
    pb = _check_distribution(prior_b, "prior_b", ROW_SUM_TOL)
    run_a = forward_filter(model, obs, initial_override=pa)
    run_b = forward_filter(model, obs, initial_override=pb)
    diffs = run_a.filtered - run_b.filtered
    tv = 0.5 * np.abs(diffs).sum(axis=1)
    T = tv.shape[0]
    start, stop = T // 4, (3 * T) // 4
    if stop - start < 2:
        start, stop = 0, T
    try:
        rho = fit_decay_rate(tv, (start, stop))
    except DegenerateCurveError:
        # Fast-forgetting curves may lie entirely below the positive floor
        # inside the central window; retry on the whole series, which still
        # sees the early positive entries.
        start, stop = 0, T
        try:
            rho = fit_decay_rate(tv, (start, stop))
        except DegenerateCurveError:
            rho = None
    return ForgettingCurve(tv=tv, rho_hat=rho, fit_window=(start, stop))
