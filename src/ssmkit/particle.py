"""Bootstrap particle filtering for generic state-space models.

The filter uses the transition law as the proposal, weights by the
observation log-density, and resamples adaptively when the effective sample
size drops below a threshold fraction of N.  Randomness at step t comes
from the stream derived as (seed, "step", t), with the resampling uniform
drawn from (seed, "resample", t), so outputs are independent of any
internal execution schedule.  Time indices in errors are 1-based.

Costs per step are linear in N.  The linear-Gaussian observation density
multiplies by the inverse Cholesky factor of R, computed once when the
model is built; multinomial resampling searches its draws in sorted order;
the fixed-lag smoother traces ancestry in O(T*N) whatever the lag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelValidationError, ParticleCollapseError
from .models import (
    GenericStateSpaceModel,
    LinearGaussianModel,
    ObservationSeries,
    _row_faults,
    require_valid,
)
from .numerics import effective_sample_size, log_sum_exp, psd_sampling_factor
from .rng import SeededGenerator

__all__ = [
    "ParticleSet",
    "ParticleFilterResult",
    "systematic_resample",
    "multinomial_resample",
    "bootstrap_filter",
    "fixed_lag_smoother",
    "pf_loglik",
    "lgssm_as_generic",
]


@dataclass(frozen=True)
class ParticleSet:
    """Weighted particle approximation at one time step.

    log_weights are normalized: log_sum_exp(log_weights) = 0 within 1e-10.
    time_index is the 1-based step the set approximates.
    """

    particles: np.ndarray
    log_weights: np.ndarray
    time_index: int


@dataclass(frozen=True)
class ParticleFilterResult:
    """Full filter run: per-step weighted means, ESS trace, the standard
    SMC log-likelihood estimate, 1-based resampling times, and the final
    particle set."""

    filtered_means: np.ndarray
    ess_trace: np.ndarray
    log_likelihood_estimate: float
    resample_events: list[int]
    final_set: ParticleSet


def _check_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("weights must be a nonempty vector")
    _, negative, off = _row_faults(w, 1e-9)
    if negative or off:
        raise ValueError("weights must be a probability vector")
    return w


def systematic_resample(weights, u: float, n: int | None = None) -> np.ndarray:
    """Parent indices at stratified positions (i + u)/n on the weight CDF.

    n defaults to the number of weights.  Output is sorted nondecreasing;
    the count of each index i differs from n*w_i by less than 1 for every u.
    """
    w = _check_weights(weights)
    if not 0.0 <= u < 1.0:
        raise ValueError("u must lie in [0, 1)")
    if n is None:
        n = w.shape[0]
    elif n < 1:
        raise ValueError("n must be at least 1")
    positions = (np.arange(n) + u) / n
    cdf = np.cumsum(w)
    cdf[-1] = 1.0  # guard roundoff so the last position always lands
    return np.searchsorted(cdf, positions, side="right").astype(np.int64)


def multinomial_resample(weights, rng: SeededGenerator, n: int | None = None) -> np.ndarray:
    """n independent categorical draws from the weight vector (default: one
    per weight)."""
    w = _check_weights(weights)
    if n is None:
        n = w.shape[0]
    elif n < 1:
        raise ValueError("n must be at least 1")
    cdf = np.cumsum(w)
    cdf[-1] = 1.0
    u = rng.uniforms(n)
    # On sorted draws each search starts where the previous one ended; a
    # draw lands on the same index in any order, so the result is unchanged.
    order = np.argsort(u)
    idx = np.empty(n, dtype=np.int64)
    idx[order] = np.searchsorted(cdf, u[order], side="right")
    return idx


def _step_stream(rng: SeededGenerator, t: int) -> SeededGenerator:
    return rng.derive("step", t)


def _resample_uniform(rng: SeededGenerator, t: int) -> float:
    return float(rng.derive("resample", t).uniforms(1)[0])


def _run_filter(
    model: GenericStateSpaceModel,
    obs: ObservationSeries,
    N: int,
    rng: SeededGenerator,
    resample_threshold: float,
    scheme: str,
    keep_ancestry: bool,
):
    if N < 1:
        raise ValueError("N must be at least 1")
    if not 0.0 < resample_threshold <= 1.0:
        raise ValueError("resample_threshold must lie in (0, 1]")
    if scheme not in ("systematic", "multinomial"):
        raise ValueError(f"unknown resampling scheme {scheme!r}")
    if obs.kind != "real":
        raise ModelValidationError(
            "particle filtering requires real-valued observations"
        )
    y = obs.values
    T = y.shape[0]
    if T < 1:
        raise ValueError("observation series must have at least one entry")

    particles = np.asarray(
        model.init_sampler(N, _step_stream(rng, 0)), dtype=float
    ).reshape(N, model.d_x)
    log_w = np.full(N, -np.log(N))  # carried normalized log-weights
    filtered_means = np.empty((T, model.d_x))
    ess_trace = np.empty(T)
    resample_events: list[int] = []
    log_likelihood = 0.0
    # ancestors[t][j] = pre-resampling index at time t of the particle that
    # enters step t+1 as index j (identity when no resampling happened).
    ancestors = np.empty((T, N), dtype=np.int64) if keep_ancestry else None
    history = np.empty((T, N, model.d_x)) if keep_ancestry else None
    weight_history = np.empty((T, N)) if keep_ancestry else None

    for t in range(T):
        if t > 0:
            particles = np.asarray(
                model.transition_sampler(particles, t + 1, _step_stream(rng, t)),
                dtype=float,
            ).reshape(N, model.d_x)
        log_g = np.asarray(
            model.observation_logdensity(particles, y[t], t + 1), dtype=float
        ).reshape(N)
        combined = log_w + log_g
        total = log_sum_exp(combined)
        if total == -np.inf:
            raise ParticleCollapseError(t + 1)
        # Increment of the standard SMC estimator: log-sum of carried
        # weights times likelihoods, taken before renormalization.
        log_likelihood += total
        log_w = combined - total
        weights = np.exp(log_w)
        weights = weights / weights.sum()
        filtered_means[t] = weights @ particles
        ess = effective_sample_size(weights)
        ess_trace[t] = ess
        if keep_ancestry:
            history[t] = particles
            weight_history[t] = weights

        if resample_threshold >= 1.0 or ess < resample_threshold * N:
            if scheme == "systematic":
                idx = systematic_resample(weights, _resample_uniform(rng, t))
            else:
                idx = multinomial_resample(weights, rng.derive("resample", t))
            particles = particles[idx]
            log_w = np.full(N, -np.log(N))
            resample_events.append(t + 1)
            if keep_ancestry:
                ancestors[t] = idx
        elif keep_ancestry:
            ancestors[t] = np.arange(N)

    final = ParticleSet(particles=particles, log_weights=log_w.copy(), time_index=T)
    result = ParticleFilterResult(
        filtered_means=filtered_means,
        ess_trace=ess_trace,
        log_likelihood_estimate=float(log_likelihood),
        resample_events=resample_events,
        final_set=final,
    )
    return result, ancestors, history, weight_history


def bootstrap_filter(
    model: GenericStateSpaceModel,
    obs: ObservationSeries,
    N: int,
    rng: SeededGenerator,
    resample_threshold: float = 0.5,
    scheme: str = "systematic",
) -> ParticleFilterResult:
    """Sampling-importance-resampling filter with the transition proposal.

    Each step propagates all particles, adds the observation log-density to
    the carried log-weights, accumulates the log-likelihood increment as
    the log-sum of the unnormalized weights, renormalizes, and resamples
    when ESS/N < resample_threshold.  A threshold of 1 forces resampling
    at every step.  Deterministic given the generator's seed.
    """
    result, _, _, _ = _run_filter(
        model, obs, N, rng, resample_threshold, scheme, keep_ancestry=False
    )
    return result


def fixed_lag_smoother(
    model: GenericStateSpaceModel,
    obs: ObservationSeries,
    N: int,
    lag: int,
    rng: SeededGenerator,
    resample_threshold: float = 0.5,
    scheme: str = "systematic",
) -> np.ndarray:
    """Smoothed mean estimates via ancestral trajectories truncated at lag.

    Row t estimates E[X_t | Y_1..Y_{min(t+lag, T)}]: the filter runs
    forward, and each stored position at time t is reweighted by the
    particle weights at time t+lag traced back through the resampling
    ancestry.  lag = 0 reproduces bootstrap_filter's filtered means
    exactly for the same seed.  Tracing the ancestry costs O(T*N) index
    lookups whatever the lag, with O(lag*N) extra memory.
    """
    _, smoothed = _filter_and_smooth(
        model, obs, N, lag, rng, resample_threshold, scheme
    )
    return smoothed


def _filter_and_smooth(
    model: GenericStateSpaceModel,
    obs: ObservationSeries,
    N: int,
    lag: int,
    rng: SeededGenerator,
    resample_threshold: float,
    scheme: str,
) -> tuple[ParticleFilterResult, np.ndarray]:
    """One filter run giving both bootstrap_filter's result and
    fixed_lag_smoother's rows for the same arguments."""
    if lag < 0:
        raise ValueError("lag must be non-negative")
    result, ancestors, history, weight_history = _run_filter(
        model, obs, N, rng, resample_threshold, scheme, keep_ancestry=True
    )
    T = history.shape[0]
    smoothed = np.empty((T, model.d_x))
    for t, horizon, lineage in _lineages(ancestors, lag):
        smoothed[t] = weight_history[horizon] @ history[t][lineage]
    return result, smoothed


def _lineages(ancestors: np.ndarray, lag: int):
    """Yield (t, horizon, lineage) for every row t, horizon = min(t+lag, T-1),
    where particle j at horizon descends from particle lineage[j] at t.

    Index j at time s descends from ancestors[s-1][j] at s-1.  Composing
    these maps one window at a time costs O(T*lag*N); instead (van Herk /
    Gil-Werman) boundaries sit at multiples of lag, so every window
    (t, t+lag] holds exactly one boundary b.  Maps from each horizon
    forward to b and from b backward to each t are built once per block,
    and the lineage is their composition.  Rows whose horizon is clipped
    at T-1 take one backward walk from T-1.  Composing integer maps is
    exact, so the lineages equal the window-by-window walk.
    """
    T, N = ancestors.shape
    identity = np.arange(N)
    if lag == 0:
        for t in range(T):
            yield t, t, identity
        return
    last = T - 1 - lag  # last row whose horizon t+lag is not clipped
    for start in range(0, last + 1, lag):
        b = start + lag
        stop = min(b, last + 1)
        # to_start[t - start] maps particles at b to their ancestors at t.
        to_start = [identity] * (stop - start)
        back = identity
        for s in range(b - 1, start - 1, -1):
            back = ancestors[s][back]
            if s < stop:
                to_start[s - start] = back
        # forward maps particles at t+lag to their ancestors at b.
        forward = identity
        for t in range(start, stop):
            horizon = t + lag
            if horizon > b:
                forward = forward[ancestors[horizon - 1]]
            yield t, horizon, to_start[t - start][forward]
    first = max(last + 1, 0)
    back = identity
    for t in range(T - 1, first - 1, -1):
        yield t, T - 1, back
        if t > first:
            back = ancestors[t - 1][back]


def lgssm_as_generic(model: LinearGaussianModel) -> GenericStateSpaceModel:
    """Express a linear-Gaussian model through the generic callbacks.

    Lets the particle filter run on a model whose exact answer the Kalman
    filter provides, which is how the Monte Carlo machinery is validated.
    """
    require_valid(model)
    l_init = psd_sampling_factor(model.Sigma0, "Sigma0")
    l_state = psd_sampling_factor(model.Q, "Q")
    d_x, d_y = model.d_x, model.d_y
    chol_r = np.linalg.cholesky(model.R)
    # z = L^{-1} r is one product per step with the factor inverted once.
    inv_chol_r_t = np.linalg.inv(chol_r).T
    log_det_r = 2.0 * float(np.sum(np.log(np.diag(chol_r))))
    log_norm = -0.5 * (d_y * np.log(2.0 * np.pi) + log_det_r)

    def init_sampler(n: int, rng: SeededGenerator) -> np.ndarray:
        z = rng.normals(n * d_x).reshape(n, d_x)
        return model.mu0 + z @ l_init.T

    def transition_sampler(states: np.ndarray, t: int, rng: SeededGenerator) -> np.ndarray:
        n = states.shape[0]
        z = rng.normals(n * d_x).reshape(n, d_x)
        return states @ model.A.T + z @ l_state.T

    def observation_logdensity(states: np.ndarray, y: np.ndarray, t: int) -> np.ndarray:
        resid = y[None, :] - states @ model.C.T
        z = resid @ inv_chol_r_t
        return log_norm - 0.5 * np.sum(z * z, axis=1)

    return GenericStateSpaceModel(
        d_x=d_x,
        init_sampler=init_sampler,
        transition_sampler=transition_sampler,
        observation_logdensity=observation_logdensity,
    )


def pf_loglik(
    model: GenericStateSpaceModel,
    obs: ObservationSeries,
    N: int,
    reps: int,
    seed: int,
    resample_threshold: float = 0.5,
    scheme: str = "systematic",
) -> tuple[float, float | None]:
    """Mean and standard error of the log-likelihood estimate over reps
    independent runs seeded seed, seed+1, ...; the standard error is None
    when reps = 1."""
    if reps < 1:
        raise ValueError("reps must be at least 1")
    estimates = np.empty(reps)
    for r in range(reps):
        try:
            run = bootstrap_filter(
                model,
                obs,
                N,
                SeededGenerator(seed + r),
                resample_threshold=resample_threshold,
                scheme=scheme,
            )
        except ParticleCollapseError as err:
            raise ParticleCollapseError(
                err.time_index, f"rep {r} collapsed at t={err.time_index}"
            ) from err
        estimates[r] = run.log_likelihood_estimate
    mean = float(estimates.mean())
    if reps == 1:
        return mean, None
    stderr = float(estimates.std(ddof=1) / np.sqrt(reps))
    return mean, stderr
