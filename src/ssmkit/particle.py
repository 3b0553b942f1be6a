"""Bootstrap particle filtering for generic state-space models.

The filter uses the transition law as the proposal, weights by the
observation log-density, and resamples adaptively when the effective sample
size drops below a threshold fraction of N.  Randomness at step t comes
from the stream derived as (seed, "step", t), with the resampling uniform
drawn from (seed, "resample", t), so outputs are independent of any
internal execution schedule.  Time indices in errors are 1-based.

Costs per step are linear in N.  The linear-Gaussian observation density
multiplies by the inverse Cholesky factor of R, computed once when the
model is built, and products with an inner size of 1 (a scalar state, or
a scalar observation's noise factor) are taken elementwise with matmul's
bytes.  Multinomial resampling searches its draws in the order of their
top 16 bits.  The fixed-lag smoother carries each particle's last lag
positions and resamples them with it: O(lag*N*d_x) memory, and each
resampling copies them, so its cost per resampling grows with the lag.
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
from .numerics import (
    _capped_cdf,
    _last_positive,
    effective_sample_size,
    log_sum_exp,
    psd_sampling_factor,
)
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
    the count of each index i differs from n*w_i by at most 1, and by less
    than 1 in exact arithmetic.  No index of zero weight is returned: where
    u is within about n * 2**-53 of 1, the last position rounds to 1.0,
    past the CDF, and it too goes to the last index of positive weight,
    where it lies in exact arithmetic.
    """
    w = _check_weights(weights)
    if not 0.0 <= u < 1.0:
        raise ValueError("u must lie in [0, 1)")
    if n is None:
        n = w.shape[0]
    elif n < 1:
        raise ValueError("n must be at least 1")
    positions = (np.arange(n) + u) / n
    cdf = _capped_cdf(w)
    idx = np.searchsorted(cdf, positions, side="right").astype(np.int64, copy=False)
    # The output is sorted: if any index lies past the CDF, the last does.
    if idx[-1] == w.shape[0]:
        np.minimum(idx, _last_positive(w), out=idx)
    return idx


def multinomial_resample(weights, rng: SeededGenerator, n: int | None = None) -> np.ndarray:
    """n independent categorical draws from the weight vector (default: one
    per weight)."""
    w = _check_weights(weights)
    if n is None:
        n = w.shape[0]
    elif n < 1:
        raise ValueError("n must be at least 1")
    cdf = _capped_cdf(w)
    u = rng.uniforms(n)
    # A draw lands on the same index in any order, so the order only serves
    # the search: on draws sorted by their top 16 bits, successive searches
    # touch nearby parts of the CDF.  A stable sort of 16-bit keys is a
    # radix sort, about half the cost of sorting the doubles themselves.
    order = np.argsort((u * 65536.0).astype(np.uint16), kind="stable")
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
    lag: int | None,
) -> tuple[ParticleFilterResult, np.ndarray | None]:
    """One filter run giving bootstrap_filter's result and, unless lag is
    None, fixed_lag_smoother's rows for the same arguments."""
    if N < 1:
        raise ValueError("N must be at least 1")
    if not 0.0 < resample_threshold <= 1.0:
        raise ValueError("resample_threshold must lie in (0, 1]")
    if scheme not in ("systematic", "multinomial"):
        raise ValueError(f"unknown resampling scheme {scheme!r}")
    if lag is not None and lag < 0:
        raise ValueError("lag must be non-negative")
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
    smoothed = None
    if lag is not None:
        # ring[s % span][j] is the position at time s of the ancestor of
        # particle j, for the last span steps s; resampling reindexes it.
        span = min(lag, T - 1) + 1
        ring = np.empty((span, N, model.d_x))
        smoothed = np.empty((T, model.d_x))

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
        weights /= np.add.reduce(weights)
        filtered_means[t] = weights @ particles
        ess = effective_sample_size(weights)
        ess_trace[t] = ess
        if lag is not None:
            ring[t % span] = particles
            # Row t - lag is due now; at the last step every remaining row
            # is, and all are formed before that step's resampling.
            last = t if t == T - 1 else t - lag
            for s in range(max(t - lag, 0), last + 1):
                smoothed[s] = weights @ ring[s % span]

        if resample_threshold >= 1.0 or ess < resample_threshold * N:
            if scheme == "systematic":
                idx = systematic_resample(weights, _resample_uniform(rng, t))
            else:
                idx = multinomial_resample(weights, rng.derive("resample", t))
            particles = particles[idx]
            log_w = np.full(N, -np.log(N))
            resample_events.append(t + 1)
            if lag is not None:
                ring = ring.take(idx, axis=1)

    final = ParticleSet(particles=particles, log_weights=log_w.copy(), time_index=T)
    result = ParticleFilterResult(
        filtered_means=filtered_means,
        ess_trace=ess_trace,
        log_likelihood_estimate=float(log_likelihood),
        resample_events=resample_events,
        final_set=final,
    )
    return result, smoothed


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
    result, _ = _run_filter(model, obs, N, rng, resample_threshold, scheme, None)
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
    forward carrying each particle's positions over the last lag steps,
    resampled along with it, and row t is formed once step min(t+lag, T)
    is weighted, from those weights and the carried positions at t.
    lag = 0 reproduces bootstrap_filter's filtered means exactly for the
    same seed.  The carried positions take O(min(lag, T)*N*d_x) memory,
    and each resampling copies them, so a step costs O(lag*N*d_x) on top
    of the filter's O(N*d_x) when the filter resamples.
    """
    _, smoothed = _run_filter(model, obs, N, rng, resample_threshold, scheme, lag)
    return smoothed


def _times(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m for a stack of row vectors x, with the same bytes.

    With an inner size of 1, matmul runs a slow generic loop, several times
    the cost of the broadcast product at large N.  That loop starts its sum
    at 0.0, so a -0.0 product comes out +0.0; adding 0.0 does the same here.
    """
    if m.shape[0] == 1:
        return x * m[0] + 0.0
    return x @ m


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
        return model.mu0 + _times(z, l_init.T)

    def transition_sampler(states: np.ndarray, t: int, rng: SeededGenerator) -> np.ndarray:
        n = states.shape[0]
        z = rng.normals(n * d_x).reshape(n, d_x)
        return _times(states, model.A.T) + _times(z, l_state.T)

    def observation_logdensity(states: np.ndarray, y: np.ndarray, t: int) -> np.ndarray:
        resid = y[None, :] - _times(states, model.C.T)
        z = _times(resid, inv_chol_r_t)
        return log_norm - 0.5 * np.add.reduce(z * z, axis=1)

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
