"""Forward simulation of each model class.

Draw order is part of the determinism contract.  For an HMM: T uniforms for
the state chain (one per step), then T uniforms for the symbols.  For a
linear-Gaussian model: d_x normals for the initial state, (T-1)*d_x normals
for the state noise in time order, then T*d_y normals for the observation
noise in time order.  Every normal consumes two raw generator outputs.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .models import (
    DiscreteHMM,
    LinearGaussianModel,
    ObservationSeries,
    StatePath,
    require_valid,
)
from .numerics import _capped_cdf, psd_sampling_factor
from .rng import SeededGenerator

__all__ = ["simulate_hmm", "simulate_lgssm"]


def simulate_hmm(
    model: DiscreteHMM, T: int, rng: SeededGenerator
) -> tuple[StatePath, ObservationSeries]:
    """Sample a state chain of length T and one symbol per state."""
    require_valid(model)
    if T < 1:
        raise ValueError("T must be at least 1")
    # Each draw is the index of the first cumulative entry exceeding its
    # uniform; the rows are capped at 1.0 from their last positive entry, so
    # a uniform past a row's rounded sum cannot draw an entry of probability
    # 0 or fall off the row.  The chain runs on Python floats, which hold
    # the same values, since a numpy call per step costs more than its search.
    cum_trans = [_capped_cdf(row).tolist() for row in model.transition]
    u_states = rng.uniforms(T).tolist()
    state = bisect_right(_capped_cdf(model.initial).tolist(), u_states[0])
    chain = [state]
    for u in u_states[1:]:
        state = bisect_right(cum_trans[state], u)
        chain.append(state)
    states = np.array(chain, dtype=np.int64)

    u_obs = rng.uniforms(T)
    cum_emit = np.array([_capped_cdf(row) for row in model.emission])
    symbols = np.sum(u_obs[:, None] >= cum_emit[states], axis=1).astype(np.int64)
    return StatePath(states), ObservationSeries(symbols, kind="symbolic")


def simulate_lgssm(
    model: LinearGaussianModel, T: int, rng: SeededGenerator
) -> tuple[StatePath, ObservationSeries]:
    """Sample x_1 ~ N(mu0, Sigma0), propagate with noise Q, observe with R."""
    require_valid(model)
    if T < 1:
        raise ValueError("T must be at least 1")
    d_x, d_y = model.d_x, model.d_y
    l_init = psd_sampling_factor(model.Sigma0, "Sigma0")
    l_state = psd_sampling_factor(model.Q, "Q")
    l_obs = psd_sampling_factor(model.R, "R")

    states = np.empty((T, d_x))
    states[0] = model.mu0 + l_init @ rng.normals(d_x)
    if T > 1:
        noise = rng.normals((T - 1) * d_x).reshape(T - 1, d_x) @ l_state.T
        for t in range(1, T):
            states[t] = model.A @ states[t - 1] + noise[t - 1]
    obs = states @ model.C.T + rng.normals(T * d_y).reshape(T, d_y) @ l_obs.T
    return StatePath(states), ObservationSeries(obs, kind="real")
