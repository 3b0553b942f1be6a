"""Model and data containers.

All containers are frozen dataclasses that coerce their fields to numpy
arrays at construction and check shapes only; value-level invariants (row
sums, positive definiteness) live in :func:`validate_model` so that a broken
model can be inspected rather than merely rejected.  Inference and
simulation entry points call :func:`require_valid` and raise on violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import ModelValidationError

__all__ = [
    "ObservationSeries",
    "StatePath",
    "DiscreteHMM",
    "LinearGaussianModel",
    "GenericStateSpaceModel",
    "validate_model",
    "require_valid",
]

ROW_SUM_TOL = 1e-12
SYMMETRY_TOL = 1e-12


def _as_square(mat, name: str) -> np.ndarray:
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ModelValidationError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class ObservationSeries:
    """Observations y_1..y_T, tagged symbolic (ints) or real (columns).

    Symbolic values form an int vector of shape (T,); real values form a
    float matrix of shape (T, d_y).  Operations reject a series whose kind
    does not match the model instead of coercing.  The series keeps a
    read-only copy of the values it was given.
    """

    values: np.ndarray
    kind: Literal["symbolic", "real"]

    def __post_init__(self):
        if self.kind == "symbolic":
            v = np.asarray(self.values)
            if v.ndim != 1:
                raise ModelValidationError(
                    f"symbolic observations must be a vector, got shape {v.shape}"
                )
            if v.size and not np.issubdtype(v.dtype, np.integer):
                if not np.all(v == np.floor(v)):
                    raise ModelValidationError("symbolic observations must be integers")
            v = v.astype(np.int64)
        elif self.kind == "real":
            v = np.array(self.values, dtype=float)
            if v.ndim == 1:
                v = v[:, None]
            if v.ndim != 2:
                raise ModelValidationError(
                    f"real observations must be a (T, d_y) matrix, got shape {v.shape}"
                )
            if v.size and not np.all(np.isfinite(v)):
                raise ModelValidationError("real observations must be finite")
        else:
            raise ModelValidationError(f"unknown observation kind {self.kind!r}")
        # A read-only copy: the checks above hold for the series' lifetime,
        # and the caller's array stays the caller's.
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class StatePath:
    """Latent states x_1..x_T: an int vector or a (T, d_x) float matrix."""

    states: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.states)
        if np.issubdtype(s.dtype, np.integer):
            if s.ndim != 1:
                raise ModelValidationError("discrete state path must be a vector")
        else:
            s = np.asarray(s, dtype=float)
            if s.ndim == 1:
                s = s[:, None]
            if s.ndim != 2:
                raise ModelValidationError("continuous state path must be a (T, d_x) matrix")
        object.__setattr__(self, "states", s)

    def __len__(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class DiscreteHMM:
    """Finite-state hidden Markov model with a finite observation alphabet.

    initial is a length-K probability vector, transition a K x K
    row-stochastic matrix, emission a K x M row-stochastic matrix.
    """

    initial: np.ndarray
    transition: np.ndarray
    emission: np.ndarray

    def __post_init__(self):
        init = np.asarray(self.initial, dtype=float)
        trans = _as_square(self.transition, "transition")
        emit = np.asarray(self.emission, dtype=float)
        if init.ndim != 1:
            raise ModelValidationError("initial must be a vector")
        if emit.ndim != 2:
            raise ModelValidationError("emission must be a matrix")
        k = init.shape[0]
        if k < 1:
            raise ModelValidationError("K must be at least 1")
        if trans.shape != (k, k):
            raise ModelValidationError(
                f"transition shape {trans.shape} does not match K={k}"
            )
        if emit.shape[0] != k:
            raise ModelValidationError(
                f"emission has {emit.shape[0]} rows but K={k}"
            )
        if emit.shape[1] < 1:
            raise ModelValidationError("M must be at least 1")
        object.__setattr__(self, "initial", init)
        object.__setattr__(self, "transition", trans)
        object.__setattr__(self, "emission", emit)

    @property
    def K(self) -> int:
        return self.initial.shape[0]

    @property
    def M(self) -> int:
        return self.emission.shape[1]


@dataclass(frozen=True)
class LinearGaussianModel:
    """Linear-Gaussian state-space model.

    x_1 ~ N(mu0, Sigma0), x_{t+1} = A x_t + w_t with w_t ~ N(0, Q), and
    y_t = C x_t + v_t with v_t ~ N(0, R).  Q and Sigma0 may be singular;
    R must be positive definite.
    """

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    mu0: np.ndarray
    Sigma0: np.ndarray

    def __post_init__(self):
        a = _as_square(self.A, "A")
        d_x = a.shape[0]
        c = np.asarray(self.C, dtype=float)
        if c.ndim != 2 or c.shape[1] != d_x:
            raise ModelValidationError(
                f"C must have shape (d_y, {d_x}), got {c.shape}"
            )
        q = _as_square(self.Q, "Q")
        r = _as_square(self.R, "R")
        mu = np.asarray(self.mu0, dtype=float)
        s0 = _as_square(self.Sigma0, "Sigma0")
        d_y = c.shape[0]
        if q.shape != (d_x, d_x):
            raise ModelValidationError(f"Q must be {d_x}x{d_x}, got {q.shape}")
        if r.shape != (d_y, d_y):
            raise ModelValidationError(f"R must be {d_y}x{d_y}, got {r.shape}")
        if mu.shape != (d_x,):
            raise ModelValidationError(f"mu0 must have length {d_x}, got shape {mu.shape}")
        if s0.shape != (d_x, d_x):
            raise ModelValidationError(f"Sigma0 must be {d_x}x{d_x}, got {s0.shape}")
        for name, arr in (("A", a), ("C", c), ("Q", q), ("R", r), ("mu0", mu), ("Sigma0", s0)):
            if arr.size and not np.all(np.isfinite(arr)):
                raise ModelValidationError(f"{name} must be finite")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "Q", q)
        object.__setattr__(self, "R", r)
        object.__setattr__(self, "mu0", mu)
        object.__setattr__(self, "Sigma0", s0)

    @property
    def d_x(self) -> int:
        return self.A.shape[0]

    @property
    def d_y(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class GenericStateSpaceModel:
    """User-supplied model for particle filtering.

    Callbacks are batched over particles: states are (n, d_x) float arrays.
    init_sampler(n, rng) returns (n, d_x) initial draws;
    transition_sampler(states, t, rng) returns (n, d_x) successors of the
    given states at step t; observation_logdensity(states, y, t) returns a
    length-n vector of log g_t(y | state), finite or -inf.  Samplers must
    consume the generator deterministically (same state, same draws).
    """

    d_x: int
    init_sampler: Callable[..., np.ndarray]
    transition_sampler: Callable[..., np.ndarray]
    observation_logdensity: Callable[..., np.ndarray]

    def __post_init__(self):
        if int(self.d_x) < 1:
            raise ModelValidationError("d_x must be at least 1")
        object.__setattr__(self, "d_x", int(self.d_x))


def _row_faults(rows: np.ndarray, tol: float = ROW_SUM_TOL):
    """The probability-row rule for a vector or each row of a matrix: no
    negative entry, and a sum within tol of 1.  Returns the row sums and,
    per row, whether it has a negative entry and whether its sum is off.
    A row with a NaN or infinite entry has a sum that is not finite, which
    counts as off."""
    sums = rows.sum(axis=-1)
    return sums, (rows < 0).any(axis=-1), ~(abs(sums - 1.0) <= tol)


def validate_model(model) -> list[str]:
    """Value-level invariant check; returns a list of violation messages.

    An empty list means the model is valid.  The input is never mutated.
    """
    violations: list[str] = []
    if isinstance(model, DiscreteHMM):
        s, negative, off = _row_faults(model.initial)
        if negative:
            violations.append("initial has negative entries")
        if off:
            violations.append(f"initial sums to {s:.6g}, off by {s - 1.0:.3g}")
        for name, mat in (("transition", model.transition), ("emission", model.emission)):
            sums, negative, off = _row_faults(mat)
            if negative.any():
                violations.append(f"{name} has negative entries")
            for i in off.nonzero()[0]:
                violations.append(
                    f"{name} row {i} sums to {sums[i]:.6g}, off by {sums[i] - 1.0:.3g}"
                )
    elif isinstance(model, LinearGaussianModel):
        for name, mat in (("Q", model.Q), ("Sigma0", model.Sigma0)):
            if np.max(np.abs(mat - mat.T), initial=0.0) > SYMMETRY_TOL:
                violations.append(f"{name} is not symmetric")
            elif mat.size and np.min(np.linalg.eigvalsh(0.5 * (mat + mat.T))) < -1e-10:
                violations.append(f"{name} is not positive semidefinite")
        r = model.R
        if np.max(np.abs(r - r.T), initial=0.0) > SYMMETRY_TOL:
            violations.append("R is not symmetric")
        elif np.min(np.linalg.eigvalsh(0.5 * (r + r.T))) <= 0.0:
            violations.append("R is not positive definite")
    elif isinstance(model, GenericStateSpaceModel):
        pass
    else:
        violations.append(f"unknown model type {type(model).__name__}")
    return violations


def require_valid(model) -> None:
    """Raise ModelValidationError listing all violations, if any."""
    violations = validate_model(model)
    if violations:
        raise ModelValidationError("; ".join(violations))
