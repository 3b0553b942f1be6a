"""Maximum-likelihood estimation through unconstrained coordinates.

Models map bijectively to real vectors: each probability row drops to K-1
log-ratios against its last entry (the softmax inverse), and each
covariance maps to its Cholesky factor with logged diagonal.  Both
transforms cover only the interior of the parameter space; boundary models
(zero probabilities, singular covariances) are rejected and must be fit by
EM instead.  Optimization is derivative-free Nelder-Mead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryParameterError,
    ModelValidationError,
    NumericalError,
    SimplexInitError,
)
from .hmm import forward_filter
from .kalman import kalman_filter
from .models import (
    DiscreteHMM,
    LinearGaussianModel,
    ObservationSeries,
    require_valid,
)
from .numerics import symmetrize

__all__ = [
    "ParameterVector",
    "OptimizerReport",
    "pack",
    "unpack",
    "negative_loglik",
    "nelder_mead",
    "fit_mle",
    "HMM_BLOCKS",
    "LGSSM_BLOCKS",
]

HMM_BLOCKS = ("initial", "transition", "emission")
LGSSM_BLOCKS = ("A", "C", "Q", "R", "mu0", "Sigma0")


def _hmm_dim(k: int, m: int) -> int:
    return (k - 1) + k * (k - 1) + k * (m - 1)


def _lgssm_dim(d_x: int, d_y: int) -> int:
    tri_x = d_x * (d_x + 1) // 2
    tri_y = d_y * (d_y + 1) // 2
    return d_x * d_x + d_y * d_x + tri_x + tri_y + d_x + tri_x


@dataclass(frozen=True)
class ParameterVector:
    """Unconstrained coordinates of a model.

    family is "discrete-hmm" with shape (K, M) or "linear-gaussian" with
    shape (d_x, d_y); the coordinate count is pinned by the family.
    """

    values: np.ndarray
    family: str
    shape: tuple[int, int]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("parameter values must form a vector")
        if self.family == "discrete-hmm":
            expected = _hmm_dim(*self.shape)
        elif self.family == "linear-gaussian":
            expected = _lgssm_dim(*self.shape)
        else:
            raise ValueError(f"unknown family {self.family!r}")
        if v.shape[0] != expected:
            raise ValueError(
                f"{self.family} with shape {self.shape} needs {expected} "
                f"coordinates, got {v.shape[0]}"
            )
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class OptimizerReport:
    """Outcome of a Nelder-Mead run.  converged means the simplex value
    spread fell below the tolerance before the iteration budget ran out."""

    argmin: np.ndarray
    final_value: float
    iterations: int
    converged: bool
    simplex_spread: float


def _row_to_coords(row: np.ndarray, name: str) -> np.ndarray:
    if np.any(row <= 0.0):
        raise BoundaryParameterError(
            f"{name} has zero entries; the unconstrained transform covers "
            "only strictly positive probabilities"
        )
    return np.log(row[:-1] / row[-1])


def _coords_to_row(coords: np.ndarray) -> np.ndarray:
    z = np.concatenate([coords, [0.0]])
    z -= z.max()
    e = np.exp(z)
    return e / e.sum()


def _cov_to_coords(cov: np.ndarray, name: str) -> np.ndarray:
    try:
        lower = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise BoundaryParameterError(
            f"{name} is singular; the unconstrained transform covers only "
            "positive definite covariances"
        ) from None
    d = cov.shape[0]
    out = []
    for i in range(d):
        out.extend(lower[i, :i])
        out.append(np.log(lower[i, i]))
    return np.array(out)


def _coords_to_cov(coords: np.ndarray, d: int) -> np.ndarray:
    lower = np.zeros((d, d))
    pos = 0
    for i in range(d):
        lower[i, :i] = coords[pos : pos + i]
        lower[i, i] = np.exp(coords[pos + i])
        pos += i + 1
    return symmetrize(lower @ lower.T)


def _tri(d: int) -> int:
    return d * (d + 1) // 2


def _pack_blocks(model, blocks: tuple[str, ...]) -> np.ndarray:
    parts = []
    if isinstance(model, DiscreteHMM):
        for block in blocks:
            if block == "initial":
                parts.append(_row_to_coords(model.initial, "initial"))
            elif block == "transition":
                for i in range(model.K):
                    parts.append(_row_to_coords(model.transition[i], f"transition row {i}"))
            elif block == "emission":
                for i in range(model.K):
                    parts.append(_row_to_coords(model.emission[i], f"emission row {i}"))
            else:
                raise ValueError(f"unknown HMM block {block!r}")
    else:
        for block in blocks:
            if block == "A":
                parts.append(model.A.ravel())
            elif block == "C":
                parts.append(model.C.ravel())
            elif block == "Q":
                parts.append(_cov_to_coords(model.Q, "Q"))
            elif block == "R":
                parts.append(_cov_to_coords(model.R, "R"))
            elif block == "mu0":
                parts.append(model.mu0)
            elif block == "Sigma0":
                parts.append(_cov_to_coords(model.Sigma0, "Sigma0"))
            else:
                raise ValueError(f"unknown linear-Gaussian block {block!r}")
    return np.concatenate(parts) if parts else np.empty(0)


def _unpack_blocks(values: np.ndarray, template, blocks: tuple[str, ...]):
    if isinstance(template, DiscreteHMM):
        k, m = template.K, template.M
        fields = {
            "initial": template.initial,
            "transition": template.transition,
            "emission": template.emission,
        }
        pos = 0
        for block in blocks:
            if block == "initial":
                fields["initial"] = _coords_to_row(values[pos : pos + k - 1])
                pos += k - 1
            elif block == "transition":
                rows = []
                for _ in range(k):
                    rows.append(_coords_to_row(values[pos : pos + k - 1]))
                    pos += k - 1
                fields["transition"] = np.array(rows)
            elif block == "emission":
                rows = []
                for _ in range(k):
                    rows.append(_coords_to_row(values[pos : pos + m - 1]))
                    pos += m - 1
                fields["emission"] = np.array(rows)
        if pos != values.shape[0]:
            raise ValueError("coordinate vector length does not match blocks")
        return DiscreteHMM(**fields)
    d_x, d_y = template.d_x, template.d_y
    fields = {
        "A": template.A,
        "C": template.C,
        "Q": template.Q,
        "R": template.R,
        "mu0": template.mu0,
        "Sigma0": template.Sigma0,
    }
    pos = 0
    for block in blocks:
        if block == "A":
            fields["A"] = values[pos : pos + d_x * d_x].reshape(d_x, d_x)
            pos += d_x * d_x
        elif block == "C":
            fields["C"] = values[pos : pos + d_y * d_x].reshape(d_y, d_x)
            pos += d_y * d_x
        elif block == "Q":
            fields["Q"] = _coords_to_cov(values[pos : pos + _tri(d_x)], d_x)
            pos += _tri(d_x)
        elif block == "R":
            fields["R"] = _coords_to_cov(values[pos : pos + _tri(d_y)], d_y)
            pos += _tri(d_y)
        elif block == "mu0":
            fields["mu0"] = values[pos : pos + d_x]
            pos += d_x
        elif block == "Sigma0":
            fields["Sigma0"] = _coords_to_cov(values[pos : pos + _tri(d_x)], d_x)
            pos += _tri(d_x)
    if pos != values.shape[0]:
        raise ValueError("coordinate vector length does not match blocks")
    return LinearGaussianModel(**fields)


def pack(model) -> ParameterVector:
    """Unconstrained coordinates of a full interior model.

    Layout for an HMM: initial row-ratios, then each transition row, then
    each emission row.  For a linear-Gaussian model: A row-major, C
    row-major, Cholesky coordinates of Q, of R, then mu0, then Sigma0.
    """
    require_valid(model)
    if isinstance(model, DiscreteHMM):
        values = _pack_blocks(model, HMM_BLOCKS)
        return ParameterVector(values, "discrete-hmm", (model.K, model.M))
    if isinstance(model, LinearGaussianModel):
        values = _pack_blocks(model, LGSSM_BLOCKS)
        return ParameterVector(values, "linear-gaussian", (model.d_x, model.d_y))
    raise ValueError(f"cannot pack {type(model).__name__}")


def unpack(theta: ParameterVector):
    """Inverse of pack; always yields a valid interior model."""
    if theta.family == "discrete-hmm":
        k, m = theta.shape
        template = DiscreteHMM(
            np.full(k, 1.0 / k), np.full((k, k), 1.0 / k), np.full((k, m), 1.0 / m)
        )
        return _unpack_blocks(theta.values, template, HMM_BLOCKS)
    d_x, d_y = theta.shape
    template = LinearGaussianModel(
        A=np.eye(d_x),
        C=np.zeros((d_y, d_x)),
        Q=np.eye(d_x),
        R=np.eye(d_y),
        mu0=np.zeros(d_x),
        Sigma0=np.eye(d_x),
    )
    return _unpack_blocks(theta.values, template, LGSSM_BLOCKS)


def negative_loglik(theta: ParameterVector, obs: ObservationSeries) -> float:
    """Negative exact log-likelihood of the model encoded by theta.

    Numerical failures inside the filter (impossible observations,
    degenerate innovations) come back as +inf so optimizers can step away
    from them instead of crashing.
    """
    if theta.family == "discrete-hmm" and obs.kind != "symbolic":
        raise ValueError("discrete-hmm parameters require symbolic observations")
    if theta.family == "linear-gaussian" and obs.kind != "real":
        raise ValueError("linear-gaussian parameters require real observations")
    return _negative_loglik(unpack(theta), obs)


def _negative_loglik(model, obs: ObservationSeries) -> float:
    """-log-likelihood through the model family's filter; a NumericalError
    inside the filter comes back as +inf."""
    try:
        if isinstance(model, DiscreteHMM):
            return -forward_filter(model, obs).log_likelihood
        return -kalman_filter(model, obs).log_likelihood
    except NumericalError:
        return np.inf


def nelder_mead(
    objective,
    x0,
    step: float = 0.5,
    tol: float = 1e-8,
    max_iter: int = 10_000,
) -> OptimizerReport:
    """Derivative-free simplex descent.

    Coefficients are the classic reflection 1, expansion 2, contraction
    0.5, shrink 0.5.  The run stops when the spread between the best and
    worst simplex values drops below tol, or after max_iter iterations.
    Objective values of NaN are treated as +inf; if every vertex of the
    initial simplex is +inf the run cannot start.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.size < 1:
        raise ValueError("x0 must be a nonempty vector")
    d = x0.shape[0]

    def f(x: np.ndarray) -> float:
        value = float(objective(x))
        return np.inf if np.isnan(value) else value

    simplex = np.tile(x0, (d + 1, 1))
    for i in range(d):
        simplex[i + 1, i] += step
    values = np.array([f(v) for v in simplex])
    if not np.any(np.isfinite(values)):
        raise SimplexInitError("objective is +inf at every initial simplex vertex")

    iterations = 0
    spread = float(values.max() - values.min())
    while spread >= tol and iterations < max_iter:
        iterations += 1
        order = np.argsort(values, kind="stable")
        simplex = simplex[order]
        values = values[order]
        centroid = simplex[:-1].mean(axis=0)

        reflected = centroid + (centroid - simplex[-1])
        f_reflected = f(reflected)
        if f_reflected < values[0]:
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            f_expanded = f(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
            else:
                contracted = centroid - 0.5 * (centroid - simplex[-1])
            f_contracted = f(contracted)
            if f_contracted < min(f_reflected, values[-1]):
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                for i in range(1, d + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = f(simplex[i])
        with np.errstate(invalid="ignore"):
            spread = float(values.max() - values.min())
        if np.isnan(spread):
            spread = np.inf
    best = int(np.argmin(values))
    return OptimizerReport(
        argmin=simplex[best].copy(),
        final_value=float(values[best]),
        iterations=iterations,
        converged=spread < tol,
        simplex_spread=spread,
    )


def fit_mle(
    model0,
    obs: ObservationSeries,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    step: float = 0.25,
    free_blocks: tuple[str, ...] | None = None,
) -> tuple:
    """Maximize the exact likelihood by Nelder-Mead in coordinates.

    model0 fixes the family, the shapes, and the start point.  free_blocks
    selects which parameter blocks are optimized (default: all); blocks
    left out keep their values from model0, which allows boundary values
    such as a zero covariance to stay pinned while interior blocks move.
    The fitted model's log-likelihood never falls below the start's.
    """
    require_valid(model0)
    if isinstance(model0, DiscreteHMM):
        family, all_blocks = "discrete-hmm", HMM_BLOCKS
        if obs.kind != "symbolic":
            raise ValueError("discrete-hmm fitting requires symbolic observations")
    elif isinstance(model0, LinearGaussianModel):
        family, all_blocks = "linear-gaussian", LGSSM_BLOCKS
        if obs.kind != "real":
            raise ValueError("linear-gaussian fitting requires real observations")
    else:
        raise ValueError(f"cannot fit {type(model0).__name__}")
    blocks = all_blocks if free_blocks is None else tuple(free_blocks)
    for block in blocks:
        if block not in all_blocks:
            raise ValueError(f"unknown block {block!r} for family {family}")

    x0 = _pack_blocks(model0, blocks)
    if x0.size == 0:
        raise ValueError("no free blocks to optimize")

    def objective(x: np.ndarray) -> float:
        try:
            # Extreme coordinates can overflow into non-finite parameters,
            # which the constructors reject; treat those points as +inf.
            model = _unpack_blocks(x, model0, blocks)
        except (ValueError, ModelValidationError):
            return np.inf
        return _negative_loglik(model, obs)

    report = nelder_mead(objective, x0, step=step, tol=tol, max_iter=max_iter)
    fitted = _unpack_blocks(report.argmin, model0, blocks)
    return fitted, report
