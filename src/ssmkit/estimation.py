"""Maximum-likelihood estimation through unconstrained coordinates.

Models map bijectively to real vectors: each probability row drops to K-1
log-ratios against its last entry (the softmax inverse), and each
covariance maps to its Cholesky factor with logged diagonal.  Both
transforms cover only the interior of the parameter space; boundary models
(zero probabilities, singular covariances) are rejected and must be fit by
EM instead.  One objective (_objective) owns which trial points score +inf.

Every family is fit by BFGS quasi-Newton descent on its exact score, the
log-likelihood gradient: for an HMM from the expected counts of one
backward pass (the Fisher identity), for a linear-Gaussian model from one
adjoint (disturbance smoother) pass over the filter's moments.  Each
block maps its field's share of the score to its own coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import (
    BoundaryParameterError,
    ModelValidationError,
    NumericalError,
    SimplexInitError,
)
from .hmm import _check_symbols, _expected_counts, backward_smooth, forward_filter
from .kalman import _adjoint, _check_rows, kalman_filter
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


@dataclass(frozen=True)
class _Block:
    """One block of a family's coordinates: its coordinate count for the
    family's shape, the map from its model field (and the field's name) to
    coordinates, the map back from coordinates and shape, and the map from
    the family's score for the field (and the field) to the log-likelihood
    gradient in the block's coordinates."""

    size: Callable[..., int]
    to_coords: Callable[[np.ndarray, str], np.ndarray]
    from_coords: Callable[..., np.ndarray]
    gradient: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class _Family:
    """A model family: its class, its shape, the observation kind and check,
    the filter of its likelihood, its score (model, series and filter pass to
    what each block's gradient map reads, keyed by model field), and its
    coordinate blocks in layout order, keyed by the model field each one
    holds."""

    cls: type
    shape: Callable[[Any], tuple[int, int]]
    kind: str
    check: Callable[[ObservationSeries, int], np.ndarray]
    filter: Callable
    score: Callable
    blocks: dict[str, _Block]


def _row_to_coords(row: np.ndarray, name: str) -> np.ndarray:
    if np.any(row <= 0.0):
        raise BoundaryParameterError(
            f"{name} has zero entries; the unconstrained transform covers "
            "only strictly positive probabilities"
        )
    return np.log(row[:-1] / row[-1])


def _rows_to_coords(mat: np.ndarray, name: str) -> np.ndarray:
    return np.concatenate([_row_to_coords(row, f"{name} row {i}") for i, row in enumerate(mat)])


def _coords_to_rows(coords: np.ndarray, k: int) -> np.ndarray:
    # Softmax of each of k rows, with 0 as the last log-ratio; the same
    # bytes as one row at a time.
    z = np.zeros((k, coords.shape[0] // k + 1))
    z[:, :-1] = coords.reshape(k, -1)
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


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
    # An extreme coordinate overflows the factor or its square to inf, or
    # NaN where inf meets zero or -inf; the model constructor rejects the
    # covariance, so the warnings would only reach the caller.
    with np.errstate(over="ignore", invalid="ignore"):
        lower = np.zeros((d, d))
        pos = 0
        for i in range(d):
            lower[i, :i] = coords[pos : pos + i]
            lower[i, i] = np.exp(coords[pos + i])
            pos += i + 1
        return symmetrize(lower @ lower.T)


def _cov_gradient(grad: np.ndarray, cov: np.ndarray) -> np.ndarray:
    # With cov = L L^T, d loglik = tr(G dcov) = tr(L^T (G + G^T) dL): the
    # gradient is (G + G^T) L below the diagonal and (G + G^T) L_ii L_ii in
    # each logged diagonal entry, in _cov_to_coords' order.
    lower = np.linalg.cholesky(cov)
    full = (grad + grad.T) @ lower
    out = []
    for i in range(len(full)):
        out.extend(full[i, :i])
        out.append(full[i, i] * lower[i, i])
    return np.array(out)


def _ravel(values: np.ndarray, _) -> np.ndarray:
    return values.ravel()


def _tri(d: int) -> int:
    return d * (d + 1) // 2


def _rows_score(counts: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # The gradient of sum_j c_j log p_j in each row's log-ratios: c - n p,
    # with n the row's total count, last column dropped.
    return (counts - counts.sum(axis=1, keepdims=True) * rows)[:, :-1].ravel()


def _hmm_score(model: DiscreteHMM, obs: ObservationSeries, forward) -> dict[str, np.ndarray]:
    # Fisher identity: the log-likelihood gradient is the expected gradient
    # of the complete-data log-likelihood, whose counts one backward pass
    # gives (Cappe, Moulines & Ryden 2005, ch. 10).
    smooth = backward_smooth(model, obs, forward)
    first, transitions, emissions = _expected_counts(model, obs.values, smooth)
    return {"initial": first, "transition": transitions, "emission": emissions}


def _rows_block(size: Callable[[int, int], int]) -> _Block:
    """A block of K probability rows, size(K, M) coordinates in all."""
    return _Block(size, _rows_to_coords, lambda v, k, m: _coords_to_rows(v, k), _rows_score)


def _cov_block(side: Callable[[int, int], int]) -> _Block:
    """A covariance block whose side is side(d_x, d_y)."""
    return _Block(
        lambda x, y: _tri(side(x, y)),
        _cov_to_coords,
        lambda v, x, y: _coords_to_cov(v, side(x, y)),
        _cov_gradient,
    )


# Block sizes and inverse maps take the shape, (K, M) or (d_x, d_y).  An HMM
# block's gradient reads the field's expected counts, a linear-Gaussian
# block's the gradient in the field's entries.  The filters and the passes
# of the scores are looked up at call time, so a wrapped module binding sees
# every likelihood evaluation.
_FAMILIES = {
    "discrete-hmm": _Family(
        DiscreteHMM,
        lambda model: (model.K, model.M),
        "symbolic",
        _check_symbols,
        lambda model, obs: forward_filter(model, obs),
        _hmm_score,
        {
            "initial": _Block(
                lambda k, m: k - 1,
                _row_to_coords,
                lambda v, k, m: _coords_to_rows(v, 1)[0],
                lambda counts, row: _rows_score(counts[None], row[None]),
            ),
            "transition": _rows_block(lambda k, m: k * (k - 1)),
            "emission": _rows_block(lambda k, m: k * (m - 1)),
        },
    ),
    "linear-gaussian": _Family(
        LinearGaussianModel,
        lambda model: (model.d_x, model.d_y),
        "real",
        _check_rows,
        lambda model, obs: kalman_filter(model, obs),
        lambda model, obs, forward: _adjoint(model, obs.values, forward),
        {
            "A": _Block(lambda x, y: x * x, _ravel, lambda v, x, y: v.reshape(x, x), _ravel),
            "C": _Block(lambda x, y: y * x, _ravel, lambda v, x, y: v.reshape(y, x), _ravel),
            "Q": _cov_block(lambda x, y: x),
            "R": _cov_block(lambda x, y: y),
            "mu0": _Block(lambda x, y: x, _ravel, lambda v, x, y: v, _ravel),
            "Sigma0": _cov_block(lambda x, y: x),
        },
    ),
}

HMM_BLOCKS = tuple(_FAMILIES["discrete-hmm"].blocks)
LGSSM_BLOCKS = tuple(_FAMILIES["linear-gaussian"].blocks)


def _family(name) -> _Family:
    if isinstance(name, str) and name in _FAMILIES:
        return _FAMILIES[name]
    raise ValueError(f"unknown family {name!r}")


def _family_of(model, action: str) -> tuple[str, _Family]:
    for name, family in _FAMILIES.items():
        if isinstance(model, family.cls):
            return name, family
    raise ValueError(f"cannot {action} {type(model).__name__}")


def _layout(family: _Family, shape: tuple[int, int], names) -> list:
    """(name, block, start, stop) for each named block, placed one after
    another in the order given."""
    out, pos = [], 0
    for name in names:
        block = family.blocks[name]
        stop = pos + block.size(*shape)
        out.append((name, block, pos, stop))
        pos = stop
    return out


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
        blocks = _family(self.family).blocks.values()
        expected = sum(block.size(*self.shape) for block in blocks)
        if v.shape[0] != expected:
            raise ValueError(
                f"{self.family} with shape {self.shape} needs {expected} "
                f"coordinates, got {v.shape[0]}"
            )
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class OptimizerReport:
    """Outcome of an optimizer run.  converged is simplex_spread < tol,
    reached before the iteration budget ran out.

    fit_mle (quasi-Newton on the exact score, for every family): iterations
    counts accepted steps, each of which lowered the objective, and
    simplex_spread is the larger of the last accepted decrease and the
    decrease g.Hg/2 that the next step predicts (0 where no step along the
    steepest descent lowers the value).  nelder_mead: iterations counts
    simplex updates and simplex_spread is the spread between the best and
    worst vertex values.
    """

    argmin: np.ndarray
    final_value: float
    iterations: int
    converged: bool
    simplex_spread: float


def _pack_blocks(model, layout) -> np.ndarray:
    parts = [block.to_coords(getattr(model, name), name) for name, block, _, _ in layout]
    return np.concatenate(parts) if parts else np.empty(0)


def _unpack_blocks(values: np.ndarray, family: _Family, shape, layout, fixed: dict):
    """Model from the coordinates of the blocks in layout; fixed holds the
    model fields of every other block."""
    free = {name: b.from_coords(values[i:j], *shape) for name, b, i, j in layout}
    return family.cls(**fixed, **free)


def pack(model) -> ParameterVector:
    """Unconstrained coordinates of a full interior model.

    Layout for an HMM: initial row-ratios, then each transition row, then
    each emission row.  For a linear-Gaussian model: A row-major, C
    row-major, Cholesky coordinates of Q, of R, then mu0, then Sigma0.
    """
    require_valid(model)
    name, family = _family_of(model, "pack")
    shape = family.shape(model)
    values = _pack_blocks(model, _layout(family, shape, family.blocks))
    return ParameterVector(values, name, shape)


def unpack(theta: ParameterVector):
    """Inverse of pack.  Extreme coordinates can overflow to non-finite
    parameters, which raise, or underflow to a singular R, which is invalid."""
    family = _family(theta.family)
    return _unpack_blocks(
        theta.values, family, theta.shape, _layout(family, theta.shape, family.blocks), {}
    )


def negative_loglik(theta: ParameterVector, obs: ObservationSeries) -> float:
    """Negative exact log-likelihood of the model encoded by theta.

    A theta that gives no valid model, or where the filter fails
    numerically (impossible observations, degenerate innovations), comes
    back as +inf so optimizers can step away from it instead of crashing.
    """
    family = _family(theta.family)
    if obs.kind != family.kind:
        raise ValueError(f"{theta.family} parameters require {family.kind} observations")
    layout = _layout(family, theta.shape, family.blocks)
    return _objective(family, theta.shape, layout, {}, obs)(theta.values)[0]


def _objective(family: _Family, shape, layout, fixed: dict, obs: ObservationSeries):
    """The pair of the negative log-likelihood of the coordinates of the
    blocks in layout, fixed holding the other fields, and a function that
    forms its gradient from the family's score, so that a caller pays for
    the score only at the points it keeps.  The series is checked first,
    once, so that its faults raise.  A point scores +inf where a
    constructor or require_valid rejects its model or the filter raises
    NumericalError; the gradient function returns None where the score
    raises NumericalError or a covariance has no Cholesky factor."""
    family.check(obs, shape[1])

    def negative_loglik(x: np.ndarray):
        try:
            model = _unpack_blocks(x, family, shape, layout, fixed)
            forward = family.filter(model, obs)
        except (ModelValidationError, NumericalError):
            return np.inf, lambda: None

        def score():
            try:
                stats = family.score(model, obs, forward)
                parts = [b.gradient(stats[name], getattr(model, name)) for name, b, *_ in layout]
                return -np.concatenate(parts)
            except (NumericalError, np.linalg.LinAlgError):
                return None

        return -forward.log_likelihood, score

    return negative_loglik


def _checked_start(x0, step: float, tol: float, max_iter: int) -> np.ndarray:
    if not step > 0:
        raise ValueError("step must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.size < 1:
        raise ValueError("x0 must be a nonempty vector")
    return x0


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
    x0 = _checked_start(x0, step, tol, max_iter)
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


def _quasi_newton(fg, x0, step: float, tol: float, max_iter: int) -> OptimizerReport:
    """BFGS descent on fg(x) -> (value, score), dense inverse Hessian H,
    where score() forms the gradient at x, or gives None where it cannot.

    Each step backtracks from the full step -H.g by halving until the
    Armijo test (c1 = 1e-4) passes; +inf and NaN fail it.  The gradient is
    formed only at a point that passes, and a point whose gradient is None
    or not finite is rejected as if it had failed.  A steepest descent
    trial (the first, and after each restart) moves at most step in any
    coordinate.  H restarts from the identity where -H.g is not a
    descent direction or no point along it passes; the first update after a
    (re)start scales H by s.y / y.y, and an update with s.y <= 0 is skipped.
    The run converges once the last accepted decrease and the predicted
    decrease g.Hg/2 are both below tol, and stops after max_iter accepted
    steps.  A start that scores +inf, or whose gradient is None, cannot
    start.
    """
    x = _checked_start(x0, step, tol, max_iter)
    f, score = fg(x)
    g = score() if f < np.inf else None
    if g is None:
        raise SimplexInitError("objective is +inf at the start point")
    identity = np.eye(x.shape[0])
    h, fresh = identity, True
    iterations, decrease = 0, np.inf
    while True:
        d = -(h @ g)
        slope = float(g @ d)
        if not (fresh or slope < 0.0):
            h, fresh = identity, True
            continue
        predicted = -0.5 * slope
        if (decrease < tol and predicted < tol) or iterations == max_iter:
            break
        accepted = False
        if -np.inf < slope < 0.0:
            t = min(1.0, step / float(np.max(np.abs(d)))) if fresh else 1.0
            while not accepted and np.any(x + t * d != x):
                trial = x + t * d
                f_trial, score = fg(trial)
                if f_trial <= f + 1e-4 * t * slope:
                    g_trial = score()
                    accepted = g_trial is not None and bool(np.isfinite(g_trial).all())
                t *= 0.5
        if not accepted:
            if fresh:
                # No point along the steepest descent lowers the value.
                decrease = 0.0
                break
            h, fresh = identity, True
            continue
        s, y = trial - x, g_trial - g
        sy = float(s @ y)
        if sy > 0.0:
            if fresh:
                h, fresh = (sy / float(y @ y)) * identity, False
            hy = h @ y
            h = h + ((sy + float(y @ hy)) / sy**2) * np.outer(s, s) - (
                np.outer(hy, s) + np.outer(s, hy)
            ) / sy
        decrease = f - f_trial
        x, f, g = trial, f_trial, g_trial
        iterations += 1
    spread = float(np.maximum(decrease, predicted))
    if np.isnan(spread):
        spread = np.inf
    return OptimizerReport(
        argmin=x.copy(),
        final_value=float(f),
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
    """Maximize the exact likelihood in coordinates.

    model0 fixes the family, the shapes, and the start point.  free_blocks
    selects which parameter blocks are optimized (default: all); blocks
    left out keep their values from model0, which allows boundary values
    such as a zero covariance to stay pinned while interior blocks move.
    The fitted model's log-likelihood never falls below the start's.

    Every family is fit by BFGS quasi-Newton descent on its exact score:
    each trial point runs the filter, and each accepted one the score's
    backward pass (the HMM's backward pass for the expected counts, or the
    linear-Gaussian adjoint pass).  step bounds the first trial move in
    every coordinate, max_iter bounds the accepted steps, and tol bounds
    both the last accepted decrease and the predicted one.  The report's
    fields are read as OptimizerReport describes.
    """
    require_valid(model0)
    name, family = _family_of(model0, "fit")
    if obs.kind != family.kind:
        raise ValueError(f"{name} fitting requires {family.kind} observations")
    all_blocks = tuple(family.blocks)
    blocks = all_blocks if free_blocks is None else tuple(free_blocks)
    for block in blocks:
        if block not in all_blocks:
            raise ValueError(f"unknown block {block!r} for family {name}")

    shape = family.shape(model0)
    layout = _layout(family, shape, blocks)
    x0 = _pack_blocks(model0, layout)
    if x0.size == 0:
        raise ValueError("no free blocks to optimize")
    fixed = {field: getattr(model0, field) for field in all_blocks if field not in blocks}
    objective = _objective(family, shape, layout, fixed, obs)
    report = _quasi_newton(objective, x0, step, tol, max_iter)
    fitted = _unpack_blocks(report.argmin, family, shape, layout, fixed)
    return fitted, report
