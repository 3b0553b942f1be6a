"""Command-line interface.

Each subcommand reads a model document (JSON) and, where applicable, a
series file (CSV), writes CSV or JSON output through atomic renames, and
prints a single-line JSON summary to standard output.  Exit codes: 0
success, 1 usage error, 2 model or data error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .errors import DataFormatError, ModelValidationError, NumericalError
from .estimation import fit_mle
from .forgetting import dobrushin_coefficient, forgetting_curve
from .hmm import backward_smooth, fit_em, forward_filter, predict_states
from .io import parse_model, read_series, write_model, write_series, write_table
from .kalman import kalman_filter, kalman_predict, rts_smoother
from .models import DiscreteHMM, LinearGaussianModel
from . import particle
from .particle import bootstrap_filter, lgssm_as_generic
from .rng import SeededGenerator
from .simulate import simulate_hmm, simulate_lgssm

__all__ = ["run_command", "main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through the usage
    # error path instead so the documented exit code 1 applies.
    def error(self, message):
        raise ValueError(message)


# Parsing leaves the parser unchanged, so one parser serves every command
# run in a process instead of being rebuilt for each.
@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    parser = _Parser(prog="ssmkit", description="state-space model inference")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample a series from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--T", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True)

    for name, blurb in (
        ("filter", "filtered state distributions"),
        ("smooth", "smoothed state distributions"),
        ("loglik", "exact log-likelihood"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--model", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--out", default=None)

    p = sub.add_parser("predict", help="push the final filter k steps ahead")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit", help="fit parameters by EM or direct MLE")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=("em", "mle"), default=None)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--out", required=True)

    p = sub.add_parser("pf", help="bootstrap particle filter")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--particles", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--scheme", choices=("systematic", "multinomial"), default="systematic")
    p.add_argument("--lag", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("forget", help="filter forgetting curve from two priors")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--prior-a", required=True)
    p.add_argument("--prior-b", required=True)
    p.add_argument("--out", required=True)
    return parser


def _summary(payload: dict) -> None:
    print(json.dumps(payload))


def _probability_header(k: int) -> list[str]:
    return ["t"] + [f"p{i}" for i in range(1, k + 1)]


def _gaussian_header(d_x: int) -> list[str]:
    header = ["t"] + [f"m{i}" for i in range(1, d_x + 1)]
    header += [f"P{i}{j}" for i in range(1, d_x + 1) for j in range(1, d_x + 1)]
    return header


def _gaussian_table(means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """One row per step: the mean, then the covariance in row-major order."""
    return np.hstack([means, covs.reshape(len(covs), -1)])


def _parse_prior(text: str, flag: str) -> np.ndarray:
    try:
        return np.array([float(cell) for cell in text.split(",")])
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _cmd_simulate(args, model, _) -> int:
    if args.T < 1:
        raise ValueError("--T must be at least 1")
    rng = SeededGenerator(args.seed)
    if isinstance(model, DiscreteHMM):
        _, obs = simulate_hmm(model, args.T, rng)
    else:
        _, obs = simulate_lgssm(model, args.T, rng)
    write_series(args.out, obs)
    _summary(
        {
            "command": "simulate",
            "T": args.T,
            "seed": args.seed,
            "kind": obs.kind,
            "out": args.out,
        }
    )
    return 0


def _cmd_posterior(args, model, obs) -> int:
    """filter and smooth: one row of state probabilities or moments per step."""
    smooth = args.command == "smooth"
    if isinstance(model, DiscreteHMM):
        forward = forward_filter(model, obs)
        table = backward_smooth(model, obs, forward).smoothed if smooth else forward.filtered
        header = _probability_header(model.K)
    else:
        forward = kalman_filter(model, obs)
        if smooth:
            result = rts_smoother(model, forward)
            means, covs = result.smoothed_means, result.smoothed_covs
        else:
            means, covs = forward.filtered_means, forward.filtered_covs
        header = _gaussian_header(model.d_x)
        table = _gaussian_table(means, covs)
    if args.out:
        write_table(args.out, header, table)
    _summary({"command": args.command, "log_likelihood": forward.log_likelihood, "out": args.out})
    return 0


def _cmd_predict(args, model, obs) -> int:
    if args.k < 1:
        raise ValueError("--k must be at least 1")
    if isinstance(model, DiscreteHMM):
        forward = forward_filter(model, obs)
        table = predict_states(model, forward.filtered[-1], args.k)
        header = _probability_header(model.K)
    else:
        forward = kalman_filter(model, obs)
        ahead = kalman_predict(
            model, forward.filtered_means[-1], forward.filtered_covs[-1], args.k
        )
        header = _gaussian_header(model.d_x)
        table = _gaussian_table(np.array([m for m, _ in ahead]), np.array([p for _, p in ahead]))
    write_table(args.out, header, table, first_t=len(obs) + 1)
    _summary(
        {
            "command": "predict",
            "log_likelihood": forward.log_likelihood,
            "k": args.k,
            "out": args.out,
        }
    )
    return 0


def _cmd_loglik(args, model, obs) -> int:
    if isinstance(model, DiscreteHMM):
        forward = forward_filter(model, obs)
        increments = forward.log_normalizers
    else:
        forward = kalman_filter(model, obs)
        increments = forward.log_increments
    if args.out:
        write_table(args.out, ["t", "log_increment"], increments)
    _summary(
        {
            "command": "loglik",
            "log_likelihood": forward.log_likelihood,
            "T": len(obs),
            "out": args.out,
        }
    )
    return 0


def _cmd_fit(args, model, obs) -> int:
    method = args.method
    if method is None:
        method = "em" if isinstance(model, DiscreteHMM) else "mle"
    if not args.tol > 0:
        raise ValueError("--tol must be positive")
    if args.max_iter < 1:
        raise ValueError("--max-iter must be at least 1")
    if method == "em":
        if not isinstance(model, DiscreteHMM):
            raise ValueError(
                "EM fitting covers discrete models only; use --method mle"
            )
        fitted, trace, forward = fit_em(
            model, obs, tol=args.tol, max_iter=args.max_iter, _with_forward=True
        )
        log_likelihood = forward.log_likelihood
        # The trace gains an entry per accepted step after the initial one,
        # so it holds max_iter + 1 entries when the limit binds.
        iterations = min(len(trace), args.max_iter)
        converged = len(trace) <= args.max_iter
    else:
        fitted, report = fit_mle(model, obs, tol=args.tol, max_iter=args.max_iter)
        log_likelihood = -report.final_value
        iterations = report.iterations
        converged = report.converged
    write_model(args.out, fitted)
    _summary(
        {
            "command": "fit",
            "method": method,
            "log_likelihood": log_likelihood,
            "iterations": iterations,
            "converged": converged,
            "out": args.out,
        }
    )
    return 0


def _cmd_pf(args, model, obs) -> int:
    if not isinstance(model, LinearGaussianModel):
        raise ModelValidationError(
            "pf requires a linear_gaussian model document; generic models are "
            "reachable through the library interface only"
        )
    if args.particles < 1:
        raise ValueError("--particles must be at least 1")
    if not 0.0 < args.threshold <= 1.0:
        raise ValueError("--threshold must lie in (0, 1]")
    if args.lag is not None and args.lag < 0:
        raise ValueError("--lag must be non-negative")
    generic = lgssm_as_generic(model)
    rng = SeededGenerator(args.seed)
    if args.lag is None:
        result = bootstrap_filter(
            generic,
            obs,
            args.particles,
            rng,
            resample_threshold=args.threshold,
            scheme=args.scheme,
        )
        header = ["t"] + [f"m{i}" for i in range(1, model.d_x + 1)] + ["ess"]
        table = np.column_stack([result.filtered_means, result.ess_trace])
    else:
        # One filter run serves both the smoothed rows and the summary.
        result, table = particle._run_filter(
            generic, obs, args.particles, rng, args.threshold, args.scheme, args.lag
        )
        header = ["t"] + [f"m{i}" for i in range(1, model.d_x + 1)]
    write_table(args.out, header, table)
    _summary(
        {
            "command": "pf",
            "log_likelihood": result.log_likelihood_estimate,
            "particles": args.particles,
            "seed": args.seed,
            "resample_count": len(result.resample_events),
            "lag": args.lag,
            "out": args.out,
        }
    )
    return 0


def _cmd_forget(args, model, obs) -> int:
    if not isinstance(model, DiscreteHMM):
        raise ModelValidationError("forget requires a discrete_hmm model document")
    prior_a = _parse_prior(args.prior_a, "--prior-a")
    prior_b = _parse_prior(args.prior_b, "--prior-b")
    K = model.initial.shape[0]
    for flag, prior in (("--prior-a", prior_a), ("--prior-b", prior_b)):
        if prior.shape[0] != K:
            raise ValueError(f"{flag} must have {K} entries, got {prior.shape[0]}")
    curve = forgetting_curve(model, obs, prior_a, prior_b)
    write_table(args.out, ["t", "tv"], curve.tv)
    _summary(
        {
            "command": "forget",
            "rho_hat": curve.rho_hat,
            "fit_window": list(curve.fit_window),
            "dobrushin": dobrushin_coefficient(model.transition),
            "out": args.out,
        }
    )
    return 0


_DISPATCH = {
    "simulate": _cmd_simulate,
    "filter": _cmd_posterior,
    "smooth": _cmd_posterior,
    "predict": _cmd_predict,
    "loglik": _cmd_loglik,
    "fit": _cmd_fit,
    "pf": _cmd_pf,
    "forget": _cmd_forget,
}


def run_command(argv: list[str]) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        model = parse_model(args.model)
        obs = read_series(args.data) if "data" in args else None
        return _DISPATCH[args.command](args, model, obs)
    except SystemExit as exc:  # --help
        code = exc.code
        return int(code) if code is not None else 0
    except NumericalError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 3
    except (DataFormatError, ModelValidationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
