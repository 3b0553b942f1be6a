"""Learning model parameters from data: EM and direct likelihood search.

First Baum-Welch EM recovers a two-state chain from 4000 symbols alone,
starting from a deliberately vague guess. Then the derivative-free
optimizer fits a static Gaussian model where the answer is known in
closed form, so both routes can be checked against ground truth.
"""

import numpy as np

from ssmkit import (
    DiscreteHMM,
    LinearGaussianModel,
    ObservationSeries,
    SeededGenerator,
    fit_em,
    fit_mle,
    forward_filter,
    simulate_hmm,
)

truth = DiscreteHMM(
    initial=[0.5, 0.5],
    transition=[[0.9, 0.1], [0.2, 0.8]],
    emission=[[0.8, 0.2], [0.3, 0.7]],
)


def main():
    _, obs = simulate_hmm(truth, 4000, SeededGenerator(41))
    start = DiscreteHMM(
        [0.5, 0.5], [[0.6, 0.4], [0.4, 0.6]], [[0.6, 0.4], [0.45, 0.55]]
    )

    print(f"start log-likelihood: {forward_filter(start, obs).log_likelihood:.2f}")
    fitted, trace = fit_em(start, obs, tol=1e-4, max_iter=200)
    print(f"after {len(trace) - 1} EM sweeps:  {trace[-1]:.2f} "
          f"(truth scores {forward_filter(truth, obs).log_likelihood:.2f})")

    # EM cannot know which label is which, so order states before comparing.
    order = np.argsort(-fitted.emission[:, 0])
    print("\nrecovered transition rows (truth in parentheses):")
    for i, row in enumerate(fitted.transition[np.ix_(order, order)]):
        shown = "  ".join(f"{v:.3f} ({t:.2f})" for v, t in zip(row, truth.transition[i]))
        print(f"  state {i}:  {shown}")

    rng = np.random.default_rng(42)
    y = 2.5 + 1.2 * rng.standard_normal(800)
    series = ObservationSeries(y[:, None], kind="real")
    # A=1, Q=0, Sigma0=0 freezes the state at mu0: the data are iid
    # N(mu0, R) and the likelihood surface has a closed-form optimum.
    template = LinearGaussianModel(
        A=[[1.0]], C=[[1.0]], Q=[[0.0]], R=[[1.0]], mu0=[0.0], Sigma0=[[0.0]]
    )
    fitted_lg, report = fit_mle(template, series, tol=1e-10, free_blocks=("R", "mu0"))
    print(f"\nstatic Gaussian fit ({report.iterations} accepted steps, "
          f"converged: {report.converged})")
    print(f"  mean      fitted {fitted_lg.mu0[0]:.4f}   closed form {y.mean():.4f}")
    print(f"  variance  fitted {fitted_lg.R[0, 0]:.4f}   "
          f"closed form {np.mean((y - y.mean()) ** 2):.4f}")


if __name__ == "__main__":
    main()
