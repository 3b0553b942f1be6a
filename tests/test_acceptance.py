"""Release acceptance checks, one test per criterion.

Each test prints a single verdict line (visible under pytest -s) and enforces
its own wall-clock budget, so this file alone is a meaningful release gate:

    pytest tests/test_acceptance.py -s
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from grid_oracle import grid_posterior, random_scalar_model
from ssmkit import (
    DiscreteHMM,
    LinearGaussianModel,
    ObservationSeries,
    SeededGenerator,
    backward_smooth,
    baum_welch_step,
    bootstrap_filter,
    dobrushin_coefficient,
    exact_posterior_enumeration,
    fit_decay_rate,
    fit_em,
    fit_mle,
    fixed_lag_smoother,
    forgetting_curve,
    forward_filter,
    kalman_filter,
    lgssm_as_generic,
    multinomial_resample,
    pf_loglik,
    rts_smoother,
    run_command,
    simulate_hmm,
    simulate_lgssm,
    tv_distance,
    viterbi,
    write_model,
    write_series,
)

BENCH = DiscreteHMM([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[0.8, 0.2], [0.3, 0.7]])
SCALAR_LG = LinearGaussianModel(
    A=[[0.9]], C=[[1.0]], Q=[[0.19]], R=[[0.5]], mu0=[0.0], Sigma0=[[1.0]]
)


@contextmanager
def criterion(number, label, budget_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"acceptance {number}/8 {label}: FAIL "
              f"({time.perf_counter() - t0:.1f}s)", flush=True)
        raise
    elapsed = time.perf_counter() - t0
    ok = budget_s is None or elapsed < budget_s
    print(f"acceptance {number}/8 {label}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.1f}s)", flush=True)
    assert ok, f"{label} exceeded the {budget_s}s budget: {elapsed:.1f}s"


def stochastic_rows(rng, n, width, floor=0.0):
    # floor > 0 guarantees every entry >= floor while rows still sum to one
    return floor + (1.0 - width * floor) * rng.dirichlet(np.ones(width), size=n)


def random_hmm(rng, k, m, floor=0.0):
    return DiscreteHMM(
        stochastic_rows(rng, 1, k, floor)[0],
        stochastic_rows(rng, k, k, floor),
        stochastic_rows(rng, k, m, floor),
    )


def test_criterion_1_discrete_recursions_match_enumeration():
    with criterion(1, "discrete recursions vs enumeration", budget_s=10.0):
        rng = np.random.default_rng(11001)
        for _ in range(200):
            k = int(rng.integers(2, 5))
            m = int(rng.integers(2, 4))
            T = int(rng.integers(1, 9))
            model = random_hmm(rng, k, m)
            obs = ObservationSeries(rng.integers(0, m, size=T), kind="symbolic")
            exact = exact_posterior_enumeration(model, obs)
            fwd = forward_filter(model, obs)
            smooth = backward_smooth(model, obs, fwd)
            path, _ = viterbi(model, obs)
            np.testing.assert_allclose(fwd.filtered, exact.filtered, rtol=0, atol=1e-10)
            np.testing.assert_allclose(smooth.smoothed, exact.smoothed, rtol=0, atol=1e-10)
            assert fwd.log_likelihood == pytest.approx(exact.log_likelihood, abs=1e-10)
            np.testing.assert_array_equal(path.states, exact.map_path)


def test_criterion_2_kalman_matches_grid_quadrature():
    with criterion(2, "kalman filter and smoother vs grid quadrature", budget_s=60.0):
        rng = np.random.default_rng(22001)
        for _ in range(20):
            a, q, c, r, mu0, sigma0 = random_scalar_model(rng)
            T = int(rng.integers(1, 11))
            model = LinearGaussianModel(
                A=[[a]], C=[[c]], Q=[[q]], R=[[r]], mu0=[mu0], Sigma0=[[sigma0]]
            )
            _, obs = simulate_lgssm(model, T, SeededGenerator(int(rng.integers(1 << 30))))
            f_mean, f_var, s_mean, s_var, _ = grid_posterior(
                a, q, c, r, mu0, sigma0, obs.values[:, 0]
            )
            kf = kalman_filter(model, obs)
            sm = rts_smoother(model, kf)
            np.testing.assert_allclose(kf.filtered_means[:, 0], f_mean, rtol=0, atol=1e-4)
            np.testing.assert_allclose(kf.filtered_covs[:, 0, 0], f_var, rtol=0, atol=1e-4)
            np.testing.assert_allclose(sm.smoothed_means[:, 0], s_mean, rtol=0, atol=1e-4)
            np.testing.assert_allclose(sm.smoothed_covs[:, 0, 0], s_var, rtol=0, atol=1e-4)


def test_criterion_3_particle_filter_consistency():
    with criterion(3, "particle filter tracks the exact filter", budget_s=120.0):
        _, obs = simulate_lgssm(SCALAR_LG, 50, SeededGenerator(33001))
        kf = kalman_filter(SCALAR_LG, obs)
        generic = lgssm_as_generic(SCALAR_LG)

        def rmse(n_particles, seed):
            result = bootstrap_filter(generic, obs, n_particles, SeededGenerator(seed))
            gap = result.filtered_means[:, 0] - kf.filtered_means[:, 0]
            return float(np.sqrt(np.mean(gap**2)))

        assert rmse(100_000, 33002) < 0.05

        mean, stderr = pf_loglik(generic, obs, 10_000, 20, 33003)
        assert abs(mean - kf.log_likelihood) < 4.0 * stderr

        errors = [rmse(100, 33004), rmse(1000, 33005), rmse(10_000, 33006)]
        assert errors[0] > errors[1] > errors[2], errors


def test_criterion_4_em_monotone_and_recovers_benchmark():
    with criterion(4, "EM monotone traces and benchmark recovery", budget_s=30.0):
        rng = np.random.default_rng(44002)
        for _ in range(25):
            k = int(rng.integers(2, 4))
            m = int(rng.integers(2, 4))
            truth = random_hmm(rng, k, m)
            _, obs = simulate_hmm(truth, 60, SeededGenerator(int(rng.integers(1 << 30))))
            model = random_hmm(rng, k, m)
            trace = []
            for _ in range(15):
                step = baum_welch_step(model, obs)
                trace.append(step.log_likelihood)
                model = step.model
            assert np.all(np.diff(trace) >= -1e-9)

        _, obs = simulate_hmm(BENCH, 5000, SeededGenerator(44001))
        start = DiscreteHMM([0.5, 0.5], [[0.7, 0.3], [0.3, 0.7]], [[0.7, 0.3], [0.4, 0.6]])
        fitted, trace = fit_em(start, obs, tol=1e-5, max_iter=300)
        assert np.all(np.diff(trace) >= -1e-9)
        order = np.argsort(-fitted.emission[:, 0])
        recovered = fitted.transition[np.ix_(order, order)]
        np.testing.assert_allclose(recovered, BENCH.transition, rtol=0, atol=0.05)


def test_criterion_5_mle_cross_checks():
    with criterion(5, "direct MLE vs closed form and vs EM", budget_s=60.0):
        rng = np.random.default_rng(55001)
        y = 1.3 + np.sqrt(0.7) * rng.standard_normal(500)
        obs = ObservationSeries(y[:, None], kind="real")
        # A=1, Q=0, Sigma0=0 pins the state at mu0, so y is iid N(mu0, R)
        template = LinearGaussianModel(
            A=[[1.0]], C=[[1.0]], Q=[[0.0]], R=[[1.0]], mu0=[0.0], Sigma0=[[0.0]]
        )
        fitted, _ = fit_mle(template, obs, tol=1e-10, free_blocks=("R", "mu0"))
        closed_form = float(np.mean((y - y.mean()) ** 2))
        assert abs(fitted.R[0, 0] - closed_form) <= 0.05 * closed_form

        _, sym_obs = simulate_hmm(BENCH, 200, SeededGenerator(55002))
        start = DiscreteHMM([0.5, 0.5], [[0.7, 0.3], [0.3, 0.7]], [[0.7, 0.3], [0.3, 0.7]])
        em_model, _ = fit_em(start, sym_obs, tol=1e-8, max_iter=300)
        mle_model, _ = fit_mle(start, sym_obs, tol=1e-9, max_iter=4000)
        em_ll = forward_filter(em_model, sym_obs).log_likelihood
        mle_ll = forward_filter(mle_model, sym_obs).log_likelihood
        assert abs(mle_ll - em_ll) < 0.5


def test_criterion_6_filter_forgets_its_prior():
    with criterion(6, "exponential forgetting of the prior", budget_s=30.0):
        rng = np.random.default_rng(66001)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            transition = stochastic_rows(rng, k, k)
            model = DiscreteHMM(
                np.full(k, 1.0 / k), transition, np.full((k, 3), 1.0 / 3.0)
            )
            obs = ObservationSeries(rng.integers(0, 3, size=40), kind="symbolic")
            pa = rng.dirichlet(np.ones(k))
            pb = rng.dirichlet(np.ones(k))
            curve = forgetting_curve(model, obs, pa, pb)
            delta = dobrushin_coefficient(transition)
            # uninformative emissions make each update a pure prediction step
            assert np.all(curve.tv[1:] <= delta * curve.tv[:-1] + 1e-12)

        rng = np.random.default_rng(66002)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            m = int(rng.integers(2, 4))
            model = random_hmm(rng, k, m, floor=0.05)
            _, obs = simulate_hmm(model, 300, SeededGenerator(int(rng.integers(1 << 30))))
            pa = np.zeros(k)
            pa[0] = 1.0
            pb = np.zeros(k)
            pb[-1] = 1.0
            curve = forgetting_curve(model, obs, pa, pb)
            assert curve.rho_hat is not None and curve.rho_hat < 1.0
            assert curve.tv[-1] < 1e-4

        exact = 0.5 * 0.8 ** np.arange(60.0)
        assert fit_decay_rate(exact, (10, 50)) == pytest.approx(0.8, abs=1e-10)


def test_criterion_7_performance_floor():
    with criterion(7, "performance floor"):
        rng = np.random.default_rng(77001)
        hmm = random_hmm(rng, 10, 5, floor=0.01)
        _, obs = simulate_hmm(hmm, 10_000, SeededGenerator(77002))
        t0 = time.perf_counter()
        forward_filter(hmm, obs)
        filter_s = time.perf_counter() - t0
        assert filter_s < 1.0, f"forward_filter K=10 T=1e4 took {filter_s:.2f}s"

        _, obs = simulate_lgssm(SCALAR_LG, 1000, SeededGenerator(77003))
        generic = lgssm_as_generic(SCALAR_LG)
        t0 = time.perf_counter()
        bootstrap_filter(generic, obs, 10_000, SeededGenerator(77004))
        particle_s = time.perf_counter() - t0
        assert particle_s < 10.0, f"bootstrap_filter N=1e4 T=1e3 took {particle_s:.2f}s"

        _, obs = simulate_lgssm(SCALAR_LG, 10_000, SeededGenerator(77005))
        t0 = time.perf_counter()
        rts_smoother(SCALAR_LG, kalman_filter(SCALAR_LG, obs))
        kalman_s = time.perf_counter() - t0
        assert kalman_s < 0.15, f"scalar kalman_filter + rts_smoother T=1e4 took {kalman_s:.3f}s"


def test_criterion_8_determinism(tmp_path, capsys):
    with criterion(8, "byte reproducibility of seeded runs"):
        g1, g2 = SeededGenerator(88001), SeededGenerator(88001)
        assert g1.uniforms(64).tobytes() == g2.uniforms(64).tobytes()
        assert g1.normals(64).tobytes() == g2.normals(64).tobytes()
        assert g1.integers(64, 1000).tobytes() == g2.integers(64, 1000).tobytes()
        d1 = g1.derive("stream", 3).uniforms(16)
        d2 = g2.derive("stream", 3).uniforms(16)
        assert d1.tobytes() == d2.tobytes()

        runs = []
        for _ in range(2):
            states, obs = simulate_hmm(BENCH, 30, SeededGenerator(88002))
            runs.append((states.states.tobytes(), obs.values.tobytes()))
        assert runs[0] == runs[1]

        runs = []
        for _ in range(2):
            states, obs = simulate_lgssm(SCALAR_LG, 30, SeededGenerator(88003))
            runs.append((states.states.tobytes(), obs.values.tobytes()))
        assert runs[0] == runs[1]
        _, lg_obs = simulate_lgssm(SCALAR_LG, 30, SeededGenerator(88003))

        idx1 = multinomial_resample([0.2, 0.5, 0.3], SeededGenerator(88004), n=50)
        idx2 = multinomial_resample([0.2, 0.5, 0.3], SeededGenerator(88004), n=50)
        assert idx1.tobytes() == idx2.tobytes()

        generic = lgssm_as_generic(SCALAR_LG)
        runs = []
        for _ in range(2):
            pf = bootstrap_filter(generic, lg_obs, 500, SeededGenerator(88005))
            runs.append(
                (
                    pf.filtered_means.tobytes(),
                    pf.ess_trace.tobytes(),
                    pf.log_likelihood_estimate,
                    tuple(pf.resample_events),
                    pf.final_set.particles.tobytes(),
                    pf.final_set.log_weights.tobytes(),
                )
            )
        assert runs[0] == runs[1]

        lag1 = fixed_lag_smoother(generic, lg_obs, 500, 4, SeededGenerator(88006))
        lag2 = fixed_lag_smoother(generic, lg_obs, 500, 4, SeededGenerator(88006))
        assert lag1.tobytes() == lag2.tobytes()

        assert pf_loglik(generic, lg_obs, 400, 5, 88007) == pf_loglik(
            generic, lg_obs, 400, 5, 88007
        )

        hmm_path = str(tmp_path / "hmm.json")
        lg_path = str(tmp_path / "lg.json")
        write_model(hmm_path, BENCH)
        write_model(lg_path, SCALAR_LG)
        _, hmm_obs = simulate_hmm(BENCH, 25, SeededGenerator(88008))
        hmm_data = str(tmp_path / "symbols.csv")
        write_series(hmm_data, hmm_obs)
        lg_data = str(tmp_path / "readings.csv")
        write_series(lg_data, lg_obs)

        out = str(tmp_path / "out.csv")
        commands = [
            ["simulate", "--model", hmm_path, "--T", "40", "--seed", "9", "--out", out],
            ["filter", "--model", hmm_path, "--data", hmm_data, "--out", out],
            ["smooth", "--model", hmm_path, "--data", hmm_data, "--out", out],
            ["loglik", "--model", hmm_path, "--data", hmm_data],
            ["predict", "--model", hmm_path, "--data", hmm_data, "--k", "3", "--out", out],
            ["fit", "--model", hmm_path, "--data", hmm_data, "--method", "em",
             "--tol", "1e-4", "--max-iter", "50", "--out", str(tmp_path / "fit.json")],
            ["pf", "--model", lg_path, "--data", lg_data, "--particles", "500",
             "--seed", "3", "--threshold", "0.5", "--scheme", "systematic", "--out", out],
            ["forget", "--model", hmm_path, "--data", hmm_data,
             "--prior-a", "1,0", "--prior-b", "0,1", "--out", out],
        ]
        for argv in commands:
            snapshots = []
            for _ in range(2):
                assert run_command(argv) == 0
                summary = capsys.readouterr().out
                written = b""
                if "--out" in argv:
                    target = argv[argv.index("--out") + 1]
                    with open(target, "rb") as handle:
                        written = handle.read()
                snapshots.append((summary, written))
            assert snapshots[0] == snapshots[1], argv[0]
