"""The four closed-loop workloads: inputs, jobs and per-job checks.

A workload is built from its seed into one cycle of jobs.  A job is one
user task (analyse a series, fit a model, one CLI invocation); its ``run``
calls into ssmkit only, and its ``check`` compares the output with values
computed in set-up.  Jobs look library functions up on the ``ssmkit``
module at call time, so a tracer that patches the module sees every call.
Each cycle replays the same inputs, so every cycle does the same work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import ssmkit as sk

import reference as ref

# Sizes at which each workload runs; "smoke" is the self-test and warm-up size.
SIZES = {
    "exact_long": {
        "full": dict(T=10_000, prefix=400, prefix6=80, k=20),
        "smoke": dict(T=60, prefix=30, prefix6=10, k=3),
    },
    "particle": {
        "full": dict(T=500, N=10_000, N6=2000, N_lag=1000, lag=100),
        "smoke": dict(T=40, N=1000, N6=200, N_lag=100, lag=5),
    },
    "fit": {
        "full": dict(T_em=2000, em_iter=30, T_hmm=200, hmm_iter=120, T_lg=300, rmu_iter=20,
                     aqr_iter=40),
        "smoke": dict(T_em=80, em_iter=3, T_hmm=40, hmm_iter=20, T_lg=40, rmu_iter=5,
                      aqr_iter=5),
    },
    "cli_mix": {
        "full": dict(T_hmm=2000, T_lg=500, N=200, k=20, em_iter=5),
        "smoke": dict(T_hmm=60, T_lg=40, N=50, k=3, em_iter=2),
    },
}

# How many standard deviations of the particle log-likelihood estimate a
# job may lie from the exact Kalman value, after adding back the estimate's
# known bias of -sigma^2/2.
PF_SIGMAS = 8.0

SCALAR_LG = dict(A=[[0.9]], C=[[1.0]], Q=[[0.19]], R=[[0.5]], mu0=[0.0], Sigma0=[[1.0]])
BENCH_HMM = dict(initial=[0.5, 0.5], transition=[[0.9, 0.1], [0.2, 0.8]],
                 emission=[[0.8, 0.2], [0.3, 0.7]])
EM_START = dict(initial=[0.5, 0.5], transition=[[0.7, 0.3], [0.3, 0.7]],
                emission=[[0.7, 0.3], [0.4, 0.6]])


@dataclass
class Job:
    kind: str
    steps: int
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    particles: int = 0


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    # Fitted minus start log-likelihood, appended by each fit job's check.
    gains: list[float] = field(default_factory=list)


def _close(a, b, rtol, atol=0.0) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b))
                       <= atol + rtol * np.abs(np.asarray(b))))


def _problems(*pairs) -> list[str]:
    """Messages of the (condition, message) pairs whose condition is false."""
    return [msg for ok, msg in pairs if not ok]


def _stable_lg(gen, d_x, d_y, rho):
    """Model with A = rho * orthogonal, so every mode decays at rate rho."""
    q, _ = np.linalg.qr(gen.standard_normal((d_x, d_x)))
    c = gen.standard_normal((d_y, d_x))
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    return sk.LinearGaussianModel(A=rho * q, C=c, Q=0.1 * np.eye(d_x), R=0.5 * np.eye(d_y),
                                  mu0=np.zeros(d_x), Sigma0=np.eye(d_x))


def _random_hmm(gen, K, M, stay):
    trans = stay * np.eye(K) + (1.0 - stay) * gen.dirichlet(np.ones(K), size=K)
    trans /= trans.sum(axis=1, keepdims=True)
    emis = gen.dirichlet(np.ones(M), size=K)
    emis /= emis.sum(axis=1, keepdims=True)
    return sk.DiscreteHMM(np.full(K, 1.0 / K), trans, emis)


def _hmm_ref(model, y) -> float:
    return ref.hmm_loglik(model.initial, model.transition, model.emission, y)


def _lg_ref(model, y) -> tuple[float, np.ndarray]:
    return ref.lg_prefix_reference(model.A, model.C, model.Q, model.R, model.mu0,
                                   model.Sigma0, y)


# ---------------------------------------------------------------- exact_long

def _hmm_analysis_job(model, obs, k) -> Job:
    y = obs.values
    ref_ll = _hmm_ref(model, y)

    def run():
        fwd = sk.forward_filter(model, obs)
        smooth = sk.backward_smooth(model, obs, fwd)
        path, log_joint = sk.viterbi(model, obs)
        ahead = sk.predict_states(model, fwd.filtered[-1], k)
        return fwd, smooth, path, log_joint, ahead

    def check(out):
        fwd, smooth, path, log_joint, ahead = out
        expected_ahead = [fwd.filtered[-1] @ np.linalg.matrix_power(model.transition, j)
                          for j in range(1, k + 1)]
        states = path.states
        return _problems(
            (_close(fwd.log_likelihood, ref_ll, 1e-9), "forward log-likelihood != reference"),
            (_close(fwd.filtered.sum(axis=1), 1.0, 0, 1e-9), "filtered rows do not sum to 1"),
            (_close(smooth.smoothed.sum(axis=1), 1.0, 0, 1e-9), "smoothed rows do not sum to 1"),
            (np.array_equal(smooth.smoothed[-1], fwd.filtered[-1]),
             "smoothed[T-1] != filtered[T-1]"),
            (states.shape == y.shape and states.min() >= 0 and states.max() < model.K,
             "viterbi path out of range"),
            (log_joint <= ref_ll + 1e-9 * abs(ref_ll), "viterbi log_joint > log-likelihood"),
            (_close(log_joint, ref.hmm_log_joint(model.initial, model.transition,
                                                 model.emission, states, y), 1e-9),
             "viterbi log_joint != log p(path, y)"),
            (_close(ahead, expected_ahead, 0, 1e-12), "predict_states != filtered @ A^j"),
        )

    return Job("hmm_analysis", len(y), run, check)


def _lg_analysis_job(kind, model, obs, prefix, k) -> Job:
    y = obs.values
    ref_ll, ref_mean = _lg_ref(model, y[:prefix])

    def run():
        kf = sk.kalman_filter(model, obs)
        smooth = sk.rts_smoother(model, kf)
        ahead = sk.kalman_predict(model, kf.filtered_means[-1], kf.filtered_covs[-1], k) \
            if k else []
        return kf, smooth, ahead

    def check(out):
        kf, smooth, ahead = out
        inc = ref.lg_increments(model.C, model.R, y, kf.predicted_means, kf.predicted_covs)
        filt_var = np.trace(kf.filtered_covs, axis1=1, axis2=2)
        smooth_var = np.trace(smooth.smoothed_covs, axis1=1, axis2=2)
        expected = ref.lg_predict(model.A, model.Q, kf.filtered_means[-1],
                                  kf.filtered_covs[-1], k)
        return _problems(
            (_close(inc.sum(), kf.log_likelihood, 1e-9),
             "log-likelihood != sum of predictive densities"),
            (_close(inc[:prefix].sum(), ref_ll, 1e-9),
             "prefix log-likelihood != joint-Gaussian reference"),
            (_close(kf.filtered_means[prefix - 1], ref_mean, 1e-8, 1e-9),
             "filtered mean != joint-Gaussian conditional mean"),
            (np.array_equal(smooth.smoothed_means[-1], kf.filtered_means[-1]),
             "smoothed[T-1] != filtered[T-1]"),
            (bool(np.all(smooth_var <= filt_var + 1e-9)), "smoothed variance > filtered"),
            (bool(np.all(np.isfinite(smooth.smoothed_means))), "smoothed means not finite"),
            (len(ahead) == k and all(_close(m, em, 1e-9, 1e-12) and _close(p, ep, 1e-9, 1e-12)
                                     for (m, p), (em, ep) in zip(ahead, expected)),
             "kalman_predict != iterated moments"),
        )

    return Job(kind, len(y), run, check)


def build_exact_long(seed, size, workdir) -> Workload:
    s = SIZES["exact_long"][size]
    gen = np.random.default_rng([seed, 1])
    root = sk.SeededGenerator(seed)
    hmm = _random_hmm(gen, 10, 5, stay=0.6)
    scalar = sk.LinearGaussianModel(**SCALAR_LG)
    six = _stable_lg(gen, 6, 3, rho=0.9)
    _, y_hmm = sk.simulate_hmm(hmm, s["T"], root.derive("exact_long", "hmm"))
    _, y1 = sk.simulate_lgssm(scalar, s["T"], root.derive("exact_long", "lg1"))
    _, y6 = sk.simulate_lgssm(six, s["T"], root.derive("exact_long", "lg6"))
    return Workload("exact_long", [
        _hmm_analysis_job(hmm, y_hmm, s["k"]),
        _lg_analysis_job("lg1_analysis", scalar, y1, s["prefix"], s["k"]),
        _lg_analysis_job("lg6_analysis", six, y6, s["prefix6"], 0),
    ])


# ------------------------------------------------------------------ particle

def _pf_sigma(model, obs, N, threshold, scheme, seed) -> float:
    """Standard deviation of one run's log-likelihood estimate at N.

    Measured with pf_loglik on the whole series at N/20 particles and
    scaled by the 1/N law for the variance of the estimate.  A prefix is
    not enough: a few hard observations carry much of the variance.
    """
    N_ref, reps = max(N // 20, 50), 6
    _, stderr = sk.pf_loglik(sk.lgssm_as_generic(model), obs, N_ref, reps, seed,
                             resample_threshold=threshold, scheme=scheme)
    return stderr * np.sqrt(reps) * np.sqrt(N_ref / N)


def _pf_job(kind, model, obs, N, threshold, scheme, kf, seed) -> Job:
    T = len(obs)
    sigma = _pf_sigma(model, obs, N, threshold, scheme, seed + 1000)
    filt_sd = np.sqrt(np.trace(kf.filtered_covs, axis1=1, axis2=2)).mean()

    def run():
        return sk.bootstrap_filter(sk.lgssm_as_generic(model), obs, N,
                                   sk.SeededGenerator(seed), resample_threshold=threshold,
                                   scheme=scheme)

    def check(out):
        rms = np.sqrt(np.mean((out.filtered_means - kf.filtered_means) ** 2))
        expected_events = [t + 1 for t in range(T)
                           if threshold >= 1.0 or out.ess_trace[t] < threshold * N]
        return _problems(
            (abs(out.log_likelihood_estimate + sigma**2 / 2 - kf.log_likelihood)
             <= PF_SIGMAS * sigma,
             f"particle log-likelihood more than {PF_SIGMAS} sd from the Kalman value"),
            (rms <= 0.15 * filt_sd, "particle means far from Kalman filtered means"),
            (bool(np.all((out.ess_trace > 0) & (out.ess_trace <= N * (1 + 1e-9)))),
             "ESS outside (0, N]"),
            (out.resample_events == expected_events, "resampling times do not follow ESS"),
        )

    return Job(kind, T, run, check, particles=N)


def _lag_job(model, obs, N, lag, smooth, seed) -> Job:
    smooth_sd = np.sqrt(np.trace(smooth.smoothed_covs, axis1=1, axis2=2)).mean()

    def run():
        return sk.fixed_lag_smoother(sk.lgssm_as_generic(model), obs, N, lag,
                                     sk.SeededGenerator(seed))

    def check(out):
        rms = np.sqrt(np.mean((out - smooth.smoothed_means) ** 2))
        return _problems(
            (out.shape == smooth.smoothed_means.shape, "smoother output has wrong shape"),
            (bool(rms <= 0.6 * smooth_sd), "fixed-lag means far from RTS smoothed means"),
        )

    return Job("fixed_lag", len(obs), run, check, particles=N)


def build_particle(seed, size, workdir) -> Workload:
    s = SIZES["particle"][size]
    gen = np.random.default_rng([seed, 2])
    root = sk.SeededGenerator(seed)
    scalar = sk.LinearGaussianModel(**SCALAR_LG)
    six = _stable_lg(gen, 6, 3, rho=0.9)
    _, y1 = sk.simulate_lgssm(scalar, s["T"], root.derive("particle", "lg1"))
    _, y6 = sk.simulate_lgssm(six, s["T"], root.derive("particle", "lg6"))
    kf1 = sk.kalman_filter(scalar, y1)
    kf6 = sk.kalman_filter(six, y6)
    smooth1 = sk.rts_smoother(scalar, kf1)
    base = int(gen.integers(1 << 30))
    return Workload("particle", [
        _pf_job("pf_systematic", scalar, y1, s["N"], 0.5, "systematic", kf1, base),
        _pf_job("pf_multinomial", scalar, y1, s["N"], 1.0, "multinomial", kf1, base + 1),
        _pf_job("pf_d6", six, y6, s["N6"], 0.5, "systematic", kf6, base + 2),
        _lag_job(scalar, y1, s["N_lag"], s["lag"], smooth1, base + 3),
    ])


# ----------------------------------------------------------------------- fit

def _em_job(wl, start, obs, max_iter) -> Job:
    y = obs.values
    start_ll = _hmm_ref(start, y)
    tol = 1e-5

    def run():
        return sk.fit_em(start, obs, tol=tol, max_iter=max_iter)

    def check(out):
        fitted, trace = out
        fitted_ll = _hmm_ref(fitted, y)
        wl.gains.append(fitted_ll - start_ll)
        return _problems(
            (_close(trace[0], start_ll, 1e-9), "EM trace does not start at the start model"),
            (bool(np.all(np.diff(trace) >= -1e-9)), "EM trace decreases"),
            (trace[-1] - 1e-6 <= fitted_ll < trace[-1] + tol + 1e-6,
             "fitted log-likelihood does not match the EM trace"),
            (fitted_ll >= start_ll, "fitted log-likelihood below the start's"),
        )

    return Job("fit_em", len(y), run, check)


def _mle_job(wl, kind, start, obs, free_blocks, max_iter, loglik) -> Job:
    start_ll = loglik(start)
    pinned = [] if free_blocks is None else [
        b for b in ("A", "C", "Q", "R", "mu0", "Sigma0") if b not in free_blocks]

    def run():
        return sk.fit_mle(start, obs, tol=1e-6, max_iter=max_iter, free_blocks=free_blocks)

    def check(out):
        fitted, report = out
        fitted_ll = loglik(fitted)
        wl.gains.append(fitted_ll - start_ll)
        return _problems(
            (_close(fitted_ll, -report.final_value, 1e-9),
             "reported optimum != reference log-likelihood of the fitted model"),
            (fitted_ll >= start_ll - 1e-9, "fitted log-likelihood below the start's"),
            (all(np.array_equal(getattr(fitted, b), getattr(start, b)) for b in pinned),
             "pinned blocks moved"),
        )

    return Job(kind, len(obs), run, check)


def build_fit(seed, size, workdir) -> Workload:
    """EM and Nelder-Mead fits, each with an iteration budget.

    Every fit needs more steps than its budget to reach its tolerance on
    these series, so the work per job does not depend on the seed (on eight
    series of 200-600 steps, Nelder-Mead took 24-35 steps to reach 1e-6 for
    (R, mu0), 51-63 for (A, Q, R) and 149-315 for the HMM; EM took 82 or
    more to reach 1e-5 from T=1500).  fit_loglik_gain shows how far each
    fit got.
    """
    s = SIZES["fit"][size]
    root = sk.SeededGenerator(seed)
    bench = sk.DiscreteHMM(**BENCH_HMM)
    start = sk.DiscreteHMM(**EM_START)
    scalar = sk.LinearGaussianModel(**SCALAR_LG)
    rmu_start = sk.LinearGaussianModel(**{**SCALAR_LG, "R": [[1.0]], "mu0": [1.0]})
    aqr_start = sk.LinearGaussianModel(**{**SCALAR_LG, "A": [[0.5]], "Q": [[0.5]],
                                          "R": [[1.0]]})
    _, y_em = sk.simulate_hmm(bench, s["T_em"], root.derive("fit", "em"))
    _, y_hmm = sk.simulate_hmm(bench, s["T_hmm"], root.derive("fit", "mle_hmm"))
    _, y_lg = sk.simulate_lgssm(scalar, s["T_lg"], root.derive("fit", "mle_lg"))
    wl = Workload("fit", [])
    wl.jobs = [
        _em_job(wl, start, y_em, s["em_iter"]),
        _mle_job(wl, "fit_mle_hmm", start, y_hmm, None, s["hmm_iter"],
                 lambda m: _hmm_ref(m, y_hmm.values)),
        _mle_job(wl, "fit_mle_lg_r_mu0", rmu_start, y_lg, ("R", "mu0"), s["rmu_iter"],
                 lambda m: _lg_ref(m, y_lg.values)[0]),
        _mle_job(wl, "fit_mle_lg_a_q_r", aqr_start, y_lg, ("A", "Q", "R"), s["aqr_iter"],
                 lambda m: _lg_ref(m, y_lg.values)[0]),
    ]
    return wl


# ------------------------------------------------------------------- cli_mix

def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sk.run_command(argv)
    return code, out.getvalue(), err.getvalue()


def _summary(out) -> dict | None:
    code, stdout, _ = out
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def _cli_job(kind, argv, steps, check_summary, particles=0) -> Job:
    def check(out):
        summary = _summary(out)
        if summary is None:
            return [f"exit code {out[0]}: {out[2].strip()[:200]}"]
        return check_summary(summary)

    return Job(kind, steps, lambda: _cli(argv), check, particles)


def _table(path, n_rows, n_cols, first_t=1) -> tuple[np.ndarray | None, list[str]]:
    try:
        body = ref.read_csv(path)
    except (OSError, ValueError) as err:
        return None, [f"{os.path.basename(path)} does not re-read: {err}"]
    if body.shape != (n_rows, n_cols):
        return None, [f"{os.path.basename(path)} has shape {body.shape}, "
                      f"expected {(n_rows, n_cols)}"]
    if not np.array_equal(body[:, 0], np.arange(first_t, first_t + n_rows)):
        return None, [f"{os.path.basename(path)} has a broken t column"]
    return body[:, 1:], []


def build_cli_mix(seed, size, workdir) -> Workload:
    s = SIZES["cli_mix"][size]
    gen = np.random.default_rng([seed, 4])
    root = sk.SeededGenerator(seed)
    os.makedirs(workdir, exist_ok=True)
    path = lambda name: os.path.join(workdir, name)  # noqa: E731

    hmm = _random_hmm(gen, 3, 4, stay=0.7)
    lg = _stable_lg(gen, 2, 2, rho=0.9)
    with open(path("hmm.json"), "w", encoding="utf-8") as fh:
        json.dump({"type": "discrete_hmm", "initial": hmm.initial.tolist(),
                   "transition": hmm.transition.tolist(),
                   "emission": hmm.emission.tolist()}, fh)
    with open(path("lg.json"), "w", encoding="utf-8") as fh:
        json.dump({"type": "linear_gaussian", "A": lg.A.tolist(), "C": lg.C.tolist(),
                   "Q": lg.Q.tolist(), "R": lg.R.tolist(), "mu0": lg.mu0.tolist(),
                   "sigma0": lg.Sigma0.tolist()}, fh)
    _, y_hmm = sk.simulate_hmm(hmm, s["T_hmm"], root.derive("cli", "hmm"))
    _, y_lg = sk.simulate_lgssm(lg, s["T_lg"], root.derive("cli", "lg"))
    ref.write_series_csv(path("hmm.csv"), y_hmm.values, symbolic=True)
    ref.write_series_csv(path("lg.csv"), y_lg.values, symbolic=False)

    # Library calls on the same files give the values the CLI must reproduce.
    m_hmm, o_hmm = sk.parse_model(path("hmm.json")), sk.read_series(path("hmm.csv"))
    m_lg, o_lg = sk.parse_model(path("lg.json")), sk.read_series(path("lg.csv"))
    T_h, T_g, d = len(o_hmm), len(o_lg), m_lg.d_x
    fwd_h = sk.forward_filter(m_hmm, o_hmm)
    smooth_h = sk.backward_smooth(m_hmm, o_hmm, fwd_h)
    kf = sk.kalman_filter(m_lg, o_lg)
    smooth_g = sk.rts_smoother(m_lg, kf)
    ref_ll_h = _hmm_ref(m_hmm, o_hmm.values)
    ref_ll_g = _lg_ref(m_lg, o_lg.values)[0]
    sim_seed = int(gen.integers(1 << 30))
    sim_h = sk.simulate_hmm(m_hmm, T_h, sk.SeededGenerator(sim_seed))[1].values
    sim_g = sk.simulate_lgssm(m_lg, T_g, sk.SeededGenerator(sim_seed + 1))[1].values
    pf = sk.bootstrap_filter(sk.lgssm_as_generic(m_lg), o_lg, s["N"],
                             sk.SeededGenerator(sim_seed + 2))
    prior_a, prior_b = "1,0,0", "0,0,1"
    tv = sk.forgetting_curve(m_hmm, o_hmm, [1.0, 0, 0], [0, 0, 1.0]).tv
    ahead_h = sk.predict_states(m_hmm, fwd_h.filtered[-1], s["k"])
    ahead_g = ref.lg_predict(m_lg.A, m_lg.Q, kf.filtered_means[-1], kf.filtered_covs[-1],
                             s["k"])
    gauss_rows = lambda means, covs: np.hstack(  # noqa: E731
        [means, covs.reshape(len(covs), -1)])

    def loglik_is(lib, own):
        return lambda sm: _problems(
            (sm.get("log_likelihood") == lib, "summary log-likelihood != library call"),
            (_close(sm.get("log_likelihood", np.nan), own, 1e-9),
             "summary log-likelihood != reference"))

    def table_is(name, expected, lib, own, atol=0.0, first_t=1):
        def check(sm):
            body, problems = _table(path(name), len(expected), expected.shape[1] + 1, first_t)
            if body is not None and not _close(body, expected, 1e-12, atol):
                problems.append(f"{name} differs from the library result")
            return problems + loglik_is(lib, own)(sm)
        return check

    def sim_check(name, expected):
        def check(sm):
            body, problems = _table(path(name), len(expected), 1 + expected.reshape(
                len(expected), -1).shape[1])
            if body is not None and not np.array_equal(body, expected.reshape(len(body), -1)):
                problems.append(f"{name} differs from simulate with the same seed")
            return problems
        return check

    def loglik_hmm_check(sm):
        body, problems = _table(path("loglik_hmm.csv"), T_h, 2)
        if body is not None and not _close(body[:, 0].sum(), ref_ll_h, 1e-9):
            problems.append("HMM increments do not sum to the log-likelihood")
        return problems + loglik_is(fwd_h.log_likelihood, ref_ll_h)(sm)

    def loglik_lg_check(sm):
        body, problems = _table(path("loglik_lg.csv"), T_g, 2)
        inc = ref.lg_increments(m_lg.C, m_lg.R, o_lg.values, kf.predicted_means,
                                kf.predicted_covs)
        if body is not None and not _close(body[:, 0], inc, 1e-9, 1e-12):
            problems.append("Gaussian increments != predictive densities")
        return problems + loglik_is(kf.log_likelihood, ref_ll_g)(sm)

    def forget_check(sm):
        body, problems = _table(path("forget.csv"), T_h, 2)
        if body is not None and not (np.array_equal(body[:, 0], tv)
                                     and np.all((tv >= 0) & (tv <= 1))):
            problems.append("TV curve differs from forgetting_curve")
        return problems

    def pf_check(sm):
        expected = np.hstack([pf.filtered_means, pf.ess_trace[:, None]])
        body, problems = _table(path("pf.csv"), T_g, d + 2)
        if body is not None and not np.array_equal(body, expected):
            problems.append("pf output differs from bootstrap_filter with the same seed")
        if sm.get("log_likelihood") != pf.log_likelihood_estimate:
            problems.append("pf summary log-likelihood differs from bootstrap_filter")
        return problems

    def fit_check(sm):
        try:
            with open(path("fit.json"), encoding="utf-8") as fh:
                doc = json.load(fh)
            fitted = sk.DiscreteHMM(doc["initial"], doc["transition"], doc["emission"])
        except (OSError, ValueError, KeyError) as err:
            return [f"fit.json does not re-read: {err}"]
        fitted_ll = _hmm_ref(fitted, o_hmm.values)
        return _problems(
            (_close(sm.get("log_likelihood", np.nan), fitted_ll, 1e-9),
             "fit summary log-likelihood != reference of the written model"),
            (fitted_ll >= ref_ll_h, "fitted log-likelihood below the start's"),
        )

    hmm_args = ["--model", path("hmm.json"), "--data", path("hmm.csv")]
    lg_args = ["--model", path("lg.json"), "--data", path("lg.csv")]
    k = str(s["k"])
    jobs = [
        _cli_job("simulate_hmm", ["simulate", "--model", path("hmm.json"), "--T", str(T_h),
                                  "--seed", str(sim_seed), "--out", path("sim_hmm.csv")],
                 T_h, sim_check("sim_hmm.csv", sim_h)),
        _cli_job("simulate_lg", ["simulate", "--model", path("lg.json"), "--T", str(T_g),
                                 "--seed", str(sim_seed + 1), "--out", path("sim_lg.csv")],
                 T_g, sim_check("sim_lg.csv", sim_g)),
        _cli_job("filter_hmm", ["filter", *hmm_args, "--out", path("filter_hmm.csv")], T_h,
                 table_is("filter_hmm.csv", fwd_h.filtered, fwd_h.log_likelihood,
                          ref_ll_h)),
        _cli_job("filter_lg", ["filter", *lg_args, "--out", path("filter_lg.csv")], T_g,
                 table_is("filter_lg.csv",
                          gauss_rows(kf.filtered_means, kf.filtered_covs),
                          kf.log_likelihood, ref_ll_g)),
        _cli_job("smooth_hmm", ["smooth", *hmm_args, "--out", path("smooth_hmm.csv")], T_h,
                 table_is("smooth_hmm.csv", smooth_h.smoothed, fwd_h.log_likelihood,
                          ref_ll_h)),
        _cli_job("smooth_lg", ["smooth", *lg_args, "--out", path("smooth_lg.csv")], T_g,
                 table_is("smooth_lg.csv",
                          gauss_rows(smooth_g.smoothed_means, smooth_g.smoothed_covs),
                          kf.log_likelihood, ref_ll_g)),
        _cli_job("loglik_hmm", ["loglik", *hmm_args, "--out", path("loglik_hmm.csv")], T_h,
                 loglik_hmm_check),
        _cli_job("loglik_lg", ["loglik", *lg_args, "--out", path("loglik_lg.csv")], T_g,
                 loglik_lg_check),
        _cli_job("predict_hmm", ["predict", *hmm_args, "--k", k,
                                 "--out", path("predict_hmm.csv")], T_h,
                 table_is("predict_hmm.csv", ahead_h, fwd_h.log_likelihood, ref_ll_h,
                          first_t=T_h + 1)),
        _cli_job("predict_lg", ["predict", *lg_args, "--k", k,
                                "--out", path("predict_lg.csv")], T_g,
                 table_is("predict_lg.csv",
                          gauss_rows(np.array([m for m, _ in ahead_g]),
                                     np.array([p for _, p in ahead_g])),
                          kf.log_likelihood, ref_ll_g, atol=1e-12, first_t=T_g + 1)),
        _cli_job("forget", ["forget", *hmm_args, "--prior-a", prior_a, "--prior-b", prior_b,
                            "--out", path("forget.csv")], T_h, forget_check),
        _cli_job("pf", ["pf", *lg_args, "--particles", str(s["N"]),
                        "--seed", str(sim_seed + 2), "--out", path("pf.csv")], T_g, pf_check,
                 particles=s["N"]),
        _cli_job("fit_em", ["fit", *hmm_args, "--method", "em", "--tol", "1e-5",
                            "--max-iter", str(s["em_iter"]), "--out", path("fit.json")], T_h,
                 fit_check),
    ]
    return Workload("cli_mix", jobs)


BUILDERS = {
    "exact_long": build_exact_long,
    "particle": build_particle,
    "fit": build_fit,
    "cli_mix": build_cli_mix,
}
