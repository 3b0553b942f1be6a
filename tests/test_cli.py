"""Subcommand behavior: outputs, summaries, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from ssmkit import (
    DiscreteHMM,
    LinearGaussianModel,
    ObservationSeries,
    SeededGenerator,
    backward_smooth,
    bootstrap_filter,
    exact_posterior_enumeration,
    fit_em,
    fit_mle,
    fixed_lag_smoother,
    forgetting_curve,
    forward_filter,
    kalman_filter,
    kalman_predict,
    lgssm_as_generic,
    predict_states,
    read_series,
    parse_model,
    rts_smoother,
    run_command,
    simulate_hmm,
    simulate_lgssm,
    write_model,
    write_series,
)
from ssmkit import cli, hmm, particle
import ssmkit.io
from test_io import per_cell_text

HMM = DiscreteHMM([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[0.8, 0.2], [0.3, 0.7]])
LG = LinearGaussianModel(
    A=[[0.9]], C=[[1.0]], Q=[[0.19]], R=[[0.5]], mu0=[0.0], Sigma0=[[1.0]]
)


@pytest.fixture
def hmm_model(tmp_path):
    path = str(tmp_path / "hmm.json")
    write_model(path, HMM)
    return path


@pytest.fixture
def lg_model(tmp_path):
    path = str(tmp_path / "lg.json")
    write_model(path, LG)
    return path


@pytest.fixture
def hmm_data(tmp_path):
    path = str(tmp_path / "hmm.csv")
    write_series(path, ObservationSeries([0, 1, 1, 0, 1], kind="symbolic"))
    return path


@pytest.fixture
def lg_data(tmp_path):
    path = str(tmp_path / "lg.csv")
    values = np.array([[0.5], [-0.2], [0.9], [0.1]])
    write_series(path, ObservationSeries(values, kind="real"))
    return path


def run(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out.strip()
    summary = json.loads(out) if code == 0 else None
    if code == 0:
        assert "\n" not in out  # single-line summary
    return code, summary


def read_csv(path):
    lines = open(path).read().strip().split("\n")
    header = lines[0].split(",")
    body = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    return header, body


class TestSimulate:
    def test_round_trip_and_summary(self, capsys, tmp_path, hmm_model):
        out = str(tmp_path / "sim.csv")
        code, summary = run(
            capsys,
            ["simulate", "--model", hmm_model, "--T", "20", "--seed", "7",
             "--out", out],
        )
        assert code == 0
        assert summary == {
            "command": "simulate", "T": 20, "seed": 7, "kind": "symbolic",
            "out": out,
        }
        assert len(read_series(out)) == 20

    def test_byte_reproducible(self, capsys, tmp_path, hmm_model):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run(capsys, ["simulate", "--model", hmm_model, "--T", "30", "--seed",
                     "99", "--out", a])
        run(capsys, ["simulate", "--model", hmm_model, "--T", "30", "--seed",
                     "99", "--out", b])
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_seed_changes_output(self, capsys, tmp_path, lg_model):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run(capsys, ["simulate", "--model", lg_model, "--T", "30", "--seed",
                     "1", "--out", a])
        run(capsys, ["simulate", "--model", lg_model, "--T", "30", "--seed",
                     "2", "--out", b])
        assert open(a).read() != open(b).read()

    def test_bad_T(self, capsys, tmp_path, hmm_model):
        code, _ = run(capsys, ["simulate", "--model", hmm_model, "--T", "0",
                               "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 1


class TestFilter:
    def test_discrete_matches_library_exactly(self, capsys, tmp_path, hmm_model,
                                              hmm_data):
        out = str(tmp_path / "f.csv")
        code, summary = run(
            capsys, ["filter", "--model", hmm_model, "--data", hmm_data,
                     "--out", out]
        )
        assert code == 0
        result = forward_filter(HMM, read_series(hmm_data))
        assert summary["log_likelihood"] == result.log_likelihood
        header, body = read_csv(out)
        assert header == ["t", "p1", "p2"]
        np.testing.assert_array_equal(body[:, 0], np.arange(1, 6))
        np.testing.assert_array_equal(body[:, 1:], result.filtered)

    def test_gaussian_matches_library_exactly(self, capsys, tmp_path, lg_model,
                                              lg_data):
        out = str(tmp_path / "f.csv")
        code, summary = run(
            capsys, ["filter", "--model", lg_model, "--data", lg_data,
                     "--out", out]
        )
        assert code == 0
        result = kalman_filter(LG, read_series(lg_data))
        assert summary["log_likelihood"] == result.log_likelihood
        header, body = read_csv(out)
        assert header == ["t", "m1", "P11"]
        np.testing.assert_array_equal(body[:, 1], result.filtered_means[:, 0])
        np.testing.assert_array_equal(body[:, 2], result.filtered_covs[:, 0, 0])

    def test_summary_only_without_out(self, capsys, hmm_model, hmm_data):
        code, summary = run(
            capsys, ["filter", "--model", hmm_model, "--data", hmm_data]
        )
        assert code == 0
        assert summary["out"] is None


class TestSmooth:
    def test_discrete_matches_library(self, capsys, tmp_path, hmm_model, hmm_data):
        out = str(tmp_path / "s.csv")
        code, _ = run(capsys, ["smooth", "--model", hmm_model, "--data",
                               hmm_data, "--out", out])
        assert code == 0
        obs = read_series(hmm_data)
        smooth = backward_smooth(HMM, obs, forward_filter(HMM, obs))
        _, body = read_csv(out)
        np.testing.assert_array_equal(body[:, 1:], smooth.smoothed)

    def test_gaussian_matches_library(self, capsys, tmp_path, lg_model, lg_data):
        out = str(tmp_path / "s.csv")
        code, _ = run(capsys, ["smooth", "--model", lg_model, "--data",
                               lg_data, "--out", out])
        assert code == 0
        obs = read_series(lg_data)
        smooth = rts_smoother(LG, kalman_filter(LG, obs))
        _, body = read_csv(out)
        np.testing.assert_array_equal(body[:, 1], smooth.smoothed_means[:, 0])
        np.testing.assert_array_equal(body[:, 2], smooth.smoothed_covs[:, 0, 0])


class TestLoglik:
    def test_discrete_increments(self, capsys, tmp_path, hmm_model, hmm_data):
        out = str(tmp_path / "l.csv")
        code, summary = run(capsys, ["loglik", "--model", hmm_model, "--data",
                                     hmm_data, "--out", out])
        assert code == 0
        result = forward_filter(HMM, read_series(hmm_data))
        assert summary["log_likelihood"] == result.log_likelihood
        assert summary["T"] == 5
        header, body = read_csv(out)
        assert header == ["t", "log_increment"]
        np.testing.assert_array_equal(body[:, 1], result.log_normalizers)

    def test_gaussian_increments_sum_to_total(self, capsys, tmp_path, lg_model,
                                              lg_data):
        out = str(tmp_path / "l.csv")
        code, summary = run(capsys, ["loglik", "--model", lg_model, "--data",
                                     lg_data, "--out", out])
        assert code == 0
        _, body = read_csv(out)
        assert body[:, 1].sum() == pytest.approx(
            summary["log_likelihood"], abs=1e-10
        )
        result = kalman_filter(LG, read_series(lg_data))
        np.testing.assert_array_equal(body[:, 1], result.log_increments)


class TestSmallestFloatMove:
    # Models whose only path takes the move of probability 5e-324, the
    # smallest float, from a state of prior 0.4 or of prior 1e-304, on the
    # series 0, 1; the smoothed rows are point masses on that path.
    MODELS = {
        "subnormal move": (
            DiscreteHMM(
                [0.4, 0.6, 0.0],
                [[1.0, 0.0, 5e-324], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            ),
            [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
        ),
        "rescue's reach": (
            DiscreteHMM(
                [1.0 - 1e-304, 1e-304, 0.0],
                [[1.0, 0.0, 0.0], [0.0, 1.0, 5e-324], [0.0, 0.0, 1.0]],
                [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            ),
            [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        ),
    }

    @pytest.mark.parametrize("name", MODELS)
    def test_smooth_and_loglik_match_enumeration(self, capsys, tmp_path, name):
        model, point_masses = self.MODELS[name]
        model_path, data, out = (str(tmp_path / f) for f in ("m.json", "y.csv", "s.csv"))
        write_model(model_path, model)
        write_series(data, ObservationSeries([0, 1], kind="symbolic"))
        enum = exact_posterior_enumeration(model, read_series(data))
        np.testing.assert_array_equal(enum.smoothed, point_masses)
        argv = ["--model", model_path, "--data", data]
        code, summary = run(capsys, ["smooth", *argv, "--out", out])
        assert code == 0
        np.testing.assert_array_equal(read_csv(out)[1][:, 1:], point_masses)
        assert summary["log_likelihood"] == pytest.approx(enum.log_likelihood, rel=1e-12)
        code, summary = run(capsys, ["loglik", *argv])
        assert code == 0
        assert summary["log_likelihood"] == pytest.approx(enum.log_likelihood, rel=1e-12)


class TestPredict:
    def test_discrete(self, capsys, tmp_path, hmm_model, hmm_data):
        out = str(tmp_path / "p.csv")
        code, summary = run(capsys, ["predict", "--model", hmm_model, "--data",
                                     hmm_data, "--k", "3", "--out", out])
        assert code == 0
        assert summary["k"] == 3
        obs = read_series(hmm_data)
        fwd = forward_filter(HMM, obs)
        ahead = predict_states(HMM, fwd.filtered[-1], 3)
        _, body = read_csv(out)
        np.testing.assert_array_equal(body[:, 0], [6, 7, 8])
        np.testing.assert_array_equal(body[:, 1:], ahead)

    def test_gaussian(self, capsys, tmp_path, lg_model, lg_data):
        out = str(tmp_path / "p.csv")
        code, _ = run(capsys, ["predict", "--model", lg_model, "--data",
                               lg_data, "--k", "2", "--out", out])
        assert code == 0
        obs = read_series(lg_data)
        fwd = kalman_filter(LG, obs)
        ahead = kalman_predict(LG, fwd.filtered_means[-1], fwd.filtered_covs[-1], 2)
        _, body = read_csv(out)
        np.testing.assert_array_equal(body[:, 1], [m[0] for m, _ in ahead])
        np.testing.assert_array_equal(body[:, 2], [p[0, 0] for _, p in ahead])

    def test_zero_k_is_usage_error(self, capsys, tmp_path, hmm_model, hmm_data):
        code, _ = run(capsys, ["predict", "--model", hmm_model, "--data",
                               hmm_data, "--k", "0",
                               "--out", str(tmp_path / "p.csv")])
        assert code == 1


class TestFit:
    def test_em_default_for_discrete(self, capsys, tmp_path, hmm_model):
        data = str(tmp_path / "train.csv")
        run(capsys, ["simulate", "--model", hmm_model, "--T", "80", "--seed",
                     "11", "--out", data])
        out = str(tmp_path / "fitted.json")
        code, summary = run(capsys, ["fit", "--model", hmm_model, "--data",
                                     data, "--max-iter", "50", "--out", out])
        assert code == 0
        assert summary["method"] == "em"
        assert summary["iterations"] >= 1
        assert isinstance(summary["converged"], bool)
        fitted = parse_model(out)
        assert isinstance(fitted, DiscreteHMM)
        obs = read_series(data)
        start_ll = forward_filter(HMM, obs).log_likelihood
        assert summary["log_likelihood"] >= start_ll - 1e-9

    @pytest.mark.parametrize("max_iter", [1, 3])
    def test_em_iterations_when_the_limit_binds(self, capsys, tmp_path, hmm_model,
                                                max_iter):
        data = str(tmp_path / "train.csv")
        run(capsys, ["simulate", "--model", hmm_model, "--T", "80", "--seed",
                     "11", "--out", data])
        code, summary = run(capsys, ["fit", "--model", hmm_model, "--data", data,
                                     "--tol", "1e-12", "--max-iter", str(max_iter),
                                     "--out", str(tmp_path / "fitted.json")])
        assert code == 0
        assert summary["converged"] is False
        assert summary["iterations"] == max_iter

    @pytest.mark.parametrize("tol, max_iter", [("1e-12", 3), ("1e-2", 200)])
    def test_em_filters_each_model_once(self, capsys, monkeypatch, tmp_path, hmm_model,
                                        tol, max_iter):
        data = str(tmp_path / "train.csv")
        run(capsys, ["simulate", "--model", hmm_model, "--T", "80", "--seed",
                     "11", "--out", data])
        obs = read_series(data)
        fitted, trace = fit_em(HMM, obs, tol=float(tol), max_iter=max_iter)
        expected_ll = forward_filter(fitted, obs).log_likelihood
        calls = {"fit_em": 0, "forward_filter": 0, "baum_welch_step": 0}
        for name in calls:
            wrapped = getattr(hmm, name)

            def counting(*args, _name=name, _wrapped=wrapped, **kwargs):
                calls[_name] += 1
                return _wrapped(*args, **kwargs)

            for module in (hmm, cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting)
        code, summary = run(capsys, ["fit", "--model", hmm_model, "--data", data,
                                     "--method", "em", "--tol", tol,
                                     "--max-iter", str(max_iter),
                                     "--out", str(tmp_path / "fitted.json")])
        assert code == 0
        # Through the public name, which tracing and profiling wrap.
        assert calls["fit_em"] == 1
        steps = calls["baum_welch_step"]
        assert steps == min(len(trace), max_iter)
        assert calls["forward_filter"] == steps + 1
        # The printed value is the fitted model's log-likelihood.
        assert summary["log_likelihood"] == expected_ll

    def test_mle_default_for_gaussian(self, capsys, tmp_path, lg_model, lg_data):
        out = str(tmp_path / "fitted.json")
        code, summary = run(capsys, ["fit", "--model", lg_model, "--data",
                                     lg_data, "--tol", "1e-3", "--max-iter",
                                     "200", "--out", out])
        assert code == 0
        assert summary["method"] == "mle"
        fitted = parse_model(out)
        assert isinstance(fitted, LinearGaussianModel)

    def test_mle_on_hmm_reports_accepted_steps(self, capsys, tmp_path, hmm_model):
        # iterations counts the quasi-Newton steps taken, and converged
        # says the last and predicted decreases fell below --tol.
        _, obs = simulate_hmm(HMM, 200, SeededGenerator(3))
        data = str(tmp_path / "long.csv")
        write_series(data, obs)
        out = str(tmp_path / "fitted.json")
        summaries = {}
        for max_iter in (2, 500):
            code, summary = run(capsys, ["fit", "--model", hmm_model, "--data", data,
                                         "--method", "mle", "--tol", "1e-6",
                                         "--max-iter", str(max_iter), "--out", out])
            assert code == 0
            _, report = fit_mle(HMM, obs, tol=1e-6, max_iter=max_iter)
            assert summary["iterations"] == report.iterations
            assert summary["converged"] == report.converged == (report.simplex_spread < 1e-6)
            assert summary["log_likelihood"] == -report.final_value
            assert forward_filter(parse_model(out), obs).log_likelihood == pytest.approx(
                -report.final_value, rel=1e-12
            )
            summaries[max_iter] = summary
        assert (summaries[2]["iterations"], summaries[2]["converged"]) == (2, False)
        assert summaries[500]["converged"]
        assert 2 < summaries[500]["iterations"] < 500

    def test_em_on_gaussian_is_usage_error(self, capsys, tmp_path, lg_model,
                                           lg_data):
        code, _ = run(capsys, ["fit", "--model", lg_model, "--data", lg_data,
                               "--method", "em",
                               "--out", str(tmp_path / "x.json")])
        assert code == 1

    def test_bad_tol(self, capsys, tmp_path, hmm_model, hmm_data):
        for tol in ("0", "nan"):
            code, _ = run(capsys, ["fit", "--model", hmm_model, "--data", hmm_data,
                                   "--tol", tol, "--max-iter", "20",
                                   "--out", str(tmp_path / "x.json")])
            assert code == 1


class TestPf:
    def test_filtered_output(self, capsys, tmp_path, lg_model, lg_data):
        out = str(tmp_path / "pf.csv")
        code, summary = run(capsys, ["pf", "--model", lg_model, "--data",
                                     lg_data, "--particles", "300", "--seed",
                                     "5", "--out", out])
        assert code == 0
        obs = read_series(lg_data)
        result = bootstrap_filter(
            lgssm_as_generic(LG), obs, 300, SeededGenerator(5)
        )
        assert summary["log_likelihood"] == result.log_likelihood_estimate
        assert summary["resample_count"] == len(result.resample_events)
        assert summary["lag"] is None
        header, body = read_csv(out)
        assert header == ["t", "m1", "ess"]
        np.testing.assert_array_equal(body[:, 1], result.filtered_means[:, 0])
        np.testing.assert_array_equal(body[:, 2], result.ess_trace)

    def test_lag_output_drops_ess(self, capsys, tmp_path, lg_model, lg_data):
        out = str(tmp_path / "pf.csv")
        code, summary = run(capsys, ["pf", "--model", lg_model, "--data",
                                     lg_data, "--particles", "200", "--seed",
                                     "5", "--lag", "2", "--out", out])
        assert code == 0
        assert summary["lag"] == 2
        header, _ = read_csv(out)
        assert header == ["t", "m1"]

    def test_lag_runs_the_filter_once(self, capsys, tmp_path, monkeypatch,
                                      lg_model, lg_data):
        runs = []
        run_filter = particle._run_filter

        def counted(*args, **kwargs):
            runs.append(1)
            return run_filter(*args, **kwargs)

        monkeypatch.setattr(particle, "_run_filter", counted)
        out = str(tmp_path / "pf.csv")
        code, summary = run(capsys, ["pf", "--model", lg_model, "--data",
                                     lg_data, "--particles", "200", "--seed",
                                     "5", "--threshold", "0.9", "--lag", "2",
                                     "--out", out])
        assert code == 0
        assert len(runs) == 1
        monkeypatch.undo()
        obs = read_series(lg_data)
        generic = lgssm_as_generic(LG)
        result = bootstrap_filter(generic, obs, 200, SeededGenerator(5),
                                  resample_threshold=0.9)
        smoothed = fixed_lag_smoother(generic, obs, 200, 2, SeededGenerator(5),
                                      resample_threshold=0.9)
        assert summary["log_likelihood"] == result.log_likelihood_estimate
        assert summary["resample_count"] == len(result.resample_events)
        _, body = read_csv(out)
        np.testing.assert_array_equal(body[:, 1], smoothed[:, 0])

    def test_byte_reproducible(self, capsys, tmp_path, lg_model, lg_data):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["pf", "--model", lg_model, "--data", lg_data, "--particles",
                "150", "--seed", "31"]
        run(capsys, args + ["--out", a])
        run(capsys, args + ["--out", b])
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_requires_gaussian_model(self, capsys, tmp_path, hmm_model, hmm_data):
        code, _ = run(capsys, ["pf", "--model", hmm_model, "--data", hmm_data,
                               "--particles", "10", "--seed", "1",
                               "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_flag_validation(self, capsys, tmp_path, lg_model, lg_data):
        base = ["pf", "--model", lg_model, "--data", lg_data, "--seed", "1",
                "--out", str(tmp_path / "x.csv")]
        assert run(capsys, base + ["--particles", "0"])[0] == 1
        assert run(capsys, base + ["--particles", "10", "--threshold", "0"])[0] == 1
        assert run(capsys, base + ["--particles", "10", "--lag", "-1"])[0] == 1


class TestForget:
    def test_curve_and_summary(self, capsys, tmp_path, hmm_model, hmm_data):
        out = str(tmp_path / "tv.csv")
        code, summary = run(capsys, ["forget", "--model", hmm_model, "--data",
                                     hmm_data, "--prior-a", "1,0", "--prior-b",
                                     "0,1", "--out", out])
        assert code == 0
        assert summary["dobrushin"] == pytest.approx(0.7)
        assert summary["fit_window"] == [1, 3]
        header, body = read_csv(out)
        assert header == ["t", "tv"]
        assert body.shape == (5, 2)
        assert np.all(body[:, 1] >= 0)

    def test_requires_discrete_model(self, capsys, tmp_path, lg_model, lg_data):
        code, _ = run(capsys, ["forget", "--model", lg_model, "--data", lg_data,
                               "--prior-a", "1,0", "--prior-b", "0,1",
                               "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_malformed_prior(self, capsys, tmp_path, hmm_model, hmm_data):
        code, _ = run(capsys, ["forget", "--model", hmm_model, "--data",
                               hmm_data, "--prior-a", "1;0", "--prior-b",
                               "0,1", "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_wrong_length_prior(self, capsys, tmp_path, hmm_model, hmm_data):
        code, _ = run(capsys, ["forget", "--model", hmm_model, "--data",
                               hmm_data, "--prior-a", "0.5,0.25,0.25",
                               "--prior-b", "0,1",
                               "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_prior_off_by_1e_10_is_a_usage_error(self, capsys, tmp_path, hmm_model, hmm_data):
        code = run_command(["forget", "--model", hmm_model, "--data", hmm_data,
                            "--prior-a", "0.5,0.5000000001", "--prior-b", "0,1",
                            "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "prior_a must be a probability vector" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run_command(["transmogrify"]) == 1
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert run_command(["filter", "--model", "x.json"]) == 1
        capsys.readouterr()

    def test_missing_model_file(self, capsys, tmp_path, hmm_data):
        code, _ = run(capsys, ["filter", "--model",
                               str(tmp_path / "absent.json"),
                               "--data", hmm_data])
        assert code == 2

    def test_malformed_model_file(self, capsys, tmp_path, hmm_data):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, _ = run(capsys, ["filter", "--model", str(bad), "--data",
                               hmm_data])
        assert code == 2

    def test_malformed_data_file(self, capsys, tmp_path, hmm_model):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        code, _ = run(capsys, ["filter", "--model", hmm_model, "--data",
                               str(bad)])
        assert code == 2

    def test_numerical_failure(self, capsys, tmp_path):
        model = tmp_path / "dead.json"
        write_model(
            str(model),
            DiscreteHMM([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]],
                        [[1.0, 0.0], [1.0, 0.0]]),
        )
        data = tmp_path / "d.csv"
        data.write_text("t,y\n1,0\n2,1\n")
        for command in ("filter", "smooth"):
            argv = [command, "--model", str(model), "--data", str(data)]
            assert run_command(argv) == 3
            assert "t=2 " in capsys.readouterr().err

    def test_smoothing_underflow(self, capsys, tmp_path):
        # Two consecutive moves of probability 1e-170: a backward row that
        # keeps states the forward pass excludes would lose all its mass at
        # t=3.  The posterior is a point mass, and smooth writes it.
        rare = 1e-170
        hmm_rare = DiscreteHMM([1.0, 0.0, 0.0],
                               [[1.0, rare, 0.0], [0.0, 1.0, rare], [0.0, 0.0, 1.0]],
                               [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.5]])
        model = tmp_path / "rare.json"
        write_model(str(model), hmm_rare)
        obs = ObservationSeries([0, 0, 0, 1, 2, 2, 1, 2], kind="symbolic")
        data = tmp_path / "d.csv"
        write_series(str(data), obs)
        out = str(tmp_path / "s.csv")
        code, summary = run(capsys, ["smooth", "--model", str(model), "--data",
                                     str(data), "--out", out])
        assert code == 0
        enum = hmm.exact_posterior_enumeration(hmm_rare, obs)
        assert summary["log_likelihood"] == pytest.approx(enum.log_likelihood, rel=1e-12)
        _, body = read_csv(out)
        np.testing.assert_allclose(body[:, 1:], enum.smoothed, rtol=0, atol=1e-12)

    def test_help_exits_zero(self, capsys):
        assert run_command(["--help"]) == 0
        out = capsys.readouterr().out
        assert "simulate" in out

    def test_unwritable_output(self, capsys, tmp_path, hmm_model, hmm_data):
        out = str(tmp_path / "missing_dir" / "f.csv")
        code, _ = run(capsys, ["filter", "--model", hmm_model, "--data",
                               hmm_data, "--out", out])
        assert code == 2


HMM3 = DiscreteHMM(
    [0.5, 0.3, 0.2],
    [[0.8, 0.15, 0.05], [0.1, 0.7, 0.2], [0.2, 0.2, 0.6]],
    [[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]],
)
LG2 = LinearGaussianModel(
    A=[[0.9, 0.1], [-0.2, 0.7]],
    C=[[1.0, 0.5], [0.0, 1.0]],
    Q=[[0.2, 0.05], [0.05, 0.3]],
    R=[[0.4, 0.1], [0.1, 0.5]],
    mu0=[0.1, -0.2],
    Sigma0=[[1.0, 0.3], [0.3, 2.0]],
)
PROBS = ["t", "p1", "p2", "p3"]
MOMENTS = ["t", "m1", "m2", "P11", "P12", "P21", "P22"]


def numbered(first_t, table):
    return [(first_t + i, *row) for i, row in enumerate(table)]


def moment_rows(first_t, means, covs):
    return [(first_t + i, *m, *p.ravel()) for i, (m, p) in enumerate(zip(means, covs))]


class TestOutputBytes:
    """Each table-writing subcommand writes exactly the per-cell text of the
    library's results; d_x = 2 pins the column order m1, m2, P11, P12, P21, P22."""

    T = 40

    @pytest.fixture
    def files(self, tmp_path):
        paths = {
            "hmm": str(tmp_path / "hmm.json"),
            "lg": str(tmp_path / "lg.json"),
            "hmm_data": str(tmp_path / "hmm.csv"),
            "lg_data": str(tmp_path / "lg.csv"),
        }
        write_model(paths["hmm"], HMM3)
        write_model(paths["lg"], LG2)
        write_series(paths["hmm_data"], simulate_hmm(HMM3, self.T, SeededGenerator(11))[1])
        write_series(paths["lg_data"], simulate_lgssm(LG2, self.T, SeededGenerator(12))[1])
        return paths

    @staticmethod
    def written(capsys, tmp_path, argv):
        out = str(tmp_path / "out.csv")
        code, _ = run(capsys, argv + ["--out", out])
        assert code == 0
        with open(out, newline="") as fh:
            return fh.read()

    @staticmethod
    def inputs(files, kind):
        # The command's model is the parsed document (parse_model renormalizes
        # probability rows), so the reference is computed from the same one.
        argv = ["--model", files[kind], "--data", files[f"{kind}_data"]]
        return argv, parse_model(files[kind]), read_series(files[f"{kind}_data"])

    @pytest.mark.parametrize("kind", ["hmm", "lg"])
    def test_simulate(self, capsys, tmp_path, files, kind):
        text = self.written(capsys, tmp_path, ["simulate", "--model", files[kind],
                                               "--T", "25", "--seed", "5"])
        model = parse_model(files[kind])
        if kind == "hmm":
            values = simulate_hmm(model, 25, SeededGenerator(5))[1].values
            expected = per_cell_text(["t", "y"], numbered(1, [(int(y),) for y in values]))
        else:
            values = simulate_lgssm(model, 25, SeededGenerator(5))[1].values
            expected = per_cell_text(["t", "y1", "y2"], numbered(1, values))
        assert text == expected

    @pytest.mark.parametrize("command", ["filter", "smooth"])
    @pytest.mark.parametrize("kind", ["hmm", "lg"])
    def test_posterior(self, capsys, tmp_path, files, command, kind):
        argv, model, obs = self.inputs(files, kind)
        text = self.written(capsys, tmp_path, [command, *argv])
        if kind == "hmm":
            forward = forward_filter(model, obs)
            probs = (backward_smooth(model, obs, forward).smoothed if command == "smooth"
                     else forward.filtered)
            expected = per_cell_text(PROBS, numbered(1, probs))
        else:
            forward = kalman_filter(model, obs)
            if command == "smooth":
                smooth = rts_smoother(model, forward)
                rows = moment_rows(1, smooth.smoothed_means, smooth.smoothed_covs)
            else:
                rows = moment_rows(1, forward.filtered_means, forward.filtered_covs)
            expected = per_cell_text(MOMENTS, rows)
        assert text == expected

    @pytest.mark.parametrize("kind", ["hmm", "lg"])
    def test_loglik(self, capsys, tmp_path, files, kind):
        argv, model, obs = self.inputs(files, kind)
        text = self.written(capsys, tmp_path, ["loglik", *argv])
        if kind == "hmm":
            increments = forward_filter(model, obs).log_normalizers
        else:
            increments = kalman_filter(model, obs).log_increments
        expected = per_cell_text(["t", "log_increment"], numbered(1, increments[:, None]))
        assert text == expected

    @pytest.mark.parametrize("kind", ["hmm", "lg"])
    def test_predict(self, capsys, tmp_path, files, kind):
        argv, model, obs = self.inputs(files, kind)
        text = self.written(capsys, tmp_path, ["predict", *argv, "--k", "4"])
        first_t = self.T + 1
        if kind == "hmm":
            ahead = predict_states(model, forward_filter(model, obs).filtered[-1], 4)
            expected = per_cell_text(PROBS, numbered(first_t, ahead))
        else:
            forward = kalman_filter(model, obs)
            ahead = kalman_predict(model, forward.filtered_means[-1],
                                   forward.filtered_covs[-1], 4)
            means, covs = [m for m, _ in ahead], [p for _, p in ahead]
            expected = per_cell_text(MOMENTS, moment_rows(first_t, means, covs))
        assert text == expected

    def test_forget(self, capsys, tmp_path, files):
        argv, model, obs = self.inputs(files, "hmm")
        text = self.written(capsys, tmp_path, ["forget", *argv, "--prior-a", "1,0,0",
                                               "--prior-b", "0,0,1"])
        tv = forgetting_curve(model, obs, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]).tv
        assert text == per_cell_text(["t", "tv"], numbered(1, tv[:, None]))

    @pytest.mark.parametrize("lag", [None, 3])
    def test_pf(self, capsys, tmp_path, files, lag):
        argv, model, obs = self.inputs(files, "lg")
        argv = ["pf", *argv, "--particles", "100", "--seed", "9"]
        text = self.written(capsys, tmp_path, argv + (["--lag", str(lag)] if lag else []))
        generic = lgssm_as_generic(model)
        if lag is None:
            result = bootstrap_filter(generic, obs, 100, SeededGenerator(9))
            rows = [(t + 1, *result.filtered_means[t], result.ess_trace[t])
                    for t in range(self.T)]
            expected = per_cell_text(["t", "m1", "m2", "ess"], rows)
        else:
            smoothed = fixed_lag_smoother(generic, obs, 100, lag, SeededGenerator(9))
            expected = per_cell_text(["t", "m1", "m2"], numbered(1, smoothed))
        assert text == expected

    def test_floats_go_through_the_module_formatter(self, capsys, tmp_path, monkeypatch,
                                                    files):
        # As the benchmark's self-test does, replace the formatter after
        # import: every float cell of the command's table changes, no t cell.
        original = ssmkit.io._fmt
        monkeypatch.setattr(ssmkit.io, "_fmt", lambda x: "~" + original(x))
        text = self.written(capsys, tmp_path, ["filter", *self.inputs(files, "lg")[0]])
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert [row[0] for row in rows] == [str(t) for t in range(1, self.T + 1)]
        assert all(cell.startswith("~") for row in rows for cell in row[1:])


class TestParserCache:
    def test_cached_parser_answers_as_a_fresh_one(self, capsys, monkeypatch, tmp_path,
                                                  hmm_model, hmm_data, lg_model, lg_data):
        # One parser serves every command of a process; commands, help,
        # usage errors and unknown commands come out as from a new parser.
        sim = str(tmp_path / "sim.csv")
        commands = [
            ["simulate", "--model", hmm_model, "--T", "20", "--seed", "4", "--out", sim],
            ["filter", "--model", hmm_model, "--data", sim],
            ["--help"],
            ["smooth", "--help"],
            ["fit", "--model", lg_model, "--data", lg_data, "--max-iter", "20",
             "--out", str(tmp_path / "fit.json")],
            ["filter", "--model", hmm_model],
            ["predict", "--model", hmm_model, "--data", hmm_data, "--k", "x",
             "--out", str(tmp_path / "p.csv")],
            ["transmogrify"],
            ["loglik", "--model", hmm_model, "--data", hmm_data],
        ]

        def answers():
            out = []
            for argv in commands:
                code = run_command(argv)
                captured = capsys.readouterr()
                out.append((code, captured.out, captured.err))
            return out

        assert cli._build_parser() is cli._build_parser()
        cached = answers()
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = answers()
        assert cached == fresh
        assert [code for code, _, _ in cached] == [0, 0, 0, 0, 0, 1, 1, 1, 0]


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path, hmm_model):
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        for out in (out_a, out_b):
            proc = subprocess.run(
                ["ssmkit", "simulate", "--model", hmm_model, "--T", "15",
                 "--seed", "3", "--out", out],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            json.loads(proc.stdout)
        assert open(out_a, "rb").read() == open(out_b, "rb").read()

    def test_module_invocation(self, tmp_path, hmm_model):
        out = str(tmp_path / "m.csv")
        proc = subprocess.run(
            [sys.executable, "-m", "ssmkit", "simulate", "--model", hmm_model,
             "--T", "5", "--seed", "1", "--out", out],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
