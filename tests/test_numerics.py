"""Log-domain utilities and PSD factorization."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ssmkit import (
    DegenerateWeightsError,
    LinearGaussianModel,
    effective_sample_size,
    log_sum_exp,
    normalize_log_weights,
    validate_model,
)
from ssmkit.errors import ModelValidationError
from ssmkit.numerics import gaussian_logpdf, psd_sampling_factor


class TestLogSumExp:
    def test_two_zeros(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-12)

    def test_absorbing_neg_inf(self):
        assert log_sum_exp([-np.inf, 5.0]) == 5.0

    def test_no_overflow_at_1000(self):
        assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(
            1000.0 + math.log(2), abs=1e-12
        )

    def test_all_neg_inf(self):
        assert log_sum_exp([-np.inf, -np.inf]) == -np.inf

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_sum_exp([])

    def test_lower_bounded_by_max(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 10)) * 100
            assert log_sum_exp(v) >= v.max()

    def test_equality_iff_single_finite_entry(self):
        assert log_sum_exp([3.0, -np.inf, -np.inf]) == 3.0
        # Gap small enough that the second term survives double rounding.
        assert log_sum_exp([3.0, -20.0]) > 3.0


class TestNormalizeLogWeights:
    def test_two_zeros(self):
        np.testing.assert_allclose(normalize_log_weights([0.0, 0.0]), [0.5, 0.5])

    def test_neg_inf_entry(self):
        np.testing.assert_allclose(normalize_log_weights([-np.inf, 3.0]), [0.0, 1.0])

    def test_log_one_log_three(self):
        got = normalize_log_weights([math.log(1), math.log(3)])
        np.testing.assert_allclose(got, [0.25, 0.75], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        for c in (-1e6, -3.7, 0.0, 5.5, 1e6):
            lw = rng.normal(size=8)
            np.testing.assert_allclose(
                normalize_log_weights(lw + c), normalize_log_weights(lw), atol=1e-12
            )

    def test_sums_to_one(self):
        lw = np.random.default_rng(2).normal(size=100) * 30
        assert abs(normalize_log_weights(lw).sum() - 1.0) <= 1e-12

    def test_all_neg_inf_rejected(self):
        with pytest.raises(DegenerateWeightsError):
            normalize_log_weights([-np.inf, -np.inf])


class TestEffectiveSampleSize:
    def test_uniform(self):
        assert effective_sample_size(np.full(100, 0.01)) == pytest.approx(100.0)

    def test_one_hot(self):
        w = np.zeros(10)
        w[3] = 1.0
        assert effective_sample_size(w) == pytest.approx(1.0)

    def test_hand_value(self):
        assert effective_sample_size([0.5, 0.25, 0.25]) == pytest.approx(1 / 0.375)


class TestPsdSamplingFactor:
    def test_positive_definite_equals_cholesky(self):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        f = psd_sampling_factor(a)
        np.testing.assert_allclose(f @ f.T, a, atol=1e-12)

    def test_zero_matrix(self):
        for n in range(7):
            f = psd_sampling_factor(np.zeros((n, n)))
            assert f.shape == (n, n)
            assert not np.any(f)
            assert not np.any(np.signbit(f))  # +0.0 throughout, no -0.0

    def test_rank_deficient(self):
        v = np.array([[1.0], [2.0], [-1.0]])
        a = v @ v.T  # rank one
        f = psd_sampling_factor(a)
        np.testing.assert_allclose(f @ f.T, a, atol=1e-10)

    def test_indefinite_rejected(self):
        with pytest.raises(ModelValidationError):
            psd_sampling_factor(np.array([[1.0, 0.0], [0.0, -0.5]]))

    def test_rank_deficient_oracle(self):
        # B B^T for every rank short of full, at scales 1e-6..1e6.
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            for rank in range(n):
                for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
                    for _ in range(5):
                        b = rng.normal(size=(n, rank)) * math.sqrt(scale)
                        a = b @ b.T
                        f = psd_sampling_factor(a)
                        assert f.shape == (n, n)
                        bound = 1e-12 * np.max(np.abs(a), initial=0.0)
                        assert np.max(np.abs(f @ f.T - a)) <= bound

    def test_every_q_validate_model_accepts_is_factored(self):
        rng = np.random.default_rng(5)
        for n in range(1, 7):
            for _ in range(20):
                v, _ = np.linalg.qr(rng.normal(size=(n, n)))
                w = rng.uniform(0.1, 2.0, size=n)
                w[rng.integers(n)] = -rng.uniform(0.0, 1e-10)
                w[rng.integers(n)] = 0.0
                q = v @ np.diag(w) @ v.T
                q = 0.5 * (q + q.T)
                model = LinearGaussianModel(
                    A=np.eye(n), C=np.eye(n), Q=q, R=np.eye(n),
                    mu0=np.zeros(n), Sigma0=np.eye(n),
                )
                assert validate_model(model) == []
                f = psd_sampling_factor(q, "Q")
                assert np.max(np.abs(f @ f.T - q)) <= 1e-8

    @pytest.mark.parametrize("n", range(1, 7))
    def test_indefinite_beyond_tolerance_rejected(self, n):
        rng = np.random.default_rng(n)
        v, _ = np.linalg.qr(rng.normal(size=(n, n)))
        w = rng.uniform(0.5, 2.0, size=n)
        w[0] = -1e-6
        with pytest.raises(ModelValidationError, match="Q is not positive semidefinite"):
            psd_sampling_factor(v @ np.diag(w) @ v.T, "Q")

    def test_asymmetry_beyond_tolerance_rejected(self):
        # The lower triangle is singular PSD, so only the upper one differs.
        base = np.ones((2, 2))
        for gap, accepted in ((1e-10, True), (1e-7, False), (1e-3, False)):
            a = base.copy()
            a[0, 1] += gap
            if accepted:
                f = psd_sampling_factor(a)
                np.testing.assert_allclose(f @ f.T, base, atol=1e-15)
            else:
                with pytest.raises(ModelValidationError, match="not positive semidefinite"):
                    psd_sampling_factor(a)


class TestNumpyOnlyRuntime:
    def test_positive_definite_workflow_loads_no_scipy(self, tmp_path):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from ssmkit import *\n"
            "hmm = DiscreteHMM([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]],"
            " [[0.8, 0.2], [0.3, 0.7]])\n"
            "lg = LinearGaussianModel(A=[[0.9]], C=[[1.0]], Q=[[0.19]], R=[[0.5]],"
            " mu0=[0.0], Sigma0=[[1.0]])\n"
            "_, sym = simulate_hmm(hmm, 60, SeededGenerator(1))\n"
            "_, real = simulate_lgssm(lg, 60, SeededGenerator(2))\n"
            "rts_smoother(lg, kalman_filter(lg, real))\n"
            "lg2 = LinearGaussianModel(A=0.9 * np.eye(2), C=np.eye(2), Q=np.eye(2),"
            " R=[[1.0, 0.3], [0.3, 1.0]], mu0=np.zeros(2), Sigma0=np.eye(2))\n"
            "_, real2 = simulate_lgssm(lg2, 60, SeededGenerator(5))\n"
            "rts_smoother(lg2, kalman_filter(lg2, real2))\n"
            "fit_mle(hmm, sym)\n"
            "fit_mle(lg, real, free_blocks=('R', 'mu0'))\n"
            "fit_em(hmm, sym, max_iter=5)\n"
            "viterbi(hmm, sym)\n"
            "fixed_lag_smoother(lgssm_as_generic(lg), real, 50, 3, SeededGenerator(3))\n"
            "forgetting_curve(hmm, sym, [0.9, 0.1], [0.1, 0.9])\n"
            "d = sys.argv[1]\n"
            "write_model(d + '/lg.json', lg)\n"
            "write_series(d + '/y.csv', real)\n"
            "for argv in (['smooth', '--model', d + '/lg.json', '--data', d + '/y.csv'],"
            " ['pf', '--model', d + '/lg.json', '--data', d + '/y.csv', '--particles',"
            " '50', '--seed', '4', '--out', d + '/pf.csv']):\n"
            "    assert run_command(argv) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.stdout.strip().splitlines()[-1] == "[]"


class TestGaussianLogpdf:
    def test_standard_normal_at_zero(self):
        got = gaussian_logpdf(np.zeros(1), np.zeros(1), np.eye(1))
        assert got == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-14)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            a = rng.normal(size=(d, d))
            cov = a @ a.T + np.eye(d)
            x = rng.normal(size=d)
            mean = rng.normal(size=d)
            diff = x - mean
            want = -0.5 * (
                d * math.log(2 * math.pi)
                + math.log(np.linalg.det(cov))
                + diff @ np.linalg.solve(cov, diff)
            )
            assert gaussian_logpdf(x, mean, cov) == pytest.approx(want, abs=1e-10)
