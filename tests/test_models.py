"""Container construction, kind tagging, and the validation report."""

import warnings

import numpy as np
import pytest

from ssmkit import (
    DiscreteHMM,
    GenericStateSpaceModel,
    LinearGaussianModel,
    ModelValidationError,
    ObservationSeries,
    StatePath,
    validate_model,
)


def two_state_hmm():
    return DiscreteHMM([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[0.8, 0.2], [0.3, 0.7]])


def scalar_lgssm(**overrides):
    fields = dict(
        A=[[0.9]], C=[[1.0]], Q=[[0.19]], R=[[0.5]], mu0=[0.0], Sigma0=[[1.0]]
    )
    fields.update(overrides)
    return LinearGaussianModel(**fields)


# Zeros of each kind, and a value that inference on the series rejects.
ZERO_SERIES = [("real", np.zeros((5, 1)), np.nan), ("symbolic", np.zeros(5, dtype=np.int64), -1)]


class TestObservationSeries:
    def test_symbolic_vector(self):
        obs = ObservationSeries([0, 1, 1], kind="symbolic")
        assert obs.values.dtype == np.int64
        assert len(obs) == 3

    def test_real_column_promotion(self):
        obs = ObservationSeries([0.5, -0.2], kind="real")
        assert obs.values.shape == (2, 1)

    def test_real_matrix(self):
        obs = ObservationSeries([[0.5, 1.0], [0.1, 0.2]], kind="real")
        assert obs.values.shape == (2, 2)

    def test_symbolic_rejects_fractions(self):
        with pytest.raises(ModelValidationError):
            ObservationSeries([0.5, 1.0], kind="symbolic")

    @pytest.mark.parametrize(
        "values",
        [[0.0, np.inf, 1.0], [-np.inf], [np.nan], [2.0**63], [2**63], [2**64], [1e300]],
        ids=["inf", "-inf", "nan", "float 2**63", "uint64 2**63", "int 2**64", "1e300"],
    )
    def test_symbolic_rejects_values_the_cast_would_change(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelValidationError, match="int64 range"):
                ObservationSeries(values, kind="symbolic")

    @pytest.mark.parametrize(
        "values",
        [[-(2.0**63)], np.array([2**63 - 1], dtype=np.uint64)],
        ids=["float", "uint64"],
    )
    def test_symbolic_keeps_the_int64_extremes(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            obs = ObservationSeries(values, kind="symbolic")
        assert obs.values.tolist() == [int(values[0])]

    def test_real_rejects_non_finite(self):
        with pytest.raises(ModelValidationError):
            ObservationSeries([np.nan], kind="real")

    def test_unknown_kind(self):
        with pytest.raises(ModelValidationError):
            ObservationSeries([0], kind="fuzzy")

    @pytest.mark.parametrize("kind, values, bad", ZERO_SERIES)
    def test_values_are_read_only_after_the_checks(self, kind, values, bad):
        obs = ObservationSeries(values, kind=kind)
        with pytest.raises(ValueError, match="read-only"):
            obs.values[3] = bad
        assert (obs.values == 0).all()

    @pytest.mark.parametrize("kind, values, bad", ZERO_SERIES)
    def test_the_callers_array_stays_writable_and_apart(self, kind, values, bad):
        values = values.copy()
        obs = ObservationSeries(values, kind=kind)
        values[3] = bad
        assert values.flags.writeable
        assert (obs.values == 0).all()


class TestStatePath:
    def test_discrete(self):
        assert len(StatePath(np.array([0, 1, 0]))) == 3

    def test_continuous_column_promotion(self):
        assert StatePath(np.array([0.5, 1.5])).states.shape == (2, 1)


class TestDiscreteHMMConstruction:
    def test_shapes(self):
        m = two_state_hmm()
        assert m.K == 2 and m.M == 2

    def test_mismatched_transition_shape(self):
        with pytest.raises(ModelValidationError):
            DiscreteHMM([1.0], [[0.5, 0.5], [0.5, 0.5]], [[1.0]])

    def test_single_state_single_symbol(self):
        m = DiscreteHMM([1.0], [[1.0]], [[1.0]])
        assert validate_model(m) == []


class TestValidateModel:
    def test_valid_two_state(self):
        assert validate_model(two_state_hmm()) == []

    def test_row_deficit_named(self):
        m = DiscreteHMM([0.5, 0.5], [[0.5, 0.4], [0.2, 0.8]], [[0.8, 0.2], [0.3, 0.7]])
        report = validate_model(m)
        assert len(report) == 1
        assert "transition row 0" in report[0]
        assert "-0.1" in report[0]

    def test_negative_entry(self):
        m = DiscreteHMM([0.5, 0.5], [[1.1, -0.1], [0.2, 0.8]], [[0.8, 0.2], [0.3, 0.7]])
        assert any("negative" in v for v in validate_model(m))

    def test_row_within_tolerance_accepted(self):
        m = DiscreteHMM(
            [0.5, 0.5],
            [[0.9, 0.1 + 5e-13], [0.2, 0.8]],
            [[0.8, 0.2], [0.3, 0.7]],
        )
        assert validate_model(m) == []

    @pytest.mark.parametrize(
        "initial, transition, name",
        [
            ([np.nan, 1.0], [[0.9, 0.1], [0.2, 0.8]], "initial"),
            ([0.5, 0.5], [[0.9, 0.1], [np.nan, 0.8]], "transition row 1"),
        ],
    )
    def test_non_finite_row_reported(self, initial, transition, name):
        # NaN compares false both as a negative entry and as an off sum;
        # the rule counts a sum that is not finite as off.
        m = DiscreteHMM(initial, transition, [[0.8, 0.2], [0.3, 0.7]])
        report = validate_model(m)
        assert len(report) == 1 and report[0].startswith(f"{name} sums to")

    def test_r_not_positive_definite(self):
        m = scalar_lgssm(R=[[-0.1]])
        assert any("R" in v and "positive definite" in v for v in validate_model(m))

    def test_q_asymmetric(self):
        m = LinearGaussianModel(
            A=np.eye(2),
            C=np.eye(2),
            Q=[[1.0, 0.2], [0.0, 1.0]],
            R=np.eye(2),
            mu0=np.zeros(2),
            Sigma0=np.eye(2),
        )
        assert any("Q" in v and "symmetric" in v for v in validate_model(m))

    def test_singular_q_allowed(self):
        assert validate_model(scalar_lgssm(Q=[[0.0]])) == []

    def test_non_finite_rejected_at_construction(self):
        with pytest.raises(ModelValidationError):
            scalar_lgssm(A=[[np.inf]])


class TestGenericModel:
    def test_requires_positive_dimension(self):
        with pytest.raises(ModelValidationError):
            GenericStateSpaceModel(
                d_x=0,
                init_sampler=lambda n, rng: np.zeros((n, 1)),
                transition_sampler=lambda x, t, rng: x,
                observation_logdensity=lambda x, y, t: np.zeros(x.shape[0]),
            )

    def test_passes_validation(self):
        m = GenericStateSpaceModel(
            d_x=1,
            init_sampler=lambda n, rng: np.zeros((n, 1)),
            transition_sampler=lambda x, t, rng: x,
            observation_logdensity=lambda x, y, t: np.zeros(x.shape[0]),
        )
        assert validate_model(m) == []
