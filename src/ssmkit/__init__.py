"""Exact and Monte Carlo inference for state-space models.

Finite-state hidden Markov models get exact filtering, smoothing,
prediction, Viterbi decoding, and Baum-Welch EM; linear-Gaussian models
get the Kalman filter and RTS smoother; everything else runs through a
bootstrap particle filter over user-supplied callbacks.  Estimation
maximizes the exact likelihood in unconstrained coordinates (BFGS on the
exact score, with an adjoint pass for linear-Gaussian models), and the
forgetting module measures how fast filters lose their initial condition.
"""

from .errors import (
    BoundaryParameterError,
    DataFormatError,
    DegenerateCurveError,
    DegenerateWeightsError,
    EnumerationSizeError,
    ImpossibleObservationError,
    ModelValidationError,
    NumericalDegeneracyError,
    NumericalError,
    ParticleCollapseError,
    SimplexInitError,
    SsmError,
)
from .estimation import (
    OptimizerReport,
    ParameterVector,
    fit_mle,
    negative_loglik,
    nelder_mead,
    pack,
    unpack,
)
from .forgetting import (
    ForgettingCurve,
    dobrushin_coefficient,
    fit_decay_rate,
    forgetting_curve,
    tv_distance,
)
from .hmm import (
    BaumWelchStep,
    CategoricalPosteriorSequence,
    EnumerationResult,
    SmoothedSequence,
    backward_smooth,
    baum_welch_step,
    exact_posterior_enumeration,
    fit_em,
    forward_filter,
    predict_states,
    viterbi,
)
from .cli import run_command
from .io import parse_model, read_series, write_model, write_series, write_table
from .kalman import (
    GaussianPosteriorSequence,
    GaussianSmoothedSequence,
    kalman_filter,
    kalman_predict,
    rts_smoother,
)
from .models import (
    DiscreteHMM,
    GenericStateSpaceModel,
    LinearGaussianModel,
    ObservationSeries,
    StatePath,
    validate_model,
)
from .numerics import (
    effective_sample_size,
    gaussian_logpdf,
    log_sum_exp,
    normalize_log_weights,
)
from .particle import (
    ParticleFilterResult,
    ParticleSet,
    bootstrap_filter,
    fixed_lag_smoother,
    lgssm_as_generic,
    multinomial_resample,
    pf_loglik,
    systematic_resample,
)
from .rng import SeededGenerator
from .simulate import simulate_hmm, simulate_lgssm

__version__ = "0.1.0"

__all__ = [
    "BaumWelchStep",
    "BoundaryParameterError",
    "CategoricalPosteriorSequence",
    "DataFormatError",
    "DegenerateCurveError",
    "DegenerateWeightsError",
    "DiscreteHMM",
    "EnumerationResult",
    "EnumerationSizeError",
    "ForgettingCurve",
    "GaussianPosteriorSequence",
    "GaussianSmoothedSequence",
    "GenericStateSpaceModel",
    "ImpossibleObservationError",
    "LinearGaussianModel",
    "ModelValidationError",
    "NumericalDegeneracyError",
    "NumericalError",
    "ObservationSeries",
    "OptimizerReport",
    "ParameterVector",
    "ParticleCollapseError",
    "ParticleFilterResult",
    "ParticleSet",
    "SeededGenerator",
    "SimplexInitError",
    "SmoothedSequence",
    "SsmError",
    "StatePath",
    "backward_smooth",
    "baum_welch_step",
    "bootstrap_filter",
    "dobrushin_coefficient",
    "effective_sample_size",
    "exact_posterior_enumeration",
    "fit_decay_rate",
    "fit_em",
    "fit_mle",
    "fixed_lag_smoother",
    "forgetting_curve",
    "forward_filter",
    "gaussian_logpdf",
    "kalman_filter",
    "kalman_predict",
    "lgssm_as_generic",
    "log_sum_exp",
    "multinomial_resample",
    "negative_loglik",
    "nelder_mead",
    "normalize_log_weights",
    "pack",
    "parse_model",
    "pf_loglik",
    "predict_states",
    "read_series",
    "rts_smoother",
    "run_command",
    "simulate_hmm",
    "simulate_lgssm",
    "systematic_resample",
    "tv_distance",
    "unpack",
    "validate_model",
    "viterbi",
    "write_model",
    "write_series",
    "write_table",
]
