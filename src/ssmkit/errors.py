"""Exception hierarchy.

Errors fall into three families that the command-line layer maps onto exit
codes: usage mistakes (plain ValueError, exit 1), bad models or data files
(ModelValidationError / DataFormatError, exit 2), and numerical failures
during inference (NumericalError subclasses, exit 3).
"""

import operator


class SsmError(Exception):
    """Base class for all toolkit-specific errors."""


class ModelValidationError(SsmError):
    """Model parameters violate an invariant, or model/data kinds mismatch."""


class BoundaryParameterError(ModelValidationError):
    """Model lies on the parameter-space boundary (zero probability or
    singular covariance) where the unconstrained transform is undefined."""


class DataFormatError(SsmError):
    """A model document or series file is malformed."""


class NumericalError(SsmError):
    """Inference failed numerically."""


class ImpossibleObservationError(NumericalError):
    """An observation has zero likelihood under every reachable state."""

    def __init__(self, time_index: int, message: str | None = None):
        self.time_index = time_index
        super().__init__(
            message or f"observation at t={time_index} has zero likelihood under the model"
        )


class DegenerateWeightsError(NumericalError):
    """All log-weights are -inf; no normalization exists."""


class ParticleCollapseError(NumericalError):
    """Every particle received zero weight at some step."""

    def __init__(self, time_index: int, message: str | None = None):
        self.time_index = time_index
        super().__init__(
            message or f"all particle weights vanished at t={time_index}"
        )


class NumericalDegeneracyError(NumericalError):
    """An innovation covariance is numerically singular."""

    def __init__(self, time_index: int, message: str | None = None):
        self.time_index = time_index
        super().__init__(
            message
            or f"innovation covariance at t={time_index} is numerically singular"
        )


class DegenerateCurveError(NumericalError):
    """Too few positive entries in a decay curve to fit a rate."""


class SimplexInitError(NumericalError):
    """The optimizer cannot start: every vertex of the initial simplex, or
    the quasi-Newton start point, evaluated to +inf, or the start point's
    score failed."""


class EnumerationSizeError(SsmError):
    """K**T exceeds the brute-force enumeration guard."""


def _integer(value, name: str, error: type[Exception] = ValueError) -> int:
    """value as an int: Python and numpy integers pass through
    operator.index, and anything else, a float of integral value too,
    raises error naming the argument."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {type(value).__name__}") from None
