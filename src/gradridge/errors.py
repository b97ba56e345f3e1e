"""Exceptions and warning categories shared across the package."""


class GradRidgeError(Exception):
    """Base class for every error this package raises deliberately."""


class DimensionMismatch(GradRidgeError):
    pass


class NotPositiveDefinite(GradRidgeError):
    """A matrix that must be SPD has its least eigenvalue at or below the floor."""


class NotPositiveSemidefinite(GradRidgeError):
    """An eigenvalue is negative beyond round-off tolerance."""


class NoConvergence(GradRidgeError):
    """The LAPACK eigensolver failed to converge."""


class NonFiniteInput(GradRidgeError):
    """A linear algebra kernel was handed a matrix with NaN or infinite entries,
    or a model's output variance overflowed."""


class NegativeTrace(GradRidgeError):
    """A trace that is nonnegative in exact arithmetic came out significantly negative."""


class RankOutOfRange(GradRidgeError):
    pass


class NotSigmaOrthogonal(GradRidgeError):
    """The operation requires a projector that is orthogonal in the
    covariance-inverse inner product."""


class NonStandardMeasure(GradRidgeError):
    """A closed form valid only under the standard normal measure was requested
    for a measure with nonzero mean or non-identity covariance."""


class IndexOutOfRange(GradRidgeError):
    pass


class NonDiagonalCovariance(GradRidgeError):
    pass


class ZeroVariance(GradRidgeError):
    pass


class ModelEvaluationFailure(GradRidgeError):
    """A model eval or Jacobian call failed. Carries the sample index."""

    def __init__(self, sample_index, message=None):
        self.sample_index = sample_index
        super().__init__(message or f"model evaluation failed at sample {sample_index}")


class SolverFailure(GradRidgeError):
    """A linear solve did not reach the required residual. Carries the residual."""

    def __init__(self, residual, message=None):
        self.residual = residual
        super().__init__(message or f"linear solver failed (residual {residual:.3e})")


class ConfigError(GradRidgeError):
    """Invalid experiment configuration."""


class NonUniqueProjectorWarning(UserWarning):
    """Requested rank exceeds what the sample count can identify; trailing
    directions of the returned projector are arbitrary."""


class InputClampedWarning(UserWarning):
    """Input coordinates were clamped to the admissible range before use."""
