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
    """A sampled model call failed at sample ``sample_index``: its result held
    a NaN or inf (``what`` names the result), or it raised ``cause``. The
    message names the index and what failed; ``moved`` is the same failure at
    another index, worded the same way."""

    def __init__(self, sample_index, what=None, cause=None):
        self.sample_index, self.what, self.cause = sample_index, what, cause
        message = f"model evaluation failed at sample {sample_index}"
        if what is not None:
            message = f"non-finite {what} at sample {sample_index}"
        elif cause is not None:
            message += f": {type(cause).__name__}: {cause}"
        super().__init__(message)

    def moved(self, offset):
        return ModelEvaluationFailure(self.sample_index + offset, self.what, self.cause)

    def __reduce__(self):
        return type(self), (self.sample_index, self.what, self.cause)


class SolverFailure(GradRidgeError):
    """A linear solve did not reach the required residual. Carries the residual."""

    def __init__(self, residual, message=None):
        self.residual = residual
        self.message = message
        super().__init__(message or f"linear solver failed (residual {residual:.3e})")

    def __reduce__(self):
        return type(self), (self.residual, self.message)


class ConfigError(GradRidgeError):
    """Invalid experiment configuration."""


class NonUniqueProjectorWarning(UserWarning):
    """Requested rank exceeds what the sample count can identify; trailing
    directions of the returned projector are arbitrary."""


class InputClampedWarning(UserWarning):
    """Input coordinates were clamped to the admissible range before use."""
