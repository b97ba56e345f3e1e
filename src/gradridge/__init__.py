"""Gradient-based ridge approximation for vector-valued functions of Gaussian
inputs: low-dimensional projections, gradient-based error bounds, and global
sensitivity indices."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DimensionMismatch,
    GradRidgeError,
    IndexOutOfRange,
    InputClampedWarning,
    ModelEvaluationFailure,
    NegativeTrace,
    NoConvergence,
    NonDiagonalCovariance,
    NonFiniteInput,
    NonStandardMeasure,
    NonUniqueProjectorWarning,
    NotPositiveDefinite,
    NotPositiveSemidefinite,
    NotSigmaOrthogonal,
    RankOutOfRange,
    SolverFailure,
    ZeroVariance,
)
from .linalg import (
    EigenRoot,
    GeneralizedEigenPairs,
    SpdMatrix,
    generalized_eig,
    sym_eig,
    trace_quadratic,
)
from .measure import (
    GaussianMeasure,
    SampleStream,
    conditioned_resample,
    kl_projector,
    sample,
    squared_exponential_covariance,
)
from .models import (
    LinearModel,
    QuadraticFormModel,
    SumOfSinesModel,
    VectorValuedModel,
    exact_conditional_expectation,
    finite_diff_jacobian,
    linear_cond_exp_error,
    quadratic_cond_exp_error,
    sines_bound,
    sines_cond_exp_error,
)
from .projector import (
    RankRProjector,
    euclidean_projector,
    random_sigma_orthogonal_projector,
    require_sigma_orthogonal,
    sigma_inverse_projector,
    sigma_orthogonalize,
)
from .ridge import (
    HMatrixEstimate,
    RidgeApproximation,
    SpectrumReport,
    basis_error_bounds,
    build_ridge,
    error_bound,
    estimate_h,
    m_inflation_check,
    optimal_projector,
    select_rank,
    spectrum_report,
    tail_sums,
    validate_error,
)
from .sensitivity import (
    IndexGroup,
    SensitivityReport,
    build_sensitivity_report,
    coordinate_projector,
    dgsm,
    sobol_bounds,
    sobol_estimates,
)

# The diffusion testbed needs scipy; it is imported on first use (PEP 562), so
# a run of the closed-form models never loads scipy.linalg or scipy.sparse.
_PDE_NAMES = ("DiffusionModel", "Mesh2D", "build_field_covariance")


def __getattr__(name):
    if name not in _PDE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import pde

    return getattr(pde, name)


def __dir__():
    return sorted(set(globals()) | set(_PDE_NAMES))
