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
from .pde import DiffusionModel, Mesh2D, build_field_covariance
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
