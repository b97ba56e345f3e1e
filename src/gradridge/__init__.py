"""Gradient-based ridge approximation for vector-valued functions of Gaussian
inputs: low-dimensional projections, gradient-based error bounds, and global
sensitivity indices."""

from importlib import import_module

__version__ = "0.1.0"

# The public names each submodule defines. A name's submodule is imported when
# the name is first read (PEP 562), so `import gradridge` loads neither numpy
# nor scipy.
_PUBLIC = {
    "errors": """ConfigError DimensionMismatch GradRidgeError IndexOutOfRange
        InputClampedWarning ModelEvaluationFailure NegativeTrace NoConvergence
        NonDiagonalCovariance NonFiniteInput NonStandardMeasure NonUniqueProjectorWarning
        NotPositiveDefinite NotPositiveSemidefinite NotSigmaOrthogonal RankOutOfRange
        SolverFailure ZeroVariance""",
    "linalg": "EigenRoot GeneralizedEigenPairs SpdMatrix generalized_eig sym_eig trace_quadratic",
    "measure": """GaussianMeasure SampleStream conditioned_resample kl_projector sample
        squared_exponential_covariance""",
    "models": """LinearModel QuadraticFormModel SumOfSinesModel VectorValuedModel
        exact_conditional_expectation finite_diff_jacobian linear_cond_exp_error
        quadratic_cond_exp_error sines_bound sines_cond_exp_error""",
    "projector": """RankRProjector euclidean_projector random_sigma_orthogonal_projector
        require_sigma_orthogonal sigma_inverse_projector sigma_orthogonalize""",
    "ridge": """HMatrixEstimate RidgeApproximation SpectrumReport basis_error_bounds build_ridge
        error_bound estimate_h m_inflation_check optimal_projector select_rank spectrum_report
        tail_sums validate_error""",
    "sensitivity": """IndexGroup SensitivityReport build_sensitivity_report coordinate_projector
        dgsm sobol_bounds sobol_estimates""",
    "pde": "DiffusionModel Mesh2D build_field_covariance",
}
# The submodule that defines each public name; a submodule maps to itself.
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}
__all__ = list(_HOME)
_HOME.update((module, module) for module in (*_PUBLIC, "cli", "experiments"))


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_HOME[name]}")
    return module if name == _HOME[name] else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))
