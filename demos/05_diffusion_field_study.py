"""
Dimension reduction for a diffusion equation with a random field
================================================================

The stress test: the input is a log-conductivity field on a 2-D grid
(one coordinate per cell, correlated through a squared-exponential
covariance), the model solves -div(kappa grad u) = 0 and reports the
solution field, and the question is how many input directions the
output actually depends on.  Gradient-informed projections are compared
against plain Karhunen-Loeve truncation of the input field: for the
full-field output the two are nearly interchangeable, while localized
outputs leave K-L far behind.
"""

import numpy as np

from gradridge import (
    DiffusionModel,
    GaussianMeasure,
    Mesh2D,
    SampleStream,
    build_field_covariance,
    build_ridge,
    error_bound,
    estimate_h,
    kl_projector,
    optimal_projector,
    spectrum_report,
    validate_error,
)

# A 10 x 10 cell grid: 100 input dimensions.
mesh = Mesh2D(10)
cov = build_field_covariance(mesh, lengthscale=0.15)
mu = GaussianMeasure(np.zeros(mesh.n_cells), cov)
stream = SampleStream(42)

for tag, scenario in enumerate(("full_field", "point_pair")):
    model = DiffusionModel(mesh, scenario=scenario)
    est = estimate_h(model, mu, stream.substream(10 + tag), count=300)
    report = spectrum_report(est, mu)

    print(f"--- scenario: {scenario} ---")
    lam = report.eigenvalues
    print(f"generalized spectrum decay lambda_1 / lambda_20: {lam[0] / lam[19]:.1f}")

    # Ranks whose estimated tail is a fraction of the total gradient energy.
    total = report.tail_sums[0]
    for frac in (0.1, 0.01):
        r_opt = int(np.searchsorted(-report.tail_sums, -frac * total))
        print(f"rank leaving {frac:.0%} residual energy: {r_opt}")

    # Optimal projector vs Karhunen-Loeve input truncation at rank 10:
    # same rank, same machinery, different subspace.
    rank = 10
    p_opt = optimal_projector(est, mu, rank)
    p_kl = kl_projector(mu, rank)
    print(f"rank-{rank} estimated bound, gradient-informed: "
          f"{error_bound(p_opt, est, mu):.3e}")
    print(f"rank-{rank} estimated bound, Karhunen-Loeve:    "
          f"{error_bound(p_kl, est, mu):.3e}")

    # Validate the gradient-informed bound with an actual ridge build.
    approx = build_ridge(model, mu, p_opt, stream.substream(20 + tag),
                         profile_samples=5)
    mse, se = validate_error(approx, model, mu, stream.substream(30 + tag),
                             count=200)
    print(f"validated squared error at rank {rank}:         {mse:.3e} +/- {se:.1e}")
    print()
