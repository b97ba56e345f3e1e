"""
Building a ridge approximation and validating it
================================================

The full pipeline on a quadratic-form model: estimate the gradient
second-moment matrix from samples, read the spectrum to pick a rank,
build the sampled conditional expectation along the optimal projector,
and validate the estimated bound with independent Monte Carlo.  Along
the way, the cost of using M conditioning samples instead of the exact
conditional expectation is measured: the expected squared error inflates
by exactly 1 + 1/M on a linear model.
"""

import numpy as np

from gradridge import (
    GaussianMeasure,
    LinearModel,
    QuadraticFormModel,
    SampleStream,
    build_ridge,
    error_bound,
    estimate_h,
    m_inflation_check,
    optimal_projector,
    select_rank,
    spectrum_report,
    validate_error,
)

d = 8
mu = GaussianMeasure(np.zeros(d), np.eye(d))

# A quadratic form f(x) = x^T A x / 2 with a graded symmetric A, so the
# generalized spectrum decays and low ranks carry most of the energy.
rng = np.random.default_rng(3)
basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
a = basis @ np.diag([3.0, 2.0, 1.2, 0.6, 0.3, 0.1, 0.05, 0.01]) @ basis.T
model = QuadraticFormModel(a)

stream = SampleStream(2026)

# Estimate H from 4000 gradient samples, then look at the spectrum.
est = estimate_h(model, mu, stream.substream(1), count=4000)
report = spectrum_report(est, mu)
print("generalized eigenvalues:", np.array2string(report.eigenvalues, precision=3))
print("estimated tails by rank:", np.array2string(report.tail_sums, precision=3))

# Pick the smallest rank whose estimated bound is an error of 0.5 or better.
rank = select_rank(report, eps=0.5)
print("smallest rank with estimated error <= 0.5:", rank)
print()

# Build the approximation with M = 20 conditioning samples and validate.
p = optimal_projector(est, mu, rank)
approx = build_ridge(model, mu, p, stream.substream(2), profile_samples=20)
mse, se = validate_error(approx, model, mu, stream.substream(3), count=20000)
bound = error_bound(p, est, mu)
print(f"estimated bound on the squared error: {bound:.4f}")
print(f"validated squared error:              {mse:.4f} +/- {se:.4f}")
# The bound covers the exact conditional expectation; the sampled profile
# adds a 1 + 1/M factor on top, so expect mse <~ bound * (1 + 1/20).
print(f"bound * (1 + 1/20):                   {bound * 1.05:.4f}")
print()

# The 1 + 1/M inflation law, measured on a linear model where the
# profile error is available in closed form per replicate.
lin = LinearModel(SampleStream(5).normal_matrix(4, d))
p_lin = optimal_projector(estimate_h(lin, mu, SampleStream(6), count=1), mu, 3)
print("profile samples M   mean error inflation   1 + 1/M")
for m in (1, 2, 5, 20):
    ratio = m_inflation_check(lin, mu, p_lin, profile_samples=m,
                              replicates=400, stream=stream.substream(10 + m))
    print(f"{m:17d}   {ratio:20.4f}   {1 + 1 / m:.4f}")
