import itertools

import numpy as np
import pytest

from gradridge import (
    DiffusionModel,
    DimensionMismatch,
    GaussianMeasure,
    LinearModel,
    NotSigmaOrthogonal,
    QuadraticFormModel,
    RankRProjector,
    SampleStream,
    SpdMatrix,
    build_ridge,
    conditioned_resample,
    estimate_h,
    exact_conditional_expectation,
    generalized_eig,
    kl_projector,
    linear_cond_exp_error,
    m_inflation_check,
    optimal_projector,
    quadratic_cond_exp_error,
    random_sigma_orthogonal_projector,
    require_sigma_orthogonal,
    sigma_inverse_projector,
    sigma_orthogonalize,
)
from gradridge.pde import Mesh2D, build_field_covariance
from gradridge.projector import euclidean_projector
from gradridge.sensitivity import coordinate_projector


def random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return SpdMatrix(a @ a.T + d * np.eye(d))


def test_zero_and_identity():
    z = RankRProjector.zero(3)
    assert z.rank == 0
    np.testing.assert_array_equal(z.matrix, np.zeros((3, 3)))
    i = RankRProjector.identity(3)
    assert i.rank == 3
    np.testing.assert_array_equal(i.matrix, np.eye(3))
    sigma = random_spd(np.random.default_rng(0), 3)
    for p in (z, i):
        require_sigma_orthogonal(p, sigma)
        np.testing.assert_array_equal(p.matrix, p.matrix.T)


def test_rejects_non_idempotent():
    # W^T U != I: U W^T is not idempotent
    e = np.eye(3)[:, :2]
    with pytest.raises(ValueError):
        RankRProjector(e, 0.5 * e)
    with pytest.raises(ValueError):
        RankRProjector(e, np.eye(3)[:, 1:])


def test_rejects_wrong_trace():
    # the rank is the factors' column count, so a mismatched pair of
    # factors or more columns than rows is all that can be wrong with it
    with pytest.raises(DimensionMismatch):
        RankRProjector(np.eye(3)[:, :2], np.eye(3)[:, :1])
    with pytest.raises(DimensionMismatch):
        RankRProjector(np.eye(3)[:, :2], np.eye(2))
    with pytest.raises(DimensionMismatch):
        RankRProjector(np.ones((2, 3)), np.ones((2, 3)) / 6.0)
    with pytest.raises(DimensionMismatch):
        RankRProjector(np.ones(3), np.ones(3) / 3.0)


def test_euclidean_projector_symmetric_idempotent():
    rng = np.random.default_rng(1)
    b = rng.standard_normal((6, 2))
    p = euclidean_projector(b)
    assert p.rank == 2
    np.testing.assert_allclose(p.matrix, p.matrix.T, atol=1e-12)
    np.testing.assert_allclose(p.matrix @ p.matrix, p.matrix, atol=1e-12)
    # projects its own basis onto itself
    np.testing.assert_allclose(p.matrix @ b, b, atol=1e-10)


def test_sigma_inverse_projector_commutation():
    # defining identity of the check: P^T Sigma^{-1} = Sigma^{-1} P
    rng = np.random.default_rng(2)
    for d, r in ((4, 1), (6, 3), (9, 5)):
        sigma = random_spd(rng, d)
        basis = rng.standard_normal((d, r))
        p = sigma_inverse_projector(basis, sigma)
        assert p.rank == r
        require_sigma_orthogonal(p, sigma)
        sig_inv = np.linalg.inv(sigma.entries)
        comm = p.matrix.T @ sig_inv - sig_inv @ p.matrix
        scale = np.linalg.norm(sig_inv, "fro")
        assert np.linalg.norm(comm, "fro") < 1e-8 * scale
        np.testing.assert_allclose(p.matrix @ p.matrix, p.matrix, atol=1e-9)
        # range is the requested span
        np.testing.assert_allclose(p.matrix @ basis, basis, atol=1e-8 * np.abs(basis).max())


def test_sigma_inverse_projector_identity_sigma_is_euclidean():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((5, 2))
    p = sigma_inverse_projector(b, SpdMatrix.identity(5))
    np.testing.assert_allclose(p.matrix, p.matrix.T, atol=1e-12)


def test_random_projector_valid():
    rng = SampleStream(99)
    sigma = random_spd(np.random.default_rng(4), 7)
    seen = []
    for k in range(5):
        p = random_sigma_orthogonal_projector(7, 3, sigma, rng.substream(k))
        require_sigma_orthogonal(p, sigma)
        assert p.rank == 3
        seen.append(p.matrix.copy())
    # distinct draws give distinct projectors
    assert np.linalg.norm(seen[0] - seen[1], "fro") > 1e-3


def test_random_projector_rejects_sigma_of_another_dim():
    for sigma in (SpdMatrix.identity(4), SpdMatrix.identity(2)):
        with pytest.raises(DimensionMismatch, match="sigma dim"):
            random_sigma_orthogonal_projector(3, 1, sigma, np.random.default_rng(0))


def _oblique_projector(rng, d, r):
    # U W^T with W^T U = I but W not parallel to U (or to Sigma^{-1} U)
    u = rng.standard_normal((d, r))
    w0 = rng.standard_normal((d, r))
    return RankRProjector(u, w0 @ np.linalg.inv(u.T @ w0))


def test_sigma_orthogonalize_preserves_kernel():
    rng = np.random.default_rng(5)
    d, r = 6, 2
    sigma = random_spd(rng, d)
    oblique = _oblique_projector(rng, d, r)
    assert np.linalg.norm(oblique.basis - oblique.dual) > 0.1
    for p in (euclidean_projector(rng.standard_normal((d, r))), oblique):
        q = sigma_orthogonalize(p, sigma)
        require_sigma_orthogonal(q, sigma)
        assert q.rank == r
        # same kernel: anything killed by P is killed by Q and vice versa
        resid = np.eye(d) - p.matrix
        np.testing.assert_allclose(q.matrix @ resid, np.zeros((d, d)), atol=1e-9)
        resid_q = np.eye(d) - q.matrix
        np.testing.assert_allclose(p.matrix @ resid_q, np.zeros((d, d)), atol=1e-9)


def test_sigma_orthogonalize_keeps_exact_zero_and_identity():
    sigma = random_spd(np.random.default_rng(9), 4)
    q0 = sigma_orthogonalize(euclidean_projector(np.zeros((4, 0))), sigma)
    np.testing.assert_array_equal(q0.matrix, np.zeros((4, 4)))
    q1 = sigma_orthogonalize(euclidean_projector(np.eye(4)), sigma)
    np.testing.assert_array_equal(q1.matrix, np.eye(4))
    with pytest.raises(DimensionMismatch):
        sigma_orthogonalize(RankRProjector.identity(3), sigma)


def test_constructors_give_an_exact_zero_projector_for_an_empty_basis():
    d = 5
    sigma = random_spd(np.random.default_rng(11), d)
    empty = np.zeros((d, 0))
    for p in (sigma_inverse_projector(empty, sigma), euclidean_projector(empty),
              sigma_orthogonalize(RankRProjector.zero(d), sigma)):
        assert p.basis.shape == p.dual.shape == (d, 0)
        assert not p.basis.flags.writeable and not p.dual.flags.writeable
        np.testing.assert_array_equal(p.matrix, np.zeros((d, d)))
        np.testing.assert_array_equal(p.apply(np.ones((3, d))), np.zeros((3, d)))


def test_apply_matches_dense_matrix_for_every_constructor():
    rng = np.random.default_rng(10)
    d = 6
    sigma = random_spd(rng, d)
    xs = rng.standard_normal((5, d))
    projectors = [
        RankRProjector.zero(d),
        RankRProjector.identity(d),
        euclidean_projector(rng.standard_normal((d, 2))),
        sigma_inverse_projector(rng.standard_normal((d, 3)), sigma),
        sigma_orthogonalize(euclidean_projector(rng.standard_normal((d, 2))), sigma),
        random_sigma_orthogonal_projector(d, 4, sigma, SampleStream(10)),
        coordinate_projector([2, 5], d),
        coordinate_projector([], d),
        coordinate_projector(list(range(1, d + 1)), d),
        _oblique_projector(rng, d, 3),
    ]
    for p in projectors:
        np.testing.assert_allclose(p.apply(xs), xs @ p.matrix.T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(p.apply(xs[0]), p.matrix @ xs[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(p.dual.T @ p.basis, np.eye(p.rank), atol=1e-10)
    # zero, identity and coordinate projectors are exact, not just close
    for p in (projectors[0], projectors[1], *projectors[6:9]):
        np.testing.assert_array_equal(p.apply(xs), xs @ p.matrix.T)


def test_sigma_orthogonalize_noop_when_already_orthogonal():
    rng = np.random.default_rng(6)
    sigma = random_spd(rng, 5)
    p = sigma_inverse_projector(rng.standard_normal((5, 2)), sigma)
    q = sigma_orthogonalize(p, sigma)
    np.testing.assert_allclose(q.matrix, p.matrix, atol=1e-9)


def test_require_sigma_orthogonal_raises():
    rng = np.random.default_rng(7)
    p = euclidean_projector(rng.standard_normal((4, 2)))
    with pytest.raises(NotSigmaOrthogonal):
        require_sigma_orthogonal(p, random_spd(rng, 4))


def test_basis_qr_fallback_for_dependent_columns():
    # nearly dependent columns still produce a clean rank-2 projector
    rng = np.random.default_rng(8)
    v = rng.standard_normal((5, 1))
    basis = np.hstack([v, v + 1e-3 * rng.standard_normal((5, 1))])
    sigma = random_spd(rng, 5)
    p = sigma_inverse_projector(basis, sigma)
    assert p.rank == 2
    np.testing.assert_allclose(p.matrix @ p.matrix, p.matrix, atol=1e-8)


def _linear(mu):
    return LinearModel(np.arange(1.0, 2 * mu.dim + 1).reshape(2, mu.dim))


def _quadratic(mu):
    return QuadraticFormModel(np.diag(np.arange(1.0, mu.dim + 1)))


# every operation that needs P to be sigma-inverse-orthogonal for mu's
# covariance, and whether it holds under N(0, I) only
_NEEDS_SIGMA_ORTHOGONAL = {
    "build_ridge": (False, lambda mu, p: build_ridge(_linear(mu), mu, p, SampleStream(1), 2)),
    "conditioned_resample": (
        False, lambda mu, p: conditioned_resample(mu, p, np.ones(mu.dim), SampleStream(1), 2)),
    "m_inflation_check": (
        False, lambda mu, p: m_inflation_check(_linear(mu), mu, p, 2, 1, SampleStream(1))),
    "linear_cond_exp_error": (False, lambda mu, p: linear_cond_exp_error(_linear(mu), mu, p)),
    "exact_conditional_expectation-linear": (
        False, lambda mu, p: exact_conditional_expectation(_linear(mu), mu, p)),
    "quadratic_cond_exp_error": (
        True, lambda mu, p: quadratic_cond_exp_error(_quadratic(mu), mu, p)),
    "exact_conditional_expectation-quadratic": (
        True, lambda mu, p: exact_conditional_expectation(_quadratic(mu), mu, p)),
}


def _mismatched(case, standard):
    """A projector that is sigma-inverse-orthogonal for one covariance, and a
    measure with another covariance (the identity if ``standard``)."""
    if case == "coordinate":
        # under corr, E[x_2 | x_1 = 1] is 0.8; P = e1 e1^T would freeze it at 0
        corr = SpdMatrix([[1.0, 0.8], [0.8, 1.0]])
        if standard:
            return GaussianMeasure.standard(2), sigma_inverse_projector(np.eye(2)[:, :1], corr)
        return GaussianMeasure(np.zeros(2), corr), coordinate_projector([1], 2)
    d = 6
    p = random_sigma_orthogonal_projector(
        d, 2, SpdMatrix.diagonal(np.arange(1.0, d + 1)), SampleStream(40))
    if standard:
        return GaussianMeasure.standard(d), p
    return GaussianMeasure(np.zeros(d), random_spd(np.random.default_rng(41), d)), p


@pytest.mark.parametrize("case", ["coordinate", "random"])
@pytest.mark.parametrize("operation", sorted(_NEEDS_SIGMA_ORTHOGONAL))
def test_every_operation_rejects_a_projector_built_for_another_covariance(operation, case):
    standard, run = _NEEDS_SIGMA_ORTHOGONAL[operation]
    mu, p = _mismatched(case, standard)
    with pytest.raises(NotSigmaOrthogonal):
        require_sigma_orthogonal(p, mu.cov)
    with pytest.raises(NotSigmaOrthogonal):
        run(mu, p)
    # the same operation takes the projector under a covariance it was built for
    run(mu, sigma_orthogonalize(p, mu.cov))


def test_sigma_check_accepts_every_constructor_under_its_own_covariance():
    g = 12
    mu = GaussianMeasure(np.zeros(g * g), build_field_covariance(Mesh2D(g)))
    h = estimate_h(DiffusionModel(g, "full_field"), mu, SampleStream(3), 8).h
    pairs = generalized_eig(h, mu.cov)
    for r in range(1, g * g + 1):
        require_sigma_orthogonal(optimal_projector(h, mu, r, pairs=pairs), mu.cov)
        require_sigma_orthogonal(kl_projector(mu, r), mu.cov)
    for p in (RankRProjector.zero(g * g), RankRProjector.identity(g * g)):
        require_sigma_orthogonal(p, mu.cov)
    d = 5
    diagonal = SpdMatrix.diagonal([0.5, 2.0, 1.0, 7.0, 3.0])
    for r in range(d + 1):
        for tau in itertools.combinations(range(1, d + 1), r):
            require_sigma_orthogonal(coordinate_projector(tau, d), diagonal)


def test_sigma_check_refuses_a_projector_of_another_dimension():
    with pytest.raises(DimensionMismatch):
        require_sigma_orthogonal(RankRProjector.identity(3), SpdMatrix.identity(4))
