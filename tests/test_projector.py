import numpy as np
import pytest

from gradridge import (
    DimensionMismatch,
    NotSigmaOrthogonal,
    RankRProjector,
    SampleStream,
    SpdMatrix,
    random_sigma_orthogonal_projector,
    require_sigma_orthogonal,
    sigma_inverse_projector,
    sigma_orthogonalize,
)
from gradridge.projector import ORTH_EUCLIDEAN, ORTH_SIGMA_INVERSE, euclidean_projector
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
    for p in (z, i):
        assert p.is_sigma_orthogonal and p.is_euclidean


def test_rejects_non_idempotent():
    # W^T U != I: U W^T is not idempotent
    e = np.eye(3)[:, :2]
    with pytest.raises(ValueError):
        RankRProjector(e, 0.5 * e, flags=(ORTH_EUCLIDEAN,))
    with pytest.raises(ValueError):
        RankRProjector(e, np.eye(3)[:, 1:], flags=(ORTH_EUCLIDEAN,))


def test_rejects_wrong_trace():
    # the rank is the factors' column count, so a mismatched pair of
    # factors or more columns than rows is all that can be wrong with it
    with pytest.raises(DimensionMismatch):
        RankRProjector(np.eye(3)[:, :2], np.eye(3)[:, :1], flags=(ORTH_EUCLIDEAN,))
    with pytest.raises(DimensionMismatch):
        RankRProjector(np.eye(3)[:, :2], np.eye(2), flags=(ORTH_EUCLIDEAN,))
    with pytest.raises(DimensionMismatch):
        RankRProjector(np.ones((2, 3)), np.ones((2, 3)) / 6.0, flags=(ORTH_EUCLIDEAN,))
    with pytest.raises(DimensionMismatch):
        RankRProjector(np.ones(3), np.ones(3) / 3.0, flags=(ORTH_EUCLIDEAN,))


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
    # defining identity of the flag: P^T Sigma^{-1} = Sigma^{-1} P
    rng = np.random.default_rng(2)
    for d, r in ((4, 1), (6, 3), (9, 5)):
        sigma = random_spd(rng, d)
        basis = rng.standard_normal((d, r))
        p = sigma_inverse_projector(basis, sigma)
        assert p.rank == r
        assert p.is_sigma_orthogonal
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
        require_sigma_orthogonal(p)
        assert p.rank == 3
        seen.append(p.matrix.copy())
    # distinct draws give distinct projectors
    assert np.linalg.norm(seen[0] - seen[1], "fro") > 1e-3


def test_random_projector_rejects_sigma_of_another_dim():
    for sigma in (np.eye(4), SpdMatrix.identity(2)):
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
        assert q.is_sigma_orthogonal
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
        require_sigma_orthogonal(p)


def test_basis_qr_fallback_for_dependent_columns():
    # nearly dependent columns still produce a clean rank-2 projector
    rng = np.random.default_rng(8)
    v = rng.standard_normal((5, 1))
    basis = np.hstack([v, v + 1e-3 * rng.standard_normal((5, 1))])
    sigma = random_spd(rng, 5)
    p = sigma_inverse_projector(basis, sigma)
    assert p.rank == 2
    np.testing.assert_allclose(p.matrix @ p.matrix, p.matrix, atol=1e-8)
