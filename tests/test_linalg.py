import numpy as np
import pytest

from gradridge import (
    DimensionMismatch,
    EigenRoot,
    GaussianMeasure,
    GeneralizedEigenPairs,
    KroneckerRoot,
    NegativeTrace,
    NonFiniteInput,
    NotPositiveDefinite,
    SpdMatrix,
    generalized_eig,
    sym_eig,
    trace_quadratic,
)
from gradridge import RankRProjector, SampleStream, linalg, sample
from gradridge.pde import Mesh2D, build_field_covariance
from gradridge.projector import (
    euclidean_projector,
    random_sigma_orthogonal_projector,
    sigma_inverse_projector,
)


def random_spd(rng, d, spread=1.0):
    a = rng.standard_normal((d, d))
    return SpdMatrix(a @ a.T + spread * d * np.eye(d))


# The test_cholesky_* cases pin what the covariance factor accepts and
# rejects; that factor is the eigen root, SpdMatrix.root().


def test_cholesky_identity():
    root = SpdMatrix.identity(3).root()
    np.testing.assert_array_equal(root.factor, np.eye(3))
    np.testing.assert_array_equal(root.values, np.ones(3))


def test_cholesky_hand_value():
    # [[5,4],[4,5]] has eigenvalues 9 and 1 on (1,1)/sqrt(2) and (1,-1)/sqrt(2),
    # so its symmetric root is [[2,1],[1,2]]; checked by hand: S^2 = [[5,4],[4,5]]
    root = SpdMatrix([[5.0, 4.0], [4.0, 5.0]]).root()
    np.testing.assert_allclose(root.values, [9.0, 1.0], rtol=0, atol=1e-14)
    np.testing.assert_allclose(root.factor, [[2.0, 1.0], [1.0, 2.0]], rtol=0, atol=1e-14)


def test_cholesky_rank_deficient():
    with pytest.raises(NotPositiveDefinite):
        SpdMatrix([[1.0, 1.0], [1.0, 1.0]]).root()


def test_cholesky_negative_leading_pivot():
    with pytest.raises(NotPositiveDefinite):
        SpdMatrix([[-1.0, 0.0], [0.0, 2.0]]).root()


def test_cholesky_pivot_index_on_exactly_singular_matrix():
    # hand elimination: pivots 4, 4 and 1 - 1 - 0 = 0, so the determinant is 0
    # exactly and the least eigenvalue is zero up to round-off
    with pytest.raises(NotPositiveDefinite):
        SpdMatrix([[4.0, 2.0, 2.0], [2.0, 5.0, 1.0], [2.0, 1.0, 1.0]]).root()


@pytest.mark.parametrize("d", [3, 10])
def test_cholesky_pivot_floor(d):
    # the floor is d * PD_FLOOR * max(diag): a least eigenvalue just under it
    # is rejected, one just over it is taken; a diagonal matrix's eigenvalues
    # are its entries exactly
    floor = d * 1e-14
    values = np.ones(d)
    values[1] = 0.99 * floor
    with pytest.raises(NotPositiveDefinite):
        SpdMatrix.diagonal(values).root()
    values[1] = 1.01 * floor
    assert SpdMatrix.diagonal(values).root().values[-1] == 1.01 * floor


def test_cholesky_roundtrip_random():
    rng = np.random.default_rng(101)
    for d in (1, 2, 5, 8, 12):
        for _ in range(5):
            a = random_spd(rng, d)
            root = a.root()
            s, q = root.factor, root.vectors
            norm = np.linalg.norm(a.entries, "fro")
            assert np.linalg.norm(s @ s.T - a.entries, "fro") < 1e-10 * norm
            assert np.linalg.norm(q.T @ q - np.eye(d)) < 1e-12
            assert np.all(np.diff(root.values) <= 0.0)
            np.testing.assert_allclose(root.whiten(s), np.eye(d), rtol=0, atol=1e-12)


def test_cholesky_cache_write_once():
    a = random_spd(np.random.default_rng(3), 4)
    root = a.root()
    assert a.root() is root
    for part in (root.values, root.vectors, root.factor):
        assert not part.flags.writeable


@pytest.mark.parametrize("values", [np.ones(5), [3.0, 0.5, 7.0, 1e-3, 2.0, 1e3]],
                         ids=["identity", "distinct"])
def test_diagonal_root_is_the_eigensolver_root_bitwise(values):
    # the closed form of an exactly diagonal matrix gives the bits that one
    # eigendecomposition through sym_eig gives
    a = SpdMatrix.diagonal(values)
    root, solved = a.root(), EigenRoot(*sym_eig(a.entries))
    for got, want in ((root.values, solved.values), (root.vectors, solved.vectors),
                      (root.factor, solved.factor)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_diagonal_root_needs_no_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dsyevr called on a diagonal matrix")

    monkeypatch.setattr(linalg, "dsyevr", refuse)
    root = SpdMatrix.diagonal([1.0, 4.0]).root()
    np.testing.assert_array_equal(root.factor, np.diag([1.0, 2.0]))
    with pytest.raises(AssertionError, match="dsyevr called"):
        SpdMatrix([[2.0, 1.0], [1.0, 2.0]]).root()


@pytest.mark.parametrize("case", ["field-g12", "random-9"])
def test_sym_eig_is_scipys_eigh_in_reverse_order_bitwise(case):
    # sym_eig calls dsyevr as eigh does by default, and both hand back
    # ascending values, so reversing eigh's order gives sym_eig's bits
    import scipy.linalg

    if case == "field-g12":
        a = build_field_covariance(Mesh2D(12)).entries
    else:
        a = random_spd(np.random.default_rng(9), 9).entries
    values, vectors = sym_eig(a)
    want_values, want_vectors = scipy.linalg.eigh(a)
    assert values.tobytes() == want_values[::-1].tobytes()
    assert vectors.tobytes() == np.ascontiguousarray(want_vectors[:, ::-1]).tobytes()


def test_diagonal_root_orders_tied_values_by_index():
    root = SpdMatrix.diagonal([1.0, 3.0, 2.0, 3.0, 1.0]).root()
    np.testing.assert_array_equal(root.values, [3.0, 3.0, 2.0, 1.0, 1.0])
    np.testing.assert_array_equal(root.vectors, np.eye(5)[:, [1, 3, 2, 0, 4]])


def test_diagonal_root_rejects_as_the_eigensolver_does():
    # least value -1 against the floor 2 * PD_FLOOR * 2
    with pytest.raises(NotPositiveDefinite,
                       match=r"^not positive definite: least eigenvalue -1.000e\+00 <= 4.000e-14$"):
        SpdMatrix.diagonal([-1.0, 2.0]).root()
    with pytest.raises(NotPositiveDefinite, match="least eigenvalue 0.000e"):
        SpdMatrix.diagonal([0.0, 0.0]).root()
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteInput, match="^sym_eig input has NaN or infinite entries$"):
            SpdMatrix.diagonal([1.0, bad, 2.0]).root()


def test_spd_symmetrizes_input():
    a = SpdMatrix([[1.0, 2.0], [0.0, 5.0]])
    np.testing.assert_allclose(a.entries, [[1.0, 1.0], [1.0, 5.0]])
    assert not a.entries.flags.writeable


def test_sym_eig_diagonal_sorts_descending():
    values, vectors = sym_eig(np.diag([1.0, 5.0, 3.0]))
    np.testing.assert_allclose(values, [5.0, 3.0, 1.0], atol=1e-14)
    # columns of a permuted identity, up to sign
    np.testing.assert_allclose(np.abs(vectors), np.eye(3)[:, [1, 2, 0]], atol=1e-12)


def test_sym_eig_hand_2x2():
    values, vectors = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(values, [3.0, 1.0], atol=1e-12)
    s = 1.0 / np.sqrt(2.0)
    for col, expect in zip(vectors.T, ([s, s], [s, -s])):
        assert min(np.abs(col - expect).max(), np.abs(col + expect).max()) < 1e-12


def test_sym_eig_identity():
    values, vectors = sym_eig(np.eye(4))
    np.testing.assert_allclose(values, np.ones(4))
    np.testing.assert_allclose(vectors.T @ vectors, np.eye(4), atol=1e-12)


def test_sym_eig_random_residuals():
    # residual and orthonormality tolerances over 100 instances per dim
    rng = np.random.default_rng(77)
    for d in (2, 5, 10):
        for _ in range(100):
            a = rng.standard_normal((d, d))
            a = a + a.T
            values, vectors = sym_eig(a)
            norm = np.linalg.norm(a, "fro")
            resid = a @ vectors - vectors * values
            assert np.max(np.linalg.norm(resid, axis=0)) <= 1e-9 * max(norm, 1e-300)
            assert np.abs(vectors.T @ vectors - np.eye(d)).max() < 1e-10
            assert np.all(np.diff(values) <= 1e-12 * max(1.0, norm))


def test_sym_eig_matches_lapack_values():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((9, 9))
    a = a + a.T
    values, _ = sym_eig(a)
    np.testing.assert_allclose(values, np.linalg.eigvalsh(a)[::-1], atol=1e-10)


def test_generalized_eig_diagonal_pair():
    pairs = generalized_eig(SpdMatrix(np.diag([3.0, 2.0, 1.0])), SpdMatrix.identity(3))
    np.testing.assert_allclose(pairs.values, [3.0, 2.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(pairs.vectors), np.eye(3), atol=1e-10)


def test_generalized_eig_hand_value():
    # H = I, Sigma = diag(4,1): eigvalues (4,1), v1 = (2,0) normalized in the
    # inverse-covariance norm, v2 = (0,1).
    pairs = generalized_eig(SpdMatrix.identity(2), SpdMatrix(np.diag([4.0, 1.0])))
    np.testing.assert_allclose(pairs.values, [4.0, 1.0], atol=1e-12)
    assert min(np.abs(pairs.vectors[:, 0] - [2, 0]).max(), np.abs(pairs.vectors[:, 0] + [2, 0]).max()) < 1e-12
    assert min(np.abs(pairs.vectors[:, 1] - [0, 1]).max(), np.abs(pairs.vectors[:, 1] + [0, 1]).max()) < 1e-12


def test_generalized_eig_sigma_identity_reduces_to_sym_eig():
    rng = np.random.default_rng(11)
    h = random_spd(rng, 6)
    pairs = generalized_eig(h, SpdMatrix.identity(6))
    values, _ = sym_eig(h.entries)
    np.testing.assert_allclose(pairs.values, values, atol=1e-10)


def test_generalized_eig_under_the_identity_is_sym_eig_bitwise():
    # the root of I is I exactly, so the reduction, v = S w and the duals
    # S^{-T} w add no rounding: identity-covariance runs keep their digits
    rng = np.random.default_rng(12)
    for d in (1, 6, 144):
        h = random_spd(rng, d)
        pairs = generalized_eig(h, SpdMatrix.identity(d))
        values, vectors = sym_eig(h.entries)
        np.testing.assert_array_equal(pairs.values, values)
        np.testing.assert_array_equal(pairs.vectors, vectors)
        np.testing.assert_array_equal(pairs.duals, vectors)
        # the layout of a projector's dual picks the BLAS kernel of apply, so
        # it is part of the digits too
        assert pairs.duals.flags.f_contiguous


def test_generalized_eig_invariants_random():
    rng = np.random.default_rng(21)
    for _ in range(10):
        h = random_spd(rng, 6)
        sigma = random_spd(rng, 6)
        pairs = generalized_eig(h, sigma)
        sig_inv = np.linalg.inv(sigma.entries)
        hn = np.linalg.norm(h.entries, "fro")
        sn = np.linalg.norm(sig_inv, "fro")
        for lam, v in zip(pairs.values, pairs.vectors.T):
            assert np.linalg.norm(h.entries @ v - lam * sig_inv @ v) <= 1e-8 * (hn + abs(lam) * sn)
        gram = pairs.vectors.T @ sig_inv @ pairs.vectors
        assert np.abs(gram - np.eye(6)).max() < 1e-8
        recon = sig_inv @ (pairs.vectors * pairs.values) @ pairs.vectors.T @ sig_inv
        assert np.linalg.norm(recon - h.entries, "fro") < 1e-8 * hn


def test_generalized_eig_clamps_roundoff_negatives():
    # a PSD rank-1 h: trailing eigenvalues are round-off scale and must come
    # back exactly 0, never negative
    rng = np.random.default_rng(8)
    b = rng.standard_normal((5, 1))
    h = SpdMatrix(b @ b.T)
    pairs = generalized_eig(h, random_spd(rng, 5))
    assert np.all(pairs.values >= 0.0)
    assert np.all(pairs.values[1:] <= 1e-10 * pairs.values[0])


def test_trace_quadratic_identity_projector_zero():
    rng = np.random.default_rng(31)
    sigma = random_spd(rng, 4)
    h = random_spd(rng, 4)
    p = euclidean_projector(np.eye(4))
    assert trace_quadratic(sigma, h, p) == 0.0


def test_trace_quadratic_zero_projector_trace():
    rng = np.random.default_rng(32)
    h = random_spd(rng, 4)
    p = RankRProjector.zero(4)
    got = trace_quadratic(SpdMatrix.identity(4), h, p)
    np.testing.assert_allclose(got, np.trace(h.entries), rtol=1e-12)


def test_trace_quadratic_equals_tail_at_optimal():
    rng = np.random.default_rng(33)
    h = random_spd(rng, 6)
    sigma = random_spd(rng, 6)
    pairs = generalized_eig(h, sigma)
    for r in range(1, 6):
        p = sigma_inverse_projector(pairs.vectors[:, :r], sigma)
        tail = float(np.sum(pairs.values[r:]))
        got = trace_quadratic(sigma, h, p)
        assert abs(got - tail) <= 1e-9 * tail


def test_trace_quadratic_rejects_badly_negative():
    # an indefinite "H" (only possible through caller misuse: SpdMatrix does
    # not factor at construction) must raise, not clamp
    with pytest.raises(NegativeTrace):
        trace_quadratic(SpdMatrix.identity(2), SpdMatrix(np.diag([-1.0, 0.0])), RankRProjector.zero(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernels_reject_non_finite_input(bad):
    m = np.eye(3)
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(NonFiniteInput):
        SpdMatrix(m).root()
    with pytest.raises(NonFiniteInput):
        sym_eig(m)


def test_generalized_eig_rejects_nan_h():
    h = np.diag([3.0, 2.0, 1.0])
    h[2, 0] = h[0, 2] = np.nan
    with pytest.raises(NonFiniteInput):
        generalized_eig(SpdMatrix(h), SpdMatrix.identity(3))
    with pytest.raises(NonFiniteInput):
        generalized_eig(SpdMatrix.identity(3), SpdMatrix(h))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        generalized_eig(SpdMatrix.identity(3), SpdMatrix.identity(2))


def test_generalized_eigenpairs_is_frozen():
    pairs = generalized_eig(SpdMatrix.identity(2), SpdMatrix.identity(2))
    assert isinstance(pairs, GeneralizedEigenPairs)
    with pytest.raises(AttributeError):
        pairs.values = None


# Each query of SpdMatrix and EigenRoot must stay the exact expression its
# callers would otherwise write out, so that calling it changes no digit of
# the artifacts. Pinned on the grid-12 field covariance of the benchmark runs,
# taken as a dense matrix, so that it has the dense root (the benchmark's own
# covariance holds a KroneckerRoot, tested below), and on a random SPD.


@pytest.fixture(params=["field-g12", "random"])
def spd(request):
    if request.param == "field-g12":
        return SpdMatrix(build_field_covariance(Mesh2D(12)).entries)
    return random_spd(np.random.default_rng(61), 9)


@pytest.mark.parametrize("count", [1, 5, 512])
def test_root_apply_is_the_rows_times_the_transposed_factor(spd, count):
    root = spd.root()
    rows = np.random.default_rng(62).standard_normal((count, spd.dim))
    np.testing.assert_array_equal(root.apply(rows), rows @ root.factor.T)


def test_gram_is_b_transposed_times_the_entries_times_b(spd):
    b = np.random.default_rng(63).standard_normal((spd.dim, 4))
    for basis in (b, spd.root().factor):
        np.testing.assert_array_equal(spd.gram(basis), basis.T @ spd.entries @ basis)


def test_sq_norms_is_the_metric_einsum_over_rows(spd):
    rows = np.random.default_rng(64).standard_normal((7, spd.dim))
    np.testing.assert_array_equal(spd.sq_norms(rows),
                                  np.einsum("kn,nm,km->k", rows, spd.entries, rows))


def test_diag_is_a_writable_copy_of_the_diagonal(spd):
    diag = spd.diag()
    np.testing.assert_array_equal(diag, np.diag(spd.entries))
    diag[0] = -1.0
    assert spd.entries[0, 0] > 0.0


@pytest.mark.parametrize("rank", [1, 7, 20, 29])
def test_trace_quadratic_of_a_sigma_orthogonal_projector_is_two_small_traces(rank):
    # for P = U W^T with P Sigma = Sigma P^T, (I - P) Sigma (I - P)^T is
    # Sigma - P Sigma P^T, so the bound is tr(H Sigma) - tr((U^T H U)(W^T Sigma W))
    rng = np.random.default_rng(65)
    sigma, h = random_spd(rng, 30), random_spd(rng, 30)
    p = random_sigma_orthogonal_projector(30, rank, sigma, SampleStream(66).substream(rank))
    total = float(np.sum(h.entries * sigma.entries))
    small = float(np.sum(h.gram(p.basis) * sigma.gram(p.dual).T))
    assert abs(trace_quadratic(sigma, h, p) - (total - small)) <= 1e-12 * total


def _oblique_projector(rng, d, rank):
    """P = B (C^T B)^{-1} C^T for random B and C: W = C (B^T C)^{-1}, so
    W^T B = I, and P is neither orthogonal nor Sigma^{-1}-orthogonal."""
    b, c = rng.standard_normal((d, rank)), rng.standard_normal((d, rank))
    return RankRProjector(b, c @ np.linalg.inv(b.T @ c))


@pytest.mark.parametrize("case", ["random-9", "field-g6"])
def test_trace_quadratic_of_an_oblique_projector_is_the_dense_sum(case):
    # the bound holds for every projector, so for any P it is the dense
    # sum(Sigma * ((I - P)^T H (I - P))), through trace_quadratic and error_bound
    from gradridge import error_bound

    rng = np.random.default_rng(76)
    sigma = random_spd(rng, 9) if case == "random-9" else build_field_covariance(Mesh2D(6))
    d = sigma.dim
    h = random_spd(rng, d)
    mu = GaussianMeasure(np.zeros(d), sigma)
    for rank in (1, 3, d // 2):
        p = _oblique_projector(rng, d, rank)
        resid = np.eye(d) - p.matrix
        want = float(np.sum(sigma.entries * (resid.T @ h.entries @ resid)))
        assert abs(trace_quadratic(sigma, h, p) - want) <= 1e-12 * want
        assert abs(error_bound(p, h, mu) - want) <= 1e-12 * want


class _NoMatrix(RankRProjector):
    """A projector whose dense matrix may not be read."""

    @property
    def matrix(self):
        raise AssertionError("the projector's dense matrix was read")


def test_trace_quadratic_forms_neither_the_dense_sigma_nor_the_projector_matrix():
    # on the field covariance, Sigma is read through its Kronecker root and P
    # through apply: neither d x d matrix is formed
    from gradridge.measure import squared_exponential_covariance
    from gradridge.pde import _field_nugget

    def refuse():
        raise AssertionError("the dense Sigma was formed")

    mesh = Mesh2D(6)
    kernel = squared_exponential_covariance(mesh.cell_centers[:6, 0], 0.15).entries
    sigma = SpdMatrix.kronecker(kernel, _field_nugget(36), refuse)
    rng = np.random.default_rng(77)
    h = random_spd(rng, 36)
    p = _oblique_projector(rng, 36, 5)
    got = trace_quadratic(sigma, h, _NoMatrix(p.basis, p.dual))
    resid = np.eye(36) - p.matrix
    want = float(np.sum(build_field_covariance(mesh).entries * (resid.T @ h.entries @ resid)))
    assert abs(got - want) <= 1e-12 * want


# The field covariance is K (x) K + nugget I, and build_field_covariance holds
# it as a KroneckerRoot from one g x g eigendecomposition of K. Checked
# against the dense root of the same matrix, which user-supplied covariances
# keep.


def _field_pair(g):
    cov = build_field_covariance(Mesh2D(g))
    return cov, SpdMatrix(cov.entries)


def test_field_covariance_holds_the_root_of_its_one_axis_kernel():
    from gradridge.measure import squared_exponential_covariance
    from gradridge.pde import _field_nugget

    mesh = Mesh2D(12)
    cov = build_field_covariance(mesh)
    root = cov.root()
    assert isinstance(root, KroneckerRoot) and not cov.is_diagonal
    # values lam_a lam_b + nugget in a stable descending sort, vectors q_a (x) q_b
    lam, q = sym_eig(squared_exponential_covariance(mesh.cell_centers[:12, 0], 0.15).entries)
    grid = (np.multiply.outer(lam, lam) + _field_nugget(144)).ravel()
    order = np.argsort(-grid, kind="stable")
    assert root.values.tobytes() == grid[order].tobytes()
    assert root.vectors.tobytes() == np.kron(q, q)[:, order].tobytes()
    assert not root.values.flags.writeable and not root.vectors.flags.writeable
    # the tie lam_0 lam_1 = lam_1 lam_0 comes in index order: q_0 (x) q_1 first
    assert root.values[1] == root.values[2]
    np.testing.assert_array_equal(root.vectors[:, 1], np.kron(q[:, 0], q[:, 1]))
    # the dense entries are the kernel over all cell centers, as before
    want = squared_exponential_covariance(mesh.cell_centers, 0.15, _field_nugget(144)).entries
    assert cov.entries.tobytes() == want.tobytes() and not cov.entries.flags.writeable


def test_kronecker_pairs_match_the_dense_root():
    cov, dense = _field_pair(12)
    root, ref = cov.root(), dense.root()
    lam_max = ref.values[0]
    assert np.abs(root.values - ref.values).max() <= 1e-13 * lam_max
    sigma, v = dense.entries, root.vectors
    assert np.abs(sigma @ v - v * root.values).max() <= 1e-13 * lam_max
    assert np.abs(v.T @ v - np.eye(144)).max() <= 1e-13
    s = root.apply(np.eye(144))
    assert np.abs(s @ s.T - sigma).max() <= 1e-13 * np.abs(sigma).max()
    mean = np.full(144, 0.5)
    got = sample(GaussianMeasure(mean, cov), SampleStream(71), 300) - mean
    want = sample(GaussianMeasure(mean, dense), SampleStream(71), 300) - mean
    err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
    assert err.max() <= 1e-12


@pytest.mark.parametrize("g", [6, 12, 32])
def test_kronecker_sample_rows_do_not_depend_on_the_block(g):
    # one g x g product per row, so a row's bits are the same in a block of
    # any size, one-row blocks included
    cov = build_field_covariance(Mesh2D(g))
    mu = GaussianMeasure(np.zeros(g * g), cov)
    whole = sample(mu, SampleStream(72), 700)
    for block in (1, 7, 100, 512, 700):
        parts = [sample(mu, SampleStream(72).ahead(lo * g * g), min(block, 700 - lo))
                 for lo in range(0, 700, block)]
        assert np.concatenate(parts).tobytes() == whole.tobytes(), block


@pytest.mark.parametrize("g", [6, 12])
def test_kronecker_whiten_inverts_apply(g):
    root = build_field_covariance(Mesh2D(g)).root()
    x = np.random.default_rng(73).standard_normal((9, g * g))
    # whiten is S^{-1} on columns, apply is S on rows
    back = root.whiten(root.apply(x).T)
    assert back.flags.f_contiguous
    assert np.abs(back.T - x).max() <= 1e-12 * np.abs(x).max()
    np.testing.assert_array_equal(root.whiten(x[0]), root.whiten(x[:1].T)[:, 0])
    np.testing.assert_array_equal(root.apply(x[0]), root.apply(x[:1])[0])


def test_kronecker_generalized_eig_matches_the_dense_root():
    # generalized_eig asks the root for S^T H S and S W: the Kronecker root
    # forms both along the grid axes, with no d x d product
    cov, dense = _field_pair(12)
    b = np.random.default_rng(74).standard_normal((144, 30))
    h = SpdMatrix(b @ b.T)
    got, want = generalized_eig(h, cov), generalized_eig(h, dense)
    assert np.abs(got.values - want.values).max() <= 1e-13 * want.values[0]
    assert np.abs(got.duals.T @ got.vectors - np.eye(144)).max() <= 1e-12
    # the leading 30 are simple eigenvalues, so their vectors agree up to sign
    signs = np.sign(np.sum(got.vectors[:, :30] * want.vectors[:, :30], axis=0))
    scale = np.abs(want.vectors[:, :30]).max()
    assert np.abs(got.vectors[:, :30] * signs - want.vectors[:, :30]).max() <= 1e-9 * scale


def test_kronecker_root_without_a_nugget_fails_the_floor():
    # at g = 32 the one-axis kernel K is singular to round-off, so K (x) K
    # alone has a least value below the floor d * PD_FLOOR * max(diag) =
    # 1024e-14, and the Kronecker root refuses it as the dense root does
    from gradridge.measure import squared_exponential_covariance

    kernel = squared_exponential_covariance(Mesh2D(32).cell_centers[:32, 0], 0.15).entries
    floor = r"<= 1\.024e-11$"
    with pytest.raises(NotPositiveDefinite, match=r"^not positive definite: least eigenvalue .*" + floor):
        SpdMatrix.kronecker(kernel, 0.0, lambda: np.kron(kernel, kernel))
    with pytest.raises(NotPositiveDefinite, match=floor):
        SpdMatrix(np.kron(kernel, kernel)).root()
    with pytest.raises(NonFiniteInput):
        SpdMatrix.kronecker(kernel, np.nan, lambda: None)


def test_field_covariance_at_grid_64_forms_no_dense_array():
    # d = 4096: a d x d array is 128 MiB; building the covariance, drawing
    # from it and whitening stay within a few MiB
    import tracemalloc

    tracemalloc.start()
    try:
        mu = GaussianMeasure(np.zeros(4096), build_field_covariance(Mesh2D(64)))
        x = sample(mu, SampleStream(75), 16)
        mu.cov.root().whiten(x.T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
