import hashlib
import tracemalloc

import numpy as np
import pytest

from gradridge import (
    GaussianMeasure,
    kl_projector,
    NotPositiveDefinite,
    NotSigmaOrthogonal,
    RankOutOfRange,
    RankRProjector,
    SampleStream,
    SpdMatrix,
    conditioned_resample,
    sample,
    squared_exponential_covariance,
)
from gradridge.pde import Mesh2D, build_field_covariance
from gradridge.projector import euclidean_projector, sigma_inverse_projector


def test_stream_determinism():
    a = SampleStream(12345, stream_id=7).standard_normal(100)
    b = SampleStream(12345, stream_id=7).standard_normal(100)
    np.testing.assert_array_equal(a, b)


def test_stream_seed_must_fit_in_64_bits():
    # Philox keys on 64 bits; a wider or negative seed would alias another
    top = SampleStream(2**64 - 1).standard_normal(8)
    assert np.abs(top - SampleStream(0).standard_normal(8)).max() > 1e-6
    for seed in (2**64, 2**64 + 7, -1):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            SampleStream(seed)


def test_stream_seed_and_id_separate():
    base = SampleStream(1, stream_id=0).standard_normal(64)
    for other in (SampleStream(2, stream_id=0), SampleStream(1, stream_id=1)):
        assert np.abs(base - other.standard_normal(64)).max() > 1e-6


def test_stream_counter_prefix():
    # draws are addressed by block position, so a longer draw from the same
    # start begins with the shorter draw
    s1 = SampleStream(9, stream_id=3)
    first = s1.standard_normal(10)
    s2 = SampleStream(9, stream_id=3)
    both = s2.standard_normal(24)
    np.testing.assert_array_equal(both[:10], first)


def test_stream_counter_advances_in_blocks():
    s = SampleStream(5)
    c0 = s.counter
    s.standard_normal(10)
    # 10 normals need 5 uniform pairs = 10 words = 3 blocks of 4
    assert s.counter == c0 + 3


@pytest.mark.parametrize("skip, count", [(0, 9), (12, 28), (12, 27), (40, 1)])
def test_stream_ahead_draws_the_tail_of_a_long_draw(skip, count):
    s = SampleStream(9, stream_id=3, counter=5)
    long = SampleStream(9, stream_id=3, counter=5).standard_normal(skip + count)
    np.testing.assert_array_equal(s.ahead(skip).standard_normal(count), long[skip:])
    assert s.counter == 5


@pytest.mark.parametrize("skip", [1, 2, 6, -4])
def test_stream_ahead_rejects_a_partial_philox_block(skip):
    with pytest.raises(ValueError, match="multiple of 4"):
        SampleStream(9).ahead(skip)


def test_substreams_are_reproducible_and_distinct():
    root = SampleStream(42)
    a = root.substream(1).standard_normal(32)
    b = root.substream(1).standard_normal(32)
    c = root.substream(2).standard_normal(32)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 1e-6


def test_standard_normal_moments():
    z = SampleStream(2024).standard_normal(20000)
    assert abs(float(np.mean(z))) < 4.0 / np.sqrt(20000)
    assert abs(float(np.var(z)) - 1.0) < 0.1
    # tail sanity for the Box-Muller mapping: no clipping artifacts
    assert np.abs(z).max() < 6.0
    assert np.isfinite(z).all()


def test_sample_standard_measure_moments():
    mu = GaussianMeasure.standard(3)
    xs = sample(mu, SampleStream(7), 10000)
    assert xs.shape == (10000, 3)
    assert np.abs(xs.mean(axis=0)).max() < 4.0 / np.sqrt(10000)
    assert np.abs(xs.var(axis=0) - 1.0).max() < 0.1


def test_sample_diagonal_measure():
    mu = GaussianMeasure([1.0, -1.0], SpdMatrix(np.diag([4.0, 1.0])))
    xs = sample(mu, SampleStream(8), 10000)
    emp = np.cov(xs.T)
    assert abs(emp[0, 0] - 4.0) < 0.25
    assert np.abs(xs.mean(axis=0) - [1.0, -1.0]).max() < 0.1


def test_whitening():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    mu = GaussianMeasure(rng.standard_normal(4), SpdMatrix(a @ a.T + 4 * np.eye(4)))
    xs = sample(mu, SampleStream(21), 10000)
    root = mu.cov.root()
    z = root.whiten((xs - mu.mean).T).T
    emp = z.T @ z / len(z)
    assert np.abs(emp - np.eye(4)).max() < 0.1
    # whitening undoes the sampling root: the draws were m + S z
    np.testing.assert_allclose(z, SampleStream(21).normal_matrix(10000, 4), rtol=0, atol=1e-12)


@pytest.mark.parametrize("diag", [np.ones(16), np.ones(144), np.array([3.0, 1.0, 2.0, 0.5, 7.0])])
def test_sample_under_a_diagonal_covariance_is_mean_plus_scaled_normals_bitwise(diag):
    # the root of a diagonal covariance is diag(sqrt(values)) exactly, so
    # identity and diagonal measures draw m + z * sqrt(values) digit for digit
    d = diag.size
    mean = np.linspace(-1.0, 1.0, d)
    mu = GaussianMeasure(mean, SpdMatrix.diagonal(diag))
    np.testing.assert_array_equal(mu.cov.root().factor, np.diag(np.sqrt(diag)))
    xs = sample(mu, SampleStream(5), 1000)
    z = SampleStream(5).normal_matrix(1000, d)
    np.testing.assert_array_equal(xs, mean + z * np.sqrt(diag))


def test_measure_rejects_indefinite_cov():
    with pytest.raises(NotPositiveDefinite):
        GaussianMeasure([0.0, 0.0], SpdMatrix([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize("cov, diagonal", [
    (np.eye(3), True),
    (np.diag([2.0, 1.0, 0.5]), True),
    (np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.0], [0.0, -0.0, 1.0]]), False),
    (np.eye(3) + np.diag([1e-300, 1e-300], k=1) + np.diag([1e-300, 1e-300], k=-1), False),
], ids=["identity", "diagonal", "correlated", "tiny-correlation"])
@pytest.mark.parametrize("mean", [np.array([0.0, -0.0, 0.0]), np.array([0.0, 0.0, 0.5])],
                         ids=["zero", "shifted"])
def test_standard_and_diagonal_properties_match_the_dense_expressions(cov, diagonal, mean):
    # both read SpdMatrix.is_diagonal, decided once per matrix; they must
    # answer as the dense d x d expressions do
    mu = GaussianMeasure(mean, cov)
    c = mu.cov.entries
    assert mu.has_diagonal_cov is bool(np.count_nonzero(c - np.diag(np.diag(c))) == 0) is diagonal
    standard = bool(np.all(mu.mean == 0.0) and np.array_equal(c, np.eye(3)))
    assert mu.is_standard is standard is (not mean.any() and np.array_equal(cov, np.eye(3)))


def test_is_standard_forms_no_dense_sigma_of_a_correlated_covariance():
    # a correlated Sigma is not standard whatever its diagonal, so is_standard
    # answers without reading diag(), which would form the dense field matrix
    from gradridge.pde import _field_nugget

    def refuse():
        raise AssertionError("the dense Sigma was formed")

    mesh = Mesh2D(6)
    kernel = squared_exponential_covariance(mesh.cell_centers[:6, 0], 0.15).entries
    mu = GaussianMeasure(np.zeros(36), SpdMatrix.kronecker(kernel, _field_nugget(36), refuse))
    assert mu.is_standard is False
    assert mu.has_diagonal_cov is False


def test_kl_projector_diagonal():
    mu = GaussianMeasure(np.zeros(3), SpdMatrix(np.diag([9.0, 4.0, 1.0])))
    p = kl_projector(mu, 2)
    np.testing.assert_allclose(p.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-10)
    np.testing.assert_allclose(p.matrix, p.matrix.T, atol=1e-12)


def test_kl_projector_degenerate_spectrum():
    mu = GaussianMeasure.standard(4)
    p = kl_projector(mu, 1)
    np.testing.assert_allclose(p.matrix @ p.matrix, p.matrix, atol=1e-10)
    np.testing.assert_allclose(p.matrix, p.matrix.T, atol=1e-12)
    assert abs(np.trace(p.matrix) - 1.0) < 1e-10


def test_kl_projector_residual_is_tail():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((6, 6))
    cov = SpdMatrix(a @ a.T + np.eye(6))
    mu = GaussianMeasure(np.zeros(6), cov)
    evals = np.linalg.eigvalsh(cov.entries)[::-1]
    for r in range(1, 6):
        p = kl_projector(mu, r)
        resid = np.eye(6) - p.matrix
        got = float(np.trace(resid @ cov.entries @ resid.T))
        tail = float(np.sum(evals[r:]))
        assert abs(got - tail) <= 1e-9 * tail


def test_kl_projector_rank_range():
    mu = GaussianMeasure.standard(3)
    with pytest.raises(RankOutOfRange):
        kl_projector(mu, 4)


def test_conditioned_resample_identity_projector():
    mu = GaussianMeasure.standard(3)
    x = np.array([0.5, -1.0, 2.0])
    ys = conditioned_resample(mu, RankRProjector.identity(3), x, SampleStream(1), 5)
    np.testing.assert_array_equal(ys, np.tile(x, (5, 1)))


def test_conditioned_resample_zero_projector():
    mu = GaussianMeasure.standard(3)
    x = np.array([0.5, -1.0, 2.0])
    stream = SampleStream(62)
    ys = conditioned_resample(mu, RankRProjector.zero(3), x, stream, 7)
    np.testing.assert_allclose(ys, sample(mu, SampleStream(62), 7))


def test_conditioned_resample_requires_flag():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 3))
    mu = GaussianMeasure(np.zeros(3), SpdMatrix(a @ a.T + 3 * np.eye(3)))
    p = euclidean_projector(rng.standard_normal((3, 1)))
    with pytest.raises(NotSigmaOrthogonal):
        conditioned_resample(mu, p, np.zeros(3), SampleStream(0), 1)


def test_conditioned_resample_preserves_measure_standard():
    # P x + (I-P) Y with X, Y ~ N(0, I) and P = e1 e1^T is again N(0, I)
    mu = GaussianMeasure.standard(2)
    p = euclidean_projector(np.eye(2)[:, :1])
    xs = sample(mu, SampleStream(31), 10000)
    out = np.empty_like(xs)
    stream = SampleStream(32)
    for i, x in enumerate(xs):
        out[i] = conditioned_resample(mu, p, x, stream, 1)[0]
    emp = out.T @ out / len(out)
    assert np.abs(emp - np.eye(2)).max() < 0.1
    assert np.abs(out.mean(axis=0)).max() < 4.0 / np.sqrt(10000)


def test_conditioned_resample_preserves_measure_correlated():
    # same law statement for a correlated covariance and a random
    # sigma-inverse-orthogonal projector, checked at 4-sigma scale
    rng = np.random.default_rng(44)
    a = rng.standard_normal((3, 3))
    cov = SpdMatrix(a @ a.T + 3 * np.eye(3))
    mu = GaussianMeasure(rng.standard_normal(3), cov)
    p = sigma_inverse_projector(rng.standard_normal((3, 1)), cov)
    n = 10000
    xs = sample(mu, SampleStream(71), n)
    ys = sample(mu, SampleStream(72), n)
    out = (xs @ p.matrix.T) + ys - ys @ p.matrix.T
    se_mean = np.sqrt(np.diag(cov.entries) / n)
    assert np.all(np.abs(out.mean(axis=0) - mu.mean) < 4.0 * se_mean)
    emp = np.cov(out.T)
    s = cov.entries
    se_cov = np.sqrt((np.outer(np.diag(s), np.diag(s)) + s * s) / n)
    assert np.all(np.abs(emp - s) < 4.0 * se_cov)


def test_squared_exponential_covariance():
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.25, 0.25]])
    cov = squared_exponential_covariance(pts, lengthscale=0.5, nugget=1e-8)
    m = cov.entries
    np.testing.assert_allclose(np.diag(m), 1.0 + 1e-8)
    np.testing.assert_allclose(m, m.T)
    np.testing.assert_allclose(m[0, 1], np.exp(-1.0) + 0.0, atol=1e-12)
    cov.root()


def test_sample_batches_are_stream_addressed():
    # one draw of 2K rows equals two K-row draws only when the second stream
    # starts at the first stream's advanced counter; verify the stateful path
    mu = GaussianMeasure.standard(2)
    s = SampleStream(3)
    first = sample(mu, s, 3)
    second = sample(mu, s, 3)
    assert np.abs(first - second).max() > 1e-6


def test_standard_normal_bits_are_pinned():
    # odd and even counts, partial and whole Philox blocks, and the draw of
    # one 512-row block at d=144; the digest predates the in-place transform
    digest = hashlib.sha256()
    for n in (1, 2, 3, 5, 7, 8, 1000, 73728, 100001):
        digest.update(SampleStream(7, 3, 11).standard_normal(n).tobytes())
    assert digest.hexdigest() == "0ade29bdb7c275d2d161c74c94a5cceb902cc40f3c724ddb9b9788d70b12900f"


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_sampling_holds_at_most_two_and_a_half_times_its_output():
    # the normals are formed in place and the mean is added in place
    z, peak = _peak_bytes(lambda: SampleStream(7).standard_normal(73728))
    assert peak < 2.6 * 8 * z.size
    mu = GaussianMeasure(np.full(144, 0.5), build_field_covariance(Mesh2D(12)))
    x, peak = _peak_bytes(lambda: sample(mu, SampleStream(7), 512))
    assert x.shape == (512, 144)
    assert peak < 2.6 * 8 * x.size
