import numpy as np
import pytest

from gradridge import (
    GaussianMeasure,
    LinearModel,
    ModelEvaluationFailure,
    NonUniqueProjectorWarning,
    NotSigmaOrthogonal,
    QuadraticFormModel,
    RankOutOfRange,
    RankRProjector,
    SampleStream,
    SpdMatrix,
    SpectrumReport,
    SumOfSinesModel,
    build_ridge,
    error_bound,
    estimate_h,
    exact_conditional_expectation,
    generalized_eig,
    linear_cond_exp_error,
    m_inflation_check,
    optimal_projector,
    quadratic_cond_exp_error,
    sample,
    select_rank,
    sigma_orthogonalize,
    spectrum_report,
    validate_error,
)
from gradridge.models import VectorValuedModel
from gradridge.projector import euclidean_projector, sigma_inverse_projector
from gradridge.ridge import CHUNK, _chunk_sizes


def random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return SpdMatrix(a @ a.T + d * np.eye(d))


def make_linear(seed=1, n=3, d=7):
    rng = np.random.default_rng(seed)
    model = LinearModel(rng.standard_normal((n, d)), random_spd(rng, n))
    mu = GaussianMeasure(rng.standard_normal(d), random_spd(rng, d))
    return model, mu


def test_estimate_h_linear_exact():
    model, mu = make_linear()
    for k in (1, 3, 17):
        est = estimate_h(model, mu, SampleStream(1), k)
        expect = model.matrix.T @ model.output_metric.entries @ model.matrix
        np.testing.assert_allclose(est.h.entries, expect, atol=1e-12)
        assert est.samples_used == k
    assert est.rank_upper_bound == 7


def test_estimate_h_quadratic_converges_to_a_squared():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4))
    model = QuadraticFormModel(a)
    mu = GaussianMeasure.standard(4)
    k = 100000
    est = estimate_h(model, mu, SampleStream(2), k)
    target = model.matrix @ model.matrix
    # per-entry MC standard error from the sampled terms themselves
    xs = sample(mu, SampleStream(2).substream(0), 4096)
    grads = xs @ model.matrix
    terms = np.einsum("ki,kj->kij", grads, grads)
    se = terms.std(axis=0, ddof=1) / np.sqrt(k)
    assert np.all(np.abs(est.h.entries - target) < 5.0 * se + 1e-12)


def test_estimate_h_sines_closed_form():
    a = np.array([1.0, 0.7, 0.5])
    w = np.array([0.8, 1.3, 2.1])
    model = SumOfSinesModel(a, w)
    mu = GaussianMeasure.standard(3)
    est = estimate_h(model, mu, SampleStream(3), 200000)
    diag_expect = 0.5 * a**2 * w**2 * (1.0 + np.exp(-2.0 * w**2))
    np.testing.assert_allclose(np.diag(est.h.entries), diag_expect, rtol=0.02)
    aw = a * w
    off_expect = np.outer(aw * np.exp(-(w**2) / 2.0), aw * np.exp(-(w**2) / 2.0))
    off_got = est.h.entries - np.diag(np.diag(est.h.entries))
    np.testing.assert_allclose(off_got, off_expect - np.diag(np.diag(off_expect)), atol=0.02)


def test_estimate_h_sines_high_frequency_offdiag_vanishes():
    model = SumOfSinesModel([1.0, 1.0], [2.5, 3.0])
    est = estimate_h(model, GaussianMeasure.standard(2), SampleStream(4), 50000)
    assert abs(est.h.entries[0, 1]) < 0.02


def test_estimate_h_thread_count_does_not_change_result():
    model, mu = make_linear(seed=5)
    quad = QuadraticFormModel(np.random.default_rng(5).standard_normal((7, 7)))
    for m, meas in ((model, mu), (quad, GaussianMeasure.standard(7))):
        one = estimate_h(m, meas, SampleStream(6), 1500, threads=1)
        four = estimate_h(m, meas, SampleStream(6), 1500, threads=4)
        np.testing.assert_array_equal(one.h.entries, four.h.entries)


def test_estimate_h_wraps_model_failure():
    class Broken(VectorValuedModel):
        input_dim = 2
        output_dim = 1

        @property
        def output_metric(self):
            return SpdMatrix.identity(1)

        def eval(self, x):
            return np.zeros(1)

        def jacobian(self, x):
            raise RuntimeError("boom")

    with pytest.raises(ModelEvaluationFailure) as err:
        estimate_h(Broken(), GaussianMeasure.standard(2), SampleStream(7), 3)
    assert err.value.sample_index == 0


class NanAt(VectorValuedModel):
    """f(x) = F x, but NaN in the output and the Jacobian at the given points.

    Only the per-sample methods are defined, so estimate_h takes its
    per-sample path; NanAtBatched adds a jacobian_batch to take the other.
    """

    def __init__(self, f, poison):
        self.f = np.asarray(f, dtype=float)
        self.output_dim, self.input_dim = self.f.shape
        self.poison = [np.asarray(x) for x in poison]

    @property
    def output_metric(self):
        return SpdMatrix.identity(self.output_dim)

    def _hit(self, x):
        return any(np.array_equal(x, bad) for bad in self.poison)

    def eval(self, x):
        return np.full(self.output_dim, np.nan) if self._hit(x) else self.f @ x

    def jacobian(self, x):
        return np.full(self.f.shape, np.nan) if self._hit(x) else self.f.copy()


class NanAtBatched(NanAt):
    def jacobian_batch(self, xs):
        return np.stack([self.jacobian(x) for x in xs])


def draws_at(mu, stream, count, indices):
    """The points the chunked samplers draw at the given global indices."""
    sizes = _chunk_sizes(count)
    return [sample(mu, stream.substream(i // CHUNK), sizes[i // CHUNK])[i % CHUNK]
            for i in indices]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("model_cls", [NanAt, NanAtBatched], ids=["per-sample", "batch"])
def test_estimate_h_reports_first_non_finite_jacobian(model_cls, threads):
    mu = GaussianMeasure.standard(3)
    count = CHUNK + 200
    # two bad samples in the second chunk: the first one is reported
    poison = draws_at(mu, SampleStream(40), count, [CHUNK + 150, CHUNK + 88])
    model = model_cls(np.ones((2, 3)), poison)
    with pytest.raises(ModelEvaluationFailure, match=f"Jacobian at sample {CHUNK + 88}") as err:
        estimate_h(model, mu, SampleStream(40), count, threads=threads)
    assert err.value.sample_index == CHUNK + 88


@pytest.mark.parametrize("threads", [1, 2])
def test_validate_error_reports_first_non_finite_output(threads):
    mu = GaussianMeasure.standard(3)
    count = CHUNK + 200
    poison = draws_at(mu, SampleStream(41), count, [CHUNK + 7])
    model = NanAtBatched(np.ones((2, 3)), poison)
    p = sigma_inverse_projector(np.ones((3, 1)), mu.cov)
    ridge = build_ridge(model, mu, p, SampleStream(42), 2)
    with pytest.raises(ModelEvaluationFailure, match=f"output at sample {CHUNK + 7}") as err:
        validate_error(ridge, model, mu, SampleStream(41), count, threads=threads)
    assert err.value.sample_index == CHUNK + 7
    # the same model away from its bad point validates cleanly
    assert np.isfinite(validate_error(ridge, model, mu, SampleStream(43), 50)[0])


def test_validate_error_reports_global_index_of_non_finite_ridge_output():
    # with the identity projector the ridge is the model, so it is NaN at the
    # poisoned sample too and raises first, counting rows within its chunk
    mu = GaussianMeasure.standard(3)
    count = CHUNK + 200
    model = NanAtBatched(np.ones((2, 3)), draws_at(mu, SampleStream(41), count, [CHUNK + 7]))
    ridge = build_ridge(model, mu, sigma_inverse_projector(np.eye(3), mu.cov), SampleStream(42), 2)
    with pytest.raises(ModelEvaluationFailure,
                       match=f"non-finite ridge output at sample {CHUNK + 7}$") as err:
        validate_error(ridge, model, mu, SampleStream(41), count)
    assert err.value.sample_index == CHUNK + 7


class NanPastOne(LinearModel):
    """f(x) = F x, but NaN wherever x_1 exceeds 1."""

    def eval_batch(self, xs):
        out = super().eval_batch(xs)
        out[np.asarray(xs)[:, 0] > 1.0] = np.nan
        return out


@pytest.mark.parametrize("rank", [2, 1], ids=["identity", "block-loop"])
def test_ridge_eval_batch_reports_first_non_finite_row(rank):
    # rank 1 keeps x_1 and averages over redrawn x_2, so rows 2 and 3 are NaN
    # through either branch and rows 0 and 1 are finite
    mu = GaussianMeasure.standard(2)
    p = sigma_inverse_projector(np.eye(2)[:, :rank], mu.cov)
    ridge = build_ridge(NanPastOne(np.eye(2)), mu, p, SampleStream(44), 3)
    xs = np.array([[0.5, 0.0], [-0.5, 0.3], [2.0, 0.0], [3.0, 1.0]])
    assert np.isfinite(ridge.eval_batch(xs[:2])).all()
    with pytest.raises(ModelEvaluationFailure,
                       match="non-finite ridge output at sample 2$") as err:
        ridge.eval_batch(xs)
    assert err.value.sample_index == 2


def test_optimal_projector_diagonal_case():
    est = estimate_h(LinearModel(np.diag([np.sqrt(3.0), np.sqrt(2.0), 1.0])),
                     GaussianMeasure.standard(3), SampleStream(8), 1)
    p = optimal_projector(est, GaussianMeasure.standard(3), 2)
    np.testing.assert_allclose(p.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-9)
    assert p.is_sigma_orthogonal


def test_optimal_projector_bound_equals_tail():
    model, mu = make_linear(seed=9)
    est = estimate_h(model, mu, SampleStream(9), 4)
    pairs = generalized_eig(est.h, mu.cov)
    for r in range(1, 7):
        p = optimal_projector(est, mu, r, pairs=pairs)
        tail = float(np.sum(pairs.values[r:]))
        got = error_bound(p, est, mu)
        # round-off floor for tails past rank(H)
        assert abs(got - tail) <= 1e-8 * tail + 1e-12 * pairs.values[0]


def test_optimal_projector_beats_random_projectors():
    rng = np.random.default_rng(10)
    d, r = 6, 2
    h = random_spd(rng, d)
    mu = GaussianMeasure(np.zeros(d), random_spd(rng, d))
    est_like = estimate_h(LinearModel(np.linalg.cholesky(h.entries).T),
                          mu, SampleStream(10), 1)
    np.testing.assert_allclose(est_like.h.entries, h.entries, atol=1e-10)
    p_opt = optimal_projector(est_like, mu, r)
    best = error_bound(p_opt, est_like, mu)
    from gradridge import random_sigma_orthogonal_projector

    stream = SampleStream(11)
    for k in range(1000):
        q = random_sigma_orthogonal_projector(d, r, mu.cov, stream.substream(k))
        assert error_bound(q, est_like, mu) >= best - 1e-9 * best


def test_optimal_projector_rank_bounds():
    model, mu = make_linear(seed=12)
    est = estimate_h(model, mu, SampleStream(12), 4)
    with pytest.raises(RankOutOfRange):
        optimal_projector(est, mu, 0)
    with pytest.raises(RankOutOfRange):
        optimal_projector(est, mu, 8)


def test_optimal_projector_warns_past_rank_ceiling():
    # K = 1 Jacobian sample of a scalar model caps the estimate at rank n
    model = QuadraticFormModel(np.diag([3.0, 2.0, 1.0, 0.5]))
    mu = GaussianMeasure.standard(4)
    est = estimate_h(model, mu, SampleStream(13), 1)
    assert est.rank_upper_bound == 1
    with pytest.warns(NonUniqueProjectorWarning):
        p = optimal_projector(est, mu, 3)
    assert p.rank == 3


def test_spectrum_report_and_select_rank():
    model, mu = make_linear(seed=14)
    report = spectrum_report(estimate_h(model, mu, SampleStream(14), 4), mu)
    d = mu.dim
    assert len(report.eigenvalues) == d
    assert len(report.tail_sums) == d + 1
    assert report.tail_sums[d] == 0.0
    assert np.all(np.diff(report.tail_sums) <= 1e-12)
    np.testing.assert_allclose(report.kl_eigenvalues, np.linalg.eigvalsh(mu.cov.entries)[::-1], rtol=1e-9)
    # frozen small case: tails (5.01, 1.01, 0.01, 0) pick r = 1 at eps^2 = 1.02
    frozen = SpectrumReport(
        eigenvalues=np.array([4.0, 1.0, 0.01]),
        tail_sums=np.array([5.01, 1.01, 0.01, 0.0]),
        kl_eigenvalues=np.ones(3),
        kl_tail_sums=np.array([3.0, 2.0, 1.0, 0.0]),
    )
    assert select_rank(frozen, np.sqrt(1.02)) == 1
    assert select_rank(frozen, np.sqrt(5.01) + 1.0) == 0
    assert select_rank(frozen, 0.0) == 3


def test_build_ridge_requires_sigma_flag():
    model, mu = make_linear(seed=15)
    p = euclidean_projector(np.random.default_rng(15).standard_normal((7, 2)))
    with pytest.raises(NotSigmaOrthogonal):
        build_ridge(model, mu, p, SampleStream(15), 4)


def test_build_ridge_identity_projector_reproduces_model():
    model, mu = make_linear(seed=16)
    ridge = build_ridge(model, mu, RankRProjector.identity(7), SampleStream(16), 3)
    xs = sample(mu, SampleStream(17), 20)
    np.testing.assert_array_equal(ridge.eval_batch(xs), model.eval_batch(xs))
    mse, _ = validate_error(ridge, model, mu, SampleStream(18), 50)
    assert mse == 0.0


def test_build_ridge_linear_closed_form():
    # for linear f the ridge is F P x + F (I - P) Ybar with the stored mean
    model, mu = make_linear(seed=19)
    p = sigma_inverse_projector(np.random.default_rng(19).standard_normal((7, 3)), mu.cov)
    ridge = build_ridge(model, mu, p, SampleStream(19), 6)
    ybar = ridge.cond_samples.mean(axis=0)
    f = model.matrix
    xs = sample(mu, SampleStream(20), 10)
    expect = xs @ (f @ p.matrix).T + f @ (np.eye(7) - p.matrix) @ ybar
    np.testing.assert_allclose(ridge.eval_batch(xs), expect, atol=1e-10)


def test_ridge_samples_frozen_across_evaluations():
    model, mu = make_linear(seed=21)
    p = sigma_inverse_projector(np.random.default_rng(21).standard_normal((7, 2)), mu.cov)
    ridge = build_ridge(model, mu, p, SampleStream(21), 5)
    x = sample(mu, SampleStream(22), 1)[0]
    first = ridge.eval(x)
    for _ in range(3):
        np.testing.assert_array_equal(ridge.eval(x), first)
    assert ridge.cond_samples.shape == (5, 7)
    assert not ridge.cond_samples.flags.writeable


def test_validate_error_exact_profile_linear():
    model, mu = make_linear(seed=23)
    p = sigma_inverse_projector(np.random.default_rng(23).standard_normal((7, 3)), mu.cov)
    closed = linear_cond_exp_error(model, mu, p)
    profile = exact_conditional_expectation(model, mu, p)
    mse, se = validate_error(profile, model, mu, SampleStream(23), 10000)
    assert abs(mse - closed) < 3.0 * se


def test_validate_error_exact_profile_quadratic():
    rng = np.random.default_rng(24)
    model = QuadraticFormModel(rng.standard_normal((5, 5)))
    mu = GaussianMeasure.standard(5)
    vals, vecs = np.linalg.eigh(model.matrix @ model.matrix)
    order = np.argsort(vals)[::-1]
    p = euclidean_projector(vecs[:, order[:2]], extra_flags=("sigma-inverse",))
    closed = quadratic_cond_exp_error(model, mu, p)
    profile = exact_conditional_expectation(model, mu, p)
    mse, se = validate_error(profile, model, mu, SampleStream(24), 20000)
    assert abs(mse - closed) < 3.0 * se


def test_validate_error_monotone_in_rank():
    model, mu = make_linear(seed=25)
    est = estimate_h(model, mu, SampleStream(25), 8)
    pairs = generalized_eig(est.h, mu.cov)
    prev = np.inf
    for r in (1, 2, 3, 5, 7):
        p = optimal_projector(est, mu, r, pairs=pairs)
        profile = exact_conditional_expectation(model, mu, p)
        mse, se = validate_error(profile, model, mu, SampleStream(26), 4000)
        assert mse <= prev + 3.0 * se
        prev = mse


def test_validate_error_thread_invariance():
    model, mu = make_linear(seed=27)
    p = sigma_inverse_projector(np.random.default_rng(27).standard_normal((7, 2)), mu.cov)
    ridge = build_ridge(model, mu, p, SampleStream(27), 4)
    a = validate_error(ridge, model, mu, SampleStream(28), 3000, threads=1)
    b = validate_error(ridge, model, mu, SampleStream(28), 3000, threads=4)
    assert a == b


def test_m_inflation_ratio():
    model, mu = make_linear(seed=29)
    p = sigma_inverse_projector(np.random.default_rng(29).standard_normal((7, 3)), mu.cov)
    for m, lo, hi in ((1, 1.7, 2.3), (20, 0.95, 1.15)):
        ratio = m_inflation_check(model, mu, p, m, 200, SampleStream(29))
        assert lo <= ratio <= hi, (m, ratio)


def test_m_inflation_matches_identity_precisely():
    # with many replicates the ratio settles on 1 + 1/M
    model, mu = make_linear(seed=30)
    p = sigma_inverse_projector(np.random.default_rng(30).standard_normal((7, 2)), mu.cov)
    ratio = m_inflation_check(model, mu, p, 5, 4000, SampleStream(30))
    assert abs(ratio - 1.2) < 0.05


def test_kernel_invariance_of_exact_profile():
    # two projectors with the same kernel give the same conditional
    # expectation after sigma-orthogonalization
    rng = np.random.default_rng(31)
    d = 5
    cov = random_spd(rng, d)
    mu = GaussianMeasure(rng.standard_normal(d), cov)
    model = LinearModel(rng.standard_normal((3, d)))
    p_euc = euclidean_projector(rng.standard_normal((d, 2)))
    # a different image over the same kernel: oblique projector sharing I - P
    q_raw = sigma_orthogonalize(p_euc, cov)
    p_fixed = sigma_orthogonalize(
        euclidean_projector(p_euc.basis @ rng.standard_normal((2, 2)) + 0.0), cov
    )
    prof_a = exact_conditional_expectation(model, mu, q_raw)
    prof_b = exact_conditional_expectation(model, mu, p_fixed)
    xs = sample(mu, SampleStream(31), 50)
    np.testing.assert_allclose(prof_a.eval_batch(xs), prof_b.eval_batch(xs), atol=1e-8)


def test_error_bound_dominates_true_error_all_models():
    # closed-form squared error never exceeds the trace bound
    rng = np.random.default_rng(32)
    model, mu = make_linear(seed=32)
    est = estimate_h(model, mu, SampleStream(32), 4)
    for k in range(20):
        from gradridge import random_sigma_orthogonal_projector

        p = random_sigma_orthogonal_projector(7, 3, mu.cov, SampleStream(33).substream(k))
        closed = linear_cond_exp_error(model, mu, p)
        assert closed <= error_bound(p, est, mu) + 1e-9

    quad = QuadraticFormModel(rng.standard_normal((5, 5)))
    mu_std = GaussianMeasure.standard(5)
    est_q = estimate_h(quad, mu_std, SampleStream(34), 60000)
    for k in range(10):
        p = random_sigma_orthogonal_projector(5, 2, mu_std.cov, SampleStream(35).substream(k))
        closed = quadratic_cond_exp_error(quad, mu_std, p)
        # estimated H carries MC noise; 2 percent headroom covers it
        assert closed <= 1.02 * error_bound(p, est_q, mu_std) + 1e-9
