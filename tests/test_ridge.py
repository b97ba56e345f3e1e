import threading
import time
import tracemalloc

import numpy as np
import pytest

from gradridge import (
    DimensionMismatch,
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
    basis_error_bounds,
    build_ridge,
    build_sensitivity_report,
    coordinate_projector,
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
    sobol_estimates,
    spectrum_report,
    validate_error,
)
from gradridge import ridge
from gradridge.models import VectorValuedModel
from gradridge.pde import Mesh2D, build_field_covariance
from gradridge.projector import (
    euclidean_projector,
    require_sigma_orthogonal,
    sigma_inverse_projector,
)
from gradridge.ridge import CHUNK, JACOBIAN_BYTES


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
    xs = sample(mu, SampleStream(2), 4096)
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

        def eval_batch(self, xs):
            return np.zeros((xs.shape[0], 1))

        def jacobian_batch(self, xs):
            raise RuntimeError("boom")

    with pytest.raises(ModelEvaluationFailure) as err:
        estimate_h(Broken(), GaussianMeasure.standard(2), SampleStream(7), 3)
    assert err.value.sample_index == 0
    assert str(err.value) == "model evaluation failed at sample 0: RuntimeError: boom"


class CountingSines(SumOfSinesModel):
    """The sine sum, recording the shape of every batch it is called on."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = []

    def eval_batch(self, xs):
        self.calls.append(np.shape(xs))
        return super().eval_batch(xs)

    def jacobian_batch(self, xs):
        self.calls.append(np.shape(xs))
        return super().jacobian_batch(xs)


_SAMPLED_ROUTINES = {
    "estimate_h": lambda m, mu: estimate_h(m, mu, SampleStream(3), 4),
    "build_ridge": lambda m, mu: build_ridge(m, mu, RankRProjector.identity(mu.dim),
                                             SampleStream(3), 4),
    "validate_error": lambda m, mu: validate_error(
        build_ridge(m, GaussianMeasure.standard(m.input_dim),
                    RankRProjector.identity(m.input_dim), SampleStream(3), 4),
        m, mu, SampleStream(4), 100),
    "sobol_estimates": lambda m, mu: sobol_estimates(m, mu, [1], SampleStream(1), n_outer=200),
    "build_sensitivity_report": lambda m, mu: build_sensitivity_report(
        m, mu, [[1]], SampleStream(1), n_outer=200, dgsm_samples=20),
}


@pytest.mark.parametrize("routine", sorted(_SAMPLED_ROUTINES))
def test_sampled_routines_refuse_a_measure_of_another_dimension(routine):
    # a 1-d measure under a 4-input model: the sines would broadcast a
    # one-column batch, so the check must come before the first draw
    model = CountingSines(np.ones(4), [1, 2, 3, 4])
    with pytest.raises(DimensionMismatch,
                       match="^model takes 4-dimensional points, measure is 1-dimensional$"):
        _SAMPLED_ROUTINES[routine](model, GaussianMeasure.standard(1))
    assert model.calls == []


class NanAt(VectorValuedModel):
    """f(x) = F x, but NaN in the output and the Jacobian at the given points."""

    def __init__(self, f, poison):
        self.f = np.asarray(f, dtype=float)
        self.output_dim, self.input_dim = self.f.shape
        self.poison = [np.asarray(x) for x in poison]

    @property
    def output_metric(self):
        return SpdMatrix.identity(self.output_dim)

    def _hit(self, x):
        return any(np.array_equal(x, bad) for bad in self.poison)

    def eval_batch(self, xs):
        out = xs @ self.f.T
        out[[self._hit(x) for x in xs]] = np.nan
        return out

    def jacobian_batch(self, xs):
        out = np.broadcast_to(self.f, (xs.shape[0],) + self.f.shape).copy()
        out[[self._hit(x) for x in xs]] = np.nan
        return out


def draws_at(mu, stream, count, indices):
    """The points the block walk draws at the given global indices: rows of
    one long draw."""
    xs = sample(mu, stream, count)
    return [xs[i] for i in indices]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("model_cls", [NanAt], ids=["batch"])
def test_estimate_h_reports_first_non_finite_jacobian(monkeypatch, model_cls, threads):
    mu = GaussianMeasure.standard(3)
    count = CHUNK + 200
    # two bad samples in the second block: the first one is reported
    poison = draws_at(mu, SampleStream(40), count, [CHUNK + 150, CHUNK + 88])
    model = model_cls(np.ones((2, 3)), poison)
    # at the second budget a batch model sees 32-row runs of its block, and
    # the first bad sample sits in the third run
    for block_bytes in (JACOBIAN_BYTES, 32 * 2 * 3 * 8):
        monkeypatch.setattr(ridge, "JACOBIAN_BYTES", block_bytes)
        with pytest.raises(ModelEvaluationFailure,
                           match=f"Jacobian at sample {CHUNK + 88}") as err:
            estimate_h(model, mu, SampleStream(40), count, threads=threads)
        assert err.value.sample_index == CHUNK + 88


def _assert_same_h(got, want):
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class Transposed(VectorValuedModel):
    """f(x) = F x whose Jacobians come back as F^T, shape (d, n) each."""

    def __init__(self, f):
        self.f = np.asarray(f, dtype=float)
        self.output_dim, self.input_dim = self.f.shape
        self.output_metric = SpdMatrix.identity(self.output_dim)

    def jacobian_batch(self, xs):
        return np.broadcast_to(self.f.T, (xs.shape[0],) + self.f.T.shape).copy()


@pytest.mark.parametrize("model_cls", [Transposed], ids=["batch"])
def test_estimate_h_rejects_a_jacobian_of_the_wrong_shape(model_cls):
    # F^T has as many entries as F, so reshaping it to (n, d) would run and
    # give diag(H) = [16, 13, 26] where F^T F has [9, 17, 29]
    model = model_cls(np.arange(6.0).reshape(2, 3))
    with pytest.raises(DimensionMismatch, match=r"shape \(4, 3, 2\)"):
        estimate_h(model, GaussianMeasure.standard(3), SampleStream(49), 4)


class _Reshaped:
    """A surrogate whose eval_batch returns ``cut`` of the model's values."""

    def __init__(self, model, cut):
        self.model = model
        self.cut = cut

    def eval_batch(self, xs):
        return self.cut(self.model.eval_batch(xs))


@pytest.mark.parametrize("matrix, cut, got", [
    (np.arange(8.0).reshape(2, 4), lambda v: v[:, :1], "(50, 1)"),
    (np.arange(8.0).reshape(2, 4), lambda v: v[:1], "(1, 2)"),
    (np.ones((1, 3)), lambda v: v[:, 0], "(50,)"),
], ids=["first-column", "one-row", "flat"])
def test_validate_error_rejects_a_surrogate_output_of_the_wrong_shape(matrix, cut, got):
    # each of these broadcasts against the model's (50, n) values into a
    # finite number: (87.59, 17.67), (197.03, 39.25) and (7187.5, 1295.9)
    model = LinearModel(matrix)
    mu = GaussianMeasure.standard(model.input_dim)
    want = f"(50, {model.output_dim})"
    with pytest.raises(DimensionMismatch) as err:
        validate_error(_Reshaped(model, cut), model, mu, SampleStream(1), 50)
    assert str(err.value) == f"_Reshaped.eval_batch returned shape {got}, expected {want}"


class _TransposedValues(LinearModel):
    """F x whose eval_batch returns its values transposed, (n, N)."""

    def eval_batch(self, xs):
        return super().eval_batch(xs).T


def test_ridge_rejects_a_model_output_of_the_wrong_shape():
    # (2, 15) has as many entries as (15, 2), so reshaping it to (5, 3, 2)
    # would run and give a wrong ridge with no error
    model = _TransposedValues(np.arange(8.0).reshape(2, 4))
    mu = GaussianMeasure.standard(4)
    ridge_fn = build_ridge(model, mu, coordinate_projector([1, 2], 4), SampleStream(42), 3)
    xs = sample(mu, SampleStream(43), 5)
    with pytest.raises(DimensionMismatch) as err:
        ridge_fn.eval_batch(xs)
    assert str(err.value) == "_TransposedValues.eval_batch returned shape (2, 15), expected (15, 2)"


def test_ridge_refuses_points_of_another_width():
    # a ridge built at d = 4, validated against a d = 5 model: the ridge
    # refuses the points before any product, and _eval_rows passes its
    # DimensionMismatch on unchanged, with no sample blamed
    ridge_fn = build_ridge(LinearModel(np.ones((1, 4))), GaussianMeasure.standard(4),
                           coordinate_projector([1, 2], 4), SampleStream(44), 3)
    with pytest.raises(DimensionMismatch, match=r"^points have shape \(50, 5\), ridge takes 4$"):
        validate_error(ridge_fn, LinearModel(np.ones((1, 5))), GaussianMeasure.standard(5),
                       SampleStream(45), 50)
    for bad in (np.zeros(4), np.zeros((2, 3)), np.zeros((1, 2, 4))):
        with pytest.raises(DimensionMismatch):
            ridge_fn.eval_batch(bad)


def test_basis_error_bounds_refuses_a_basis_of_another_height():
    model, mu = make_linear(seed=46, d=4)
    est = estimate_h(model, mu, SampleStream(46), 4)
    with pytest.raises(DimensionMismatch, match=r"^H is 4x4 but the basis has shape \(3, 3\)$"):
        basis_error_bounds(est, np.eye(3))


def test_estimate_h_block_budget_does_not_change_h(monkeypatch):
    model, mu = make_linear(seed=43)
    rows = []

    class Recording(LinearModel):
        def jacobian_batch(self, xs):
            rows.append(xs.shape[0])
            return super().jacobian_batch(xs)

    recording = Recording(model.matrix, model.output_metric)
    count = 2 * CHUNK + 70
    whole = estimate_h(recording, mu, SampleStream(43), count).h.entries
    assert rows == [CHUNK, CHUNK, 70]
    # 3 x 7 Jacobians of 8 bytes: a 100-row budget, so 6 runs per full block
    rows.clear()
    monkeypatch.setattr(ridge, "JACOBIAN_BYTES", 100 * 3 * 7 * 8)
    split = estimate_h(recording, mu, SampleStream(43), count, threads=2).h.entries
    assert sorted(rows) == sorted([100] * 10 + [12, 12, 70])
    _assert_same_h(split, whole)


def test_estimate_h_batch_memory_stays_within_one_block():
    # the whole 512-row block of 40 x 400 Jacobians, and R J beside it, held
    # 128 MiB; one run holds JACOBIAN_BYTES of each
    model = LinearModel(np.random.default_rng(44).standard_normal((40, 400)))
    mu = GaussianMeasure.standard(400)
    tracemalloc.start()
    try:
        estimate_h(model, mu, SampleStream(44), CHUNK)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("threads", [1, 2])
def test_validate_error_reports_first_non_finite_output(threads):
    mu = GaussianMeasure.standard(3)
    count = CHUNK + 200
    poison = draws_at(mu, SampleStream(41), count, [CHUNK + 7])
    model = NanAt(np.ones((2, 3)), poison)
    p = sigma_inverse_projector(np.ones((3, 1)), mu.cov)
    ridge = build_ridge(model, mu, p, SampleStream(42), 2)
    with pytest.raises(ModelEvaluationFailure, match=f"output at sample {CHUNK + 7}") as err:
        validate_error(ridge, model, mu, SampleStream(41), count, threads=threads)
    assert err.value.sample_index == CHUNK + 7
    # the same model away from its bad point validates cleanly
    assert np.isfinite(validate_error(ridge, model, mu, SampleStream(43), 50)[0])


def test_validate_error_reports_global_index_of_non_finite_ridge_output():
    # with the identity projector the ridge is the model, so it is NaN at the
    # poisoned sample too and raises first, counting rows within its block
    mu = GaussianMeasure.standard(3)
    count = CHUNK + 200
    model = NanAt(np.ones((2, 3)), draws_at(mu, SampleStream(41), count, [CHUNK + 7]))
    ridge = build_ridge(model, mu, sigma_inverse_projector(np.eye(3), mu.cov), SampleStream(42), 2)
    with pytest.raises(ModelEvaluationFailure,
                       match=f"non-finite ridge output at sample {CHUNK + 7}$") as err:
        validate_error(ridge, model, mu, SampleStream(41), count)
    assert err.value.sample_index == CHUNK + 7


class RaisesAt(NanAt):
    """f(x) = F x, but a batch holding one of the given points raises."""

    def eval_batch(self, xs):
        if any(self._hit(x) for x in xs):
            raise RuntimeError("boom")
        return xs @ self.f.T


@pytest.mark.parametrize("threads", [1, 2])
def test_validate_error_names_the_sample_where_the_model_raises(threads):
    # the second block's f(X) call raises; its rows are evaluated again one at
    # a time, and the error names the global row and keeps the model's cause
    mu = GaussianMeasure.standard(3)
    count = CHUNK + 200
    model = RaisesAt(np.ones((2, 3)), draws_at(mu, SampleStream(41), count, [CHUNK + 7]))
    p = sigma_inverse_projector(np.ones((3, 1)), mu.cov)
    approx = build_ridge(model, mu, p, SampleStream(42), 2)
    with pytest.raises(ModelEvaluationFailure) as err:
        validate_error(approx, model, mu, SampleStream(41), count, threads=threads)
    assert err.value.sample_index == CHUNK + 7
    assert str(err.value) == f"model evaluation failed at sample {CHUNK + 7}: RuntimeError: boom"
    assert isinstance(err.value.__cause__, RuntimeError)


class RaisesAtRidgePoint(LinearModel):
    """f(x) = F x, but a batch holding a point with the given x_1 and x_2
    raises."""

    def __init__(self, matrix, x1, x2):
        super().__init__(matrix)
        self.x1, self.x2 = x1, x2

    def eval_batch(self, xs):
        if ((xs[:, 0] == self.x1) & (xs[:, 1] == self.x2)).any():
            raise RuntimeError("boom")
        return super().eval_batch(xs)


@pytest.mark.parametrize("threads", [1, 2])
def test_validate_error_names_the_sample_where_a_ridge_point_raises(threads):
    # the rank-1 ridge keeps x_1 and takes x_2 and x_3 from its profile draws,
    # so only the ridge points of sample CHUNK + 7 reach the bad point, not
    # f(X) there; the ridge's rows are evaluated again one at a time
    mu = GaussianMeasure.standard(3)
    count = CHUNK + 200
    (x,) = draws_at(mu, SampleStream(41), count, [CHUNK + 7])
    (y,) = draws_at(mu, SampleStream(42), 2, [0])
    model = RaisesAtRidgePoint(np.ones((2, 3)), x[0], y[1])
    p = sigma_inverse_projector(np.eye(3)[:, :1], mu.cov)
    approx = build_ridge(model, mu, p, SampleStream(42), 2)
    with pytest.raises(ModelEvaluationFailure) as err:
        validate_error(approx, model, mu, SampleStream(41), count, threads=threads)
    assert err.value.sample_index == CHUNK + 7
    assert str(err.value) == f"model evaluation failed at sample {CHUNK + 7}: RuntimeError: boom"
    assert isinstance(err.value.__cause__, RuntimeError)


class JacobianRaisesAt(LinearModel):
    """f(x) = F x, but a jacobian_batch call holding the given point raises."""

    def __init__(self, matrix, poison):
        super().__init__(matrix)
        self.poison = poison

    def jacobian_batch(self, xs):
        if np.all(xs == self.poison, axis=1).any():
            raise RuntimeError("boom")
        return super().jacobian_batch(xs)


@pytest.mark.parametrize("threads", [1, 2])
def test_estimate_h_names_the_sample_where_a_batch_jacobian_raises(threads):
    # the second block's jacobian_batch call raises; its rows are evaluated
    # again one at a time, and the error names the global row and keeps the
    # model's cause
    mu = GaussianMeasure.standard(3)
    count = CHUNK + 200
    (poison,) = draws_at(mu, SampleStream(43), count, [CHUNK + 7])
    model = JacobianRaisesAt(np.ones((2, 3)), poison)
    with pytest.raises(ModelEvaluationFailure) as err:
        estimate_h(model, mu, SampleStream(43), count, threads=threads)
    assert err.value.sample_index == CHUNK + 7
    assert str(err.value) == f"model evaluation failed at sample {CHUNK + 7}: RuntimeError: boom"
    assert isinstance(err.value.__cause__, RuntimeError)


def test_validate_error_keeps_a_batch_failure_that_no_single_row_repeats():
    class TooBig(LinearModel):
        def eval_batch(self, xs):
            if xs.shape[0] > 1:
                raise MemoryError("batch too large")
            return super().eval_batch(xs)

    mu = GaussianMeasure.standard(3)
    model = TooBig(np.ones((2, 3)))
    p = sigma_inverse_projector(np.ones((3, 1)), mu.cov)
    approx = build_ridge(model, mu, p, SampleStream(42), 2)
    with pytest.raises(MemoryError, match="batch too large"):
        validate_error(approx, model, mu, SampleStream(41), 20)


def _walk_results(chunk, threads, monkeypatch):
    """estimate_h's H, validate_error's (mse, se) and the index a NaN
    Jacobian is reported at, with blocks of ``chunk`` rows. The measure is
    diagonal and every product per row is exact (sines, a coordinate
    projector), so any difference across block sizes would be a draw."""
    monkeypatch.setattr(ridge, "CHUNK", chunk)
    mu = GaussianMeasure(np.full(5, 0.3), SpdMatrix.diagonal([1.0, 2.0, 0.5, 1.5, 0.8]))
    model = SumOfSinesModel([1.0, 0.6, 0.4, 0.3, 0.2], [0.8, 1.3, 2.0, 0.5, 1.1])
    count = CHUNK + 102
    h = estimate_h(model, mu, SampleStream(45), count, threads=threads).h.entries
    approx = build_ridge(model, mu, coordinate_projector([1, 3], 5), SampleStream(46), 3)
    val = validate_error(approx, model, mu, SampleStream(47), count, threads=threads)
    poison = draws_at(mu, SampleStream(48), count, [CHUNK + 33])
    with pytest.raises(ModelEvaluationFailure) as err:
        estimate_h(NanAt(np.ones((2, 5)), poison), mu, SampleStream(48), count,
                   threads=threads)
    return h, val, err.value.sample_index


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("chunk", [4, CHUNK, 1 << 40])
def test_block_size_and_thread_count_change_no_draw(monkeypatch, chunk, threads):
    # every block reads its rows straight from one long draw: validate_error
    # is bitwise the same, H moves only by its summation order, and a bad
    # sample keeps its global index
    want_h, want_val, _ = _walk_results(CHUNK, 1, monkeypatch)
    h, val, index = _walk_results(chunk, threads, monkeypatch)
    _assert_same_h(h, want_h)
    assert val == want_val
    assert index == CHUNK + 33


@pytest.mark.parametrize("chunk", [4, 1 << 40])
def test_correlated_draws_agree_across_block_sizes_to_round_off(monkeypatch, chunk):
    # m + S z and the model's F x on a few rows can take another BLAS kernel
    # than on many (OpenBLAS does at d = 144 for up to 8 rows), so with a
    # correlated covariance only the thread count is bitwise free
    mu = GaussianMeasure(np.zeros(144), build_field_covariance(Mesh2D(12)))
    model = LinearModel(np.random.default_rng(45).standard_normal((3, 144)))
    p = optimal_projector(estimate_h(model, mu, SampleStream(1), 50), mu, 2)
    approx = build_ridge(model, mu, p, SampleStream(46), 3)
    count = CHUNK + 102
    want = validate_error(approx, model, mu, SampleStream(47), count)
    monkeypatch.setattr(ridge, "CHUNK", chunk)
    got = [validate_error(approx, model, mu, SampleStream(47), count, threads=t)
           for t in (1, 2, 4)]
    assert got[0] == got[1] == got[2]
    np.testing.assert_allclose(got[0], want, rtol=1e-13)


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
    require_sigma_orthogonal(p, SpdMatrix.identity(3))


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


def test_optimal_projector_is_read_off_the_eigenpairs():
    # the leading eigenvectors and their duals Sigma^{-1} v are the two
    # factors as they stand; the general constructor is the reference
    rng = np.random.default_rng(14)
    d = 9
    sigma = random_spd(rng, d)
    a = rng.standard_normal((d, 4))
    h = SpdMatrix(a @ a.T)
    mu = GaussianMeasure(np.zeros(d), sigma)
    pairs = generalized_eig(h, sigma)
    np.testing.assert_allclose(pairs.duals.T @ pairs.vectors, np.eye(d), rtol=0, atol=1e-10)
    np.testing.assert_allclose(sigma.entries @ pairs.duals, pairs.vectors, rtol=0, atol=1e-10)
    for r in range(1, d + 1):
        p = optimal_projector(h, mu, r, pairs=pairs)
        np.testing.assert_array_equal(p.basis, pairs.vectors[:, :r])
        np.testing.assert_array_equal(p.dual, pairs.duals[:, :r])
        require_sigma_orthogonal(p, sigma)
        reference = sigma_inverse_projector(pairs.vectors[:, :r], sigma)
        np.testing.assert_allclose(p.matrix, reference.matrix, rtol=0, atol=1e-9)


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


@pytest.mark.parametrize("eps", [np.nan, np.inf])
def test_select_rank_refuses_an_eps_that_is_not_finite(eps):
    # a NaN compares false with every tail sum, and so picked rank d
    model, mu = make_linear(seed=47, d=4)
    report = spectrum_report(estimate_h(model, mu, SampleStream(47), 4), mu)
    with pytest.raises(ValueError, match="^eps must be finite and nonnegative"):
        select_rank(report, eps)


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


def test_identity_projector_ridge_evaluates_one_point_per_row():
    # every offset (I - P) Y_j is zero, so the M frozen draws collapse to one
    class Counting(LinearModel):
        points = 0

        def eval_batch(self, xs):
            Counting.points += np.asarray(xs).shape[0]
            return super().eval_batch(xs)

    base, mu = make_linear(seed=16)
    model = Counting(base.matrix, base.output_metric)
    ridge = build_ridge(model, mu, RankRProjector.identity(7), SampleStream(16), 5)
    assert ridge.profile_samples == 5
    xs = sample(mu, SampleStream(17), 20)
    ridge.eval_batch(xs)
    assert Counting.points == 20


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
    p = euclidean_projector(vecs[:, order[:2]])
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


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("n_chunks", [1, 2, 3, 7])
def test_map_chunks_runs_each_chunk_once_in_order_on_the_caller_and_its_helpers(
        monkeypatch, n_chunks, threads):
    started = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    ran_on = {}

    def fn(i):
        ran_on.setdefault(i, []).append(threading.get_ident())
        time.sleep(0.002)
        return i * i

    assert ridge._map_chunks(fn, n_chunks, threads) == [i * i for i in range(n_chunks)]
    assert sorted(ran_on) == list(range(n_chunks))
    assert all(len(idents) == 1 for idents in ran_on.values())
    workers = {idents[0] for idents in ran_on.values()}
    assert len(workers) <= threads and threading.get_ident() in workers
    # the caller is a worker: a pool of T workers starts T - 1 threads, and a
    # serial walk or a single chunk starts none
    assert len(started) == (0 if threads == 1 or n_chunks == 1 else min(threads, n_chunks) - 1)


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_map_chunks_raises_the_lowest_failing_chunk_after_every_chunk_ran(threads):
    ran = set()

    def fn(i):
        if i == 2:
            time.sleep(0.05)  # chunk 5 fails first on a pool
        ran.add(i)
        if i in (2, 5):
            raise ValueError(i)
        return i

    with pytest.raises(ValueError) as err:
        ridge._map_chunks(fn, 7, threads)
    assert err.value.args == (2,)
    # a pool runs every chunk, as a ThreadPoolExecutor would; a serial walk
    # stops at the first failure
    assert ran == (set(range(3)) if threads == 1 else set(range(7)))


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
