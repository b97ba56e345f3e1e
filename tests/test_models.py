import itertools

import numpy as np
import pytest

from gradridge import (
    DiffusionModel,
    DimensionMismatch,
    GaussianMeasure,
    IndexOutOfRange,
    LinearModel,
    NonStandardMeasure,
    NotSigmaOrthogonal,
    QuadraticFormModel,
    RankRProjector,
    SampleStream,
    SpdMatrix,
    SumOfSinesModel,
    VectorValuedModel,
    estimate_h,
    exact_conditional_expectation,
    finite_diff_jacobian,
    linear_cond_exp_error,
    quadratic_cond_exp_error,
    sample,
    sines_bound,
    sines_cond_exp_error,
)
from gradridge.projector import euclidean_projector, sigma_inverse_projector
from gradridge.sensitivity import coordinate_projector


def random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return SpdMatrix(a @ a.T + d * np.eye(d))


@pytest.fixture(scope="module")
def models():
    rng = np.random.default_rng(55)
    f = rng.standard_normal((3, 5))
    rv = random_spd(rng, 3)
    return [
        LinearModel(f, rv),
        QuadraticFormModel(rng.standard_normal((4, 4))),
        SumOfSinesModel([1.0, 0.5, 0.25], [1.0, 2.0, 3.0]),
    ]


def test_every_model_matches_finite_differences(models):
    rng = np.random.default_rng(56)
    for model in models:
        for _ in range(10):
            x = rng.standard_normal(model.input_dim)
            jac = model.jacobian(x)
            fd = finite_diff_jacobian(model, x)
            denom = max(1.0, float(np.linalg.norm(jac, "fro")))
            assert np.linalg.norm(jac - fd, "fro") / denom < 1e-4


def test_batch_paths_agree_with_loops(models):
    # every model writes only the batch pair; the base class derives each
    # single point as a batch of one row
    rng = np.random.default_rng(57)
    for model in models + [DiffusionModel(3, scenario="point_pair")]:
        xs = rng.standard_normal((7, model.input_dim))
        ev = np.stack([model.eval(x) for x in xs])
        np.testing.assert_allclose(model.eval_batch(xs), ev, atol=1e-12)
        jac = np.stack([model.jacobian(x) for x in xs])
        np.testing.assert_allclose(model.jacobian_batch(xs), jac, atol=1e-12)


def test_whitened_rows_sum_to_the_metric_formula(models):
    # G = S J through the root S of R, so sum G^T G = sum J^T R J up to
    # round-off: a dense random SPD R, and the identities of the quadratic
    # form and the sines
    rng = np.random.default_rng(58)
    dense = LinearModel(rng.standard_normal((6, 4)), random_spd(rng, 6))
    for model in models + [dense]:
        xs = rng.standard_normal((9, model.input_dim))
        rows = model.whitened_jacobian_batch(xs)
        assert rows.shape == (9, model.whitened_rows, model.input_dim)
        r = model.output_metric.entries
        want = sum(jac.T @ (r @ jac) for jac in model.jacobian_batch(xs))
        got = sum(row.T @ row for row in rows)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_whitened_rows_under_the_identity_metric_are_the_jacobian(models):
    # the identity's root is exact, so S J is J bit for bit
    rng = np.random.default_rng(59)
    for model in models[1:] + [LinearModel(rng.standard_normal((3, 5)))]:
        xs = rng.standard_normal((6, model.input_dim))
        np.testing.assert_array_equal(model.whitened_jacobian_batch(xs),
                                      model.jacobian_batch(xs))


def test_model_implementing_neither_form_raises_not_implemented():
    class Bare(VectorValuedModel):
        input_dim = 2
        output_dim = 1

    model = Bare()
    x = np.zeros(2)
    for call, arg, missing in ((model.eval, x, "eval_batch"),
                               (model.jacobian, x, "jacobian_batch"),
                               (model.eval_batch, x[None], "eval_batch"),
                               (model.jacobian_batch, x[None], "jacobian_batch")):
        with pytest.raises(NotImplementedError, match=f"^Bare does not implement {missing}$"):
            call(arg)


def test_derived_single_point_calls_check_the_point_length(models):
    for model in models:
        for bad in (np.zeros(model.input_dim + 1), np.zeros(model.input_dim - 1)):
            with pytest.raises(DimensionMismatch):
                model.eval(bad)
            with pytest.raises(DimensionMismatch):
                model.jacobian(bad)


def test_batch_calls_check_the_point_width(models):
    # a batch one column short, one column long, and a single point unbatched
    shipped = models + [DiffusionModel(3, scenario="point_pair")]
    profile = exact_conditional_expectation(models[0], GaussianMeasure.standard(5),
                                            RankRProjector.identity(5))
    calls = [getattr(m, name) for name in ("eval_batch", "jacobian_batch",
                                           "whitened_jacobian_batch") for m in shipped]
    for call in calls + [profile.eval_batch]:
        d = call.__self__.input_dim
        for bad in (np.zeros((2, d - 1)), np.zeros((2, d + 1)), np.zeros(d)):
            with pytest.raises(DimensionMismatch, match=f"model takes {d}$"):
                call(bad)


def test_linear_eval_and_jacobian():
    f = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    model = LinearModel(f)
    x = np.array([1.0, -1.0])
    np.testing.assert_allclose(model.eval(x), f @ x)
    np.testing.assert_array_equal(model.jacobian(x), f)
    np.testing.assert_allclose(finite_diff_jacobian(model, x), f, atol=1e-9)


def test_linear_lipschitz_is_weighted_spectral_norm():
    rng = np.random.default_rng(58)
    f = rng.standard_normal((3, 6))
    rv = random_spd(rng, 3)
    model = LinearModel(f, rv)
    h = f.T @ rv.entries @ f
    # |H| = L^2 holds with equality for linear maps
    np.testing.assert_allclose(model.lipschitz_constant**2, np.linalg.eigvalsh(h)[-1], rtol=1e-10)


def test_quadratic_finite_diff():
    rng = np.random.default_rng(59)
    a = rng.standard_normal((4, 4))
    model = QuadraticFormModel(a)
    x = rng.standard_normal(4)
    np.testing.assert_allclose(finite_diff_jacobian(model, x), (model.matrix @ x)[None, :], atol=1e-6)


def test_sines_jacobian_at_zero():
    model = SumOfSinesModel([1.0, 2.0], [3.0, 0.5])
    np.testing.assert_allclose(model.jacobian(np.zeros(2)), [[3.0, 1.0]])
    np.testing.assert_allclose(model.eval(np.zeros(2)), [0.0])


def test_linear_error_identity_projector_zero():
    rng = np.random.default_rng(60)
    f = rng.standard_normal((2, 4))
    mu = GaussianMeasure(np.zeros(4), random_spd(rng, 4))
    assert linear_cond_exp_error(LinearModel(f), mu, RankRProjector.identity(4)) == 0.0


def test_linear_error_hand_value():
    # F = I, R = I, Sigma = I, P = e1 e1^T in d = 2: error is the variance
    # of the dropped coordinate, exactly 1
    mu = GaussianMeasure.standard(2)
    p = coordinate_projector([1], 2)
    got = linear_cond_exp_error(LinearModel(np.eye(2)), mu, p)
    np.testing.assert_allclose(got, 1.0, rtol=1e-12)


def test_linear_error_matches_mc(models):
    # closed form against a Monte Carlo estimate through the exact profile
    rng = np.random.default_rng(61)
    f = rng.standard_normal((3, 4))
    cov = random_spd(rng, 4)
    mu = GaussianMeasure(rng.standard_normal(4), cov)
    model = LinearModel(f)
    p = sigma_inverse_projector(rng.standard_normal((4, 2)), cov)
    closed = linear_cond_exp_error(model, mu, p)
    profile = exact_conditional_expectation(model, mu, p)
    xs = sample(mu, SampleStream(300), 10000)
    err = np.sum((model.eval_batch(xs) - profile.eval_batch(xs)) ** 2, axis=1)
    se = np.std(err, ddof=1) / np.sqrt(len(err))
    assert abs(float(np.mean(err)) - closed) < 3.0 * se


def test_linear_error_requires_sigma_orthogonal():
    rng = np.random.default_rng(62)
    mu = GaussianMeasure(np.zeros(3), random_spd(rng, 3))
    p = euclidean_projector(rng.standard_normal((3, 1)))
    with pytest.raises(NotSigmaOrthogonal):
        linear_cond_exp_error(LinearModel(np.eye(3)), mu, p)


def test_quadratic_error_identity_zero():
    model = QuadraticFormModel(np.diag([2.0, 1.0]))
    assert quadratic_cond_exp_error(model, GaussianMeasure.standard(2), RankRProjector.identity(2)) == 0.0


def test_quadratic_error_hand_value():
    model = QuadraticFormModel(np.diag([2.0, 1.0]))
    p = coordinate_projector([1], 2)
    got = quadratic_cond_exp_error(model, GaussianMeasure.standard(2), p)
    np.testing.assert_allclose(got, 0.5, rtol=1e-14)


def test_quadratic_error_optimal_projector_tail():
    rng = np.random.default_rng(63)
    a = rng.standard_normal((5, 5))
    model = QuadraticFormModel(a)
    alphas = np.sort(np.abs(np.linalg.eigvalsh(model.matrix)))[::-1]
    vals, vecs = np.linalg.eigh(model.matrix @ model.matrix)
    order = np.argsort(vals)[::-1]
    for r in (1, 2, 4):
        p = euclidean_projector(vecs[:, order[:r]])
        got = quadratic_cond_exp_error(model, GaussianMeasure.standard(5), p)
        expect = 0.5 * float(np.sum(alphas[r:] ** 2))
        np.testing.assert_allclose(got, expect, rtol=1e-10)


def test_quadratic_error_rejects_nonstandard():
    model = QuadraticFormModel(np.eye(2))
    shifted = GaussianMeasure([1.0, 0.0], SpdMatrix.identity(2))
    with pytest.raises(NonStandardMeasure):
        quadratic_cond_exp_error(model, shifted, RankRProjector.identity(2))


def test_sines_error_full_and_frozen_values():
    model = SumOfSinesModel([1.0, 1.0], [1.0, 2.0])
    mu = GaussianMeasure.standard(2)
    assert sines_cond_exp_error(model, mu, [1, 2]) == 0.0
    np.testing.assert_allclose(sines_cond_exp_error(model, mu, [2]), 0.43233235838169365, rtol=1e-15)
    one = SumOfSinesModel([1.0], [1.0])
    np.testing.assert_allclose(sines_bound(one, GaussianMeasure.standard(1), []), 0.5676676416183064, rtol=1e-15)
    assert sines_bound(model, mu, [1, 2]) == 0.0


def test_sines_error_matches_mc():
    rng = np.random.default_rng(64)
    a = rng.uniform(0.5, 1.5, 4)
    w = rng.uniform(0.5, 2.0, 4)
    model = SumOfSinesModel(a, w)
    mu = GaussianMeasure.standard(4)
    tau = [1, 3]
    closed = sines_cond_exp_error(model, mu, tau)
    # dropped coordinates contribute a_i sin(w_i X_i) with mean zero
    zs = SampleStream(400).normal_matrix(100000, 2)
    vals = a[1] * np.sin(w[1] * zs[:, 0]) + a[3] * np.sin(w[3] * zs[:, 1])
    err = vals**2
    se = np.std(err, ddof=1) / np.sqrt(len(err))
    assert abs(float(np.mean(err)) - closed) < 3.0 * se


def test_sines_bound_dominates_exhaustively():
    model = SumOfSinesModel([1.0, 0.8, 0.6, 0.4], [0.7, 1.1, 1.9, 2.5])
    mu = GaussianMeasure.standard(4)
    for size in range(5):
        for tau in itertools.combinations(range(1, 5), size):
            assert sines_bound(model, mu, tau) >= sines_cond_exp_error(model, mu, tau) - 1e-12


def test_sines_worst_regime_bound_argmin_is_error_argmax():
    # frequencies at inverse squared amplitudes (all >= 1) make the bound
    # ranking point at the worst subset
    a = np.array([1.0, 0.9, 0.8, 0.7])
    model = SumOfSinesModel(a, 1.0 / a**2)
    mu = GaussianMeasure.standard(4)
    taus = list(itertools.combinations(range(1, 5), 2))
    bounds = [sines_bound(model, mu, t) for t in taus]
    errors = [sines_cond_exp_error(model, mu, t) for t in taus]
    assert taus[int(np.argmin(bounds))] == taus[int(np.argmax(errors))]


def test_sines_benign_regime_argmins_agree():
    rng = np.random.default_rng(65)
    a = rng.uniform(0.3, 2.0, 6)
    model = SumOfSinesModel(a, np.full(6, 1.3))
    mu = GaussianMeasure.standard(6)
    for size in (1, 2, 3, 4, 5):
        taus = list(itertools.combinations(range(1, 7), size))
        bounds = [sines_bound(model, mu, t) for t in taus]
        errors = [sines_cond_exp_error(model, mu, t) for t in taus]
        assert taus[int(np.argmin(bounds))] == taus[int(np.argmin(errors))]


def test_sines_index_out_of_range():
    model = SumOfSinesModel([1.0, 1.0], [1.0, 1.0])
    mu = GaussianMeasure.standard(2)
    with pytest.raises(IndexOutOfRange):
        sines_cond_exp_error(model, mu, [3])
    with pytest.raises(IndexOutOfRange):
        sines_bound(model, mu, [0])


def test_sines_rejects_nonstandard():
    model = SumOfSinesModel([1.0], [1.0])
    wide = GaussianMeasure([0.0], SpdMatrix([[2.0]]))
    with pytest.raises(NonStandardMeasure):
        sines_cond_exp_error(model, wide, [1])


def test_exact_profile_quadratic_vs_mc():
    # the quadratic profile formula against brute-force inner Monte Carlo
    rng = np.random.default_rng(66)
    a = rng.standard_normal((3, 3))
    model = QuadraticFormModel(a)
    mu = GaussianMeasure.standard(3)
    p = euclidean_projector(rng.standard_normal((3, 1)))
    profile = exact_conditional_expectation(model, mu, p)
    x = rng.standard_normal(3)
    ys = SampleStream(500).normal_matrix(200000, 3)
    pts = p.matrix @ x + (ys - ys @ p.matrix.T)
    vals = model.eval_batch(pts)[:, 0]
    se = np.std(vals, ddof=1) / np.sqrt(len(vals))
    assert abs(float(np.mean(vals)) - profile.eval(x)[0]) < 3.0 * se


def test_linear_whitened_rows_are_formed_once_and_sum_to_the_metric_formula():
    # a dense, non-diagonal R = I + 0.1 * 11^T: the rows S F are formed on
    # first use, with the base class's arithmetic, and copied per point
    rng = np.random.default_rng(60)
    f = rng.standard_normal((20, 50))
    model = LinearModel(f, np.eye(20) + 0.1 * np.ones((20, 20)))
    xs = rng.standard_normal((7, 50))
    rows = model.whitened_jacobian_batch(xs)
    assert rows.shape == (7, 20, 50) and rows.flags.writeable
    np.testing.assert_array_equal(rows, VectorValuedModel.whitened_jacobian_batch(model, xs))
    assert model._whitened is model._whitened
    rows[0] = 0.0
    np.testing.assert_array_equal(model.whitened_jacobian_batch(xs[:1])[0], rows[1])
    mu = GaussianMeasure.standard(50)
    h = estimate_h(model, mu, SampleStream(61), 300).h.entries
    want = model.gradient_gram().entries
    assert np.abs(h - want).max() <= 1e-13 * np.abs(want).max()


def test_linear_whitened_rows_under_a_diagonal_metric_are_the_scaled_jacobian():
    rng = np.random.default_rng(62)
    weights = np.array([4.0, 0.25, 9.0])
    model = LinearModel(rng.standard_normal((3, 5)), np.diag(weights))
    rows = model.whitened_jacobian_batch(rng.standard_normal((4, 5)))
    np.testing.assert_array_equal(rows, np.broadcast_to(np.sqrt(weights)[:, None] * model.matrix,
                                                        (4, 3, 5)))
