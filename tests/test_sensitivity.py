import itertools
import json
import warnings

import numpy as np
import pytest

from gradridge import (
    GaussianMeasure,
    IndexOutOfRange,
    LinearModel,
    ModelEvaluationFailure,
    NonDiagonalCovariance,
    NonFiniteInput,
    QuadraticFormModel,
    SampleStream,
    SpdMatrix,
    SumOfSinesModel,
    ZeroVariance,
    build_sensitivity_report,
    coordinate_projector,
    dgsm,
    exact_conditional_expectation,
    sample,
    sines_cond_exp_error,
    sobol_bounds,
    sobol_estimates,
    validate_error,
)
from gradridge.sensitivity import IndexGroup


def test_index_group_normalizes():
    g = IndexGroup((3, 1, 3, 2))
    assert g.indices == (1, 2, 3)
    assert g.label() == "{1,2,3}"
    assert IndexGroup.coerce(2).indices == (2,)
    assert IndexGroup.coerce(g) is g


def test_index_group_complement_and_mask():
    g = IndexGroup((2,))
    assert g.complement(3).indices == (1, 3)
    np.testing.assert_array_equal(g.mask(3), [False, True, False])
    with pytest.raises(IndexOutOfRange):
        IndexGroup((0,))
    with pytest.raises(IndexOutOfRange):
        IndexGroup((4,)).validate(3)


def test_coordinate_projector_cases():
    full = coordinate_projector([1, 2, 3], 3)
    np.testing.assert_array_equal(full.matrix, np.eye(3))
    empty = coordinate_projector([], 3)
    np.testing.assert_array_equal(empty.matrix, np.zeros((3, 3)))
    mid = coordinate_projector([2], 3)
    np.testing.assert_array_equal(mid.matrix, np.diag([0.0, 1.0, 0.0]))
    assert mid.is_euclidean and not mid.is_sigma_orthogonal
    flagged = coordinate_projector([2], 3, sigma=SpdMatrix(np.diag([2.0, 3.0, 4.0])))
    assert flagged.is_sigma_orthogonal


def test_sobol_additive_symmetric():
    model = LinearModel(np.array([[1.0, 1.0]]))
    mu = GaussianMeasure.standard(2)
    est = sobol_estimates(model, mu, [1], SampleStream(1), n_outer=2000, m_inner=32)
    assert abs(est.s_hat - 0.5) < 3.0 * est.s_se + 0.02
    assert abs(est.t_hat - 0.5) < 3.0 * est.t_se + 0.02


def test_sobol_pure_interaction():
    # f = x1 x2 has no closed first-order effect and full total effect
    model = QuadraticFormModel(np.array([[0.0, 1.0], [1.0, 0.0]]))
    mu = GaussianMeasure.standard(2)
    est = sobol_estimates(model, mu, [1], SampleStream(2), n_outer=4000, m_inner=64)
    assert abs(est.s_hat) < 3.0 * est.s_se + 0.02
    assert abs(est.t_hat - 1.0) < 3.0 * est.t_se + 0.05
    assert abs(est.total_variance - 1.0) < 4.0 * est.total_variance_se


def test_sobol_full_and_empty_groups():
    model = SumOfSinesModel([1.0, 0.5, 0.8], [1.0, 2.0, 0.7])
    mu = GaussianMeasure.standard(3)
    full = sobol_estimates(model, mu, [1, 2, 3], SampleStream(3), n_outer=1500, m_inner=16)
    assert abs(full.s_hat - 1.0) < 3.0 * full.s_se + 1e-9
    assert abs(full.t_hat - 1.0) < 3.0 * full.t_se + 0.05
    empty = sobol_estimates(model, mu, [], SampleStream(4), n_outer=1500, m_inner=16)
    assert abs(empty.s_hat) < 3.0 * empty.s_se + 0.05
    assert abs(empty.t_hat) < 3.0 * empty.t_se + 1e-9


def test_sobol_rejects_correlated_cov():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3))
    mu = GaussianMeasure(np.zeros(3), SpdMatrix(a @ a.T + 3 * np.eye(3)))
    with pytest.raises(NonDiagonalCovariance):
        sobol_estimates(LinearModel(np.eye(3)), mu, [1], SampleStream(5))


def test_sobol_zero_variance():
    model = LinearModel(np.zeros((1, 2)))
    mu = GaussianMeasure.standard(2)
    with pytest.raises(ZeroVariance):
        sobol_estimates(model, mu, [1], SampleStream(6), n_outer=100, m_inner=4)


@pytest.mark.parametrize("scale, error", [(1e-140, ZeroVariance), (1e100, NonFiniteInput)])
def test_sobol_variance_whose_square_leaves_double_range(scale, error):
    # a variance near 1e-280 or 1e200 is finite and positive, but its square,
    # which the standard errors divide by, underflows to 0 or overflows
    model = LinearModel(scale * np.ones((1, 2)))
    with pytest.raises(error, match="output variance .* to square"):
        sobol_estimates(model, GaussianMeasure.standard(2), [1], SampleStream(6), n_outer=10,
                        m_inner=2)


def test_sobol_determinism():
    model = LinearModel(np.array([[2.0, 1.0]]))
    mu = GaussianMeasure.standard(2)
    a = sobol_estimates(model, mu, [1], SampleStream(7), n_outer=500, m_inner=8)
    b = sobol_estimates(model, mu, [1], SampleStream(7), n_outer=500, m_inner=8)
    assert a == b


def test_dgsm_linear_exact():
    f = np.array([[1.0, -2.0, 0.5], [0.0, 1.0, 1.0]])
    mu = GaussianMeasure.standard(3)
    got = dgsm(LinearModel(f), mu, SampleStream(8), 10)
    np.testing.assert_allclose(got, np.sum(f * f, axis=0), atol=1e-12)


def test_dgsm_constant_model_zero():
    got = dgsm(LinearModel(np.zeros((1, 3))), GaussianMeasure.standard(3), SampleStream(9), 50)
    np.testing.assert_array_equal(got, np.zeros(3))


def test_dgsm_sines_closed_form():
    a = np.array([1.0, 0.6])
    w = np.array([0.9, 1.7])
    model = SumOfSinesModel(a, w)
    got = dgsm(model, GaussianMeasure.standard(2), SampleStream(10), 120000)
    expect = 0.5 * a**2 * w**2 * (1.0 + np.exp(-2.0 * w**2))
    np.testing.assert_allclose(got, expect, rtol=0.02)


def test_sobol_bounds_tight_linear_single_coordinate():
    # f = x1: the derivative bound saturates on both sides
    mu = GaussianMeasure.standard(2)
    g = dgsm(LinearModel(np.array([[1.0, 0.0]])), mu, SampleStream(11), 10)
    s_lower, t_upper, vacuous = sobol_bounds(g, mu, [1], 1.0)
    np.testing.assert_allclose(s_lower, 1.0, atol=1e-12)
    np.testing.assert_allclose(t_upper, 1.0, atol=1e-12)
    assert not vacuous


def test_sobol_bounds_full_group_at_least_one():
    model = SumOfSinesModel([1.0, 0.5], [1.2, 0.4])
    mu = GaussianMeasure.standard(2)
    est = sobol_estimates(model, mu, [1, 2], SampleStream(12), n_outer=2000, m_inner=32)
    g = dgsm(model, mu, SampleStream(13), 20000)
    _, t_upper, _ = sobol_bounds(g, mu, [1, 2], est.total_variance)
    assert t_upper >= 1.0 - 0.05


def test_sobol_bounds_loose_at_high_frequency():
    # small variance but large gradients: the derivative bound blows up
    model = SumOfSinesModel([1.0, 1.0], [8.0, 1.0])
    mu = GaussianMeasure.standard(2)
    est = sobol_estimates(model, mu, [1], SampleStream(14), n_outer=2000, m_inner=32)
    g = dgsm(model, mu, SampleStream(15), 20000)
    _, t_upper, _ = sobol_bounds(g, mu, [1], est.total_variance)
    assert t_upper > 10.0 * max(est.t_hat, 1e-9)


def test_sobol_bounds_vacuous_flag():
    # high-frequency energy on the complement pushes the lower bound negative
    model = SumOfSinesModel([1.0, 1.0], [1.0, 8.0])
    mu = GaussianMeasure.standard(2)
    est = sobol_estimates(model, mu, [1], SampleStream(16), n_outer=1000, m_inner=16)
    g = dgsm(model, mu, SampleStream(17), 20000)
    s_lower, _, vacuous = sobol_bounds(g, mu, [1], est.total_variance)
    assert s_lower < 0.0
    assert vacuous


def test_sobol_bounds_zero_variance():
    mu = GaussianMeasure.standard(2)
    with pytest.raises(ZeroVariance):
        sobol_bounds(np.ones(2), mu, [1], 0.0)


def test_sandwich_property_all_models_d4():
    rng = np.random.default_rng(18)
    mu = GaussianMeasure.standard(4)
    models = [
        LinearModel(rng.standard_normal((2, 4))),
        QuadraticFormModel(rng.standard_normal((4, 4))),
        SumOfSinesModel(rng.uniform(0.5, 1.5, 4), rng.uniform(0.5, 1.5, 4)),
    ]
    for mi, model in enumerate(models):
        g = dgsm(model, mu, SampleStream(19).substream(mi), 40000)
        for k, size in enumerate((1, 2, 3)):
            for j, tau in enumerate(itertools.combinations(range(1, 5), size)):
                est = sobol_estimates(
                    model, mu, tau, SampleStream(20).substream(mi).substream(k).substream(j),
                    n_outer=400, m_inner=24,
                )
                s_lower, t_upper, _ = sobol_bounds(g, mu, tau, est.total_variance)
                assert s_lower <= est.s_hat + 3.0 * est.s_se + 0.05
                assert est.t_hat <= t_upper + 3.0 * est.t_se + 0.05
                assert est.s_hat <= est.t_hat + 3.0 * np.hypot(est.s_se, est.t_se) + 0.05


def test_consistency_with_ridge_error():
    # (1 - S) times the total variance is the conditional-expectation error
    # of the coordinate projector; cross-check against validate_error
    model = SumOfSinesModel([1.0, 0.7, 0.4], [0.8, 1.4, 2.0])
    mu = GaussianMeasure.standard(3)
    tau = [1, 3]
    est = sobol_estimates(model, mu, tau, SampleStream(21), n_outer=4000, m_inner=64)
    closed = sines_cond_exp_error(model, mu, tau)
    profile = exact_conditional_expectation(model, mu, coordinate_projector(tau, 3, sigma=mu.cov))
    mse, mse_se = validate_error(profile, model, mu, SampleStream(22), 20000)
    lhs = (1.0 - est.s_hat) * est.total_variance
    combined = np.hypot(est.s_se * est.total_variance, mse_se)
    assert abs(lhs - mse) < 4.0 * combined + 0.01
    assert abs(lhs - closed) < 4.0 * est.s_se * est.total_variance + 0.01


def test_report_assembly_and_json(tmp_path):
    model = LinearModel(np.array([[2.0, 1.0, 0.5]]))
    mu = GaussianMeasure.standard(3)
    report = build_sensitivity_report(
        model, mu, [[1], [2], [3]], SampleStream(23), n_outer=600, m_inner=16, dgsm_samples=100
    )
    rows = list(report.rows())
    assert [r["group"] for r in rows] == ["{1}", "{2}", "{3}"]
    d = 4.0 + 1.0 + 0.25
    for row, f2 in zip(rows, (4.0, 1.0, 0.25)):
        assert abs(row["s_hat"] - f2 / d) < 3.0 * row["s_se"] + 0.05
        assert -3.0 * row["s_se"] <= row["s_hat"] <= 1.0 + 3.0 * row["s_se"]
        assert row["t_upper"] >= 0.0
        # linear model: the derivative bounds are exact population values
        assert abs(row["s_lower"] - (1.0 - (d - f2) / d)) < 0.1
    out = tmp_path / "report.json"
    report.write_json(out, metadata={"seed": 23})
    data = json.loads(out.read_text())
    assert data["seed"] == 23
    assert len(data["groups"]) == 3
    assert len(data["dgsm"]) == 3
    assert data["total_variance"] > 0.0
    assert report.to_json_dict()["groups"] == data["groups"]


def test_report_without_groups_fails_before_any_jacobian():
    class Counting(LinearModel):
        calls = 0

        def jacobian_batch(self, xs):
            Counting.calls += 1
            return super().jacobian_batch(xs)

    with pytest.raises(ValueError, match="at least one index group"):
        build_sensitivity_report(Counting(np.ones((1, 2))), GaussianMeasure.standard(2), [],
                                 SampleStream(24), n_outer=10, m_inner=2, dgsm_samples=10)
    assert Counting.calls == 0


class _NanPast(SumOfSinesModel):
    """A sine sum whose output is NaN wherever x_1 exceeds ``cut``."""

    def __init__(self, cut):
        super().__init__([1.0, 0.5], [1.0, 2.0])
        self.cut = cut

    def eval_batch(self, xs):
        out = super().eval_batch(xs)
        out[xs[:, 0] > self.cut] = np.nan
        return out


def _sobol(model, mu, root, through_report, n_outer, inner):
    """sobol_estimates of group {1} on the stream that group gets, called
    directly or through build_sensitivity_report."""
    if through_report:
        return build_sensitivity_report(model, mu, [[1]], root, n_outer=n_outer,
                                        m_inner=inner, dgsm_samples=10)
    return sobol_estimates(model, mu, [1], root.substream(1), n_outer=n_outer, m_inner=inner)


@pytest.mark.parametrize("through_report", [False, True])
def test_sobol_reports_first_non_finite_outer_output(through_report):
    mu = GaussianMeasure.standard(2)
    root = SampleStream(25)
    xs = sample(mu, root.substream(1).substream(0), 40)
    first = int(np.argmax(xs[:, 0] > 1.0))
    assert xs[first, 0] > 1.0
    with pytest.raises(ModelEvaluationFailure,
                       match=f"non-finite output at sample {first}$") as err:
        _sobol(_NanPast(1.0), mu, root, through_report, n_outer=40, inner=4)
    assert err.value.sample_index == first


@pytest.mark.parametrize("through_report", [False, True])
def test_sobol_reports_outer_index_of_non_finite_inner_average(through_report):
    # the outer draws all stay below the cut, so only the total index's inner
    # loop, which redraws x_1, can meet a NaN
    mu = GaussianMeasure.standard(2)
    root = SampleStream(26)
    n_outer, inner = 40, 8
    cut = float(sample(mu, root.substream(1).substream(0), n_outer)[:, 0].max())
    ys = sample(mu, root.substream(1).substream(2), n_outer * inner).reshape(n_outer, inner, 2)
    hit = (ys[:, :, 0] > cut).any(axis=1)
    first = int(np.argmax(hit))
    assert hit[first]
    with pytest.raises(ModelEvaluationFailure,
                       match=f"non-finite conditional average at sample {first}$") as err:
        _sobol(_NanPast(cut), mu, root, through_report, n_outer=n_outer, inner=inner)
    assert err.value.sample_index == first


class _HugePast(LinearModel):
    """f(x) = x_1, but 1e300 wherever x_2 exceeds 4: every output is finite,
    while the squared residual of a conditional average overflows."""

    def __init__(self):
        super().__init__(np.array([[1.0, 0.0, 0.0]]))

    def eval_batch(self, xs):
        out = super().eval_batch(xs)
        out[xs[:, 1] > 4.0] = 1e300
        return out


@pytest.mark.parametrize("through_report", [False, True])
def test_sobol_reports_outer_index_of_overflowing_residual(through_report):
    mu = GaussianMeasure.standard(3)
    root = SampleStream(7)
    n_outer, inner = 2000, 64
    # the closed index keeps x_1 and redraws x_2, so a row overflows when its
    # outer draw or any of its inner draws has x_2 > 4
    xs = sample(mu, root.substream(1).substream(0), n_outer)
    ys = sample(mu, root.substream(1).substream(1), n_outer * inner).reshape(n_outer, inner, 3)
    hit = (xs[:, 1] > 4.0) | (ys[:, :, 1] > 4.0).any(axis=1)
    first = int(np.argmax(hit))
    assert hit[first]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput, match=f"at outer sample {first} is too large"):
            _sobol(_HugePast(), mu, root, through_report, n_outer=n_outer, inner=inner)
