import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from gradridge import (
    DimensionMismatch,
    GaussianMeasure,
    IndexOutOfRange,
    LinearModel,
    ModelEvaluationFailure,
    NonDiagonalCovariance,
    NonFiniteInput,
    NotSigmaOrthogonal,
    QuadraticFormModel,
    SampleStream,
    SpdMatrix,
    SumOfSinesModel,
    ZeroVariance,
    build_sensitivity_report,
    coordinate_projector,
    dgsm,
    exact_conditional_expectation,
    require_sigma_orthogonal,
    sample,
    sines_cond_exp_error,
    sobol_bounds,
    sobol_estimates,
    validate_error,
)
from gradridge import ridge
from gradridge.sensitivity import IndexGroup


def test_index_group_normalizes():
    g = IndexGroup((3, 1, 3, 2))
    assert g.indices == (1, 2, 3)
    assert g.label() == "{1,2,3}"
    assert IndexGroup.coerce(2).indices == (2,)
    assert IndexGroup.coerce(g) is g


def test_index_group_complement_and_mask():
    g = IndexGroup((2,))
    np.testing.assert_array_equal(g.mask(3), [False, True, False])
    # the complement is the negated mask, as sobol_bounds reads it
    np.testing.assert_array_equal(~g.mask(3), [True, False, True])
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
    np.testing.assert_array_equal(mid.matrix, mid.matrix.T)
    require_sigma_orthogonal(mid, SpdMatrix(np.diag([2.0, 3.0, 4.0])))
    with pytest.raises(NotSigmaOrthogonal):
        require_sigma_orthogonal(mid, SpdMatrix([[2.0, 0.5, 0.0], [0.5, 3.0, 0.0], [0, 0, 4.0]]))


def test_sobol_additive_symmetric():
    model = LinearModel(np.array([[1.0, 1.0]]))
    mu = GaussianMeasure.standard(2)
    est = sobol_estimates(model, mu, [1], SampleStream(1), n_outer=2000)
    assert abs(est.s_hat - 0.5) < 3.0 * est.s_se + 0.02
    assert abs(est.t_hat - 0.5) < 3.0 * est.t_se + 0.02


def test_sobol_pure_interaction():
    # f = x1 x2 has no closed first-order effect and full total effect
    model = QuadraticFormModel(np.array([[0.0, 1.0], [1.0, 0.0]]))
    mu = GaussianMeasure.standard(2)
    est = sobol_estimates(model, mu, [1], SampleStream(2), n_outer=4000)
    assert abs(est.s_hat) < 3.0 * est.s_se + 0.02
    assert abs(est.t_hat - 1.0) < 3.0 * est.t_se + 0.05
    assert abs(est.total_variance - 1.0) < 4.0 * est.total_variance_se


def test_sobol_full_and_empty_groups():
    model = SumOfSinesModel([1.0, 0.5, 0.8], [1.0, 2.0, 0.7])
    mu = GaussianMeasure.standard(3)
    full = sobol_estimates(model, mu, [1, 2, 3], SampleStream(3), n_outer=1500)
    assert abs(full.s_hat - 1.0) < 3.0 * full.s_se + 1e-9
    assert abs(full.t_hat - 1.0) < 3.0 * full.t_se + 0.05
    empty = sobol_estimates(model, mu, [], SampleStream(4), n_outer=1500)
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
        sobol_estimates(model, mu, [1], SampleStream(6), n_outer=100)


@pytest.mark.parametrize("scale, error", [(1e-140, ZeroVariance), (1e100, NonFiniteInput)])
def test_sobol_variance_whose_square_leaves_double_range(scale, error):
    # a variance near 1e-280 or 1e200 is finite and positive, but its square,
    # which the standard errors divide by, underflows to 0 or overflows
    model = LinearModel(scale * np.ones((1, 2)))
    with pytest.raises(error, match="output variance .* to square"):
        sobol_estimates(model, GaussianMeasure.standard(2), [1], SampleStream(6), n_outer=10)


def test_sobol_determinism():
    model = LinearModel(np.array([[2.0, 1.0]]))
    mu = GaussianMeasure.standard(2)
    a = sobol_estimates(model, mu, [1], SampleStream(7), n_outer=500)
    b = sobol_estimates(model, mu, [1], SampleStream(7), n_outer=500)
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
    est = sobol_estimates(model, mu, [1, 2], SampleStream(12), n_outer=2000)
    g = dgsm(model, mu, SampleStream(13), 20000)
    _, t_upper, _ = sobol_bounds(g, mu, [1, 2], est.total_variance)
    assert t_upper >= 1.0 - 0.05


def test_sobol_bounds_loose_at_high_frequency():
    # small variance but large gradients: the derivative bound blows up
    model = SumOfSinesModel([1.0, 1.0], [8.0, 1.0])
    mu = GaussianMeasure.standard(2)
    est = sobol_estimates(model, mu, [1], SampleStream(14), n_outer=2000)
    g = dgsm(model, mu, SampleStream(15), 20000)
    _, t_upper, _ = sobol_bounds(g, mu, [1], est.total_variance)
    assert t_upper > 10.0 * max(est.t_hat, 1e-9)


def test_sobol_bounds_vacuous_flag():
    # high-frequency energy on the complement pushes the lower bound negative
    model = SumOfSinesModel([1.0, 1.0], [1.0, 8.0])
    mu = GaussianMeasure.standard(2)
    est = sobol_estimates(model, mu, [1], SampleStream(16), n_outer=1000)
    g = dgsm(model, mu, SampleStream(17), 20000)
    s_lower, _, vacuous = sobol_bounds(g, mu, [1], est.total_variance)
    assert s_lower < 0.0
    assert vacuous


def test_sobol_bounds_zero_variance():
    mu = GaussianMeasure.standard(2)
    with pytest.raises(ZeroVariance):
        sobol_bounds(np.ones(2), mu, [1], 0.0)


@pytest.mark.parametrize("total", [np.nan, np.inf])
def test_sobol_bounds_refuses_a_total_variance_that_is_not_finite(total):
    # a NaN gave (nan, nan, False): a bound reported as not vacuous
    mu = GaussianMeasure.standard(2)
    with pytest.raises(ZeroVariance, match="^total variance must be finite and positive"):
        sobol_bounds(np.ones(2), mu, [1], total)


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
                    n_outer=400,
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
    est = sobol_estimates(model, mu, tau, SampleStream(21), n_outer=4000)
    closed = sines_cond_exp_error(model, mu, tau)
    profile = exact_conditional_expectation(model, mu, coordinate_projector(tau, 3))
    mse, mse_se = validate_error(profile, model, mu, SampleStream(22), 20000)
    lhs = (1.0 - est.s_hat) * est.total_variance
    combined = np.hypot(est.s_se * est.total_variance, mse_se)
    assert abs(lhs - mse) < 4.0 * combined + 0.01
    assert abs(lhs - closed) < 4.0 * est.s_se * est.total_variance + 0.01


def test_report_assembly_and_json():
    model = LinearModel(np.array([[2.0, 1.0, 0.5]]))
    mu = GaussianMeasure.standard(3)
    report = build_sensitivity_report(
        model, mu, [[1], [2], [3]], SampleStream(23), n_outer=600, dgsm_samples=100
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
    data = report.to_json_dict()
    assert data["groups"] == rows
    assert data["total_variance"] > 0.0
    # the document survives a JSON round trip unchanged
    assert json.loads(json.dumps(data)) == data


def test_report_groups_share_one_variance():
    # every group divides by the one variance estimate of the shared base,
    # so the sandwich of each group uses that same number
    model = LinearModel(np.array([[2.0, 1.0, 0.5]]))
    mu = GaussianMeasure.standard(3)
    groups = [[1], [2], [2, 3]]
    report = build_sensitivity_report(
        model, mu, groups, SampleStream(24), n_outer=200, dgsm_samples=50
    )
    for k, group in enumerate(groups):
        assert report.estimates[k].total_variance == report.total_variance
        assert report.estimates[k].total_variance_se == report.estimates[0].total_variance_se
        bounds = sobol_bounds(report.dgsm_values, mu, group, report.total_variance)
        assert (report.s_lower[k], report.t_upper[k], report.vacuous[k]) == bounds


def test_report_groups_match_single_group_estimates_bitwise():
    # sobol_estimates is the one-group case of the report's estimator, on the
    # report's tag-1 stream, so adding or reordering groups moves no digit
    model = LinearModel(np.array([[2.0, -1.0, 0.5, 0.3], [0.3, 1.0, 1.5, -0.7]]),
                        SpdMatrix([[2.0, 0.5], [0.5, 1.0]]))
    mu = GaussianMeasure(np.zeros(4), SpdMatrix.diagonal([1.0, 2.0, 0.5, 1.5]))
    groups = [[1], [2, 4], [3], [1, 2, 3, 4], []]
    report = build_sensitivity_report(model, mu, groups, SampleStream(27), n_outer=300,
                                      dgsm_samples=10)
    for group, est in zip(groups, report.estimates):
        alone = sobol_estimates(model, mu, group, SampleStream(27).substream(1), n_outer=300)
        assert est == alone


def test_report_without_groups_fails_before_any_jacobian():
    class Counting(LinearModel):
        calls = 0

        def jacobian_batch(self, xs):
            Counting.calls += 1
            return super().jacobian_batch(xs)

    with pytest.raises(ValueError, match="at least one index group"):
        build_sensitivity_report(Counting(np.ones((1, 2))), GaussianMeasure.standard(2), [],
                                 SampleStream(24), n_outer=10, dgsm_samples=10)
    assert Counting.calls == 0


class _Widened(SumOfSinesModel):
    """A 1-output model whose eval_batch repeats its value in 3 columns."""

    def eval_batch(self, xs):
        return np.repeat(super().eval_batch(xs), 3, axis=1)


class _Flat(SumOfSinesModel):
    """A 1-output model whose eval_batch returns shape (N,)."""

    def eval_batch(self, xs):
        return super().eval_batch(xs)[:, 0]


@pytest.mark.parametrize("model_cls, got", [(_Widened, r"\(512, 3\)"), (_Flat, r"\(512,\)")],
                         ids=["widened", "flat"])
def test_sobol_rejects_a_model_output_of_the_wrong_shape(model_cls, got):
    # (N, 3) values used to give t_hat 0.328, and (N,) values an AxisError
    model = model_cls([1.0, 0.5, 0.25], [1.0, 2.0, 0.5])
    with pytest.raises(DimensionMismatch,
                       match=rf"{model_cls.__name__}.eval_batch returned shape {got}"):
        sobol_estimates(model, GaussianMeasure.standard(3), (1,), SampleStream(9), 600)


class _NanPast(SumOfSinesModel):
    """A sine sum whose output is NaN wherever x . ``weights`` exceeds ``cut``."""

    def __init__(self, cut, weights=(1.0, 0.0)):
        super().__init__([1.0, 0.5], [1.0, 2.0])
        self.cut = cut
        self.weights = np.array(weights)

    def eval_batch(self, xs):
        out = super().eval_batch(xs)
        out[xs @ self.weights > self.cut] = np.nan
        return out


def _base(mu, root, n_outer):
    """The base rows A and B that group {1} gets from ``root``, called
    directly on ``root.substream(1)`` or through build_sensitivity_report."""
    base = root.substream(1)
    return sample(mu, base.substream(0), n_outer), sample(mu, base.substream(1), n_outer)


def _hits(mu, root, n_outer, bad):
    """Per base row: does ``bad`` hold at A, at B or at the point that takes
    coordinate 1 from B and the rest from A?"""
    a, b = _base(mu, root, n_outer)
    mixed = np.where(IndexGroup((1,)).mask(mu.dim), b, a)
    return bad(a), bad(b), bad(mixed)


def _sobol(model, mu, root, through_report, n_outer, threads=1):
    """sobol_estimates of group {1} on the stream that group gets, called
    directly or through build_sensitivity_report."""
    if through_report:
        return build_sensitivity_report(model, mu, [[1]], root, n_outer=n_outer,
                                        dgsm_samples=10, threads=threads)
    return sobol_estimates(model, mu, [1], root.substream(1), n_outer=n_outer, threads=threads)


@pytest.mark.parametrize("through_report", [False, True])
def test_sobol_reports_first_non_finite_outer_output(through_report):
    mu = GaussianMeasure.standard(2)
    root = SampleStream(25)
    at_a, at_b, _ = _hits(mu, root, 40, lambda x: x[:, 0] > 1.0)
    first = int(np.argmax(at_a | at_b))
    assert at_a[first] or at_b[first]
    with pytest.raises(ModelEvaluationFailure,
                       match=f"non-finite output at sample {first}$") as err:
        _sobol(_NanPast(1.0), mu, root, through_report, n_outer=40)
    assert err.value.sample_index == first


def _mixed_only_cut(mu, root, n_outer):
    """A cut on x_1 - x_2 that no row of A or B passes, and the first base row
    whose mixed point passes it."""
    a, b = _base(mu, root, n_outer)
    cut = float(max((a[:, 0] - a[:, 1]).max(), (b[:, 0] - b[:, 1]).max()))
    _, _, at_mixed = _hits(mu, root, n_outer, lambda x: x[:, 0] - x[:, 1] > cut)
    first = int(np.argmax(at_mixed))
    assert at_mixed[first]
    return cut, first


@pytest.mark.parametrize("through_report", [False, True])
def test_sobol_reports_base_index_of_non_finite_mixed_output(through_report):
    # f(A) and f(B) are finite; only a point that takes x_1 from B and x_2
    # from A meets a NaN, and the error names that point's base row
    mu = GaussianMeasure.standard(2)
    root = SampleStream(22)
    cut, first = _mixed_only_cut(mu, root, 40)
    with pytest.raises(ModelEvaluationFailure,
                       match=f"non-finite output at sample {first}$") as err:
        _sobol(_NanPast(cut, (1.0, -1.0)), mu, root, through_report, n_outer=40)
    assert err.value.sample_index == first


class _HugePast(LinearModel):
    """f(x) = x_1, but 1e77 wherever x_2 exceeds 3: the variance stays small
    enough to square, while one squared difference is too large to average."""

    def __init__(self):
        super().__init__(np.array([[1.0, 0.0, 0.0]]))

    def eval_batch(self, xs):
        out = super().eval_batch(xs)
        out[xs[:, 1] > 3.0] = 1e77
        return out


def _first_huge(mu, root, n_outer):
    # group {1} takes x_2 from A, so its mixed points add no new hit
    at_a, at_b, _ = _hits(mu, root, n_outer, lambda x: x[:, 1] > 3.0)
    first = int(np.argmax(at_a | at_b))
    assert at_a[first] or at_b[first]
    return first


@pytest.mark.parametrize("through_report", [False, True])
def test_sobol_reports_outer_index_of_overflowing_residual(through_report):
    mu = GaussianMeasure.standard(3)
    root = SampleStream(7)
    first = _first_huge(mu, root, 2000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput, match=f"at base sample {first} is too large"):
            _sobol(_HugePast(), mu, root, through_report, n_outer=2000)


def _one_shot_sobol(model, mu, tau, stream, n_outer):
    """The shared-base estimator with the whole base drawn and evaluated at
    once: the reference the blocked estimator must match bit for bit. Returns
    the GroupEstimate fields after ``group``."""
    mask = IndexGroup.coerce(tau).mask(mu.dim)
    metric = model.output_metric.entries

    def sq(diff):
        return np.einsum("kn,nm,km->k", diff, metric, diff)

    a = sample(mu, stream.substream(0), n_outer)
    b = sample(mu, stream.substream(1), n_outer)
    f_a, f_b = model.eval_batch(a), model.eval_batch(b)
    f_ab = model.eval_batch(np.where(mask, b, a))
    f = np.concatenate([f_a, f_b])
    dev = sq(f - f.mean(axis=0))
    total_var = float(np.sum(dev) / (2 * n_outer - 1))
    per_row = 0.5 * (dev[:n_outer] + dev[n_outer:])
    total_se = float(np.std(per_row, ddof=1) / np.sqrt(n_outer))
    fields = []
    for terms in (0.5 * sq(f_b - f_ab), 0.5 * sq(f_a - f_ab)):
        r = float(np.mean(terms)) / total_var
        fields.append((r, float(np.std(terms - r * per_row, ddof=1) / np.sqrt(n_outer))
                       / total_var))
    (s_rest, s_se), (t_hat, t_se) = fields
    return 1.0 - s_rest, s_se, t_hat, t_se, total_var, total_se


def _fields(est):
    return (est.s_hat, est.s_se, est.t_hat, est.t_se, est.total_variance,
            est.total_variance_se)


# 6002 rows end on a partial block both at the default block size (512 rows)
# and at 4 rows. The linear model has two outputs and a metric that is not the
# identity.
_BLOCKED = [
    (SumOfSinesModel([1.0, 0.5, 0.8], [1.0, 2.0, 0.7]), [1, 3]),
    (LinearModel(np.array([[2.0, -1.0, 0.5], [0.3, 1.0, 1.5]]),
                 SpdMatrix([[2.0, 0.5], [0.5, 1.0]])), [2]),
]


@pytest.mark.parametrize("model, tau", _BLOCKED)
@pytest.mark.parametrize("fours", [None, 1, 1 << 40])
@pytest.mark.parametrize("threads", [1, 2, 4])
def test_blocked_sobol_matches_the_one_shot_draw_bitwise(monkeypatch, model, tau,
                                                          fours, threads):
    # blocks of 4 * fours rows (CHUNK is a multiple of 4): None keeps the
    # default, 1 gives blocks of 4 rows, 1 << 40 one block
    if fours is not None:
        monkeypatch.setattr(ridge, "CHUNK", 4 * fours)
    mu = GaussianMeasure(np.zeros(3), SpdMatrix.diagonal([1.0, 2.0, 0.5]))
    n_outer = 6002
    assert n_outer % ridge.CHUNK != 0
    est = sobol_estimates(model, mu, tau, SampleStream(31), n_outer=n_outer, threads=threads)
    assert _fields(est) == _one_shot_sobol(model, mu, tau, SampleStream(31), n_outer)


def test_sobol_memory_peak_stays_bounded_at_default_sizes():
    # one draw of the whole base peaked at about 13 MiB here (2 x 20000
    # points in 16 dimensions, 2.4 MiB per array); the blocks stay near 2 MiB
    mu = GaussianMeasure.standard(16)
    model = SumOfSinesModel(np.ones(16), np.linspace(0.5, 2.0, 16))
    tracemalloc.start()
    try:
        sobol_estimates(model, mu, [1, 2], SampleStream(35), n_outer=20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("threads", [1, 2])
def test_sobol_guards_name_the_global_outer_index_in_any_block(monkeypatch, threads):
    # blocks of 4 base rows, so each first bad row sits past the first block
    monkeypatch.setattr(ridge, "CHUNK", 4)
    mu = GaussianMeasure.standard(2)
    root = SampleStream(22)
    cut, first = _mixed_only_cut(mu, root, 40)
    assert first >= 4
    with pytest.raises(ModelEvaluationFailure, match=f"non-finite output at sample {first}$"):
        _sobol(_NanPast(cut, (1.0, -1.0)), mu, root, False, n_outer=40, threads=threads)

    mu = GaussianMeasure.standard(3)
    root = SampleStream(7)
    first = _first_huge(mu, root, 2000)
    assert first >= 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput, match=f"at base sample {first} is too large"):
            _sobol(_HugePast(), mu, root, False, n_outer=2000, threads=threads)


class _RaisesPast(_NanPast):
    """As _NanPast, but a batch holding such a point raises instead."""

    def eval_batch(self, xs):
        if np.any(xs @ self.weights > self.cut):
            raise RuntimeError("boom")
        return SumOfSinesModel.eval_batch(self, xs)


@pytest.mark.parametrize("threads", [1, 2])
def test_sobol_names_the_base_row_where_the_model_raises(monkeypatch, threads):
    # only a mixed point past the first block of 4 rows meets the failure; the
    # block's rows are evaluated again one at a time to find it
    monkeypatch.setattr(ridge, "CHUNK", 4)
    mu = GaussianMeasure.standard(2)
    root = SampleStream(22)
    cut, first = _mixed_only_cut(mu, root, 40)
    assert first >= 4
    with pytest.raises(ModelEvaluationFailure) as err:
        _sobol(_RaisesPast(cut, (1.0, -1.0)), mu, root, False, n_outer=40, threads=threads)
    assert err.value.sample_index == first
    assert str(err.value) == f"model evaluation failed at sample {first}: RuntimeError: boom"
    assert isinstance(err.value.__cause__, RuntimeError)


def _sines_index(amplitudes, frequencies):
    """Closed-form Sobol' index of each coordinate of sum a_i sin(w_i x_i)
    under N(0, I); closed and total coincide for an additive model."""
    var = amplitudes**2 * (1.0 - np.exp(-2.0 * frequencies**2)) / 2.0
    return var / var.sum()


def test_sobol_standard_errors_are_calibrated_on_16_sines():
    # over 60 seeds x 16 groups at the benchmark's size, the z-scores of both
    # indices against the closed form have a root mean square near 1
    amplitudes, frequencies = np.linspace(1.0, 0.1, 16), np.linspace(0.5, 2.0, 16)
    model = SumOfSinesModel(amplitudes, frequencies)
    mu = GaussianMeasure.standard(16)
    index = _sines_index(amplitudes, frequencies)
    z_s, z_t = [], []
    for seed in range(60):
        report = build_sensitivity_report(model, mu, [[i] for i in range(1, 17)],
                                          SampleStream(seed), n_outer=2000, dgsm_samples=1)
        for est, exact in zip(report.estimates, index):
            z_s.append((est.s_hat - exact) / est.s_se)
            z_t.append((est.t_hat - exact) / est.t_se)
    for z in (z_s, z_t):
        assert 0.8 <= np.sqrt(np.mean(np.square(z))) <= 1.2
