import itertools
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import cholesky
from scipy.linalg.lapack import dpbtrs

import gradridge.models as models_mod
import gradridge.pde as pde_mod
from gradridge import (
    DiffusionModel,
    DimensionMismatch,
    GaussianMeasure,
    InputClampedWarning,
    Mesh2D,
    ModelEvaluationFailure,
    SampleStream,
    SolverFailure,
    build_field_covariance,
    build_ridge,
    estimate_h,
    finite_diff_jacobian,
    generalized_eig,
    sample,
    squared_exponential_covariance,
    validate_error,
)
from gradridge.linalg import PD_FLOOR
from gradridge.pde import (
    _K1,
    _M1,
    LOG_CONDUCTIVITY_LIMIT,
    POINT_A,
    POINT_B,
    SUB_BLOCK,
    SUBDOMAIN_BOUNDS,
    _field_nugget,
)
from gradridge.projector import sigma_inverse_projector
from gradridge.ridge import CHUNK, EVAL_BLOCK


def _q1_reference_blocks():
    # 2x2 Gauss quadrature on the unit cell is exact for every product of
    # bilinear basis functions and gradients appearing below
    gp = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
    k = np.zeros((4, 4))
    m = np.zeros((4, 4))
    for xi in gp:
        for eta in gp:
            n = np.array([(1 - xi) * (1 - eta), xi * (1 - eta), xi * eta, (1 - xi) * eta])
            dx = np.array([-(1 - eta), (1 - eta), eta, -eta])
            dy = np.array([-(1 - xi), -xi, xi, (1 - xi)])
            k += 0.25 * (np.outer(dx, dx) + np.outer(dy, dy))
            m += 0.25 * np.outer(n, n)
    return k, m


def test_reference_blocks_match_quadrature():
    k, m = _q1_reference_blocks()
    np.testing.assert_allclose(_K1, k, atol=1e-14)
    np.testing.assert_allclose(_M1, m, atol=1e-14)


def test_reference_block_invariants():
    # constants lie in the stiffness kernel; the basis integrates to the area
    np.testing.assert_allclose(_K1 @ np.ones(4), np.zeros(4), atol=1e-15)
    assert np.sum(_M1) == pytest.approx(1.0, abs=1e-15)


def test_mesh_structure_smallest():
    m = Mesh2D(2)
    assert m.n_nodes == 9
    assert m.n_cells == 4
    assert m.h == 0.5
    np.testing.assert_array_equal(m.cell_nodes[0], [0, 1, 4, 3])
    np.testing.assert_array_equal(m.cell_nodes[3], [4, 5, 8, 7])
    np.testing.assert_array_equal(m.interior, [4])
    np.testing.assert_allclose(m.nodes[4], [0.5, 0.5])
    np.testing.assert_allclose(m.cell_centers[0], [0.25, 0.25])


def test_mesh_counts():
    g = 5
    m = Mesh2D(g)
    assert m.boundary.size == 4 * g
    assert m.interior.size == (g - 1) ** 2
    assert m.n_cells == g * g
    with pytest.raises(DimensionMismatch):
        Mesh2D(1)


def test_interpolation_weights_special_points():
    m = Mesh2D(4)
    nodes, w = m.interpolation_weights([0.125, 0.125])  # center of cell 0
    np.testing.assert_array_equal(nodes, m.cell_nodes[0])
    np.testing.assert_allclose(w, np.full(4, 0.25))
    nodes, w = m.interpolation_weights([0.25, 0.5])  # exactly at a node
    values = np.zeros(m.n_nodes)
    values[nodes] = w
    idx = np.flatnonzero(values)
    assert idx.size == 1
    np.testing.assert_allclose(m.nodes[idx[0]], [0.25, 0.5])
    assert values[idx[0]] == pytest.approx(1.0)
    with pytest.raises(DimensionMismatch):
        m.interpolation_weights([1.2, 0.5])


def test_interpolation_reproduces_linear_fields():
    m = Mesh2D(3)
    rng = np.random.default_rng(0)
    linear = 2.0 * m.nodes[:, 0] - 0.5 * m.nodes[:, 1] + 1.0
    for point in rng.uniform(0.0, 1.0, size=(20, 2)):
        nodes, w = m.interpolation_weights(point)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-14)
        got = float(w @ linear[nodes])
        assert got == pytest.approx(2.0 * point[0] - 0.5 * point[1] + 1.0, abs=1e-13)


def test_harmonic_solution_exact_for_constant_conductivity():
    # boundary data s1 + s2 is harmonic and bilinear elements reproduce it
    model = DiffusionModel(6, "full_field")
    harmonic = model.mesh.nodes[:, 0] + model.mesh.nodes[:, 1]
    for x in (np.zeros(36), np.full(36, 1.7)):
        u = model.solve_field(x)
        np.testing.assert_allclose(u, harmonic, atol=1e-10)


def _cell_loop(mesh, block, kappa, cells):
    """Dense sum of kappa[c] * block over ``cells``, one cell at a time."""
    out = np.zeros((mesh.n_nodes, mesh.n_nodes))
    for c in cells:
        idx = mesh.cell_nodes[c]
        out[np.ix_(idx, idx)] += kappa[c] * block
    return out


@pytest.mark.parametrize("g", [3, 5])
def test_solve_satisfies_cell_loop_system_at_random_conductivity(g):
    x = np.random.default_rng(40 + g).standard_normal(g * g)
    model = DiffusionModel(g, "full_field")
    mesh = model.mesh
    u = model.solve_field(x)
    a_ref = _cell_loop(mesh, _K1, np.exp(x), range(mesh.n_cells))
    resid = (a_ref @ u)[mesh.interior]
    scale = (np.abs(a_ref) @ np.abs(u))[mesh.interior]
    assert np.all(np.abs(resid) <= 1e-12 * scale)
    np.testing.assert_array_equal(u[mesh.boundary], mesh.nodes[mesh.boundary].sum(axis=1))
    # the precomputed assembly maps survive pickling, as worker processes need
    np.testing.assert_array_equal(pickle.loads(pickle.dumps(model)).solve_field(x), u)


@pytest.mark.parametrize("g", [3, 5])
@pytest.mark.parametrize("scenario", ["full_field", "subdomain"])
def test_h1_metric_matches_cell_loop(g, scenario):
    model = DiffusionModel(g, scenario)
    mesh = model.mesh
    lo, hi = SUBDOMAIN_BOUNDS
    c = mesh.cell_centers
    inside = np.arange(mesh.n_cells)
    if scenario == "subdomain":
        inside = np.where((c >= lo).all(axis=1) & (c <= hi).all(axis=1))[0]
    nodes = np.unique(mesh.cell_nodes[inside])
    gram = _cell_loop(mesh, _M1 * (mesh.h * mesh.h) + _K1, np.ones(mesh.n_cells), inside)
    np.testing.assert_array_equal(model.output_metric.entries, gram[np.ix_(nodes, nodes)])


def test_exactly_singular_factor_raises_solver_failure():
    # finite inputs clamped to +-40 spread the conductivities over e^80, and
    # at this point the band Cholesky meets a leading minor that is not positive
    model = DiffusionModel(4, "point_pair")
    x = 1000 * SampleStream(216).standard_normal(16)
    with pytest.warns(InputClampedWarning), pytest.raises(
        SolverFailure, match="^banded Cholesky failed: leading minor 8 is not positive$"
    ) as failure:
        model.eval(x)
    assert failure.value.residual == float("inf")


def test_clamped_extreme_point_solves_with_finite_output():
    # conductivities spread over e^80, yet the band Cholesky factors this
    # point and its solve passes the 1e-10 residual check
    model = DiffusionModel(4, "point_pair")
    x = 1000 * SampleStream(187).standard_normal(16)
    with pytest.warns(InputClampedWarning):
        out = model.eval(x)
    assert out.shape == (2,) and np.all(np.isfinite(out))


def _tiny_rhs_point(model):
    """Log-conductivity 40 on the cells whose corners are all interior and
    -40 on the rest: the interior system is scaled by e^40 while the
    Dirichlet lift, which only the boundary cells carry, is of order e^-40."""
    mesh = model.mesh
    return np.where(np.isin(mesh.cell_nodes, mesh.interior).all(axis=1), 40.0, -40.0)


def test_backward_stable_solve_of_a_tiny_rhs_passes_the_residual_check():
    # the residual, about 1e-16, is far above 1e-10 |rhs| but far below
    # 1e-10 |A| |u|: a backward-stable solve, not a failed one
    model = DiffusionModel(4, "point_pair")
    (kappa,), _, (u,) = model._solve(_tiny_rhs_point(model)[None])
    rhs = pde_mod._csr_product(model._system, kappa[:, None])[:model.mesh.interior.size, 0]
    assert float(np.linalg.norm(rhs)) < 1e-16
    assert np.all(np.isfinite(u))


@pytest.mark.parametrize("tiny_rhs", [False, True])
def test_corrupted_solution_fails_the_residual_check(monkeypatch, tiny_rhs):
    model = DiffusionModel(4, "point_pair")
    x = _tiny_rhs_point(model) if tiny_rhs else 0.3 * SampleStream(61).standard_normal(16)

    def corrupted(factor, b, **kwargs):
        u, info = dpbtrs(factor, b, **kwargs)
        u[0] += 1e-6 * np.abs(u).max()
        return u, info

    monkeypatch.setattr(pde_mod, "dpbtrs", corrupted)
    with pytest.raises(SolverFailure, match="^linear solver failed"):
        model._solve(x[None])


@pytest.mark.parametrize("g", [2, 3, 5, 12])
def test_band_map_fills_the_cell_loop_interior_system(g):
    # the system map's first n rows are the lift -A_ib u_b, the rest A_ii in
    # LAPACK's upper band storage, half-bandwidth g
    model = DiffusionModel(g, "point_pair")
    mesh = model.mesh
    kappa = np.exp(np.random.default_rng(60 + g).standard_normal(mesh.n_cells))
    a = _cell_loop(mesh, _K1, kappa, range(mesh.n_cells))
    a_ii = a[np.ix_(mesh.interior, mesh.interior)]
    assert not np.any(np.triu(a_ii, g + 1))
    n = mesh.interior.size
    expect = np.zeros((g + 1, n))
    for j in range(n):
        for i in range(max(0, j - g), j + 1):
            expect[g + i - j, j] = a_ii[i, j]
    system = pde_mod._csr_product(model._system, kappa[:, None])[:, 0]
    assert system.shape == ((g + 2) * n,)
    np.testing.assert_array_equal(system[n:].reshape(g + 1, n, order="F"), expect)
    u_b = mesh.nodes[mesh.boundary].sum(axis=1)
    lift = -a[np.ix_(mesh.interior, mesh.boundary)] @ u_b
    np.testing.assert_allclose(system[:n], lift, rtol=1e-13, atol=1e-13 * np.abs(lift).max())


def test_csr_arrays_are_scipys_coo_to_csr_conversion():
    # up to 12 entries a row, as the system map has, over 6 columns: repeats,
    # zeros and a pair that cancels, shuffled
    import scipy.sparse

    rng = np.random.default_rng(5)
    per_row = rng.integers(0, 13, 40)
    rows = np.repeat(np.arange(40), per_row)
    cols = rng.integers(0, 6, rows.size)
    values = rng.standard_normal(rows.size)
    values[::7] = 0.0
    rows, cols, values = (np.append(part, extra) for part, extra in
                          ((rows, [3, 3]), (cols, [7, 7]), (values, [0.25, -0.25])))
    order = rng.permutation(rows.size)
    rows, cols, values = rows[order], cols[order], values[order]
    want = scipy.sparse.csr_matrix((values, (rows, cols)), shape=(40, 8))
    data, indices, indptr = pde_mod._csr_arrays(values, rows, cols, 40)
    for got, expect in ((data, want.data), (indices, want.indices), (indptr, want.indptr)):
        assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()
    x = rng.standard_normal((8, 3))
    assert pde_mod._csr_product((data, indices, indptr), x).tobytes() == (want @ x).tobytes()
    # into a given buffer, whatever it held: the same bits
    into = np.full((40, 3), np.nan)
    pde_mod._csr_product((data, indices, indptr), x, out=into)
    assert into.tobytes() == (want @ x).tobytes()


def test_pde_reads_scipys_banded_kernels_through_linalg():
    import scipy.linalg.lapack
    import scipy.sparse._sparsetools

    from gradridge import linalg

    assert pde_mod.dpbtrf is scipy.linalg.lapack.dpbtrf
    assert pde_mod.dpbtrs is scipy.linalg.lapack.dpbtrs
    assert pde_mod.csr_matvecs is scipy.sparse._sparsetools.csr_matvecs
    assert linalg.dsyevr is scipy.linalg.lapack.dsyevr
    assert not hasattr(pde_mod, "_blas")
    with pytest.raises(AttributeError, match="no attribute 'dgemm'"):
        linalg.dgemm


@pytest.mark.parametrize("scenario", ["full_field", "subdomain", "point_pair"])
def test_model_pickles_and_reproduces_eval_and_jacobian(scenario):
    model = DiffusionModel(5, scenario)
    x = np.random.default_rng(7).standard_normal(25)
    back = pickle.loads(pickle.dumps(model))
    np.testing.assert_array_equal(back.eval(x), model.eval(x))
    np.testing.assert_array_equal(back.jacobian(x), model.jacobian(x))


@pytest.mark.parametrize("scenario", ["full_field", "subdomain"])
def test_field_outputs_are_nodal_values_and_boundary_rows_have_zero_jacobian(scenario):
    g = 8
    model = DiffusionModel(g, scenario)
    mesh = model.mesh
    lo, hi = SUBDOMAIN_BOUNDS
    c = mesh.cell_centers
    inside = np.arange(mesh.n_cells)
    if scenario == "subdomain":
        inside = np.where((c >= lo).all(axis=1) & (c <= hi).all(axis=1))[0]
    nodes = np.unique(mesh.cell_nodes[inside])
    x = np.random.default_rng(8).standard_normal(g * g)
    np.testing.assert_array_equal(model.eval(x), model.solve_field(x)[nodes])
    jac = model.jacobian(x)
    on_boundary = np.isin(nodes, mesh.boundary)
    assert not np.any(jac[on_boundary])
    assert np.all(np.any(jac[~on_boundary], axis=1))


def test_point_pair_output_at_zero_conductivity():
    model = DiffusionModel(5, "point_pair", alpha=2.0, beta=3.0)
    out = model.eval(np.zeros(25))
    expect = [POINT_A[0] + POINT_A[1], POINT_B[0] + POINT_B[1]]
    np.testing.assert_allclose(out, expect, atol=1e-10)
    assert model.point_weights == (2.0, 3.0)


def test_scenario_shapes():
    g = 6
    mesh = Mesh2D(g)
    full = DiffusionModel(mesh, "full_field")
    assert (full.input_dim, full.output_dim) == (g * g, (g + 1) ** 2)
    sub = DiffusionModel(mesh, "subdomain")
    assert sub.output_dim == 9  # 2x2 cells centered in the box -> 3x3 nodes
    pp = DiffusionModel(mesh, "point_pair")
    assert pp.output_dim == 2
    assert pp.point_weights == (1.0, 1.0)
    assert full.point_weights is None


def test_metric_mass_of_constant_vector():
    # for the constant-one field the stiffness part vanishes and the mass
    # part integrates 1 over the covered cells
    g = 6
    full = DiffusionModel(g, "full_field")
    ones = np.ones(full.output_dim)
    assert ones @ full.output_metric.entries @ ones == pytest.approx(1.0, abs=1e-12)
    sub = DiffusionModel(g, "subdomain")
    ones = np.ones(sub.output_dim)
    covered = 4 * (1.0 / g) ** 2
    assert ones @ sub.output_metric.entries @ ones == pytest.approx(covered, abs=1e-12)


def test_metrics_are_positive_definite():
    for scenario in ("full_field", "subdomain", "point_pair"):
        model = DiffusionModel(4, scenario)
        model.output_metric.root()


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(1)
    for scenario in ("full_field", "subdomain", "point_pair"):
        model = DiffusionModel(4, scenario)
        x = 0.3 * rng.standard_normal(model.input_dim)
        jac = model.jacobian(x)
        assert jac.shape == (model.output_dim, model.input_dim)
        h = 1e-6
        fd = np.empty_like(jac)
        for i in range(model.input_dim):
            e = np.zeros(model.input_dim)
            e[i] = h
            fd[:, i] = (model.eval(x + e) - model.eval(x - e)) / (2 * h)
        rel = np.linalg.norm(jac - fd) / np.linalg.norm(fd)
        assert rel < 1e-5


@pytest.mark.parametrize("scenario", ["full_field", "subdomain", "point_pair"])
def test_finite_diff_jacobian_is_the_point_at_a_time_loop_bitwise(monkeypatch, scenario):
    model = DiffusionModel(3, scenario)
    x = 0.3 * np.random.default_rng(72).standard_normal(model.input_dim)
    step = 1e-5 * (1.0 + float(np.max(np.abs(x))))
    want = np.empty((model.output_dim, model.input_dim))
    for i in range(model.input_dim):
        hi, lo = x.copy(), x.copy()
        hi[i] += step
        lo[i] -= step
        want[:, i] = (model.eval(hi) - model.eval(lo)) / (2.0 * step)
    np.testing.assert_array_equal(finite_diff_jacobian(model, x), want)
    # 4 coordinates a call: 9 inputs take calls of 8, 8 and 2 points
    rows = []
    batch = model.eval_batch
    monkeypatch.setattr(model, "eval_batch", lambda xs: rows.append(len(xs)) or batch(xs))
    monkeypatch.setattr(models_mod, "FD_COORDS", 4)
    np.testing.assert_array_equal(finite_diff_jacobian(model, x), want)
    assert rows == [8, 8, 2]


@pytest.mark.parametrize("scenario", ["full_field", "subdomain", "point_pair"])
def test_jacobian_matches_directional_finite_difference_off_symmetry(scenario):
    # g=7 puts the two points' interior corners at unequal weights, so an
    # adjoint right-hand side paired with the wrong output shows
    g = 7
    model = DiffusionModel(g, scenario)
    rng = np.random.default_rng(11)
    x = 0.3 * rng.standard_normal(g * g)
    v = rng.standard_normal(g * g)
    h = 1e-6
    fd = (model.eval(x + h * v) - model.eval(x - h * v)) / (2 * h)
    np.testing.assert_allclose(model.jacobian(x) @ v, fd, rtol=1e-6, atol=1e-9 * np.abs(fd).max())


def test_batch_evaluation_matches_loop():
    # a point's values and Jacobian are the same bits alone, in a full
    # sub-block, one row past it and deep in a long batch; 600 Jacobians are
    # compared only where they are small (a g=12 field would hold 117 MB)
    for scenario, g in itertools.product(pde_mod.SCENARIOS, (3, 12)):
        model = DiffusionModel(g, scenario)
        xs = 0.3 * np.random.default_rng(g).standard_normal((600, g * g))
        loop = np.stack([model.eval(x) for x in xs])
        sizes = (1, SUB_BLOCK, SUB_BLOCK + 1, 600)
        for size in sizes:
            assert np.array_equal(model.eval_batch(xs[:size]), loop[:size]), (scenario, g, size)
        if 600 * model.output_dim * model.input_dim * 8 > 4 << 20:
            sizes = sizes[:-1]
        jac = np.stack([model.jacobian(x) for x in xs[:sizes[-1]]])
        for size in sizes:
            assert np.array_equal(model.jacobian_batch(xs[:size]), jac[:size]), (scenario, g, size)


def _fail_one_forward_solve(monkeypatch, model, x):
    """Patch dpbtrs so that the forward solve of the point ``x``, and only
    that solve, comes back corrupted and fails the residual check."""
    rhs = pde_mod._csr_product(model._system, np.exp(x)[:, None])[:model.mesh.interior.size, 0]

    def corrupted(factor, b, **kwargs):
        u, info = dpbtrs(factor, b, **kwargs)
        if b.ndim == 1 and np.array_equal(b, rhs):
            u[0] += 1e-6 * np.abs(u).max()
        return u, info

    monkeypatch.setattr(pde_mod, "dpbtrs", corrupted)


@pytest.mark.parametrize("threads", [1, 2])
def test_a_failed_solve_in_a_sub_block_names_its_sample(monkeypatch, threads):
    # the failing point is row k of the second sub-block of the second block
    # of draws, so it sits inside one batch call in both loops
    model = DiffusionModel(4, "point_pair")
    mu = GaussianMeasure.standard(16)
    count, lo, k = CHUNK + 3 * SUB_BLOCK, CHUNK + SUB_BLOCK, 3
    _fail_one_forward_solve(monkeypatch, model, sample(mu, SampleStream(62), count)[lo + k])
    ridge = build_ridge(model, mu, sigma_inverse_projector(np.ones((16, 1)), mu.cov),
                        SampleStream(63), 2)
    for run in (lambda: estimate_h(model, mu, SampleStream(62), count, threads=threads),
                lambda: validate_error(ridge, model, mu, SampleStream(62), count, threads)):
        with pytest.raises(ModelEvaluationFailure,
                           match=f"^model evaluation failed at sample {lo + k}: SolverFailure: "
                                 "linear solver failed") as err:
            run()
        assert err.value.sample_index == lo + k
        assert isinstance(err.value.cause, SolverFailure)
        assert err.value.__cause__ is err.value.cause


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_batch_calls_hold_one_sub_block_of_systems_at_a_time():
    # one ridge block of EVAL_BLOCK points: their 4096 x 1694 systems would
    # take 55 MB at once, and even their conductivities take as much as the
    # points themselves
    model = DiffusionModel(12, "point_pair")
    xs = 0.3 * SampleStream(64).standard_normal(EVAL_BLOCK * 144).reshape(EVAL_BLOCK, 144)
    out, peak = _peak_bytes(lambda: model.eval_batch(xs))
    assert out.shape == (EVAL_BLOCK, 2)
    assert peak < xs.nbytes / 4 + out.nbytes
    # one block of full_field gradients, one 169 x 144 Jacobian per call:
    # the block's draws, about as much again while they are drawn, and a few
    # Jacobians beside them
    mesh = Mesh2D(12)
    mu = GaussianMeasure(np.zeros(mesh.n_cells), build_field_covariance(mesh))
    mu.cov.root()
    est, peak = _peak_bytes(lambda: estimate_h(DiffusionModel(mesh), mu, SampleStream(65), CHUNK))
    draws = CHUNK * mesh.n_cells * 8
    assert est.h.dim == mesh.n_cells
    assert peak < 2.5 * draws + 4 * est.h.entries.nbytes


def test_extreme_log_conductivity_is_clamped():
    import warnings

    model = DiffusionModel(4, "point_pair")
    x = np.zeros(16)
    x[0] = LOG_CONDUCTIVITY_LIMIT + 10.0
    with pytest.warns(InputClampedWarning):
        out = model.eval(x)
    # evaluating exactly at the limit emits no warning and matches the clamp
    clipped = np.clip(x, -LOG_CONDUCTIVITY_LIMIT, LOG_CONDUCTIVITY_LIMIT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = model.eval(clipped)
    np.testing.assert_array_equal(out, ref)


def test_constructor_validation():
    with pytest.raises(ValueError):
        DiffusionModel(4, "sideways")
    with pytest.raises(ValueError):
        DiffusionModel(4, "point_pair", alpha=0.0)
    model = DiffusionModel(4, "point_pair")
    with pytest.raises(DimensionMismatch):
        model.eval(np.zeros(7))


@pytest.mark.parametrize("weights", [{"alpha": np.nan}, {"alpha": np.inf}, {"beta": np.nan}],
                         ids=["alpha-nan", "alpha-inf", "beta-nan"])
def test_point_weights_must_be_finite(weights):
    # a NaN weight used to build, and estimate_h then blamed sample 0 for a
    # non-finite Jacobian
    with pytest.raises(ValueError, match="^point weights alpha, beta must be finite and positive"):
        DiffusionModel(4, "point_pair", **weights)


def test_iterative_path_matches_harmonic():
    # zero log-conductivity makes the solution the harmonic lift s1 + s2
    # itself; g=17 is past the old conjugate-gradient cutoff, now solved by
    # the same sparse direct path as every other grid size
    g = 17
    model = DiffusionModel(g, "point_pair")
    u = model.solve_field(np.zeros(g * g))
    harmonic = model.mesh.nodes[:, 0] + model.mesh.nodes[:, 1]
    np.testing.assert_allclose(u, harmonic, atol=1e-8)


def test_field_covariance_properties():
    mesh = Mesh2D(6)
    cov = build_field_covariance(mesh, lengthscale=0.15)
    d = mesh.n_cells
    assert cov.entries.shape == (d, d)
    np.testing.assert_allclose(np.diag(cov.entries), np.full(d, 1.0 + 1e-10))
    expect = np.exp(-(mesh.h / 0.15) ** 2)
    assert cov.entries[0, 1] == pytest.approx(expect, rel=1e-12)
    cov.root()


@pytest.mark.parametrize("g", [3, 12, 32])
def test_field_covariance_roots_without_a_retry(g):
    # the nugget is worked out from d, so the root is taken once, silently
    mesh = Mesh2D(g)
    d = mesh.n_cells
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cov = build_field_covariance(mesh)
        root = cov.root()
    nugget = 1e-10 if g <= 31 else 10.0 * d * PD_FLOOR
    kernel = squared_exponential_covariance(mesh.cell_centers, 0.15).entries
    np.testing.assert_array_equal(np.diag(cov.entries), np.diag(kernel) + nugget)
    assert root.values[-1] > d * PD_FLOOR * (1.0 + nugget)


@pytest.mark.parametrize("g", [3, 12, 32])
def test_field_covariance_diagonal_is_exactly_one_plus_the_nugget(g):
    # |s|^2 + |t|^2 - 2 s.t at s = t is round-off, about 2e-14 at g = 12
    diag = np.diag(build_field_covariance(Mesh2D(g)).entries)
    assert np.all(diag == 1.0 + _field_nugget(g * g))


def test_field_nugget_clears_the_floor_where_1e10_does_not():
    # checked without building the 10^4 x 10^4 covariance: the kernel is PSD,
    # so its least eigenvalue is the nugget less round-off, against a floor of
    # d * PD_FLOOR * (1 + nugget)
    d = 10**4
    assert 1e-10 <= d * PD_FLOOR * (1.0 + 1e-10)
    nugget = _field_nugget(d)
    assert nugget >= 9.0 * d * PD_FLOOR * (1.0 + nugget)
    assert _field_nugget(31 * 31) == 1e-10 < _field_nugget(32 * 32)


def test_field_generalized_eig_matches_a_cholesky_reduction():
    # any S with S S^T = Sigma gives the spectrum of (H, Sigma^{-1}): on the
    # g=12 field the eigen root and a Cholesky reduction agree to round-off
    mesh = Mesh2D(12)
    cov = build_field_covariance(mesh)
    mu = GaussianMeasure(np.zeros(mesh.n_cells), cov)
    est = estimate_h(DiffusionModel(mesh, "point_pair"), mu, SampleStream(3), 64)
    pairs = generalized_eig(est.h, cov)
    low = cholesky(cov.entries, lower=True)
    ref = np.maximum(np.linalg.eigvalsh(low.T @ est.h.entries @ low)[::-1], 0.0)
    assert np.abs(pairs.values - ref).max() <= 1e-13 * ref[0]
    gram = pairs.duals.T @ pairs.vectors
    assert np.abs(gram - np.eye(mesh.n_cells)).max() <= 1e-12


def test_full_field_rank_ceiling_counts_the_whitened_rows():
    # one g=12 full_field sample adds its 121 whitened rows to H, not one
    # row per each of its 169 outputs, so 121 is both ceiling and rank
    mesh = Mesh2D(12)
    model = DiffusionModel(mesh, "full_field")
    assert (model.whitened_rows, model.output_dim) == (121, 169)
    mu = GaussianMeasure(np.zeros(144), build_field_covariance(mesh))
    est = estimate_h(model, mu, SampleStream(31), 1)
    assert est.rank_upper_bound == 121
    ev = np.sort(np.linalg.eigvalsh(est.h.entries))[::-1]
    assert ev[120] > 1e-6 * ev[0]
    assert ev[121] <= 1e-12 * ev[0]


def test_gradient_second_moment_rank_ceiling():
    # two outputs and K samples cannot produce more than 2K active directions
    mesh = Mesh2D(4)
    model = DiffusionModel(mesh, "point_pair")
    mu = GaussianMeasure(np.zeros(16), build_field_covariance(mesh))
    k = 3
    est = estimate_h(model, mu, SampleStream(30), k)
    assert est.rank_upper_bound == 2 * k
    ev = np.sort(np.linalg.eigvalsh(est.h.entries))[::-1]
    assert ev[2 * k] <= 1e-8 * ev[0]
    assert ev[0] > 0.0


def _full_node_lambda(model, x):
    """kappa, S_c u per cell, and the adjoint solutions extended by zero to
    every node, as the Jacobian formed them before its sparse contraction."""
    (kappa,), (factor,), (u,) = model._solve(x[None])
    rows, cols, weights = model._adjoint_rhs
    rhs = np.zeros((model.mesh.interior.size, model._adjoint_outputs.size), order="F")
    rhs[rows, cols] = weights
    lam = np.zeros((model.mesh.n_nodes, model.output_dim))
    lam[np.ix_(model.mesh.interior, model._adjoint_outputs)] = dpbtrs(factor, rhs)[0]
    return kappa, u[model.mesh.cell_nodes] @ _K1.T, lam


@pytest.mark.parametrize("g", [4, 7])
@pytest.mark.parametrize("scenario", pde_mod.SCENARIOS)
def test_jacobian_bitwise_equals_gather_and_einsum(scenario, g):
    # the sparse contraction reproduces, bit for bit, the formula that
    # gathers lambda into an (n_cells, 4, n_out) array and runs one einsum
    model = DiffusionModel(g, scenario)
    x = 0.3 * np.random.default_rng(g).standard_normal(g * g)
    kappa, w, lam = _full_node_lambda(model, x)
    gathered = -kappa[:, None] * np.einsum("cap,ca->cp", lam[model.mesh.cell_nodes], w)
    np.testing.assert_array_equal(model.jacobian(x), gathered.T)


def _corner_loop_jacobian(model, x):
    # the contraction as it was written before the sparse pattern, summed
    # one corner at a time
    kappa, w, lam = _full_node_lambda(model, x)
    cells = model.mesh.cell_nodes
    acc = lam[cells[:, 0]] * w[:, 0, None]
    for a in range(1, 4):
        acc += lam[cells[:, a]] * w[:, a, None]
    acc *= -kappa[:, None]
    return acc.T


@pytest.mark.parametrize("scenario, g", [
    ("full_field", 12), ("full_field", 32), ("full_field", 48),
    ("point_pair", 12), ("subdomain", 12),
])
def test_jacobian_bitwise_equals_the_corner_loop(scenario, g):
    # the CSR contraction adds each cell's interior corners in SW, SE, NE, NW
    # order, as the loop did; equal bits also need scipy's compiled loop not
    # to fuse the multiply and the add
    model = DiffusionModel(g, scenario)
    x = 0.5 * np.random.default_rng(g).standard_normal(g * g)
    np.testing.assert_array_equal(model.jacobian(x), _corner_loop_jacobian(model, x))


class _CRows(DiffusionModel):
    """The diffusion model with its whitened rows copied to C order."""

    def whitened_jacobian_batch(self, xs):
        return np.ascontiguousarray(super().whitened_jacobian_batch(xs))


class _StridedRows(DiffusionModel):
    """The diffusion model with its whitened rows as a strided view."""

    def whitened_jacobian_batch(self, xs):
        rows = super().whitened_jacobian_batch(xs)
        spaced = np.zeros(rows.shape[:2] + (2 * rows.shape[2],))
        spaced[..., ::2] = rows
        return spaced[..., ::2]


class _BaseRows(DiffusionModel):
    """The diffusion model through the base class's whitened rows, S J."""

    whitened_rows = models_mod.VectorValuedModel.whitened_rows
    whitened_jacobian_batch = models_mod.VectorValuedModel.whitened_jacobian_batch


class _CJacobians(_BaseRows):
    """_BaseRows with each Jacobian C-ordered, where the model's is not."""

    def jacobian_batch(self, xs):
        return np.ascontiguousarray(super().jacobian_batch(xs))


class _CornerLoopModel(_BaseRows):
    def jacobian_batch(self, xs):
        # stacked in the layout the loop returned each Jacobian
        return np.stack([_corner_loop_jacobian(self, x).T for x in xs]).transpose(0, 2, 1)


@pytest.mark.parametrize("g", [3, 5, 6])
def test_gradient_moment_bitwise_equals_the_corner_loop(g):
    # through the base class's rows S J, the corner loop's Jacobians give the
    # H of the model's own, bit for bit
    mesh = Mesh2D(g)
    mu = GaussianMeasure(np.zeros(mesh.n_cells), build_field_covariance(mesh))
    got = estimate_h(_BaseRows(mesh), mu, SampleStream(3), 50).h.entries
    want = estimate_h(_CornerLoopModel(mesh), mu, SampleStream(3), 50).h.entries
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("g", [3, 5, 6])
@pytest.mark.parametrize("pair", [
    (DiffusionModel, _CRows), (DiffusionModel, _StridedRows), (_BaseRows, _CJacobians),
], ids=["c-rows", "strided-rows", "c-jacobians"])
def test_gradient_moment_depends_on_the_values_not_the_layout(pair, g):
    # estimate_h copies each run's rows to C order before G^T G; without the
    # copy, strided rows moved H in its last bits at g=5 and 6 (numpy's own
    # loop, not the BLAS syrk)
    mesh = Mesh2D(g)
    mu = GaussianMeasure(np.zeros(mesh.n_cells), build_field_covariance(mesh))
    got, want = (estimate_h(cls(mesh), mu, SampleStream(3), 50).h.entries for cls in pair)
    np.testing.assert_array_equal(got, want)


def _h_by_the_metric(model, xs):
    """sum J^T (R J) over the points, with R's dense entries."""
    r = model.output_metric.entries
    return sum(jac.T @ (r @ jac) for jac in model.jacobian_batch(xs))


@pytest.mark.parametrize("g", [3, 6, 12])
@pytest.mark.parametrize("scenario, weights", [
    ("full_field", {}), ("subdomain", {}), ("point_pair", {"alpha": 2.0, "beta": 0.5}),
], ids=["full_field", "subdomain", "point_pair"])
def test_whitened_rows_sum_to_the_metric_formula(scenario, weights, g):
    # G = U J_a from the adjoint solves on B U^T, so sum G^T G = sum J^T R J
    # up to round-off
    model = DiffusionModel(g, scenario, **weights)
    xs = 0.5 * np.random.default_rng(g).standard_normal((10, g * g))
    rows = model.whitened_jacobian_batch(xs)
    assert rows.shape == (10, model.whitened_rows, g * g)
    assert model.whitened_rows == model._adjoint_outputs.size <= model.output_dim
    got = sum(row.T @ row for row in rows)
    want = _h_by_the_metric(model, xs)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_whitened_point_pair_rows_at_unit_weights_are_the_jacobian():
    # U = diag(sqrt(alpha), sqrt(beta)) = I, so the right-hand sides and the
    # rows are the Jacobian's, bit for bit
    model = DiffusionModel(12, "point_pair")
    xs = 0.5 * np.random.default_rng(5).standard_normal((9, 144))
    np.testing.assert_array_equal(model.whitened_jacobian_batch(xs), model.jacobian_batch(xs))


def test_whitened_point_pair_rows_scale_by_the_root_weights():
    model = DiffusionModel(6, "point_pair", alpha=2.0, beta=0.5)
    xs = 0.5 * np.random.default_rng(6).standard_normal((3, 36))
    want = model.jacobian_batch(xs) * np.sqrt([2.0, 0.5])[:, None]
    np.testing.assert_allclose(model.whitened_jacobian_batch(xs), want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("scenario", pde_mod.SCENARIOS)
def test_pde_gradient_moment_reads_no_output_metric(scenario):
    # R enters through the whitened right-hand sides, fixed at construction
    model = DiffusionModel(5, scenario)
    mu = GaussianMeasure.standard(25)
    want = estimate_h(model, mu, SampleStream(8), 20).h.entries
    model.output_metric = None
    np.testing.assert_array_equal(estimate_h(model, mu, SampleStream(8), 20).h.entries, want)


@pytest.mark.parametrize("g", [4, 9])
@pytest.mark.parametrize("scenario", ["full_field", "subdomain"])
def test_observed_nodes_are_np_unique_of_the_cells(scenario, g):
    # the bincount form gives the same sorted array and dtype, without numpy.ma
    model = DiffusionModel(g, scenario)
    mesh = model.mesh
    lo, hi = SUBDOMAIN_BOUNDS
    c = mesh.cell_centers
    inside = np.arange(mesh.n_cells)
    if scenario == "subdomain":
        inside = np.where((c >= lo).all(axis=1) & (c <= hi).all(axis=1))[0]
    want = np.unique(mesh.cell_nodes[inside].ravel())
    got = model._obs_nodes[:, 0]
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("g", [4, 12, 32])
@pytest.mark.parametrize("scenario", ["full_field", "subdomain"])
def test_h1_metric_bitwise_equals_add_at(g, scenario):
    # np.add.at sums every entry in cell order, as coo_matrix.toarray does
    model = DiffusionModel(g, scenario)
    mesh = model.mesh
    lo, hi = SUBDOMAIN_BOUNDS
    c = mesh.cell_centers
    inside = np.arange(mesh.n_cells)
    if scenario == "subdomain":
        inside = np.where((c >= lo).all(axis=1) & (c <= hi).all(axis=1))[0]
    cells = mesh.cell_nodes[inside]
    nodes = np.unique(cells)
    rows = np.searchsorted(nodes, np.repeat(cells, 4, axis=1).ravel())
    cols = np.searchsorted(nodes, np.tile(cells, (1, 4)).ravel())
    block = _M1 * (mesh.h * mesh.h) + _K1
    ref = np.zeros((nodes.size, nodes.size))
    np.add.at(ref, (rows, cols), np.tile(block.ravel(), cells.shape[0]))
    np.testing.assert_array_equal(model.output_metric.entries, ref)


@pytest.mark.parametrize("g", [3, 12])
@pytest.mark.parametrize("scenario", ["full_field", "subdomain"])
def test_sparse_h1_metric_sq_norms_match_the_dense_einsum(g, scenario):
    # R is held as its CSR arrays, and sq_norms reads them without forming
    # the dense matrix
    metric = DiffusionModel(g, scenario).output_metric
    rows = np.random.default_rng(70 + g).standard_normal((40, metric.dim))
    got = metric.sq_norms(rows)
    assert callable(metric._entries)
    want = np.einsum("kn,nm,km->k", rows, metric.entries, rows)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_validated_field_curve_forms_no_dense_output_metric(tmp_path, monkeypatch):
    # estimate_h reads R through the whitened rows and validation through
    # sq_norms, so a run whose dense R cannot be formed still succeeds
    import json

    from gradridge import linalg
    from gradridge.cli import main

    def refuse(csr):
        raise AssertionError("the dense output metric was formed")

    monkeypatch.setattr(linalg, "_csr_dense", refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"kind": "pde", "grid": 6, "scenario": "full_field"},
                               "ranks": [2], "sampling": {"k": 20, "m": [1], "n_val": 20}}))
    assert main(["curve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "curve.csv").exists()


def test_field_model_holds_no_dense_output_metric():
    # at g=32 the 1089 x 1089 H^1 metric alone takes 9.5 MB; built from its
    # cell entries as CSR arrays, the whole model takes a fraction of that
    model, peak = _peak_bytes(lambda: DiffusionModel(32, "full_field"))
    n = model.output_dim
    assert n == 33 * 33
    assert peak < n * n * 8


@pytest.mark.parametrize("g", [3, 5])
def test_residual_map_gives_the_cell_loop_product_at_the_interior_rows(g):
    # the forward solve's residual map applied to kappa_c u[cells[c, b]] is
    # A u at the interior rows, A_ii u_i - rhs for the lifted system
    model = DiffusionModel(g, "point_pair")
    mesh = model.mesh
    rng = np.random.default_rng(80 + g)
    kappa = np.exp(rng.standard_normal((3, mesh.n_cells)))
    u = rng.standard_normal((3, mesh.n_nodes))
    terms = u.T.take(mesh.cell_nodes, axis=0) * kappa.T[:, None, :]
    got = pde_mod._csr_product(model._residual, terms.reshape(-1, 3))
    for j in range(3):
        a = _cell_loop(mesh, _K1, kappa[j], range(mesh.n_cells))
        scale = (np.abs(a) @ np.abs(u[j]))[mesh.interior]
        np.testing.assert_array_less(np.abs(got[:, j] - (a @ u[j])[mesh.interior]),
                                     1e-14 * scale + 1e-300)
