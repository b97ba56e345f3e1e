import pickle

import numpy as np
import pytest

import gradridge.pde as pde_mod
from gradridge import (
    DiffusionModel,
    DimensionMismatch,
    GaussianMeasure,
    InputClampedWarning,
    Mesh2D,
    NotPositiveDefinite,
    NuggetEscalationWarning,
    SampleStream,
    build_field_covariance,
    cholesky,
    estimate_h,
    mode_field_export,
)
from gradridge.pde import (
    _K1,
    _M1,
    LOG_CONDUCTIVITY_LIMIT,
    POINT_A,
    POINT_B,
    SUBDOMAIN_BOUNDS,
)


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
    np.testing.assert_allclose(m.cell_areas(), np.full(4, 0.25))


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
        cholesky(model.output_metric)


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


def test_batch_evaluation_matches_loop():
    model = DiffusionModel(3, "point_pair")
    rng = np.random.default_rng(2)
    xs = 0.2 * rng.standard_normal((3, 9))
    batch = model.eval_batch(xs)
    loop = np.stack([model.eval(x) for x in xs])
    np.testing.assert_array_equal(batch, loop)
    jb = model.jacobian_batch(xs)
    jl = np.stack([model.jacobian(x) for x in xs])
    np.testing.assert_array_equal(jb, jl)


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
    cholesky(cov)


def test_nugget_escalation_warning(monkeypatch):
    real = pde_mod.cholesky

    def flaky(spd):
        if spd.entries[0, 0] - 1.0 < 5e-9:
            raise NotPositiveDefinite(0)
        return real(spd)

    monkeypatch.setattr(pde_mod, "cholesky", flaky)
    with pytest.warns(NuggetEscalationWarning):
        cov = build_field_covariance(Mesh2D(3))
    assert cov.entries[0, 0] - 1.0 == pytest.approx(1e-8, rel=1e-6)


def test_nugget_escalation_gives_up(monkeypatch):
    def hopeless(spd):
        raise NotPositiveDefinite(0)

    monkeypatch.setattr(pde_mod, "cholesky", hopeless)
    with pytest.warns(NuggetEscalationWarning):
        with pytest.raises(NotPositiveDefinite):
            build_field_covariance(Mesh2D(3))


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


def test_mode_field_export(tmp_path):
    mesh = Mesh2D(3)
    values = np.arange(9, dtype=float) / 7.0
    path = tmp_path / "mode.csv"
    mode_field_export(mesh, values, path)
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "cell_center_x,cell_center_y,value"
    assert len(lines) == 1 + 9
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(mesh.cell_centers[0, 0])
    assert float(first[2]) == values[0]
    back = np.array([[float(t) for t in ln.split(",")] for ln in lines[1:]])
    np.testing.assert_array_equal(back[:, 2], values)
    with pytest.raises(DimensionMismatch):
        mode_field_export(mesh, np.zeros(5), tmp_path / "bad.csv")
