"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is self-contained and pins the tolerance it certifies; together they
cover the closed-form oracles, the certified bound identities, the sampled
estimators, the diffusion test bed, and the reproducibility contract of the
command line.
"""

import itertools
import json
import time
import warnings

import numpy as np
import pytest

from gradridge import (
    DiffusionModel,
    GaussianMeasure,
    LinearModel,
    Mesh2D,
    QuadraticFormModel,
    SampleStream,
    SpdMatrix,
    SumOfSinesModel,
    build_field_covariance,
    coordinate_projector,
    dgsm,
    error_bound,
    estimate_h,
    euclidean_projector,
    exact_conditional_expectation,
    kl_projector,
    linear_cond_exp_error,
    m_inflation_check,
    optimal_projector,
    random_sigma_orthogonal_projector,
    sample,
    sines_bound,
    sines_cond_exp_error,
    sobol_bounds,
    sobol_estimates,
    validate_error,
)
from gradridge.cli import main
from gradridge.linalg import generalized_eig


def _random_spd(rng, d, base=0.5):
    a = rng.standard_normal((d, d)) / np.sqrt(d)
    return a @ a.T + base * np.eye(d)


def test_criterion_01_linear_bound_is_tight_at_every_rank():
    # 20 random linear models with random Gaussian measures at d=10, n=4:
    # the closed-form squared error equals the certified bound to 1e-9
    # relative at every rank, in under a second.
    rng = np.random.default_rng(101)
    d, n = 10, 4
    start = time.perf_counter()
    for case in range(20):
        f = rng.standard_normal((n, d))
        metric = SpdMatrix(_random_spd(rng, n)) if case % 2 else None
        model = LinearModel(f, metric) if metric is not None else LinearModel(f)
        mu = GaussianMeasure(rng.standard_normal(d), SpdMatrix(_random_spd(rng, d)))
        est = estimate_h(model, mu, SampleStream(200 + case), 1)
        pairs = generalized_eig(est.h, mu.cov)
        scale = float(np.sum(pairs.values))
        for r in range(1, d + 1):
            with warnings.catch_warnings():
                # four outputs make ranks past 4 degenerate; they are still
                # part of the sweep and both sides must agree at zero there
                warnings.simplefilter("ignore")
                p = optimal_projector(est, mu, r, pairs=pairs)
            bound = error_bound(p, est, mu)
            closed = linear_cond_exp_error(model, mu, p)
            assert abs(closed - bound) <= 1e-9 * max(bound, closed) + 1e-13 * scale
    assert time.perf_counter() - start < 1.0


def test_criterion_02_quadratic_optimal_projector_and_validated_error():
    # d=8 quadratic form: the bound-minimizing projector matches the leading
    # eigenspace of the squared form to 1e-6 in Frobenius distance, and the
    # validated Monte Carlo error of the exact profile matches the analytic
    # half tail of squared eigenvalues within 3 standard errors at 1e5 samples.
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    d, r = 8, 3
    raw = rng.standard_normal((d, d))
    a = raw + raw.T
    model = QuadraticFormModel(a)
    mu = GaussianMeasure.standard(d)
    h_exact = SpdMatrix(a @ a)
    p_bound = optimal_projector(h_exact, mu, r)
    vals, vecs = np.linalg.eigh(a @ a)
    p_true = euclidean_projector(vecs[:, ::-1][:, :r])
    assert np.linalg.norm(p_bound.matrix - p_true.matrix) < 1e-6
    profile = exact_conditional_expectation(model, mu, p_bound)
    mse, se = validate_error(profile, model, mu, SampleStream(103), 100000)
    alpha_sq = np.sort(np.linalg.eigvalsh(a) ** 2)[::-1]
    expect = 0.5 * float(np.sum(alpha_sq[r:]))
    assert abs(mse - expect) <= 3.0 * se
    assert time.perf_counter() - start < 30.0


def test_criterion_03_sine_closed_forms_against_monte_carlo():
    # closed error and residual-gradient-energy formulas match independent
    # 1e5-sample MC estimates within 3 standard errors for 10 random models
    # at d=6; in the adversarial regime w = a^-2 >= 1 the bound ranks keep-sets
    # in exactly the opposite order of the true error over all pairs at d=4.
    rng = np.random.default_rng(104)
    d = 6
    mu = GaussianMeasure.standard(d)
    count = 100000
    for case in range(10):
        model = SumOfSinesModel(rng.uniform(0.5, 1.5, d), rng.uniform(0.5, 2.0, d))
        size = int(rng.integers(1, d))
        tau = tuple(sorted(rng.choice(d, size=size, replace=False) + 1))
        closed_err = sines_cond_exp_error(model, mu, tau)
        profile = exact_conditional_expectation(model, mu, coordinate_projector(tau, d))
        mse, mse_se = validate_error(profile, model, mu, SampleStream(300 + case), count)
        assert abs(closed_err - mse) <= 3.0 * mse_se
        closed_bound = sines_bound(model, mu, tau)
        xs = SampleStream(400 + case).normal_matrix(count, d)
        grads = model.jacobian_batch(xs)[:, 0, :]
        drop = np.ones(d, dtype=bool)
        drop[[i - 1 for i in tau]] = False
        terms = np.sum(grads[:, drop] ** 2, axis=1)
        assert abs(closed_bound - terms.mean()) <= 3.0 * terms.std(ddof=1) / np.sqrt(count)

    amps = np.array([0.95, 0.8, 0.65, 0.5])
    worst = SumOfSinesModel(amps, amps**-2)
    mu4 = GaussianMeasure.standard(4)
    pairs = list(itertools.combinations(range(1, 5), 2))
    bounds = [sines_bound(worst, mu4, t) for t in pairs]
    errors = [sines_cond_exp_error(worst, mu4, t) for t in pairs]
    assert pairs[int(np.argmin(bounds))] == pairs[int(np.argmax(errors))]


def test_criterion_04_optimal_bound_equals_eigenvalue_tail():
    # for random (H, Sigma) at d in {4, 8, 12} the certified bound at the
    # optimal rank-r projector equals the generalized eigenvalue tail to 1e-8
    # relative, and none of 1000 random admissible projectors does better.
    rng = np.random.default_rng(105)
    for d in (4, 8, 12):
        h = SpdMatrix(_random_spd(rng, d, base=0.1))
        sigma = SpdMatrix(_random_spd(rng, d))
        mu = GaussianMeasure(np.zeros(d), sigma)
        pairs = generalized_eig(h, sigma)
        for r in range(1, d):
            tail = float(np.sum(pairs.values[r:]))
            bound = error_bound(optimal_projector(h, mu, r, pairs=pairs), h, mu)
            assert abs(bound - tail) <= 1e-8 * max(tail, 1e-12)
        r = d // 2
        tail = float(np.sum(pairs.values[r:]))
        audit_rng = np.random.default_rng(106 + d)
        for _ in range(1000):
            p = random_sigma_orthogonal_projector(d, r, sigma, audit_rng)
            assert error_bound(p, h, mu) >= tail * (1.0 - 1e-9)


def test_criterion_05_covariance_truncation_never_beats_the_certified_tail():
    # 20 random linear models: the generalized tail is dominated by the
    # Lipschitz constant squared times the covariance tail at every rank.
    rng = np.random.default_rng(107)
    d, n = 9, 3
    for case in range(20):
        f = rng.standard_normal((n, d)) / np.sqrt(d)
        model = (
            LinearModel(f, SpdMatrix(_random_spd(rng, n)))
            if case % 2
            else LinearModel(f)
        )
        sigma = SpdMatrix(_random_spd(rng, d))
        mu = GaussianMeasure(np.zeros(d), sigma)
        est = estimate_h(model, mu, SampleStream(500 + case), 1)
        lam = generalized_eig(est.h, sigma).values
        sig_sq = np.sort(np.linalg.eigvalsh(sigma.entries))[::-1]
        lip_sq = model.lipschitz_constant**2
        for r in range(0, d + 1):
            assert float(np.sum(lam[r:])) <= lip_sq * float(np.sum(sig_sq[r:])) + 1e-12


def test_criterion_06_profile_sample_count_inflates_error_as_predicted():
    # the mean validated-to-exact error ratio over 200 replicates sits within
    # 0.3 of 1 + 1/M for M in {1, 5, 20}, in under a minute.
    start = time.perf_counter()
    model = LinearModel(SampleStream(601).normal_matrix(4, 8))
    mu = GaussianMeasure.standard(8)
    est = estimate_h(model, mu, SampleStream(602), 1)
    p = optimal_projector(est, mu, 3)
    for m in (1, 5, 20):
        ratio = m_inflation_check(model, mu, p, m, 200, SampleStream(603).substream(m))
        assert abs(ratio - (1.0 + 1.0 / m)) <= 0.3
    assert time.perf_counter() - start < 60.0


def test_criterion_07_adjoint_jacobian_matches_finite_differences():
    # diffusion solve on an 8x8 grid: adjoint Jacobians agree with central
    # finite differences to 1e-4 relative Frobenius error for 5 draws from the
    # field measure in all three observation scenarios, in under two minutes.
    start = time.perf_counter()
    mesh = Mesh2D(8)
    mu = GaussianMeasure(np.zeros(mesh.n_cells), build_field_covariance(mesh))
    draws = sample(mu, SampleStream(701), 5)
    step = 1e-6
    for scenario in ("full_field", "subdomain", "point_pair"):
        model = DiffusionModel(mesh, scenario)
        for x in draws:
            jac = model.jacobian(x)
            fd = np.empty_like(jac)
            for i in range(model.input_dim):
                e = np.zeros(model.input_dim)
                e[i] = step
                fd[:, i] = (model.eval(x + e) - model.eval(x - e)) / (2 * step)
            rel = np.linalg.norm(jac - fd) / np.linalg.norm(fd)
            assert rel < 1e-4
    assert time.perf_counter() - start < 120.0


def test_criterion_08_two_output_scenario_hits_its_rank_ceiling(tmp_path):
    # K gradient samples of the two-output scenario span at most 2K
    # directions: the (2K+1)-th eigenvalue collapses, and the audit artifact
    # flags every rank beyond the ceiling.
    mesh = Mesh2D(6)
    model = DiffusionModel(mesh, "point_pair")
    mu = GaussianMeasure(np.zeros(36), build_field_covariance(mesh))
    for k in (3, 10):
        est = estimate_h(model, mu, SampleStream(800 + k), k)
        ev = np.sort(np.linalg.eigvalsh(est.h.entries))[::-1]
        assert ev[2 * k] <= 1e-8 * ev[0]

    from gradridge.experiments import resolve_config, run_projector_audit

    cfg = resolve_config(
        {
            "model": {"kind": "pde", "grid": 6, "scenario": "point_pair"},
            "ranks": [1, 5, 6, 7, 19, 20, 21, 25],
            "sampling": {"k_ref": 50, "k_ladder": [3, 10], "seed": 801},
        }
    )
    path = run_projector_audit(cfg, tmp_path)
    flagged = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("k,"):
                continue
            k, r, _, _, flag = line.rstrip("\n").split(",")
            flagged[(int(k), int(r))] = int(flag)
    for (k, r), flag in flagged.items():
        assert flag == int(r > 2 * k)


def test_criterion_09_bound_curves_on_the_diffusion_testbed():
    # 12x12 grid, 144 parameters. For the localized observations the optimal
    # bound curve sits at or below the covariance-truncation curve at every
    # rank and strictly below at more than half of them. For the full-field
    # observation the two curves are nearly interchangeable: matching any
    # optimal bound level costs covariance truncation at most 10% of the
    # dimension in extra ranks (the gradient second moment is nearly
    # isotropic there, so the two constructions nearly coincide; measuring
    # the gap in ranks is what makes "nearly" quantitative across a curve
    # spanning many decades). Under ten minutes in total.
    start = time.perf_counter()
    mesh = Mesh2D(12)
    d = mesh.n_cells
    mu = GaussianMeasure(np.zeros(d), build_field_covariance(mesh))
    curves = {}
    for tag, scenario in enumerate(("subdomain", "point_pair", "full_field")):
        model = DiffusionModel(mesh, scenario)
        est = estimate_h(model, mu, SampleStream(900).substream(tag), 400)
        pairs = generalized_eig(est.h, mu.cov)
        opt = np.array(
            [error_bound(optimal_projector(est, mu, r, pairs=pairs), est, mu)
             for r in range(1, d + 1)]
        )
        kl = np.array(
            [error_bound(kl_projector(mu, r), est, mu) for r in range(1, d + 1)]
        )
        curves[scenario] = (opt, kl)

    for scenario in ("subdomain", "point_pair"):
        opt, kl = curves[scenario]
        assert np.all(opt <= kl * (1.0 + 1e-9) + 1e-12 * kl[0])
        strict = np.sum((kl - opt) > 1e-9 * kl[0])
        assert strict >= d // 2

    opt, kl = curves["full_field"]
    assert np.all(opt <= kl * (1.0 + 1e-9) + 1e-12 * kl[0])
    max_overhead = 0
    for r in range(1, d + 1):
        needed = next(
            (x for x in range(1, d + 1) if kl[x - 1] <= opt[r - 1] * (1.0 + 1e-12)), d
        )
        max_overhead = max(max_overhead, needed - r)
    assert max_overhead <= 0.10 * d
    assert time.perf_counter() - start < 600.0


def test_criterion_10_sensitivity_sandwich_and_pure_interaction():
    # derivative-based bounds bracket the sampled indices within 3 standard
    # errors for every single coordinate of each analytical model at d=4, and
    # a pure two-way interaction shows no closed effect but full total effect.
    rng = np.random.default_rng(110)
    d = 4
    mu = GaussianMeasure.standard(d)
    raw = rng.standard_normal((d, d))
    models = [
        LinearModel(rng.standard_normal((2, d))),
        QuadraticFormModel(raw + raw.T),
        SumOfSinesModel(rng.uniform(0.5, 1.5, d), rng.uniform(0.5, 1.5, d)),
    ]
    for tag, model in enumerate(models):
        g = dgsm(model, mu, SampleStream(1000 + tag), 100000)
        for i in range(1, d + 1):
            est = sobol_estimates(
                model, mu, [i], SampleStream(1100 + tag).substream(i),
                n_outer=2000,
            )
            s_lower, t_upper, _ = sobol_bounds(g, mu, [i], est.total_variance)
            assert s_lower <= est.s_hat + 3.0 * est.s_se
            assert est.t_hat <= t_upper + 3.0 * est.t_se

    pure = QuadraticFormModel(np.array([[0.0, 1.0], [1.0, 0.0]]))
    mu2 = GaussianMeasure.standard(2)
    est = sobol_estimates(pure, mu2, [1], SampleStream(1200), n_outer=4000)
    assert abs(est.s_hat) <= 3.0 * est.s_se + 0.02
    assert abs(est.t_hat - 1.0) <= 3.0 * est.t_se + 0.05


def test_criterion_11_cli_outputs_are_byte_identical(tmp_path):
    # every subcommand, rerun with the same seed and with 1 versus 4 worker
    # threads, produces byte-identical artifacts.
    configs = {
        "curve": {
            "model": {"kind": "linear", "random": {"rows": 2, "cols": 6, "seed": 4}},
            "ranks": "all",
            "sampling": {"k": 1200, "n_val": 600, "m": [1, 5], "seed": 7},
        },
        "audit": {
            "model": {"kind": "linear", "random": {"rows": 2, "cols": 6, "seed": 4}},
            "ranks": [1, 2, 3],
            "sampling": {"k_ref": 300, "k_ladder": [2, 5], "seed": 7},
        },
        "spectrum": {
            "model": {"kind": "quadratic", "random": {"dim": 5, "seed": 9}},
            "sampling": {"k": 700, "seed": 7},
        },
        "sobol": {
            "model": {"kind": "sines", "amplitudes": [1.0, 0.6, 0.3], "frequencies": [0.8, 1.3, 2.0]},
            "groups": "singletons",
            "sampling": {"sobol_outer": 300, "sobol_inner": 16, "dgsm_k": 600, "seed": 7},
        },
    }
    for command, payload in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(payload), encoding="ascii")
        outs = []
        for label, threads in (("a", 1), ("b", 1), ("c", 4)):
            out_dir = tmp_path / f"{command}_{label}"
            code = main(
                [command, "--config", str(cfg_path), "--out", str(out_dir),
                 "--threads", str(threads)]
            )
            assert code == 0
            outs.append(out_dir)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names, f"{command} produced no artifacts"
        for other in outs[1:]:
            assert sorted(p.name for p in other.iterdir()) == names
            for name in names:
                assert (outs[0] / name).read_bytes() == (other / name).read_bytes(), (
                    f"{command}: {name} differs across runs"
                )
