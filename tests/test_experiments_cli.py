import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import gradridge
from gradridge import (
    ConfigError,
    DiffusionModel,
    GaussianMeasure,
    LinearModel,
    NonUniqueProjectorWarning,
    QuadraticFormModel,
    SampleStream,
    SumOfSinesModel,
    error_bound,
    estimate_h,
    generalized_eig,
    kl_projector,
    optimal_projector,
    sample,
    squared_exponential_covariance,
)
from gradridge import linalg, ridge
from gradridge.cli import main
from gradridge.experiments import (
    _TAG_AUDIT,
    _TAG_H,
    _metadata_lines,
    build_measure,
    build_model,
    config_hash,
    resolve_config,
    run_error_curve,
    run_projector_audit,
    run_sobol,
    run_spectrum,
)


def _read_csv(path):
    meta, header, rows = [], None, []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                meta.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows


def _linear_cfg(**sampling):
    base = {"k": 50, "n_val": 50, "m": [1], "seed": 11}
    base.update(sampling)
    return resolve_config(
        {
            "model": {"kind": "linear", "matrix": [[1.0, 0.5, 0.0, 0.0], [0.0, 1.0, 0.25, 0.1]]},
            "measure": {"mean": 0.0, "covariance": "identity"},
            "ranks": "all",
            "sampling": base,
        }
    )


def test_resolve_config_defaults_and_errors():
    cfg = resolve_config({"model": {"kind": "linear", "matrix": [[1.0]]}})
    assert cfg["sampling"]["k"] == 4000
    assert cfg["sampling"]["m"] == [1, 5, 20]
    assert cfg["ranks"] == "all"
    assert cfg["groups"] == "singletons"
    assert cfg["comparisons"]["kl"] is True
    cfg2 = resolve_config({"model": {"kind": "linear", "matrix": [[1.0]]}}, seed_override=7)
    assert cfg2["sampling"]["seed"] == 7
    with pytest.raises(ConfigError):
        resolve_config([1, 2])
    with pytest.raises(ConfigError):
        resolve_config({"model": {}})
    with pytest.raises(ConfigError):
        resolve_config({"model": {"kind": "cubic"}})
    with pytest.raises(ConfigError):
        resolve_config({"model": {"kind": "linear"}, "sampling": {"k": -1}})
    with pytest.raises(ConfigError):
        resolve_config({"model": {"kind": "linear"}, "sampling": {"m": 5}})
    with pytest.raises(ConfigError):
        resolve_config({"model": {"kind": "linear"}, "sampling": {"k_ladder": 10}})


def test_config_hash_canonical():
    a = resolve_config({"model": {"kind": "linear", "matrix": [[1.0, 2.0]]}})
    b = resolve_config({"sampling": {}, "model": {"kind": "linear", "matrix": [[1.0, 2.0]]}})
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 16
    assert all(c in "0123456789abcdef" for c in config_hash(a))
    c = resolve_config({"model": {"kind": "linear", "matrix": [[1.0, 2.5]]}})
    assert config_hash(c) != config_hash(a)
    # spelling out a default the builders apply leaves the hash alone
    sines = {"kind": "sines", "amplitudes": [1.0], "frequencies": [2.0]}
    pairs = [
        ({"model": {"kind": "pde"}},
         {"model": {"kind": "pde", "grid": 12, "scenario": "full_field"}}),
        ({"model": sines},
         {"model": sines, "measure": {"covariance": "identity", "mean": 0.0}}),
    ]
    for short, spelled in pairs:
        assert config_hash(resolve_config(short)) == config_hash(resolve_config(spelled))


def test_build_model_variants():
    lin = build_model(resolve_config({"model": {"kind": "linear", "matrix": [[1.0, 2.0]]}}))
    assert isinstance(lin, LinearModel)
    assert lin.input_dim == 2
    rnd = build_model(
        resolve_config({"model": {"kind": "linear", "random": {"rows": 3, "cols": 5, "seed": 1}}})
    )
    assert (rnd.output_dim, rnd.input_dim) == (3, 5)
    rnd2 = build_model(
        resolve_config({"model": {"kind": "linear", "random": {"rows": 3, "cols": 5, "seed": 1}}})
    )
    np.testing.assert_array_equal(rnd.matrix, rnd2.matrix)
    quad = build_model(
        resolve_config({"model": {"kind": "quadratic", "random": {"dim": 4, "seed": 2}}})
    )
    assert isinstance(quad, QuadraticFormModel)
    np.testing.assert_array_equal(quad.matrix, quad.matrix.T)
    sines = build_model(
        resolve_config({"model": {"kind": "sines", "amplitudes": [1.0], "frequencies": [2.0]}})
    )
    assert isinstance(sines, SumOfSinesModel)
    pde = build_model(
        resolve_config({"model": {"kind": "pde", "grid": 3, "scenario": "point_pair"}})
    )
    assert isinstance(pde, DiffusionModel)
    assert pde.input_dim == 9
    with pytest.raises(ConfigError):
        build_model(resolve_config({"model": {"kind": "linear"}}))
    with pytest.raises(ConfigError):
        build_model(resolve_config({"model": {"kind": "sines", "amplitudes": [1.0]}}))


def test_build_measure_variants():
    default_cfg = resolve_config({"model": {"kind": "linear", "matrix": [[1.0, 2.0, 3.0]]}})
    lin = build_model(default_cfg)
    mu = build_measure(default_cfg, lin)
    np.testing.assert_array_equal(mu.mean, np.zeros(3))
    np.testing.assert_array_equal(mu.cov.entries, np.eye(3))
    cfg = resolve_config(
        {
            "model": {"kind": "linear", "matrix": [[1.0, 2.0]]},
            "measure": {"mean": [1.0, -1.0], "covariance": {"kind": "diagonal", "values": [4.0, 9.0]}},
        }
    )
    mu2 = build_measure(cfg, build_model(cfg))
    np.testing.assert_array_equal(mu2.mean, [1.0, -1.0])
    np.testing.assert_array_equal(mu2.cov.entries, np.diag([4.0, 9.0]))
    with pytest.raises(ConfigError):
        bad = resolve_config(
            {"model": {"kind": "linear", "matrix": [[1.0, 2.0]]},
             "measure": {"covariance": {"kind": "mystery"}}}
        )
        build_measure(bad, build_model(bad))
    with pytest.raises(ConfigError):
        se_on_linear = resolve_config(
            {"model": {"kind": "linear", "matrix": [[1.0, 2.0]]},
             "measure": {"covariance": {"kind": "squared_exponential"}}}
        )
        build_measure(se_on_linear, build_model(se_on_linear))
    pde_cfg = resolve_config({"model": {"kind": "pde", "grid": 3, "scenario": "point_pair"}})
    pde = build_model(pde_cfg)
    mu3 = build_measure(pde_cfg, pde)
    assert mu3.dim == 9
    np.testing.assert_allclose(np.diag(mu3.cov.entries), np.full(9, 1.0 + 1e-10))


def test_error_curve_artifact(tmp_path):
    cfg = _linear_cfg()
    path = run_error_curve(cfg, tmp_path)
    meta, header, rows = _read_csv(path)
    assert path.endswith("curve.csv")
    assert header == ["r", "m", "opt_bound", "kl_bound", "rmse", "mse", "mse_se"]
    assert meta[0].startswith("# generator=gradridge ")
    assert meta[1].startswith("# numpy=")
    assert meta[2] == f"# config_hash={config_hash(cfg)}"
    assert meta[3] == "# seed=11"
    assert len(rows) == 4  # four ranks, one profile size
    opt = [float(r[2]) for r in rows]
    kl = [float(r[3]) for r in rows]
    for a, b in zip(opt, opt[1:]):
        assert b <= a + 1e-12
    for o, k in zip(opt, kl):
        assert o <= k + 1e-9
    for r in rows:
        assert float(r[4]) == pytest.approx(math.sqrt(float(r[5])), rel=1e-12)
    # full-rank projector reproduces the model exactly
    assert float(rows[-1][2]) <= 1e-9
    assert float(rows[-1][5]) <= 1e-18


def test_error_curve_without_validation(tmp_path):
    cfg = _linear_cfg(m=[])
    _, _, rows = _read_csv(run_error_curve(cfg, tmp_path))
    assert [r[1] for r in rows] == ["0"] * 4
    assert all(math.isnan(float(r[4])) for r in rows)
    assert all(not math.isnan(float(r[2])) for r in rows)


def test_error_curve_kl_disabled(tmp_path):
    cfg = resolve_config(
        {
            "model": {"kind": "linear", "matrix": [[1.0, 0.5]]},
            "comparisons": {"kl": False},
            "sampling": {"k": 20, "n_val": 10, "m": [], "seed": 3},
        }
    )
    _, _, rows = _read_csv(run_error_curve(cfg, tmp_path))
    assert all(math.isnan(float(r[3])) for r in rows)


@pytest.mark.parametrize(
    "model",
    [
        {"kind": "linear", "random": {"rows": 3, "cols": 5, "seed": 4}},
        {"kind": "pde", "grid": 6, "scenario": "full_field"},
        {"kind": "pde", "grid": 6, "scenario": "point_pair"},
    ],
    ids=["linear", "pde-full-field", "pde-point-pair"],
)
def test_error_curve_bounds_match_dense_projectors(tmp_path, model):
    # the curve reads both bound columns off the spectra; the dense path
    # (explicit projector, explicit trace) is the oracle
    cfg = resolve_config({"model": model, "sampling": {"k": 40, "m": [], "seed": 12}})
    _, _, rows = _read_csv(run_error_curve(cfg, tmp_path))
    got_opt = np.array([float(r[2]) for r in rows])
    got_kl = np.array([float(r[3]) for r in rows])

    model = build_model(cfg)
    mu = build_measure(cfg, model)
    est = estimate_h(model, mu, SampleStream(12).substream(_TAG_H), 40)
    pairs = generalized_eig(est.h, mu.cov)
    ranks = range(1, mu.dim + 1)
    ref_opt = np.sqrt([error_bound(optimal_projector(est, mu, r, pairs=pairs), est, mu)
                       for r in ranks])
    ref_kl = np.sqrt([error_bound(kl_projector(mu, r), est, mu) for r in ranks])
    for got, ref in ((got_opt, ref_opt), (got_kl, ref_kl)):
        # below 1e-10 of the rank-1 squared bound a tail is round-off in the
        # dense trace; there the two may only agree in absolute terms
        floor = 1e-10 * ref[0] ** 2
        tail = ref ** 2 > floor
        assert tail.sum() >= 1
        np.testing.assert_allclose(got[tail], ref[tail], rtol=1e-8, atol=0.0)
        assert np.all(np.abs(got[~tail] ** 2 - ref[~tail] ** 2) <= floor)


def test_error_curve_warns_past_rank_ceiling_without_validation(tmp_path):
    # one sample of a two-output model identifies at most two directions; the
    # curve builds no projector here but still flags ranks 3 and 4
    cfg = _linear_cfg(k=1, m=[])
    with pytest.warns(NonUniqueProjectorWarning) as record:
        run_error_curve(cfg, tmp_path)
    flagged = [w for w in record if issubclass(w.category, NonUniqueProjectorWarning)]
    assert len(flagged) == 2


def test_error_curve_at_paper_scale(tmp_path):
    # d = 1024 (g = 32), two outputs and k = 64 samples: the identifiable
    # rank is 2k = 128, where the certified tail must vanish
    cfg = resolve_config(
        {
            "model": {"kind": "pde", "grid": 32, "scenario": "point_pair"},
            "ranks": [1, 8, 32, 128],
            "comparisons": {"kl": True},
            "sampling": {"k": 64, "m": [1], "n_val": 4, "seed": 5},
        }
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, rows = _read_csv(run_error_curve(cfg, tmp_path))
    assert [int(r[0]) for r in rows] == [1, 8, 32, 128]
    opt = np.array([float(r[2]) for r in rows])
    kl = np.array([float(r[3]) for r in rows])
    assert np.all(np.isfinite(opt)) and np.all(np.isfinite(kl))
    assert np.all(opt ** 2 <= kl ** 2 + 1e-10 * opt[0] ** 2)
    assert np.all(np.diff(opt) <= 0.0)
    assert opt[-1] <= 1e-6 * opt[0]
    assert kl[-1] > 0.0
    # each rank's ridge went through the factored projector and validated
    assert [int(r[1]) for r in rows] == [1, 1, 1, 1]
    mse = np.array([float(r[5]) for r in rows])
    assert np.all(np.isfinite(mse)) and np.all(mse >= 0.0)


def test_projector_audit_flags(tmp_path):
    cfg = resolve_config(
        {
            "model": {"kind": "linear", "matrix": [[1.0, 0.5, 0.0, 0.0], [0.0, 1.0, 0.25, 0.1]]},
            "sampling": {"k_ref": 50, "k_ladder": [1, 3], "seed": 5},
        }
    )
    path = run_projector_audit(cfg, tmp_path)
    meta, header, rows = _read_csv(path)
    assert header == ["k", "r", "ref_bound", "approx_bound", "rank_ceiling_exceeded"]
    assert len(rows) == 2 * 4
    for k, r, ref_b, approx_b, flag in rows:
        k, r, flag = int(k), int(r), int(flag)
        ceiling = min(4, 2 * k)  # two outputs per gradient sample
        assert flag == int(r > ceiling)
        assert float(ref_b) >= 0.0
        assert float(approx_b) >= 0.0
    assert [int(r[4]) for r in rows] == [0, 0, 1, 1, 0, 0, 0, 0]


@pytest.mark.parametrize(
    "model, ladder",
    [
        ({"kind": "linear", "matrix": [[1.0, 0.5, 0.0, 0.0], [0.0, 1.0, 0.25, 0.1]]}, [1, 3]),
        ({"kind": "pde", "grid": 6, "scenario": "point_pair"}, [4, 12, 30]),
    ],
    ids=["linear", "pde-point-pair"],
)
def test_projector_audit_matches_dense_projectors(tmp_path, model, ladder):
    # the audit reads both columns off the K-sample spectrum; the dense path
    # (explicit projector, explicit trace) is the oracle, past the 2K rank
    # ceiling too
    cfg = resolve_config(
        {"model": model, "sampling": {"k_ref": 40, "k_ladder": ladder, "seed": 6}}
    )
    _, _, rows = _read_csv(run_projector_audit(cfg, tmp_path))
    got = np.array(rows, dtype=float)

    model = build_model(cfg)
    mu = build_measure(cfg, model)
    root = SampleStream(6)
    ref = estimate_h(model, mu, root.substream(_TAG_H), 40)
    ranks = np.arange(1, mu.dim + 1)
    for k in ladder:
        est = estimate_h(model, mu, root.substream(_TAG_AUDIT).substream(k), k)
        pairs = generalized_eig(est.h, mu.cov)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonUniqueProjectorWarning)
            projectors = [optimal_projector(est, mu, r, pairs=pairs) for r in ranks]
        mine = got[got[:, 0] == k]
        np.testing.assert_array_equal(mine[:, 1], ranks)
        for col, h in ((2, ref), (3, est)):
            dense = np.array([error_bound(p, h, mu) for p in projectors])
            assert np.all(np.abs(mine[:, col] ** 2 - dense) <= 1e-12 * dense[0])
        np.testing.assert_array_equal(mine[:, 4], ranks > 2 * k)
    assert np.any(got[:, 4] == 1) and np.any(got[:, 4] == 0)


def test_projector_audit_flags_ranks_past_the_whitened_rows(tmp_path):
    # one g=12 full_field sample identifies its 121 whitened rows' directions,
    # not one per each of its 169 outputs: rank 122 is past the ceiling
    cfg = resolve_config(
        {
            "model": {"kind": "pde", "grid": 12, "scenario": "full_field"},
            "ranks": [121, 122],
            "sampling": {"k_ref": 2, "k_ladder": [1], "seed": 5},
        }
    )
    _, _, rows = _read_csv(run_projector_audit(cfg, tmp_path))
    assert [(int(r[0]), int(r[1]), int(r[4])) for r in rows] == [(1, 121, 0), (1, 122, 1)]


def test_projector_audit_at_paper_scale(tmp_path):
    # d = 1024 (g = 32), two outputs: each K identifies at most 2K directions,
    # past which its own tail must vanish
    cfg = resolve_config(
        {
            "model": {"kind": "pde", "grid": 32, "scenario": "point_pair"},
            "ranks": "all",
            "sampling": {"k_ref": 64, "k_ladder": [8, 32], "seed": 5},
        }
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, rows = _read_csv(run_projector_audit(cfg, tmp_path))
    got = np.array(rows, dtype=float)
    assert got.shape == (2 * 1024, 5)
    assert np.all(np.isfinite(got))
    for k in (8, 32):
        mine = got[got[:, 0] == k]
        ranks, ref_b, approx, flag = mine[:, 1], mine[:, 2], mine[:, 3], mine[:, 4]
        np.testing.assert_array_equal(ranks, np.arange(1, 1025))
        assert np.all(np.diff(ref_b) <= 0.0)
        assert np.all(np.diff(approx) <= 0.0)
        assert ref_b[-1] == 0.0
        past = ranks > 2 * k
        assert np.all(approx[past] ** 2 <= 1e-12 * approx[0] ** 2)
        np.testing.assert_array_equal(flag, past)


def _mode_table(path):
    """The stamped metadata, header and float columns of a mode table."""
    meta, header, rows = _read_csv(path)
    return meta, header, np.array([[float(v) for v in row] for row in rows])


def _expected_modes(cfg):
    """The model, and the eigenvectors run_spectrum should write per table."""
    model = build_model(cfg)
    mu = build_measure(cfg, model)
    sampling = cfg["sampling"]
    est = estimate_h(model, mu, SampleStream(sampling["seed"]).substream(_TAG_H), sampling["k"])
    return model, {"gen_modes.csv": generalized_eig(est.h, mu.cov).vectors,
                   "kl_modes.csv": mu.cov.root().vectors}


def test_spectrum_artifacts_analytical(tmp_path):
    cfg = resolve_config(
        {
            "model": {"kind": "linear", "matrix": [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
            "measure": {"covariance": {"kind": "diagonal", "values": [1.0, 1.0, 4.0]}},
            "sampling": {"k": 5, "seed": 9},
        }
    )
    path = run_spectrum(cfg, tmp_path)
    _, header, rows = _read_csv(path)
    assert header == ["index", "lambda", "tail_sum", "kl_sigma2", "kl_tail_sum"]
    assert [int(r[0]) for r in rows] == [1, 2, 3]
    lams = [float(r[1]) for r in rows]
    tails = [float(r[2]) for r in rows]
    assert lams == sorted(lams, reverse=True)
    assert tails[-1] == 0.0
    assert tails[0] == pytest.approx(lams[1] + lams[2], rel=1e-12)
    # covariance spectrum column is exact for a diagonal measure
    assert [float(r[3]) for r in rows] == [4.0, 1.0, 1.0]
    assert [float(r[4]) for r in rows] == [2.0, 1.0, 0.0]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "gen_modes.csv", "kl_modes.csv", "spectrum.csv"
    ]
    _, expect = _expected_modes(cfg)
    for name, vectors in expect.items():
        meta, header, table = _mode_table(tmp_path / name)
        assert meta == _metadata_lines(cfg)
        assert header == ["index", "mode_1", "mode_2", "mode_3"]
        np.testing.assert_array_equal(table[:, 0], [1, 2, 3])
        # repr cells parse back bit for bit
        np.testing.assert_array_equal(table[:, 1:], vectors[:, :3])
    # leading covariance mode picks the largest variance direction
    kl = _mode_table(tmp_path / "kl_modes.csv")[2][:, 1:]
    np.testing.assert_allclose(np.abs(kl[:, 0]), [0.0, 0.0, 1.0], atol=1e-12)


def test_spectrum_artifacts_pde(tmp_path):
    cfg = resolve_config(
        {
            "model": {"kind": "pde", "grid": 3, "scenario": "point_pair"},
            "sampling": {"k": 40, "seed": 13},
        }
    )
    path = run_spectrum(cfg, tmp_path)
    _, _, rows = _read_csv(path)
    assert len(rows) == 9
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "gen_modes.csv", "kl_modes.csv", "spectrum.csv"
    ]
    model, expect = _expected_modes(cfg)
    for name, vectors in expect.items():
        meta, header, table = _mode_table(tmp_path / name)
        assert meta == _metadata_lines(cfg)
        assert header == ["index", "cell_center_x", "cell_center_y"] + [
            f"mode_{i}" for i in range(1, 7)
        ]
        np.testing.assert_array_equal(table[:, 0], np.arange(1, 10))
        np.testing.assert_array_equal(table[:, 1:3], model.mesh.cell_centers)
        np.testing.assert_array_equal(table[:, 3:], vectors[:, :6])


@pytest.mark.parametrize("command", ["curve", "spectrum"])
def test_pde_runs_factor_the_covariance_once(tmp_path, monkeypatch, command):
    # sampling, the generalized eigensolve, the projectors and the K-L
    # comparison all read the one cached root of Sigma = K (x) K + nugget I,
    # taken from one eigendecomposition of the grid-3 kernel K; the dense
    # Sigma is never decomposed
    cfg = resolve_config(
        {
            "model": {"kind": "pde", "grid": 3, "scenario": "point_pair"},
            "sampling": {"k": 40, "m": [1], "n_val": 20, "seed": 13},
            "comparisons": {"kl": True},
        }
    )
    model = build_model(cfg)
    sigma = build_measure(cfg, model).cov.entries
    kernel = squared_exponential_covariance(model.mesh.cell_centers[:3, 0], 0.15).entries
    real = linalg.dsyevr
    factored = []

    def counting(a, *args, **kwargs):
        factored.append((np.array_equal(a, kernel), np.array_equal(a, sigma)))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "dsyevr", counting)
    {"curve": run_error_curve, "spectrum": run_spectrum}[command](cfg, tmp_path)
    assert [sum(column) for column in zip(*factored)] == [1, 0]


def test_sobol_artifacts(tmp_path):
    cfg = resolve_config(
        {
            "model": {"kind": "linear", "matrix": [[2.0, 1.0, 0.5]]},
            "groups": "singletons",
            "sampling": {"sobol_outer": 300, "sobol_inner": 16, "dgsm_k": 100, "seed": 17},
        }
    )
    path = run_sobol(cfg, tmp_path)
    meta, header, rows = _read_csv(path)
    assert header == ["group", "s_hat", "s_se", "s_lower", "t_hat", "t_se", "t_upper", "vacuous"]
    assert [r[0] for r in rows] == ["{1}", "{2}", "{3}"]
    for r in rows:
        assert r[7] in ("0", "1")
        # each group's bounds divide by its own variance estimate, as its
        # indices do, so they sandwich them up to the indices' standard errors
        s_hat, s_se, s_lower, t_hat, t_se, t_upper = map(float, r[1:7])
        assert s_lower <= s_hat + 3.0 * s_se
        assert t_hat <= t_upper + 3.0 * t_se
    assert meta == _metadata_lines(cfg)
    doc = json.loads((tmp_path / "sobol.json").read_text(encoding="ascii"))
    assert doc["config_hash"] == config_hash(cfg)
    assert doc["seed"] == 17
    assert doc["generator"] == f"gradridge {gradridge.__version__}"
    assert len(doc["groups"]) == 3
    assert len(doc["dgsm"]) == 3
    assert [g["group"] for g in doc["groups"]] == [r[0] for r in rows]


def test_runs_are_deterministic(tmp_path):
    cfg = _linear_cfg()
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_error_curve(cfg, a)
    run_error_curve(cfg, b)
    assert (a / "curve.csv").read_bytes() == (b / "curve.csv").read_bytes()
    run_sobol_cfg = resolve_config(
        {
            "model": {"kind": "linear", "matrix": [[1.0, 2.0]]},
            "sampling": {"sobol_outer": 100, "sobol_inner": 8, "dgsm_k": 50, "seed": 23},
        }
    )
    run_sobol(run_sobol_cfg, a)
    run_sobol(run_sobol_cfg, b)
    assert (a / "sobol.csv").read_bytes() == (b / "sobol.csv").read_bytes()
    assert (a / "sobol.json").read_bytes() == (b / "sobol.json").read_bytes()


def test_thread_count_never_changes_output(tmp_path):
    cfg = _linear_cfg(k=600, n_val=700)  # spans multiple worker chunks
    one = tmp_path / "one"
    four = tmp_path / "four"
    run_error_curve(cfg, one, threads=1)
    run_error_curve(cfg, four, threads=4)
    assert (one / "curve.csv").read_bytes() == (four / "curve.csv").read_bytes()


def test_cli_sobol_threads_write_identical_artifacts_across_blocks(tmp_path):
    # 5000 base rows fill ten blocks, so --threads 2 runs the Sobol'
    # estimator on the pool
    cfg = _write_cfg(tmp_path, {
        "model": {"kind": "sines", "amplitudes": [1.0, 0.6, 0.3, 0.2],
                  "frequencies": [0.8, 1.3, 2.0, 0.5]},
        "groups": [[1], [2, 4]],
        "sampling": {"sobol_outer": 5000, "sobol_inner": 64, "dgsm_k": 50, "seed": 7},
    })
    assert 5000 // ridge.CHUNK >= 2
    outs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        assert main(["sobol", "--config", str(cfg), "--out", str(out),
                     "--threads", str(threads)]) == 0
        outs.append(out)
    for name in ("sobol.csv", "sobol.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def _write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="ascii")
    return p


def test_cli_success_and_seed_override(tmp_path, capsys):
    cfg_path = _write_cfg(
        tmp_path,
        {
            "model": {"kind": "linear", "matrix": [[1.0, 0.5]]},
            "sampling": {"k": 20, "n_val": 10, "m": [1], "seed": 1},
        },
    )
    out_a = tmp_path / "a"
    assert main(["curve", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("curve.csv")
    meta_a, _, _ = _read_csv(out_a / "curve.csv")
    assert meta_a[3] == "# seed=1"
    out_b = tmp_path / "b"
    assert main(["curve", "--config", str(cfg_path), "--out", str(out_b), "--seed", "2"]) == 0
    capsys.readouterr()
    meta_b, _, _ = _read_csv(out_b / "curve.csv")
    assert meta_b[3] == "# seed=2"
    assert meta_a[2] != meta_b[2]  # seed participates in the config hash


def test_cli_config_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["curve", "--config", str(missing)]) == 2
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="ascii")
    assert main(["curve", "--config", str(bad_json)]) == 2
    bad_cfg = _write_cfg(tmp_path, {"model": {"kind": "cubic"}}, "badcfg.json")
    assert main(["curve", "--config", str(bad_cfg)]) == 2
    ok_cfg = _write_cfg(
        tmp_path, {"model": {"kind": "linear", "matrix": [[1.0]]}}, "ok.json"
    )
    assert main(["curve", "--config", str(ok_cfg), "--threads", "0"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


_LINEAR = {"kind": "linear", "matrix": [[1.0, 0.5]]}
_SINES = {"kind": "sines", "amplitudes": [1.0, 2.0], "frequencies": [1.0, 2.0]}
_SOBOL = {"sobol_outer": 10, "sobol_inner": 2, "dgsm_k": 10}


def test_cli_stamps_every_artifact(tmp_path, capsys):
    # every file each subcommand writes is a CSV that opens with the metadata
    # preamble, or sobol.json with the same stamp as fields
    sines = {"kind": "sines", "amplitudes": [1.0, 0.5], "frequencies": [1.0, 2.0]}
    runs = {
        "curve": {"model": _LINEAR, "sampling": {"k": 20, "n_val": 10, "m": [1]}},
        "audit": {"model": _LINEAR, "sampling": {"k_ref": 20, "k_ladder": [2, 5]}},
        "spectrum": {"model": _LINEAR, "sampling": {"k": 20}},
        "spectrum-pde": {"model": {"kind": "pde", "grid": 3}, "sampling": {"k": 10}},
        "sobol": {"model": sines, "sampling": _SOBOL},
    }
    for name, payload in runs.items():
        command = name.split("-")[0]
        out = tmp_path / name
        cfg_path = _write_cfg(tmp_path, payload, f"{name}.json")
        assert main([command, "--config", str(cfg_path), "--out", str(out), "--seed", "5"]) == 0
        cfg = resolve_config(payload, seed_override=5)
        written = sorted(p.name for p in out.iterdir())
        csvs = [n for n in written if n.endswith(".csv")]
        assert csvs and set(written) - set(csvs) == ({"sobol.json"} if command == "sobol" else set())
        for n in csvs:
            lines = (out / n).read_text(encoding="ascii").splitlines()
            assert lines[:4] == _metadata_lines(cfg), f"{name}: {n} is not stamped"
        if command == "sobol":
            doc = json.loads((out / "sobol.json").read_text(encoding="ascii"))
            assert doc["generator"] == f"gradridge {gradridge.__version__}"
            assert doc["config_hash"] == config_hash(cfg)
            assert doc["seed"] == 5
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, payload",
    [
        ("curve", {"model": _LINEAR, "sampling": {"k": 0}}),
        ("curve", {"model": _LINEAR, "sampling": {"k": 5, "m": [0], "n_val": 5}}),
        ("curve", {"model": _LINEAR, "sampling": {"k": 5, "m": [1.5], "n_val": 5}}),
        ("curve", {"model": _LINEAR, "sampling": {"k": 5, "m": [1], "n_val": 1}}),
        ("curve", {"model": _LINEAR, "ranks": "foo", "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": _LINEAR, "ranks": [3], "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": _LINEAR, "sampling": 5}),
        ("audit", {"model": _LINEAR, "sampling": {"k_ref": 5, "k_ladder": [0]}}),
        ("audit", {"model": _LINEAR, "ranks": "foo", "sampling": {"k_ref": 5, "k_ladder": [1]}}),
        ("sobol", {"model": _LINEAR, "sampling": dict(_SOBOL, sobol_outer=1)}),
        ("curve", {"model": {"kind": "sines", "amplitudes": [1.0, 2.0], "frequencies": [1.0]},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": {"kind": "pde", "grid": 1}, "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": _LINEAR, "measure": {"mean": [0.0, 0.0, 0.0]},
                   "sampling": {"k": 5, "m": []}}),
        ("sobol", {"model": _LINEAR, "groups": [[5]], "sampling": _SOBOL}),
        ("sobol", {"model": _LINEAR, "groups": [1], "sampling": _SOBOL}),
        ("sobol", {"model": _LINEAR, "groups": [], "sampling": _SOBOL}),
        ("curve", {"model": {"kind": "sines", "amplitudes": [1.0], "frequency": [1.0],
                             "frequencies": [1.0]}, "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": _LINEAR, "mesure": {"mean": 1.0}, "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": _LINEAR, "sampling": {"kk": 5, "m": []}}),
        ("curve", {"model": _LINEAR, "comparisons": {"KL": False}, "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": _LINEAR, "measure": {"kind": "diagonal", "values": [1.0, 4.0]},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": _LINEAR,
                   "measure": {"covariance": {"kind": "diagonal", "values": [1.0, 4.0],
                                              "lengthscale": 0.5}},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": {"kind": "linear", "random": {"rows": 1, "cols": 2, "seed": 1,
                                                          "scael": 2.0}},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": {"kind": "linear", "random": 5}, "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": _LINEAR, "ranks": [], "sampling": {"k": 5, "m": []}}),
        ("audit", {"model": _LINEAR, "sampling": {"k_ref": 5, "k_ladder": []}}),
        ("curve", {"model": _LINEAR, "comparisons": False, "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": _LINEAR, "comparisons": {"kl": "no"}, "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": _LINEAR, "sampling": []}),
        ("curve", {"model": _LINEAR, "measure": 0, "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": _LINEAR, "measure": None, "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": _LINEAR, "measure": {"covariance": [[1, 2], [2, 1]]},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": _LINEAR,
                   "measure": {"covariance": {"kind": "diagonal", "values": [1, -1]}},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": {"kind": "linear", "matrix": [[1.0, 0.5], [0.5, 1.0]],
                             "output_metric": [[1, 0], [0, -1]]},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": {"kind": "pde", "grid": "4"}, "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": {"kind": "pde", "grid": 4.9}, "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": {"kind": "pde", "grid": 4, "alpha": "2"},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": {"kind": "pde", "grid": 4, "beta": True},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": {"kind": "pde", "grid": 4},
                   "measure": {"covariance": {"kind": "squared_exponential",
                                              "lengthscale": "0.2"}},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": {"kind": "linear", "random": {"rows": 2.7, "cols": 3, "seed": 1}},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": {"kind": "linear", "random": {"rows": 2, "cols": "3", "seed": 1}},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": {"kind": "linear", "random": {"rows": 2, "cols": 3, "seed": 1.0}},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": {"kind": "linear",
                             "random": {"rows": 2, "cols": 3, "seed": 1, "scale": "2"}},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": {"kind": "quadratic", "random": {"dim": 3.0, "seed": 1}},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": {"kind": "linear", "matrix": [[1.0, 0.5]],
                             "random": {"rows": 1, "cols": 2, "seed": 1}},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": {"kind": "quadratic", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                             "random": {"dim": 2, "seed": 1}},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": _LINEAR, "measure": {"mean": True}, "sampling": {"k": 5, "m": []}}),
        # Python's json reads NaN, so a supplied covariance can hold one
        ("curve", {"model": _LINEAR, "measure": {"covariance": [[1.0, 0.0], [0.0, float("nan")]]},
                   "sampling": {"k": 5, "m": []}}),
        # a string or boolean where a number belongs would hash apart from the number
        ("curve", {"model": dict(_SINES, amplitudes=["1.0", 2]), "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": {"kind": "linear", "matrix": [[True, 2]]},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": dict(_SINES, frequencies=[True, 1]), "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": _LINEAR,
                   "measure": {"covariance": {"kind": "diagonal", "values": ["1", 2]}},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": _LINEAR, "measure": {"mean": float("nan")},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": _LINEAR, "measure": {"mean": [float("inf"), 0]},
                   "sampling": {"k": 5, "m": []}}),
        # a negative seed would be masked to 2**64 - 1: one matrix under two hashes
        ("curve", {"model": {"kind": "linear", "random": {"rows": 1, "cols": 2, "seed": -1}},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": _LINEAR, "groups": 5, "sampling": {"k": 5, "m": []}}),
        # json reads 1e400 as inf; none of these is a numerical failure of the run
        ("curve", {"model": {"kind": "linear", "matrix": [[1e400, 2]]},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": dict(_SINES, amplitudes=[float("nan"), 2]),
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": {"kind": "pde", "grid": 4, "scenario": "point_pair",
                             "alpha": float("inf")},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": {"kind": "pde", "grid": 4},
                   "measure": {"covariance": {"kind": "squared_exponential",
                                              "lengthscale": float("nan")}},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": {"kind": "linear",
                             "random": {"rows": 1, "cols": 2, "seed": 1, "scale": float("nan")}},
                   "sampling": {"k": 5, "m": []}}),
        # the sampler keys on 64 bits, so 2**64 + 7 would draw what 7 draws
        ("curve", {"model": _LINEAR, "sampling": {"k": 5, "m": [], "seed": 2**64}}),
        ("curve", {"model": {"kind": "linear", "random": {"rows": 1, "cols": 2, "seed": 2**64}},
                   "sampling": {"k": 5, "m": []}}),
        # a lengthscale whose square is not a normal double cannot build the kernel
        ("curve", {"model": {"kind": "pde", "grid": 4},
                   "measure": {"covariance": {"kind": "squared_exponential",
                                              "lengthscale": 1e-170}},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": {"kind": "pde", "grid": 4},
                   "measure": {"covariance": {"kind": "squared_exponential",
                                              "lengthscale": 1e-160}},
                   "sampling": {"k": 5, "m": []}}),
        ("curve", {"model": {"kind": "pde", "grid": 4},
                   "measure": {"covariance": {"kind": "squared_exponential",
                                              "lengthscale": 1e160}},
                   "sampling": {"k": 5, "m": []}}),
    ],
    ids=[
        "k-zero", "m-zero", "m-fractional", "n-val-one", "ranks-string", "rank-past-dim",
        "sampling-not-object", "k-ladder-zero", "audit-ranks-string", "sobol-outer-one",
        "sines-length-mismatch", "pde-grid-one", "mean-length-mismatch", "group-past-dim",
        "group-not-list", "groups-empty", "model-key-unknown", "top-level-key-unknown",
        "sampling-key-unknown", "comparisons-key-unknown", "measure-key-unknown",
        "covariance-key-unknown", "random-key-unknown", "random-not-object",
        "ranks-empty", "k-ladder-empty", "comparisons-false", "comparisons-kl-string",
        "sampling-empty-list", "measure-zero", "measure-null",
        "covariance-indefinite", "diagonal-covariance-negative", "output-metric-indefinite",
        "grid-string", "grid-fractional", "alpha-string", "beta-boolean", "lengthscale-string",
        "rows-fractional", "cols-string", "random-seed-float", "scale-string",
        "quadratic-dim-float", "linear-matrix-and-random", "quadratic-matrix-and-random",
        "mean-boolean", "covariance-nan",
        "amplitudes-string", "matrix-boolean", "frequencies-boolean", "diagonal-values-string",
        "mean-nan", "mean-list-infinite", "random-seed-negative", "groups-number",
        "matrix-overflow", "amplitudes-nan", "alpha-infinite", "lengthscale-nan", "scale-nan",
        "sampling-seed-2-to-64", "random-seed-2-to-64", "lengthscale-square-underflows",
        "lengthscale-square-subnormal", "lengthscale-square-overflows",
    ],
)
def test_cli_bad_config_exits_2_with_one_line(tmp_path, capsys, command, payload):
    cfg = _write_cfg(tmp_path, payload)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")


def _config_error_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    return lines[0]


@pytest.mark.parametrize("where", ["sampling", "random", "--seed"])
def test_cli_seed_must_fit_in_64_bits(tmp_path, capsys, where):
    # 2**64 - 1 is the largest seed the sampler keys without aliasing
    def argv(seed):
        random_seed = seed if where == "random" else 1
        sampling = {"k": 5, "m": []}
        if where == "sampling":
            sampling["seed"] = seed
        cfg = _write_cfg(tmp_path, {
            "model": {"kind": "linear", "random": {"rows": 1, "cols": 2, "seed": random_seed}},
            "sampling": sampling,
        }, name=f"cfg-{seed}.json")
        extra = ["--seed", str(seed)] if where == "--seed" else []
        return ["spectrum", "--config", str(cfg), "--out", str(tmp_path / f"out-{seed}"), *extra]

    assert "[0, 2**64)" in _config_error_line(argv(2**64), capsys)
    assert main(argv(2**64 - 1)) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "content, expected",
    [('{"model": {"kind": "linear", "matrix": [[1.0]]}} \xe9'.encode("latin-1"), "utf-8"),
     (b"[" * 100_000, "recursion")],
    ids=["not-utf8", "nested-too-deep"],
)
def test_cli_unreadable_config_exits_2_with_one_line(tmp_path, capsys, content, expected):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    assert expected in _config_error_line(["curve", "--config", str(path)], capsys)


@pytest.mark.parametrize(
    "taken, expected",
    [("out", "File exists"), ("out/curve.csv", "Is a directory")],
    ids=["out-is-a-file", "artifact-is-a-directory"],
)
def test_cli_unwritable_output_exits_2_with_one_line(tmp_path, capsys, taken, expected):
    cfg = _write_cfg(tmp_path, {"model": _LINEAR, "sampling": {"k": 5, "m": []}})
    if taken == "out":
        (tmp_path / "out").write_text("", encoding="ascii")
    else:
        (tmp_path / taken).mkdir(parents=True)
    argv = ["curve", "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert expected in _config_error_line(argv, capsys)


@pytest.mark.parametrize("runner", [run_error_curve, run_projector_audit])
def test_rank_past_dim_fails_before_any_jacobian(tmp_path, monkeypatch, runner):
    from gradridge import experiments

    class Counting(LinearModel):
        calls = 0

        def jacobian_batch(self, xs):
            Counting.calls += 1
            return super().jacobian_batch(xs)

    monkeypatch.setattr(experiments, "build_model", lambda cfg: Counting([[1.0, 0.5]]))
    cfg = resolve_config({"model": _LINEAR, "ranks": [3],
                          "sampling": {"k": 5, "k_ref": 5, "k_ladder": [5], "m": []}})
    with pytest.raises(ConfigError, match=r"rank 3 outside \[1, 2\]"):
        runner(cfg, str(tmp_path))
    assert Counting.calls == 0


def test_cli_out_of_memory_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    # a runner that cannot allocate fails like a numerical failure: exit 3,
    # one stderr line naming MemoryError, no traceback
    from gradridge import cli

    def runner(cfg, out, threads=1):
        raise MemoryError("Unable to allocate 128. MiB for an array\nwith shape (4096, 4096)")

    monkeypatch.setitem(cli._RUNNERS, "curve", runner)
    cfg = _write_cfg(tmp_path, {"model": _LINEAR, "sampling": {"k": 5, "m": []}})
    assert main(["curve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "out of memory: MemoryError: Unable to allocate 128. MiB for an array "
        "with shape (4096, 4096)"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("seed", [5, 8])
def test_cli_singular_diffusion_factor_exits_3_without_traceback(tmp_path, capsys, seed):
    # a 1e6 variance clamps the log-conductivities to +-40, and at these seeds
    # one of the first 1000 Sobol' base rows gives a system whose band
    # Cholesky meets a leading minor that is not positive
    cfg = _write_cfg(tmp_path, {
        "model": {"kind": "pde", "grid": 4, "scenario": "point_pair"},
        "measure": {"covariance": {"kind": "diagonal", "values": [1e6] * 16}},
        "sampling": {"dgsm_k": 3, "sobol_outer": 1000, "sobol_inner": 4},
        "groups": [[1]],
    })
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["sobol", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--seed", str(seed)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    # the base row whose solve fails is named, with the solver's reason
    sample = {5: 680, 8: 894}[seed]
    assert captured.err.splitlines() == [
        f"numerical failure: ModelEvaluationFailure: model evaluation failed at sample {sample}: "
        "SolverFailure: banded Cholesky failed: leading minor 8 is not positive"
    ]


def test_cli_per_point_jacobian_failure_names_the_sample_and_its_cause(tmp_path, capsys):
    # the singular-factor config under curve: the Jacobian batch that fails
    # is evaluated again one row at a time, and the first failing sample
    # keeps the solver's reason
    cfg = _write_cfg(tmp_path, {
        "model": {"kind": "pde", "grid": 4, "scenario": "point_pair"},
        "measure": {"covariance": {"kind": "diagonal", "values": [1e6] * 16}},
        "sampling": {"k": 1000, "m": []},
    })
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["curve", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--seed", "8"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "numerical failure: ModelEvaluationFailure: model evaluation failed at sample 481: "
        "SolverFailure: banded Cholesky failed: leading minor 9 is not positive"
    ]


def test_cli_prints_each_warning_as_one_line(tmp_path):
    # the singular-factor run clamps its inputs first; each clamp warning is
    # one stderr line, with no source path or code line under it
    cfg = _write_cfg(tmp_path, {
        "model": {"kind": "pde", "grid": 4, "scenario": "point_pair"},
        "measure": {"covariance": {"kind": "diagonal", "values": [1e6] * 16}},
        "sampling": {"dgsm_k": 3, "sobol_outer": 1000, "sobol_inner": 4},
        "groups": [[1]],
    })
    src = os.path.dirname(os.path.dirname(os.path.abspath(gradridge.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "gradridge", "sobol", "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--seed", "5"],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert ".py" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert lines[-1].startswith(
        "numerical failure: ModelEvaluationFailure: model evaluation failed at sample 680: "
        "SolverFailure")
    assert lines[0] == (
        "warning: InputClampedWarning: log-conductivity clamped to [-40, 40]"
    )
    assert all(line.startswith(("warning:", "numerical failure:")) for line in lines)


# Which of numpy, scipy's heavy subpackages and the pde model are loaded after
# each step of a run of the command argv[3], which of scipy's kernels the run
# bound and which extension modules are left in sys.modules, and what the pde
# names resolve to.
_SCIPY_LOADS = """
import json, sys

def heavy():
    return [m for m in ("numpy", "scipy.linalg", "scipy.sparse", "gradridge.pde")
            if m in sys.modules]

EXTENSIONS = ("scipy.linalg._flapack", "scipy.linalg._fblas", "scipy.sparse._sparsetools")

command = sys.argv[3]
loaded = {}
import gradridge
loaded["import gradridge"] = heavy()
import gradridge.cli
loaded["import gradridge.cli"] = heavy()
code = gradridge.cli.main([command, "--config", sys.argv[1], "--out", sys.argv[2], *sys.argv[4:]])
loaded[command] = heavy()
bound = vars(sys.modules.get("gradridge.linalg", json))
kernels = sorted(n for n in ("csr_matvecs", "dpbtrf", "dpbtrs", "dsbmv", "dsyevr",
                             "dsyevr_lwork") if n in bound)
extensions = [m for m in EXTENSIONS if m in sys.modules]
futures = "concurrent.futures" in sys.modules
listed = [n for n in ("DiffusionModel", "Mesh2D", "build_field_covariance") if n in dir(gradridge)]
from gradridge import DiffusionModel, Mesh2D, build_field_covariance
from gradridge import pde
same = [DiffusionModel is pde.DiffusionModel, Mesh2D is pde.Mesh2D,
        build_field_covariance is pde.build_field_covariance]
seen = {"code": code, "loaded": loaded, "kernels": kernels, "extensions": extensions,
        "futures": futures, "listed": listed, "same": same}
"""


def _fresh_python(code, *args):
    """Run ``code`` in a new interpreter on this checkout's gradridge and
    return the JSON it prints last."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gradridge.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _scipy_loads(cfg, out, command, *flags, then=""):
    """What ``_SCIPY_LOADS`` sees, after running ``then``, more code that
    may add to ``seen``."""
    code = _SCIPY_LOADS + then + "\nprint(json.dumps(seen))\n"
    return _fresh_python(code, str(cfg), str(out), command, *flags)


def test_closed_form_sobol_runs_without_scipy_linalg_or_sparse(tmp_path):
    # the 16-sine config of the benchmark: a diagonal covariance has a root in
    # closed form, and nothing else in the run needs scipy. A serial run
    # imports no thread pool either (scipy would bring concurrent.futures).
    cfg = _write_cfg(tmp_path, {
        "model": {"kind": "sines", "amplitudes": np.linspace(1.0, 0.1, 16).tolist(),
                  "frequencies": np.linspace(0.5, 2.0, 16).tolist()},
        "groups": "singletons",
        "sampling": {"sobol_outer": 2000, "sobol_inner": 64, "dgsm_k": 2000},
    })
    seen = _scipy_loads(cfg, tmp_path / "out", "sobol", "--threads", "1")
    assert seen["code"] == 0
    assert seen["loaded"] == {
        "import gradridge": [], "import gradridge.cli": ["numpy"], "sobol": ["numpy"]}
    assert not seen["futures"]
    assert seen["listed"] == ["DiffusionModel", "Mesh2D", "build_field_covariance"]
    assert seen["same"] == [True, True, True]


def test_curve_on_three_blocks_writes_the_same_bytes_on_the_caller_and_a_helper(tmp_path):
    # 1100 samples for H and for validation: three blocks each, shared by the
    # calling thread and one helper under --threads 2
    cfg = _write_cfg(tmp_path, {
        "model": {"kind": "linear", "random": {"rows": 2, "cols": 6, "seed": 4}},
        "sampling": {"k": 1100, "n_val": 1100, "m": [1]},
    })
    for threads in ("1", "2"):
        seen = _scipy_loads(cfg, tmp_path / f"out{threads}", "curve", "--threads", threads)
        assert seen["code"] == 0
    assert (tmp_path / "out1" / "curve.csv").read_bytes() == (
        tmp_path / "out2" / "curve.csv").read_bytes()


def test_linear_sobol_runs_without_scipy_linalg(tmp_path):
    # sobol never reads the linear model's Lipschitz constant, so its
    # eigensolve, and scipy.linalg with it, is left for a run that does
    cfg = _write_cfg(tmp_path, {"model": {"kind": "linear", "matrix": [[1.0, 0.5, 0.2]]},
                                "sampling": {"sobol_outer": 100, "dgsm_k": 50}})
    seen = _scipy_loads(cfg, tmp_path / "out", "sobol")
    assert seen["code"] == 0
    assert "scipy.linalg" not in seen["loaded"]["sobol"]


def test_linear_spectrum_loads_neither_the_pde_model_nor_scipy_sparse(tmp_path):
    # only a pde run adds cell centers to the mode tables, and the check reads
    # the config, so a linear spectrum loads LAPACK's extension module for
    # dsyevr alone, and no scipy package
    cfg = _write_cfg(tmp_path, {"model": {"kind": "linear", "matrix": [[1.0, 0.5, 0.2]]},
                                "sampling": {"k": 50}})
    seen = _scipy_loads(cfg, tmp_path / "out", "spectrum")
    assert seen["code"] == 0
    assert seen["loaded"]["spectrum"] == ["numpy"]
    assert seen["kernels"] == ["dsyevr", "dsyevr_lwork"]


_PDE_CURVE = {"model": {"kind": "pde", "grid": 3, "scenario": "point_pair"},
              "sampling": {"k": 40, "m": [1], "n_val": 20}}


def test_pde_curve_binds_scipys_kernels_but_imports_neither_package(tmp_path):
    # the eigensolve, the band solves and the CSR products read their kernels
    # from the three extension modules, loaded without their packages and
    # not left in sys.modules for a later import of the package to skip
    seen = _scipy_loads(_write_cfg(tmp_path, _PDE_CURVE), tmp_path / "out", "curve")
    assert seen["code"] == 0
    assert seen["loaded"]["curve"] == ["numpy", "gradridge.pde"]
    assert seen["kernels"] == [
        "csr_matvecs", "dpbtrf", "dpbtrs", "dsbmv", "dsyevr", "dsyevr_lwork"]
    assert seen["extensions"] == []


@pytest.mark.parametrize("scenario", ["full_field", "subdomain", "point_pair"])
def test_pde_curve_leaves_numpy_ma_unloaded(tmp_path, scenario):
    # the observed nodes come from np.bincount, not np.unique, whose import
    # of numpy.ma added about 1.2 MB to a g=12 full_field run's peak memory
    cfg = _write_cfg(tmp_path, {"model": {"kind": "pde", "grid": 4, "scenario": scenario},
                                "sampling": {"k": 20, "m": [1], "n_val": 20}})
    seen = _scipy_loads(cfg, tmp_path / "out", "curve",
                        then='seen["ma"] = "numpy.ma" in sys.modules\n')
    assert seen["code"] == 0
    assert seen["ma"] is False


_LATER_IMPORTS = """
from gradridge import linalg
import numpy as np
import scipy.linalg, scipy.sparse._sparsetools
public = {"dpbtrf": scipy.linalg._flapack.dpbtrf, "dpbtrs": scipy.linalg.lapack.dpbtrs,
          "dsyevr": scipy.linalg.lapack.dsyevr, "dsbmv": scipy.linalg._fblas.dsbmv,
          "csr_matvecs": scipy.sparse._sparsetools.csr_matvecs}
seen["same_kernels"] = {name: getattr(linalg, name) is kernel for name, kernel in public.items()}
a = np.array([[2.0, 1.0], [1.0, 3.0]])
seen["eigh"] = scipy.linalg.eigh(a)[0].tolist()
seen["sparse"] = (scipy.sparse.csr_matrix(a) @ np.ones(2)).tolist()
"""


def test_scipy_imported_after_a_pde_run_hands_out_the_same_kernels(tmp_path):
    # a later import of scipy.linalg and scipy.sparse hands out the kernels
    # the run bound, sets each extension module as its package's attribute,
    # and both packages still work
    seen = _scipy_loads(_write_cfg(tmp_path, _PDE_CURVE), tmp_path / "out", "curve",
                        then=_LATER_IMPORTS)
    assert seen["code"] == 0
    assert seen["same_kernels"] == {
        "dpbtrf": True, "dpbtrs": True, "dsyevr": True, "dsbmv": True, "csr_matvecs": True}
    np.testing.assert_allclose(seen["eigh"], [(5 - 5 ** 0.5) / 2, (5 + 5 ** 0.5) / 2])
    assert seen["sparse"] == [3.0, 4.0]


# Threads that first read linalg.dsyevr at one moment; the search for LAPACK's
# extension module is slowed so that they overlap inside the load.
_FIRST_TOUCH = """
import importlib.machinery, json, sys, threading, time
from gradridge import linalg

searches = []
find_spec = importlib.machinery.PathFinder.find_spec

def slow_find_spec(name, path=None, target=None):
    if name == "scipy.linalg._flapack":
        searches.append(name)
        time.sleep(0.05)
    return find_spec(name, path, target)

importlib.machinery.PathFinder.find_spec = slow_find_spec
barrier = threading.Barrier(4)
got = []

def touch():
    barrier.wait()
    got.append(linalg.dsyevr)

threads = [threading.Thread(target=touch) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join()
seen = {"got": len(got), "objects": len({id(k) for k in got}), "searches": len(searches)}
import scipy.linalg
seen["scipys"] = scipy.linalg.lapack.dsyevr is got[0]
print(json.dumps(seen))
"""


def test_threads_that_first_read_a_kernel_together_load_it_once():
    seen = _fresh_python(_FIRST_TOUCH)
    assert seen == {"got": 4, "objects": 1, "searches": 1, "scipys": True}


def test_cli_sobol_rejects_correlated_measure(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        {
            "model": {"kind": "linear", "matrix": [[1.0, 1.0]]},
            "measure": {"covariance": [[2.0, 0.5], [0.5, 1.0]]},
            "sampling": {"sobol_outer": 50, "sobol_inner": 4, "dgsm_k": 20, "seed": 2},
        },
    )
    assert main(["sobol", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    # a valid config whose gradient second moment overflows; an indefinite
    # covariance, which this test used to feed, is a config error (exit 2)
    cfg = _write_cfg(
        tmp_path,
        {
            "model": {"kind": "linear", "matrix": [[1e200, 1.0]]},
            "sampling": {"k": 10, "n_val": 5, "m": [], "seed": 3},
        },
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
        assert main(["curve", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_non_finite_intermediate_exits_3_without_traceback(tmp_path):
    # a valid config whose gradient second moment overflows to inf: the
    # eigensolver must refuse it as a numerical failure, not crash
    cfg = _write_cfg(
        tmp_path,
        {
            "model": {"kind": "linear", "matrix": [[1e200, 1.0]]},
            "sampling": {"k": 10, "n_val": 5, "m": [], "seed": 3},
        },
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(gradridge.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "gradridge", "curve", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "numerical failure: NonFiniteInput" in proc.stderr


def test_cli_overflowing_linear_model_prints_one_line(tmp_path):
    # the overflow of F^T R F inside LinearModel is the numerical failure
    # itself; it must not print a RuntimeWarning line before it
    cfg = _write_cfg(tmp_path, {"model": {"kind": "linear", "matrix": [[1e200, 1.0]]},
                                "sampling": {"k": 10, "n_val": 5, "m": [], "seed": 3}})
    src = os.path.dirname(os.path.dirname(os.path.abspath(gradridge.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "gradridge", "curve", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "numerical failure: NonFiniteInput: sym_eig input has NaN or infinite entries"
    ]


class _NanJacobianAt(LinearModel):
    """A linear model whose batch Jacobian is NaN at one input point."""

    def __init__(self, matrix, poison):
        super().__init__(matrix)
        self.poison = poison

    def jacobian_batch(self, xs):
        jac = super().jacobian_batch(xs)
        jac[np.all(xs == self.poison, axis=1)] = np.nan
        return jac


def test_cli_non_finite_jacobian_exits_3_with_sample_index(tmp_path, capsys, monkeypatch):
    # one NaN Jacobian in the second block stops the run with its global
    # index, where it used to become a NaN spectrum and a certified rank
    from gradridge import experiments
    from gradridge.ridge import CHUNK

    seed, count = 3, CHUNK + 100
    draws = SampleStream(seed).substream(_TAG_H)
    poison = sample(GaussianMeasure.standard(2), draws, count)[CHUNK + 40]
    model = _NanJacobianAt([[1.0, 0.5]], poison)
    monkeypatch.setattr(experiments, "build_model", lambda cfg: model)
    cfg = _write_cfg(
        tmp_path, {"model": _LINEAR, "sampling": {"k": count, "m": [], "seed": seed}}
    )
    assert main(["curve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"numerical failure: ModelEvaluationFailure: non-finite Jacobian at sample {CHUNK + 40}"
    ]
