"""Config-driven experiment runners behind the command-line interface.

Each runner loads a model and measure from a plain JSON-style config dict,
derives every sample stream from a single seed, and writes CSV artifacts with
a ``#`` metadata preamble (generator and library versions, config hash, seed).
Stream tags are fixed per role, so outputs are byte-identical across runs and
across worker counts; the worker count only changes who computes which chunk.

This is the only module that writes files: every CSV goes through
``_write_csv``, and ``run_sobol`` dumps its JSON document next to its CSV.
The numerical modules return arrays and reports and never touch the disk.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import sys

import numpy as np
import scipy

from . import __version__
from .errors import ConfigError, DimensionMismatch, NonFiniteInput, NotPositiveDefinite
from .linalg import SpdMatrix, generalized_eig
from .measure import GaussianMeasure, SampleStream
from .models import SCENARIOS, LinearModel, QuadraticFormModel, SumOfSinesModel
from .ridge import (
    _warn_if_unidentifiable,
    basis_error_bounds,
    build_ridge,
    estimate_h,
    optimal_projector,
    spectrum_report,
    tail_sums,
    validate_error,
)
from .sensitivity import build_sensitivity_report

__all__ = [
    "resolve_config",
    "config_hash",
    "build_model",
    "build_measure",
    "run_error_curve",
    "run_projector_audit",
    "run_spectrum",
    "run_sobol",
]

_REQUIRED = object()


def _is_integer(value, low):
    # JSON true/false arrive as bool, which Python counts as int
    return isinstance(value, int) and not isinstance(value, bool) and (low is None or value >= low)


def _is_seed(value, low):
    # the sampler keys Philox with 64 bits; a larger seed would alias a smaller one
    return _is_integer(value, 0) and value < 1 << 64


def _is_number(value, low):
    # Python's json reads NaN and Infinity, and an integer may pass max_float
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_boolean(value, low):
    return isinstance(value, bool)


def _list(item):
    """The type test for a non-empty JSON list whose entries all pass ``item``."""
    def check(value, low):
        return isinstance(value, list) and value != [] and all(item(v, low) for v in value)
    return check


_integer_list = _list(_is_integer)
_number_list = _list(_is_number)
_index_lists = _list(
    lambda group, low: isinstance(group, list) and all(_is_integer(i, low) for i in group)
)


def _is_matrix(value, low):
    return _list(_number_list)(value, low) and len(set(map(len, value))) == 1


_TYPE_NAMES = {
    _is_integer: "an integer",
    _is_seed: "an integer in [0, 2**64)",
    _is_number: "a finite number",
    _is_boolean: "true or false",
    _integer_list: "a non-empty list of integers",
    _number_list: "a non-empty list of finite numbers",
    _index_lists: "a non-empty list of index lists",
    _is_matrix: "a list of equal-length rows of finite numbers",
}

# Every config field as (JSON type, least value, default). A type is one
# alternative or a tuple of them: a type test above, a literal the value may
# equal, or a dict of fields for a JSON object, whose "kind" entry, if any,
# maps each kind to its own fields. The least value bounds an integer or each
# integer of a list. A field whose default is _REQUIRED must be given; one
# whose default is None stays absent unless given. Checks that need the
# model's input dimension or numpy run in the builders.
_RANDOM_SEED = (_is_seed, None, _REQUIRED)
_COVARIANCE = ("identity", _is_matrix, {"kind": {
    "squared_exponential": {"lengthscale": (_is_number, None, 0.15)},
    "diagonal": {"values": (_number_list, None, _REQUIRED)},
}})
_FIELDS = {
    "model": ({"kind": {
        "linear": {
            "matrix": (_is_matrix, None, None),
            "random": ({"rows": (_is_integer, 1, _REQUIRED), "cols": (_is_integer, 1, _REQUIRED),
                        "seed": _RANDOM_SEED, "scale": (_is_number, None, 1.0)}, None, None),
            "output_metric": (("identity", None, _is_matrix), None, "identity"),
        },
        "quadratic": {
            "matrix": (_is_matrix, None, None),
            "random": ({"dim": (_is_integer, 1, _REQUIRED), "seed": _RANDOM_SEED}, None, None),
        },
        "sines": {"amplitudes": ((_is_number, _number_list), None, _REQUIRED),
                  "frequencies": ((_is_number, _number_list), None, _REQUIRED)},
        "pde": {"grid": (_is_integer, 2, 12), "scenario": (SCENARIOS, None, "full_field"),
                "alpha": (_is_number, None, 1.0), "beta": (_is_number, None, 1.0)},
    }}, None, _REQUIRED),
    # the covariance defaults to "identity", or for pde to the field covariance
    "measure": ({"mean": ((_is_number, _number_list), None, 0.0),
                 "covariance": (_COVARIANCE, None, None)}, None, {}),
    # a Monte Carlo standard error needs two validation samples and the Sobol'
    # estimator two base rows; an empty m means bounds only. sobol_inner sized
    # the nested Sobol' estimator that the shared base replaced: it is accepted
    # and ignored, so configs that give it keep their hash
    "sampling": ({
        "k": (_is_integer, 1, 4000),
        "k_ref": (_is_integer, 1, 4000),
        "k_ladder": (_integer_list, 1, [10, 30, 100, 400]),
        "m": (([], _integer_list), 1, [1, 5, 20]),
        "n_val": (_is_integer, 2, 300),
        "sobol_outer": (_is_integer, 2, 2000),
        "sobol_inner": (_is_integer, 1, 64),
        "dgsm_k": (_is_integer, 1, 2000),
        "seed": (_is_seed, None, 20260822),
    }, None, {}),
    "ranks": (("all", _integer_list), None, "all"),
    "groups": (("singletons", _index_lists), None, "singletons"),
    "comparisons": ({"kl": (_is_boolean, None, True)}, None, {}),
}

# Stream tags, one per sampling role. Routines never share a tag, so adding a
# stage cannot shift the draws of another.
_TAG_H = 1
_TAG_RIDGE = 2
_TAG_VALIDATE = 3
_TAG_AUDIT = 4
_TAG_SOBOL = 5
_TAG_RANDOM_MODEL = 6


def resolve_config(raw, seed_override=None):
    """Check a raw config dict against ``_FIELDS`` and fill its defaults.
    Raises ConfigError on anything malformed; the result, every value as the
    config gave it, is what gets hashed into output headers."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    cfg = _object("", raw, _FIELDS)
    model = cfg["model"]
    if model["kind"] in ("linear", "quadratic") and ("matrix" in model) == ("random" in model):
        raise ConfigError(f"{model['kind']} model needs exactly one of matrix and random")
    if "covariance" not in cfg["measure"]:
        default = {"kind": "squared_exponential"} if model["kind"] == "pde" else "identity"
        cfg["measure"]["covariance"] = _check("measure.covariance", default, _COVARIANCE, None)
    if seed_override is not None:
        cfg["sampling"]["seed"] = _check("--seed", int(seed_override), _is_seed, None)
    return cfg


def _object(where, spec, fields):
    """``spec`` checked field by field against ``fields``, defaults filled."""
    kinds = fields.get("kind")
    if isinstance(kinds, dict):
        kind = spec.get("kind")
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigError(f"{where}.kind must be one of {', '.join(kinds)}, not {kind!r}")
        fields = {"kind": (kind, None, _REQUIRED), **kinds[kind]}
    # a misspelt key would otherwise fall back to its default without a word
    unknown = sorted(set(spec) - set(fields))
    if unknown:
        raise ConfigError(f"unknown {where or 'config'} key(s): {', '.join(map(repr, unknown))}")
    out = {}
    for key, (types, low, default) in fields.items():
        name = f"{where}.{key}" if where else key
        if key in spec:
            out[key] = _check(name, spec[key], types, low)
        elif default is _REQUIRED:
            raise ConfigError(f"{name} is required")
        elif default is not None:
            out[key] = _check(name, copy.deepcopy(default), types, low)
    return out


def _check(name, value, types, low):
    """``value`` if it has one of ``types``, with an object's defaults filled."""
    types = types if isinstance(types, tuple) else (types,)
    for t in types:
        if isinstance(t, dict) and isinstance(value, dict):
            return _object(name, value, t)
        if t(value, low) if callable(t) else value == t:
            return value
    allowed = [
        "a JSON object" if isinstance(t, dict) else _TYPE_NAMES[t] if callable(t) else json.dumps(t)
        for t in types
    ]
    bound = "" if low is None else f" >= {low}"
    raise ConfigError(f"{name} must be {' or '.join(allowed)}{bound}")


def config_hash(cfg):
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("ascii")).hexdigest()[:16]


def _random_matrix(shape, seed, scale=1.0):
    stream = SampleStream(seed, stream_id=_TAG_RANDOM_MODEL)
    return scale * stream.normal_matrix(*shape)


def _factored(matrix, what):
    """``matrix`` with its root cached, or a ConfigError: a covariance or
    metric the config supplies that is not positive definite is a config
    problem, not a numerical failure later in the run."""
    try:
        matrix.root()
    except (NotPositiveDefinite, NonFiniteInput) as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    return matrix


def _model_matrix(spec):
    """The matrix of a linear or quadratic model: given, or drawn from its seed."""
    if "matrix" in spec:
        return np.asarray(spec["matrix"], dtype=float)
    r = spec["random"]
    if "dim" in r:
        raw = _random_matrix((r["dim"], r["dim"]), r["seed"])
        return raw + raw.T
    return _random_matrix((r["rows"], r["cols"]), r["seed"], float(r["scale"]))


def build_model(cfg):
    spec = cfg["model"]
    kind = spec["kind"]
    try:
        if kind == "linear":
            matrix = _model_matrix(spec)
            metric = spec["output_metric"]
            if not isinstance(metric, list):
                return LinearModel(matrix)
            metric = _factored(SpdMatrix(metric), "model.output_metric")
            return LinearModel(matrix, metric)
        if kind == "quadratic":
            return QuadraticFormModel(_model_matrix(spec))
        if kind == "sines":
            return SumOfSinesModel(spec["amplitudes"], spec["frequencies"])
        from .pde import DiffusionModel, Mesh2D

        return DiffusionModel(
            Mesh2D(spec["grid"]), scenario=spec["scenario"],
            alpha=float(spec["alpha"]), beta=float(spec["beta"]),
        )
    except (ValueError, DimensionMismatch) as exc:
        raise ConfigError(f"bad model config: {exc}") from exc


def build_measure(cfg, model):
    spec = cfg["measure"]
    d = model.input_dim
    mean, cov = spec["mean"], spec["covariance"]
    try:
        mean = np.asarray(mean, dtype=float) if isinstance(mean, list) else np.full(d, float(mean))
        if cov == "identity":
            cov = SpdMatrix.identity(d)
        elif isinstance(cov, list):
            cov = _factored(SpdMatrix(cov), "measure.covariance")
        elif cov["kind"] == "diagonal":
            cov = _factored(SpdMatrix.diagonal(cov["values"]), "measure.covariance")
        else:
            from .pde import DiffusionModel, build_field_covariance

            if not isinstance(model, DiffusionModel):
                raise ConfigError("squared_exponential covariance needs the pde model's mesh")
            cov = build_field_covariance(model.mesh, float(cov["lengthscale"]))
        return GaussianMeasure(mean, cov)
    except (ValueError, DimensionMismatch) as exc:
        raise ConfigError(f"bad measure config: {exc}") from exc


def _ranks(cfg, dim):
    ranks = cfg["ranks"]
    if ranks == "all":
        return list(range(1, dim + 1))
    for r in ranks:
        if not 1 <= r <= dim:
            raise ConfigError(f"rank {r} outside [1, {dim}]")
    return ranks


def _groups(cfg, dim):
    groups = cfg["groups"]
    if groups == "singletons":
        return [[i] for i in range(1, dim + 1)]
    for i in (i for g in groups for i in g):
        if not 1 <= i <= dim:
            raise ConfigError(f"group index {i} outside [1, {dim}]")
    return [list(g) for g in groups]


_GENERATOR = f"gradridge {__version__}"


def _metadata_lines(cfg):
    return [
        f"# generator={_GENERATOR}",
        f"# numpy={np.__version__} scipy={scipy.__version__}",
        f"# config_hash={config_hash(cfg)}",
        f"# seed={cfg['sampling']['seed']}",
    ]


def _write_csv(path, cfg, header, rows):
    with open(path, "w", encoding="ascii") as fh:
        for line in _metadata_lines(cfg):
            fh.write(line + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")
    return path


def _cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _prepare(cfg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    model = build_model(cfg)
    mu = build_measure(cfg, model)
    root = SampleStream(cfg["sampling"]["seed"])
    return model, mu, root


def run_error_curve(cfg, out_dir, threads=1):
    """Bound-versus-error curve: per rank the error bounds of the optimal and
    covariance-truncation projectors under the estimated H, per (rank, M) the
    validated Monte Carlo error of the sampled ridge profile.

    Both bound columns are read off the spectra: the optimal bound is the
    generalized eigenvalue tail sum, the K-L bound a tail sum over the
    Karhunen-Loeve basis. The optimal bound estimates the true optimal bound
    and is biased low (Ky Fan), so it is not a certificate. A projector is
    built only for a rank whose ridge is validated.
    """
    model, mu, root = _prepare(cfg, out_dir)
    ranks = _ranks(cfg, mu.dim)
    sampling = cfg["sampling"]
    est = estimate_h(model, mu, root.substream(_TAG_H), sampling["k"], threads=threads)
    pairs = generalized_eig(est.h, mu.cov)
    opt_sq = tail_sums(pairs.values)
    kl_sq = np.full(mu.dim + 1, np.nan)
    if cfg["comparisons"]["kl"]:
        cov_root = mu.cov.root()
        kl_sq = basis_error_bounds(est, cov_root.vectors * np.sqrt(cov_root.values))
    m_list = sampling["m"]
    rows = []
    for r in ranks:
        opt, kl = np.sqrt(opt_sq[r]), np.sqrt(kl_sq[r])
        if not m_list:
            _warn_if_unidentifiable(est, r)
            rows.append((r, 0, opt, kl, float("nan"), float("nan"), float("nan")))
            continue
        p_opt = optimal_projector(est, mu, r, pairs=pairs)
        for m in m_list:
            ridge = build_ridge(
                model, mu, p_opt, root.substream(_TAG_RIDGE).substream(r).substream(m), m
            )
            mse, se = validate_error(
                ridge, model, mu,
                root.substream(_TAG_VALIDATE).substream(r).substream(m),
                sampling["n_val"], threads=threads,
            )
            rows.append((r, m, opt, kl, np.sqrt(mse), mse, se))
    return _write_csv(
        os.path.join(out_dir, "curve.csv"), cfg,
        ["r", "m", "opt_bound", "kl_bound", "rmse", "mse", "mse_se"],
        rows,
    )


def run_projector_audit(cfg, out_dir, threads=1):
    """Bound audit across sample budgets: for each K in the ladder, how the
    K-sample projector scores under the reference H and under its own H, with
    rows past the identifiable rank flagged. Both are tail sums over the
    K-sample eigenpairs, so no projector is built."""
    model, mu, root = _prepare(cfg, out_dir)
    ranks = _ranks(cfg, mu.dim)
    sampling = cfg["sampling"]
    ref = estimate_h(model, mu, root.substream(_TAG_H), sampling["k_ref"], threads=threads)
    rows = []
    for k in sampling["k_ladder"]:
        est = estimate_h(
            model, mu, root.substream(_TAG_AUDIT).substream(k), k, threads=threads
        )
        pairs = generalized_eig(est.h, mu.cov)
        approx_sq = tail_sums(pairs.values)
        ref_sq = basis_error_bounds(ref, pairs.vectors)
        for r in ranks:
            rows.append(
                (k, r, np.sqrt(ref_sq[r]), np.sqrt(approx_sq[r]),
                 int(r > est.rank_upper_bound))
            )
    return _write_csv(
        os.path.join(out_dir, "audit.csv"), cfg,
        ["k", "r", "ref_bound", "approx_bound", "rank_ceiling_exceeded"],
        rows,
    )


def run_spectrum(cfg, out_dir, threads=1):
    """Spectrum table plus the leading generalized and covariance modes.

    ``gen_modes.csv`` and ``kl_modes.csv`` hold one row per input coordinate
    and one column per mode, for the min(6, d) leading modes. For the pde
    model each row also carries its cell center, so the modes plot as fields.
    """
    model, mu, root = _prepare(cfg, out_dir)
    sampling = cfg["sampling"]
    est = estimate_h(model, mu, root.substream(_TAG_H), sampling["k"], threads=threads)
    pairs = generalized_eig(est.h, mu.cov)
    report = spectrum_report(est, mu, pairs=pairs)
    rows = [
        (i + 1, report.eigenvalues[i], report.tail_sums[i + 1],
         report.kl_eigenvalues[i], report.kl_tail_sums[i + 1])
        for i in range(report.dim)
    ]
    out = _write_csv(
        os.path.join(out_dir, "spectrum.csv"), cfg,
        ["index", "lambda", "tail_sum", "kl_sigma2", "kl_tail_sum"],
        rows,
    )
    n_modes = min(6, mu.dim)
    kl_vecs = mu.cov.root().vectors
    header, coords = ["index"], np.empty((mu.dim, 0))
    if cfg["model"]["kind"] == "pde":
        header, coords = header + ["cell_center_x", "cell_center_y"], model.mesh.cell_centers
    header += [f"mode_{i + 1}" for i in range(n_modes)]
    for name, vectors in (("gen_modes.csv", pairs.vectors), ("kl_modes.csv", kl_vecs)):
        _write_csv(
            os.path.join(out_dir, name), cfg, header,
            ((i + 1, *coords[i], *vectors[i, :n_modes]) for i in range(mu.dim)),
        )
    return out


def run_sobol(cfg, out_dir, threads=1):
    """Sobol' indices with derivative-based sandwich bounds, CSV plus JSON."""
    model, mu, root = _prepare(cfg, out_dir)
    sampling = cfg["sampling"]
    report = build_sensitivity_report(
        model, mu, _groups(cfg, mu.dim), root.substream(_TAG_SOBOL),
        n_outer=sampling["sobol_outer"], dgsm_samples=sampling["dgsm_k"], threads=threads,
    )
    rows = list(report.rows())
    out = _write_csv(
        os.path.join(out_dir, "sobol.csv"), cfg, list(rows[0]), [row.values() for row in rows]
    )
    doc = {
        "generator": _GENERATOR,
        "config_hash": config_hash(cfg),
        "seed": cfg["sampling"]["seed"],
    }
    doc.update(report.to_json_dict())
    with open(os.path.join(out_dir, "sobol.json"), "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out
