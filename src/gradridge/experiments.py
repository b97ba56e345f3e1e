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

import hashlib
import json
import os

import numpy as np
import scipy

from . import __version__
from .errors import ConfigError, DimensionMismatch, NonFiniteInput, NotPositiveDefinite
from .linalg import SpdMatrix, cholesky, generalized_eig
from .measure import GaussianMeasure, SampleStream
from .models import LinearModel, QuadraticFormModel, SumOfSinesModel
from .pde import DiffusionModel, Mesh2D, build_field_covariance
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

_DEFAULT_SAMPLING = {
    "k": 4000,
    "k_ref": 4000,
    "k_ladder": [10, 30, 100, 400],
    "m": [1, 5, 20],
    "n_val": 300,
    "sobol_outer": 2000,
    "sobol_inner": 64,
    "dgsm_k": 2000,
    "seed": 20260822,
}

# Smallest value each sampling count accepts: a Monte Carlo standard error
# needs two validation samples and the nested Sobol' estimator two outer ones.
_SAMPLING_MIN = {
    "k": 1,
    "k_ref": 1,
    "n_val": 2,
    "sobol_outer": 2,
    "sobol_inner": 1,
    "dgsm_k": 1,
    "seed": 0,
}

# The keys each config section accepts; any other key is a ConfigError, since
# a misspelt one would otherwise fall back to its default without a word.
_TOP_KEYS = ("model", "measure", "sampling", "ranks", "groups", "comparisons")
_MODEL_KEYS = {
    "linear": ("kind", "matrix", "random", "output_metric"),
    "quadratic": ("kind", "matrix", "random"),
    "sines": ("kind", "amplitudes", "frequencies"),
    "pde": ("kind", "grid", "scenario", "alpha", "beta"),
}
_PDE_DEFAULTS = {"grid": 12, "scenario": "full_field", "alpha": 1.0, "beta": 1.0}
_LENGTHSCALE = 0.15
_RANDOM_KEYS = {"linear": ("rows", "cols", "seed", "scale"), "quadratic": ("dim", "seed")}
_COVARIANCE_KEYS = {"squared_exponential": ("kind", "lengthscale"), "diagonal": ("kind", "values")}

# Stream tags, one per sampling role. Routines never share a tag, so adding a
# stage cannot shift the draws of another.
_TAG_H = 1
_TAG_RIDGE = 2
_TAG_VALIDATE = 3
_TAG_AUDIT = 4
_TAG_SOBOL = 5
_TAG_RANDOM_MODEL = 6


def resolve_config(raw, seed_override=None):
    """Fill defaults and normalize a raw config dict. Raises ConfigError on
    anything malformed; the result is what gets hashed into output headers."""
    _reject_unknown("config", raw, _TOP_KEYS)
    sections = {key: raw.get(key, {}) for key in ("model", "measure", "sampling", "comparisons")}
    for key, section in sections.items():
        if not isinstance(section, dict):
            raise ConfigError(f"{key} must be a JSON object")
    kind = sections["model"].get("kind")
    if kind is None:
        raise ConfigError("model.kind is required")
    if not isinstance(kind, str) or kind not in _MODEL_KEYS:
        raise ConfigError(f"unknown model.kind {kind!r}")
    for key, allowed in (("model", _MODEL_KEYS[kind]), ("measure", ("mean", "covariance")),
                         ("sampling", _DEFAULT_SAMPLING), ("comparisons", ("kl",))):
        _reject_unknown(key, sections[key], allowed)
    cfg = {
        "model": dict(sections["model"]),
        "measure": dict(sections["measure"]),
        "sampling": dict(_DEFAULT_SAMPLING, **sections["sampling"]),
        "ranks": raw.get("ranks", "all"),
        "groups": raw.get("groups", "singletons"),
        "comparisons": dict({"kl": True}, **sections["comparisons"]),
    }
    _fill_model_defaults(kind, cfg["model"], cfg["measure"])
    if not isinstance(cfg["comparisons"]["kl"], bool):
        raise ConfigError("comparisons.kl must be true or false")
    if seed_override is not None:
        cfg["sampling"]["seed"] = int(seed_override)
    for key, low in _SAMPLING_MIN.items():
        if not _is_int(cfg["sampling"][key]) or cfg["sampling"][key] < low:
            raise ConfigError(f"sampling.{key} must be an integer >= {low}")
    for key in ("m", "k_ladder"):
        value = cfg["sampling"][key]
        if not isinstance(value, list) or not all(_is_int(v) and v >= 1 for v in value):
            raise ConfigError(f"sampling.{key} must be a list of positive integers")
    # an empty m means bounds only; an empty ladder or rank list means no rows
    if not cfg["sampling"]["k_ladder"]:
        raise ConfigError("sampling.k_ladder must not be empty")
    ranks = cfg["ranks"]
    if ranks != "all" and not (isinstance(ranks, list) and ranks and all(map(_is_int, ranks))):
        raise ConfigError("ranks must be 'all' or a non-empty list of integers")
    return cfg


def _fill_model_defaults(kind, model, measure):
    """Spell out, in place, every model and measure default the builders
    apply, so two configs that build the same run hash alike."""
    if kind == "pde":
        for key, value in _PDE_DEFAULTS.items():
            model.setdefault(key, value)
    if kind == "linear":
        model.setdefault("output_metric", "identity")
        if isinstance(model.get("random"), dict):
            model["random"] = dict({"scale": 1.0}, **model["random"])
    measure.setdefault("mean", 0.0)
    measure.setdefault(
        "covariance", {"kind": "squared_exponential"} if kind == "pde" else "identity"
    )
    cov = measure["covariance"]
    if isinstance(cov, dict) and cov.get("kind") == "squared_exponential":
        measure["covariance"] = dict({"lengthscale": _LENGTHSCALE}, **cov)


def _reject_unknown(section, spec, allowed):
    """ConfigError unless ``spec`` is an object whose keys are all in ``allowed``."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{section} must be a JSON object")
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {section} key(s): {', '.join(map(repr, unknown))}")


def _is_int(value):
    # JSON true/false arrive as bool, which Python counts as int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return _is_int(value) or isinstance(value, float)


def config_hash(cfg):
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("ascii")).hexdigest()[:16]


def _random_matrix(shape, seed, scale=1.0):
    stream = SampleStream(seed, stream_id=_TAG_RANDOM_MODEL)
    return scale * stream.normal_matrix(*shape)


def _integer(spec, key, section):
    """``spec[key]`` if it is a JSON integer; a string or a float that would
    convert is a ConfigError, since it would hash apart from the integer."""
    value = spec[key]
    if not _is_int(value):
        raise ConfigError(f"{section}.{key} must be an integer")
    return value


def _number(spec, key, section):
    """``spec[key]`` as a float if it is a JSON number, not a string or a boolean."""
    value = spec[key]
    if not _is_number(value):
        raise ConfigError(f"{section}.{key} must be a number")
    return float(value)


def _factored(matrix, what):
    """``matrix`` with its Cholesky factor cached, or a ConfigError: a
    covariance or metric the config supplies that is not positive definite is
    a config problem, not a numerical failure later in the run."""
    try:
        cholesky(matrix)
    except (NotPositiveDefinite, NonFiniteInput) as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    return matrix


def _model_matrix(kind, spec):
    """The matrix of a linear or quadratic model: given, or drawn from its seed."""
    if ("matrix" in spec) == ("random" in spec):
        raise ConfigError(f"{kind} model needs exactly one of matrix and random")
    if "matrix" in spec:
        return np.asarray(spec["matrix"], dtype=float)
    r = spec["random"]
    _reject_unknown("model.random", r, _RANDOM_KEYS[kind])
    seed = _integer(r, "seed", "model.random")
    if kind == "linear":
        shape = (_integer(r, "rows", "model.random"), _integer(r, "cols", "model.random"))
        return _random_matrix(shape, seed, _number(r, "scale", "model.random"))
    dim = _integer(r, "dim", "model.random")
    raw = _random_matrix((dim, dim), seed)
    return raw + raw.T


def build_model(cfg):
    spec = cfg["model"]
    kind = spec["kind"]
    try:
        if kind == "linear":
            matrix = _model_matrix(kind, spec)
            metric = spec["output_metric"]
            if metric in (None, "identity"):
                return LinearModel(matrix)
            metric = _factored(SpdMatrix(np.asarray(metric, dtype=float)), "model.output_metric")
            return LinearModel(matrix, metric)
        if kind == "quadratic":
            return QuadraticFormModel(_model_matrix(kind, spec))
        if kind == "sines":
            return SumOfSinesModel(spec["amplitudes"], spec["frequencies"])
        return DiffusionModel(
            Mesh2D(_integer(spec, "grid", "model")),
            scenario=spec["scenario"],
            alpha=_number(spec, "alpha", "model"),
            beta=_number(spec, "beta", "model"),
        )
    except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
        raise ConfigError(f"bad model config: {exc}") from exc


def build_measure(cfg, model):
    spec = cfg["measure"]
    d = model.input_dim
    cov = spec["covariance"]
    try:
        mean = spec["mean"]
        if _is_number(mean):
            mean = np.full(d, float(mean))
        else:
            mean = np.asarray(mean, dtype=float)
        if cov == "identity":
            cov = SpdMatrix.identity(d)
        elif isinstance(cov, dict):
            kind = cov.get("kind")
            if kind not in _COVARIANCE_KEYS:
                raise ConfigError(f"unknown covariance kind {kind!r}")
            _reject_unknown("measure.covariance", cov, _COVARIANCE_KEYS[kind])
            if kind == "squared_exponential":
                if not isinstance(model, DiffusionModel):
                    raise ConfigError(
                        "squared_exponential covariance needs the pde model's mesh"
                    )
                lengthscale = _number(cov, "lengthscale", "measure.covariance")
                cov = build_field_covariance(model.mesh, lengthscale)
            else:
                cov = SpdMatrix.diagonal(np.asarray(cov["values"], dtype=float))
                cov = _factored(cov, "measure.covariance")
        else:
            cov = _factored(SpdMatrix(np.asarray(cov, dtype=float)), "measure.covariance")
        return GaussianMeasure(mean, cov)
    except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
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
    if not isinstance(groups, list) or not groups or not all(isinstance(g, list) for g in groups):
        raise ConfigError("groups must be a non-empty list of index lists or 'singletons'")
    for i in (i for g in groups for i in g):
        if not _is_int(i) or not 1 <= i <= dim:
            raise ConfigError(f"group index {i!r} is not an integer in [1, {dim}]")
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
    """Bound-versus-error curve: per rank the certified bounds for the optimal
    and covariance-truncation projectors, per (rank, M) the validated Monte
    Carlo error of the sampled ridge profile.

    Both bound columns are read off the spectra: the optimal bound is the
    generalized eigenvalue tail sum, the K-L bound a tail sum over the
    Karhunen-Loeve basis. A projector is built only for a rank whose ridge
    is validated.
    """
    model, mu, root = _prepare(cfg, out_dir)
    ranks = _ranks(cfg, mu.dim)
    sampling = cfg["sampling"]
    est = estimate_h(model, mu, root.substream(_TAG_H), sampling["k"], threads=threads)
    pairs = generalized_eig(est.h, mu.cov)
    opt_sq = tail_sums(pairs.values)
    kl_sq = np.full(mu.dim + 1, np.nan)
    if cfg["comparisons"]["kl"]:
        kl_vals, kl_vecs = mu._kl_eig()
        kl_sq = basis_error_bounds(est, kl_vecs * np.sqrt(kl_vals))
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
    _, kl_vecs = mu._kl_eig()
    header, coords = ["index"], np.empty((mu.dim, 0))
    if isinstance(model, DiffusionModel):
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
        n_outer=sampling["sobol_outer"], m_inner=sampling["sobol_inner"],
        dgsm_samples=sampling["dgsm_k"], threads=threads,
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
