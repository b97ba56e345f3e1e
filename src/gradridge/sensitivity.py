"""Vector-valued global sensitivity: Sobol' indices and derivative bounds.

Closed and total Sobol' indices of coordinate groups are estimated by nested
Monte Carlo: outer draws of the input, inner redraws of the coordinates
outside the conditioning group. The derivative-based quantities (the diagonal
of the gradient second-moment matrix) sandwich both indices from the cheap
side: a lower bound on the closed index, an upper bound on the total index.
Everything here requires a diagonal covariance; for correlated inputs the
coordinate groups are not independent factors and the indices lose their
meaning, so the error-curve machinery should be used instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfRange,
    NonDiagonalCovariance,
    NonFiniteInput,
    ZeroVariance,
)
from .measure import sample
from .projector import ORTH_EUCLIDEAN, ORTH_SIGMA_INVERSE, RankRProjector
from .ridge import _require_finite, estimate_h

__all__ = [
    "IndexGroup",
    "GroupEstimate",
    "SensitivityReport",
    "coordinate_projector",
    "sobol_estimates",
    "dgsm",
    "sobol_bounds",
    "build_sensitivity_report",
]

# Inner-loop bias of the nested estimator is exactly (1 + 1/M); dividing it
# out makes the numerators unbiased.
DEFAULT_OUTER = 2000
DEFAULT_INNER = 64


@dataclass(frozen=True, order=True)
class IndexGroup:
    """Sorted tuple of 1-based coordinate indices."""

    indices: tuple

    def __post_init__(self):
        idx = tuple(sorted({int(i) for i in self.indices}))
        if any(i < 1 for i in idx):
            raise IndexOutOfRange(f"indices must be >= 1, got {self.indices}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def coerce(cls, obj):
        if isinstance(obj, cls):
            return obj
        if isinstance(obj, int):
            return cls((obj,))
        return cls(tuple(obj))

    def validate(self, dim):
        if self.indices and self.indices[-1] > dim:
            raise IndexOutOfRange(f"index {self.indices[-1]} exceeds dimension {dim}")
        return self

    def complement(self, dim):
        self.validate(dim)
        mine = set(self.indices)
        return IndexGroup(tuple(i for i in range(1, dim + 1) if i not in mine))

    def mask(self, dim):
        self.validate(dim)
        out = np.zeros(dim, dtype=bool)
        out[[i - 1 for i in self.indices]] = True
        return out

    def label(self):
        return "{" + ",".join(str(i) for i in self.indices) + "}"


def coordinate_projector(tau, dim, sigma=None):
    """Diagonal 0/1 projector keeping the coordinates in ``tau`` (1-based).

    Always euclidean-orthogonal; additionally sigma-inverse-orthogonal when a
    diagonal covariance is supplied, since the projector then commutes with
    Sigma^{-1}. The empty group gives the zero map.
    """
    group = IndexGroup.coerce(tau).validate(dim)
    keep = group.mask(dim)
    flags = [ORTH_EUCLIDEAN]
    if sigma is not None:
        entries = sigma.entries if hasattr(sigma, "entries") else np.asarray(sigma, dtype=float)
        if np.count_nonzero(entries - np.diag(np.diag(entries))) == 0:
            flags.append(ORTH_SIGMA_INVERSE)
    basis = np.eye(dim)[:, keep]
    return RankRProjector(basis, basis, flags=flags)


@dataclass(frozen=True)
class GroupEstimate:
    group: IndexGroup
    s_hat: float
    s_se: float
    t_hat: float
    t_se: float
    total_variance: float
    total_variance_se: float


def _metric_sq_norms(diff, metric):
    return np.einsum("kn,nm,km->k", diff, metric, diff)


def _conditional_residual(model, mu, keep, xs, f_xs, stream, inner):
    """Mean and se of |f(x) - g_hat(x)|^2 with the (1 + 1/M) bias divided out.

    g_hat(x) averages the model over ``inner`` points that take the
    coordinates in the mask ``keep`` from x and redraw the others. A
    non-finite average raises ModelEvaluationFailure at its outer index, and a
    squared residual too large to average raises NonFiniteInput naming it.
    """
    n_outer, d = xs.shape
    ys = sample(mu, stream, n_outer * inner).reshape(n_outer, inner, d)
    pts = np.where(keep, xs[:, None, :], ys)
    vals = model.eval_batch(pts.reshape(-1, d)).reshape(n_outer, inner, model.output_dim)
    ghat = vals.mean(axis=1)
    _require_finite(ghat, 0, "conditional average")
    w = _metric_sq_norms(f_xs - ghat, model.output_metric.entries)
    # np.std squares deviations of w, which stay finite below this limit
    bad = ~(w < np.sqrt(np.finfo(float).max / n_outer))
    if bad.any():
        index = int(np.argmax(bad))
        raise NonFiniteInput(f"squared residual at outer sample {index} is too large to average")
    scale = 1.0 + 1.0 / inner
    mean = float(np.mean(w)) / scale
    se = float(np.std(w, ddof=1) / np.sqrt(n_outer)) / scale
    return mean, se


def sobol_estimates(model, mu, tau, stream, n_outer=DEFAULT_OUTER, m_inner=DEFAULT_INNER):
    """Closed and total Sobol' indices of the group ``tau`` with standard errors.

    Nested pick-freeze sampling: S from conditioning on tau (complement
    redrawn), T from conditioning on the complement (tau redrawn). Requires a
    diagonal covariance. A NaN or inf model output raises
    ModelEvaluationFailure with the index of the outer sample it belongs to.
    """
    if not mu.has_diagonal_cov:
        raise NonDiagonalCovariance(
            "Sobol' indices assume independent inputs; run the error-curve "
            "analysis instead for correlated covariances"
        )
    n_outer = int(n_outer)
    m_inner = int(m_inner)
    if n_outer < 2 or m_inner < 1:
        raise ValueError("need n_outer >= 2 and m_inner >= 1")
    group = IndexGroup.coerce(tau).validate(mu.dim)
    keep = group.mask(mu.dim)

    xs = sample(mu, stream.substream(0), n_outer)
    f_xs = model.eval_batch(xs)
    _require_finite(f_xs, 0, "output")
    metric = model.output_metric.entries
    center = f_xs.mean(axis=0)
    dev = _metric_sq_norms(f_xs - center, metric)
    # Unbiased total variance in the metric norm.
    total_var = float(np.sum(dev) / (n_outer - 1))
    # the delta-method terms below divide by the squared variance
    if total_var * total_var == 0.0:
        raise ZeroVariance(f"model output variance {total_var:g} is zero or too small to square")
    if not np.isfinite(total_var * total_var):
        raise NonFiniteInput(f"model output variance {total_var:g} is too large to square")
    total_se = float(np.std(dev, ddof=1) / np.sqrt(n_outer))

    num_s, se_s_num = _conditional_residual(
        model, mu, keep, xs, f_xs, stream.substream(1), m_inner
    )
    num_t, se_t_num = _conditional_residual(
        model, mu, ~keep, xs, f_xs, stream.substream(2), m_inner
    )

    s_hat = 1.0 - num_s / total_var
    t_hat = num_t / total_var
    # Delta method over the ratio; numerator noise dominates in practice.
    s_se = np.hypot(se_s_num / total_var, num_s * total_se / total_var**2)
    t_se = np.hypot(se_t_num / total_var, num_t * total_se / total_var**2)
    return GroupEstimate(
        group=group,
        s_hat=float(s_hat),
        s_se=float(s_se),
        t_hat=float(t_hat),
        t_se=float(t_se),
        total_variance=total_var,
        total_variance_se=total_se,
    )


def dgsm(model, mu, stream, count, threads=1):
    """Diagonal of the gradient second-moment matrix: the derivative-based
    sensitivity measure of each coordinate."""
    est = estimate_h(model, mu, stream, count, threads=threads)
    return np.diag(est.h.entries).copy()


def sobol_bounds(dgsm_values, mu, tau, total_variance):
    """Derivative-based sandwich for the group ``tau``.

    Returns (s_lower, t_upper, vacuous): a Poincare lower bound on the closed
    index and upper bound on the total index, from coordinate variances times
    diagonal gradient energies. ``vacuous`` marks a negative lower bound,
    which is reported as-is rather than clipped — a vacuous bound is a finding
    about the model, not an error.
    """
    if not mu.has_diagonal_cov:
        raise NonDiagonalCovariance("bounds assume independent inputs")
    if total_variance <= 0.0:
        raise ZeroVariance("total variance must be positive")
    g = np.asarray(dgsm_values, dtype=float).reshape(-1)
    if g.shape[0] != mu.dim:
        raise IndexOutOfRange(f"dgsm vector has length {g.shape[0]}, measure dim {mu.dim}")
    group = IndexGroup.coerce(tau).validate(mu.dim)
    keep = group.mask(mu.dim)
    weights = np.diag(mu.cov.entries) * g
    s_lower = 1.0 - float(np.sum(weights[~keep])) / total_variance
    t_upper = float(np.sum(weights[keep])) / total_variance
    return s_lower, t_upper, s_lower < 0.0


@dataclass(frozen=True)
class SensitivityReport:
    """Per-group indices, their standard errors, and the derivative sandwich."""

    groups: tuple
    estimates: tuple          # GroupEstimate per group
    s_lower: tuple
    t_upper: tuple
    vacuous: tuple
    dgsm_values: np.ndarray
    total_variance: float

    def rows(self):
        for grp, est, lo, up, vac in zip(
            self.groups, self.estimates, self.s_lower, self.t_upper, self.vacuous
        ):
            yield {
                "group": grp.label(),
                "s_hat": est.s_hat,
                "s_se": est.s_se,
                "s_lower": lo,
                "t_hat": est.t_hat,
                "t_se": est.t_se,
                "t_upper": up,
                "vacuous": int(vac),
            }

    def to_json_dict(self):
        return {
            "total_variance": self.total_variance,
            "dgsm": [float(v) for v in self.dgsm_values],
            "groups": [
                {k: (v if isinstance(v, (str, int)) else float(v)) for k, v in row.items()}
                for row in self.rows()
            ],
        }

    def write_json(self, path, metadata=None):
        doc = dict(metadata or {})
        doc.update(self.to_json_dict())
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def build_sensitivity_report(model, mu, groups, stream, n_outer=DEFAULT_OUTER,
                             m_inner=DEFAULT_INNER, dgsm_samples=None, threads=1):
    """Estimate indices and bounds for every group and assemble the report.

    Substreams: tag 0 for the derivative estimate, tags 1.. for the groups in
    the order given, so adding a group never changes the others' draws.
    """
    groups = tuple(IndexGroup.coerce(g).validate(mu.dim) for g in groups)
    if not groups:
        raise ValueError("at least one index group is required")
    if dgsm_samples is None:
        dgsm_samples = DEFAULT_OUTER
    g_vec = dgsm(model, mu, stream.substream(0), dgsm_samples, threads=threads)
    estimates = []
    for k, grp in enumerate(groups):
        estimates.append(
            sobol_estimates(model, mu, grp, stream.substream(k + 1),
                            n_outer=n_outer, m_inner=m_inner)
        )
    total_var = estimates[0].total_variance
    lows, ups, vacs = [], [], []
    for grp in groups:
        lo, up, vac = sobol_bounds(g_vec, mu, grp, total_var)
        lows.append(lo)
        ups.append(up)
        vacs.append(vac)
    return SensitivityReport(
        groups=groups,
        estimates=tuple(estimates),
        s_lower=tuple(lows),
        t_upper=tuple(ups),
        vacuous=tuple(vacs),
        dgsm_values=g_vec,
        total_variance=total_var,
    )
