"""Vector-valued global sensitivity: Sobol' indices and derivative bounds.

Closed and total Sobol' indices of coordinate groups are estimated by
pick-freeze sampling on one shared base (Saltelli et al. 2010): two
independent n-row draws A and B of the input and, for each group tau, the
points A_B^tau that take the tau coordinates from B and the rest from A. Both
indices use Jansen's form, with squares taken in the output metric R as
Gamboa, Janon, Klein & Lagnoux (2014) do for vector outputs:

    S_tau = 1 - mean(|f(B) - f(A_B^tau)|_R^2 / 2) / V
    T_tau =     mean(|f(A) - f(A_B^tau)|_R^2 / 2) / V

V is the unbiased R-norm variance of f over the 2n rows of A and B, shared by
every group, so G groups cost n (2 + G) model evaluations. The
derivative-based quantities (the diagonal of the gradient second-moment
matrix) sandwich both indices from the cheap side: a lower bound on the
closed index, an upper bound on the total index. Everything here requires a
diagonal covariance; for correlated inputs the coordinate groups are not
independent factors and the indices lose their meaning, so the error-curve
machinery should be used instead.

The base is never held whole. Its rows go through ridge's block walk, CHUNK
rows of A and of B at a time, each read where it sits in one long draw, and a
block keeps only f(A), f(B) and two scalars per row and group. So neither the
block size nor the thread count changes a digit. ``threads`` workers evaluate
the blocks, which merge in block order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfRange,
    ModelEvaluationFailure,
    NonDiagonalCovariance,
    NonFiniteInput,
    ZeroVariance,
)
from .projector import RankRProjector
from .ridge import _eval_rows, _map_draws, _require_model_dim, estimate_h

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

DEFAULT_OUTER = 2000


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

    def mask(self, dim):
        self.validate(dim)
        out = np.zeros(dim, dtype=bool)
        out[[i - 1 for i in self.indices]] = True
        return out

    def label(self):
        return "{" + ",".join(str(i) for i in self.indices) + "}"


def coordinate_projector(tau, dim):
    """Diagonal 0/1 projector keeping the coordinates in ``tau`` (1-based).

    Symmetric, and sigma-inverse-orthogonal for any diagonal covariance,
    which it commutes with. The empty group gives the zero map.
    """
    keep = IndexGroup.coerce(tau).validate(dim).mask(dim)
    basis = np.eye(dim)[:, keep]
    return RankRProjector(basis, basis)


@dataclass(frozen=True)
class GroupEstimate:
    group: IndexGroup
    s_hat: float
    s_se: float
    t_hat: float
    t_se: float
    total_variance: float
    total_variance_se: float


def _pick_freeze(model, mu, groups, stream, n, threads):
    """A GroupEstimate per group in ``groups``, all from one base of ``n``
    rows: A from ``stream.substream(0)``, B from ``stream.substream(1)``.

    A non-finite output, or a model call that raises, raises
    ModelEvaluationFailure at its base row, and a squared term too large to
    average raises NonFiniteInput naming it.
    Standard errors come from the delta method on the per-row terms, with
    each numerator's covariance with the shared variance.
    """
    if not mu.has_diagonal_cov:
        raise NonDiagonalCovariance(
            "Sobol' indices assume independent inputs; run the error-curve "
            "analysis instead for correlated covariances"
        )
    _require_model_dim(model, mu)
    n = int(n)
    if n < 2:
        raise ValueError("need n_outer >= 2")
    masks = [g.mask(mu.dim) for g in groups]
    shape = (model.output_dim,)
    sq_norms = model.output_metric.sq_norms

    def one_block(lo, a, b):
        f_a = _eval_rows(model.eval_batch, a, lo, shape)
        f_b = _eval_rows(model.eval_batch, b, lo, shape)
        finite = np.isfinite(f_a).all(axis=1) & np.isfinite(f_b).all(axis=1)
        # per group: |f(B) - f(A_B)|^2 / 2, then |f(A) - f(A_B)|^2 / 2
        halves = np.empty((len(masks), 2, a.shape[0]))
        for g, mask in enumerate(masks):
            f_ab = _eval_rows(model.eval_batch, np.where(mask, b, a), lo, shape)
            finite &= np.isfinite(f_ab).all(axis=1)
            if finite.all():
                halves[g, 0] = 0.5 * sq_norms(f_b - f_ab)
                halves[g, 1] = 0.5 * sq_norms(f_a - f_ab)
        if not finite.all():
            raise ModelEvaluationFailure(lo + int(np.argmin(finite)), "output")
        return f_a, f_b, halves

    blocks = _map_draws(mu, (stream.substream(0), stream.substream(1)), n, one_block, threads)
    f = np.concatenate([blk[0] for blk in blocks] + [blk[1] for blk in blocks])
    halves = np.concatenate([blk[2] for blk in blocks], axis=2)
    dev = sq_norms(f - f.mean(axis=0))
    # Unbiased total variance in the metric norm, pooled over A and B.
    total_var = float(np.sum(dev) / (2 * n - 1))
    # the standard errors below divide by the squared variance
    if total_var * total_var == 0.0:
        raise ZeroVariance(f"model output variance {total_var:g} is zero or too small to square")
    if not np.isfinite(total_var * total_var):
        raise NonFiniteInput(f"model output variance {total_var:g} is too large to square")
    per_row = 0.5 * (dev[:n] + dev[n:])
    # np.mean and np.std stay finite on terms below this limit
    bad = ~(np.maximum(halves.max(axis=(0, 1)), per_row) < np.sqrt(np.finfo(float).max / n))
    if bad.any():
        index = int(np.argmax(bad))
        raise NonFiniteInput(f"squared term at base sample {index} is too large to average")
    total_se = float(np.std(per_row, ddof=1) / np.sqrt(n))

    def ratio(terms):
        """mean(terms) / V and its standard error: ratio r has influence
        (term - r * per_row) / V per row."""
        r = float(np.mean(terms)) / total_var
        return r, float(np.std(terms - r * per_row, ddof=1) / np.sqrt(n)) / total_var

    estimates = []
    for group, (closed, total) in zip(groups, halves):
        s_rest, s_se = ratio(closed)
        t_hat, t_se = ratio(total)
        estimates.append(GroupEstimate(group=group, s_hat=1.0 - s_rest, s_se=s_se, t_hat=t_hat,
                                       t_se=t_se, total_variance=total_var,
                                       total_variance_se=total_se))
    return tuple(estimates)


def sobol_estimates(model, mu, tau, stream, n_outer=DEFAULT_OUTER, threads=1):
    """Closed and total Sobol' indices of the group ``tau`` with standard errors.

    Pick-freeze on one base of ``n_outer`` rows; see the module docstring.
    Requires a diagonal covariance. A NaN or inf model output, or a model
    call that raises, raises ModelEvaluationFailure with the index of the base
    row it belongs to.
    ``threads`` workers evaluate the blocks; the result is the same for any
    count.
    """
    group = IndexGroup.coerce(tau).validate(mu.dim)
    return _pick_freeze(model, mu, (group,), stream, n_outer, threads)[0]


def dgsm(model, mu, stream, count, threads=1):
    """Diagonal of the gradient second-moment matrix: the derivative-based
    sensitivity measure of each coordinate."""
    est = estimate_h(model, mu, stream, count, threads=threads)
    return est.h.diag()


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
    if not 0.0 < total_variance < np.inf:
        raise ZeroVariance(f"total variance must be finite and positive, not {total_variance!r}")
    g = np.asarray(dgsm_values, dtype=float).reshape(-1)
    if g.shape[0] != mu.dim:
        raise IndexOutOfRange(f"dgsm vector has length {g.shape[0]}, measure dim {mu.dim}")
    group = IndexGroup.coerce(tau).validate(mu.dim)
    keep = group.mask(mu.dim)
    weights = mu.cov.diag() * g
    s_lower = 1.0 - float(np.sum(weights[~keep])) / total_variance
    t_upper = float(np.sum(weights[keep])) / total_variance
    return s_lower, t_upper, s_lower < 0.0


@dataclass(frozen=True)
class SensitivityReport:
    """Per-group indices, their standard errors, and the derivative sandwich.

    Every group's indices and bounds divide by the one shared estimate
    ``total_variance``.
    """

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


def build_sensitivity_report(model, mu, groups, stream, n_outer=DEFAULT_OUTER,
                             dgsm_samples=DEFAULT_OUTER, threads=1):
    """Estimate indices and bounds for every group and assemble the report.

    Substreams: tag 0 for the derivative estimate, tag 1 for the base that
    every group shares, so adding a group never changes the others' numbers.
    """
    groups = tuple(IndexGroup.coerce(g).validate(mu.dim) for g in groups)
    if not groups:
        raise ValueError("at least one index group is required")
    g_vec = dgsm(model, mu, stream.substream(0), dgsm_samples, threads=threads)
    estimates = _pick_freeze(model, mu, groups, stream.substream(1), n_outer, threads)
    total_var = estimates[0].total_variance
    lows, ups, vacs = zip(*(sobol_bounds(g_vec, mu, grp, total_var) for grp in groups))
    return SensitivityReport(
        groups=groups,
        estimates=estimates,
        s_lower=lows,
        t_upper=ups,
        vacuous=vacs,
        dgsm_values=g_vec,
        total_variance=total_var,
    )
