"""Dense symmetric linear algebra kernels.

Cholesky (LAPACK dpotrf) and the symmetric eigendecomposition (scipy.linalg.eigh)
in float64, plus the generalized symmetric-definite eigenproblem reduced through
the Cholesky factor of the covariance. Every kernel rejects NaN or infinite
input with NonFiniteInput rather than returning a silently wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh, solve_triangular
from scipy.linalg.lapack import dpotrf

from .errors import (
    DimensionMismatch,
    NegativeTrace,
    NoConvergence,
    NonFiniteInput,
    NotPositiveDefinite,
    NotPositiveSemidefinite,
)

__all__ = [
    "SpdMatrix",
    "GeneralizedEigenPairs",
    "cholesky",
    "sym_eig",
    "generalized_eig",
    "trace_quadratic",
]


def _as_square(a):
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise DimensionMismatch("matrix must have at least one row")
    return m


class SpdMatrix:
    """Symmetric matrix wrapper with a write-once Cholesky cache.

    Construction symmetrizes the input as (A + A^T)/2, so ``entries`` is exactly
    symmetric and read-only afterwards. Positive definiteness is not checked
    here; it surfaces when a Cholesky factor is first requested. The factor is
    cached on first success and never recomputed, which makes instances safe to
    share between worker threads.
    """

    __slots__ = ("dim", "entries", "_chol")

    def __init__(self, entries):
        m = _as_square(entries)
        sym = 0.5 * (m + m.T)
        sym.setflags(write=False)
        self.dim = sym.shape[0]
        self.entries = sym
        self._chol = None

    def __repr__(self):
        return f"SpdMatrix(dim={self.dim})"

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim))

    @classmethod
    def diagonal(cls, values):
        return cls(np.diag(np.asarray(values, dtype=float)))


def _entries(a):
    if isinstance(a, SpdMatrix):
        return a.entries
    m = _as_square(a)
    return 0.5 * (m + m.T)


def _require_finite(m, what):
    if not np.all(np.isfinite(m)):
        raise NonFiniteInput(f"{what} input has NaN or infinite entries")
    return m


def cholesky(a):
    """Lower-triangular L with L @ L.T equal to ``a`` (LAPACK dpotrf).

    ``a`` may be an SpdMatrix (the factor is cached on it) or a plain array.
    A pivot L[j, j]^2 at or below dim * 1e-14 * max(diag), or one where dpotrf
    stops, raises NotPositiveDefinite carrying the first such 0-based index.
    NaN or infinite entries raise NonFiniteInput.
    """
    holder = None
    if isinstance(a, SpdMatrix):
        if a._chol is not None:
            return a._chol
        holder = a
        m = a.entries
    else:
        m = _entries(a)
    _require_finite(m, "cholesky")
    d = m.shape[0]
    tol = d * 1e-14 * max(float(np.max(np.diag(m))), 0.0)
    low, info = dpotrf(m, lower=1, clean=1)
    # On failure dpotrf has factored the leading info - 1 columns; a pivot
    # there may already sit under the floor.
    done = info - 1 if info > 0 else d
    below = np.flatnonzero(np.diag(low)[:done] ** 2 <= tol)
    if below.size:
        raise NotPositiveDefinite(int(below[0]))
    if info > 0:
        raise NotPositiveDefinite(done)
    low.setflags(write=False)
    if holder is not None:
        holder._chol = low
    return low


def sym_eig(a):
    """Eigendecomposition of a symmetric matrix (LAPACK, via scipy.linalg.eigh).

    Returns ``(values, vectors)`` with eigenvalues sorted descending (stable
    order among ties) and orthonormal eigenvectors in the columns of
    ``vectors``. NaN or infinite entries raise NonFiniteInput; a LAPACK
    convergence failure raises NoConvergence.
    """
    m = _require_finite(_entries(a), "sym_eig")
    try:
        values, vectors = eigh(m)
    except LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    order = np.argsort(-values, kind="stable")
    return values[order], vectors[:, order]


@dataclass(frozen=True)
class GeneralizedEigenPairs:
    """Eigenpairs of H v = lambda Sigma^{-1} v.

    ``values`` are sorted descending and nonnegative after round-off clamping;
    column i of ``vectors`` is normalized to v^T Sigma^{-1} v = 1, and
    ``duals`` = Sigma^{-1} ``vectors``, so duals^T vectors = I.
    """

    values: np.ndarray
    vectors: np.ndarray
    duals: np.ndarray

    @property
    def dim(self):
        return self.values.shape[0]


def generalized_eig(h, sigma):
    """Solve H v = lambda Sigma^{-1} v for SPD Sigma and symmetric PSD H.

    With Sigma = L L^T the problem reduces to the ordinary symmetric
    eigenproblem L^T H L w = lambda w, with v = L w and its dual
    Sigma^{-1} v = L^{-T} w; Sigma^{-1} is never formed.
    Eigenvalues in [-1e-10 * lambda_max, 0) are clamped to zero; anything more
    negative raises NotPositiveSemidefinite; a NaN or infinite entry in either
    matrix raises NonFiniteInput.
    """
    hm = _require_finite(_entries(h), "generalized_eig")
    lowt = cholesky(sigma)
    if hm.shape[0] != lowt.shape[0]:
        raise DimensionMismatch(
            f"H is {hm.shape[0]}x{hm.shape[0]} but Sigma is {lowt.shape[0]}x{lowt.shape[0]}"
        )
    reduced = lowt.T @ hm @ lowt
    values, w = sym_eig(reduced)
    lam_max = max(float(values[0]), 0.0)
    clamp = 1e-10 * lam_max
    if float(values[-1]) < -clamp:
        raise NotPositiveSemidefinite(
            f"generalized eigenvalue {values[-1]:.3e} below -1e-10 * lambda_max"
        )
    values = np.where(values < 0.0, 0.0, values)
    duals = solve_triangular(lowt, w, trans="T", lower=True)
    return GeneralizedEigenPairs(values=values, vectors=lowt @ w, duals=duals)


def trace_quadratic(sigma, h, p):
    """trace(Sigma (I - P^T) H (I - P)) for a projector P.

    This is the residual gradient energy left outside the range of P. Tiny
    negative round-off (above -1e-10 * ||Sigma||_F * ||H||_F) is clamped to
    zero; anything below that threshold raises NegativeTrace.
    """
    sm = _entries(sigma)
    hm = _entries(h)
    pm = p.matrix if hasattr(p, "matrix") else np.asarray(p, dtype=float)
    d = sm.shape[0]
    if hm.shape[0] != d or pm.shape != (d, d):
        raise DimensionMismatch("sigma, h and p must share one square dimension")
    resid = np.eye(d) - pm
    inner = resid.T @ hm @ resid
    value = float(np.sum(sm * inner))
    floor = -1e-10 * float(np.linalg.norm(sm, "fro")) * float(np.linalg.norm(hm, "fro"))
    if value < floor:
        raise NegativeTrace(f"trace {value:.3e} below round-off floor {floor:.3e}")
    return max(value, 0.0)

