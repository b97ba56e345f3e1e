"""Dense symmetric linear algebra kernels.

The symmetric eigendecomposition (LAPACK's dsyevr) in float64, the square
root of an SPD matrix that one such decomposition gives, and the generalized
symmetric-definite eigenproblem reduced through that root. Every kernel
rejects NaN or infinite input with NonFiniteInput rather than returning a
silently wrong answer.

The other modules use an SPD matrix (a covariance, a gradient moment H or
an output metric R) and its root only through four queries: ``gram``,
``sq_norms`` and ``diag`` of an SpdMatrix and ``apply`` of an EigenRoot.
Outside this module only ridge reads dense entries, in the H V product of
``basis_error_bounds``, and nothing reads the dense root: R reaches H through
each model's whitened Jacobian rows, the base class's through ``apply`` of
R's root; so another form of either needs new queries here, not a new path
in each caller.

Loading this module does not import scipy, yet it is the one module that
binds scipy's compiled kernels: LAPACK's ``dsyevr`` for ``sym_eig``, and the
banded ``dpbtrf``, ``dpbtrs``, ``dsbmv`` and the CSR product ``csr_matvecs``
that the pde model reads from it, each bound on first use. They are read
from the three extension modules that hold them, ``scipy.linalg._flapack``,
``scipy.linalg._fblas`` and ``scipy.sparse._sparsetools``, loaded on their
own: the ``scipy.linalg`` and ``scipy.sparse`` packages are never imported,
as their ``__init__`` files load much of scipy and numpy that no kernel needs.
The root of an exactly diagonal matrix needs no ``dsyevr``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from . import _blas
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
    "EigenRoot",
    "GeneralizedEigenPairs",
    "PD_FLOOR",
    "sym_eig",
    "generalized_eig",
    "trace_quadratic",
]


# scipy's compiled kernels, each with the extension module that defines it
_SCIPY_KERNELS = {
    "dsyevr": "scipy.linalg._flapack", "dsyevr_lwork": "scipy.linalg._flapack",
    "dpbtrf": "scipy.linalg._flapack", "dpbtrs": "scipy.linalg._flapack",
    "dsbmv": "scipy.linalg._fblas", "csr_matvecs": "scipy.sparse._sparsetools",
}
_load_lock = threading.Lock()


def _extension(name):
    """scipy's extension module ``name``, without running its package's
    ``__init__``: the entry in sys.modules if there is one, else the module
    found in its package's directory and loaded.

    The interpreter initialises such a module once per process and enters it
    in sys.modules as it loads; the entry is taken out again, so that a later
    import of the package imports the module the usual way, which also sets
    it as the package's attribute, and gets the same kernel objects.
    """
    module = sys.modules.get(name)
    if module is None:
        import scipy

        package, _, _ = name.rpartition(".")
        where = os.path.join(scipy.__path__[0], package.rpartition(".")[2])
        spec = importlib.machinery.PathFinder.find_spec(name, [where])
        if spec is None:
            raise ModuleNotFoundError(f"scipy has no module {name!r} in {where}", name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules.pop(name, None)
    return module


def __getattr__(name):
    # PEP 562: a kernel is bound on first use, after the OpenBLAS copy that
    # loading it may bring is pinned; the lock lets threads that reach it
    # together load it once
    if name not in _SCIPY_KERNELS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    with _load_lock:
        if name not in globals():
            kernel = getattr(_extension(_SCIPY_KERNELS[name]), name)
            _blas.pin_new_copies()
            globals()[name] = kernel
    return globals()[name]


def _kernel(name):
    """The kernel ``name`` as bound now, so a patched one is used."""
    return globals().get(name) or __getattr__(name)


def _as_square(a):
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise DimensionMismatch("matrix must have at least one row")
    return m


# An SPD matrix's least eigenvalue must exceed dim * PD_FLOOR * max(diag).
PD_FLOOR = 1e-14


class SpdMatrix:
    """Symmetric matrix wrapper with a write-once square-root cache.

    Construction symmetrizes the input as (A + A^T)/2, so ``entries`` is exactly
    symmetric and read-only afterwards, and decides once whether it is exactly
    diagonal (``is_diagonal``; a NaN counts as nonzero). Positive definiteness
    is not checked here; it surfaces when ``root`` is first called. The root is
    cached on first success and never recomputed, which makes instances safe to
    share between worker threads.
    """

    __slots__ = ("dim", "entries", "is_diagonal", "_root")

    def __init__(self, entries):
        m = _as_square(entries)
        sym = 0.5 * (m + m.T)
        sym.setflags(write=False)
        self.dim = sym.shape[0]
        self.entries = sym
        self.is_diagonal = bool(np.count_nonzero(sym) == np.count_nonzero(np.diag(sym)))
        self._root = None

    def __repr__(self):
        return f"SpdMatrix(dim={self.dim})"

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim))

    @classmethod
    def diagonal(cls, values):
        return cls(np.diag(np.asarray(values, dtype=float)))

    def diag(self):
        """The diagonal entries, as a new array."""
        return np.diag(self.entries).copy()

    def gram(self, b):
        """B^T A B for this matrix A and a d x k array B."""
        return b.T @ self.entries @ b

    def sq_norms(self, rows):
        """|row|_A^2 = row^T A row for every row of ``rows``."""
        return np.einsum("kn,nm,km->k", rows, self.entries, rows)

    def root(self):
        """The EigenRoot of this matrix, computed on the first call and cached.

        An exactly diagonal matrix needs no eigensolver: its values are the
        diagonal sorted descending, tied values in index order, and its
        vectors the identity columns in that order (``sym_eig`` gives the same
        bits, except that it orders the vectors of tied values its own way).
        NaN or infinite entries raise NonFiniteInput; a least eigenvalue at or
        below dim * PD_FLOOR * max(diag) raises NotPositiveDefinite.
        """
        if self._root is None:
            diag = np.diag(self.entries)
            # only sym_eig sees a non-finite entry
            if self.is_diagonal and np.all(np.isfinite(diag)):
                order = np.argsort(-diag, kind="stable")
                values, vectors = diag[order], np.eye(self.dim)[:, order]
            else:
                values, vectors = sym_eig(self.entries)
            floor = self.dim * PD_FLOOR * max(float(np.max(diag)), 0.0)
            if float(values[-1]) <= floor:
                raise NotPositiveDefinite(
                    f"not positive definite: least eigenvalue {values[-1]:.3e} <= {floor:.3e}")
            self._root = EigenRoot(values, vectors)
        return self._root


class EigenRoot:
    """S = Q diag(sqrt(values)) Q^T, the symmetric square root of an SPD
    matrix Sigma = Q diag(values) Q^T, so S S^T = Sigma.

    ``values`` are descending (stable order among ties) and the columns of
    ``vectors`` are the orthonormal Q; both are the Karhunen-Loeve pairs when
    Sigma is a covariance. For a diagonal Sigma, Q is a permutation and S is
    exactly diag(sqrt(diag(Sigma))). All three arrays are read-only.
    """

    __slots__ = ("values", "vectors", "factor")

    def __init__(self, values, vectors):
        factor = (vectors * np.sqrt(values)) @ vectors.T
        for a in (values, vectors, factor):
            a.setflags(write=False)
        self.values = values
        self.vectors = vectors
        self.factor = factor

    def apply(self, xs):
        """S applied to every row of ``xs``: xs S^T, the convention of
        ``RankRProjector.apply``. S is symmetric, so the transpose of
        apply(b^T) is S b."""
        return xs @ self.factor.T

    def whiten(self, b):
        """S^{-1} b, which is also S^{-T} b: Q ((Q^T b) / sqrt(values)).

        Formed on b^T, so the result is Fortran-ordered: the layout of a
        projector's dual picks the BLAS kernel, and so the digits, of ``apply``.
        """
        q = self.vectors
        return (((b.T @ q) / np.sqrt(self.values)) @ q.T).T


def _require_finite(m, what):
    if not np.all(np.isfinite(m)):
        raise NonFiniteInput(f"{what} input has NaN or infinite entries")
    return m


def sym_eig(a):
    """Eigendecomposition of a symmetric matrix (LAPACK ``dsyevr``, called as
    scipy.linalg.eigh calls it by default).

    Returns ``(values, vectors)`` with eigenvalues sorted descending (stable
    order among ties) and orthonormal eigenvectors in the columns of
    ``vectors``. NaN or infinite entries raise NonFiniteInput; a LAPACK
    failure raises NoConvergence.
    """
    m = _as_square(a)
    m = _require_finite(0.5 * (m + m.T), "sym_eig")
    lwork, liwork, _ = _kernel("dsyevr_lwork")(m.shape[0], lower=1)
    values, vectors, _, _, info = _kernel("dsyevr")(
        a=m, compute_v=1, lower=1, lwork=int(lwork), liwork=int(liwork))
    if info != 0:
        raise NoConvergence(f"LAPACK dsyevr failed with info {info}")
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
    """Solve H v = lambda Sigma^{-1} v for SPD Sigma and symmetric PSD H, both
    SpdMatrix.

    With S the root of Sigma (S S^T = Sigma) the problem reduces to the
    ordinary symmetric eigenproblem S^T H S w = lambda w, with v = S w and its
    dual Sigma^{-1} v = S^{-T} w; Sigma^{-1} is never formed.
    Eigenvalues in [-1e-10 * lambda_max, 0) are clamped to zero; anything more
    negative raises NotPositiveSemidefinite; a NaN or infinite entry in either
    matrix raises NonFiniteInput.
    """
    _require_finite(h.entries, "generalized_eig")
    if h.dim != sigma.dim:
        raise DimensionMismatch(f"H is {h.dim}x{h.dim} but Sigma is {sigma.dim}x{sigma.dim}")
    root = sigma.root()
    s = root.factor
    values, w = sym_eig(h.gram(s))
    lam_max = max(float(values[0]), 0.0)
    clamp = 1e-10 * lam_max
    if float(values[-1]) < -clamp:
        raise NotPositiveSemidefinite(
            f"generalized eigenvalue {values[-1]:.3e} below -1e-10 * lambda_max"
        )
    values = np.where(values < 0.0, 0.0, values)
    return GeneralizedEigenPairs(values=values, vectors=s @ w, duals=root.whiten(w))


def trace_quadratic(sigma, h, p):
    """trace(Sigma (I - P^T) H (I - P)) for SpdMatrix Sigma and H and a
    projector P.

    This is the residual gradient energy left outside the range of P. Tiny
    negative round-off (above -1e-10 * ||Sigma||_F * ||H||_F) is clamped to
    zero; anything below that threshold raises NegativeTrace.
    """
    pm = p.matrix if hasattr(p, "matrix") else np.asarray(p, dtype=float)
    d = sigma.dim
    if h.dim != d or pm.shape != (d, d):
        raise DimensionMismatch("sigma, h and p must share one square dimension")
    value = float(np.sum(sigma.entries * h.gram(np.eye(d) - pm)))
    norm = np.linalg.norm
    floor = -1e-10 * float(norm(sigma.entries, "fro")) * float(norm(h.entries, "fro"))
    if value < floor:
        raise NegativeTrace(f"trace {value:.3e} below round-off floor {floor:.3e}")
    return max(value, 0.0)

