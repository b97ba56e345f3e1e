"""Dense symmetric linear algebra kernels.

The symmetric eigendecomposition (LAPACK's dsyevr) in float64, the square
root of an SPD matrix that one such decomposition gives, and the generalized
symmetric-definite eigenproblem reduced through that root. Every kernel
rejects NaN or infinite input with NonFiniteInput rather than returning a
silently wrong answer.

The other modules use an SPD matrix (a covariance, a gradient moment H or
an output metric R) and its root only through four queries: ``gram``,
``sq_norms`` and ``diag`` of an SpdMatrix and ``apply`` of its root.
Outside this module only ridge reads dense entries, in the H V product of
``basis_error_bounds``, and nothing reads the dense root: R reaches H through
each model's whitened Jacobian rows, the base class's through ``apply`` of
R's root; so another form of either needs new queries here, not a new path
in each caller. A root comes in two forms with the same four members
(``values``, ``vectors``, ``apply`` and ``whiten``), and neither reads H:
the dense EigenRoot of one d x d eigendecomposition, and the KroneckerRoot
of Sigma = K (x) K + nugget I, from one g x g eigendecomposition of K, which
``SpdMatrix.kronecker`` holds and which forms no d x d array until its
``vectors`` are read. ``generalized_eig`` has one reduction for both,
S^T H S and S W through ``apply``, and ``trace_quadratic`` reads Sigma only
through the root and a projector only through its ``apply``.

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
    "KroneckerRoot",
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
    share between worker threads. ``kronecker`` builds the other form, which
    holds its root from the start and forms ``entries`` on their first read.
    """

    __slots__ = ("dim", "is_diagonal", "_entries", "_root")

    def __init__(self, entries):
        m = _as_square(entries)
        sym = 0.5 * (m + m.T)
        sym.setflags(write=False)
        self.dim = sym.shape[0]
        self._entries = sym
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

    @classmethod
    def kronecker(cls, kernel, nugget, dense):
        """Sigma = K (x) K + nugget I for a symmetric g x g ``kernel`` K, held
        as its KroneckerRoot, which is taken here (so a kernel that fails the
        floor raises at once). ``dense`` is a function that returns the dense
        Sigma, called on the first read of ``entries``: ``gram``,
        ``sq_norms`` and ``diag`` get its bits."""
        k = _as_square(kernel)
        self = cls.__new__(cls)
        self._root = KroneckerRoot(k, nugget)
        self.dim = self._root.values.shape[0]
        self.is_diagonal = bool(np.count_nonzero(k) == np.count_nonzero(np.diag(k)))
        self._entries = dense
        return self

    @property
    def entries(self):
        """The dense matrix, read-only; a ``kronecker`` matrix forms it here
        on the first read."""
        if callable(self._entries):
            m = np.asarray(self._entries(), dtype=float)
            m.setflags(write=False)
            self._entries = m
        return self._entries

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
        """The root of this matrix, computed on the first call and cached: an
        EigenRoot, unless the matrix was built by ``kronecker``.

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
            _require_above_floor(values, float(np.max(diag)))
            self._root = EigenRoot(values, vectors)
        return self._root


def _require_above_floor(values, max_diag):
    """NotPositiveDefinite unless the least of the descending ``values``
    exceeds dim * PD_FLOOR * max(diag)."""
    floor = values.shape[0] * PD_FLOOR * max(max_diag, 0.0)
    if float(values[-1]) <= floor:
        raise NotPositiveDefinite(
            f"not positive definite: least eigenvalue {values[-1]:.3e} <= {floor:.3e}")


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


# Rows a KroneckerRoot transforms at once: bounds its scratch array, moves no bit.
_KRONECKER_ROWS = 64


class KroneckerRoot:
    """The symmetric root S of Sigma = K (x) K + nugget I, for a symmetric
    g x g K = q diag(lam) q^T: Sigma has the eigenvectors q_a (x) q_b and the
    values lam_a lam_b + nugget, so one g x g eigendecomposition gives S.

    ``values`` are those values sorted descending with a stable sort, so the
    tied lam_a lam_b = lam_b lam_a come in the order of their index a g + b,
    and the columns of ``vectors`` are the matching q_a (x) q_b, formed on
    their first read and cached; both are read-only. A vector of length
    d = g^2 is a g x g array X, row-major as the cells of a grid, and
    (q (x) q)^T x is q^T X q, so ``apply`` and ``whiten`` act along each
    axis with stacked matmuls, one g x g product per row and at most
    _KRONECKER_ROWS rows at a time: no d x d array is formed, and a row's
    bits do not depend on the rows that come with it. The floor check of
    ``SpdMatrix.root`` applies, with max(diag) = max(diag K)^2 + nugget.
    """

    __slots__ = ("values", "_q", "_qt", "_scale", "_order", "_vectors")

    def __init__(self, kernel, nugget):
        if not np.isfinite(nugget):
            raise NonFiniteInput("Kronecker nugget is NaN or infinite")
        lam, q = sym_eig(kernel)
        grid = np.multiply.outer(lam, lam) + nugget
        order = np.argsort(-grid.ravel(), kind="stable")
        values = grid.ravel()[order]
        diag = np.diag(kernel)
        _require_above_floor(values, float(np.max(np.multiply.outer(diag, diag))) + nugget)
        values.setflags(write=False)
        self.values = values
        self._q = q
        self._qt = np.ascontiguousarray(q.T)
        self._scale = np.sqrt(grid)
        self._order = order
        self._vectors = None

    @property
    def vectors(self):
        """The d x d matrix whose column j is q_a (x) q_b for the pair (a, b)
        of ``values[j]``, formed on the first read."""
        if self._vectors is None:
            q = self._q
            a, b = np.divmod(self._order, q.shape[0])
            vectors = (q[:, None, a] * q[None, :, b]).reshape(self._order.size, -1)
            vectors.setflags(write=False)
            self._vectors = vectors
        return self._vectors

    def _rows(self, xs, op):
        """Each row x of ``xs`` taken to (q (x) q) op(c, scale), with
        c = (q (x) q)^T x and ``op`` multiplying (S) or dividing (S^{-1})
        by sqrt(values) in grid order; a C-ordered result of xs's shape."""
        q, qt, g = self._q, self._qt, self._q.shape[0]
        shape = np.shape(xs)
        xs = np.reshape(xs, (-1, g * g))
        out = np.empty((xs.shape[0], g, g))
        scratch = np.empty((min(xs.shape[0], _KRONECKER_ROWS), g, g))
        for lo in range(0, xs.shape[0], _KRONECKER_ROWS):
            # contiguous operands keep every product on BLAS
            x = np.ascontiguousarray(xs[lo:lo + _KRONECKER_ROWS]).reshape(-1, g, g)
            y, t = out[lo:lo + x.shape[0]], scratch[:x.shape[0]]
            np.matmul(x, q, out=t)
            np.matmul(qt, t, out=y)
            op(y, self._scale, out=y)
            np.matmul(y, qt, out=t)
            np.matmul(q, t, out=y)
        return out.reshape(shape)

    def apply(self, xs):
        """S applied to every row of ``xs``: xs S^T, as ``EigenRoot.apply``."""
        return self._rows(xs, np.multiply)

    def whiten(self, b):
        """S^{-1} b, formed on b^T, so Fortran-ordered as ``EigenRoot.whiten``."""
        return self._rows(np.transpose(b), np.divide).T


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
    dual Sigma^{-1} v = S^{-T} w; Sigma^{-1} is never formed. S is symmetric,
    so S^T H S is S applied to the rows of H and then to the rows of the
    transposed product, and S W is S applied to the rows of W^T, transposed
    (Fortran-ordered): the root's ``apply`` gives both, in either form.
    Eigenvalues in [-1e-10 * lambda_max, 0) are clamped to zero; anything more
    negative raises NotPositiveSemidefinite; a NaN or infinite entry in either
    matrix raises NonFiniteInput.
    """
    _require_finite(h.entries, "generalized_eig")
    if h.dim != sigma.dim:
        raise DimensionMismatch(f"H is {h.dim}x{h.dim} but Sigma is {sigma.dim}x{sigma.dim}")
    root = sigma.root()
    values, w = sym_eig(root.apply(root.apply(h.entries).T))
    lam_max = max(float(values[0]), 0.0)
    clamp = 1e-10 * lam_max
    if float(values[-1]) < -clamp:
        raise NotPositiveSemidefinite(
            f"generalized eigenvalue {values[-1]:.3e} below -1e-10 * lambda_max"
        )
    values = np.where(values < 0.0, 0.0, values)
    return GeneralizedEigenPairs(values=values, vectors=root.apply(w.T).T, duals=root.whiten(w))


def trace_quadratic(sigma, h, p):
    """trace(Sigma (I - P^T) H (I - P)) for SpdMatrix Sigma and H and a
    projector P, any P = U W^T.

    This is the residual gradient energy left outside the range of P. With
    S S^T = Sigma it is trace(B^T H B) for B = (I - P) S, whose transpose
    is the rows of S with P applied and subtracted: Sigma is read only
    through its root and P only through ``apply``, so neither dense matrix
    is formed. Tiny negative round-off (above -1e-10 * ||Sigma||_F * ||H||_F,
    ||Sigma||_F from the root's values) is clamped to zero; anything below
    that threshold raises NegativeTrace.
    """
    d = sigma.dim
    if h.dim != d or p.dim != d:
        raise DimensionMismatch("sigma, h and p must share one square dimension")
    root = sigma.root()
    rows = root.apply(np.eye(d))
    value = float(np.trace(h.gram((rows - p.apply(rows)).T)))
    norm = np.linalg.norm
    floor = -1e-10 * float(norm(root.values)) * float(norm(h.entries, "fro"))
    if value < floor:
        raise NegativeTrace(f"trace {value:.3e} below round-off floor {floor:.3e}")
    return max(value, 0.0)

