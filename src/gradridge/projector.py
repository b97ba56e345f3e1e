"""Rank-r projectors with explicit orthogonality bookkeeping.

A projector here is a dense idempotent matrix P together with the basis of its
range and a set of flags recording which inner products it is orthogonal in:
``"sigma-inverse"`` (P^T Sigma^{-1} = Sigma^{-1} P, the property conditional
expectations need) and/or ``"euclidean"`` (P^T = P). Oblique projectors carry
neither flag and are rejected by the operations that require one.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DimensionMismatch, NotSigmaOrthogonal, RankOutOfRange
from .linalg import SpdMatrix, cholesky

__all__ = [
    "ORTH_SIGMA_INVERSE",
    "ORTH_EUCLIDEAN",
    "RankRProjector",
    "sigma_inverse_projector",
    "euclidean_projector",
    "sigma_orthogonalize",
    "random_sigma_orthogonal_projector",
    "require_sigma_orthogonal",
]

ORTH_SIGMA_INVERSE = "sigma-inverse"
ORTH_EUCLIDEAN = "euclidean"


class RankRProjector:
    """Idempotent matrix of known rank with its range basis and flags.

    Construction verifies idempotency (P @ P = P to 1e-9 Frobenius, scaled by
    the squared norm of P for ill-conditioned bases) and that trace(P) matches
    the declared rank to 1e-8. ``basis`` holds rank-many columns spanning the
    range; for rank 0 it is a (d, 0) array and the matrix is exactly zero.
    """

    __slots__ = ("matrix", "rank", "basis", "flags")

    def __init__(self, matrix, rank, basis, flags=()):
        m = np.asarray(matrix, dtype=float)
        d = m.shape[0]
        if m.shape != (d, d):
            raise DimensionMismatch(f"projector matrix must be square, got {m.shape}")
        b = np.asarray(basis, dtype=float).reshape(d, -1)
        if b.shape[1] != rank:
            raise DimensionMismatch(f"basis has {b.shape[1]} columns for rank {rank}")
        if not 0 <= rank <= d:
            raise RankOutOfRange(f"rank {rank} outside [0, {d}]")
        scale = max(1.0, float(np.linalg.norm(m, "fro")))
        if np.linalg.norm(m @ m - m, "fro") > 1e-9 * scale * scale:
            raise ValueError("matrix is not idempotent")
        if abs(float(np.trace(m)) - rank) > 1e-8 * scale:
            raise ValueError(f"trace {np.trace(m):.6e} does not match rank {rank}")
        m = m.copy()
        m.setflags(write=False)
        b = b.copy()
        b.setflags(write=False)
        self.matrix = m
        self.rank = rank
        self.basis = b
        self.flags = frozenset(flags)

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def is_sigma_orthogonal(self):
        return ORTH_SIGMA_INVERSE in self.flags

    @property
    def is_euclidean(self):
        return ORTH_EUCLIDEAN in self.flags

    def __repr__(self):
        return f"RankRProjector(dim={self.dim}, rank={self.rank}, flags={sorted(self.flags)})"

    @classmethod
    def zero(cls, dim):
        # The zero map is orthogonal in every inner product.
        return cls(np.zeros((dim, dim)), 0, np.zeros((dim, 0)),
                   flags=(ORTH_SIGMA_INVERSE, ORTH_EUCLIDEAN))

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim), dim, np.eye(dim),
                   flags=(ORTH_SIGMA_INVERSE, ORTH_EUCLIDEAN))


def sigma_inverse_projector(basis, sigma):
    """Projector with range span(basis) that is orthogonal in the
    Sigma^{-1} inner product: P = B (B^T Sigma^{-1} B)^{-1} B^T Sigma^{-1}.

    When the basis columns are already Sigma^{-1}-orthonormal the middle factor
    is the identity and is skipped.
    """
    if not isinstance(sigma, SpdMatrix):
        sigma = SpdMatrix(sigma)
    b = np.asarray(basis, dtype=float)
    if b.ndim != 2 or b.shape[0] != sigma.dim:
        raise DimensionMismatch(f"basis shape {b.shape} incompatible with dim {sigma.dim}")
    r = b.shape[1]
    if r == 0:
        return RankRProjector.zero(sigma.dim)
    low = cholesky(sigma)
    w = solve_triangular(low, b, lower=True)  # w = L^{-1} B
    gram = w.T @ w
    if np.linalg.norm(gram - np.eye(r), "fro") > 1e-12 * max(1.0, np.linalg.norm(gram, "fro")):
        # General basis: orthonormalize in the whitened coordinates.
        q, _ = np.linalg.qr(w)
        w = q
        b = low @ w
    # P = B (L^{-T} W)^T with W = L^{-1} B, so P x = B W^T L^{-1} x.
    z = solve_triangular(low, w, trans="T", lower=True)  # z = L^{-T} W
    p = b @ z.T
    return RankRProjector(p, r, b, flags=(ORTH_SIGMA_INVERSE,))


def euclidean_projector(basis, extra_flags=()):
    """Symmetric projector U U^T from a matrix whose columns are orthonormalized
    first if they are not already."""
    u = np.asarray(basis, dtype=float)
    if u.ndim != 2:
        raise DimensionMismatch("basis must be 2-d")
    r = u.shape[1]
    if r == 0:
        return RankRProjector.zero(u.shape[0])
    gram = u.T @ u
    if np.linalg.norm(gram - np.eye(r), "fro") > 1e-12 * max(1.0, np.linalg.norm(gram, "fro")):
        u, _ = np.linalg.qr(u)
    return RankRProjector(u @ u.T, r, u, flags=(ORTH_EUCLIDEAN,) + tuple(extra_flags))


def sigma_orthogonalize(p, sigma):
    """The Sigma^{-1}-orthogonal projector with the same kernel as ``p``.

    Conditional expectations depend on a projector only through its kernel, so
    this is the canonical representative to hand to the ridge constructor when
    ``p`` came from somewhere else (a truncated covariance eigenbasis, say).
    """
    if not isinstance(sigma, SpdMatrix):
        sigma = SpdMatrix(sigma)
    d = sigma.dim
    pm = p.matrix if isinstance(p, RankRProjector) else np.asarray(p, dtype=float)
    if pm.shape != (d, d):
        raise DimensionMismatch(f"projector shape {pm.shape} vs dim {d}")
    rank = p.rank if isinstance(p, RankRProjector) else int(round(np.trace(pm)))
    if rank == 0:
        return RankRProjector.zero(d)
    if rank == d:
        return RankRProjector.identity(d)
    low = cholesky(sigma)
    # Kernel of P = range of (I - P); whiten it, then take the orthogonal
    # complement there. Unitary complement in whitened coordinates maps back
    # to the Sigma^{-1}-orthogonal complement.
    resid = np.eye(d) - pm
    u, s, _ = np.linalg.svd(resid)
    kernel = u[:, : d - rank]
    if s[d - rank - 1] <= 1e-10 * max(1.0, s[0]):
        raise RankOutOfRange("projector rank inconsistent with its matrix")
    wk = solve_triangular(low, kernel, lower=True)
    uw, _, _ = np.linalg.svd(wk, full_matrices=True)
    w_range = uw[:, d - rank:]
    return sigma_inverse_projector(low @ w_range, sigma)


def random_sigma_orthogonal_projector(dim, rank, sigma, rng):
    """Random rank-``rank`` Sigma^{-1}-orthogonal projector, for audits.

    ``rng`` is any object with standard_normal; a numpy Generator works, as
    does a SampleStream.
    """
    if not 1 <= rank <= dim:
        raise RankOutOfRange(f"rank {rank} outside [1, {dim}]")
    if not isinstance(sigma, SpdMatrix):
        sigma = SpdMatrix(sigma)
    g = np.asarray(rng.standard_normal(dim * rank), dtype=float).reshape(dim, rank)
    q, _ = np.linalg.qr(g)
    low = cholesky(sigma)
    return sigma_inverse_projector(low @ q, sigma)


def require_sigma_orthogonal(p):
    if not isinstance(p, RankRProjector) or not p.is_sigma_orthogonal:
        raise NotSigmaOrthogonal(
            "operation needs a sigma-inverse-orthogonal projector; "
            "use sigma_orthogonalize to convert one with the right kernel"
        )
