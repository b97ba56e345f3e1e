"""Rank-r projectors held as their two factors.

A projector here is P = U W^T with d x r factors and W^T U = I: U spans the
range and the kernel is span(W)^perp. ``apply`` costs O(d r) per point.

The covariance Sigma comes in as an SpdMatrix and is used only through its
root S: ``apply`` and ``whiten`` on a d x r basis, and the Karhunen-Loeve
values for a norm. No function here reads a dense d x d array, and outside
this module only the closed-form oracles form a projector's dense matrix:
``trace_quadratic`` and every other caller use ``apply`` or the factors.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotSigmaOrthogonal, RankOutOfRange

__all__ = [
    "RankRProjector",
    "sigma_inverse_projector",
    "euclidean_projector",
    "sigma_orthogonalize",
    "random_sigma_orthogonal_projector",
    "require_sigma_orthogonal",
]

class RankRProjector:
    """P = basis @ dual.T from two d x r factors.

    Construction verifies dual^T basis = I (to 1e-9 Frobenius, scaled by the
    factors' norms for ill-conditioned bases), which makes P idempotent of
    rank r. For rank 0 both factors are (d, 0) and P is exactly zero.
    """

    __slots__ = ("basis", "dual")

    def __init__(self, basis, dual):
        u = np.array(basis, dtype=float)
        w = np.array(dual, dtype=float)
        if u.ndim != 2 or u.shape != w.shape or u.shape[1] > u.shape[0]:
            raise DimensionMismatch(f"factors {u.shape} and {w.shape} are not both d x r, r <= d")
        scale = max(1.0, float(np.linalg.norm(u) * np.linalg.norm(w)))
        if np.linalg.norm(w.T @ u - np.eye(u.shape[1])) > 1e-9 * scale:
            raise ValueError("dual^T basis is not the identity, so P is not a projector")
        u.setflags(write=False)
        w.setflags(write=False)
        self.basis = u
        self.dual = w

    @property
    def dim(self):
        return self.basis.shape[0]

    @property
    def rank(self):
        return self.basis.shape[1]

    @property
    def matrix(self):
        """The dense d x d matrix, formed on every access; for the
        closed-form oracles."""
        return self.basis @ self.dual.T

    def apply(self, xs):
        """P applied to every row of ``xs`` (xs P^T), or to a single vector."""
        return (xs @ self.dual) @ self.basis.T

    def __repr__(self):
        return f"RankRProjector(dim={self.dim}, rank={self.rank})"

    @classmethod
    def zero(cls, dim):
        empty = np.zeros((dim, 0))
        return cls(empty, empty)

    @classmethod
    def identity(cls, dim):
        eye = np.eye(dim)
        return cls(eye, eye)


def sigma_inverse_projector(basis, sigma):
    """Projector with range span(basis) that is orthogonal in the
    Sigma^{-1} inner product: P = B (B^T Sigma^{-1} B)^{-1} B^T Sigma^{-1}."""
    b = np.asarray(basis, dtype=float)
    if b.ndim != 2 or b.shape[0] != sigma.dim:
        raise DimensionMismatch(f"basis shape {b.shape} incompatible with dim {sigma.dim}")
    root = sigma.root()
    return _from_whitened(np.linalg.qr(root.whiten(b))[0], root)


def _from_whitened(q, root):
    """The Sigma^{-1}-orthogonal projector onto span(S q), for the root S of
    Sigma and a whitened basis q with orthonormal columns: P = (S q)(S^{-T} q)^T."""
    return RankRProjector(root.apply(q.T).T, root.whiten(q))


def euclidean_projector(basis):
    """Symmetric projector Q Q^T, with Q the orthonormalized columns of
    ``basis``."""
    u = np.asarray(basis, dtype=float)
    if u.ndim != 2:
        raise DimensionMismatch("basis must be 2-d")
    u = np.linalg.qr(u)[0]
    return RankRProjector(u, u)


def sigma_orthogonalize(p, sigma):
    """The Sigma^{-1}-orthogonal projector with the same kernel as ``p``.

    Conditional expectations depend on a projector only through its kernel, so
    this is the canonical representative to hand to the ridge constructor when
    ``p`` came from somewhere else (a truncated covariance eigenbasis, say).
    The kernel of U W^T is span(W)^perp, whose Sigma^{-1}-orthogonal
    complement is span(Sigma W): that is the range of the result.
    """
    d = sigma.dim
    if p.dim != d:
        raise DimensionMismatch(f"projector dim {p.dim} vs dim {d}")
    if p.rank == d:
        return RankRProjector.identity(d)
    # span(Sigma W) whitens to S^{-1} Sigma W = S W
    root = sigma.root()
    return _from_whitened(np.linalg.qr(root.apply(p.dual.T).T)[0], root)


def random_sigma_orthogonal_projector(dim, rank, sigma, rng):
    """Random rank-``rank`` Sigma^{-1}-orthogonal projector, for audits.

    ``rng`` is any object with standard_normal; a numpy Generator works, as
    does a SampleStream.
    """
    if not 1 <= rank <= dim:
        raise RankOutOfRange(f"rank {rank} outside [1, {dim}]")
    if sigma.dim != dim:
        raise DimensionMismatch(f"sigma dim {sigma.dim} vs dim {dim}")
    g = np.asarray(rng.standard_normal(dim * rank), dtype=float).reshape(dim, rank)
    return _from_whitened(np.linalg.qr(g)[0], sigma.root())


def require_sigma_orthogonal(p, sigma):
    """NotSigmaOrthogonal unless P^T Sigma^{-1} = Sigma^{-1} P, which for
    P = U W^T with W^T U = I means Sigma W = U (W^T Sigma W). Tested to 1e-9
    of |Sigma| |W| + |U| |W^T Sigma W| (Frobenius), as the constructor tests
    W^T U = I. Sigma W is formed as S (S W) from the root S, and |Sigma| as
    the norm of its eigenvalues."""
    if not isinstance(p, RankRProjector):
        raise NotSigmaOrthogonal(f"expected a RankRProjector, not {type(p).__name__}")
    if sigma.dim != p.dim:
        raise DimensionMismatch(f"projector dim {p.dim} vs covariance dim {sigma.dim}")
    root = sigma.root()
    sw = root.apply(root.apply(p.dual.T)).T
    gram = p.dual.T @ sw
    norm = np.linalg.norm
    scale = norm(root.values) * norm(p.dual) + norm(p.basis) * norm(gram)
    if norm(sw - p.basis @ gram) > 1e-9 * scale:
        raise NotSigmaOrthogonal(
            "projector is not sigma-inverse-orthogonal for this covariance; "
            "use sigma_orthogonalize to convert one with the right kernel"
        )
