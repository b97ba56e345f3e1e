"""Gaussian input measures and deterministic counter-based sampling.

Draws are produced from Philox blocks keyed by (seed, stream_id), converted to
normals with the Box-Muller transform. Both pieces are exact integer/float64
arithmetic with no platform-dependent tables, so a stream replays bit-for-bit
on any host, regardless of thread count or of what other streams were doing in
between. The block counter advances per call, making the whole draw history a
pure function of (seed, stream_id, call sizes).

A measure holds its covariance as an SpdMatrix and uses it only through that
class: draws are m + S z through the root's ``apply``, and ``is_standard``
reads its ``diag``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, RankOutOfRange
from .linalg import SpdMatrix
from .projector import euclidean_projector, require_sigma_orthogonal

__all__ = [
    "SampleStream",
    "GaussianMeasure",
    "sample",
    "kl_projector",
    "conditioned_resample",
    "squared_exponential_covariance",
]

_MASK64 = (1 << 64) - 1


def _mix64(a, b):
    """splitmix64 finalizer over a combined word; derives child stream ids."""
    z = (a * 0x9E3779B97F4A7C15 + b + 0x632BE59BD9B4E019) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


class SampleStream:
    """Counter-based source of standard normal draws.

    Identified by (seed, stream_id); ``counter`` records consumed Philox
    blocks and advances with each call. Substreams derived with ``substream``
    are statistically independent and may be consumed in any order relative
    to the parent or to each other.
    """

    __slots__ = ("seed", "stream_id", "counter")

    def __init__(self, seed, stream_id=0, counter=0):
        seed = int(seed)
        # Philox takes a 64-bit key word: a wider seed would alias a narrower one
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must lie in [0, 2**64), not {seed}")
        self.seed = seed
        self.stream_id = int(stream_id) & _MASK64
        self.counter = int(counter)

    def __repr__(self):
        return f"SampleStream(seed={self.seed}, stream_id={self.stream_id}, counter={self.counter})"

    def substream(self, tag):
        """Independent child stream; deterministic in (stream_id, tag)."""
        return SampleStream(self.seed, _mix64(self.stream_id, int(tag)))

    def ahead(self, count):
        """A copy of this stream that starts ``count`` normals further on: it
        draws what this stream would draw after its next ``count`` normals.
        One Philox block holds four normals, so ``count`` must be a
        nonnegative multiple of 4."""
        count = int(count)
        if count < 0 or count % 4:
            raise ValueError(f"can only skip a nonnegative multiple of 4 normals, not {count}")
        return SampleStream(self.seed, self.stream_id, self.counter + count // 4)

    def standard_normal(self, count):
        """The next ``count`` independent N(0, 1) draws.

        The arrays are formed in place, so the call holds at most 2.5 times
        the bytes it returns. log, cos and sin each read the same input and
        write a fresh contiguous output as the plain expressions
        ``sqrt(-2 log u1) cos(2 pi u2)`` and ``... sin(...)`` would, so the
        draws are those expressions bit for bit."""
        count = int(count)
        if count < 0:
            raise ValueError("count must be nonnegative")
        if count == 0:
            return np.empty(0)
        pairs = (count + 1) // 2
        words = 2 * pairs
        blocks = (words + 3) // 4
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        bits = np.random.Philox(counter=self.counter, key=key)
        raw = bits.random_raw(words)
        self.counter += blocks
        # 53-bit mantissas shifted into (0, 1]; u1 = 1 maps to radius 0.
        raw >>= np.uint64(11)
        u = raw.astype(np.float64)
        del raw
        u += 1.0
        u *= 2.0 ** -53
        radius = np.log(u[0::2])
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle = u[1::2] * (2.0 * np.pi)
        del u
        out = np.empty(words)
        wave = np.cos(angle)
        wave *= radius
        out[0::2] = wave
        np.sin(angle, out=angle)
        angle *= radius
        out[1::2] = angle
        return out[:count]

    def normal_matrix(self, rows, cols):
        return self.standard_normal(rows * cols).reshape(rows, cols)


class GaussianMeasure:
    """N(mean, cov). The one square root of cov, ``cov.root()``, serves
    sampling, whitening and the Karhunen-Loeve pairs.

    The covariance must be strictly positive definite; the root is taken at
    construction so a bad covariance fails fast.
    """

    __slots__ = ("mean", "cov")

    def __init__(self, mean, cov):
        if not isinstance(cov, SpdMatrix):
            cov = SpdMatrix(cov)
        mean = np.asarray(mean, dtype=float).reshape(-1)
        if mean.shape[0] != cov.dim:
            raise DimensionMismatch(
                f"mean has dim {mean.shape[0]} but covariance is {cov.dim}x{cov.dim}"
            )
        mean = mean.copy()
        mean.setflags(write=False)
        self.mean = mean
        self.cov = cov
        cov.root()

    @classmethod
    def standard(cls, dim):
        return cls(np.zeros(dim), SpdMatrix.identity(dim))

    @property
    def dim(self):
        return self.cov.dim

    @property
    def is_standard(self):
        # diag() may form a dense Sigma, so it is read only for a diagonal one
        return bool(self.cov.is_diagonal and np.all(self.mean == 0.0)
                    and np.all(self.cov.diag() == 1.0))

    @property
    def has_diagonal_cov(self):
        return self.cov.is_diagonal


def sample(mu, stream, count):
    """``count`` independent draws of mu as rows: m + S z with z ~ N(0, I)
    and S the root of the covariance. The mean is added in place, so the
    call holds the normals and the draws, and no third array."""
    count = int(count)
    if count < 0:
        raise ValueError("count must be nonnegative")
    z = stream.normal_matrix(count, mu.dim)
    x = mu.cov.root().apply(z)
    x += mu.mean
    return x


def kl_projector(mu, rank):
    """Euclidean-orthogonal projector onto the leading rank-``rank`` eigenspace
    of the covariance — the truncation a Karhunen-Loeve expansion keeps. It
    commutes with the covariance, so it is sigma-inverse-orthogonal too.
    """
    if not 1 <= rank <= mu.dim:
        raise RankOutOfRange(f"rank {rank} outside [1, {mu.dim}]")
    return euclidean_projector(mu.cov.root().vectors[:, :rank])


def conditioned_resample(mu, p, x, stream, count):
    """Draws P x + (I - P) Y_i with Y_i ~ mu.

    This is the sampling form of conditioning on the sigma-algebra of P: the
    component of x in the range of P is frozen, the complement is redrawn.
    Requires a projector that is sigma-inverse-orthogonal for mu's covariance;
    for any other P the result would not be the conditional law.
    """
    require_sigma_orthogonal(p, mu.cov)
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != mu.dim:
        raise DimensionMismatch(f"point has dim {x.shape[0]}, measure has {mu.dim}")
    y = sample(mu, stream, count)
    # grouped so P = I returns x bit-exactly: y - P y is exactly zero there
    return p.apply(x) + (y - p.apply(y))


def squared_exponential_covariance(points, lengthscale, nugget=0.0):
    """Squared-exponential kernel matrix exp(-|s - t|^2 / lengthscale^2) over a
    list of points, plus an optional diagonal nugget."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    scale = float(lengthscale) * float(lengthscale)
    # a square that underflows, is subnormal or overflows divides to inf or NaN
    if not (lengthscale > 0 and np.finfo(float).tiny <= scale <= np.finfo(float).max):
        raise ValueError(
            f"lengthscale must be positive with a normal square, not {float(lengthscale)!r}"
        )
    sq = np.sum(pts * pts, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    np.maximum(d2, 0.0, out=d2)
    # the expanded form leaves round-off where s = t
    np.fill_diagonal(d2, 0.0)
    k = np.exp(-d2 / scale)
    if nugget:
        k[np.diag_indices_from(k)] += nugget
    return SpdMatrix(k)
