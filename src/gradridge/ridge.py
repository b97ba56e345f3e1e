"""Gradient-subspace estimation and ridge profile construction.

The pipeline: estimate the gradient second-moment matrix H by Monte Carlo,
solve the generalized eigenproblem against the input covariance, project onto
the leading eigenvectors, and replace the model by the sampled conditional
expectation along that projector. The eigenvalue tail sums certify the squared
approximation error from above, so rank selection reads straight off the
spectrum.

Sample-driven routines split their work into fixed-size chunks, one derived
substream per chunk, and merge partial results in chunk order. Worker threads
only decide who computes which chunk; results are bit-identical for any
worker count.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    ModelEvaluationFailure,
    NonUniqueProjectorWarning,
    RankOutOfRange,
)
from .linalg import SpdMatrix, generalized_eig, trace_quadratic
from .measure import sample
from .models import LinearModel, VectorValuedModel
from .projector import require_sigma_orthogonal, sigma_inverse_projector

__all__ = [
    "HMatrixEstimate",
    "SpectrumReport",
    "RidgeApproximation",
    "estimate_h",
    "optimal_projector",
    "error_bound",
    "spectrum_report",
    "tail_sums",
    "basis_error_bounds",
    "select_rank",
    "build_ridge",
    "validate_error",
    "m_inflation_check",
]

CHUNK = 512  # fixed chunk size; part of the determinism contract, not tunable
EVAL_BLOCK = 4096  # model points per call in RidgeApproximation.eval_batch


def _chunk_sizes(total):
    """Sizes of the chunks of ``total`` samples; chunk i starts at i * CHUNK."""
    return [min(CHUNK, total - start) for start in range(0, total, CHUNK)]


def _require_finite(values, offset, what):
    """ModelEvaluationFailure at the global index (``offset`` plus the row) of
    the first row of ``values`` holding a NaN or inf."""
    bad = ~np.isfinite(values.reshape(values.shape[0], -1)).all(axis=1)
    if bad.any():
        index = offset + int(np.argmax(bad))
        raise ModelEvaluationFailure(index, f"non-finite {what} at sample {index}")


def _map_chunks(fn, n_chunks, threads):
    """Run fn(chunk_index) for every chunk, results in chunk order."""
    if threads <= 1 or n_chunks <= 1:
        return [fn(i) for i in range(n_chunks)]
    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        return list(pool.map(fn, range(n_chunks)))


@dataclass(frozen=True)
class HMatrixEstimate:
    """Monte Carlo estimate of the gradient second-moment matrix.

    ``rank_upper_bound`` is min(d, samples * output_dim): each sample
    contributes a term of rank at most the output dimension, so the estimate
    cannot exceed that rank no matter what the model does.
    """

    h: SpdMatrix
    samples_used: int
    rank_upper_bound: int


def estimate_h(model, mu, stream, count, threads=1):
    """Average J(X)^T R J(X) over ``count`` draws X ~ mu.

    Accumulation is a running (Welford-style) mean: within a chunk the batch
    Jacobian path averages directly and the per-sample path updates
    m += (term - m) / k; chunks merge by the pooled-mean rule in index order.
    A NaN or inf Jacobian entry raises ModelEvaluationFailure with the index
    of the first such sample.
    """
    count = int(count)
    if count < 1:
        raise ValueError("count must be at least 1")
    d = model.input_dim
    n = model.output_dim
    metric = model.output_metric.entries
    sizes = _chunk_sizes(count)
    has_batch = type(model).jacobian_batch is not VectorValuedModel.jacobian_batch

    def one_chunk(i):
        sub = stream.substream(i)
        xs = sample(mu, sub, sizes[i])
        if has_batch:
            jac = model.jacobian_batch(xs)
            if jac.shape != (sizes[i], n, d):
                raise DimensionMismatch(f"jacobian_batch returned shape {jac.shape}")
            _require_finite(jac, i * CHUNK, "Jacobian")
            weighted = np.einsum("nm,kmi->kni", metric, jac)
            return sizes[i], np.einsum("kni,knj->ij", jac, weighted) / sizes[i]
        mean = np.zeros((d, d))
        for k in range(sizes[i]):
            try:
                jac = np.asarray(model.jacobian(xs[k]), dtype=float).reshape(n, d)
            except Exception as exc:  # noqa: BLE001 - annotate with the sample index
                raise ModelEvaluationFailure(i * CHUNK + k) from exc
            _require_finite(jac[None], i * CHUNK + k, "Jacobian")
            term = jac.T @ metric @ jac
            mean += (term - mean) / (k + 1)
        return sizes[i], mean

    parts = _map_chunks(one_chunk, len(sizes), threads)
    total = 0
    mean = np.zeros((d, d))
    for k, part in parts:
        total += k
        mean += (part - mean) * (k / total)
    return HMatrixEstimate(
        h=SpdMatrix(mean),
        samples_used=count,
        rank_upper_bound=min(d, count * n),
    )


def _h_matrix(h):
    if isinstance(h, HMatrixEstimate):
        return h.h
    if isinstance(h, SpdMatrix):
        return h
    return SpdMatrix(h)


def optimal_projector(h, mu, rank, pairs=None):
    """Rank-``rank`` projector minimizing the certified error bound.

    Spans the leading generalized eigenvectors of (H, Sigma^{-1}); the bound it
    achieves equals the eigenvalue tail sum. Pass precomputed ``pairs`` to
    amortize the eigendecomposition across ranks. Ranks beyond what the sample
    count can identify still return a projector (the basis continues into the
    numerically zero part of the spectrum) but raise a NonUniqueProjectorWarning.
    """
    hm = _h_matrix(h)
    if hm.dim != mu.dim:
        raise DimensionMismatch(f"H is {hm.dim}-dimensional, measure is {mu.dim}")
    if not 1 <= rank <= mu.dim:
        raise RankOutOfRange(f"rank {rank} outside [1, {mu.dim}]")
    if pairs is None:
        pairs = generalized_eig(hm, mu.cov)
    _warn_if_unidentifiable(h, rank, stacklevel=3)
    return sigma_inverse_projector(pairs.vectors[:, :rank], mu.cov)


def _warn_if_unidentifiable(h, rank, stacklevel=2):
    """NonUniqueProjectorWarning when ``rank`` exceeds what the sample count
    behind ``h`` can identify, so the optimal projector is not unique there."""
    if isinstance(h, HMatrixEstimate) and rank > h.rank_upper_bound:
        warnings.warn(
            f"rank {rank} exceeds the identifiable rank {h.rank_upper_bound}; "
            "trailing directions are arbitrary",
            NonUniqueProjectorWarning,
            stacklevel=stacklevel,
        )


def error_bound(p, h, mu):
    """Certified squared-error bound trace(Sigma (I-P)^T H (I-P)) for any
    projector; for the optimal one it equals the eigenvalue tail sum."""
    return trace_quadratic(mu.cov, _h_matrix(h), p)


@dataclass(frozen=True)
class SpectrumReport:
    """Generalized spectrum of (H, Sigma^{-1}) next to the covariance spectrum.

    ``tail_sums[r]`` is the bound certified at rank r, for r = 0..d;
    ``kl_tail_sums`` are the plain covariance tails the Karhunen-Loeve
    truncation leaves behind at the same ranks.
    """

    eigenvalues: np.ndarray
    tail_sums: np.ndarray
    kl_eigenvalues: np.ndarray
    kl_tail_sums: np.ndarray

    @property
    def dim(self):
        return self.eigenvalues.shape[0]


def tail_sums(values):
    """out[r] = sum(values[r:]) for r = 0..len(values), summed smallest first.

    Applied to the generalized eigenvalues this is the certified squared-error
    bound of the optimal rank-r projector, for every r at once.
    """
    rev = np.cumsum(values[::-1])[::-1]
    return np.concatenate([rev, [0.0]])


def spectrum_report(h, mu, pairs=None):
    hm = _h_matrix(h)
    if pairs is None:
        pairs = generalized_eig(hm, mu.cov)
    kl_values, _ = mu._kl_eig()
    return SpectrumReport(
        eigenvalues=pairs.values.copy(),
        tail_sums=tail_sums(pairs.values),
        kl_eigenvalues=kl_values.copy(),
        kl_tail_sums=tail_sums(kl_values),
    )


def basis_error_bounds(h, vectors):
    """error_bound of the projector onto the first r columns of ``vectors``,
    for r = 0..d, without forming it.

    For a complete Sigma^{-1}-orthonormal basis (V^T Sigma^{-1} V = I, so
    V V^T = Sigma) that bound is exactly sum_{i>r} v_i^T H v_i. The
    generalized eigenvectors are one such basis; covariance eigenvectors
    scaled by their standard deviations are another.
    """
    hm = _h_matrix(h).entries
    energy = np.einsum("ij,ij->j", vectors, hm @ vectors)
    return np.maximum(tail_sums(energy), 0.0)


def select_rank(report, eps):
    """Smallest rank whose tail sum certifies squared error <= eps^2; d if even
    the full spectrum does not reach the target."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    target = eps * eps
    for r in range(report.dim + 1):
        if report.tail_sums[r] <= target:
            return r
    return report.dim


class RidgeApproximation:
    """Sampled conditional expectation along a projector.

    Holds the projector and M frozen complement draws; an evaluation averages
    the model over P x + (I - P) Y_j. The draws never change after
    construction, so the approximation is an ordinary deterministic function.
    """

    __slots__ = ("projector", "cond_samples", "model")

    def __init__(self, projector, cond_samples, model):
        require_sigma_orthogonal(projector)
        ys = np.asarray(cond_samples, dtype=float)
        if ys.ndim != 2 or ys.shape[1] != projector.dim:
            raise DimensionMismatch(f"conditioning samples have shape {ys.shape}")
        if ys.shape[0] < 1:
            raise ValueError("at least one conditioning sample is required")
        ys = ys.copy()
        ys.setflags(write=False)
        self.projector = projector
        self.cond_samples = ys
        self.model = model

    @property
    def profile_samples(self):
        return self.cond_samples.shape[0]

    def eval(self, x):
        return self.eval_batch(np.asarray(x, dtype=float).reshape(1, -1))[0]

    def eval_batch(self, xs):
        """Ridge values at the rows of ``xs``; a NaN or inf raises
        ModelEvaluationFailure with the row index."""
        xs = np.asarray(xs, dtype=float)
        p = self.projector
        ys = self.cond_samples
        m = ys.shape[0]
        comp = ys - p.apply(ys)  # (I - P) Y_j, fixed across evaluations
        if not comp.any():
            # identity projector: every conditioning point collapses onto x,
            # and averaging copies would cost exactness and model calls
            out = self.model.eval_batch(p.apply(xs))
        else:
            n = self.model.output_dim
            out = np.empty((xs.shape[0], n))
            step = max(1, EVAL_BLOCK // m)
            for start in range(0, xs.shape[0], step):
                part = xs[start:start + step]
                frozen = p.apply(part)
                pts = (frozen[:, None, :] + comp[None, :, :]).reshape(-1, xs.shape[1])
                vals = self.model.eval_batch(pts).reshape(part.shape[0], m, n)
                out[start:start + step] = vals.mean(axis=1)
        _require_finite(out, 0, "ridge output")
        return out


def build_ridge(model, mu, p, stream, profile_samples):
    """Freeze ``profile_samples`` draws of mu and return the sampled
    conditional expectation of the model along ``p``."""
    require_sigma_orthogonal(p)
    if int(profile_samples) < 1:
        raise ValueError("profile_samples must be at least 1")
    ys = sample(mu, stream, int(profile_samples))
    return RidgeApproximation(p, ys, model)


def validate_error(approx, model, mu, stream, count, threads=1):
    """Monte Carlo squared-error estimate E|f(X) - approx(X)|_R^2.

    Returns (mse, se) with se the standard error of the mean. Chunked and
    merged exactly like estimate_h, so the result does not depend on the
    worker count. A NaN or inf in either output raises ModelEvaluationFailure
    with the sample index.
    """
    count = int(count)
    if count < 2:
        raise ValueError("need at least 2 validation samples for a standard error")
    metric = model.output_metric.entries
    sizes = _chunk_sizes(count)

    def one_chunk(i):
        xs = sample(mu, stream.substream(i), sizes[i])
        f_xs = model.eval_batch(xs)
        try:
            ridge_xs = approx.eval_batch(xs)
        except ModelEvaluationFailure as err:
            # the ridge counts rows within the chunk
            index = i * CHUNK + err.sample_index
            raise ModelEvaluationFailure(index, f"non-finite ridge output at sample {index}") from err
        diff = f_xs - ridge_xs
        _require_finite(diff, i * CHUNK, "output")
        return np.einsum("kn,nm,km->k", diff, metric, diff)

    parts = _map_chunks(one_chunk, len(sizes), threads)
    errs = np.concatenate(parts)
    mse = float(np.mean(errs))
    se = float(np.std(errs, ddof=1) / np.sqrt(count))
    return mse, se


def m_inflation_check(model, mu, p, profile_samples, replicates, stream):
    """Mean ratio of the sampled-profile squared error to the exact
    conditional-expectation squared error, over independent replicates.

    Implemented in closed form for linear models, where the error of a profile
    built from sample mean y-bar is exact: trace(Sigma B) + (y-bar - m)^T B
    (y-bar - m) with B = (I-P)^T F^T R F (I-P). In expectation the ratio is
    1 + 1/M; substituting the exact conditional expectation (y-bar = m) gives
    exactly 1.
    """
    if not isinstance(model, LinearModel):
        raise TypeError("m_inflation_check needs a model with an exact profile error; "
                        "only LinearModel qualifies")
    require_sigma_orthogonal(p)
    if int(replicates) < 1:
        raise ValueError("need at least one replicate")
    base, quad = _linear_profile_error_terms(model, mu, p)
    if base <= 0.0:
        raise ValueError("exact conditional-expectation error is zero; ratio undefined")
    total = 0.0
    m = int(profile_samples)
    for rep in range(int(replicates)):
        ys = sample(mu, stream.substream(rep), m)
        shift = ys.mean(axis=0) - mu.mean
        ratio = (base + float(shift @ quad @ shift)) / base
        total += (ratio - total) / (rep + 1)
    return total


def _linear_profile_error_terms(model, mu, p):
    resid = np.eye(model.input_dim) - p.matrix
    quad = resid.T @ model.gradient_gram().entries @ resid
    base = float(np.sum(mu.cov.entries * quad))
    return base, quad
