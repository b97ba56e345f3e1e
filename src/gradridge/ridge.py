"""Gradient-subspace estimation and ridge profile construction.

The pipeline: estimate the gradient second-moment matrix H by Monte Carlo,
solve the generalized eigenproblem against the input covariance, project onto
the leading eigenvectors, and replace the model by the sampled conditional
expectation along that projector. For the true H the eigenvalue tail sums are
the least bounds on the squared error that a projector of each rank reaches,
so rank selection reads straight off the spectrum. For a Monte Carlo estimate
of H they only estimate those bounds, and are biased low (Ky Fan).

Sample-driven routines walk their draws in blocks of CHUNK rows. Block k
holds rows [k CHUNK, (k+1) CHUNK) of one long draw, read straight from its
place in the stream, and blocks merge in order. With ``threads`` workers,
the calling thread is one of them, next to at most ``threads - 1`` helper
threads and never more helpers than further blocks; a walk of one block, or
on one worker, starts none. Workers only decide who computes which block,
so results are bit-identical for any worker count. Before the first draw,
each routine checks that the model takes points of the measure's dimension,
and every model or surrogate call in a block goes through ``_eval_rows``,
which checks the shape of what it returns.

H, Sigma and the output metric R come in as SpdMatrix forms (an estimated H
inside its HMatrixEstimate) and are used through their queries. R reaches H
only through the model's whitened Jacobian rows G, with G^T G = J^T R J, so
the one place here that reads dense entries is the H V product of
``basis_error_bounds``. A projector is used only through ``apply`` and its
factors: ``error_bound`` for any P, and the residual (I - P)(y-bar - m) of
``m_inflation_check``, form no d x d matrix of P.
"""

from __future__ import annotations

import threading
import warnings
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
from .models import LinearModel, _require_shape
from .projector import RankRProjector, require_sigma_orthogonal

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

# Rows per block of every sampled loop. A multiple of 4, so each block starts
# on a whole Philox block of its stream.
CHUNK = 512
EVAL_BLOCK = 4096  # model points per call in RidgeApproximation.eval_batch
# Bytes of whitened Jacobian rows per whitened_jacobian_batch call; bounds
# memory, not tunable, as the runs decide which rows each G^T G sums. Below
# one g=12 full_field point's rows (121 x 144 entries), so each of those is a
# call and a syrk of its own.
JACOBIAN_BYTES = 128 << 10


def _require_finite(values, offset, what):
    """ModelEvaluationFailure at the global index (``offset`` plus the row) of
    the first row of ``values`` holding a NaN or inf."""
    bad = ~np.isfinite(values.reshape(values.shape[0], -1)).all(axis=1)
    if bad.any():
        raise ModelEvaluationFailure(offset + int(np.argmax(bad)), what)


def _eval_rows(fn, xs, offset, shape):
    """fn(xs), with fn a batch method such as a model's or a ridge's
    ``eval_batch`` that returns one array of ``shape`` per row of ``xs``;
    a result of any other shape raises DimensionMismatch naming fn, and so
    does one that fn itself meets in a result of its own, such as the
    Jacobian behind whitened rows. Its other failures leave as a
    ModelEvaluationFailure at the global index, ``offset`` plus the row. One
    that fn raises itself counts the rows of ``xs`` and is moved by
    ``offset``. Any other error has the rows
    evaluated again one at a time, and the first that fails on its own is
    named, with its error as cause; a single row is not evaluated again, and
    an error that no row repeats is raised as it was."""
    try:
        out = fn(xs)
    except ModelEvaluationFailure as err:
        raise err.moved(offset) from err
    except DimensionMismatch:
        raise
    except Exception as err:  # noqa: BLE001 - find the sample to annotate
        if xs.shape[0] == 1:
            raise ModelEvaluationFailure(offset, cause=err) from err
        for i in range(xs.shape[0]):
            _eval_rows(fn, xs[i:i + 1], offset + i, shape)
        raise
    return _require_shape(fn, out, (xs.shape[0],) + shape)


def _require_model_dim(model, mu):
    """DimensionMismatch unless the model takes points of mu's dimension;
    run before the first draw, so no model call sees a point of the wrong
    width."""
    if model.input_dim != mu.dim:
        raise DimensionMismatch(f"model takes {model.input_dim}-dimensional points, "
                                f"measure is {mu.dim}-dimensional")


def _map_chunks(fn, n_chunks, threads):
    """Run fn(chunk_index) for every chunk, results in chunk order.

    One worker or one chunk runs them in turn on the calling thread and
    starts no thread. Otherwise the calling thread and min(threads,
    n_chunks) - 1 helper threads are the workers: each gets one chunk
    before any helper starts, then takes the next index from one shared
    counter until none is left, so every chunk runs once. If chunks raise,
    the exception of the lowest such index is raised after all have run.
    """
    if threads <= 1 or n_chunks <= 1:
        return [fn(i) for i in range(n_chunks)]
    results = [None] * n_chunks
    failures = {}
    chunks = iter(range(n_chunks))
    lock = threading.Lock()

    def work(i):
        while i is not None:
            try:
                results[i] = fn(i)
            except Exception as exc:  # noqa: BLE001 - raised in chunk order below
                failures[i] = exc
            with lock:
                i = next(chunks, None)

    first = next(chunks)
    helpers = [threading.Thread(target=work, args=(next(chunks),))
               for _ in range(min(int(threads), n_chunks) - 1)]
    for helper in helpers:
        helper.start()
    try:
        work(first)
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
    return results


def _map_draws(mu, streams, count, fn, threads):
    """fn(lo, *draws) for each block of rows [lo, lo + CHUNK) of ``count``
    draws of mu, results in block order. ``draws`` holds one array per
    stream: rows lo.. of ``sample(mu, stream, count)``, read from the stream
    lo * d normals on. The normals never depend on CHUNK; under a correlated
    covariance the BLAS can round m + S z on a short block differently.
    Blocks run through ``_map_chunks``, so each worker holds the draws of
    one block at a time."""
    starts = range(0, count, CHUNK)

    def one_block(k):
        lo = starts[k]
        size = min(CHUNK, count - lo)
        return fn(lo, *(sample(mu, s.ahead(lo * mu.dim), size) for s in streams))

    return _map_chunks(one_block, len(starts), threads)


@dataclass(frozen=True)
class HMatrixEstimate:
    """Monte Carlo estimate of the gradient second-moment matrix.

    ``rank_upper_bound`` is min(d, samples * whitened_rows): each sample
    adds at most ``whitened_rows`` rows to the sum G^T G, so the estimate
    cannot exceed that rank no matter what the model does.
    """

    h: SpdMatrix
    samples_used: int
    rank_upper_bound: int


def estimate_h(model, mu, stream, count, threads=1):
    """Average J(X)^T R J(X) over ``count`` draws X ~ mu.

    Each block of draws calls the model's ``whitened_jacobian_batch`` on runs
    of at most JACOBIAN_BYTES of rows (one point's, if those alone are
    larger): rows G per point with G^T G = J^T R J, so R enters through the
    model and no dense product with it is formed. Each run's rows are copied
    to C order, so H depends on their values only, not on the layout the
    model returned, and stacked into one matrix whose G^T G BLAS sums as a
    syrk. Blocks return sums, which add in block order and are divided by
    ``count`` once. A NaN or inf row entry, or a call that raises, raises
    ModelEvaluationFailure with the index of the first such sample; rows of
    another shape than (whitened_rows, input_dim), or a Jacobian of another
    shape than (output_dim, input_dim), raise DimensionMismatch.
    """
    count = int(count)
    if count < 1:
        raise ValueError("count must be at least 1")
    _require_model_dim(model, mu)
    d = model.input_dim
    m = model.whitened_rows
    step = max(1, JACOBIAN_BYTES // (8 * m * d))

    def one_block(lo, xs):
        total = np.zeros((d, d))
        for start in range(0, xs.shape[0], step):
            part = xs[start:start + step]
            rows = _eval_rows(model.whitened_jacobian_batch, part, lo + start, (m, d))
            _require_finite(rows, lo + start, "Jacobian")
            rows = np.ascontiguousarray(rows).reshape(-1, d)
            total += rows.T @ rows
        return total

    h = sum(_map_draws(mu, (stream,), count, one_block, threads)) / count
    return HMatrixEstimate(
        h=SpdMatrix(h),
        samples_used=count,
        rank_upper_bound=min(d, count * m),
    )


def _h_matrix(h):
    """The SpdMatrix of an HMatrixEstimate, or ``h`` itself."""
    return h.h if isinstance(h, HMatrixEstimate) else h


def optimal_projector(h, mu, rank, pairs=None):
    """Rank-``rank`` projector minimizing the error bound for the given H.

    Spans the leading generalized eigenvectors of (H, Sigma^{-1}); the bound it
    achieves for that H equals the eigenvalue tail sum. For an estimated H,
    its bound under the true H is larger on average. Pass precomputed ``pairs`` to
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
    return RankRProjector(pairs.vectors[:, :rank], pairs.duals[:, :rank])


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
    """Squared-error bound trace(Sigma (I-P)^T H (I-P)) for any projector,
    exact for the H it is given; for the optimal one it equals the eigenvalue
    tail sum. With an estimated H it is an estimate of the true bound."""
    return trace_quadratic(mu.cov, _h_matrix(h), p)


@dataclass(frozen=True)
class SpectrumReport:
    """Generalized spectrum of (H, Sigma^{-1}) next to the covariance spectrum.

    ``tail_sums[r]`` is the optimal rank-r bound for the H given, for
    r = 0..d; for an estimated H it estimates the true optimal bound and is
    biased low. ``kl_tail_sums`` are the plain covariance tails the
    Karhunen-Loeve truncation leaves behind at the same ranks.
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

    Applied to the generalized eigenvalues this is the squared-error bound of
    the optimal rank-r projector for the H given, for every r at once; for an
    estimated H it is an estimate of the true optimal bound, biased low.
    """
    rev = np.cumsum(values[::-1])[::-1]
    return np.concatenate([rev, [0.0]])


def spectrum_report(h, mu, pairs=None):
    hm = _h_matrix(h)
    if pairs is None:
        pairs = generalized_eig(hm, mu.cov)
    kl_values = mu.cov.root().values
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
    scaled by their standard deviations are another. ``vectors`` of another
    height than H raise DimensionMismatch.
    """
    hm = _h_matrix(h)
    if np.ndim(vectors) != 2 or len(vectors) != hm.dim:
        raise DimensionMismatch(f"H is {hm.dim}x{hm.dim} but the basis has shape {np.shape(vectors)}")
    energy = np.einsum("ij,ij->j", vectors, hm.entries @ vectors)
    return np.maximum(tail_sums(energy), 0.0)


def select_rank(report, eps):
    """Smallest rank whose tail sum is at most eps^2; d if even the full
    spectrum does not reach the target. With an estimated H the tail sum is
    biased low, so the true bound at that rank can exceed eps^2."""
    if not 0.0 <= eps < np.inf:
        raise ValueError(f"eps must be finite and nonnegative, not {eps!r}")
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
    The offsets (I - P) Y_j are computed once; when every one is exactly zero
    (P = I) a single zero row stands for them all, so each evaluation costs
    one model point per row and returns the model at P x exactly.

    The covariance is not known here, so ``build_ridge`` checks P against it.
    """

    __slots__ = ("projector", "cond_samples", "model", "_offsets")

    def __init__(self, projector, cond_samples, model):
        ys = np.asarray(cond_samples, dtype=float)
        if ys.ndim != 2 or ys.shape[1] != projector.dim:
            raise DimensionMismatch(f"conditioning samples have shape {ys.shape}")
        if ys.shape[0] < 1:
            raise ValueError("at least one conditioning sample is required")
        ys = ys.copy()
        ys.setflags(write=False)
        offsets = ys - projector.apply(ys)
        if not offsets.any():
            offsets = offsets[:1]
        offsets.setflags(write=False)
        self.projector = projector
        self.cond_samples = ys
        self.model = model
        self._offsets = offsets

    @property
    def profile_samples(self):
        return self.cond_samples.shape[0]

    def eval(self, x):
        return self.eval_batch(np.asarray(x, dtype=float).reshape(1, -1))[0]

    def eval_batch(self, xs):
        """Ridge values at the rows of ``xs``; a NaN or inf raises
        ModelEvaluationFailure with the row index, and points that are not a
        2-d array of the projector's width, or a model output that is not
        one value of the model's shape per point, DimensionMismatch."""
        xs = np.asarray(xs, dtype=float)
        p = self.projector
        if xs.ndim != 2 or xs.shape[1] != p.dim:
            raise DimensionMismatch(f"points have shape {xs.shape}, ridge takes {p.dim}")
        offsets = self._offsets
        m = offsets.shape[0]
        n = self.model.output_dim
        evaluate = self.model.eval_batch
        out = np.empty((xs.shape[0], n))
        step = max(1, EVAL_BLOCK // m)
        for start in range(0, xs.shape[0], step):
            part = xs[start:start + step]
            frozen = p.apply(part)
            pts = (frozen[:, None, :] + offsets[None, :, :]).reshape(-1, xs.shape[1])
            vals = _require_shape(evaluate, evaluate(pts), (pts.shape[0], n))
            vals = vals.reshape(part.shape[0], m, n)
            out[start:start + step] = vals.mean(axis=1)
        _require_finite(out, 0, "ridge output")
        return out


def build_ridge(model, mu, p, stream, profile_samples):
    """Freeze ``profile_samples`` draws of mu and return the sampled
    conditional expectation of the model along ``p``. Raises
    NotSigmaOrthogonal unless ``p`` is sigma-inverse-orthogonal for mu's
    covariance, the only P for which that is the conditional law."""
    _require_model_dim(model, mu)
    require_sigma_orthogonal(p, mu.cov)
    if int(profile_samples) < 1:
        raise ValueError("profile_samples must be at least 1")
    ys = sample(mu, stream, int(profile_samples))
    return RidgeApproximation(p, ys, model)


def validate_error(approx, model, mu, stream, count, threads=1):
    """Monte Carlo squared-error estimate E|f(X) - approx(X)|_R^2.

    Returns (mse, se) with se the standard error of the mean. Drawn in blocks
    exactly like estimate_h, so the result does not depend on the worker
    count. ``approx`` is anything with an ``eval_batch``; it and the model
    are both called through ``_eval_rows``, so a NaN or inf in either output,
    or a model call that raises at a sample X or at its ridge points, raises
    ModelEvaluationFailure with the sample index, and an output that is not
    one row of ``output_dim`` values per sample raises DimensionMismatch.
    """
    count = int(count)
    if count < 2:
        raise ValueError("need at least 2 validation samples for a standard error")
    _require_model_dim(model, mu)
    shape = (model.output_dim,)
    sq_norms = model.output_metric.sq_norms

    def one_block(lo, xs):
        diff = (_eval_rows(model.eval_batch, xs, lo, shape)
                - _eval_rows(approx.eval_batch, xs, lo, shape))
        _require_finite(diff, lo, "output")
        return sq_norms(diff)

    errs = np.concatenate(_map_draws(mu, (stream,), count, one_block, threads))
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
    exactly 1. The quadratic term is the F^T R F norm of (I - P)(y-bar - m),
    with P applied to the shift, so no d x d matrix is formed.
    """
    if not isinstance(model, LinearModel):
        raise TypeError("m_inflation_check needs a model with an exact profile error; "
                        "only LinearModel qualifies")
    require_sigma_orthogonal(p, mu.cov)
    if int(replicates) < 1:
        raise ValueError("need at least one replicate")
    gram = model.gradient_gram()
    base = trace_quadratic(mu.cov, gram, p)
    if base <= 0.0:
        raise ValueError("exact conditional-expectation error is zero; ratio undefined")
    m = int(profile_samples)
    shifts = np.array([sample(mu, stream.substream(rep), m).mean(axis=0)
                       for rep in range(int(replicates))]) - mu.mean
    return float(np.mean((base + gram.sq_norms(shifts - p.apply(shifts))) / base))
