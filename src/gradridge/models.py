"""Vector-valued model interface and the analytical test models.

A model is a function f: R^d -> R^n with a Jacobian and an SPD metric on the
output space. The three analytical families (linear maps, scalar quadratic
forms, separable sine sums) come with closed-form conditional-expectation
errors under Gaussian measures, which is what makes them useful: every Monte
Carlo estimator in the package can be checked against them exactly.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NonStandardMeasure,
    NotSigmaOrthogonal,
)
from .linalg import SpdMatrix, _require_finite, sym_eig
from .projector import require_sigma_orthogonal

__all__ = [
    "VectorValuedModel",
    "LinearModel",
    "QuadraticFormModel",
    "SumOfSinesModel",
    "finite_diff_jacobian",
    "linear_cond_exp_error",
    "quadratic_cond_exp_error",
    "sines_cond_exp_error",
    "sines_bound",
    "exact_conditional_expectation",
]

# The observation scenarios of pde.DiffusionModel, named here so that a config
# check can read them without importing pde and scipy.
SCENARIOS = ("full_field", "subdomain", "point_pair")
# Coordinates per eval_batch call of finite_diff_jacobian: 512 shifted points,
# which bounds its memory at a few thousand inputs.
FD_COORDS = 256


class VectorValuedModel:
    """Base interface: dimensions, output metric, values and Jacobians.

    A subclass sets ``input_dim``, ``output_dim`` and ``output_metric`` (an
    SpdMatrix on the output space) and writes each formula once, as the batch
    pair ``eval_batch``/``jacobian_batch`` on an (N, d) array of points, each
    starting with ``xs = self._check_rows(xs)``. The base class derives the
    single-point ``eval`` and ``jacobian`` as a batch of one row. A model that
    can only do one point at a time loops over the rows in its own
    ``eval_batch``. ``estimate_h`` sums the rows of ``whitened_jacobian_batch``,
    ``whitened_rows`` per point with G^T G = J^T R J; the base class derives
    them from ``jacobian_batch`` and R's root, and a model that can fold R in
    more cheaply overrides both. ``lipschitz_constant`` is None unless the
    subclass knows a global Lipschitz constant in the output-metric norm.
    """

    input_dim = None
    output_dim = None
    output_metric = None
    lipschitz_constant = None

    def eval(self, x):
        return self.eval_batch(self._check_rows(np.reshape(x, (1, -1))))[0]

    def jacobian(self, x):
        return self.jacobian_batch(self._check_rows(np.reshape(x, (1, -1))))[0]

    def eval_batch(self, xs):
        raise NotImplementedError(f"{type(self).__name__} does not implement eval_batch")

    def jacobian_batch(self, xs):
        raise NotImplementedError(f"{type(self).__name__} does not implement jacobian_batch")

    @property
    def whitened_rows(self):
        """Rows per point of ``whitened_jacobian_batch``: ``output_dim``
        unless a subclass leaves out rows that are zero."""
        return self.output_dim

    def whitened_jacobian_batch(self, xs):
        """Rows G per point, ``whitened_rows`` x ``input_dim``, with
        G^T G = J^T R J for the Jacobian J and the output metric R: here
        G = S J, one ``jacobian_batch`` call and the root S of R applied
        through its query. For an identity or diagonal R, S is exact, so G
        holds J scaled by the square roots of R's diagonal."""
        expected = (len(xs), self.output_dim, self.input_dim)
        jac = _require_shape(self.jacobian_batch, self.jacobian_batch(xs), expected)
        # S J is the transpose of J^T S^T, S applied to each row of J^T; in C
        # order first, as the product's digits follow the layout of J
        jac = np.ascontiguousarray(jac)
        return self.output_metric.root().apply(jac.transpose(0, 2, 1)).transpose(0, 2, 1)

    def _check_rows(self, xs):
        """``xs`` as a float array of points, one per row; DimensionMismatch
        unless it is 2-d with ``input_dim`` columns."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.input_dim:
            raise DimensionMismatch(f"points have shape {xs.shape}, model takes {self.input_dim}")
        return xs


class LinearModel(VectorValuedModel):
    """f(x) = F x with constant Jacobian F and metric R on the output.

    The Lipschitz constant in the metric norm is the largest singular value of
    R^{1/2} F, computed on first read; a non-finite F^T R F fails at once.
    """

    def __init__(self, matrix, output_metric=None):
        f = np.atleast_2d(np.asarray(matrix, dtype=float))
        self.matrix = f
        self.output_dim, self.input_dim = f.shape
        if output_metric is None:
            output_metric = SpdMatrix.identity(self.output_dim)
        elif not isinstance(output_metric, SpdMatrix):
            output_metric = SpdMatrix(output_metric)
        if output_metric.dim != self.output_dim:
            raise DimensionMismatch("output metric dimension does not match rows of F")
        self.output_metric = output_metric
        # an F^T R F that overflows is refused as NonFiniteInput, in the words
        # of sym_eig; the overflow itself is not a second report of the fault
        with np.errstate(over="ignore", invalid="ignore"):
            self._gram = _require_finite(output_metric.gram(f), "sym_eig")

    @cached_property
    def lipschitz_constant(self):
        return float(np.sqrt(max(sym_eig(self._gram)[0][0], 0.0)))

    def gradient_gram(self):
        """F^T R F — the exact gradient second moment, sample-free."""
        return SpdMatrix(self._gram)

    def eval_batch(self, xs):
        return self._check_rows(xs) @ self.matrix.T

    def jacobian_batch(self, xs):
        xs = self._check_rows(xs)
        return np.broadcast_to(self.matrix, (xs.shape[0],) + self.matrix.shape).copy()

    @cached_property
    def _whitened(self):
        # S F with the arithmetic of the base class's rows for one point
        rows = self.output_metric.root().apply(np.ascontiguousarray(self.matrix).T).T
        rows.setflags(write=False)
        return rows

    def whitened_jacobian_batch(self, xs):
        """The constant rows S F, formed once on first use: one copy per
        point. A subclass with a ``jacobian_batch`` of its own gets the base
        class's rows of that Jacobian."""
        if type(self).jacobian_batch is not LinearModel.jacobian_batch:
            return super().whitened_jacobian_batch(xs)
        xs = self._check_rows(xs)
        return np.broadcast_to(self._whitened, (xs.shape[0],) + self._whitened.shape).copy()


class QuadraticFormModel(VectorValuedModel):
    """Scalar quadratic form f(x) = x^T A x / 2 with symmetric A."""

    output_dim = 1

    def __init__(self, matrix):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"A must be square, got {a.shape}")
        self.matrix = 0.5 * (a + a.T)
        self.input_dim = a.shape[0]
        self.output_metric = SpdMatrix.identity(1)

    def eval_batch(self, xs):
        xs = self._check_rows(xs)
        return (0.5 * np.einsum("ki,ij,kj->k", xs, self.matrix, xs))[:, None]

    def jacobian_batch(self, xs):
        xs = self._check_rows(xs)
        return (xs @ self.matrix)[:, None, :]


class SumOfSinesModel(VectorValuedModel):
    """Separable scalar model f(x) = sum_i a_i sin(w_i x_i).

    The gradient norm sup is reached at x = 0, so |a * w|_2 is the exact
    Lipschitz constant.
    """

    output_dim = 1

    def __init__(self, amplitudes, frequencies):
        a = np.asarray(amplitudes, dtype=float).reshape(-1)
        w = np.asarray(frequencies, dtype=float).reshape(-1)
        if a.shape != w.shape:
            raise DimensionMismatch("amplitudes and frequencies differ in length")
        self.amplitudes = a
        self.frequencies = w
        self.input_dim = a.shape[0]
        self.output_metric = SpdMatrix.identity(1)
        self.lipschitz_constant = float(np.linalg.norm(a * w))

    def eval_batch(self, xs):
        xs = self._check_rows(xs)
        return np.sum(self.amplitudes * np.sin(self.frequencies * xs), axis=1)[:, None]

    def jacobian_batch(self, xs):
        xs = self._check_rows(xs)
        return (self.amplitudes * self.frequencies * np.cos(self.frequencies * xs))[:, None, :]


def _require_shape(fn, out, expected):
    """``out``, which the method ``fn`` returned, unless its shape is not
    ``expected``: then DimensionMismatch naming fn and both shapes."""
    if np.shape(out) != expected:
        raise DimensionMismatch(
            f"{fn.__qualname__} returned shape {np.shape(out)}, expected {expected}")
    return out


def finite_diff_jacobian(model, x, step=None):
    """Central-difference Jacobian, the reference every adjoint is checked
    against. Step defaults to 1e-5 * (1 + max|x_i|). The shifted points go
    through ``eval_batch``, FD_COORDS coordinates (twice as many points) a
    call."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if step is None:
        step = 1e-5 * (1.0 + (float(np.max(np.abs(x))) if x.size else 0.0))
    d = x.shape[0]
    out = np.empty((model.output_dim, d))
    for start in range(0, d, FD_COORDS):
        coords = np.arange(start, min(start + FD_COORDS, d))
        k = coords.size
        # rows x + step e_i, then rows x - step e_i, for i in coords
        pts = np.tile(x, (2 * k, 1))
        pts[np.arange(k), coords] += step
        pts[np.arange(k, 2 * k), coords] -= step
        vals = model.eval_batch(pts)
        out[:, coords] = ((vals[:k] - vals[k:]) / (2.0 * step)).T
    return out


def _check_tau(tau, dim):
    idx = sorted({int(i) for i in tau})
    if idx and (idx[0] < 1 or idx[-1] > dim):
        raise IndexOutOfRange(f"indices {idx} outside 1..{dim}")
    return idx


def _require_standard(mu):
    if not mu.is_standard:
        raise NonStandardMeasure("closed form requires the standard normal measure")


def linear_cond_exp_error(model, mu, p):
    """Exact squared conditional-expectation error of a linear model.

    For f = F x and a sigma-inverse-orthogonal P, the error is the Gaussian
    second moment |F (I - P)(X - m)|_R^2, evaluated here as the squared
    Frobenius norm of R^{1/2} F (I - P) S, with R^{1/2} and S the roots of the
    output metric and of the covariance. The trace form
    trace(Sigma (I-P)^T F^T R F (I-P)) is the same number through a different
    float path, which is exactly what makes this usable as an oracle against
    the trace-based bound.
    """
    require_sigma_orthogonal(p, mu.cov)
    resid = np.eye(model.input_dim) - p.matrix
    # the transpose of R^{1/2} F (I - P) S, one root applied to each side
    core = model.output_metric.root().apply(mu.cov.root().apply(model.matrix @ resid).T)
    return float(np.sum(core * core))


def quadratic_cond_exp_error(model, mu, p):
    """Exact squared error |A - P A P|_F^2 / 2 for the quadratic form under
    N(0, I) and a symmetric projector P: under N(0, I) symmetric and
    sigma-inverse-orthogonal are the same property."""
    _require_standard(mu)
    require_sigma_orthogonal(p, mu.cov)
    pm = p.matrix
    a = model.matrix
    diff = a - pm @ a @ pm
    return 0.5 * float(np.sum(diff * diff))


def sines_cond_exp_error(model, mu, tau):
    """Exact squared error for the sine sum conditioned on the coordinates in
    ``tau`` (1-based): sum over the complement of a_i^2 (1 - exp(-2 w_i^2)) / 2."""
    a, w = _sines_outside(model, mu, tau)
    return 0.5 * float(np.sum(a * a * (1.0 - np.exp(-2.0 * w * w))))


def sines_bound(model, mu, tau):
    """Exact residual gradient energy for the sine sum and a coordinate
    projector: sum over the complement of a_i^2 w_i^2 (1 + exp(-2 w_i^2)) / 2."""
    a, w = _sines_outside(model, mu, tau)
    return 0.5 * float(np.sum(a * a * w * w * (1.0 + np.exp(-2.0 * w * w))))


def _sines_outside(model, mu, tau):
    """Amplitudes and frequencies of the sine terms outside ``tau``."""
    _require_standard(mu)
    keep = np.zeros(model.input_dim, dtype=bool)
    keep[[i - 1 for i in _check_tau(tau, model.input_dim)]] = True
    return model.amplitudes[~keep], model.frequencies[~keep]


class _ExactProfile(VectorValuedModel):
    """An exact conditional expectation x -> g(x), given in batch form."""

    def __init__(self, fn, input_dim, output_dim):
        self._fn = fn
        self.input_dim = input_dim
        self.output_dim = output_dim

    def eval_batch(self, xs):
        return self._fn(self._check_rows(xs))


def exact_conditional_expectation(model, mu, p):
    """The exact profile x -> E[f(P x + (I - P) Y)], Y ~ mu, where available.

    Linear models admit it for any sigma-inverse-orthogonal projector; the
    quadratic form under N(0, I) for symmetric projectors. Used to isolate the
    profile-sampling error of the ridge constructor in tests and diagnostics.
    """
    if isinstance(model, LinearModel):
        require_sigma_orthogonal(p, mu.cov)
        f = model.matrix
        shift = f @ (np.eye(model.input_dim) - p.matrix) @ mu.mean
        fp = f @ p.matrix

        def profile(xs):
            return xs @ fp.T + shift

        return _ExactProfile(profile, model.input_dim, model.output_dim)
    if isinstance(model, QuadraticFormModel):
        _require_standard(mu)
        require_sigma_orthogonal(p, mu.cov)
        pm = p.matrix
        a = model.matrix
        pap = pm.T @ a @ pm
        resid = np.eye(model.input_dim) - pm
        const = 0.5 * float(np.trace(resid.T @ a @ resid))

        def profile(xs):
            return (0.5 * np.einsum("ki,ij,kj->k", xs, pap, xs) + const)[:, None]

        return _ExactProfile(profile, model.input_dim, 1)
    if isinstance(model, SumOfSinesModel):
        _require_standard(mu)
        pm = p.matrix
        diag = np.diag(pm)
        if np.count_nonzero(pm - np.diag(diag)) or not np.all(np.isin(diag, (0.0, 1.0))):
            raise NotSigmaOrthogonal("sine profile needs a coordinate projector")
        keep = diag.astype(bool)
        a = model.amplitudes
        w = model.frequencies

        def profile(xs):
            terms = a * np.sin(w * xs) * keep
            return np.sum(terms, axis=1)[:, None]

        return _ExactProfile(profile, model.input_dim, 1)
    raise TypeError(f"no exact conditional expectation for {type(model).__name__}")
