"""Steady diffusion on the unit square as a concrete high-dimensional model.

The conductivity field is piecewise constant, one log-value per cell of a
regular quadrilateral grid, so the parameter vector lives in R^(g*g). The
solve uses bilinear (Q1) elements; the per-cell constant conductivity makes
one-point quadrature of the weighted stiffness exact, so each cell adds its
conductivity times the reference stiffness block. Dirichlet data u = s1 + s2
is imposed by lifting, which keeps the interior system symmetric positive
definite. In the row-major interior numbering its half-bandwidth is g. The
model is written in batch form: each call solves a block of points, SUB_BLOCK
at a time, and holds at most one sub-block of systems. One sparse product of
a map fixed at construction fills a sub-block's lifts and matrices, in
LAPACK's band storage, and each band is factored with the banded Cholesky
``dpbtrf`` (read from ``linalg``), about g^4 flops. Jacobians come from one
adjoint band solve per output component that touches an interior node,
against the same factor, and a sub-block's are contracted through one
block-diagonal CSR pattern. The whitened rows G = U J_a that ``estimate_h``
sums, with G^T G = J^T R J, come from the same solves and contraction on
other right-hand sides: R restricted to those outputs, R_aa = U^T U, is
banded in their order and factored once at construction with the same
``dpbtrf``, and its factor is folded into the right-hand sides, so no
Jacobian and no product with R is formed. The forward solve's residual check
reads A u - rhs off the cell terms of the whole sub-block in one product, so
it needs no BLAS kernel of its own. Every sum over cells runs through a
sparse pattern fixed at construction, and a point's results do not depend
on the block it is solved in. The patterns are plain CSR arrays built with
numpy by ``linalg._csr_arrays``, and every product runs scipy's
``csr_matvecs`` through ``linalg._csr_product``, so the model builds no
scipy sparse matrix and imports no scipy package.

Three observation scenarios map the solution field to the model output, each
read off the nodal solution by index: the full nodal field in the discrete H^1
metric, the restriction to a centered subdomain in the same metric, and a
weighted pair of point values. The H^1 metric, about 9 entries a row, is held
as a ``SpdMatrix.sparse`` of its cell entries, so no n x n array is formed
unless its dense ``entries`` are read.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import DimensionMismatch, InputClampedWarning, NotPositiveDefinite, SolverFailure
# csr_matvecs, which _csr_product runs, is bound here with the band kernels,
# so importing this module binds every kernel the model calls
from .linalg import (  # noqa: F401
    PD_FLOOR, SpdMatrix, _csr_arrays, _csr_product, csr_matvecs, dpbtrf, dpbtrs)
from .measure import squared_exponential_covariance
from .models import SCENARIOS, VectorValuedModel

__all__ = [
    "Mesh2D",
    "DiffusionModel",
    "build_field_covariance",
    "SCENARIOS",
    "SUBDOMAIN_BOUNDS",
    "POINT_A",
    "POINT_B",
]

SUBDOMAIN_BOUNDS = (0.35, 0.65)
POINT_A = (0.2, 0.8)
POINT_B = (0.8, 0.2)

# Reference Q1 blocks on a square cell, corner order SW, SE, NE, NW. The
# stiffness block is independent of the cell size in 2-d; the mass block
# carries the cell area.
_K1 = np.array(
    [
        [4.0, -1.0, -2.0, -1.0],
        [-1.0, 4.0, -1.0, -2.0],
        [-2.0, -1.0, 4.0, -1.0],
        [-1.0, -2.0, -1.0, 4.0],
    ]
) / 6.0
_M1 = np.array(
    [
        [4.0, 2.0, 1.0, 2.0],
        [2.0, 4.0, 2.0, 1.0],
        [1.0, 2.0, 4.0, 2.0],
        [2.0, 1.0, 2.0, 4.0],
    ]
) / 36.0
_K1T = np.ascontiguousarray(_K1.T)  # S_c u = u[corners] @ _K1T, one cell per row

LOG_CONDUCTIVITY_LIMIT = 40.0
SUB_BLOCK = 8  # points whose systems a call forms at once; bounds memory, moves no bit


class Mesh2D:
    """Regular g-by-g grid of square cells on the unit square.

    Nodes are numbered row-major from the origin, cells likewise; each cell
    knows its four corner nodes in SW, SE, NE, NW order.
    """

    def __init__(self, cells_per_side):
        g = int(cells_per_side)
        if g < 2:
            raise DimensionMismatch("need at least 2 cells per side for interior nodes")
        self.cells_per_side = g
        self.h = 1.0 / g
        side = g + 1
        ix, iy = np.meshgrid(np.arange(side), np.arange(side))
        self.nodes = np.column_stack([ix.ravel() * self.h, iy.ravel() * self.h])
        cx, cy = np.meshgrid(np.arange(g), np.arange(g))
        cx = cx.ravel()
        cy = cy.ravel()
        sw = cy * side + cx
        self.cell_nodes = np.column_stack([sw, sw + 1, sw + side + 1, sw + side])
        self.cell_centers = np.column_stack([(cx + 0.5) * self.h, (cy + 0.5) * self.h])
        on_edge = (
            (ix.ravel() == 0) | (ix.ravel() == g) | (iy.ravel() == 0) | (iy.ravel() == g)
        )
        self.interior = np.where(~on_edge)[0]
        self.boundary = np.where(on_edge)[0]

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_cells(self):
        return self.cell_nodes.shape[0]

    def interpolation_weights(self, point):
        """Node indices and bilinear weights of the cell containing ``point``."""
        s = np.asarray(point, dtype=float)
        if s.shape != (2,) or np.any(s < 0.0) or np.any(s > 1.0):
            raise DimensionMismatch(f"point {s} outside the unit square")
        g = self.cells_per_side
        cx = min(int(s[0] * g), g - 1)
        cy = min(int(s[1] * g), g - 1)
        xi = s[0] * g - cx
        eta = s[1] * g - cy
        cell = cy * g + cx
        weights = np.array(
            [(1 - xi) * (1 - eta), xi * (1 - eta), xi * eta, (1 - xi) * eta]
        )
        return self.cell_nodes[cell], weights


def _clamped_log_conductivity(x):
    limit = LOG_CONDUCTIVITY_LIMIT
    if np.any(np.abs(x) > limit):
        warnings.warn(
            f"log-conductivity clamped to [-{limit:g}, {limit:g}]",
            InputClampedWarning,
            stacklevel=3,
        )
        x = np.clip(x, -limit, limit)
    return x


def _cell_entries(cell_nodes, block, row_nodes, col_nodes):
    """The terms kappa[c] * block[a, b] of the sum over cells that land in the
    sorted ``row_nodes`` x ``col_nodes``, in cell order: the row and column of
    each there, its cell and its block value."""
    n_cells, corners = cell_nodes.shape
    rows = np.repeat(cell_nodes, corners, axis=1).ravel()
    cols = np.tile(cell_nodes, (1, corners)).ravel()
    keep = np.isin(rows, row_nodes) & np.isin(cols, col_nodes)
    cells = np.repeat(np.arange(n_cells), corners * corners)[keep]
    values = np.tile(block.ravel(), n_cells)[keep]
    return (np.searchsorted(row_nodes, rows[keep]), np.searchsorted(col_nodes, cols[keep]),
            cells, values)


class DiffusionModel(VectorValuedModel):
    """x -> observation of the diffusion solve with conductivity exp(x).

    ``scenario`` picks the observation operator and output metric:

    - ``full_field``: every nodal value, discrete H^1 (mass + stiffness)
      metric, held as a ``SpdMatrix.sparse`` of its cell entries;
    - ``subdomain``: nodal values on cells centered in the middle box, same
      metric restricted there, held the same way;
    - ``point_pair``: interpolated values at two fixed points, diagonal metric
      diag(alpha, beta).

    ``eval_batch``, ``jacobian_batch`` and ``whitened_jacobian_batch`` walk
    their points SUB_BLOCK at a time: one product of a map fixed at
    construction fills the sub-block's Dirichlet lifts and interior bands
    (half-bandwidth g), each band is factored anew with LAPACK's banded
    Cholesky, the residuals of its solves are checked through one CSR
    product, and the sub-block's Jacobians, or whitened rows, are
    contracted through one CSR product on a fixed pattern. So a call holds
    at most one sub-block of systems, and each point's result is the same
    bits in any batch; the single-point ``eval`` and ``jacobian`` are
    batches of one. Instances hold only immutable precomputed structure,
    safe across threads.
    """

    def __init__(self, mesh, scenario="full_field", alpha=1.0, beta=1.0):
        if isinstance(mesh, int):
            mesh = Mesh2D(mesh)
        if scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r}, pick one of {SCENARIOS}")
        self.mesh = mesh
        self.scenario = scenario
        self.input_dim = mesh.n_cells

        g = mesh.cells_per_side
        n_int = mesh.interior.size
        cells = mesh.cell_nodes
        self._boundary_values = mesh.nodes[:, 0] + mesh.nodes[:, 1]
        # each node's interior row, -1 on the boundary, int32 as csr_matvecs
        # takes CSR indices
        interior_row = np.full(mesh.n_nodes, -1, dtype=np.int32)
        interior_row[mesh.interior] = np.arange(n_int)
        # kappa -> the system: its first n_int rows are the Dirichlet lift
        # -A_ib(kappa) u_b, the rest A_ii in LAPACK's upper band storage,
        # flattened in Fortran order, so entry (i, j), i <= j, sits at
        # n_int + g + i - j + (g + 1) j. The row-major interior numbering keeps
        # every stencil neighbour within g of the diagonal. Each row sums its
        # terms in cell order.
        i, node, c, k1 = _cell_entries(cells, _K1, mesh.interior, np.arange(mesh.n_nodes))
        j = interior_row[node]
        lift = j < 0
        keep = lift | (i <= j)
        self._system = _csr_arrays(
            np.where(lift, -k1 * self._boundary_values[node], k1)[keep],
            np.where(lift, i, n_int + g + i - j + (g + 1) * j)[keep], c[keep],
            (g + 2) * n_int)
        # the Jacobian's cells x interior-nodes pattern, as SUB_BLOCK copies
        # down a diagonal, the first s of which serve a sub-block of s points:
        # the interior corners' positions in the points' cells.ravel(), then
        # their rows as CSR indices and indptr, each cell's corners in SW, SE,
        # NE, NW order
        inner = interior_row[cells] >= 0
        copies = np.arange(SUB_BLOCK, dtype=np.int32)[:, None]
        indptr = np.cumsum(inner.sum(axis=1), dtype=np.int32)
        self._corners = ((np.flatnonzero(inner).astype(np.int32) + inner.size * copies).ravel(),
                         (interior_row[cells][inner] + n_int * copies).ravel(),
                         np.append(np.int32(0), (indptr + indptr[-1] * copies).ravel()))
        for part in self._corners:
            part.setflags(write=False)
        # the residual's map: A u at the interior rows, the sum over cells of
        # kappa_c K1 u_c, as the entry K1[a, b] at row cells[c, a], if
        # interior, and column 4 c + b of the points' kappa_c u[cells[c, b]]
        rows = np.broadcast_to(interior_row[cells][:, :, None], (mesh.n_cells, 4, 4))
        k1 = rows >= 0
        self._residual = _csr_arrays(
            np.broadcast_to(_K1, rows.shape)[k1], rows[k1],
            np.broadcast_to(np.arange(inner.size, dtype=np.int32).reshape(-1, 1, 4),
                            rows.shape)[k1], n_int)

        if scenario == "point_pair":
            if not (0 < alpha < np.inf and 0 < beta < np.inf):
                raise ValueError("point weights alpha, beta must be finite and positive")
            picks = [mesh.interpolation_weights(point) for point in (POINT_A, POINT_B)]
            obs_nodes = np.array([nodes for nodes, _ in picks])
            obs_weights = np.array([weights for _, weights in picks])
            self.output_metric = SpdMatrix.diagonal([alpha, beta])
            self.point_weights = (float(alpha), float(beta))
            # R's entries as (row, column, value)
            i = j = np.arange(2)
            values = np.array([float(alpha), float(beta)])
        else:
            inside = np.arange(mesh.n_cells)
            if scenario == "subdomain":
                lo, hi = SUBDOMAIN_BOUNDS
                centers = mesh.cell_centers
                inside = np.where(
                    (centers[:, 0] >= lo) & (centers[:, 0] <= hi)
                    & (centers[:, 1] >= lo) & (centers[:, 1] <= hi)
                )[0]
                if inside.size == 0:
                    raise DimensionMismatch("subdomain contains no cell centers at this resolution")
            # every node of the full grid touches a cell, so full_field observes
            # all of them; the nodes in order, without np.unique, which imports
            # numpy.ma
            touched = np.bincount(cells[inside].ravel(), minlength=mesh.n_nodes)
            out_nodes = np.flatnonzero(touched)
            block = _M1 * (mesh.h * mesh.h) + _K1
            i, j, _, values = _cell_entries(cells[inside], block, out_nodes, out_nodes)
            # each entry summed in cell order, the order given
            self.output_metric = SpdMatrix.sparse(values, i, j, out_nodes.size)
            obs_nodes = out_nodes[:, None]
            obs_weights = np.ones(obs_nodes.shape)
            self.point_weights = None
        # output p is sum_k obs_weights[p, k] * u[obs_nodes[p, k]]
        self._obs_nodes = obs_nodes
        self._obs_weights = obs_weights
        self.output_dim = obs_nodes.shape[0]
        # the adjoint right-hand sides as (interior row, column, weight)
        # entries; only the outputs that touch an interior node get a column
        row = interior_row[obs_nodes]
        self._adjoint_outputs = np.flatnonzero((row >= 0).any(axis=1))
        col, k = np.nonzero(row[self._adjoint_outputs] >= 0)
        out = self._adjoint_outputs[col]
        self._adjoint_rhs = (row[out, k], col, obs_weights[out, k])
        self._whitened_rhs = _whitened_rhs(
            self._adjoint_rhs, self._adjoint_outputs, self.output_dim, (i, j, values))

    def _solve(self, xs):
        """Solve the points of one sub-block (at most SUB_BLOCK rows of
        ``xs``): their conductivities, band Cholesky factors and nodal
        solutions, boundary values included.

        One product with the system map fills the sub-block's lifts and
        bands; each is factored (LAPACK ``dpbtrf``, half-bandwidth g) and
        solved on its own. A factor that meets a leading minor that is not
        positive raises SolverFailure, and so does a residual |A u - rhs|
        above 1e-10 (|A| |u| + |rhs|), with the residual of the first such
        point. The sub-block's residuals come from one product with the
        residual map: at an interior row the cell terms sum_c kappa_c K1 u_c
        are A_ii u_i + A_ib u_b = A_ii u_i - rhs.
        """
        g = self.mesh.cells_per_side
        n_int = self.mesh.interior.size
        kappa = np.exp(_clamped_log_conductivity(xs))
        # column j is point j's system; LAPACK copies each band it factors
        systems = _csr_product(self._system, kappa.T)
        u = np.empty((xs.shape[0], self.mesh.n_nodes))
        u[:] = self._boundary_values
        factors = []
        for system, u_row in zip(systems.T, u):
            band = system[n_int:].reshape(g + 1, -1, order="F")
            factor, info = dpbtrf(band)
            if info > 0:
                raise SolverFailure(
                    float("inf"), f"banded Cholesky failed: leading minor {info} is not positive")
            u_row[self.mesh.interior], _ = dpbtrs(factor, np.ascontiguousarray(system[:n_int]))
            factors.append(factor)
        terms = u.T.take(self.mesh.cell_nodes, axis=0) * kappa.T[:, None, :]
        resid = _csr_product(self._residual, terms.reshape(-1, xs.shape[0]))
        for j, system in enumerate(systems.T):
            r, rhs_norm = _norm(resid[:, j]), _norm(system[:n_int])
            # The |A| |u| term passes a backward-stable solve of a tiny
            # right-hand side. |A|_2 <= |A|_F <= sqrt(2) |band|_F, as the band
            # holds the diagonal and one copy of each off-diagonal pair. Its
            # two norms are taken only when the residual exceeds 1e-10 |rhs|,
            # which a solve that passes seldom does.
            if r > 1e-10 * rhs_norm and r > 1e-10 * (
                    np.sqrt(2.0) * _norm(system[n_int:]) * _norm(u[j, self.mesh.interior])
                    + rhs_norm):
                raise SolverFailure(r)
        return kappa, factors, u

    def solve_field(self, x):
        """Full nodal solution vector, boundary values included."""
        return self._solve(self._check_rows(np.reshape(x, (1, -1))))[2][0]

    def eval_batch(self, xs):
        xs = self._check_rows(xs)
        out = np.empty((xs.shape[0], self.output_dim))
        for start in range(0, xs.shape[0], SUB_BLOCK):
            u = self._solve(xs[start:start + SUB_BLOCK])[2]
            out[start:start + u.shape[0]] = (u[:, self._obs_nodes] * self._obs_weights).sum(axis=2)
        return out

    def jacobian_batch(self, xs):
        """Adjoint Jacobians, from one solve per output that touches an
        interior node (``_adjoint``); the other outputs observe only boundary
        nodes and have zero rows."""
        xs = self._check_rows(xs)
        jac = np.zeros((xs.shape[0], self.mesh.n_cells, self.output_dim))
        jac[:, :, self._adjoint_outputs] = self._adjoint(
            xs, self._adjoint_rhs, self._adjoint_outputs.size)
        return jac.transpose(0, 2, 1)

    @property
    def whitened_rows(self):
        return self._adjoint_outputs.size

    def whitened_jacobian_batch(self, xs):
        """Rows G = U J_a per point, with J_a the Jacobian rows of the
        outputs that touch an interior node and U the banded Cholesky factor
        of R restricted to them, so G^T G = J^T R J: the adjoint solves of
        ``jacobian_batch`` on the right-hand sides ``_whitened_rhs``, with no
        Jacobian and no product with R formed."""
        xs = self._check_rows(xs)
        return self._adjoint(xs, self._whitened_rhs, self.whitened_rows).transpose(0, 2, 1)

    def _adjoint(self, xs, rhs, k):
        """Per point of ``xs``, the cells x k array whose column i is the
        Jacobian row of the adjoint right-hand side i, with ``rhs`` the
        (interior row, column, weight) entries of the k right-hand sides:
        per point one factorization and one band solve over all k.

        Column i is -kappa_c * lambda_i^T S_c u per cell c, with S_c the unit
        stiffness scatter of the cell and lambda_i the adjoint solution, zero
        on the boundary, so only a cell's interior corners enter. The
        Dirichlet lift enters through the boundary entries of u.
        """
        n_cells, n_int = self.mesh.n_cells, self.mesh.interior.size
        rows, cols, weights = rhs
        corners, indices, indptr = self._corners
        nnz = indices.size // SUB_BLOCK
        out = np.empty((xs.shape[0], n_cells, k))
        for start in range(0, xs.shape[0], SUB_BLOCK):
            kappa, factors, u = self._solve(xs[start:start + SUB_BLOCK])
            s = kappa.shape[0]
            # each point's adjoint right-hand sides, in Fortran order, solved
            # in place, then stacked in C order as the CSR product reads them
            lam = np.zeros((s, k, n_int))
            lam[:, cols, rows] = weights
            for j, factor in enumerate(factors):
                dpbtrs(factor, lam[j].T, overwrite_b=1)
            lam = np.ascontiguousarray(lam.transpose(0, 2, 1)).reshape(s * n_int, -1)
            # S_c u at each interior corner, summed against lambda cell by
            # cell through the first s copies of the block-diagonal pattern
            w = (u.take(self.mesh.cell_nodes, axis=1) @ _K1T).reshape(-1).take(corners[:s * nnz])
            # summed straight into the points' rows of out, so no array the
            # size of a point's rows comes and goes per point
            acc = out[start:start + s].reshape(s * n_cells, k)
            _csr_product((w, indices[:s * nnz], indptr[:s * n_cells + 1]), lam, out=acc)
            acc *= -kappa.reshape(-1, 1)
        return out


def _whitened_rhs(rhs, outputs, n_outputs, metric):
    """The adjoint right-hand sides of the whitened rows, as (interior row,
    column, weight) entries like the Jacobian's ``rhs``, one column per
    output in ``outputs``.

    ``metric`` holds R's (row, column, value) entries, n_outputs square.
    Restricted to ``outputs`` it is R_aa, banded in their order: the
    row-major numbering keeps every two nodes of a cell within g. Its banded
    Cholesky factor (LAPACK ``dpbtrf``, R_aa = U^T U) turns the Jacobian's
    right-hand sides B into B U^T, whose column i holds U[i, j] times column
    j of B for each j in U's band. Their adjoint rows are G = U J_a, so
    G^T G = J^T R J, as the other outputs have zero Jacobian rows.
    """
    rows, cols, weights = rhs
    i, j, values = metric
    at = np.full(n_outputs, -1)
    at[outputs] = np.arange(outputs.size)
    i, j = at[i], at[j]
    upper = (i >= 0) & (i <= j)
    i, j, values = i[upper], j[upper], values[upper]
    kd = int(np.max(j - i))
    # R_aa in LAPACK's upper band storage, (i, j) at [kd + i - j, j], each
    # entry summed in the order given, as R's dense entries are
    band = np.zeros((kd + 1, outputs.size))
    np.add.at(band, (kd + i - j, j), values)
    factor, info = dpbtrf(band)
    if info > 0:
        raise NotPositiveDefinite(
            f"output metric: banded Cholesky failed at leading minor {info}")
    # U[j - t, j] sits at factor[kd - t, j]; B's entry (row, j, weight) adds
    # weight * U[j - t, j] at (row, j - t) for each t in the band. No two land
    # on one place: a full_field or subdomain output observes one node of its
    # own, and point_pair's R_aa, so U, is diagonal
    t = np.arange(kd + 1)
    to = cols[:, None] - t
    inside = to >= 0
    return (np.broadcast_to(rows[:, None], to.shape)[inside], to[inside],
            (weights[:, None] * factor[kd - t, cols[:, None]])[inside])


def _norm(v):
    """The 2-norm of a 1-d array, as np.linalg.norm takes it."""
    return math.sqrt(v.dot(v))


def _field_nugget(dim):
    """The diagonal nugget of a dim x dim field covariance: 1e-10, or ten
    times the dim * PD_FLOOR eigenvalue floor once that is larger (dim > 1000),
    so the kernel's eigenvalues, which round-off can push just below zero,
    still clear the floor."""
    return max(1e-10, 10.0 * dim * PD_FLOOR)


def build_field_covariance(mesh, lengthscale=0.15):
    """Squared-exponential covariance over cell centers plus the diagonal
    nugget ``_field_nugget(n_cells)``.

    The kernel of two cells is the product of the 1-D kernels of their x and
    of their y centers, so with cells numbered row-major the matrix is
    K (x) K + nugget I, K the g x g kernel on one axis's centers (k + 1/2)/g.
    It is built in that form (``SpdMatrix.kronecker``), whose root comes from
    one g x g eigendecomposition; the dense matrix, the kernel over all cell
    centers, is formed only when its entries are read.
    """
    g = mesh.cells_per_side
    nugget = _field_nugget(mesh.n_cells)
    kernel = squared_exponential_covariance(mesh.cell_centers[:g, 0], lengthscale)
    return SpdMatrix.kronecker(
        kernel.entries, nugget,
        lambda: squared_exponential_covariance(mesh.cell_centers, lengthscale, nugget).entries)
