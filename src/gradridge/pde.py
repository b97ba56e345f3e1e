"""Steady diffusion on the unit square as a concrete high-dimensional model.

The conductivity field is piecewise constant, one log-value per cell of a
regular quadrilateral grid, so the parameter vector lives in R^(g*g). The
solve uses bilinear (Q1) elements; the per-cell constant conductivity makes
one-point quadrature of the weighted stiffness exact, so each cell adds its
conductivity times the reference stiffness block, into a pattern fixed at
construction. Dirichlet data u = s1 + s2 is imposed by lifting, which keeps the
interior system symmetric positive definite. Jacobians come from one adjoint
solve per output component against the factorization of the same matrix.

Three observation scenarios map the solution field to the model output: the
full nodal field in the discrete H^1 metric, the restriction to a centered
subdomain in the same metric, and a weighted pair of point values.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    DimensionMismatch,
    InputClampedWarning,
    NotPositiveDefinite,
    NuggetEscalationWarning,
    SolverFailure,
)
from .linalg import SpdMatrix, cholesky
from .measure import squared_exponential_covariance
from .models import VectorValuedModel

__all__ = [
    "Mesh2D",
    "DiffusionModel",
    "build_field_covariance",
    "mode_field_export",
    "SCENARIOS",
    "SUBDOMAIN_BOUNDS",
    "POINT_A",
    "POINT_B",
]

SCENARIOS = ("full_field", "subdomain", "point_pair")
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

LOG_CONDUCTIVITY_LIMIT = 40.0


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

    def cell_areas(self):
        return np.full(self.n_cells, self.h * self.h)

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


def _cell_sum(cell_nodes, block, row_nodes, col_nodes):
    """kappa -> CSR sum over cells c of kappa[c] * block on the corners of c,
    restricted to the sorted ``row_nodes`` x ``col_nodes``. The pattern and the
    slot each cell entry adds into are fixed here; every slot sums in cell order."""
    n_cells, corners = cell_nodes.shape
    rows = np.repeat(cell_nodes, corners, axis=1).ravel()
    cols = np.tile(cell_nodes, (1, corners)).ravel()
    keep = np.isin(rows, row_nodes) & np.isin(cols, col_nodes)
    rows = np.searchsorted(row_nodes, rows[keep])
    keys, slot = np.unique(rows * col_nodes.size + np.searchsorted(col_nodes, cols[keep]),
                           return_inverse=True)
    cells = np.repeat(np.arange(n_cells), corners * corners)[keep]
    values = np.tile(block.ravel(), n_cells)[keep]
    fill = sp.csr_matrix((values, (slot, cells)), shape=(keys.size, n_cells))
    indptr = np.searchsorted(keys // col_nodes.size, np.arange(row_nodes.size + 1))
    shape = (row_nodes.size, col_nodes.size)
    return functools.partial(_filled, fill, keys % col_nodes.size, indptr, shape)


# module level, not a closure, so that models holding the map pickle
def _filled(fill, indices, indptr, shape, kappa):
    return sp.csr_matrix((fill @ kappa, indices, indptr), shape=shape)


class DiffusionModel(VectorValuedModel):
    """x -> observation of the diffusion solve with conductivity exp(x).

    ``scenario`` picks the observation operator and output metric:

    - ``full_field``: every nodal value, discrete H^1 (mass + stiffness) metric;
    - ``subdomain``: nodal values on cells centered in the middle box, same
      metric restricted there;
    - ``point_pair``: interpolated values at two fixed points, diagonal metric
      diag(alpha, beta).

    Each call fills the interior system's fixed pattern and factors it anew;
    instances hold only immutable precomputed structure, safe across threads.
    """

    def __init__(self, mesh, scenario="full_field", alpha=1.0, beta=1.0):
        if isinstance(mesh, int):
            mesh = Mesh2D(mesh)
        if scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r}, pick one of {SCENARIOS}")
        self.mesh = mesh
        self.scenario = scenario
        self.input_dim = mesh.n_cells
        self.lipschitz_constant = None

        nn = mesh.n_nodes
        cells = mesh.cell_nodes
        self._a_ii = _cell_sum(cells, _K1, mesh.interior, mesh.interior)
        self._a_ib = _cell_sum(cells, _K1, mesh.interior, mesh.boundary)
        self._boundary_values = mesh.nodes[:, 0] + mesh.nodes[:, 1]

        if scenario == "point_pair":
            if alpha <= 0 or beta <= 0:
                raise ValueError("point weights alpha, beta must be positive")
            obs = np.zeros((2, nn))
            for row, point in enumerate((POINT_A, POINT_B)):
                nodes, weights = mesh.interpolation_weights(point)
                obs[row, nodes] = weights
            self.output_metric = SpdMatrix.diagonal([alpha, beta])
            self.point_weights = (float(alpha), float(beta))
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
            # every node of the full grid touches a cell, so full_field observes all of them
            out_nodes = np.unique(cells[inside].ravel())
            h1 = _cell_sum(cells[inside], _M1 * (mesh.h * mesh.h) + _K1, out_nodes, out_nodes)
            self.output_metric = SpdMatrix(h1(np.ones(inside.size)).toarray())
            obs = np.zeros((out_nodes.size, nn))
            obs[np.arange(out_nodes.size), out_nodes] = 1.0
            self.point_weights = None
        self._observation = obs
        self.output_dim = obs.shape[0]
        self._obs_interior_t = obs[:, mesh.interior].T.copy()

    def _forward(self, x):
        """Assemble, factor (SuperLU) and solve the interior system.

        Returns the conductivities, the factorization's solve and the full
        nodal solution, boundary values included.
        """
        kappa = np.exp(_clamped_log_conductivity(self._check_point(x)))
        a_ii = self._a_ii(kappa).tocsc()
        rhs = -(self._a_ib(kappa) @ self._boundary_values[self.mesh.boundary])
        solve = spla.splu(a_ii).solve
        u_i = solve(rhs)
        resid = float(np.linalg.norm(a_ii @ u_i - rhs))
        if resid > 1e-10 * (float(np.linalg.norm(rhs)) + 1e-30):
            raise SolverFailure(resid)
        u = self._boundary_values.copy()
        u[self.mesh.interior] = u_i
        return kappa, solve, u

    def solve_field(self, x):
        """Full nodal solution vector, boundary values included."""
        return self._forward(x)[2]

    def eval(self, x):
        return self._observation @ self.solve_field(x)

    def jacobian(self, x):
        """Adjoint Jacobian: one factorization, one solve per output row.

        Row j of the Jacobian is -kappa_c * lambda_j^T S_c u per cell c, with
        S_c the unit stiffness scatter of the cell and lambda_j the adjoint
        solution for output j extended by zero to the boundary. The Dirichlet
        lift enters through the boundary entries of u.
        """
        kappa, solve, u = self._forward(x)

        lam_i = solve(self._obs_interior_t)  # (n_interior, n_out)
        lam = np.zeros((self.mesh.n_nodes, self.output_dim))
        lam[self.mesh.interior] = lam_i

        cells = self.mesh.cell_nodes
        u_cells = u[cells]                      # (n_cells, 4)
        w = u_cells @ _K1.T                     # S_c u restricted to the cell
        lam_cells = lam[cells]                  # (n_cells, 4, n_out)
        jac_t = -kappa[:, None] * np.einsum("cap,ca->cp", lam_cells, w)
        return jac_t.T


def build_field_covariance(mesh, lengthscale=0.15):
    """Squared-exponential covariance over cell centers, with the smallest
    diagonal nugget (starting at 1e-10, escalating tenfold up to 1e-6) that
    lets the Cholesky factorization succeed."""
    base = squared_exponential_covariance(mesh.cell_centers, lengthscale).entries
    nugget = 1e-10
    while True:
        cov = SpdMatrix(base + nugget * np.eye(base.shape[0]))
        try:
            cholesky(cov)
            return cov
        except NotPositiveDefinite:
            nugget *= 10.0
            if nugget > 1e-6:
                raise
            warnings.warn(
                f"covariance nugget escalated to {nugget:g}",
                NuggetEscalationWarning,
                stacklevel=2,
            )


def mode_field_export(mesh, values, path):
    """Write a cell-indexed vector as (cell_center_x, cell_center_y, value)
    CSV rows for plotting."""
    v = np.asarray(values, dtype=float).reshape(-1)
    if v.shape[0] != mesh.n_cells:
        raise DimensionMismatch(f"vector length {v.shape[0]} != cell count {mesh.n_cells}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("cell_center_x,cell_center_y,value\n")
        for (cx, cy), val in zip(mesh.cell_centers, v):
            fh.write(f"{float(cx)!r},{float(cy)!r},{float(val)!r}\n")
    return path
