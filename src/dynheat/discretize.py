"""Grids, coupled states, and the bulk/boundary operator.

The state space pairs a bulk field on Omega with a trace field on Gamma,
with the trace sharing the unknowns of the bulk boundary nodes (one degree
of freedom per node).  The discrete inner product is

    <U, V> = sum_i w_bulk[i] U_i V_i + sum_{i on Gamma} w_trace[i] U_i V_i,

so the mass vector is m = w_bulk + w_trace.  The generator is assembled
from the Dirichlet energy

    E(U, V) = int_Omega grad u . grad v + int_Gamma grad_G u . grad_G v,

discretized as a sum over grid edges: E(U, V) = (D U) . (g * (D V)) with a
signed incidence matrix D and positive edge weights g.  The operator is
A = -M^{-1} K with K = D^T diag(g) D, which makes A self-adjoint and
dissipative in the mass inner product by construction, annihilates
constants exactly (edge differences of a constant vanish in floating
point), and couples each boundary node to its interior neighbour through
the flux term that realizes the dynamic boundary condition.  An
OperatorSet keeps the edge list, g and K's diagonal, the sum of each
node's edge weights in ascending edge order (the order the product
D^T diag(g) D summed them in).  The time-step solvers read their
coefficients from these.  The CSR matrices K and D are formed on first
use, by the log-convexity forms (K), apply_K (D) and dense oracles.  K
is written entry by entry, never multiplied out: that diagonal, and -g
at (a, b) and (b, a) for each edge; the boundary ring's doubled edges
meet there as two terms, whose sum does not depend on order.  So K
equals the product to the last bit.

Grids: a uniform interval with trapezoid bulk weights and unit point
masses on the two ends, and a polar disk grid with half-offset radii
(first ring at dr/2, so the coordinate singularity at r = 0 never carries
a node) plus a boundary ring at r = R.  Both quadratures reproduce the
domain measures exactly.

States are plain float arrays with one value per grid node, (n,); boundary
nodes carry both the bulk sample and the trace value (a single unknown), so
the trace is u[grid.boundary_idx].  An ensemble is an (n, m) block with one
member per column.  Every product, form and norm below takes either and
works per column on a block.

Grid and OperatorSet instances are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError, UsageError

MIN_INTERVAL_NODES = 4
MIN_RADIAL_CELLS = 2
MIN_ANGULAR_CELLS = 4
# D's row pointers count its two entries per edge in int32, and a disk grid
# has two edges per node, so no grid may have more nodes
MAX_NODES = np.iinfo(np.int32).max // 4


@dataclass(frozen=True)
class Grid:
    """Node set with quadrature weights and boundary/observation index maps.

    points has shape (n, dim).  w_bulk and w_trace have length n; w_trace
    vanishes off the boundary.  normals holds the outward unit normal per
    boundary node, aligned with boundary_idx.
    """

    domain: object
    points: np.ndarray
    w_bulk: np.ndarray
    w_trace: np.ndarray
    boundary_idx: np.ndarray
    normals: np.ndarray
    omega_idx: np.ndarray
    shape: tuple
    spacing: tuple

    def __post_init__(self):
        for name in ("points", "w_bulk", "w_trace", "boundary_idx",
                     "normals", "omega_idx"):
            getattr(self, name).setflags(write=False)

    @property
    def n_dofs(self):
        return self.points.shape[0]

    @property
    def mass(self):
        return self.w_bulk + self.w_trace


def check_grid_size(kind, n=None, nr=None, ntheta=None):
    """Check build_grid's sizes for a domain kind without allocating:
    ConfigurationError for a missing size, one below its minimum, or a
    grid of more than MAX_NODES nodes, naming the [grid] keys."""
    if kind == "interval":
        if n is None:
            raise ConfigurationError("interval grid needs n")
        n = int(n)
        if n < MIN_INTERVAL_NODES:
            raise ConfigurationError(f"interval grid needs n >= {MIN_INTERVAL_NODES}, got {n}")
        nodes, keys = n, f"grid.n = {n}"
    else:
        if nr is None or ntheta is None:
            raise ConfigurationError("disk grid needs nr and ntheta")
        nr, ntheta = int(nr), int(ntheta)
        if nr < MIN_RADIAL_CELLS or ntheta < MIN_ANGULAR_CELLS:
            raise ConfigurationError(
                f"disk grid needs nr >= {MIN_RADIAL_CELLS} and ntheta >= {MIN_ANGULAR_CELLS}, "
                f"got nr={nr}, ntheta={ntheta}")
        nodes, keys = (nr + 1) * ntheta, f"grid.nr = {nr} and grid.ntheta = {ntheta}"
    if nodes > MAX_NODES:
        raise ConfigurationError(
            f"a grid of {nodes} nodes ({keys}) is larger than the {MAX_NODES} "
            f"nodes that the int32 indices of K and D can address")


def build_grid(domain, n=None, nr=None, ntheta=None):
    """Build the grid matching the domain kind, its sizes checked first
    (check_grid_size).

    Interval: n equally spaced nodes including both endpoints.
    Disk: nr interior rings at radii (i + 1/2) dr plus a boundary ring of
    ntheta nodes at r = R, with dr = R / (nr + 1/2).
    """
    check_grid_size(domain.kind, n, nr, ntheta)
    if domain.kind == "interval":
        return _interval_grid(domain, int(n))
    return _disk_grid(domain, int(nr), int(ntheta))


def _interval_grid(domain, n):
    a, b = domain.a, domain.b
    dx = (b - a) / (n - 1)
    x = a + dx * np.arange(n)
    points = x.reshape(-1, 1)

    w_bulk = np.full(n, dx)
    w_bulk[0] = w_bulk[-1] = 0.5 * dx
    w_trace = np.zeros(n)
    w_trace[0] = w_trace[-1] = 1.0

    boundary_idx = np.array([0, n - 1])
    normals = np.array([[-1.0], [1.0]])

    lo, hi = domain.omega.lo, domain.omega.hi
    omega_idx = np.nonzero((x >= lo) & (x <= hi))[0]
    if omega_idx.size == 0:
        raise ConfigurationError(f"omega=({lo}, {hi}) contains no grid nodes at n={n}")

    return Grid(domain=domain, points=points, w_bulk=w_bulk, w_trace=w_trace,
                boundary_idx=boundary_idx,
                normals=normals, omega_idx=omega_idx, shape=(n,), spacing=(dx,))


def _disk_grid(domain, nr, ntheta):
    R = domain.radius
    cx, cy = domain.center
    dr = R / (nr + 0.5)
    dtheta = 2.0 * np.pi / ntheta
    radii = (np.arange(nr) + 0.5) * dr
    theta = dtheta * np.arange(ntheta)

    # interior nodes first (ring-major), boundary ring last
    rr = np.repeat(radii, ntheta)
    tt = np.tile(theta, nr)
    pts_int = np.column_stack([cx + rr * np.cos(tt), cy + rr * np.sin(tt)])
    pts_bnd = np.column_stack([cx + R * np.cos(theta), cy + R * np.sin(theta)])
    points = np.vstack([pts_int, pts_bnd])
    n_int = nr * ntheta
    n = n_int + ntheta

    w_bulk = np.empty(n)
    w_bulk[:n_int] = np.repeat(radii * dr * dtheta, ntheta)
    # outermost half cell r in [nr*dr, R] is carried by the boundary nodes
    w_bulk[n_int:] = 0.5 * (R ** 2 - (nr * dr) ** 2) * dtheta
    w_trace = np.zeros(n)
    w_trace[n_int:] = R * dtheta

    boundary_idx = np.arange(n_int, n)
    normals = np.column_stack([np.cos(theta), np.sin(theta)])

    oc = np.asarray(domain.omega.center)
    d = np.hypot(points[:, 0] - oc[0], points[:, 1] - oc[1])
    omega_idx = np.nonzero(d <= domain.omega.radius)[0]
    if omega_idx.size == 0:
        raise ConfigurationError(
            f"omega disk (r={domain.omega.radius}) contains no grid nodes at nr={nr}, ntheta={ntheta}")

    return Grid(domain=domain, points=points, w_bulk=w_bulk, w_trace=w_trace,
                boundary_idx=boundary_idx,
                normals=normals, omega_idx=omega_idx,
                shape=(nr, ntheta), spacing=(dr, dtheta))


def per_node(w, u):
    """Node weights w shaped to scale a state (n,) or a block (n, m)."""
    return w if np.ndim(u) == 1 else w[:, None]


def column_dots(a, b):
    """Sum of a * b over two states, or down each column (axis 0) of two
    blocks, (n, m) or (n, S, m).

    The product is formed in Fortran order, so np.sum takes numpy's
    pairwise sum over each contiguous column as over one state: a block's
    sums equal its one-column sums bit for bit."""
    ab = np.multiply(a, b, order="F")
    if ab.ndim == 1:
        return float(np.sum(ab))
    return np.sum(ab, axis=0)


def _root(sq):
    """sqrt(max(sq, 0)): a float for one state, an array per column."""
    r = np.sqrt(np.maximum(sq, 0.0))
    return float(r) if r.ndim == 0 else r


@dataclass(frozen=True)
class OperatorSet:
    """Mass and stiffness of the coupled generator A = -M^{-1} K.

    K = D^T diag(g) D is kept as its edge list (n_edges, 2), the edge
    weights g and its diagonal, computed here from the two.  The signed
    incidence D and the CSR matrix K are formed from them on first access
    and kept: apply_K multiplies by D.T, a CSC view of D that copies
    nothing, and K serves the log-convexity forms and dense oracles.
    """

    grid: Grid
    mass: np.ndarray
    edges: np.ndarray
    edge_weights: np.ndarray
    diagonal: np.ndarray = field(init=False, repr=False)
    _mass_omega: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "diagonal", np.bincount(
            self.edges.ravel(), weights=np.repeat(self.edge_weights, 2), minlength=self.n_dofs))
        object.__setattr__(self, "_mass_omega", self.grid.w_bulk[self.grid.omega_idx].copy())
        for name in ("mass", "edges", "edge_weights", "diagonal", "_mass_omega"):
            getattr(self, name).setflags(write=False)

    @cached_property
    def incidence(self):
        """D as sorted CSR: row e holds the edge's two ends in ascending
        column order, +1 and -1 by its orientation."""
        n_edges = self.edges.shape[0]
        a, b = self.edges.astype(np.int32).T
        sign = np.where(a < b, 1.0, -1.0)
        return sp.csr_matrix((np.column_stack([sign, -sign]).ravel(),
                              np.column_stack([np.minimum(a, b), np.maximum(a, b)]).ravel(),
                              np.arange(0, 2 * n_edges + 1, 2, dtype=np.int32)),
                             shape=(n_edges, self.n_dofs))

    @cached_property
    def K(self):
        """K as CSR, written entry by entry (see the module docstring)."""
        n = self.n_dofs
        a, b = self.edges.astype(np.int32).T
        nodes = np.arange(n, dtype=np.int32)
        g = self.edge_weights
        return sp.csr_matrix((np.concatenate([self.diagonal, -g, -g]),
                              (np.concatenate([nodes, a, b]), np.concatenate([nodes, b, a]))),
                             shape=(n, n))

    @property
    def n_dofs(self):
        return self.grid.n_dofs

    # -- inner products -------------------------------------------------
    def inner(self, u, v):
        """Mass inner product of two states, or per column of two blocks."""
        return column_dots(per_node(self.mass, u) * u, v)

    def norm(self, u):
        """Mass norm of a state, or per column of a block."""
        return _root(self.inner(u, u))

    def inner_omega(self, u, v):
        """Mass inner product on omega, per column for blocks (n_omega, m)."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        n_omega = self._mass_omega.size
        if (u.ndim not in (1, 2) or v.ndim != u.ndim
                or u.shape[0] != n_omega or v.shape[0] != n_omega):
            raise UsageError(f"omega vectors need shape ({n_omega},) or ({n_omega}, m)")
        return column_dots(per_node(self._mass_omega, u) * u, v)

    def norm_omega(self, u):
        return _root(self.inner_omega(u, u))

    # -- operator action -------------------------------------------------
    def edge_flux(self, u):
        """g * (D u) for a state (n,) or a block (n, m): K u = D^T edge_flux(u)."""
        w = self.incidence @ u
        return per_node(self.edge_weights, w) * w

    def apply_K(self, u):
        """K u for a state (n,) or a block of states (n, m)."""
        return self.incidence.T @ self.edge_flux(u)

    # -- observation region ----------------------------------------------
    def restrict_omega(self, u):
        """The omega rows of a state (n,) or a block (n, m), as a new array."""
        return u[self.grid.omega_idx]

    def embed_omega(self, v):
        """Zero extension of an omega vector (n_omega,) or block (n_omega, m)."""
        v = np.asarray(v, dtype=float)
        n_omega = self.grid.omega_idx.size
        if v.ndim not in (1, 2) or v.shape[0] != n_omega:
            raise UsageError(
                f"omega payload needs shape ({n_omega},) or ({n_omega}, m), got {v.shape}")
        full = np.zeros((self.n_dofs,) + v.shape[1:])
        full[self.grid.omega_idx] = v
        return full


def _edges_interval(grid):
    n = grid.n_dofs
    dx = grid.spacing[0]
    i = np.arange(n - 1)
    return np.column_stack([i, i + 1]), np.full(n - 1, 1.0 / dx)


def _edges_disk(grid):
    nr, ntheta = grid.shape
    dr, dtheta = grid.spacing
    n_int = nr * ntheta
    j = np.arange(ntheta)
    jn = (j + 1) % ntheta
    # radial fluxes from ring i to ring i + 1 (the boundary ring for
    # i = nr - 1, its nodes at n_int + j), weighted by the edge radius
    inner = np.arange(n_int)
    radial = np.column_stack([inner, inner + ntheta])
    g_radial = np.arange(1, nr + 1) * dr * dtheta / dr
    # angular fluxes within each interior ring, then twice along the
    # boundary ring: the outermost half cell and the Laplace-Beltrami
    # coupling
    rings = np.append(np.arange(nr + 1), nr)[:, None] * ntheta
    angular = np.column_stack([(rings + j).ravel(), (rings + jn).ravel()])
    r = (np.arange(nr) + 0.5) * dr
    r_half = (nr + 0.25) * dr
    g_angular = np.concatenate([dr / (r * dtheta),
                                [0.5 * dr / (r_half * dtheta),
                                 1.0 / (grid.domain.radius * dtheta)]])
    return (np.vstack([radial, angular]),
            np.repeat(np.concatenate([g_radial, g_angular]), ntheta))


def assemble_operator(grid):
    """Assemble mass and stiffness for the coupled bulk/boundary generator."""
    if grid.domain.kind == "interval":
        edges, g = _edges_interval(grid)
    else:
        edges, g = _edges_disk(grid)
    return OperatorSet(grid=grid, mass=grid.mass, edges=edges, edge_weights=g)
