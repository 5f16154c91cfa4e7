from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

import dynheat as dh
from dynheat import discretize, evolve
from dynheat.discretize import OperatorSet


@pytest.fixture(scope="session")
def iv_domain():
    return dh.DomainSpec.interval(0.0, 1.0, 0.5, 0.3, 0.7)


@pytest.fixture(scope="session")
def iv_ops(iv_domain):
    return dh.assemble_operator(dh.build_grid(iv_domain, n=48))


@pytest.fixture(scope="session")
def iv_small_ops(iv_domain):
    return dh.assemble_operator(dh.build_grid(iv_domain, n=12))


@pytest.fixture(scope="session")
def disk_domain():
    return dh.DomainSpec.disk((0.0, 0.0), 1.0, (0.0, 0.0), (0.0, 0.0), 0.5)


@pytest.fixture(scope="session")
def disk_ops(disk_domain):
    return dh.assemble_operator(dh.build_grid(disk_domain, nr=6, ntheta=16))


@pytest.fixture(scope="session")
def wide_disk_ops():
    """The certify-disk benchmark grid (816 dofs), where a multi-column
    sparse LU solve rounded columns differently from one-state solves; the
    block-identity tests keep it."""
    dom = dh.DomainSpec.disk((0.0, 0.0), 1.0, (0.0, 0.0), (0.0, 0.0), 0.3)
    return dh.assemble_operator(dh.build_grid(dom, nr=16, ntheta=48))


@pytest.fixture(scope="session")
def params():
    return dh.WeightParams(s=0.5, h=0.5, T=1.0)


@pytest.fixture(scope="session")
def sched():
    return dh.Schedule(0.0, 1.0, 1e-2)


def unit_random_state(ops, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(ops.n_dofs)
    return v / ops.norm(v)


def smooth_random_state(ops, seed, n_burn=20, dt_burn=5e-3):
    """Seeded random data damped by a short implicit burn-in, so time
    differencing along its trace sits in the resolved dt regime."""
    rng = np.random.default_rng(seed)
    prop = dh.Propagator(ops, dt_burn, "backward_euler")
    u = rng.standard_normal(ops.n_dofs)
    u = prop.flow(u, n_burn)
    return u / ops.norm(u)


def final_states(ops, sched, block):
    """The (n, m) block of states flowed over the schedule: U(T) per column."""
    return dh.Propagator(ops, sched.dt, sched.scheme).flow(block, sched.steps)


def theta_broken(ops):
    """Disk ops with one edge weight doubled, that of the angular edge from
    ring 2's theta index 3 to 4, off the ring's theta = 0 node: K is no
    longer invariant under rotation in theta."""
    node = 2 * ops.grid.shape[1] + 3
    (edge,) = np.flatnonzero((ops.edges[:, 0] == node) & (ops.edges[:, 1] == node + 1))
    g = ops.edge_weights.copy()
    g[edge] *= 2.0
    return OperatorSet(grid=ops.grid, mass=ops.mass.copy(), edges=ops.edges, edge_weights=g)


def frozen_ring_coefficients(ops):
    """Each disk ring's diagonal, angular and radial coupling at its
    theta = 0 node, as the disk solver read them from the assembled K."""
    nr, ntheta = ops.grid.shape
    first = np.arange(nr + 1) * ntheta
    K = ops.K
    diag = np.asarray(K[first, first]).ravel()
    angular = -np.asarray(K[first, first + 1]).ravel()
    radial = -np.asarray(K[first[:-1], first[1:]]).ravel()
    return diag, angular, radial


def frozen_step_solver(ops, c):
    """The solve of M + c K with its coefficients read from the assembled
    K: the interval's two diagonals, the disk's frozen_ring_coefficients."""
    if ops.grid.domain.kind == "interval":
        return evolve._Tridiagonal(ops.mass + c * ops.K.diagonal(), c * ops.K.diagonal(1),
                                   "frozen interval")
    with mock.patch.object(evolve, "_ring_coefficients", frozen_ring_coefficients):
        return evolve._DiskSolver(ops, c)


def frozen_assembly(grid):
    """K and D as the sparse product formed them, K = D^T diag(g) D: the
    frozen reference that assemble_operator matches bit for bit."""
    if grid.domain.kind == "interval":
        edges, g = discretize._edges_interval(grid)
    else:
        edges, g = discretize._edges_disk(grid)
    n_edges = edges.shape[0]
    D = sp.csr_matrix((np.tile([1.0, -1.0], n_edges),
                       (np.repeat(np.arange(n_edges), 2), edges.ravel())),
                      shape=(n_edges, grid.n_dofs))
    K = (D.T @ sp.diags(g) @ D).tocsr()
    K.sum_duplicates()
    return K, D


def dirichlet_form(ops, u, v):
    """Energy E(u, v) = (D u) . (g * (D v)), per column for blocks; >= 0 for u = v."""
    return discretize.column_dots(ops.edge_flux(u), ops.incidence @ v)
