from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import dynheat as dh
from dynheat import discretize, evolve, logconvexity as lc
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


THETA_BROKEN_KINDS = ("radial", "angular", "boundary")


def theta_broken(ops, kind):
    """Disk ops with one edge weight doubled, off the rings' theta = 0
    nodes, so K is no longer invariant under rotation in theta.  The edge
    leaves ring 2's theta index 3: for kind "radial" to ring 3, for
    "angular" to theta index 4 of ring 2; for "boundary" it is the first
    of the boundary ring's two edges from theta index 3 to 4."""
    nr, ntheta = ops.grid.shape
    a, b = ops.edges.T
    node = (nr if kind == "boundary" else 2) * ntheta + 3
    other = node + ntheta if kind == "radial" else node + 1
    edge = np.flatnonzero((a == node) & (b == other))[0]
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


def frozen_edge_ring_coefficients(ops):
    """Each disk ring's diagonal, angular and radial coupling at its
    theta = 0 node, read from K's diagonal and the edge list as the disk
    solver and the modal flow read them before they shared one ring-mode
    layer."""
    nr, ntheta = ops.grid.shape
    a, b = ops.edges.T
    first = np.zeros(ops.n_dofs, dtype=bool)
    first[::ntheta] = True
    at_first = np.flatnonzero(first[a])
    ring, hop = a[at_first] // ntheta, b[at_first] - a[at_first]
    g = ops.edge_weights[at_first]
    angular = np.bincount(ring[hop == 1], g[hop == 1], nr + 1)
    radial = np.bincount(ring[hop == ntheta], g[hop == ntheta], nr)
    return ops.diagonal[::ntheta], angular, radial


class FrozenDiskSolver:
    """The disk's solve of M + c K in its (part, mode, ring) layout, with
    the real and the imaginary part of every column two right-hand sides
    and the result written back through the complex planes: the frozen
    reference that the step solve matches bit for bit."""

    def __init__(self, ops, c):
        nr, ntheta = ops.grid.shape
        self._shape = (nr + 1, ntheta)
        diag, angular, radial = frozen_edge_ring_coefficients(ops)
        half = np.sin(np.pi / ntheta * np.arange(ntheta // 2 + 1)) ** 2
        d = (ops.mass[::ntheta] + c * (diag - 2.0 * angular))[:, None] \
            + (4.0 * c * angular)[:, None] * half
        e = np.zeros((half.size, nr + 1))
        e[:, :-1] = -c * radial
        self._solve = evolve._Tridiagonal(d.T.ravel(), e.ravel()[:-1], "frozen disk")

    def __call__(self, rhs):
        rings, ntheta = self._shape
        m = rhs.size // (rings * ntheta)
        F = np.fft.rfft(np.ascontiguousarray(rhs.T).reshape(m, rings, ntheta), axis=-1)
        parts = F.view(np.float64).reshape(m, rings, -1, 2).transpose(0, 3, 2, 1)
        X = self._solve(np.reshape(parts, (2 * m, -1)).T)
        parts = X.T.reshape(m, 2, -1, rings)
        F.real = parts[:, 0].transpose(0, 2, 1)
        F.imag = parts[:, 1].transpose(0, 2, 1)
        x = np.fft.irfft(F, n=ntheta, axis=-1)
        return x.reshape(rhs.shape[::-1]).T


def frozen_disk_modal_flow(ops, dt, scheme, steps, u):
    """P^steps u on a disk from the generator's modes in the (mode, part,
    ring) layout that the modal flow formed on its own: the frozen
    reference that _ModalFlow matches bit for bit."""
    nr, ntheta = ops.grid.shape
    rings = nr + 1
    diag, angular, radial = frozen_edge_ring_coefficients(ops)
    half = np.sin(np.pi / ntheta * np.arange(ntheta // 2 + 1)) ** 2
    k_diag = (diag - 2.0 * angular) + (4.0 * angular) * half[:, None]
    k_off, mass = -radial, ops.mass[::ntheta]
    root = np.sqrt(mass)
    c = 0.5 * dt if scheme == "crank_nicolson" else dt
    flows = np.empty(k_diag.shape + (rings,))
    for k, d in enumerate(k_diag):
        lam, U = sla.eigh_tridiagonal(d / mass, k_off / (root[:-1] * root[1:]))
        x = c * lam
        r = (1.0 - x) / (1.0 + x) if scheme == "crank_nicolson" else 1.0 / (1.0 + x)
        flows[k] = (root[:, None] * U) @ (r[:, None] ** steps * U.T) / root
    X = np.ascontiguousarray(np.reshape(u, (u.shape[0], -1)).T)
    m = X.shape[0]
    F = np.fft.rfft(X.reshape(m, rings, ntheta), axis=-1)
    parts = F.view(np.float64).reshape(m, rings, -1, 2).transpose(0, 2, 3, 1)
    parts = np.ascontiguousarray(parts) @ flows
    F = np.ascontiguousarray(parts.transpose(0, 3, 1, 2)).view(np.complex128)[..., 0]
    return np.fft.irfft(F, n=ntheta, axis=-1).reshape(m, -1).T.reshape(u.shape)


def same_bits(a, b):
    """Equal shapes and values, sign bits of zeros included."""
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def frozen_disk_grid(domain, nr, ntheta):
    """points, normals, w_bulk and omega_idx of a disk grid as build_grid
    first formed them, with one cos and sin call per node: the frozen
    reference that build_grid matches bit for bit."""
    R = domain.radius
    cx, cy = domain.center
    dr = R / (nr + 0.5)
    dtheta = 2.0 * np.pi / ntheta
    radii = (np.arange(nr) + 0.5) * dr
    theta = dtheta * np.arange(ntheta)
    rr = np.repeat(radii, ntheta)
    tt = np.tile(theta, nr)
    pts_int = np.column_stack([cx + rr * np.cos(tt), cy + rr * np.sin(tt)])
    pts_bnd = np.column_stack([cx + R * np.cos(theta), cy + R * np.sin(theta)])
    points = np.vstack([pts_int, pts_bnd])
    n_int = nr * ntheta
    w_bulk = np.empty(n_int + ntheta)
    w_bulk[:n_int] = np.repeat(radii * dr * dtheta, ntheta)
    w_bulk[n_int:] = 0.5 * (R ** 2 - (nr * dr) ** 2) * dtheta
    normals = np.column_stack([np.cos(theta), np.sin(theta)])
    oc = np.asarray(domain.omega.center)
    d = np.hypot(points[:, 0] - oc[0], points[:, 1] - oc[1])
    omega_idx = np.nonzero(d <= domain.omega.radius)[0]
    return {"points": points, "normals": normals, "w_bulk": w_bulk, "omega_idx": omega_idx}


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


def apply_A(ops, u):
    """A u = -M^{-1} K u for a state (n,) or a block of states (n, m)."""
    return -ops.apply_K(u) / discretize.per_node(ops.mass, u)


def dense_A(ops):
    """Dense operator matrix A = -M^{-1} K for small-grid oracles."""
    return -ops.K.toarray() / ops.mass[:, None]


def measures(domain):
    """(|Omega|, |Gamma|): length and point count, or area and perimeter."""
    if domain.kind == "interval":
        return domain.b - domain.a, 2.0
    return np.pi * domain.radius ** 2, 2.0 * np.pi * domain.radius


def energy_residuals(ops, params, block, sched):
    """Midpoint residuals of the energy identity, one row per column of the
    (n, m) block of states.

    Entry k is 1/2 (||F_{k+1}||^2 - ||F_k||^2)/dt + <-S F, F> at the step
    midpoint, with F the weighted mean of the step's end states; it
    vanishes at order dt^2.  ||F||^2 is run_traces' own, and its refusals
    are run_traces'; the states flow once more as one block, and every row
    is bit for bit its one-member residuals.
    """
    normF2 = lc.run_traces(ops, params, block, sched).normF2
    times = sched.times()
    s_phi = lc._s_phi(ops, params, times)
    resid = np.empty((block.shape[1], times.size - 1))
    states = evolve.Propagator(ops, sched.dt, sched.scheme).trajectory(block, sched.steps)
    prev = next(states)
    for k, (X, t_mid) in enumerate(zip(states, 0.5 * (times[:-1] + times[1:]))):
        # the step midpoint as one sample: weights (7, n, 1, 1), block (n, 1, m)
        w = lc._weights(ops, params, s_phi, [t_mid])
        neg_S = lc._forms(ops, w, (0.5 * (prev + X))[:, None])[1][0]
        resid[:, k] = 0.5 * (normF2[:, k + 1] - normF2[:, k]) / sched.dt + neg_S
        prev = X
    return resid


def interpolation_exponent(params, t1, t2, t3):
    """Closed-form exponent M = I(t2,t3)/I(t1,t2) for the weight
    (T - t + h)^{-(1+C0)}, via the explicit antiderivative."""
    anti = [lc._weight_antiderivative(params, t) for t in (t1, t2, t3)]
    denom = anti[1] - anti[0]
    if denom <= 0.0:
        raise dh.UsageError(f"need t1 < t2, got t1={t1}, t2={t2}")
    return (anti[2] - anti[1]) / denom
