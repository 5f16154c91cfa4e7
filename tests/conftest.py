import numpy as np
import pytest

import dynheat as dh
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
    """Disk ops with one diagonal entry of K doubled, off ring 2's theta = 0
    node: K is no longer invariant under rotation in theta."""
    K = ops.K.copy()
    node = 2 * ops.grid.shape[1] + 3
    K[node, node] *= 2.0
    return OperatorSet(grid=ops.grid, mass=ops.mass.copy(), K=K,
                       incidence=ops.incidence, edge_weights=ops.edge_weights.copy())
