"""Time propagation of the coupled flow, including one impulsive kick.

Crank-Nicolson (default) and backward Euler act on the mass/stiffness pair
directly:

    CN:  U_{k+1} = (M + dt/2 K)^{-1} (2 M U_k) - U_k
    BE:  U_{k+1} = (M + dt   K)^{-1} (M U_k)

The CN line is (M + cK)^{-1} (M - cK) = 2 (M + cK)^{-1} M - I, so every
step of either scheme is one structured solve of a nodal product, and CN
adds one subtraction; no step applies K.  In smooth modes, where the CN
factor is near 1, the subtraction doubles the solve's rounding: on a
400-node interval at dt = 0.01, |P^50 1 - 1| is 9.3e-13, against 4.7e-13
when (M - cK) U_k is formed.

Both step operators are rational functions of the self-adjoint generator,
hence themselves self-adjoint in the mass inner product and contractive.
That is what lets the control layer reuse forward propagation verbatim for
the adjoint flow, so duality identities hold at solver precision.

The impulsive solution is the mild formula: free flow to tau, add the
localized payload, free flow to T.  tau is rounded to the nearest step
boundary by Schedule.kick_step, which the control layer shares, and the
effective value is reported.

Propagator is the one place where the flow advances, for single states and
for blocks of states alike.

Every step solve is exact up to rounding and structured.  The interval's
step matrix M + cK is SPD tridiagonal: LAPACK's L D L^T factorization
(dpttrf) runs once and its solve (dpttrs) every step.  On a disk every ring carries ntheta
nodes with ring-only weights, so the step matrix is block-circulant in
theta.  A real FFT over theta splits it into ntheta/2 + 1 SPD tridiagonal
systems in r, one per Fourier mode, which are stacked into one
block-diagonal tridiagonal system and solved the same way (Hockney, J. ACM
12, 1965; Swarztrauber, SIAM J. Numer. Anal. 11, 1974).  dpttrs sweeps
every right-hand side alone and in the same order, so on every grid a
block's columns equal their one-state steps bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import lapack

from .discretize import per_node
from .errors import ConfigurationError, NumericalError

SCHEMES = ("crank_nicolson", "backward_euler")
# a label only: the benchmark tracer counts steps on grids above it; no solve reads it
DIRECT_SOLVE_MAX_DOFS = 20000
_STRUCTURED_RESIDUAL_TOL = 1e-10
_DT_DIVISION_RTOL = 1e-9
# numpy caps an array's size in bytes at the largest np.intp, so a float
# array holds at most this many samples
_MAX_SAMPLES = np.iinfo(np.intp).max // np.dtype(float).itemsize


@dataclass(frozen=True)
class Schedule:
    """Uniform time grid on [t0, t1] with step dt and a scheme name."""

    t0: float
    t1: float
    dt: float
    scheme: str = "crank_nicolson"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}, pick one of {SCHEMES}")
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.t1 < self.t0:
            raise ConfigurationError(f"needs t1 >= t0, got [{self.t0}, {self.t1}]")
        span = self.t1 - self.t0
        # steps + 1 samples, checked before round(), which fails on inf
        if span / self.dt >= _MAX_SAMPLES:
            raise ConfigurationError(
                f"time.dt = {self.dt} gives {span / self.dt:.3g} steps over "
                f"[{self.t0}, {self.t1}], more than the {_MAX_SAMPLES} samples "
                f"a numpy array can hold")
        steps = round(span / self.dt)
        if abs(steps * self.dt - span) > _DT_DIVISION_RTOL * max(span, self.dt):
            raise ConfigurationError(
                f"dt={self.dt} does not divide the span {span} (closest: {steps} steps)")

    @property
    def steps(self):
        return round((self.t1 - self.t0) / self.dt)

    def times(self):
        return self.t0 + self.dt * np.arange(self.steps + 1)

    def kick_step(self, tau):
        """n_tau, the step that tau snaps to: round((tau - t0) / dt) kept in
        [1, steps - 1], so the effective kick time is t0 + n_tau dt.  tau
        outside (t0, t1), or fewer than 2 steps, raises ConfigurationError."""
        if not (self.t0 < tau < self.t1):
            raise ConfigurationError(
                f"impulse time tau={tau} must lie strictly inside ({self.t0}, {self.t1})")
        if self.steps < 2:
            raise ConfigurationError(
                f"impulse.tau = {tau} needs a step before and after the kick; "
                f"time.dt = {self.dt} gives {self.steps} step over [{self.t0}, {self.t1}]")
        return min(max(round((tau - self.t0) / self.dt), 1), self.steps - 1)


class _Tridiagonal:
    """SPD tridiagonal solve (diagonal d, off-diagonal e) by dpttrf once and
    dpttrs per call, for a right-hand side (n,) or a block (n, m) that it
    may overwrite; a block comes back in Fortran order.  A nonpositive
    pivot raises NumericalError naming where."""

    def __init__(self, d, e, where):
        self._d, self._e, info = lapack.dpttrf(d, e)
        if info != 0:
            raise NumericalError(
                f"factorization of the step matrix failed on the {where} "
                f"(dpttrf info {info}: pivot not positive)")

    def __call__(self, rhs):
        return lapack.dpttrs(self._d, self._e, rhs, overwrite_b=True)[0]


def _ring_coefficients(ops):
    """Each disk ring's diagonal, angular coupling to the next node in theta
    and radial coupling to the next ring, at its theta = 0 node: K's
    diagonal there and the weights of the edges that leave that node for
    node + 1 and node + ntheta.  The boundary ring has two angular edges
    there, whose weights are summed; two terms, so the order does not
    matter."""
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


class _DiskSolver:
    """Exact solve of (diag(mass) + c K) x = b on a disk grid.

    Nodes are ring-major, the boundary ring last, so a state reshapes to
    (nr + 1, ntheta).  The ring coefficients are read at each ring's
    theta = 0 node from K's diagonal and edge weights
    (_ring_coefficients).  A real FFT over theta turns the circulant
    angular coupling into the diagonal factor 2 cos(2 pi k / ntheta) per
    mode k; each mode leaves an SPD tridiagonal system in r.  The modes' systems, with zero couplings
    between them, form one block-diagonal tridiagonal system, factorized
    once; the real and the imaginary part of every column are two of its
    right-hand sides.  Construction solves one fixed vector, checks it
    against K applied from the whole edge list and raises NumericalError
    when the relative residual exceeds 1e-10, as it does for a K that is
    not theta-invariant.
    """

    def __init__(self, ops, c):
        nr, ntheta = ops.grid.shape
        self._shape = (nr + 1, ntheta)
        diag, angular, radial = _ring_coefficients(ops)
        # diag - 2 angular cos(phi) as (diag - 2 angular) + 4 angular
        # sin^2(phi / 2): on the inner rings the angular weights dwarf the
        # radial ones, and there the first difference is exact (Sterbenz),
        # so the low modes keep their small radial part
        half = np.sin(np.pi / ntheta * np.arange(ntheta // 2 + 1)) ** 2
        d = (ops.mass[::ntheta] + c * (diag - 2.0 * angular))[:, None] \
            + (4.0 * c * angular)[:, None] * half
        # mode-major: the rings of mode k are unknowns k (nr + 1) + i
        e = np.zeros((half.size, nr + 1))
        e[:, :-1] = -c * radial
        self._solve = _Tridiagonal(d.T.ravel(), e.ravel()[:-1], f"{nr}x{ntheta} disk")

        b = np.random.default_rng(0).standard_normal(ops.n_dofs)
        x = self(b)
        # K x = D^T (g * D x) over every edge, without forming D or K
        i, j = ops.edges.T
        flux = ops.edge_weights * (x[i] - x[j])
        Kx = np.bincount(i, flux, ops.n_dofs) - np.bincount(j, flux, ops.n_dofs)
        # sums of squares, not np.linalg.norm: BLAS may start its thread
        # pool for a vector this long, which costs more than the solve
        r = ops.mass * x + c * Kx - b
        residual = np.sqrt(np.sum(r * r) / np.sum(b * b))
        if not residual <= _STRUCTURED_RESIDUAL_TOL:
            raise NumericalError(
                f"structured step solve misses M + cK on the {nr}x{ntheta} disk: "
                f"relative residual {residual:.3e} > {_STRUCTURED_RESIDUAL_TOL:g}")

    def __call__(self, rhs):
        """x for a right-hand side (n,) or a block (n, m), same shape;
        a block comes back in Fortran order."""
        rings, ntheta = self._shape
        m = rhs.size // (rings * ntheta)
        F = np.fft.rfft(np.ascontiguousarray(rhs.T).reshape(m, rings, ntheta), axis=-1)
        # (m, rings, modes, part) -> (m, part, modes, rings): one contiguous
        # right-hand side per column and part
        parts = F.view(np.float64).reshape(m, rings, -1, 2).transpose(0, 3, 2, 1)
        X = self._solve(np.reshape(parts, (2 * m, -1)).T)
        parts = X.T.reshape(m, 2, -1, rings).transpose(0, 3, 2, 1)
        F = np.ascontiguousarray(parts).view(np.complex128)[..., 0]
        x = np.fft.irfft(F, n=ntheta, axis=-1)
        return x.reshape(rhs.shape[::-1]).T


class Propagator:
    """Prefactorized step solver for one (ops, dt, scheme) triple.

    step, trajectory and flow take a state (n,) or a block of states
    (n, m), one per column, and return the same shape, a block's columns
    with the bits of one-state steps (see the module docstring).
    """

    def __init__(self, ops, dt, scheme="crank_nicolson"):
        if scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {scheme!r}")
        self.ops = ops
        self.dt = float(dt)
        self.scheme = scheme
        self._cn = scheme == "crank_nicolson"
        c = 0.5 * self.dt if self._cn else self.dt
        # 2 M is exact, so the CN solve is 2 solve(M u) bit for bit
        self._rhs_mass = 2.0 * ops.mass if self._cn else ops.mass
        if ops.grid.domain.kind == "disk":
            self._solve = _DiskSolver(ops, c)
        else:
            # interval edge i joins nodes i and i + 1: K's off-diagonal is -g
            self._solve = _Tridiagonal(ops.mass + c * ops.diagonal, -c * ops.edge_weights,
                                       f"{ops.n_dofs}-node interval")

    def step(self, u):
        """Advance one step of a state (n,) or a block of states (n, m)."""
        x = self._solve(per_node(self._rhs_mass, u) * u)
        if self._cn:
            x -= u
        return x

    def trajectory(self, u, steps):
        """Yield U_0, ..., U_steps of the flow from u, (n,) or (n, m).

        Each yielded state is a new array; blocks are in Fortran order, so
        every column is one contiguous state.
        """
        u = np.array(u, dtype=float, order="F")
        yield u
        for _ in range(steps):
            u = self.step(u)
            yield u

    def flow(self, u, steps):
        """P^steps u for a state (n,) or a block (n, m); never a view of u."""
        for u in self.trajectory(u, steps):
            pass
        return u


@dataclass
class PropagationRecord:
    """Per-step times and state norms of one run.

    An impulsive run records both legs, so tau appears twice: with the norm
    just before the kick and with the norm just after it.
    """

    times: np.ndarray
    norms: np.ndarray


def propagate(ops, u0, sched, propagator=None):
    """Run the free flow of the state u0 (n,) over the schedule; returns
    (final state, record)."""
    prop = propagator or Propagator(ops, sched.dt, sched.scheme)
    norms = np.empty(sched.steps + 1)
    for k, u in enumerate(prop.trajectory(u0, sched.steps)):
        norms[k] = ops.norm(u)
    return u, PropagationRecord(times=sched.times(), norms=norms)


def propagate_impulsive(ops, u0, tau, payload, sched):
    """Mild impulsive solution: flow to tau, add the omega payload embedded
    in the full grid, flow to T.

    Returns (final state, record, info).  The record holds the norms of
    both legs (see PropagationRecord); info reports the effective tau
    (Schedule.kick_step) and the norms before/after the kick.
    """
    n_tau = sched.kick_step(tau)
    tau_eff = sched.t0 + n_tau * sched.dt

    prop = Propagator(ops, sched.dt, sched.scheme)
    mid, before = propagate(ops, u0, replace(sched, t1=tau_eff), propagator=prop)
    final, after = propagate(ops, mid + ops.embed_omega(payload),
                             replace(sched, t0=tau_eff), propagator=prop)
    rec = PropagationRecord(times=np.concatenate([before.times, after.times]),
                            norms=np.concatenate([before.norms, after.norms]))
    info = {
        "tau_effective": tau_eff,
        "norm_before_kick": float(before.norms[-1]),
        "norm_after_kick": float(after.norms[0]),
    }
    return final, rec, info
