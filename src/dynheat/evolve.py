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

Propagator is the one place where the flow steps, for single states and
for blocks of states alike.  _ModalFlow gives P^k in one product per
state from the generator's modes, which the same structure yields
(eigh_tridiagonal of each symmetrised tridiagonal); the control layer's
Gramian solve uses it, built on first use, and every trajectory that a
certificate reads is stepped.

Every step solve is exact up to rounding and structured.  The interval's
step matrix M + cK is SPD tridiagonal: LAPACK's L D L^T factorization
(dpttrf) runs once and its solve (dpttrs) every step.  On a disk a real
FFT over theta (_RingModes) splits it into one SPD tridiagonal system in
r per Fourier mode and part, real or imaginary, stacked into one
block-diagonal tridiagonal system with one right-hand side per column and
solved the same way (Hockney, J. ACM 12, 1965; Swarztrauber, SIAM J.
Numer. Anal. 11, 1974).  dpttrs sweeps every right-hand side alone and in
the same order, so on every grid a block's columns equal their one-state
steps bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal, lapack

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


class _RingModes:
    """The disk's Fourier modes in theta, the one place that knows their
    layout, (member, mode, part, ring) with part 0 real and 1 imaginary.
    Nodes are ring-major, the boundary ring last; a real FFT over theta
    turns the circulant angular coupling into 2 cos(2 pi k / ntheta) per
    mode k, so ring weights plus c K leave one tridiagonal in r per mode.
    mass holds the ring masses, radial the ring couplings (K's
    off-diagonal negated; _ring_coefficients)."""

    def __init__(self, ops):
        self._ntheta = ntheta = ops.grid.shape[1]
        self.mass = ops.mass[::ntheta]
        self._diag, self._angular, self.radial = _ring_coefficients(ops)
        self._half = np.sin(np.pi / ntheta * np.arange(ntheta // 2 + 1)) ** 2

    def diagonals(self, shift, c):
        """(modes, rings): the mode diagonals of diag(shift) + c K."""
        # diag - 2 angular cos(phi) as (diag - 2 angular) + 4 angular
        # sin^2(phi / 2): on the inner rings the angular weights dwarf the
        # radial ones, and there the first difference is exact (Sterbenz),
        # so the low modes keep their small radial part.  c multiplies each
        # term: at shift 0 and c 1 these are K's own, bit for bit
        return ((shift + c * (self._diag - 2.0 * self._angular))
                + (4.0 * c * self._angular) * self._half[:, None])

    def forward(self, u):
        """A state (n,) or a block (n, m) in the layout (m, modes, 2, rings)."""
        X = np.ascontiguousarray(np.reshape(u, (u.shape[0], -1)).T)
        F = np.fft.rfft(X.reshape(X.shape[0], -1, self._ntheta), axis=-1)
        return np.ascontiguousarray(F.view(np.float64).reshape(*F.shape, 2).transpose(0, 2, 3, 1))

    def back(self, parts, shape):
        """The layout's states in shape, (n,) or (n, m), a block in Fortran order."""
        # one contiguous copy: faster here than writing a complex array's planes
        F = np.ascontiguousarray(parts.transpose(0, 3, 1, 2)).view(np.complex128)[..., 0]
        x = np.fft.irfft(F, n=self._ntheta, axis=-1)
        return x.reshape(parts.shape[0], -1).T.reshape(shape)


class _DiskSolver:
    """Exact solve of (diag(mass) + c K) x = b on a disk grid, over
    _RingModes' (mode, part) blocks: one SPD tridiagonal in r each, stacked
    with zero couplings into one block-diagonal tridiagonal system,
    factorized once, with one right-hand side per column.  Construction
    solves one fixed zero-mean white vector, default_rng(0).random(n) -
    0.5, checks it against K applied from the whole edge list and raises
    NumericalError when the relative residual exceeds 1e-10, as it does
    for a K that is not theta-invariant: up to the 128 x 160 disk a sound
    K leaves at most about 2e-14, and one doubled edge weight, radial,
    angular or on the boundary ring, 4e-6 or more."""

    def __init__(self, ops, c):
        nr, ntheta = ops.grid.shape
        self._modes = modes = _RingModes(ops)
        d = modes.diagonals(modes.mass, c)
        e = np.zeros((d.shape[0], 2, nr + 1))
        e[..., :-1] = -c * modes.radial
        self._solve = _Tridiagonal(np.repeat(d, 2, axis=0).ravel(), e.ravel()[:-1],
                                   f"{nr}x{ntheta} disk")

        b = np.random.default_rng(0).random(ops.n_dofs) - 0.5
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
        parts = self._modes.forward(rhs)
        X = self._solve(parts.reshape(parts.shape[0], -1).T)
        return self._modes.back(X.T.reshape(parts.shape), rhs.shape)


class _ModalFlow:
    """P^steps from the eigenpairs of (K, M), which the step solve's own
    structure gives.

    M is diagonal, so on the interval M^{-1/2} K M^{-1/2} is symmetric
    tridiagonal, and on a disk _RingModes leaves one such tridiagonal in r
    per Fourier mode.  eigh_tridiagonal splits each into U diag(lambda)
    U^T, and with the scheme's factor r(x) = (1 - x) / (1 + x) for
    Crank-Nicolson and 1 / (1 + x) for backward Euler, at x = c lambda
    with the step solve's c,

        P^steps = M^{-1/2} U diag(r^steps) U^T M^{1/2},

    formed once per mode as a dense (rings, rings) matrix.  A block is
    applied as one stacked matmul with one item per column (and per mode
    on a disk), so each column carries the bits of a one-column product.
    """

    def __init__(self, ops, dt, scheme, steps):
        self._modes = modes = _RingModes(ops) if ops.grid.domain.kind == "disk" else None
        if modes is not None:
            k_diag, k_off, mass = modes.diagonals(0.0, 1.0), -modes.radial, modes.mass
        else:
            k_diag, k_off, mass = ops.diagonal[None, :], -ops.edge_weights, ops.mass
        root = np.sqrt(mass)
        c = 0.5 * dt if scheme == "crank_nicolson" else dt
        # transposed, P^T per mode: the stacked product takes states as rows
        self._flows = np.empty(k_diag.shape + (mass.size,))
        for k, d in enumerate(k_diag):
            lam, U = eigh_tridiagonal(d / mass, k_off / (root[:-1] * root[1:]))
            x = c * lam
            r = (1.0 - x) / (1.0 + x) if scheme == "crank_nicolson" else 1.0 / (1.0 + x)
            self._flows[k] = (root[:, None] * U) @ (r[:, None] ** steps * U.T) / root

    @staticmethod
    def entries(grid):
        """The numbers in the flow matrices of a grid."""
        if grid.domain.kind == "disk":
            nr, ntheta = grid.shape
            return (ntheta // 2 + 1) * (nr + 1) ** 2
        return grid.n_dofs ** 2

    def __call__(self, u):
        """P^steps u for a state (n,) or a block (n, m); a block comes back
        in Fortran order."""
        if self._modes is not None:
            return self._modes.back(self._modes.forward(u) @ self._flows, u.shape)
        X = np.ascontiguousarray(np.reshape(u, (u.shape[0], -1)).T)
        return (X[:, None, None, :] @ self._flows).reshape(X.shape[0], -1).T.reshape(u.shape)


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
        # 2 M is exact, so the CN solve is 2 solve(M u) bit for bit; shaped
        # here for a state (n,) and a block (n, m), by the state's ndim
        rhs_mass = 2.0 * ops.mass if self._cn else ops.mass
        self._rhs_mass = {1: rhs_mass, 2: rhs_mass[:, None]}
        if ops.grid.domain.kind == "disk":
            self._solve = _DiskSolver(ops, c)
        else:
            # interval edge i joins nodes i and i + 1: K's off-diagonal is -g
            self._solve = _Tridiagonal(ops.mass + c * ops.diagonal, -c * ops.edge_weights,
                                       f"{ops.n_dofs}-node interval")

    def step(self, u):
        """Advance one step of a state (n,) or a block of states (n, m), an
        ndarray; the node weights come shaped from construction, so a step
        makes no shape dispatch of its own."""
        x = self._solve(self._rhs_mass[u.ndim] * u)
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
