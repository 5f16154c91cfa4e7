"""Time propagation of the coupled flow, including one impulsive kick.

Crank-Nicolson (default) and backward Euler act on the mass/stiffness pair
directly:

    CN:  (M + dt/2 K) U_{k+1} = (M - dt/2 K) U_k
    BE:  (M + dt   K) U_{k+1} = M U_k

Both step operators are rational functions of the self-adjoint generator,
hence themselves self-adjoint in the mass inner product and contractive.
That is what lets the control layer reuse forward propagation verbatim for
the adjoint flow, so duality identities hold at solver precision.

The impulsive solution is the mild formula: free flow to tau, add the
localized payload, free flow to T.  tau is rounded to the nearest step
boundary and the effective value is reported.

Propagator is the one place where the flow advances, for single states and
for blocks of states alike.

Every step solve is exact up to rounding.  Interval grids and disk grids
up to DIRECT_SOLVE_MAX_DOFS unknowns take a SuperLU factorization of the
step matrix; a tridiagonal matrix has no fill, so the interval takes it at
every size.  Larger disk grids take a structured solve: every ring carries
ntheta nodes with ring-only weights, so the step matrix is block-circulant
in theta.  A real FFT over theta splits it into ntheta/2 + 1 tridiagonal
systems in r, one per Fourier mode, and one Thomas sweep over the rings
solves them all (Hockney, J. ACM 12, 1965; Swarztrauber, SIAM J. Numer.
Anal. 11, 1974).  On small disks SuperLU's factor and solve are the
faster of the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretize import State
from .errors import ConfigurationError, NumericalError

SCHEMES = ("crank_nicolson", "backward_euler")
DIRECT_SOLVE_MAX_DOFS = 20000
_STRUCTURED_RESIDUAL_TOL = 1e-10
_DT_DIVISION_RTOL = 1e-9


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
        steps = round(span / self.dt)
        if steps == 0 and span > 0:
            steps = 1
        if abs(steps * self.dt - span) > _DT_DIVISION_RTOL * max(span, self.dt):
            raise ConfigurationError(
                f"dt={self.dt} does not divide the span {span} (closest: {steps} steps)")

    @property
    def steps(self):
        return round((self.t1 - self.t0) / self.dt)

    def times(self):
        return self.t0 + self.dt * np.arange(self.steps + 1)

    def replace(self, **kw):
        data = {"t0": self.t0, "t1": self.t1, "dt": self.dt, "scheme": self.scheme}
        data.update(kw)
        return Schedule(**data)


@dataclass(frozen=True)
class ImpulseEvent:
    """Impulse at time tau with a payload supported on the omega nodes."""

    tau: float
    payload: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "payload", np.asarray(self.payload, dtype=float))


class _DiskSolver:
    """Exact solve of (diag(mass) + c K) x = b on a disk grid.

    Nodes are ring-major, the boundary ring last, so a state reshapes to
    (nr + 1, ntheta).  The ring coefficients are read from the assembled K
    at each ring's theta = 0 node: the diagonal, the angular coupling to
    the next node in theta and the radial coupling to the next ring.  A
    real FFT over theta turns the circulant angular coupling into the
    diagonal factor 2 cos(2 pi k / ntheta) per mode k; each mode leaves an
    SPD, strictly diagonally dominant tridiagonal system in r, factorized
    here once without pivoting.  The sweep acts on the real and imaginary
    parts of every column alone with elementwise operations, so a block
    equals its per-column solves bit for bit.  Construction solves one
    fixed vector, checks it against K itself and raises NumericalError
    when the relative residual exceeds 1e-10, as it does for a K that is
    not theta-invariant.
    """

    def __init__(self, ops, c):
        nr, ntheta = ops.grid.shape
        self._shape = (nr + 1, ntheta)
        first = np.arange(nr + 1) * ntheta
        K = ops.K
        diag = np.asarray(K[first, first]).ravel()
        angular = -np.asarray(K[first, first + 1]).ravel()
        radial = -np.asarray(K[first[:-1], first[1:]]).ravel()
        # diag - 2 angular cos(phi) as (diag - 2 angular) + 4 angular
        # sin^2(phi / 2): on the inner rings the angular weights dwarf the
        # radial ones, and there the first difference is exact (Sterbenz),
        # so the low modes keep their small radial part
        half = np.sin(np.pi / ntheta * np.arange(ntheta // 2 + 1)) ** 2
        d = (ops.mass[first] + c * (diag - 2.0 * angular))[:, None] \
            + (4.0 * c * angular)[:, None] * half
        self._off = -c * radial
        for i in range(1, nr + 1):
            d[i] -= self._off[i - 1] ** 2 / d[i - 1]
        # the pivots d and multipliers off / d, each repeated for the real
        # and the imaginary part of a mode
        self._pivot = np.repeat(d, 2, axis=1)
        self._mult = np.repeat(self._off[:, None] / d[:-1], 2, axis=1)

        b = np.random.default_rng(0).standard_normal(ops.n_dofs)
        x = self(b)
        # sums of squares, not np.linalg.norm: BLAS may start its thread
        # pool for a vector this long, which costs more than the solve
        r = ops.mass * x + c * (K @ x) - b
        residual = np.sqrt(np.sum(r * r) / np.sum(b * b))
        if not residual <= _STRUCTURED_RESIDUAL_TOL:
            raise NumericalError(
                f"structured step solve misses M + cK on the {nr}x{ntheta} disk: "
                f"relative residual {residual:.3e} > {_STRUCTURED_RESIDUAL_TOL:g}")

    def __call__(self, rhs):
        """x for a right-hand side (n,) or a block (n, m), same shape;
        a block comes back in Fortran order."""
        rings, ntheta = self._shape
        F = np.fft.rfft(np.ascontiguousarray(rhs.T).reshape(-1, rings, ntheta), axis=-1)
        Y = F.view(np.float64)
        for i in range(1, rings):
            Y[:, i] -= self._mult[i - 1] * Y[:, i - 1]
        Y[:, -1] /= self._pivot[-1]
        for i in range(rings - 2, -1, -1):
            Y[:, i] -= self._off[i] * Y[:, i + 1]
            Y[:, i] /= self._pivot[i]
        x = np.fft.irfft(F, n=ntheta, axis=-1)
        return x.reshape(rhs.shape[::-1]).T


class Propagator:
    """Prefactorized step solver for one (ops, dt, scheme) triple.

    step, trajectory and flow take a state (n,) or a block of states
    (n, m), one per column, and return the same shape.  Disk grids above
    DIRECT_SOLVE_MAX_DOFS unknowns take the structured FFT/Thomas solve,
    every other grid SuperLU (see the module docstring).
    """

    def __init__(self, ops, dt, scheme="crank_nicolson"):
        if scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {scheme!r}")
        self.ops = ops
        self.dt = float(dt)
        self.scheme = scheme
        c = 0.5 * self.dt if scheme == "crank_nicolson" else self.dt
        self._rhs_c = 0.5 * self.dt if scheme == "crank_nicolson" else 0.0
        self._structured = (ops.grid.domain.kind == "disk"
                            and ops.n_dofs > DIRECT_SOLVE_MAX_DOFS)
        if self._structured:
            self._solve = _DiskSolver(ops, c)
            return
        try:
            self._solve = spla.splu((sp.diags(ops.mass) + c * ops.K).tocsc()).solve
        except RuntimeError as exc:
            raise NumericalError(f"factorization of the step matrix failed: {exc}") from exc

    def step(self, u, columnwise=False):
        """Advance one step of a state (n,) or a block of states (n, m).

        A block's SuperLU solve takes the multi-column path, whose level-3
        BLAS kernels can round a column differently from a one-state solve;
        columnwise=True solves each column alone, so every column carries
        exactly the bits of a one-state step.  The structured solve treats
        every column alone anyway, so there columnwise changes nothing.
        """
        mass = self.ops.mass if u.ndim == 1 else self.ops.mass[:, None]
        rhs = mass * u
        if self._rhs_c:
            rhs -= self._rhs_c * self.ops.apply_K(u)
        if rhs.ndim == 1 or self._structured or not columnwise:
            return self._solve(rhs)
        # stacking rows and transposing keeps each column contiguous
        # (Fortran order), as the block solve returns it
        return np.array([self._solve(b) for b in rhs.T]).T

    def trajectory(self, u, steps, columnwise=False):
        """Yield U_0, ..., U_steps of the flow from u, (n,) or (n, m).

        Each yielded state is a new array; blocks are in Fortran order, so
        every column is one contiguous state.  columnwise as in step.
        """
        u = np.array(u, dtype=float, order="F")
        yield u
        for _ in range(steps):
            u = self.step(u, columnwise)
            yield u

    def flow(self, u, steps, columnwise=False):
        """P^steps u for a state (n,) or a block (n, m); never a view of u.
        columnwise as in step."""
        for u in self.trajectory(u, steps, columnwise):
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


def propagate(ops, state, sched, propagator=None):
    """Run the free flow over the schedule; returns (final State, record)."""
    prop = propagator or Propagator(ops, sched.dt, sched.scheme)
    norms = np.empty(sched.steps + 1)
    for k, u in enumerate(prop.trajectory(state.values, sched.steps)):
        norms[k] = ops.norm(u)
    return State(ops.grid, u), PropagationRecord(times=sched.times(), norms=norms)


def propagate_impulsive(ops, state0, impulse, sched, propagator=None):
    """Mild impulsive solution: flow to tau, add embedded payload, flow to T.

    Returns (final State, record, info).  The record holds the norms of
    both legs (see PropagationRecord); info reports the effective tau
    (snapped to the step grid) and the norms before/after the kick.
    """
    if not (sched.t0 < impulse.tau < sched.t1):
        raise ConfigurationError(
            f"impulse time tau={impulse.tau} must lie strictly inside "
            f"({sched.t0}, {sched.t1})")
    n_tau = round((impulse.tau - sched.t0) / sched.dt)
    n_tau = min(max(n_tau, 1), sched.steps - 1)
    tau_eff = sched.t0 + n_tau * sched.dt

    prop = propagator or Propagator(ops, sched.dt, sched.scheme)
    mid, before = propagate(ops, state0, sched.replace(t1=tau_eff), propagator=prop)
    kicked = State(ops.grid, mid.values + ops.embed_omega(impulse.payload))
    final, after = propagate(ops, kicked, sched.replace(t0=tau_eff), propagator=prop)
    rec = PropagationRecord(times=np.concatenate([before.times, after.times]),
                            norms=np.concatenate([before.norms, after.norms]))
    info = {
        "tau_requested": impulse.tau,
        "tau_effective": tau_eff,
        "steps_before": n_tau,
        "steps_after": sched.steps - n_tau,
        "norm_before_kick": float(before.norms[-1]),
        "norm_after_kick": float(after.norms[0]),
    }
    return final, rec, info
