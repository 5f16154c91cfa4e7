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

Linear systems use a symmetric iterative solver (conjugate gradients with
Jacobi preconditioning, relative tolerance 1e-12) with a direct sparse
factorization on small grids, where it is both faster and a little more
accurate.
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


class Propagator:
    """Prefactorized step solver for one (ops, dt, scheme) triple.

    step, trajectory and flow take a state (n,) or a block of states
    (n, m), one per column, and return the same shape.
    """

    def __init__(self, ops, dt, scheme="crank_nicolson", direct_max_dofs=DIRECT_SOLVE_MAX_DOFS):
        if scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {scheme!r}")
        self.ops = ops
        self.dt = float(dt)
        self.scheme = scheme
        M = sp.diags(ops.mass)
        c = 0.5 * self.dt if scheme == "crank_nicolson" else self.dt
        self._lhs = (M + c * ops.K).tocsc()
        self._rhs_c = 0.5 * self.dt if scheme == "crank_nicolson" else 0.0
        self._direct = ops.n_dofs <= direct_max_dofs
        if self._direct:
            try:
                self._solve = spla.splu(self._lhs).solve
            except RuntimeError as exc:
                raise NumericalError(f"factorization of the step matrix failed: {exc}") from exc
        else:
            ilu_diag = self._lhs.diagonal()
            self._precond = spla.LinearOperator(self._lhs.shape, lambda x: x / ilu_diag)
            self._lhs_csr = self._lhs.tocsr()

    def step(self, u, columnwise=False):
        """Advance one step of a state (n,) or a block of states (n, m).

        A block's direct solve takes SuperLU's multi-column path, whose
        level-3 BLAS kernels can round a column differently from a
        one-state solve; columnwise=True solves each column alone, so every
        column carries exactly the bits of a one-state step.
        """
        mass = self.ops.mass if u.ndim == 1 else self.ops.mass[:, None]
        rhs = mass * u
        if self._rhs_c:
            rhs -= self._rhs_c * self.ops.apply_K(u)
        solve = self._solve if self._direct else self._cg
        if rhs.ndim == 1 or (self._direct and not columnwise):
            return solve(rhs)
        # cg is 1-D only; stacking rows and transposing keeps each column
        # contiguous (Fortran order), as the block direct solve returns it
        return np.array([solve(b) for b in rhs.T]).T

    def _cg(self, rhs):
        out, info = spla.cg(self._lhs_csr, rhs, rtol=1e-12, atol=0.0,
                            M=self._precond, maxiter=10 * self.ops.n_dofs)
        if info != 0:
            raise NumericalError(
                f"step solve failed to converge (cg info={info}, n={self.ops.n_dofs})")
        return out

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
