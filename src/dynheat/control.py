"""Constructive impulsive control with certified error and cost bounds.

The impulse acting at time tau is recovered from the penalized dual
problem.  With P the one-step flow operator, n the number of steps over
the observation horizon T - tau, and n_T the steps over [0, T], the
regularized Gramian

    G z = kappa^2 P^n E_omega R_omega P^n z + eps^2 z

is self-adjoint and positive definite in the mass inner product (smallest
eigenvalue >= eps^2).  Solving G theta = -P^{n_T} Psi0 by conjugate
gradients in that inner product and setting

    h = kappa^2 R_omega P^n theta

yields the impulsive trajectory with terminal state Psi(T) = -eps^2 theta
exactly (up to solver residuals), because the same discrete flow is used
forward and backward.  The certificates checked after each synthesis:

    target:       ||Psi(T)||  <= eps ||Psi0||
    cost:         ||h||^2/kappa^2 + ||Psi(T)||^2/eps^2 <= ||Psi0||^2
    a priori:     kappa^2 ||v||_omega^2 + eps^2 ||theta||^2
                      <= ||Psi0|| ||theta(T)||
    observation:  ||v||_omega <= ||Psi0||

with v = R_omega P^n theta.  kappa is calibrated by doubling until target
and cost both certify: calibrate_kappa starts from 1, and cost_study starts
each eps level from the penalization seed M1 e^{M2/(T-tau)} / eps^delta
when fitted constants are given (else from 1).

omega is small, so the Gramian is also solved in omega-coordinates, the
penalized HUM of Boyer (ESAIM Proc. 41, 2013) and Glowinski, Lions & He
(Cambridge UP, 2008) with the Gramian assembled explicitly.  By the
push-through identity h = kappa^2 (eps^2 + kappa^2 W)^{-1} R_omega P^n b
with b = -P^{n_T} Psi0 and W = R_omega P^{2n} E_omega, an n_omega x n_omega
matrix symmetric in the omega mass M_omega (omega's nodes are interior, so
they carry bulk mass only).  Each ControlOperator builds it once, on first
use, from two modal flows of the n_omega unit payloads, and one eigh of
M_omega^{1/2} W M_omega^{-1/2} = Q diag(lam) Q^T turns every (kappa, eps)
pair into a diagonal scaling.  Z = P^n E_omega M_omega^{-1/2} Q maps
payload coordinates to the state they add at T.  With a = P^{n_T} Psi0,
the coordinates of R_omega P^n a are read off Z without a flow:

    c = Q^T M_omega^{1/2} R_omega P^n a = Z^T M a,

because P is self-adjoint in the mass product (M P = P^T M) and M is
diagonal with M_omega its omega part, so E_omega^T M P^n = M_omega R_omega
P^n.  The payload has coordinates y = -kappa^2 c / (eps^2 + kappa^2 lam),
and

    ||Psi(T)||^2 = ||a||^2 + 2 y.c + sum lam y^2,    ||h||_omega^2 = sum y^2.

The reduced solution is used twice, and never certifies anything:

- warm start: theta0 = (b - Z y) / eps^2 starts the CG.  cg_tol keeps its
  meaning: a column stops once its full-space residual ||b - G theta|| is
  at most cg_tol ||b||, checked at theta0 too, so a column can stop with 0
  iterations; cg_rel is that residual, recomputed from the final theta.
- predicted rung: the target and cost certificates are predicted for every
  rung of the doubling ladder, and propagation starts at the first rung
  that every member is predicted to certify or to miss by less than 1e-6
  relative.  The ladder then continues by propagation.  Prediction stops
  where kappa^2 leaves the float range, and propagation decides from
  there.  The skipped rungs are predicted to miss by more than 1e-6, so
  the ladder picks the kappa and doubling count that propagating every
  rung would wherever the prediction errs by less: the property tests hold
  it to 1e-9 up to kappa / eps = 1e3 and to 1e-7 beyond, on rungs whose
  propagated CG reaches a true residual of 1e-10.  Past that the
  propagated rung is no oracle either (see ROADMAP item 8).  The ladder
  stops with CalibrationError at the first rung whose kappa^2
  lambda_max(W) / eps^2 passes GRAMIAN_CONDITION_MAX, propagated or not.

What is modal and what steps.  P^n inside the solve comes from the
generator's modes (_ModalFlow): the eigenpairs of (K, M), which the step
solve's tridiagonal structure gives, built on a ControlOperator's first
use.  The modes serve every Gramian apply in the CG, the warm start's
P^n theta0 and G theta0, the true residual's flow of the columns that
moved, and Z and W.  Propagator steps the rest: P^{n_tau} Psi0 and
P^{n_T} Psi0 (the right-hand side, c and cost_study's free decay),
theta(T) = P^{n_tau} P^n theta and the impulsive trajectory
Psi(T) = P^n (P^{n_tau} Psi0 + E_omega h).  So target and cost are
certified on the stepped trajectory, and terminal_identity,
||Psi(T) + eps^2 theta|| / ||Psi0||, checks stepping against the modes.
Where the modes' matrices or Z would hold more than
REDUCED_GRAMIAN_MAX_ENTRIES numbers there are no modes: the Gramian
applies step, the CG starts from zero and the ladder from its seed.

The ensemble is solved as one block.  A ControlOperator depends only on
(ops, sched, tau), so a calibration or a cost study factors the step
matrix and builds the modes once and reuses them for every kappa
doubling, every eps level and every member, and flows each member once.
Each propagated rung runs one block CG whose columns keep their own
scalars and stopping tests, and returns one ControlResult of block arrays,
one column or entry per member.  The step solve, the modal products (one
stacked matmul item per column) and every inner product treat each
column alone, and the reduced products are taken per column, so on every
grid a member's column is bit-identical to a one-member synthesis.  A
member with zero data has residual 0: it never enters the CG and stays 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (CalibrationError, ConfigurationError, NumericalError,
                     UsageError)
from .evolve import Propagator, _ModalFlow

CERT_SLACK = 1e-8
DEFAULT_CG_TOL = 1e-12
DEFAULT_CG_MAXIT = 400
DEFAULT_DOUBLING_BUDGET = 40
# cap on the numbers in each dense factor control holds: the modal flow's
# matrices (modes x rings x rings) and Z (n_dofs x n_omega).  Above it
# the CG steps from zero.  At the cap, a 1414-node interval's build
# (modes, Z, W and its eigh) raised peak RSS by 69 MB
REDUCED_GRAMIAN_MAX_ENTRIES = 2_000_000
# a rung whose kappa^2 lambda_max(W) / eps^2 passes this is not propagated.
# G's eigenvalues lie in [eps^2, eps^2 (1 + that ratio)] and an apply
# rounds at about 1e-16 of the top one, so past 1e14 rounding is a percent
# of eps^2, and past about 1e16 G is indefinite in floating point
GRAMIAN_CONDITION_MAX = 1e14
# a rung predicted to miss by less than this, relative, is propagated too
_NEAR_MISS = 1e-6


@dataclass(frozen=True)
class ControlProblem:
    """Impulsive control setup: kick at tau, accuracy eps, penalization kappa.

    kappa=None marks an uncalibrated problem; synthesize requires a value.
    """

    tau: float
    eps: float
    kappa: float | None = None
    cg_tol: float = DEFAULT_CG_TOL
    cg_maxit: int = DEFAULT_CG_MAXIT

    def __post_init__(self):
        if self.eps <= 0.0:
            raise ConfigurationError(f"eps must be positive, got {self.eps}")
        if self.kappa is not None and self.kappa <= 0.0:
            raise ConfigurationError(f"kappa must be positive, got {self.kappa}")
        if self.cg_tol <= 0.0 or self.cg_maxit < 1:
            raise ConfigurationError("cg_tol must be positive and cg_maxit >= 1")


def _per_column(A, X):
    """A @ x for every column x of X on contiguous copies, so each column
    carries the bits of a one-column product; Fortran order."""
    return np.array([A @ x for x in np.ascontiguousarray(X.T)]).T


@dataclass(frozen=True)
class _ReducedGramian:
    """W = R_omega P^{2n} E_omega in the eigenbasis of the mass-symmetrised
    M_omega^{1/2} W M_omega^{-1/2} = Q diag(eigenvalues) Q^T.

    lam clips the eigenvalues at 0: W is positive semidefinite, so a
    negative eigenvalue is rounding.  Z = P^n E_omega M_omega^{-1/2} Q maps
    payload coordinates y to the state they add at T, and Z^T M Z is
    diag(lam).
    """

    eigenvalues: np.ndarray
    lam: np.ndarray
    Z: np.ndarray

    def payload(self, c, kappa, eps):
        """Coordinates y of the payload kappa^2 (eps^2 + kappa^2 W)^{-1}
        R_omega P^n (-a) for free states a with coordinates c = Z^T M a;
        the payload adds Z y at T."""
        k2 = kappa * kappa
        return -(k2 * c) / (eps * eps + k2 * self.lam[:, None])


class ControlOperator:
    """Flow-based pieces of impulsive control with a kick at tau.

    Depends only on (ops, sched, tau), so one Propagator, hence one
    factorization, and one set of modes serve every kappa, every eps and
    every member.  gramian_apply takes a state (n,) or a block (n, m).
    """

    def __init__(self, ops, sched, tau):
        self.n_tau = sched.kick_step(tau)
        self.ops = ops
        self.prop = Propagator(ops, sched.dt, sched.scheme)
        self.n_total = sched.steps
        self.n_obs = self.n_total - self.n_tau
        self.tau_effective = sched.t0 + self.n_tau * sched.dt

    @cached_property
    def modes(self):
        """P^n as a _ModalFlow, built on first use; None when its matrices
        or Z would hold more than REDUCED_GRAMIAN_MAX_ENTRIES numbers."""
        grid = self.ops.grid
        if max(_ModalFlow.entries(grid),
               grid.n_dofs * grid.omega_idx.size) > REDUCED_GRAMIAN_MAX_ENTRIES:
            return None
        return _ModalFlow(self.ops, self.prop.dt, self.prop.scheme, self.n_obs)

    def _flow_obs(self, zeta):
        """P^n zeta, from the modes where they fit, else stepped."""
        if self.modes is None:
            return self.prop.flow(zeta, self.n_obs)
        return self.modes(zeta)

    def gramian_apply(self, zeta, kappa, eps):
        """kappa^2 P^n E_omega R_omega P^n zeta + eps^2 zeta."""
        if kappa is None:
            raise UsageError("gramian needs a calibrated kappa; run calibrate_kappa")
        return self._gramian_from(self._flow_obs(zeta), zeta, kappa, eps)

    def _gramian_from(self, flowed, zeta, kappa, eps):
        """G zeta from flowed = P^n zeta, which the caller keeps."""
        v = self.ops.embed_omega(self.ops.restrict_omega(flowed))
        return kappa ** 2 * self._flow_obs(v) + eps ** 2 * zeta

    @cached_property
    def reduced(self):
        """The _ReducedGramian, built from the modes on first use; None
        without them."""
        if self.modes is None:
            return None
        ops = self.ops
        idx = ops.grid.omega_idx
        Z0 = self.modes(ops.embed_omega(np.eye(idx.size)))
        W = ops.restrict_omega(self.modes(Z0))
        sqrt_mass = np.sqrt(ops.mass[idx])
        S = sqrt_mass[:, None] * W / sqrt_mass[None, :]
        eigenvalues, Q = np.linalg.eigh(0.5 * (S + S.T))
        return _ReducedGramian(eigenvalues=eigenvalues,
                               lam=np.maximum(eigenvalues, 0.0),
                               Z=(Z0 / sqrt_mass) @ Q)


def _cg_mass_inner(apply_G, rhs, inner, tol, maxit, x0, r0):
    """Conjugate gradients for an operator self-adjoint in `inner`, which
    takes two blocks and returns one product per column pair.

    Solves every column of rhs (n, m) at once, from x0 with its residual
    r0 = rhs - G x0.  Each column keeps its own alpha, beta, residual and
    stopping test ||r|| <= tol ||rhs||, which is checked before the first
    iteration too, and each iteration applies G once to the block of
    columns still iterating, so every column's arithmetic is that of a
    one-column solve.  Returns the solutions and the iteration counts, one
    per column; a column whose start already meets tol returns it with 0
    iterations.
    """
    X = np.array(x0, order="F")
    R = np.array(r0, dtype=float, order="F")
    P = R.copy(order="F")
    rr = inner(R, R)
    rhs_norm = np.sqrt(inner(rhs, rhs))
    iters = np.zeros(rhs.shape[1], dtype=int)
    active = np.flatnonzero(np.sqrt(rr) > tol * rhs_norm)
    for it in range(1, maxit + 1):
        if active.size == 0:
            break
        Pa = P[:, active]
        GP = apply_G(Pa)
        pGp = inner(Pa, GP)
        if np.any(pGp <= 0.0):
            raise NumericalError(
                f"gramian lost positivity at iteration {it} (pGp={pGp.min()})")
        alpha = rr[active] / pGp
        X[:, active] += alpha * Pa
        R[:, active] -= alpha * GP
        Ra = R[:, active]
        rr_new = inner(Ra, Ra)
        done = np.sqrt(rr_new) <= tol * rhs_norm[active]
        iters[active[done]] = it
        active = active[~done]
        rr_new = rr_new[~done]
        P[:, active] = R[:, active] + (rr_new / rr[active]) * P[:, active]
        rr[active] = rr_new
    if active.size:
        raise NumericalError(
            f"gramian solve did not reach tol={tol} in {maxit} iterations "
            f"(residual {np.max(np.sqrt(rr[active]) / rhs_norm[active]):.3e})")
    return X, iters


@dataclass(frozen=True)
class ControlResult:
    """Synthesized impulses of a rung's m members with certificates and
    solver residuals.  norm_h, norm_PsiT, norm_Psi0 and each entry of flags
    and residuals are (m,); h is (n_omega, m); theta, which solves the
    Gramian system, and psi_T, the controlled state at T, are (n, m)."""

    kappa: float
    eps: float
    norm_h: np.ndarray
    norm_PsiT: np.ndarray
    norm_Psi0: np.ndarray
    flags: dict
    residuals: dict
    tau_effective: float
    h: np.ndarray
    theta: np.ndarray
    psi_T: np.ndarray

    @property
    def certified(self):
        return self.flags["target"] & self.flags["cost"]

    def summary(self, j):
        """Member j's numbers and certificates as Python scalars."""
        norms = ("norm_h", "norm_PsiT", "norm_Psi0")
        return {"kappa": self.kappa, "eps": self.eps, "tau_effective": self.tau_effective,
                **{key: float(getattr(self, key)[j]) for key in norms},
                "flags": {key: bool(v[j]) for key, v in self.flags.items()},
                "residuals": {key: v[j].item() for key, v in self.residuals.items()}}


@dataclass(frozen=True)
class _Flows:
    """The members' data, flowed once per calibration or cost study.

    norms holds ||Psi0|| per member; free_tau and free_T hold P^{n_tau}
    Psi0 and a = P^{n_T} Psi0, one column per member; c = Z^T M a holds the
    reduced coordinates of a, None without the operator's reduced Gramian.
    """

    norms: np.ndarray
    free_tau: np.ndarray
    free_T: np.ndarray
    c: np.ndarray | None

    def subset(self, idx):
        return _Flows(norms=self.norms[idx],
                      free_tau=self.free_tau[:, idx], free_T=self.free_T[:, idx],
                      c=None if self.c is None else self.c[:, idx])


def _free_flows(co, psi0s):
    """_Flows of the initial states psi0s, an (n, m) block, stepped.

    c is read off Z, column by column, so a member's bits do not depend on
    the block.
    """
    norms = co.ops.norm(psi0s)
    free_tau = co.prop.flow(psi0s, co.n_tau)
    free_T = co.prop.flow(free_tau, co.n_obs)
    red = co.reduced
    c = None if red is None else _per_column(red.Z.T, co.ops.mass[:, None] * free_T)
    return _Flows(norms=norms, free_tau=free_tau, free_T=free_T, c=c)


def _warm_start(co, flows, rhs, kappa, eps):
    """theta0 = (rhs - Z y) / eps^2 with P^n theta0, G theta0 and the residual
    rhs - G theta0, as blocks over the columns of rhs.

    Without a reduced Gramian, and in a column where the residual is not
    below ||rhs|| (the zero start's), theta0 is 0, whose flow and Gramian
    are 0 without a step.
    """
    zero = np.zeros(rhs.shape, order="F")
    red = co.reduced
    if red is None:
        return zero, zero.copy(), zero.copy(), rhs
    # a tiny eps can blow theta0 up past the float range; such columns fail
    # the comparison and start from zero
    with np.errstate(all="ignore"):
        y = red.payload(flows.c, kappa, eps)
        theta0 = (rhs - _per_column(red.Z, y)) / eps ** 2
        flowed = co._flow_obs(theta0)
        G_theta0 = co._gramian_from(flowed, theta0, kappa, eps)
        r0 = rhs - G_theta0
        cold = ~(co.ops.inner(r0, r0) < co.ops.inner(rhs, rhs))
    for block in (theta0, flowed, G_theta0):
        block[:, cold] = 0.0
    r0[:, cold] = rhs[:, cold]
    return theta0, flowed, G_theta0, r0


def _synthesize_block(co, prob, flows):
    """The members' ControlResult: the Gramian solve and certificates as blocks.

    A member with zero data needs no control: its right-hand side and
    residual are 0, so it never enters the CG and stays 0 through every
    flow, with every certificate met.  Zero data is controlled by 0 at
    every (kappa, eps), so where a square leaves the float range and no
    member has data it is solved at kappa = eps = 1.
    """
    ops, kappa, eps = co.ops, prob.kappa, prob.eps
    if not (0.0 < kappa * kappa < np.inf and 0.0 < eps * eps < np.inf):
        if flows.norms.any():
            raise NumericalError(
                f"kappa={kappa:.6g} or eps={eps:.6g} leaves the float range when squared")
        kappa = eps = 1.0

    rhs = -flows.free_T
    theta0, theta_obs, G_theta, r0 = _warm_start(co, flows, rhs, kappa, eps)
    theta, cg_iters = _cg_mass_inner(
        lambda z: co.gramian_apply(z, kappa, eps), rhs, ops.inner,
        prob.cg_tol, prob.cg_maxit, theta0, r0)
    # the full-space true residual rhs - G theta; a column that stopped at
    # theta0 already has P^n theta and G theta from its start
    moved = cg_iters > 0
    if moved.any():
        flowed = co._flow_obs(theta[:, moved])
        theta_obs[:, moved] = flowed
        G_theta[:, moved] = co._gramian_from(flowed, theta[:, moved], kappa, eps)
    true_r = rhs - G_theta
    rhs_norm = np.sqrt(ops.inner(rhs, rhs))
    cg_rel = np.sqrt(ops.inner(true_r, true_r)) / np.where(rhs_norm > 0.0, rhs_norm, 1.0)

    # P^{n_total} theta = P^{n_tau} P^{n_obs} theta, the last n_tau stepped
    theta_T = co.prop.flow(theta_obs, co.n_tau)
    V = ops.restrict_omega(theta_obs)
    H = kappa ** 2 * V

    # impulsive trajectory with the synthesized payloads, stepped
    psi_T = co.prop.flow(flows.free_tau + ops.embed_omega(H), co.n_obs)

    norm_psi0 = flows.norms
    norm_h, norm_v = ops.norm_omega(H), ops.norm_omega(V)
    norm_psiT, norm_theta = ops.norm(psi_T), ops.norm(theta)
    terminal = (ops.norm(psi_T + eps ** 2 * theta)
                / np.where(norm_psi0 > 0.0, norm_psi0, 1.0))
    lhs_apriori = kappa ** 2 * ops.inner_omega(V, V) + eps ** 2 * norm_theta ** 2
    rhs_apriori = norm_psi0 * ops.norm(theta_T)
    cost_lhs = norm_h ** 2 / kappa ** 2 + norm_psiT ** 2 / eps ** 2
    slack = 1.0 + CERT_SLACK
    return ControlResult(
        kappa=prob.kappa, eps=prob.eps, norm_h=norm_h, norm_PsiT=norm_psiT,
        norm_Psi0=norm_psi0,
        flags={"target": norm_psiT <= eps * norm_psi0 * slack,
               "cost": cost_lhs <= norm_psi0 ** 2 * slack,
               "apriori": lhs_apriori <= rhs_apriori * slack,
               "observation": norm_v <= norm_psi0 * slack},
        residuals={"cg_rel": cg_rel, "cg_iterations": cg_iters,
                   "terminal_identity": terminal},
        tau_effective=co.tau_effective, h=H, theta=theta, psi_T=psi_T)


def synthesize(ops, prob, sched, psi0s):
    """Solve the dual Gramian system for the initial states, one per column
    of the block psi0s (n, m), and build the certified impulses."""
    if prob.kappa is None:
        raise UsageError("synthesize needs kappa; set it or run calibrate_kappa")
    co = ControlOperator(ops, sched, prob.tau)
    return _synthesize_block(co, prob, _free_flows(co, psi0s))


def verify_duality(ops, prob, sched, psi0s, result, Z0):
    """Residuals of <h, z(T-tau)>_omega + <Psi0, zeta(T)> - <Psi(T), zeta0>
    for each member of result, whose initial states are the columns of
    psi0s (n, m), and each column zeta0 of the block Z0 (n, k).

    Returns the (m, k) residuals normalized by ||Psi0|| ||zeta0||; the
    identity holds at solver precision because the discrete flow is
    self-adjoint in the mass inner product.
    """
    co = ControlOperator(ops, sched, prob.tau)
    Z_obs = co.prop.flow(Z0, co.n_obs)
    Z_T = co.prop.flow(Z_obs, co.n_tau)  # P^{n_total} = P^{n_tau} P^{n_obs}
    m, k = psi0s.shape[1], Z0.shape[1]
    # column j k + l pairs member j with column l of Z0
    h, p0, pT = (np.repeat(A, k, axis=1) for A in (result.h, psi0s, result.psi_T))
    z_obs, z_T, z_0 = (np.tile(Z, m) for Z in (ops.restrict_omega(Z_obs), Z_T, Z0))
    val = ops.inner_omega(h, z_obs) + ops.inner(p0, z_T) - ops.inner(pT, z_0)
    return np.abs(val).reshape(m, k) / np.outer(ops.norm(psi0s), ops.norm(Z0))


@dataclass(frozen=True)
class CalibrationResult:
    kappa: float
    doublings: int
    result: ControlResult


def _predict(co, flows, kappa, eps):
    """Reduced-model ||Psi(T)|| / ||Psi0|| and cost / ||Psi0||^2 per member
    at (kappa, eps), 0 for zero data; None without a reduced Gramian, when
    kappa^2 leaves the float range or when a prediction is not finite."""
    red, k2 = co.reduced, kappa * kappa
    if red is None or not 0.0 < k2 < np.inf:
        return None
    n0 = np.where(flows.norms > 0.0, flows.norms, 1.0)  # zero data has a = c = y = 0
    a, c = flows.free_T, flows.c
    with np.errstate(all="ignore"):
        y = red.payload(c, kappa, eps)
        psiT2 = np.maximum(co.ops.inner(a, a)
                           + np.sum(y * (2.0 * c + red.lam[:, None] * y), axis=0), 0.0)
        ratio = np.sqrt(psiT2) / n0
        cost = (np.sum(y * y, axis=0) / k2 + psiT2 / (eps * eps)) / n0 ** 2
    if not np.all(np.isfinite(ratio) & np.isfinite(cost)):
        return None
    return ratio, cost


def _predicted_miss(co, flows, kappa, eps):
    """True when some member is predicted to miss target or cost at kappa
    by more than _NEAR_MISS relative; False without a prediction."""
    pred = _predict(co, flows, kappa, eps)
    if pred is None:
        return False
    ratio, cost = pred
    bound = (1.0 + CERT_SLACK) * (1.0 + _NEAR_MISS)
    return bool(np.any(ratio > eps * bound) or np.any(cost > bound))


def _spread(co, kappa, eps):
    """kappa^2 lambda_max(W) / eps^2, which bounds G's condition number;
    nan without a reduced Gramian, inf where it overflows."""
    if co.reduced is None:
        return np.nan
    with np.errstate(all="ignore"):
        return kappa * kappa * co.reduced.eigenvalues[-1] / (eps * eps)


def _calibration_diagnostics(co, flows, kappa, eps):
    """n_omega, W's extreme eigenvalues and each member's predicted
    ||Psi(T)|| / ||Psi0|| at kappa, None where unknown."""
    red = co.reduced
    pred = _predict(co, flows, kappa, eps)
    return {
        "n_omega": int(co.ops.grid.omega_idx.size),
        "kappa_last": kappa,
        "w_eigenvalue_min": None if red is None else float(red.eigenvalues[0]),
        "w_eigenvalue_max": None if red is None else float(red.eigenvalues[-1]),
        "predicted_ratio_last": None if pred is None else [float(r) for r in pred[0]],
    }


def _calibrate(co, prob, flows, seed):
    """Double kappa from seed until every member of flows certifies target
    and cost; the ladder of calibrate_kappa and cost_study.

    The rungs that the reduced model predicts to miss by more than
    _NEAR_MISS are skipped without a flow; from the first other rung on,
    each rung synthesizes all members as one block.  Exhausting
    DEFAULT_DOUBLING_BUDGET doublings, or reaching a rung whose finite
    kappa^2 lambda_max(W) / eps^2 passes GRAMIAN_CONDITION_MAX, raises
    CalibrationError with diagnostics at that rung; the latter's message
    gives the largest predicted ||Psi(T)|| / ||Psi0|| there, if any.
    """
    budget, eps = DEFAULT_DOUBLING_BUDGET, prob.eps
    kappa, start = seed, 0
    while (start < budget and not _spread(co, kappa, eps) > GRAMIAN_CONDITION_MAX
           and _predicted_miss(co, flows, kappa, eps)):
        kappa *= 2.0
        start += 1
    for k in range(start, budget + 1):
        spread = _spread(co, kappa, eps)
        if GRAMIAN_CONDITION_MAX < spread < np.inf:
            diagnostics = _calibration_diagnostics(co, flows, kappa, eps)
            ratios = diagnostics["predicted_ratio_last"]
            floor = ("" if ratios is None else
                     f"; at that kappa the reduced model predicts ||Psi(T)|| / "
                     f"||Psi0|| up to {max(ratios):.3g}, against eps={eps}")
            raise CalibrationError(
                f"no kappa below {kappa:.6g} certifies at eps={eps}, and there "
                f"kappa^2 lambda_max(W) / eps^2 = {spread:.3e} passes "
                f"{GRAMIAN_CONDITION_MAX:g}: the Gramian is too ill-conditioned "
                f"to solve in floating point{floor}", diagnostics=diagnostics)
        result = _synthesize_block(co, replace(prob, kappa=kappa), flows)
        if result.certified.all():
            return CalibrationResult(kappa=kappa, doublings=k, result=result)
        last, kappa = kappa, kappa * 2.0
    raise CalibrationError(
        f"no certifying kappa within {budget} doublings from {seed:.6g} "
        f"(eps={eps})",
        diagnostics=_calibration_diagnostics(co, flows, last, eps))


def calibrate_kappa(ops, prob, sched, psi0s):
    """Double kappa from 1 until every member, one per column of the block
    psi0s (n, m), certifies target + cost.

    Exhausting DEFAULT_DOUBLING_BUDGET doublings raises CalibrationError.
    The reduced model picks the first rung to propagate (see the module
    docstring); each propagated rung synthesizes all members as one block.
    """
    if psi0s.shape[1] == 0:
        raise ConfigurationError("calibration needs at least one initial state")
    co = ControlOperator(ops, sched, prob.tau)
    return _calibrate(co, prob, _free_flows(co, psi0s), 1.0)


@dataclass(frozen=True)
class CostStudyRow:
    eps: float
    kappa: float
    sup_cost: float
    passes: bool


@dataclass(frozen=True)
class CostStudy:
    rows: tuple
    slope: float | None
    delta_fitted: float | None

    @property
    def all_certified(self):
        return all(r.passes for r in self.rows)

    @property
    def nondecreasing(self):
        costs = [r.sup_cost for r in self.rows]
        return all(b >= a for a, b in zip(costs, costs[1:]))


def cost_study(ops, prob_template, sched, eps_list, psi0s, constants=None):
    """Calibrate and synthesize per eps for the members, one per column of
    the block psi0s (n, m); report sup ||h|| and the log-log slope.

    eps_list is processed as given (descending for a cost sweep).  The
    kappa seed is continued monotonically across the sweep: each eps starts
    from the larger of its seed (constants.kappa0 at horizon T - tau, or 1
    without constants) and the previous calibrated kappa, which together
    with the monotonicity of the minimizer in kappa and eps keeps the
    reported cost nondecreasing as eps shrinks.  Members whose
    free decay already meets the eps target contribute zero cost and are
    left out of the calibration.  The slope is None unless the rows with
    positive cost hold at least two distinct eps.

    Every member is flowed once, and each eps level calibrates on the
    columns of its active members.  A block's columns equal their
    one-column steps, so this gives the bits of flowing the active members
    alone.
    """
    if not eps_list:
        raise ConfigurationError("cost study needs a nonempty eps list")
    if psi0s.shape[1] == 0:
        raise ConfigurationError(
            "cost study needs at least one initial state (ensemble.count >= 1)")
    co = ControlOperator(ops, sched, prob_template.tau)
    flows = _free_flows(co, psi0s)
    # zero data stays at zero: its ratio 0/0 is nan, never above eps
    with np.errstate(invalid="ignore"):
        free_ratio = ops.norm(flows.free_T) / flows.norms

    rows = []
    kappa_floor = None
    for eps in eps_list:
        prob = replace(prob_template, eps=float(eps), kappa=None)
        seed = 1.0
        if constants is not None:
            seed = float(constants.kappa0(sched.t1 - prob.tau, prob.eps))
        if kappa_floor is not None:
            seed = max(seed, kappa_floor)
        active = np.flatnonzero(free_ratio > prob.eps)
        if active.size:
            cal = _calibrate(co, prob, flows.subset(active), seed)
            kappa_floor = cal.kappa
            sup_cost = cal.result.norm_h.max()
            passes = cal.result.certified.all()
            kappa_row = cal.kappa
        else:
            sup_cost, passes, kappa_row = 0.0, True, seed
        rows.append(CostStudyRow(eps=float(eps), kappa=kappa_row,
                                 sup_cost=float(sup_cost), passes=bool(passes)))

    # log sup cost is defined on rows that needed control only
    costly = [r for r in rows if r.sup_cost > 0.0]
    slope = None
    if len({r.eps for r in costly}) >= 2:
        xs = np.log(1.0 / np.array([r.eps for r in costly]))
        ys = np.log(np.array([r.sup_cost for r in costly]))
        slope = float(np.polyfit(xs, ys, 1)[0])
    delta = float(constants.delta) if constants is not None else None
    return CostStudy(rows=tuple(rows), slope=slope, delta_fitted=delta)
