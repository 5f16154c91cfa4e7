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
use, from one block flow of the n_omega unit payloads, and one eigh of
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
  propagated rung is no oracle either (see ROADMAP item 6).

The reduced Gramian is built only where it pays.  Its flow costs the
steps of n_omega Gramian applies to one column, in one wide block, and a
calibration from a zero start costs about as much time as
COLD_APPLIES_PER_MEMBER of them per member, so a calibration or cost
study of m members with nonzero data uses it when
n_omega <= m * COLD_APPLIES_PER_MEMBER, and when Z holds at most
REDUCED_GRAMIAN_MAX_ENTRIES numbers.  Otherwise the CG starts from zero
and the ladder from its seed, as a one-member control on the 816-dof
disk does (n_omega = 240).

The ensemble is solved as one block.  A ControlOperator depends only on
(ops, sched, tau), so a calibration or a cost study factors the step
matrix once and reuses it for every kappa doubling, every eps level and
every member, and flows each member once.  Each propagated rung runs one
block CG whose columns keep their own scalars and stopping tests.  The
step solve and every inner product treat each column alone, and the
reduced products are taken per column, so on every grid a member's result
is bit-identical to a one-member synthesis wherever both take the same
start: n_omega <= COLD_APPLIES_PER_MEMBER, where one member already uses
the reduced Gramian, or a block too small to use it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (CalibrationError, ConfigurationError, NumericalError,
                     UsageError)
from .evolve import Propagator

CERT_SLACK = 1e-8
DEFAULT_CG_TOL = 1e-12
DEFAULT_CG_MAXIT = 400
DEFAULT_DOUBLING_BUDGET = 40
# cap on n_dofs * n_omega, the numbers in Z.  Building the reduced Gramian
# raised peak RSS by 48 bytes per number on a 2000-node interval and by 66
# to 72 on 816- and 2624-node disks (Z, P^n E_omega, the flow's working
# blocks and eigh), so the cap keeps the build under about 150 MB
REDUCED_GRAMIAN_MAX_ENTRIES = 2_000_000
# the time of a calibration from a zero start per member, in Gramian
# applies to one column within the reduced Gramian's wide block flow.  A
# zero start spends 56 to 68 applies per member on disks of 816 and 1600
# dofs (omega radius 0.3 and 0.5, one rung), on narrow blocks, which
# price a column higher; timed against the reduced Gramian for 2 to 16
# members, the two broke even at n_omega / m of 38 to 48
COLD_APPLIES_PER_MEMBER = 40
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
    factorization, serves every kappa, every eps and every member.
    gramian_apply takes a state (n,) or a block (n, m).
    """

    def __init__(self, ops, sched, tau):
        self.n_tau = sched.kick_step(tau)
        self.ops = ops
        self.prop = Propagator(ops, sched.dt, sched.scheme)
        self.n_total = sched.steps
        self.n_obs = self.n_total - self.n_tau
        self.tau_effective = sched.t0 + self.n_tau * sched.dt

    def gramian_apply(self, zeta, kappa, eps):
        """kappa^2 P^n E_omega R_omega P^n zeta + eps^2 zeta."""
        if kappa is None:
            raise UsageError("gramian needs a calibrated kappa; run calibrate_kappa")
        return self._gramian_from(self.prop.flow(zeta, self.n_obs), zeta, kappa, eps)

    def _gramian_from(self, flowed, zeta, kappa, eps):
        """G zeta from flowed = P^n zeta, which the caller keeps."""
        v = self.ops.embed_omega(self.ops.restrict_omega(flowed))
        return kappa ** 2 * self.prop.flow(v, self.n_obs) + eps ** 2 * zeta

    @cached_property
    def reduced(self):
        """The _ReducedGramian, built on first use; None when Z would hold
        more than REDUCED_GRAMIAN_MAX_ENTRIES numbers."""
        ops = self.ops
        idx = ops.grid.omega_idx
        if ops.n_dofs * idx.size > REDUCED_GRAMIAN_MAX_ENTRIES:
            return None
        Z0 = self.prop.flow(ops.embed_omega(np.eye(idx.size)), self.n_obs)
        W = ops.restrict_omega(self.prop.flow(Z0, self.n_obs))
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


@dataclass
class ControlResult:
    """Synthesized impulse with certificates and solver residuals; theta
    solves the Gramian system and psi_T is the controlled state at T."""

    kappa: float
    eps: float
    norm_h: float
    norm_PsiT: float
    norm_Psi0: float
    flags: dict
    residuals: dict
    tau_effective: float
    h: np.ndarray
    theta: np.ndarray
    psi_T: np.ndarray

    @property
    def certified(self):
        return bool(self.flags["target"] and self.flags["cost"])

    def summary(self):
        return {
            "kappa": self.kappa,
            "eps": self.eps,
            "norm_h": self.norm_h,
            "norm_PsiT": self.norm_PsiT,
            "norm_Psi0": self.norm_Psi0,
            "tau_effective": self.tau_effective,
            "flags": dict(self.flags),
            "residuals": dict(self.residuals),
        }


@dataclass(frozen=True)
class _Flows:
    """The members' data, flowed once per calibration or cost study.

    norms holds ||Psi0|| per member; free_tau and free_T hold P^{n_tau}
    Psi0 and a = P^{n_T} Psi0, one column per member; red is the
    operator's reduced Gramian where it pays for these members, else None,
    and c = Z^T M a the reduced coordinates of a (None without red).
    """

    norms: np.ndarray
    free_tau: np.ndarray
    free_T: np.ndarray
    red: _ReducedGramian | None
    c: np.ndarray | None

    def subset(self, idx):
        return _Flows(norms=self.norms[idx],
                      free_tau=self.free_tau[:, idx], free_T=self.free_T[:, idx],
                      red=self.red, c=None if self.c is None else self.c[:, idx])


def _free_flows(co, psi0s):
    """_Flows of the initial states psi0s, an (n, m) block.

    The reduced Gramian is used for at least n_omega /
    COLD_APPLIES_PER_MEMBER members with nonzero data only (see the
    module docstring).  c is read off Z, column by column, so a member's
    bits do not depend on the block.
    """
    norms = co.ops.norm(psi0s)
    free_tau = co.prop.flow(psi0s, co.n_tau)
    free_T = co.prop.flow(free_tau, co.n_obs)
    members = np.count_nonzero(norms)
    pays = co.ops.grid.omega_idx.size <= members * COLD_APPLIES_PER_MEMBER
    red = co.reduced if pays else None
    c = None if red is None else _per_column(red.Z.T, co.ops.mass[:, None] * free_T)
    return _Flows(norms=norms, free_tau=free_tau, free_T=free_T, red=red, c=c)


def _warm_start(co, flows, rhs, kappa, eps):
    """theta0 = (rhs - Z y) / eps^2 with P^n theta0, G theta0 and the residual
    rhs - G theta0, as blocks over the columns of rhs.

    Without a reduced Gramian, and in a column where the residual is not
    below ||rhs|| (the zero start's), theta0 is 0, whose flow and Gramian
    are 0 without a step.
    """
    zero = np.zeros(rhs.shape, order="F")
    red = flows.red
    if red is None:
        return zero, zero.copy(), zero.copy(), rhs
    # a tiny eps can blow theta0 up past the float range; such columns fail
    # the comparison and start from zero
    with np.errstate(all="ignore"):
        y = red.payload(flows.c, kappa, eps)
        theta0 = (rhs - _per_column(red.Z, y)) / eps ** 2
        flowed = co.prop.flow(theta0, co.n_obs)
        G_theta0 = co._gramian_from(flowed, theta0, kappa, eps)
        r0 = rhs - G_theta0
        cold = ~(co.ops.inner(r0, r0) < co.ops.inner(rhs, rhs))
    for block in (theta0, flowed, G_theta0):
        block[:, cold] = 0.0
    r0[:, cold] = rhs[:, cold]
    return theta0, flowed, G_theta0, r0


def _synthesize_block(co, prob, flows):
    """One ControlResult per member: the Gramian solve and certificates as blocks.

    Members with zero data need no control: the minimizer of their dual
    functional is 0.
    """
    ops, kappa, eps = co.ops, prob.kappa, prob.eps
    n_omega = ops.grid.omega_idx.size
    results = [ControlResult(
        kappa=kappa, eps=eps, norm_h=0.0, norm_PsiT=0.0, norm_Psi0=0.0,
        flags={"target": True, "cost": True, "apriori": True, "observation": True},
        residuals={"cg_rel": 0.0, "cg_iterations": 0, "terminal_identity": 0.0},
        tau_effective=co.tau_effective, h=np.zeros(n_omega),
        theta=np.zeros(ops.n_dofs), psi_T=np.zeros(ops.n_dofs))
        for _ in flows.norms]
    live = np.flatnonzero(flows.norms)
    if live.size == 0:
        return results
    if not (0.0 < kappa * kappa < np.inf and 0.0 < eps * eps < np.inf):
        raise NumericalError(
            f"kappa={kappa:.6g} or eps={eps:.6g} leaves the float range when squared")
    flows = flows.subset(live)

    rhs = -flows.free_T
    theta0, theta_obs, G_theta, r0 = _warm_start(co, flows, rhs, kappa, eps)
    theta, cg_iters = _cg_mass_inner(
        lambda z: co.gramian_apply(z, kappa, eps), rhs, ops.inner,
        prob.cg_tol, prob.cg_maxit, theta0, r0)
    # the full-space true residual rhs - G theta; a column that stopped at
    # theta0 already has P^n theta and G theta from its start
    moved = cg_iters > 0
    if moved.any():
        flowed = co.prop.flow(theta[:, moved], co.n_obs)
        theta_obs[:, moved] = flowed
        G_theta[:, moved] = co._gramian_from(flowed, theta[:, moved], kappa, eps)
    true_r = rhs - G_theta
    rhs_norm = np.sqrt(ops.inner(rhs, rhs))
    cg_rel = np.sqrt(ops.inner(true_r, true_r)) / np.where(rhs_norm > 0.0, rhs_norm, 1.0)

    # P^{n_total} theta = P^{n_tau} P^{n_obs} theta: the same steps in turn
    theta_T = co.prop.flow(theta_obs, co.n_tau)
    V = ops.restrict_omega(theta_obs)
    H = kappa ** 2 * V

    # impulsive trajectory with the synthesized payloads
    psi_T = co.prop.flow(flows.free_tau + ops.embed_omega(H), co.n_obs)

    norm_psi0 = flows.norms
    norm_h, norm_v = ops.norm_omega(H), ops.norm_omega(V)
    norm_psiT, norm_theta = ops.norm(psi_T), ops.norm(theta)
    terminal = ops.norm(psi_T + eps ** 2 * theta) / norm_psi0
    lhs_apriori = kappa ** 2 * ops.inner_omega(V, V) + eps ** 2 * norm_theta ** 2
    rhs_apriori = norm_psi0 * ops.norm(theta_T)
    cost_lhs = norm_h ** 2 / kappa ** 2 + norm_psiT ** 2 / eps ** 2
    slack = 1.0 + CERT_SLACK
    for k, j in enumerate(live):
        flags = {
            "target": bool(norm_psiT[k] <= eps * norm_psi0[k] * slack),
            "cost": bool(cost_lhs[k] <= norm_psi0[k] ** 2 * slack),
            "apriori": bool(lhs_apriori[k] <= rhs_apriori[k] * slack),
            "observation": bool(norm_v[k] <= norm_psi0[k] * slack),
        }
        residuals = {
            "cg_rel": float(cg_rel[k]),
            "cg_iterations": int(cg_iters[k]),
            "terminal_identity": float(terminal[k]),
        }
        results[j] = ControlResult(kappa=kappa, eps=eps, norm_h=float(norm_h[k]),
                                   norm_PsiT=float(norm_psiT[k]),
                                   norm_Psi0=float(norm_psi0[k]),
                                   flags=flags, residuals=residuals,
                                   tau_effective=co.tau_effective,
                                   h=H[:, k], theta=theta[:, k], psi_T=psi_T[:, k])
    return results


def synthesize(ops, prob, sched, psi0):
    """Solve the dual Gramian system for the state psi0 (n,) and build the
    certified impulse."""
    if prob.kappa is None:
        raise UsageError("synthesize needs kappa; set it or run calibrate_kappa")
    co = ControlOperator(ops, sched, prob.tau)
    return _synthesize_block(co, prob, _free_flows(co, psi0[:, None]))[0]


def verify_duality(ops, prob, sched, psi0, result, Z0):
    """Residuals of <h, z(T-tau)>_omega + <Psi0, zeta(T)> - <Psi(T), zeta0>
    for each column zeta0 of the block Z0 (n, m).

    Returns the per-member residuals normalized by ||Psi0|| ||zeta0||; the
    identity holds at solver precision because the discrete flow is
    self-adjoint in the mass inner product.
    """
    co = ControlOperator(ops, sched, prob.tau)
    norm_psi0 = ops.norm(psi0)
    Z_obs = co.prop.flow(Z0, co.n_obs)
    Z_T = co.prop.flow(Z_obs, co.n_tau)  # P^{n_total} = P^{n_tau} P^{n_obs}
    val = (ops.inner_omega(result.h[:, None], ops.restrict_omega(Z_obs))
           + ops.inner(psi0[:, None], Z_T)
           - ops.inner(result.psi_T[:, None], Z0))
    return np.abs(val) / (norm_psi0 * ops.norm(Z0))


@dataclass(frozen=True)
class CalibrationResult:
    kappa: float
    doublings: int
    results: tuple


def _predict(co, flows, kappa, eps):
    """Reduced-model ||Psi(T)|| / ||Psi0|| and cost / ||Psi0||^2 per member
    at (kappa, eps), 0 for zero data; None without a reduced Gramian, when
    kappa^2 leaves the float range or when a prediction is not finite."""
    red, k2 = flows.red, kappa * kappa
    if red is None or not 0.0 < k2 < np.inf:
        return None
    n0 = np.array(flows.norms)
    n0[n0 == 0.0] = 1.0  # zero data has a = c = y = 0
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


def _calibration_diagnostics(co, flows, kappa, eps):
    """n_omega, W's extreme eigenvalues and each member's predicted
    ||Psi(T)|| / ||Psi0|| at kappa, None where unknown."""
    red = flows.red
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
    DEFAULT_DOUBLING_BUDGET doublings raises CalibrationError with
    diagnostics at the last rung.
    """
    budget = DEFAULT_DOUBLING_BUDGET
    kappa, start = seed, 0
    while start < budget and _predicted_miss(co, flows, kappa, prob.eps):
        kappa *= 2.0
        start += 1
    for k in range(start, budget + 1):
        results = _synthesize_block(co, replace(prob, kappa=kappa), flows)
        if all(r.certified for r in results):
            return CalibrationResult(kappa=kappa, doublings=k, results=tuple(results))
        last, kappa = kappa, kappa * 2.0
    raise CalibrationError(
        f"no certifying kappa within {budget} doublings from {seed:.6g} "
        f"(eps={prob.eps})",
        diagnostics=_calibration_diagnostics(co, flows, last, prob.eps))


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
            sup_cost = max(r.norm_h for r in cal.results)
            passes = all(r.certified for r in cal.results)
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
