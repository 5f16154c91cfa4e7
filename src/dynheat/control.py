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

with v = R_omega P^n theta.  kappa is calibrated by doubling from the
penalization seed M1 e^{M2/(T-tau)} / eps^delta when fitted constants are
available (else from 1) until target and cost both certify.

The ensemble is solved as one block.  A ControlOperator depends only on
(ops, sched, tau), so a calibration or a cost study factors the step
matrix once and reuses it for every kappa doubling, every eps level and
every member.  Each doubling runs one block CG whose columns keep their
own scalars and stopping tests; flows act column by column and inner
products are taken on contiguous columns, so every member's result is
bit-identical to a one-member synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .discretize import State
from .errors import (CalibrationError, ConfigurationError, NumericalError,
                     UsageError)
from .evolve import Propagator

CERT_SLACK = 1e-8
DEFAULT_CG_TOL = 1e-12
DEFAULT_CG_MAXIT = 400
DEFAULT_DOUBLING_BUDGET = 40


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


class ControlOperator:
    """Flow-based pieces of impulsive control with a kick at tau.

    Depends only on (ops, sched, tau), so one Propagator, hence one
    factorization, serves every kappa, every eps and every member.
    observe and gramian_apply take a state (n,) or a block (n, m).
    """

    def __init__(self, ops, sched, tau):
        if not (sched.t0 < tau < sched.t1):
            raise ConfigurationError(
                f"tau={tau} must lie strictly inside ({sched.t0}, {sched.t1})")
        self.ops = ops
        self.sched = sched
        self.tau = tau
        self.prop = Propagator(ops, sched.dt, sched.scheme)
        self.n_total = sched.steps
        n_tau = round((tau - sched.t0) / sched.dt)
        self.n_tau = min(max(n_tau, 1), self.n_total - 1)
        self.n_obs = self.n_total - self.n_tau
        self.tau_effective = sched.t0 + self.n_tau * sched.dt

    def observe(self, zeta):
        """R_omega P^{n_obs} zeta: the dual observation at time T - tau."""
        return self.ops.restrict_omega(self.prop.flow(zeta, self.n_obs))

    def gramian_apply(self, zeta, kappa, eps):
        """kappa^2 P^n E_omega R_omega P^n zeta + eps^2 zeta."""
        if kappa is None:
            raise UsageError("gramian needs a calibrated kappa; run calibrate_kappa")
        v = self.ops.embed_omega(self.observe(zeta))
        return kappa ** 2 * self.prop.flow(v, self.n_obs) + eps ** 2 * zeta


def _cg_mass_inner(apply_G, rhs, inner, tol, maxit):
    """Conjugate gradients for an operator self-adjoint in `inner`, which
    takes two blocks and returns one product per column pair.

    Solves every column of rhs (n, m) at once.  Each column keeps its own
    alpha, beta, residual and stopping test, and each iteration applies G
    once to the block of columns still iterating, so every column's
    arithmetic is that of a one-column solve.  Returns the solutions, the
    relative true residuals ||rhs - G x|| / ||rhs|| (one block apply for
    all columns once the last has stopped) and the iteration counts, one
    per column.
    """
    X = np.zeros(rhs.shape, order="F")
    R = np.array(rhs, dtype=float, order="F")
    P = R.copy(order="F")
    rr = inner(R, R)
    rhs_norm = np.sqrt(rr)
    rel = np.zeros(rhs.shape[1])
    iters = np.zeros(rhs.shape[1], dtype=int)
    active = np.flatnonzero(rhs_norm != 0.0)
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
    solved = np.flatnonzero(iters)
    if solved.size:
        true_r = rhs[:, solved] - apply_G(X[:, solved])
        rel[solved] = np.sqrt(inner(true_r, true_r)) / rhs_norm[solved]
    return X, rel, iters


@dataclass
class ControlResult:
    """Synthesized impulse with certificates and solver residuals."""

    kappa: float
    eps: float
    norm_h: float
    norm_PsiT: float
    norm_Psi0: float
    flags: dict
    residuals: dict
    tau_effective: float
    h: np.ndarray
    theta0: np.ndarray
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


def _free_flows(co, psi0s):
    """Norms of the initial states and their free flows to tau and to T, as blocks."""
    norms = [co.ops.norm(psi0) for psi0 in psi0s]
    free_tau = co.prop.flow(np.column_stack([p.values for p in psi0s]), co.n_tau)
    return norms, free_tau, co.prop.flow(free_tau, co.n_obs)


def _synthesize_block(co, prob, norms, free_tau, free_T):
    """One ControlResult per member: the Gramian solve and certificates as blocks.

    norms, free_tau and free_T come from _free_flows.  Members with zero
    data need no control: the minimizer of their dual functional is 0.
    """
    ops, kappa, eps = co.ops, prob.kappa, prob.eps
    n_omega = ops.grid.omega_idx.size
    results = [ControlResult(
        kappa=kappa, eps=eps, norm_h=0.0, norm_PsiT=0.0, norm_Psi0=0.0,
        flags={"target": True, "cost": True, "apriori": True, "observation": True},
        residuals={"cg_rel": 0.0, "cg_iterations": 0, "terminal_identity": 0.0},
        tau_effective=co.tau_effective, h=np.zeros(n_omega),
        theta0=np.zeros(ops.n_dofs), psi_T=np.zeros(ops.n_dofs))
        for _ in norms]
    live = [j for j, n0 in enumerate(norms) if n0 != 0.0]
    if not live:
        return results
    if not (0.0 < kappa * kappa < np.inf and 0.0 < eps * eps < np.inf):
        raise NumericalError(
            f"kappa={kappa:.6g} or eps={eps:.6g} leaves the float range when squared")

    theta, cg_rel, cg_iters = _cg_mass_inner(
        lambda z: co.gramian_apply(z, kappa, eps), -free_T[:, live], ops.inner,
        prob.cg_tol, prob.cg_maxit)

    # P^{n_total} theta = P^{n_tau} P^{n_obs} theta: the same steps in turn
    theta_obs = co.prop.flow(theta, co.n_obs)
    theta_T = co.prop.flow(theta_obs, co.n_tau)
    V = ops.restrict_omega(theta_obs)
    H = kappa ** 2 * V

    # impulsive trajectory with the synthesized payloads
    psi_T = co.prop.flow(free_tau[:, live] + ops.embed_omega(H), co.n_obs)

    for k, j in enumerate(live):
        h, v = np.ascontiguousarray(H[:, k]), np.ascontiguousarray(V[:, k])
        th, pT = np.ascontiguousarray(theta[:, k]), np.ascontiguousarray(psi_T[:, k])
        norm_psi0 = norms[j]
        norm_h = ops.norm_omega(h)
        norm_psiT = ops.norm(pT)
        norm_theta = ops.norm(th)
        terminal = ops.norm(pT + eps ** 2 * th) / norm_psi0
        lhs_apriori = kappa ** 2 * ops.inner_omega(v, v) + eps ** 2 * norm_theta ** 2
        rhs_apriori = norm_psi0 * ops.norm(np.ascontiguousarray(theta_T[:, k]))
        cost_lhs = norm_h ** 2 / kappa ** 2 + norm_psiT ** 2 / eps ** 2
        flags = {
            "target": bool(norm_psiT <= eps * norm_psi0 * (1.0 + CERT_SLACK)),
            "cost": bool(cost_lhs <= norm_psi0 ** 2 * (1.0 + CERT_SLACK)),
            "apriori": bool(lhs_apriori <= rhs_apriori * (1.0 + CERT_SLACK)),
            "observation": bool(ops.norm_omega(v) <= norm_psi0 * (1.0 + CERT_SLACK)),
        }
        residuals = {
            "cg_rel": float(cg_rel[k]),
            "cg_iterations": int(cg_iters[k]),
            "terminal_identity": terminal,
        }
        results[j] = ControlResult(kappa=kappa, eps=eps, norm_h=norm_h,
                                   norm_PsiT=norm_psiT, norm_Psi0=norm_psi0,
                                   flags=flags, residuals=residuals,
                                   tau_effective=co.tau_effective,
                                   h=h, theta0=th, psi_T=pT)
    return results


def synthesize(ops, prob, sched, psi0):
    """Solve the dual Gramian system and build the certified impulse."""
    if prob.kappa is None:
        raise UsageError("synthesize needs kappa; set it or run calibrate_kappa")
    co = ControlOperator(ops, sched, prob.tau)
    return _synthesize_block(co, prob, *_free_flows(co, [psi0]))[0]


def verify_duality(ops, prob, sched, psi0, result, zeta0s):
    """Residuals of <h, z(T-tau)>_omega + <Psi0, zeta(T)> - <Psi(T), zeta0>.

    Returns the per-member residuals normalized by ||Psi0|| ||zeta0||; the
    identity holds at solver precision because the discrete flow is
    self-adjoint in the mass inner product.
    """
    co = ControlOperator(ops, sched, prob.tau)
    norm_psi0 = ops.norm(psi0)
    Z0 = np.column_stack([z.values if isinstance(z, State) else z for z in zeta0s])
    Z_obs = co.prop.flow(Z0, co.n_obs)
    Z_T = co.prop.flow(Z_obs, co.n_tau)  # P^{n_total} = P^{n_tau} P^{n_obs}
    out = []
    for z0, z_obs, zT in zip(Z0.T, ops.restrict_omega(Z_obs).T, Z_T.T):
        val = (ops.inner_omega(result.h, z_obs)
               + ops.inner(psi0.values, zT)
               - ops.inner(result.psi_T, z0))
        out.append(abs(val) / (norm_psi0 * ops.norm(z0)))
    return np.array(out)


@dataclass(frozen=True)
class CalibrationResult:
    kappa: float
    kappa0: float
    doublings: int
    results: tuple


def calibrate_kappa(ops, prob, sched, psi0s, constants=None, kappa0=None,
                    budget=DEFAULT_DOUBLING_BUDGET, operator=None):
    """Double kappa from its seed until every member certifies target + cost.

    Seed order: explicit kappa0, else the penalization formula from fitted
    constants at horizon T - tau, else 1.  Exhausting the budget raises
    CalibrationError (budget counts doublings; budget=0 tests the seed only).
    Each doubling synthesizes all members as one block.  operator is a
    ControlOperator for (ops, sched, prob.tau) to reuse; one is built when
    it is None.
    """
    if budget < 0:
        raise ConfigurationError(f"doubling budget must be >= 0, got {budget}")
    if not psi0s:
        raise ConfigurationError("calibration needs at least one initial state")
    if kappa0 is not None:
        seed = float(kappa0)
    elif constants is not None:
        seed = float(constants.kappa0(sched.t1 - prob.tau, prob.eps))
    else:
        seed = 1.0
    if seed <= 0.0:
        raise ConfigurationError(f"kappa seed must be positive, got {seed}")
    co = operator or ControlOperator(ops, sched, prob.tau)
    if co.ops is not ops or co.sched != sched or co.tau != prob.tau:
        raise UsageError("operator was built for another (ops, sched, tau)")
    flows = _free_flows(co, psi0s)

    kappa = seed
    for k in range(budget + 1):
        results = _synthesize_block(co, replace(prob, kappa=kappa), *flows)
        if all(r.certified for r in results):
            return CalibrationResult(kappa=kappa, kappa0=seed, doublings=k,
                                     results=tuple(results))
        kappa *= 2.0
    raise CalibrationError(
        f"no certifying kappa within {budget} doublings from {seed:.6g} "
        f"(eps={prob.eps})")


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


def cost_study(ops, prob_template, sched, eps_list, psi0s, constants=None,
               budget=DEFAULT_DOUBLING_BUDGET):
    """Calibrate and synthesize per eps; report sup ||h|| and the log-log slope.

    eps_list is processed as given (descending for a cost sweep).  The
    kappa seed is continued monotonically across the sweep: each eps starts
    from the larger of its formula seed and the previous calibrated kappa,
    which together with the monotonicity of the minimizer in kappa and eps
    keeps the reported cost nondecreasing as eps shrinks.  Members whose
    free decay already meets the eps target contribute zero cost and are
    left out of the calibration.
    """
    if not eps_list:
        raise ConfigurationError("cost study needs a nonempty eps list")
    if not psi0s:
        raise ConfigurationError(
            "cost study needs at least one initial state (ensemble.count >= 1)")
    co = ControlOperator(ops, sched, prob_template.tau)
    norms, _, free_T = _free_flows(co, psi0s)
    free_ratio = [np.inf if n0 == 0.0 else ops.norm(u) / n0
                  for n0, u in zip(norms, free_T.T)]

    rows = []
    kappa_floor = None
    for eps in eps_list:
        prob = replace(prob_template, eps=float(eps), kappa=None)
        seed = 1.0
        if constants is not None:
            seed = float(constants.kappa0(sched.t1 - prob.tau, prob.eps))
        if kappa_floor is not None:
            seed = max(seed, kappa_floor)
        active = [psi0 for psi0, r in zip(psi0s, free_ratio)
                  if np.isfinite(r) and r > prob.eps]
        if active:
            cal = calibrate_kappa(ops, prob, sched, active, kappa0=seed,
                                  budget=budget, operator=co)
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
    if len(costly) >= 2:
        xs = np.log(1.0 / np.array([r.eps for r in costly]))
        ys = np.log(np.array([r.sup_cost for r in costly]))
        slope = float(np.polyfit(xs, ys, 1)[0])
    delta = float(constants.delta) if constants is not None else None
    return CostStudy(rows=tuple(rows), slope=slope, delta_fitted=delta)
