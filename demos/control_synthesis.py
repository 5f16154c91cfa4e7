"""Synthesis of a single impulsive control steering the state near zero.

Calibrates the penalization weight kappa by doubling from 1, as the
control stage does, next to the seed M1 e^{M2/(T - tau)} / eps^delta that
fitted observability constants give (the cost study starts from it);
solves the dual Gramian system by conjugate gradients, and
prints the certificates: terminal smallness ||Psi(T)|| <= eps ||Psi0||,
the cost bound ||h||^2/kappa^2 + ||Psi(T)||^2/eps^2 <= ||Psi0||^2, and the
duality identity checked against a batch of adjoint runs.
"""

from dataclasses import replace

import numpy as np

import dynheat as dh
from dynheat import control as co
from dynheat import logconvexity as lc


def main():
    domain = dh.DomainSpec.interval(0.0, 1.0, 0.5, 0.3, 0.7)
    ops = dh.assemble_operator(dh.build_grid(domain, n=48))
    sched = dh.Schedule(0.0, 1.0, 0.01)
    prob = co.ControlProblem(tau=0.5, eps=0.1, kappa=None)

    train = lc.diverse_ensemble(ops, count=20, seed=11, sched=sched)
    train_T = dh.Propagator(ops, sched.dt).flow(train, sched.steps)
    fit = lc.fit_observability_constants(ops, sched, train, train_T)
    print(f"fitted constants: beta = {fit.beta:.4f}, M1 = {fit.M1:.4f}, "
          f"M2 = {fit.M2:.4f}, delta = {fit.delta:.4f}")

    rng = np.random.default_rng(5)
    v = rng.standard_normal(ops.n_dofs)
    psi0 = v / ops.norm(v)

    cal = co.calibrate_kappa(ops, prob, sched, psi0[:, None])
    print(f"calibrated kappa = {cal.kappa:.4f} ({cal.doublings} doublings from 1), "
          f"fitted seed {fit.kappa0(sched.t1 - prob.tau, prob.eps):.4f}")

    res = cal.result.summary(0)
    norm_psi0, norm_psiT, norm_h = res["norm_Psi0"], res["norm_PsiT"], res["norm_h"]
    print(f"\n||Psi0|| = {norm_psi0:.6f}")
    print(f"||Psi(T)|| = {norm_psiT:.6e}  (target eps ||Psi0|| = "
          f"{prob.eps * norm_psi0:.6e})")
    print(f"||h||_omega = {norm_h:.6f}, impulse applied at t = "
          f"{res['tau_effective']}")
    cost = norm_h ** 2 / res["kappa"] ** 2 + norm_psiT ** 2 / prob.eps ** 2
    print(f"cost functional = {cost:.6f}  (bound ||Psi0||^2 = "
          f"{norm_psi0 ** 2:.6f})")
    print("certificates:", ", ".join(f"{k}={v}" for k, v in res["flags"].items()))
    residuals = res["residuals"]
    print(f"cg: {residuals['cg_iterations']} iterations, relative "
          f"residual {residuals['cg_rel']:.3e}")
    print(f"terminal identity |Psi(T) + eps^2 theta| / ||Psi0|| = "
          f"{residuals['terminal_identity']:.3e}")

    # five adjoint initial states, one per column
    Z0 = np.random.default_rng(99).standard_normal((5, ops.n_dofs)).T
    dual = co.verify_duality(ops, replace(prob, kappa=cal.kappa), sched,
                             psi0[:, None], cal.result, Z0)
    print(f"duality residuals over {Z0.shape[1]} adjoint runs: "
          f"max {dual.max():.3e}")


if __name__ == "__main__":
    main()
