"""Empirical final-state observability fit on an interval ensemble.

Fits the exponent beta and prefactor in

    ||U(T)|| <= (mu e^{K/T} ||u(T)||_omega)^beta ||U(0)||^{1-beta}

by log-scale least squares over a diverse ensemble, then checks the fitted
estimate on a fresh holdout ensemble and prints the derived penalization
constants (M1, M2, delta) that seed the control calibration.
"""

import dynheat as dh
from dynheat import logconvexity as lc


def main():
    domain = dh.DomainSpec.interval(0.0, 1.0, 0.5, 0.3, 0.7)
    ops = dh.assemble_operator(dh.build_grid(domain, n=48))
    sched = dh.Schedule(0.0, 1.0, 0.01)

    # the fit reads each member's final state U(T)
    prop = dh.Propagator(ops, sched.dt)
    train = lc.diverse_ensemble(ops, count=20, seed=11, sched=sched)
    train_T = prop.flow(train, sched.steps)
    fit = lc.fit_observability_constants(ops, sched, train, train_T)
    print(f"training ensemble: {fit.n_members} members, horizon T = {fit.T}")
    print(f"beta = {fit.beta:.4f}, log G = {fit.log_G:.4f} "
          f"(mu = {fit.mu:.4f}, K = {fit.K:.4f})")
    print(f"penalization constants: M1 = {fit.M1:.4f}, M2 = {fit.M2:.4f}, "
          f"delta = {fit.delta:.4f}")

    train_bad = lc.count_observability_violations(fit, ops, train, train_T)
    holdout = lc.diverse_ensemble(ops, count=10, seed=21, sched=sched)
    hold_bad = lc.count_observability_violations(
        fit, ops, holdout, prop.flow(holdout, sched.steps))
    print(f"violations: {train_bad}/{train.shape[1]} on training, "
          f"{hold_bad}/{holdout.shape[1]} on holdout (seed 21)")

    for horizon, eps in [(0.5, 0.2), (0.5, 0.1), (0.25, 0.1)]:
        print(f"kappa0(horizon={horizon}, eps={eps}) = "
              f"{fit.kappa0(horizon, eps):.4f}")


if __name__ == "__main__":
    main()
