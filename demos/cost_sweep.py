"""Cost of approximate steering as the target tolerance eps shrinks.

Runs the calibrate-and-synthesize loop over a descending eps ladder with a
fixed batch of initial states, prints the certified sup ||h|| per level,
and compares the measured log-log growth rate against the fitted duality
exponent delta (the a priori rate is eps^-delta).
"""

import numpy as np

import dynheat as dh
from dynheat import control as co
from dynheat import logconvexity as lc


def main():
    domain = dh.DomainSpec.interval(0.0, 1.0, 0.5, 0.3, 0.7)
    ops = dh.assemble_operator(dh.build_grid(domain, n=48))
    sched = dh.Schedule(0.0, 1.0, 0.01)
    prob = co.ControlProblem(tau=0.5, eps=0.2, kappa=None)

    train = lc.diverse_ensemble(ops, count=20, seed=11, sched=sched)
    train_T = dh.Propagator(ops, sched.dt).flow(train, sched.steps)
    fit = lc.fit_observability_constants(ops, sched, train, train_T)

    # five unit initial states, one per column
    psi0s = np.random.default_rng(42).standard_normal((5, ops.n_dofs)).T
    psi0s = psi0s / ops.norm(psi0s)

    eps_list = [0.2, 0.1, 0.05, 0.025, 0.0125]
    study = co.cost_study(ops, prob, sched, eps_list, psi0s, constants=fit)

    print("eps       kappa        sup ||h||   certified")
    for r in study.rows:
        print(f"{r.eps:<8g}  {r.kappa:<11.4f}  {r.sup_cost:<10.4f}  {r.passes}")
    print(f"\nall certified: {study.all_certified}, "
          f"cost nondecreasing: {study.nondecreasing}")
    print(f"measured slope of log sup||h|| vs log(1/eps): {study.slope:.4f}")
    print(f"fitted duality exponent delta: {study.delta_fitted:.4f} "
          f"(a priori cost rate eps^-delta)")


if __name__ == "__main__":
    main()
