"""Record the weighted frequency function along one trajectory.

The weighted state is F = exp(Phi/2) u, and the drift of the frequency
N(t) is bounded by (1 + C0) N / Upsilon + C / h^2 with a fitted constant C.
"""

import numpy as np

import dynheat as dh
from dynheat import logconvexity as lc


def smooth_state(ops, seed, n_burn=20, dt_burn=5e-3):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(ops.n_dofs)
    prop = dh.Propagator(ops, dt_burn, "backward_euler")
    u = prop.flow(u, n_burn)
    return u / ops.norm(u)


def main():
    domain = dh.DomainSpec.interval(0.0, 1.0, 0.5, 0.3, 0.7)
    ops = dh.assemble_operator(dh.build_grid(domain, n=48))
    params = dh.WeightParams(s=0.5, h=0.5, T=1.0)
    state0 = smooth_state(ops, 100)

    # the one-member record: every per-sample field is row 0 of (1, s)
    trace = lc.run_trace(ops, params, state0, dh.Schedule(0.0, 1.0, 0.01))
    print("t      ||F||^2    N(t)      Q(t)")
    for k in range(0, trace.t.size, 20):
        print(f"{trace.t[k]:.2f}   {trace.normF2[0, k]:.5f}   "
              f"{trace.N[0, k]:8.5f}  {trace.Q[0, k]:9.5f}")

    print(f"\nfitted C (rate fit)      : {trace.C[0]:.6g}")
    print(f"fitted C (form variant)  : {trace.C_form[0]:.6g}")
    print(f"bound violations         : "
          f"{lc.count_bound_violations(trace, trace.C[0])}")


if __name__ == "__main__":
    main()
