"""Three-point logarithmic interpolation along the weighted flow.

For times t1 < t2 <= t3 the weighted norms satisfy

    (||F(t2)||^2)^(1+M) <= (||F(t1)||^2)^M ||F(t3)||^2 e^D

with the closed-form exponent M from the antiderivative of
(T - t + h)^(-(1+C0)) and the drift allowance D = 2 (1+M) (t3-t1)^2 C / h^2.
C is fitted over a small ensemble first, then the inequality is checked
on one member.
"""

import numpy as np

import dynheat as dh
from dynheat import logconvexity as lc


def main():
    domain = dh.DomainSpec.interval(0.0, 1.0, 0.5, 0.3, 0.7)
    ops = dh.assemble_operator(dh.build_grid(domain, n=48))
    params = dh.WeightParams(s=0.5, h=0.5, T=1.0)
    sched = dh.Schedule(0.0, 1.0, 0.01)

    members = np.column_stack([np.random.default_rng(seed).standard_normal(ops.n_dofs)
                               for seed in range(5)])
    trace = lc.run_traces(ops, params, members / ops.norm(members), sched)
    # the smallest C >= 0 valid for every member
    C = float(trace.C.max())
    print(f"fitted C over {trace.C.size} members = {C:.6g} (C0 = {params.C0})")

    triples = [(0, 25, 50), (0, 50, 100), (20, 60, 100), (10, 30, 90),
               (40, 70, 100)]
    rec = lc.interpolation_check(trace.t, trace.normF2[0], params, C, triples)
    print("t1     t2     t3     M         log lhs     log rhs     passed")
    for (t1, t2, t3), M, lhs, rhs, passed in zip(rec.times, rec.M, rec.lhs_log,
                                                 rec.rhs_log, rec.passed):
        print(f"{t1:.2f}   {t2:.2f}   {t3:.2f}   {M:7.4f}   "
              f"{lhs:9.4f}   {rhs:9.4f}   {passed}")

    steps = lc.step_constants(domain, params, C, ell=2.0)
    print(f"\ntelescoping constants at ell = 2: M_ell = {steps.M_ell:.4f}, "
          f"D_ell = {steps.D_ell:.4g}")
    print(f"sign condition value {steps.sign_lhs:.4f} "
          f"({'holds' if steps.sign_ok else 'fails'} for this geometry)")


if __name__ == "__main__":
    main()
