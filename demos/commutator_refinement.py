"""Refinement study of the weighted commutator identity.

The quadratic form Q(F) evaluated through the exact matrix splitting must
converge to the closed-form integral of the continuum calculus as the grid
refines: second order on the interval, monotone on the centered disk.
"""

import numpy as np

import dynheat as dh
from dynheat import logconvexity as lc


def show(report):
    print("  resolution   spacing     relative residual   order")
    labels = ["x".join(map(str, r.values())) for r in report.resolutions]
    orders = ["    -"] + [f"{o:.3f}" for o in report.orders]
    for lab, sp, rel, order in zip(labels, report.spacings,
                                   report.rel_residual, orders):
        print(f"  {lab:<10}   {sp:.5f}     {rel:.6e}        {order}")


def main():
    params = dh.WeightParams(s=0.5, h=0.5, T=1.0)

    interval = dh.DomainSpec.interval(0.0, 1.0, 0.5, 0.3, 0.7)
    bump = lc.InteriorBump([0.45], 0.3)
    rep = lc.commutator_identity_check(interval, params, 0.5, bump,
                                       [{"n": n} for n in (64, 128, 256, 512)])
    print("interval, bump at 0.45 with width 0.3")
    show(rep)

    disk = dh.DomainSpec.disk((0.0, 0.0), 1.0, (0.0, 0.0), (0.0, 0.0), 0.5)
    dbump = lc.InteriorBump((0.0, 0.0), 0.55)
    drep = lc.commutator_identity_check(
        disk, params, 0.5, dbump, [{"nr": nr, "ntheta": 3 * nr} for nr in (4, 8, 16, 32)])
    print("\ncentered disk, radial bump with width 0.55")
    show(drep)
    print(f"\nmonotone decrease: {bool(np.all(np.diff(drep.rel_residual) < 0))}")


if __name__ == "__main__":
    main()
