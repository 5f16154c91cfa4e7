"""Propagate the free flow and an impulsively kicked trajectory.

The mild impulsive solution flows to the kick time tau, adds a payload
supported on the observation patch, and flows on to T.  Away from the kick
both legs contract the mass norm step by step.
"""

import numpy as np

import dynheat as dh


def main():
    domain = dh.DomainSpec.interval(0.0, 1.0, 0.5, 0.3, 0.7)
    ops = dh.assemble_operator(dh.build_grid(domain, n=96))
    sched = dh.Schedule(0.0, 1.0, 0.01)

    rng = np.random.default_rng(3)
    v = rng.standard_normal(ops.n_dofs)
    state0 = v / ops.norm(v)

    final, rec = dh.propagate(ops, state0, sched)
    print("free flow")
    print(f"  ||u(0)||  = {rec.norms[0]:.6f}")
    print(f"  ||u(1/2)||= {rec.norms[50]:.6f}")
    print(f"  ||u(T)||  = {rec.norms[-1]:.6f}")
    print(f"  stepwise contraction: {bool(np.all(np.diff(rec.norms) <= 0))}")

    payload = np.sin(np.linspace(0.0, np.pi, ops.grid.omega_idx.size))
    kicked, _, info = dh.propagate_impulsive(ops, state0, 0.5, payload, sched)
    print("\nimpulsive flow, tau = 0.5")
    print(f"  effective kick time : {info['tau_effective']}")
    print(f"  ||u|| before kick   : {info['norm_before_kick']:.6f}")
    print(f"  ||u|| after kick    : {info['norm_after_kick']:.6f}")
    print(f"  ||u(T)||            : {ops.norm(kicked):.6f}")


if __name__ == "__main__":
    main()
