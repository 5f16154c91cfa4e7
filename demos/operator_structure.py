"""Assemble the coupled bulk/boundary generator and inspect its structure.

The single-unknown-per-node discretization makes M A = -K with K symmetric
positive semidefinite, so A = -M^{-1} K is exactly self-adjoint and
dissipative in the mass inner product and annihilates constants to the
last bit.  The low end
of the spectrum matches the transcendental eigenvalue conditions of the
continuum coupled problem.
"""

import numpy as np
import scipy.linalg as sla
from scipy.optimize import brentq
from scipy.special import jv, jvp

import dynheat as dh


def spectrum(ops, k=6):
    """The k smallest eigenvalues of -A, from M^{-1/2} K M^{-1/2}."""
    root = np.sqrt(ops.mass)
    Ksym = ops.K.toarray() / root[:, None] / root[None, :]
    return np.sort(sla.eigvalsh(0.5 * (Ksym + Ksym.T)))[:k]


def main():
    interval = dh.DomainSpec.interval(0.0, 1.0, 0.5, 0.3, 0.7)
    ops = dh.assemble_operator(dh.build_grid(interval, n=200))

    K = ops.K.toarray()
    A = -K / ops.mass[:, None]
    ones = np.ones(ops.n_dofs)
    print("interval, n=200")
    print(f"  max |K - K^T|       : {np.max(np.abs(K - K.T)):.3e}")
    print(f"  ||A 1|| / ||1||     : {ops.norm(A @ ones) / ops.norm(ones):.3e}")
    rng = np.random.default_rng(0)
    u = rng.standard_normal(ops.n_dofs)
    print(f"  <Au, u> (random u)  : {ops.inner(A @ u, u):.3e}")

    # continuum eigenvalue conditions: tan(k/2) = 1/k and tan(k/2) = -k
    k0 = brentq(lambda k: np.tan(k / 2) - 1.0 / k, 0.5, np.pi - 1e-9)
    k1 = brentq(lambda k: np.tan(k / 2) + k, np.pi + 1e-6, 2 * np.pi - 1e-6)
    ev = spectrum(ops, 3)
    print(f"  discrete spectrum   : {np.round(ev, 6).tolist()}")
    print(f"  continuum targets   : [0, {k0 ** 2:.6f}, {k1 ** 2:.6f}]")

    disk = dh.DomainSpec.disk((0.0, 0.0), 1.0, (0.0, 0.0), (0.0, 0.0), 0.5)
    dops = dh.assemble_operator(dh.build_grid(disk, nr=24, ntheta=48))

    def root(m, lo, hi):
        return brentq(lambda k: k * jvp(m, k) - (k * k - m * m) * jv(m, k), lo, hi)

    lam = [root(1, 0.2, 1.84) ** 2, root(2, 0.5, 3.05) ** 2, root(0, 2.5, 3.83) ** 2]
    dev = spectrum(dops, 6)
    print("\ndisk, nr=24, ntheta=48")
    print(f"  discrete spectrum   : {np.round(dev, 5).tolist()}")
    print(f"  continuum targets   : [0, {lam[0]:.5f} x2, {lam[1]:.5f} x2, {lam[2]:.5f}]")


if __name__ == "__main__":
    main()
