import dataclasses
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import dynheat as dh
from dynheat import geometry, logconvexity as lc
from dynheat.discretize import OperatorSet

from conftest import (dense_A, energy_residuals, final_states, interpolation_exponent,
                      smooth_random_state, unit_random_state)


def _nodal_s_phi(ops, params):
    diff = ops.grid.points - ops.grid.domain.x0_array[None, :]
    return params.s * -0.25 * np.sum(diff * diff, axis=1)


def _dense_splitting(ops, params, t):
    """Dense weight E, d = dPhi/dt / 2, the mass-product splitting S, Aanti
    of P1 = diag(d) + B (B = E A E^{-1}, B* = M^{-1} B^T M) and
    S' = diag(d') + [diag(d), Aanti] with d' = s phi / Upsilon^3."""
    m, s_phi, ups = ops.mass, _nodal_s_phi(ops, params), params.T - t + params.h
    E, d = np.exp(0.5 * s_phi / ups), 0.5 * s_phi / ups ** 2
    B = E[:, None] * dense_A(ops) / E[None, :]
    B_star = B.T * m[None, :] / m[:, None]
    Aanti = 0.5 * (B - B_star)
    return types.SimpleNamespace(
        E=E, d=d, S=np.diag(d) + 0.5 * (B + B_star), Aanti=Aanti,
        S_prime=np.diag(s_phi / ups ** 3) + d[:, None] * Aanti - Aanti * d[None, :])


def _complex_step_s_prime(ops, params, t, F, step=1e-30):
    """<S'(t) F, F> = -d/dt <-S F, F> by complex-step differentiation: the
    edge form is evaluated at t + i step straight from the incidence, the
    edge weights and the mass, so no float cast cuts the imaginary part."""
    D, g, m = ops.incidence, ops.edge_weights, ops.mass
    s_phi = _nodal_s_phi(ops, params)
    ups = params.T - complex(t, step) + params.h
    E, d = np.exp(0.5 * s_phi / ups), 0.5 * s_phi / ups ** 2
    neg_S = np.sum(g * (D @ (F / E)) * (D @ (E * F))) - np.sum(m * d * F * F)
    return -neg_S.imag / step


def _kernel_forms(ops, params, t, F):
    """The kernel's (||F||^2, <-S F, F>, Q, <S' F, F>) per column of the
    (n, m) block F of weighted states at time t."""
    w = next(lc._weights(ops, params, [t]))
    return lc._forms(ops, w, F / np.sqrt(w[0]))


def _dense_forms(ops, dense, F):
    """(||F||^2, <-S F, F>, Q, <S' F, F>) of one weighted state F from the
    dense splitting's matrices."""
    m = ops.mass
    S_F, S_prime_F = dense.S @ F, dense.S_prime @ F
    return (F @ (m * F), -(S_F @ (m * F)),
            -(S_prime_F @ (m * F)) - 2.0 * (S_F @ (m * (dense.Aanti @ F))),
            S_prime_F @ (m * F))


class TestWeightedOperators:
    """The kernel's quadratic forms against dense matrices, on the small
    interval and on the disk: each test holds one piece of the splitting
    P1 = diag(d) + B = S + Aanti to the forms."""

    @pytest.fixture
    def grids(self, iv_small_ops, disk_ops):
        return iv_small_ops, disk_ops

    def test_B_is_similarity_transform_of_A(self, grids, params):
        """Dense B = diag(E) A diag(1/E) alone: B* is B's mass adjoint, so
        ||F||^2 = <F, F> and <-S F, F> = -<(diag(d) + B) F, F>."""
        for ops in grids:
            dense = _dense_splitting(ops, params, 0.3)
            B = dense.E[:, None] * dense_A(ops) / dense.E[None, :]
            F = unit_random_state(ops, 40)
            normF2, neg_S = _kernel_forms(ops, params, 0.3, F[:, None])[:2]
            assert normF2[0] == pytest.approx(ops.inner(F, F), rel=1e-13)
            assert neg_S[0] == pytest.approx(-ops.inner(dense.d * F + B @ F, F), rel=1e-12)

    def test_B_star_is_mass_adjoint_of_B(self, grids, params):
        """Q against -<S' F, F> - 2 <S F, Aanti F> with S and Aanti built
        from B and B* = M^{-1} B^T M."""
        for ops in grids:
            dense = _dense_splitting(ops, params, 0.3)
            F = np.random.default_rng(41).standard_normal((ops.n_dofs, 2))
            Q = _kernel_forms(ops, params, 0.3, F)[2]
            for j, f in enumerate(F.T):
                assert Q[j] == pytest.approx(_dense_forms(ops, dense, f)[2], rel=1e-11)

    def test_splitting_symmetry_classes(self, grids, params):
        """S is symmetric in the mass product: polarizing <-S F, F> gives
        the dense <-S u, v> and <u, -S v>.  Aanti is skew: the kernel's
        <S' F, F>, which rests on the skewness, equals the dense form of
        S' = diag(d') + [diag(d), Aanti]."""
        for ops in grids:
            dense = _dense_splitting(ops, params, 0.7)
            u, v = np.random.default_rng(42).standard_normal((2, ops.n_dofs))
            neg_S = _kernel_forms(ops, params, 0.7, np.column_stack([u + v, u - v]))[1]
            polar = 0.25 * (neg_S[0] - neg_S[1])
            assert polar == pytest.approx(-ops.inner(dense.S @ u, v), rel=1e-11, abs=1e-13)
            assert polar == pytest.approx(-ops.inner(u, dense.S @ v), rel=1e-11, abs=1e-13)
            s_prime = _kernel_forms(ops, params, 0.7, u[:, None])[3]
            assert s_prime[0] == pytest.approx(_dense_forms(ops, dense, u)[3], rel=1e-11)

    def test_splitting_recomposes_P1(self, grids, params):
        """S + Aanti = P1: Q + <S' F, F> = -2 <S F, (P1 - S) F> with the
        dense P1 = diag(d) + E A E^{-1}."""
        for ops in grids:
            dense = _dense_splitting(ops, params, 0.7)
            P1 = np.diag(dense.d) + dense.E[:, None] * dense_A(ops) / dense.E[None, :]
            F = unit_random_state(ops, 43)
            _, _, Q, s_prime = (f[0] for f in _kernel_forms(ops, params, 0.7, F[:, None]))
            S_F = dense.S @ F
            assert Q + s_prime == pytest.approx(-2.0 * ops.inner(S_F, P1 @ F - S_F), rel=1e-11)

    def test_neg_S_form_matches_operator_action(self, grids, params):
        for ops in grids:
            S = _dense_splitting(ops, params, 0.2).S
            F = unit_random_state(ops, 44)
            assert _kernel_forms(ops, params, 0.2, F[:, None])[1][0] == pytest.approx(
                -ops.inner(S @ F, F), rel=1e-11)

    def test_time_window_enforced(self, iv_small_ops, params):
        F = unit_random_state(iv_small_ops, 45)
        for bad_t in (-0.1, params.T + 0.1):
            for form in (lc.commutator_form, lc.s_prime_form):
                with pytest.raises(dh.UsageError):
                    form(iv_small_ops, params, bad_t, F)

    def test_exponent_overflow_guard(self):
        dom = dh.DomainSpec.interval(0.0, 100.0, 50.0, 40.0, 60.0)
        ops = dh.assemble_operator(dh.build_grid(dom, n=8))
        tight = dh.WeightParams(s=0.5, h=1e-4, T=1.0)
        with pytest.raises(dh.ParameterError):
            lc.commutator_form(ops, tight, tight.T, np.ones(ops.n_dofs))
        with pytest.raises(dh.ParameterError):
            lc.run_trace(ops, tight, np.ones(ops.n_dofs), dh.Schedule(0.0, 1.0, 0.1))


@st.composite
def _anchored_grids(draw):
    """An interval (n 4-64) or a disk (nr 2-8, ntheta 4-24) whose anchor
    sits off the domain centre, with its weight parameters and a time."""
    if draw(st.booleans()):
        x0 = draw(st.floats(0.25, 0.75))
        grid = dh.build_grid(dh.DomainSpec.interval(0.0, 1.0, x0, 0.2, 0.8),
                             n=draw(st.integers(4, 64)))
    else:
        c = np.array(draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))))
        a, b = draw(st.floats(0.0, 2 * np.pi)), draw(st.floats(0.0, 2 * np.pi))
        oc = c + draw(st.floats(0.0, 0.4)) * np.array([np.cos(a), np.sin(a)])
        x0 = oc + draw(st.floats(0.0, 0.45)) * np.array([np.cos(b), np.sin(b)])
        grid = dh.build_grid(dh.DomainSpec.disk(c, 1.0, x0, oc, 0.5),
                             nr=draw(st.integers(2, 8)), ntheta=draw(st.integers(4, 24)))
    params = dh.WeightParams(s=draw(st.floats(0.1, 0.9)), h=draw(st.floats(0.2, 1.0)),
                             T=draw(st.floats(0.5, 2.0)))
    return dh.assemble_operator(grid), params, draw(st.floats(0.0, params.T))


class TestSPrimeOracle:
    """<S'(t) F, F> in closed form: S' = diag(d') + [diag(d), Aanti]."""

    @pytest.mark.parametrize("t", [0.37, 0.9])
    def test_matches_exact_commutator_form(self, iv_ops, params, t):
        ops = iv_ops
        F = unit_random_state(ops, 46)
        S_prime = _dense_splitting(ops, params, t).S_prime
        assert lc.s_prime_form(ops, params, t, F) == pytest.approx(
            ops.inner(S_prime @ F, F), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(case=_anchored_grids(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_complex_step_derivative(self, case, seed):
        ops, params, t = case
        F = np.random.default_rng(seed).standard_normal(ops.n_dofs)
        assert lc.s_prime_form(ops, params, t, F) == pytest.approx(
            _complex_step_s_prime(ops, params, t, F), rel=1e-10)


class TestFormsOracle:
    """The kernel's four forms against independent evaluations."""

    @settings(max_examples=60, deadline=None)
    @given(case=_anchored_grids(), seed=st.integers(0, 2 ** 32 - 1))
    def test_forms_match_dense_splitting_and_complex_step(self, case, seed):
        """||F||^2, <-S F, F>, <S' F, F> and Q of a two-member block against
        the dense splitting, and <S' F, F> against -d/dt <-S F, F> by
        complex step.  Over 400 drawn cases Q was off the dense value by
        at most 3.4e-11 relative and <S' F, F> off the complex step by
        2.7e-13; the tolerances leave a factor of about 30."""
        ops, params, t = case
        F = np.random.default_rng(seed).standard_normal((ops.n_dofs, 2))
        got = _kernel_forms(ops, params, t, F)
        dense = _dense_splitting(ops, params, t)
        for j, f in enumerate(F.T):
            normF2, neg_S, Q, s_prime = _dense_forms(ops, dense, f)
            assert got[0][j] == pytest.approx(normF2, rel=1e-13)
            assert got[1][j] == pytest.approx(neg_S, rel=1e-13)
            assert got[2][j] == pytest.approx(Q, rel=1e-9)
            assert got[3][j] == pytest.approx(s_prime, rel=1e-12)
            assert got[3][j] == pytest.approx(_complex_step_s_prime(ops, params, t, f), rel=1e-10)

    @staticmethod
    def _longdouble_Q(ops, params, t, X):
        """Q per column of F = E X in np.longdouble with dense K and the
        dense splitting applied as matrix products: S' F = d' F
        + d Aanti F - Aanti (d F), no skewness assumed."""
        L = np.longdouble
        m = ops.mass.astype(L)
        A = -ops.K.toarray().astype(L) / m[:, None]
        s_phi, ups = _nodal_s_phi(ops, params).astype(L), L(params.T) - L(t) + L(params.h)
        E, d = np.exp(s_phi / (2 * ups))[:, None], (s_phi / (2 * ups ** 2))[:, None]
        F = E * X.astype(L)

        def split(V):
            B, B_star = E * (A @ (V / E)), (A @ (E * V)) / E
            return d * V + 0.5 * (B + B_star), 0.5 * (B - B_star)

        S_F, Aanti_F = split(F)
        S_prime_F = (s_phi / ups ** 3)[:, None] * F + d * Aanti_F - split(d * F)[1]
        return np.sum(m[:, None] * (-S_prime_F * F - 2 * S_F * Aanti_F), axis=0).astype(float)

    @pytest.mark.parametrize("which, edge_err", [("interval", 4.6e-12), ("disk", 4.0e-11)])
    def test_Q_accuracy_against_longdouble(self, which, edge_err):
        """Q along a trace against _longdouble_Q, as a fraction of each
        member's largest |Q|: the benchmark's 32-node interval and its
        816-node disk with the anchor moved off the centre.  Measured on
        these data: the earlier kernel, which took edge differences
        through the incidence, was off by edge_err (4.6e-12 on the
        interval, 4.0e-11 on the disk); this kernel by 4.3e-13 and
        4.5e-12.  It may be at most twice as far off as the earlier one."""
        if which == "interval":
            dom = dh.DomainSpec.interval(0.0, 1.0, 0.5, 0.3, 0.7)
            ops = dh.assemble_operator(dh.build_grid(dom, n=32))
        else:
            dom = dh.DomainSpec.disk((0.0, 0.0), 1.0, (0.2, -0.1), (0.0, 0.0), 0.3)
            ops = dh.assemble_operator(dh.build_grid(dom, nr=16, ntheta=48))
        params, sched = dh.WeightParams(s=0.5, h=0.5, T=0.5), dh.Schedule(0.0, 0.5, 0.05)
        members = lc.diverse_ensemble(ops, 5, 7, sched)
        Q = np.array([tr.Q for tr in lc.run_traces(ops, params, members, sched)]).T
        prop = dh.Propagator(ops, sched.dt, sched.scheme)
        ref = np.array([self._longdouble_Q(ops, params, t, X) for t, X in
                        zip(sched.times(), prop.trajectory(members, sched.steps))])
        err = np.max(np.max(np.abs(Q - ref), axis=0) / np.max(np.abs(ref), axis=0))
        assert err <= 2.0 * edge_err


class TestInteriorBump:
    def test_rejects_nonpositive_width(self):
        with pytest.raises(dh.ConfigurationError):
            lc.InteriorBump([0.5], 0.0)

    def test_compact_support(self):
        bump = lc.InteriorBump([0.4], 0.25)
        pts = np.array([[0.4], [0.64], [0.65], [0.1], [0.9]])
        vals = bump.value(pts)
        assert vals[0] == pytest.approx(np.exp(-1.0))
        assert vals[1] > 0.0
        assert np.all(vals[2:] == 0.0)
        assert np.all(bump.gradient(pts)[2:] == 0.0)

    def test_gradient_matches_finite_difference(self):
        bump = lc.InteriorBump([0.45, -0.2], 0.6)
        rng = np.random.default_rng(47)
        pts = rng.uniform(-0.05, 0.85, size=(8, 2))
        eps = 1e-6
        got = bump.gradient(pts)
        for axis in range(2):
            shift = np.zeros(2)
            shift[axis] = eps
            fd = (bump.value(pts + shift) - bump.value(pts - shift)) / (2 * eps)
            assert got[:, axis] == pytest.approx(fd, rel=2e-5, abs=1e-9)


class TestCommutatorIdentity:
    def test_rhs_matches_adaptive_quadrature(self, params):
        """Interval oracle: the closed-form right side integrated by quad."""
        dom = dh.DomainSpec.interval(0.0, 1.0, 0.5, 0.3, 0.7)
        bump = lc.InteriorBump([0.45], 0.3)
        t = 0.5
        s, ups = params.s, params.T - t + params.h

        def integrand(x):
            phi = -(x - 0.5) ** 2 / 4.0
            dphi = -(x - 0.5) / 2.0
            f = bump.value(np.array([[x]]))[0]
            fp = bump.gradient(np.array([[x]]))[0, 0]
            return (-(s / ups ** 3) * (phi + 0.5 * s * dphi ** 2) * f * f
                    + (s / ups) * fp * fp
                    - (s ** 2 * (2.0 - s) / (4.0 * ups ** 3)) * dphi ** 2 * f * f)

        expect, quad_err = quad(integrand, 0.15, 0.75, limit=200)
        assert quad_err < 1e-7
        ops = dh.assemble_operator(dh.build_grid(dom, n=501))
        got = lc.commutator_rhs(ops, params, t, bump)
        assert got == pytest.approx(expect, rel=1e-9)

    def test_interval_refinement_is_second_order(self, iv_domain, params):
        bump = lc.InteriorBump([0.45], 0.3)
        rep = lc.commutator_identity_check(iv_domain, params, 0.5, bump,
                                           [{"n": 64}, {"n": 128}, {"n": 256}])
        assert np.all(np.diff(rep.rel_residual) < 0.0)
        assert np.all(rep.orders > 1.85)

    def test_disk_refinement_is_monotone(self, params):
        dom = dh.DomainSpec.disk((0.0, 0.0), 1.0, (0.0, 0.0), (0.0, 0.0), 0.5)
        bump = lc.InteriorBump((0.0, 0.0), 0.55)
        rep = lc.commutator_identity_check(dom, params, 0.5, bump,
                                           [{"nr": 4, "ntheta": 12}, {"nr": 8, "ntheta": 24},
                                            {"nr": 16, "ntheta": 48}])
        assert np.all(np.diff(rep.rel_residual) < 0.0)

    def test_off_center_disk_anchor_rejected(self, params):
        dom = dh.DomainSpec.disk((0.0, 0.0), 1.0, (0.2, 0.0), (0.0, 0.0), 0.5)
        bump = lc.InteriorBump((0.0, 0.0), 0.5)
        with pytest.raises(dh.ConfigurationError):
            lc.commutator_identity_check(dom, params, 0.5, bump, [{"nr": 4, "ntheta": 12}])

    def test_zero_family_gives_zero_residual(self, iv_domain, params):
        outside = lc.InteriorBump([5.0], 0.2)
        rep = lc.commutator_identity_check(iv_domain, params, 0.5, outside,
                                           [{"n": 32}, {"n": 64}])
        assert np.all(rep.lhs == rep.rhs)

    def test_empty_resolutions_rejected(self, iv_domain, params):
        with pytest.raises(dh.ConfigurationError):
            lc.commutator_identity_check(iv_domain, params, 0.5,
                                         lc.InteriorBump([0.5], 0.2), [])


class TestRunTrace:
    def test_schedule_must_span_weight_horizon(self, iv_small_ops, params):
        st = unit_random_state(iv_small_ops, 50)
        with pytest.raises(dh.UsageError):
            lc.run_trace(iv_small_ops, params, st, dh.Schedule(0.0, 0.5, 0.01))
        with pytest.raises(dh.UsageError):
            energy_residuals(iv_small_ops, params, st[:, None], dh.Schedule(0.0, 0.5, 0.01))

    def test_zero_state_is_degenerate(self, iv_small_ops, params, sched):
        with pytest.raises(dh.DegenerateDataError):
            lc.run_trace(iv_small_ops, params, np.zeros(iv_small_ops.n_dofs), sched)
        with pytest.raises(dh.DegenerateDataError):
            energy_residuals(iv_small_ops, params, np.zeros((iv_small_ops.n_dofs, 1)), sched)

    def test_trace_fields_are_consistent(self, iv_small_ops, params, sched):
        st = unit_random_state(iv_small_ops, 51)
        tr = lc.run_trace(iv_small_ops, params, st, sched)
        n = sched.steps + 1
        assert tr.t.shape == tr.normF2.shape == tr.N.shape == tr.Q.shape == (n,)
        assert tr.N == pytest.approx(tr.neg_S / tr.normF2)
        assert tr.bound == pytest.approx(tr.bound_with(tr.C))
        assert tr.rows().shape == (n, 5)
        assert tr.C >= 0.0 and tr.C_form >= 0.0

    def test_energy_identity_residual_is_second_order(self, iv_ops, params):
        """Halving dt must cut the midpoint residual about fourfold."""
        st = smooth_random_state(iv_ops, 100)
        coarse = energy_residuals(iv_ops, params, st[:, None], dh.Schedule(0.0, 1.0, 0.02))
        fine = energy_residuals(iv_ops, params, st[:, None], dh.Schedule(0.0, 1.0, 0.01))
        assert coarse.shape == (1, 50) and fine.shape == (1, 100)
        order = np.log2(np.max(np.abs(coarse)) / np.max(np.abs(fine)))
        assert abs(order - 2.0) < 0.3

    def test_form_constant_certifies_own_trace(self, iv_small_ops, params, sched):
        st = unit_random_state(iv_small_ops, 52)
        tr = lc.run_trace(iv_small_ops, params, st, sched)
        assert lc.count_bound_violations(tr, tr.C_form) == 0
        assert lc.count_bound_violations(tr, tr.C) == 0

    def test_violation_counter_detects_excess(self, iv_small_ops, params, sched):
        st = unit_random_state(iv_small_ops, 53)
        tr = lc.run_trace(iv_small_ops, params, st, sched)
        rhs = tr.bound_with(tr.C_form)
        tr.Q = tr.Q.copy()
        tr.Q[5] = rhs[5] + 10.0 * max(1.0, abs(rhs[5]))
        assert lc.count_bound_violations(tr, tr.C_form) == 1

    def test_fit_bound_constant_is_ensemble_max(self, iv_small_ops, params, sched):
        traces = [lc.run_trace(iv_small_ops, params, unit_random_state(iv_small_ops, s), sched)
                  for s in (54, 55)]
        assert lc.fit_bound_constant(traces) == max(tr.C for tr in traces)
        with pytest.raises(dh.ConfigurationError):
            lc.fit_bound_constant([])


# The one-member trace loop, frozen here as the bit-for-bit reference of the
# block trace: one state flowed alone, the weights of one time at a time,
# _forms' closed forms transcribed for one 1-D state with every reduction
# _dot, the one-state kernel, and the fits taken member by member in
# scalars.  It pins only that a block changes no bit; the accuracy of the
# forms is held to independent oracles in TestFormsOracle and
# TestWeightedOperators.

def _dot(a, b):
    """numpy's pairwise sum of the 1-D product, as column_dots of one state."""
    return float(np.sum(a * b))


def _frozen_weights(ops, params, t):
    """E^2, G = E^2 - (midrange of E^2), d and d' at one time t."""
    grid = ops.grid
    s_phi = params.s * geometry.weight_phi_bundle(grid.domain, grid.points).phi
    ups = np.array([params.T - t + params.h])
    E2 = np.exp(s_phi / ups)
    return (E2, E2 - 0.5 * (E2.max() + E2.min()), 0.5 * (s_phi / ups ** 2),
            s_phi / ups ** 3)


def _frozen_forms(ops, params, t, x):
    """(||F||^2, <-S F, F>, Q, <S' F, F>) of F = E x for one state x (n,)."""
    E2, G, d, d_prime = _frozen_weights(ops, params, t)
    m = ops.mass
    ME2 = m * E2
    KX = ops.K @ x
    Z = G * KX - ops.K @ (G * x)
    X2 = x * x
    twist, dp = _dot(d * x, Z), _dot(d_prime * ME2, X2)
    return (_dot(ME2, X2), _dot(E2 * x, KX) - _dot(d * ME2, X2),
            2.0 * twist - dp - _dot(Z, KX / m - 0.5 / ME2 * Z), dp - twist)


def _frozen_trace(ops, params, state0, sched):
    prop = dh.Propagator(ops, sched.dt, sched.scheme)
    times = sched.times()
    states = np.array(list(prop.trajectory(state0, sched.steps)))
    normF2, N, Q, neg_S = (np.empty(times.size) for _ in range(4))
    for k, t in enumerate(times):
        normF2[k], neg_S[k], Q[k], _ = _frozen_forms(ops, params, t, states[k])
        N[k] = neg_S[k] / normF2[k]
    t_mid = 0.5 * (times[:-1] + times[1:])
    resid = np.empty(t_mid.size)
    for k, tm in enumerate(t_mid):
        x_mid = 0.5 * (states[k] + states[k + 1])
        resid[k] = (0.5 * (normF2[k + 1] - normF2[k]) / sched.dt
                    + _frozen_forms(ops, params, tm, x_mid)[1])
    C0, h2 = params.C0, params.h ** 2
    ups = params.T - times + params.h
    C_form = float(max(0.0, np.max(h2 * (Q - (1.0 + C0) / ups * neg_S) / normF2)))
    dN = (N[2:] - N[:-2]) / (times[2:] - times[:-2])
    C = float(max(0.0, np.max(h2 * (dN - (1.0 + C0) / ups[1:-1] * N[1:-1]))))
    bound = (1.0 + C0) / ups * neg_S + (C / h2) * normF2
    return types.SimpleNamespace(normF2=normF2, N=N, Q=Q, neg_S=neg_S, bound=bound,
                                 final=states[-1], energy_residuals=resid, C=C,
                                 C_form=C_form)


def assert_same_trace(tr, ref):
    for name in ("normF2", "N", "Q", "neg_S", "bound", "final"):
        assert np.array_equal(getattr(tr, name), getattr(ref, name)), name
    assert (tr.C, tr.C_form) == (ref.C, ref.C_form)


def _mixed_members(ops, sched):
    """A smooth member, two rough ones and two of the observe ensemble."""
    return np.column_stack([smooth_random_state(ops, 100), unit_random_state(ops, 61),
                            unit_random_state(ops, 62),
                            lc.diverse_ensemble(ops, 5, seed=9, sched=sched)[:, 2:4]])


def _traced_products(monkeypatch, ops, params, members, sched):
    """Copies of every block that run_traces multiplies by K, in order;
    a product by D or an edge flux fails the trace."""
    products = []

    class CountingK(type(ops.K)):
        def __matmul__(self, other):
            products.append(np.array(other))
            return super().__matmul__(other)

    counting = CountingK(ops.K)

    def refuse_incidence(self):
        raise AssertionError("a trace took edge differences")

    def refuse(self, u):
        raise AssertionError("a trace formed an edge flux")

    with monkeypatch.context() as mp:
        mp.setattr(OperatorSet, "K", property(lambda self: counting))
        mp.setattr(OperatorSet, "incidence", property(refuse_incidence))
        mp.setattr(OperatorSet, "edge_flux", refuse)
        lc.run_traces(ops, params, members, sched)
    return products


def _assert_one_product_per_chunk(monkeypatch, ops, params, sched, m, chunk):
    """A trace of m members takes one product by K per chunk of samples,
    and each sample's block and its weighted copy G X enter exactly one
    product, in order: 2 m (steps + 1) columns in all, whatever the chunk.
    The step solvers, the disk's construction check included, take none,
    and no edge differences are taken through D or edge_flux."""
    n = ops.n_dofs
    members = np.column_stack([unit_random_state(ops, 70 + j) for j in range(m)])
    products = _traced_products(monkeypatch, ops, params, members, sched)
    samples = list(dh.Propagator(ops, sched.dt, sched.scheme).trajectory(
        members, sched.steps))
    weights = list(lc._weights(ops, params, sched.times()))
    assert len(products) == -(-len(samples) // chunk)
    assert sum(P.shape[1] for P in products) == 2 * m * (sched.steps + 1)
    k = 0
    for P in products:
        S = P.shape[1] // (2 * m)
        assert P.shape == (n, 2 * m * S) and S <= chunk
        X, GX = (half.reshape(n, S, m, order="F") for half in np.split(P, 2, axis=1))
        for s in range(S):
            assert np.array_equal(X[:, s], samples[k])
            assert np.array_equal(GX[:, s], weights[k][1] * samples[k])
            k += 1
    assert k == len(samples)


class TestBlockTrace:
    @pytest.mark.parametrize("which, T, dt, seed", [
        ("iv_ops", 1.0, 0.01, None), ("disk_ops", 1.0, 0.05, None),
        # members that a multi-column sparse LU solve rounded differently
        # from one-state solves (test_evolve's block-step test)
        ("wide_disk_ops", 0.2, 0.01, 51)])
    def test_block_equals_frozen_one_member_loop(self, request, which, T, dt, seed):
        """Each column of a block trace and of its energy residuals carries
        the bits of the frozen one-member loop and of its one-member
        run_trace, and its final state those of the one-state flow."""
        ops = request.getfixturevalue(which)
        params = dh.WeightParams(s=0.5, h=0.5, T=T)
        sched = dh.Schedule(0.0, T, dt)
        members = (_mixed_members(ops, sched) if seed is None
                   else dh.diverse_ensemble(ops, 5, seed, sched))
        traces = lc.run_traces(ops, params, members, sched)
        resid = energy_residuals(ops, params, members, sched)
        assert len(traces) == members.shape[1] == len(resid)
        prop = dh.Propagator(ops, sched.dt, sched.scheme)
        for tr, row, st0 in zip(traces, resid, members.T):
            ref = _frozen_trace(ops, params, st0, sched)
            assert_same_trace(tr, ref)
            assert np.array_equal(row, ref.energy_residuals)
            assert_same_trace(tr, lc.run_trace(ops, params, st0, sched))
            assert np.array_equal(tr.final, prop.flow(st0, sched.steps))
            assert np.array_equal(row, energy_residuals(ops, params, st0[:, None], sched)[0])

    @pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
    def test_one_state_forms_equal_frozen_forms(self, iv_ops, params, t):
        """The one-state forms of a weighted state F take x = F / E and give
        the frozen one-state forms bit for bit."""
        F = unit_random_state(iv_ops, 63)
        want = _frozen_forms(iv_ops, params, t, F / np.sqrt(_frozen_weights(iv_ops, params, t)[0]))
        assert lc.s_prime_form(iv_ops, params, t, F) == want[3]
        assert lc.commutator_form(iv_ops, params, t, F) == want[2]

    @pytest.mark.parametrize("which", ["iv", "disk"])
    def test_matches_dense_oracle(self, iv_domain, disk_domain, params, which):
        """Dense B = E A E^{-1} and B* = M^{-1} B^T M, a dense CN step and
        the dense S' = diag(d') + [diag(d), Aanti]; n <= 64.  normF2,
        neg_S and Q agree to 1e-9 relative."""
        grid = (dh.build_grid(iv_domain, n=40) if which == "iv"
                else dh.build_grid(disk_domain, nr=3, ntheta=12))
        ops = dh.assemble_operator(grid)
        assert ops.n_dofs <= 64
        sched = dh.Schedule(0.0, 1.0, 0.05)
        members = _mixed_members(ops, sched)
        traces = lc.run_traces(ops, params, members, sched)

        m = ops.mass
        K = -m[:, None] * dense_A(ops)
        step = np.linalg.solve(np.diag(m) + 0.5 * sched.dt * K,
                               np.diag(m) - 0.5 * sched.dt * K)
        for tr, st0 in zip(traces, members.T):
            u = st0
            for k, t in enumerate(sched.times()):
                dense = _dense_splitting(ops, params, t)
                F = dense.E * u
                S_F = dense.S @ F
                Q = -F @ (m * (dense.S_prime @ F)) - 2.0 * (S_F @ (m * (dense.Aanti @ F)))
                assert tr.normF2[k] == pytest.approx(F @ (m * F), rel=1e-9)
                assert tr.neg_S[k] == pytest.approx(-F @ (m * S_F), rel=1e-9)
                assert tr.Q[k] == pytest.approx(Q, rel=1e-9)
                u = step @ u

    def test_weights_in_chunks_change_no_bit(self, monkeypatch, disk_ops, params, sched):
        """Weights formed three samples at a time give the traces of one
        pass, and the guard still names the first time past it."""
        members = _mixed_members(disk_ops, sched)
        whole = lc.run_traces(disk_ops, params, members, sched)
        monkeypatch.setattr(lc, "WEIGHT_CHUNK", 3 * 7 * disk_ops.n_dofs)
        for tr, ref in zip(lc.run_traces(disk_ops, params, members, sched), whole):
            assert_same_trace(tr, ref)
        dom = dh.DomainSpec.interval(0.0, 100.0, 50.0, 40.0, 60.0)
        ops = dh.assemble_operator(dh.build_grid(dom, n=8))
        monkeypatch.setattr(lc, "WEIGHT_CHUNK", 2 * 7 * ops.n_dofs)
        # |Phi| = 0.5 (dist^2 / 4) / (1.05 - t) passes 700 first at the two
        # end nodes (dist 50) at t = 0.61, with 710; at t = 1 it is 6250
        with pytest.raises(dh.ParameterError, match=r"at 2 nodes \(max 710\)"):
            lc.run_trace(ops, dh.WeightParams(s=0.5, h=0.05, T=1.0), np.ones(8),
                         dh.Schedule(0.0, 1.0, 0.01))

    def test_zero_member_is_degenerate(self, iv_small_ops, params, sched):
        members = np.column_stack([unit_random_state(iv_small_ops, 64),
                                   np.zeros(iv_small_ops.n_dofs)])
        with pytest.raises(dh.DegenerateDataError):
            lc.run_traces(iv_small_ops, params, members, sched)

    @pytest.mark.parametrize("which", ["iv_small_ops", "disk_ops"])
    @pytest.mark.parametrize("m", [1, 4])
    def test_one_product_by_K_per_sample(self, request, monkeypatch, params, sched,
                                         which, m):
        """With TRACE_CHUNK at one sample of the block, a trace over s
        samples takes s products by K, each of one sample's block and its
        weighted copy, whatever the number of members (see
        _assert_one_product_per_chunk)."""
        ops = request.getfixturevalue(which)
        monkeypatch.setattr(lc, "TRACE_CHUNK", ops.n_dofs * m)
        _assert_one_product_per_chunk(monkeypatch, ops, params, sched, m, 1)

    @pytest.mark.parametrize("which", ["iv_small_ops", "disk_ops"])
    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("per", [None, 7])
    def test_one_product_by_K_per_chunk(self, request, monkeypatch, params, sched,
                                        which, m, per):
        """A trace takes one product by K per chunk of
        max(1, TRACE_CHUNK // (n m)) samples, at the default TRACE_CHUNK
        or with it set to give per samples (see
        _assert_one_product_per_chunk)."""
        ops = request.getfixturevalue(which)
        if per is not None:
            monkeypatch.setattr(lc, "TRACE_CHUNK", per * ops.n_dofs * m)
        _assert_one_product_per_chunk(monkeypatch, ops, params, sched, m,
                                      max(1, lc.TRACE_CHUNK // (ops.n_dofs * m)))

    def test_chunk_rule_at_benchmark_sizes(self, monkeypatch, iv_domain, wide_disk_ops):
        """The observe ensembles of the benchmark: 20 members on the
        32-node interval trace 12 samples per product by K, and 15
        members on the 816-dof disk one sample per product, where larger
        chunks were slower."""
        ops = dh.assemble_operator(dh.build_grid(iv_domain, n=32))
        sched = dh.Schedule(0.0, 0.5, 0.01)
        members = lc.diverse_ensemble(ops, 20, 1, sched)
        products = _traced_products(monkeypatch, ops, dh.WeightParams(s=0.5, h=0.5, T=0.5),
                                    members, sched)
        assert [P.shape[1] for P in products] == [2 * 20 * 12] * 4 + [2 * 20 * 3]

        sched = dh.Schedule(0.0, 0.03, 0.01)
        members = lc.diverse_ensemble(wide_disk_ops, 15, 1, sched)
        products = _traced_products(monkeypatch, wide_disk_ops,
                                    dh.WeightParams(s=0.5, h=0.5, T=0.03), members, sched)
        assert [P.shape[1] for P in products] == [2 * 15] * 4


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 40), m=st.integers(1, 6), steps=st.integers(2, 30),
       chunk=st.integers(1, 4096))
def test_chunked_traces_equal_per_sample_traces(iv_domain, n, m, steps, chunk):
    """Traces whose forms are taken over chunks of samples, at any
    TRACE_CHUNK, carry the bits of traces taken one sample at a time."""
    ops = dh.assemble_operator(dh.build_grid(iv_domain, n=n))
    params = dh.WeightParams(s=0.5, h=0.5, T=0.02 * steps)
    sched = dh.Schedule(0.0, params.T, 0.02)
    members = np.column_stack([unit_random_state(ops, 80 + j) for j in range(m)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lc, "TRACE_CHUNK", 1)
        one_by_one = lc.run_traces(ops, params, members, sched)
        mp.setattr(lc, "TRACE_CHUNK", chunk)
        chunked = lc.run_traces(ops, params, members, sched)
    for tr, ref in zip(chunked, one_by_one, strict=True):
        assert_same_trace(tr, ref)


class TestSharedFormKernel:
    """_forms of a block gives each column the bits of that column alone,
    and of the frozen one-state forms."""

    @pytest.mark.parametrize("which", ["iv_ops", "disk_ops", "wide_disk_ops"])
    @pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
    def test_block_forms_equal_frozen_forms(self, request, params, which, t):
        ops = request.getfixturevalue(which)
        w = next(lc._weights(ops, params, [t]))
        X = np.asfortranarray(np.random.default_rng(66).standard_normal((ops.n_dofs, 4)))
        block = lc._forms(ops, w, X)
        for j in range(X.shape[1]):
            frozen = _frozen_forms(ops, params, t, X[:, j])
            for got, want, ref in zip(block, lc._forms(ops, w, X[:, [j]]), frozen):
                assert got[j] == want[0] == ref


_ENSEMBLE_SCHED = dh.Schedule(0.0, 1.0, 0.05)


@pytest.fixture(scope="module")
def one_member_traces(iv_small_ops, params):
    members = _mixed_members(iv_small_ops, _ENSEMBLE_SCHED)
    return members, [lc.run_trace(iv_small_ops, params, st0, _ENSEMBLE_SCHED)
                     for st0 in members.T]


@settings(max_examples=25, deadline=None)
@given(order=st.permutations(range(5)), size=st.integers(1, 5))
def test_any_subset_in_any_order_traces_as_its_members(
        iv_small_ops, params, one_member_traces, order, size):
    members, singles = one_member_traces
    pick = order[:size]
    traces = lc.run_traces(iv_small_ops, params, members[:, pick],
                           _ENSEMBLE_SCHED)
    for tr, i in zip(traces, pick):
        assert_same_trace(tr, singles[i])


class TestInterpolation:
    def test_exponent_matches_adaptive_quadrature(self, params):
        C0 = params.C0
        weight = lambda t: (params.T - t + params.h) ** (-(1.0 + C0))
        t1, t2, t3 = 0.2, 0.55, 0.9
        expect = quad(weight, t2, t3)[0] / quad(weight, t1, t2)[0]
        got = interpolation_exponent(params, t1, t2, t3)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_exponent_needs_ordered_times(self, params):
        with pytest.raises(dh.UsageError):
            interpolation_exponent(params, 0.5, 0.5, 0.9)

    def test_degenerate_middle_time_passes_trivially(self, params):
        rec = lc.interpolation_check([0.0, 0.5, 1.0], [1.0, 0.5, 0.25],
                                     params, 0.0, [(0, 2, 2)])
        assert rec.M[0] == pytest.approx(0.0)
        assert rec.passed[0]

    def test_unordered_triple_rejected(self, params):
        with pytest.raises(dh.UsageError):
            lc.interpolation_check([0.0, 0.5, 1.0], [1.0, 1.0, 1.0],
                                   params, 0.0, [(1, 0, 2)])

    def test_nonpositive_norm_rejected(self, params):
        with pytest.raises(dh.DegenerateDataError):
            lc.interpolation_check([0.0, 0.5, 1.0], [1.0, 0.0, 1.0],
                                   params, 0.0, [(0, 1, 2)])

    def test_engineered_violation_detected(self, params):
        rec = lc.interpolation_check([0.0, 0.5, 1.0], [1.0, np.exp(10.0), 1.0],
                                     params, 0.0, [(0, 1, 2)])
        assert not rec.passed[0]

    def test_trace_satisfies_inequality_with_fitted_constant(
            self, iv_small_ops, params, sched):
        st = unit_random_state(iv_small_ops, 56)
        tr = lc.run_trace(iv_small_ops, params, st, sched)
        triples = [(0, 30, 60), (10, 50, 90), (0, 50, 100), (20, 40, 80)]
        rec = lc.interpolation_check(tr.t, tr.normF2, params, tr.C, triples)
        assert rec.passed.shape == (4,) and rec.passed.all()

    def test_block_check_equals_the_per_triple_loop(self, iv_small_ops, params, sched):
        """Traces as rows, ten triples each, in one call: every field is
        the scalar per-triple computation's, bit for bit."""
        traces = lc.run_traces(iv_small_ops, params, _mixed_members(iv_small_ops, sched), sched)
        rng = np.random.default_rng(57)
        triples = np.sort([[rng.choice(101, size=3, replace=False) for _ in range(10)]
                           for _ in traces], axis=-1)
        C = lc.fit_bound_constant(traces)
        rec = lc.interpolation_check(sched.times(), [tr.normF2 for tr in traces],
                                     params, C, triples)
        assert rec.passed.shape == (len(traces), 10)
        for j, tr in enumerate(traces):
            for k, (i1, i2, i3) in enumerate(triples[j]):
                t1, t2, t3 = tr.t[i1], tr.t[i2], tr.t[i3]
                M = interpolation_exponent(params, t1, t2, t3)
                D = 2.0 * (1.0 + M) * (t3 - t1) ** 2 * C / params.h ** 2
                lhs = (1.0 + M) * np.log(tr.normF2[i2])
                rhs = M * np.log(tr.normF2[i1]) + np.log(tr.normF2[i3]) + D
                passed = lhs <= rhs + lc.SLACK * max(1.0, abs(lhs), abs(rhs))
                assert (tuple(rec.times[j, k]), rec.M[j, k], rec.D[j, k], rec.lhs_log[j, k],
                        rec.rhs_log[j, k], rec.passed[j, k]) == ((t1, t2, t3), M, D, lhs,
                                                                rhs, passed)


class TestStepConstants:
    def test_chain_length_must_exceed_one(self, iv_domain, params):
        with pytest.raises(dh.ParameterError):
            lc.step_constants(iv_domain, params, 1.0, 1.0)

    def test_exponent_matches_interpolation_oracle(self, iv_domain):
        """M_ell equals the three-point exponent at Upsilon spacings
        ((2 ell + 1) h, (ell + 1) h, h), an independent code path."""
        p = dh.WeightParams(s=0.5, h=0.1, T=1.0)
        ell = 2.0
        sc = lc.step_constants(iv_domain, p, 1.0, ell)
        times = [p.T + p.h - (2 * ell + 1) * p.h,
                 p.T + p.h - (ell + 1) * p.h,
                 p.T + p.h - p.h]
        expect = interpolation_exponent(p, *times)
        assert sc.M_ell == pytest.approx(expect, rel=1e-12)
        assert sc.D_ell == pytest.approx(2.0 * 1.0 * ell ** 2 * (1.0 + sc.M_ell))

    def test_sign_condition_fails_for_tight_window(self, iv_domain, params):
        sc = lc.step_constants(iv_domain, params, 1.0, 2.0)
        assert not sc.sign_ok
        assert sc.sign_lhs == pytest.approx(0.1042, abs=2e-3)

    def test_sign_condition_holds_for_wide_patch_and_flat_weight(self):
        dom = dh.DomainSpec.interval(0.0, 1.0, 0.5, 0.05, 0.95)
        p = dh.WeightParams(s=0.99, h=0.5, T=1.0)
        sc = lc.step_constants(dom, p, 1.0, 10.0)
        assert sc.sign_ok
        assert sc.sign_lhs == pytest.approx(-0.0229, abs=1e-3)


def _frozen_diverse_ensemble(ops, count, seed, sched=None, omega_free_fraction=0.2):
    """diverse_ensemble as it stood before an ensemble was one block: a
    list of members, the smoothed modes flowed as blocks of their own and
    every member normalized alone."""
    rng = np.random.default_rng(seed)
    n = ops.n_dofs
    ones = np.ones(n)
    ones_nrm2 = ops.inner(ones, ones)
    off_omega = np.setdiff1d(np.arange(n), ops.grid.omega_idx)
    raw = []
    for k in range(count):
        u = rng.standard_normal(n)
        mode = k % 5
        if mode == 1 or (mode == 3 and sched is not None):
            u -= ops.inner(u, ones) / ones_nrm2 * ones
        elif mode == 4:
            v = np.zeros(n)
            v[off_omega] = rng.standard_normal(off_omega.size)
            u = v + omega_free_fraction * u
        raw.append(u)
    if sched is not None:
        prop = dh.Propagator(ops, sched.dt, sched.scheme)
        for mode, steps in {2: 2, 3: 4}.items():
            idx = range(mode, count, 5)
            if idx:
                block = prop.flow(np.column_stack([raw[i] for i in idx]), steps)
                for i, u in zip(idx, block.T):
                    raw[i] = u
    return [u / ops.norm(u) for u in raw]


class TestObservabilityFit:
    def test_fit_invariants_and_training_consistency(self, iv_ops, sched):
        states = lc.diverse_ensemble(iv_ops, 12, seed=11, sched=sched)
        final = final_states(iv_ops, sched, states)
        fit = lc.fit_observability_constants(iv_ops, sched, states, final)
        assert 0.0 < fit.beta < 1.0
        horizon = sched.t1 - sched.t0
        assert np.log(fit.mu) + fit.K / horizon == pytest.approx(fit.log_G, rel=1e-12)
        assert fit.K1 == pytest.approx(fit.mu ** fit.beta, rel=1e-12)
        assert fit.K2 == pytest.approx(fit.beta * fit.K, rel=1e-12)
        expect = lc.derive_penalization_constants(fit.beta, fit.K1, fit.K2)
        assert (fit.M1, fit.M2, fit.delta) == pytest.approx(expect)
        assert fit.n_members == 12
        assert lc.count_observability_violations(fit, iv_ops, states, final) == 0

    def test_prefactor_shift_is_tight(self, iv_ops, sched):
        """Some training member must meet the fitted estimate with equality."""
        states = lc.diverse_ensemble(iv_ops, 10, seed=13, sched=sched)
        final = final_states(iv_ops, sched, states)
        fit = lc.fit_observability_constants(iv_ops, sched, states, final)
        a, b, c = lc.ensemble_observation_data(iv_ops, states, final)
        y = np.log(a) - np.log(c)
        x = np.log(b) - np.log(c)
        assert np.max((y - fit.beta * x) / fit.beta) == pytest.approx(fit.log_G)

    def test_violation_counter_detects_shrunk_prefactor(self, iv_ops, sched):
        states = lc.diverse_ensemble(iv_ops, 8, seed=15, sched=sched)
        final = final_states(iv_ops, sched, states)
        fit = lc.fit_observability_constants(iv_ops, sched, states, final)
        shrunk = dataclasses.replace(fit, log_G=fit.log_G - 1.0)
        assert lc.count_observability_violations(shrunk, iv_ops, states, final) > 0

    def test_observation_data_matches_dense_oracle(self, disk_domain, iv_domain):
        """50 dense CN steps, each an np.linalg.solve with the dense step
        matrix, give the final and omega norms to 1e-10 relative, on a disk
        (omega holds its first nodes, the inner rings) and on an interval
        (omega in the middle)."""
        sched = dh.Schedule(0.0, 0.5, 0.01)
        assert sched.steps == 50
        for grid in (dh.build_grid(disk_domain, nr=8, ntheta=16),
                     dh.build_grid(iv_domain, n=40)):
            ops = dh.assemble_operator(grid)
            assert ops.n_dofs <= 200
            states = lc.diverse_ensemble(ops, 6, seed=17, sched=sched)
            a, b, c = lc.ensemble_observation_data(ops, states,
                                                   final_states(ops, sched, states))
            m, K = ops.mass, ops.K.toarray()
            lhs = np.diag(m) + 0.5 * sched.dt * K
            rhs = np.diag(m) - 0.5 * sched.dt * K
            om = ops.grid.omega_idx
            m_om = ops.grid.w_bulk[om]
            for j, st0 in enumerate(states.T):
                u = st0
                for _ in range(sched.steps):
                    u = np.linalg.solve(lhs, rhs @ u)
                assert a[j] == pytest.approx(np.sqrt(u @ (m * u)), rel=1e-10)
                assert b[j] == pytest.approx(np.sqrt(u[om] @ (m_om * u[om])), rel=1e-10)
                assert c[j] == pytest.approx(np.sqrt(st0 @ (m * st0)), rel=1e-10)

    def test_traced_final_block_gives_the_same_fit(self, wide_disk_ops):
        """On the members of test_evolve's block-step test, run_traces' final
        block, which observe fits on, carries the bits of Propagator.flow's
        block, which the demos fit on: one fit and one violation count."""
        ops = wide_disk_ops
        sched = dh.Schedule(0.0, 0.2, 0.01)
        params = dh.WeightParams(s=0.5, h=0.5, T=0.2)
        states = dh.diverse_ensemble(ops, 5, 51, sched)
        traced = np.column_stack([tr.final for tr in lc.run_traces(ops, params, states, sched)])
        flowed = final_states(ops, sched, states)
        assert np.array_equal(traced, flowed)
        fit = lc.fit_observability_constants(ops, sched, states, traced)
        assert fit == lc.fit_observability_constants(ops, sched, states, flowed)
        shrunk = dataclasses.replace(fit, log_G=fit.log_G - 0.05)
        assert (lc.count_observability_violations(shrunk, ops, states, traced)
                == lc.count_observability_violations(shrunk, ops, states, flowed) > 0)

    def test_penalization_constants_worked_example(self):
        M1, M2, delta = lc.derive_penalization_constants(0.5, 2.0, 1.0)
        assert M1 == pytest.approx(2.0, rel=1e-14)
        assert M2 == pytest.approx(2.0, rel=1e-14)
        assert delta == pytest.approx(1.0, rel=1e-14)
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(dh.UsageError):
                lc.derive_penalization_constants(bad, 2.0, 1.0)

    def test_kappa_seed_worked_example(self):
        fit = lc.ObservabilityFit(beta=0.5, log_G=2.0, mu=np.e, K=1.0,
                                  K1=2.0, K2=1.0, M1=2.0, M2=2.0, delta=1.0,
                                  n_members=2)
        assert fit.kappa0(0.5, 0.1) == pytest.approx(20.0 * np.exp(4.0), rel=1e-12)
        with pytest.raises(dh.UsageError):
            fit.kappa0(0.0, 0.1)
        with pytest.raises(dh.UsageError):
            fit.kappa0(0.5, 0.0)
        # eps^delta below, then above the float range; e^{M2/horizon} above it
        steep = dataclasses.replace(fit, delta=2.0)
        for f, horizon, eps in ((fit, 0.5, 1e-320), (steep, 0.5, 1e200), (fit, 1e-3, 0.1)):
            with pytest.raises(dh.NumericalError, match=f"beta=0.5, delta={f.delta}, M1=2.0"):
                f.kappa0(horizon, eps)

    def test_identical_ensemble_fails_fit(self, iv_small_ops, sched):
        st = unit_random_state(iv_small_ops, 60)
        with pytest.raises(dh.FitFailureError):
            states = np.column_stack([st, st])
            lc.fit_observability_constants(iv_small_ops, sched, states,
                                           final_states(iv_small_ops, sched, states))

    def test_slope_above_one_fails_fit(self, iv_ops, sched):
        """A slow mode sparse on omega paired with a fast mode concentrated
        on omega drives the fitted exponent past 1."""
        x = iv_ops.grid.points[:, 0]
        slow = np.sin(np.sqrt(1.7070529755509227) * (x - 0.5))
        fast = np.cos(np.sqrt(13.492357146504844) * (x - 0.5))
        states = np.column_stack([v / iv_ops.norm(v) for v in (slow, fast)])
        with pytest.raises(dh.FitFailureError):
            lc.fit_observability_constants(iv_ops, sched, states,
                                           final_states(iv_ops, sched, states))

    def test_needs_two_members(self, iv_small_ops, sched):
        states = unit_random_state(iv_small_ops, 61)[:, None]
        with pytest.raises(dh.ConfigurationError):
            lc.fit_observability_constants(iv_small_ops, sched, states,
                                           final_states(iv_small_ops, sched, states))

    def test_zero_member_is_degenerate(self, iv_small_ops, sched):
        states = np.column_stack([unit_random_state(iv_small_ops, 62),
                                  np.zeros(iv_small_ops.n_dofs)])
        with pytest.raises(dh.DegenerateDataError):
            lc.fit_observability_constants(iv_small_ops, sched, states,
                                           final_states(iv_small_ops, sched, states))

    @pytest.mark.parametrize("which", ["iv_small_ops", "wide_disk_ops"])
    @pytest.mark.parametrize("count", [1, 3, 12])
    def test_diverse_ensemble_equals_the_frozen_member_loop(self, request, which, count):
        """The Fortran-order block carries the bits of the list-building
        loop with its smoothing flows."""
        ops = request.getfixturevalue(which)
        sched = dh.Schedule(0.0, 0.2, 0.01)
        block = lc.diverse_ensemble(ops, count, 23, sched)
        assert block.shape == (ops.n_dofs, count) and block.flags.f_contiguous
        for got, want in zip(block.T, _frozen_diverse_ensemble(ops, count, 23, sched)):
            assert np.array_equal(got, want)

    def test_diverse_ensemble_is_seeded_and_normalized(self, iv_small_ops, sched):
        a = lc.diverse_ensemble(iv_small_ops, 7, seed=3, sched=sched)
        b = lc.diverse_ensemble(iv_small_ops, 7, seed=3, sched=sched)
        other = lc.diverse_ensemble(iv_small_ops, 7, seed=4, sched=sched)
        assert a.shape == (iv_small_ops.n_dofs, 7)
        for st_a, st_b in zip(a.T, b.T):
            assert st_a == pytest.approx(st_b)
            assert iv_small_ops.norm(st_a) == pytest.approx(1.0, rel=1e-13)
        assert not np.allclose(a[:, 0], other[:, 0])
