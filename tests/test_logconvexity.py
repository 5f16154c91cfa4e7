import dataclasses
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import dynheat as dh
from dynheat import geometry, logconvexity as lc

from conftest import final_states, smooth_random_state, unit_random_state


def _nodal_s_phi(ops, params):
    diff = ops.grid.points - ops.grid.domain.x0_array[None, :]
    return params.s * -0.25 * np.sum(diff * diff, axis=1)


def _dense_splitting(ops, params, t):
    """Dense weight E, d = dPhi/dt / 2, the mass-product splitting S, Aanti
    of P1 = diag(d) + B (B = E A E^{-1}, B* = M^{-1} B^T M) and
    S' = diag(d') + [diag(d), Aanti] with d' = s phi / Upsilon^3."""
    m, s_phi, ups = ops.mass, _nodal_s_phi(ops, params), params.T - t + params.h
    E, d = np.exp(0.5 * s_phi / ups), 0.5 * s_phi / ups ** 2
    B = E[:, None] * ops.dense_A() / E[None, :]
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


class TestWeightedOperators:
    """forms(x) against the dense splitting, on the small interval and on
    the disk: (S x, Aanti x) and <-S x, x>."""

    @pytest.fixture
    def grids(self, iv_small_ops, disk_ops):
        return iv_small_ops, disk_ops

    def test_B_is_similarity_transform_of_A(self, grids, params):
        """Dense oracle: B = diag(E) A diag(1/E), B* = M^{-1} B^T M."""
        for ops in grids:
            w = lc.build_weighted_operators(ops, params, 0.3)
            dense = _dense_splitting(ops, params, 0.3)
            x = unit_random_state(ops, 40)
            got_S, got_Aanti = w.forms(x)[1]
            assert got_S == pytest.approx(dense.S @ x, rel=1e-12, abs=1e-12)
            assert got_Aanti == pytest.approx(dense.Aanti @ x, rel=1e-12, abs=1e-12)

    def test_B_star_is_mass_adjoint_of_B(self, grids, params):
        """B = S + Aanti - diag(d) and B* = S - Aanti - diag(d) from forms."""
        for ops in grids:
            w = lc.build_weighted_operators(ops, params, 0.3)
            u, v = np.random.default_rng(41).standard_normal((2, ops.n_dofs))
            S_u, Aanti_u = w.forms(u)[1]
            S_v, Aanti_v = w.forms(v)[1]
            assert ops.inner(S_u + Aanti_u - w.d * u, v) == pytest.approx(
                ops.inner(u, S_v - Aanti_v - w.d * v), rel=1e-12)

    def test_splitting_symmetry_classes(self, grids, params):
        """S is symmetric and Aanti skew in the mass product; the closed
        form of <S' F, F> rests on the skewness."""
        for ops in grids:
            w = lc.build_weighted_operators(ops, params, 0.7)
            u, v = np.random.default_rng(42).standard_normal((2, ops.n_dofs))
            S_u, Aanti_u = w.forms(u)[1]
            S_v, Aanti_v = w.forms(v)[1]
            assert ops.inner(S_u, v) == pytest.approx(ops.inner(u, S_v), rel=1e-12, abs=1e-13)
            assert ops.inner(Aanti_u, v) == pytest.approx(-ops.inner(u, Aanti_v),
                                                          rel=1e-12, abs=1e-13)
            assert abs(ops.inner(Aanti_u, u)) <= 1e-12 * ops.inner(u, u)

    def test_splitting_recomposes_P1(self, grids, params):
        for ops in grids:
            w = lc.build_weighted_operators(ops, params, 0.7)
            dense = _dense_splitting(ops, params, 0.7)
            P1 = np.diag(dense.d) + dense.E[:, None] * ops.dense_A() / dense.E[None, :]
            x = unit_random_state(ops, 43)
            S, Aanti = w.forms(x)[1]
            assert S + Aanti == pytest.approx(P1 @ x, rel=1e-12, abs=1e-12)

    def test_neg_S_form_matches_operator_action(self, grids, params):
        for ops in grids:
            w = lc.build_weighted_operators(ops, params, 0.2)
            S = _dense_splitting(ops, params, 0.2).S
            x = unit_random_state(ops, 44)
            neg_S, (S_x, _) = w.forms(x)
            assert neg_S == pytest.approx(-ops.inner(S_x, x), rel=1e-11)
            assert neg_S == pytest.approx(-ops.inner(S @ x, x), rel=1e-11)

    def test_time_window_enforced(self, iv_small_ops, params):
        for bad_t in (-0.1, params.T + 0.1):
            with pytest.raises(dh.UsageError):
                lc.build_weighted_operators(iv_small_ops, params, bad_t)

    def test_exponent_overflow_guard(self):
        dom = dh.DomainSpec.interval(0.0, 100.0, 50.0, 40.0, 60.0)
        ops = dh.assemble_operator(dh.build_grid(dom, n=8))
        tight = dh.WeightParams(s=0.5, h=1e-4, T=1.0)
        with pytest.raises(dh.ParameterError):
            lc.build_weighted_operators(ops, tight, tight.T)


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
                                           [64, 128, 256])
        assert np.all(np.diff(rep.rel_residual) < 0.0)
        assert np.all(rep.orders > 1.85)

    def test_disk_refinement_is_monotone(self, params):
        dom = dh.DomainSpec.disk((0.0, 0.0), 1.0, (0.0, 0.0), (0.0, 0.0), 0.5)
        bump = lc.InteriorBump((0.0, 0.0), 0.55)
        rep = lc.commutator_identity_check(dom, params, 0.5, bump,
                                           [(4, 12), (8, 24), (16, 48)])
        assert np.all(np.diff(rep.rel_residual) < 0.0)

    def test_off_center_disk_anchor_rejected(self, params):
        dom = dh.DomainSpec.disk((0.0, 0.0), 1.0, (0.2, 0.0), (0.0, 0.0), 0.5)
        bump = lc.InteriorBump((0.0, 0.0), 0.5)
        with pytest.raises(dh.ConfigurationError):
            lc.commutator_identity_check(dom, params, 0.5, bump, [(4, 12)])

    def test_zero_family_gives_zero_residual(self, iv_domain, params):
        outside = lc.InteriorBump([5.0], 0.2)
        rep = lc.commutator_identity_check(iv_domain, params, 0.5, outside, [32, 64])
        assert np.all(rep.residual == 0.0)

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
            lc.energy_residuals(iv_small_ops, params, st[:, None], dh.Schedule(0.0, 0.5, 0.01))

    def test_zero_state_is_degenerate(self, iv_small_ops, params, sched):
        with pytest.raises(dh.DegenerateDataError):
            lc.run_trace(iv_small_ops, params, np.zeros(iv_small_ops.n_dofs), sched)
        with pytest.raises(dh.DegenerateDataError):
            lc.energy_residuals(iv_small_ops, params, np.zeros((iv_small_ops.n_dofs, 1)), sched)

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
        coarse = lc.energy_residuals(iv_ops, params, st[:, None], dh.Schedule(0.0, 1.0, 0.02))
        fine = lc.energy_residuals(iv_ops, params, st[:, None], dh.Schedule(0.0, 1.0, 0.01))
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


# The one-member trace loop as it stood before the ensemble was traced as one
# block, frozen here as the bit-for-bit reference: per-sample weights from the
# bundle, 1-D sparse products through the incidence factorization, and every
# reduction _dot, the one-state kernel, on one member's vectors.  Q takes the
# closed form <S' F, F> = <d' F, F> + 2 <d F, Aanti F> with d' = s phi /
# Upsilon^3.

def _dot(a, b):
    """numpy's pairwise sum of the 1-D product, as column_dots of one state."""
    return float(np.sum(a * b))


def _frozen_weights(ops, params, t):
    grid = ops.grid
    phi = geometry.weight_phi_bundle(grid.domain, grid.points).phi
    ups = params.T - t + params.h
    return np.exp(0.5 * (params.s * phi / ups)), 0.5 * (params.s * phi / ups ** 2)


def _frozen_A(ops, u):
    D, g = ops.incidence, ops.edge_weights
    return -(D.T @ (g * (D @ u))) / ops.mass


def _frozen_neg_S(ops, E, d, x):
    D, g = ops.incidence, ops.edge_weights
    diag = _dot(ops.mass * d, x * x)
    return _dot(g * (D @ (x / E)), D @ (E * x)) - diag


def _frozen_d_prime(ops, params, t):
    phi = geometry.weight_phi_bundle(ops.grid.domain, ops.grid.points).phi
    return params.s * phi / (params.T - t + params.h) ** 3


def _frozen_split(ops, E, d, x):
    B, Bs = E * _frozen_A(ops, x / E), _frozen_A(ops, E * x) / E
    return d * x + 0.5 * (B + Bs), 0.5 * (B - Bs)


def _frozen_s_prime(ops, params, t, F):
    E, d = _frozen_weights(ops, params, t)
    Aanti = _frozen_split(ops, E, d, F)[1]
    return (_dot(ops.mass * _frozen_d_prime(ops, params, t), F * F)
            + 2.0 * _dot(ops.mass * (d * F), Aanti))


def _frozen_Q(ops, params, t, F):
    E, d = _frozen_weights(ops, params, t)
    S, Aanti = _frozen_split(ops, E, d, F)
    return (-_dot(ops.mass * _frozen_d_prime(ops, params, t), F * F)
            - 2.0 * _dot(ops.mass * (d * F + S), Aanti))


def _frozen_trace(ops, params, state0, sched):
    prop = dh.Propagator(ops, sched.dt, sched.scheme)
    times = sched.times()
    states = np.array(list(prop.trajectory(state0, sched.steps)))
    normF2, N, Q, neg_S = (np.empty(times.size) for _ in range(4))
    for k, t in enumerate(times):
        E, d = _frozen_weights(ops, params, t)
        F = E * states[k]
        normF2[k] = _dot(ops.mass * F, F)
        neg_S[k] = _frozen_neg_S(ops, E, d, F)
        N[k] = neg_S[k] / normF2[k]
        Q[k] = _frozen_Q(ops, params, t, F)
    t_mid = 0.5 * (times[:-1] + times[1:])
    resid = np.empty(t_mid.size)
    for k, tm in enumerate(t_mid):
        E, d = _frozen_weights(ops, params, tm)
        Fm = E * (0.5 * (states[k] + states[k + 1]))
        resid[k] = 0.5 * (normF2[k + 1] - normF2[k]) / sched.dt + _frozen_neg_S(ops, E, d, Fm)
    C0, h2 = params.C0, params.h ** 2
    ups = params.T - times + params.h
    C_form = float(max(0.0, np.max(h2 * (Q - (1.0 + C0) / ups * neg_S) / normF2)))
    dN = (N[2:] - N[:-2]) / (times[2:] - times[:-2])
    C = float(max(0.0, np.max(h2 * (dN - (1.0 + C0) / ups[1:-1] * N[1:-1]))))
    bound = (1.0 + C0) / ups * neg_S + (C / h2) * normF2
    return types.SimpleNamespace(normF2=normF2, N=N, Q=Q, neg_S=neg_S, bound=bound,
                                 energy_residuals=resid, C=C, C_form=C_form)


def assert_same_trace(tr, ref):
    for name in ("normF2", "N", "Q", "neg_S", "bound"):
        assert np.array_equal(getattr(tr, name), getattr(ref, name)), name
    assert (tr.C, tr.C_form) == (ref.C, ref.C_form)


def _mixed_members(ops, sched):
    """A smooth member, two rough ones and two of the observe ensemble."""
    return np.column_stack([smooth_random_state(ops, 100), unit_random_state(ops, 61),
                            unit_random_state(ops, 62),
                            lc.diverse_ensemble(ops, 5, seed=9, sched=sched)[:, 2:4]])


class TestBlockTrace:
    @pytest.mark.parametrize("which, T, dt, seed", [
        ("iv_ops", 1.0, 0.01, None), ("disk_ops", 1.0, 0.05, None),
        # members that a multi-column sparse LU solve rounded differently
        # from one-state solves (test_evolve's block-step test)
        ("wide_disk_ops", 0.2, 0.01, 51)])
    def test_block_equals_frozen_one_member_loop(self, request, which, T, dt, seed):
        ops = request.getfixturevalue(which)
        params = dh.WeightParams(s=0.5, h=0.5, T=T)
        sched = dh.Schedule(0.0, T, dt)
        members = (_mixed_members(ops, sched) if seed is None
                   else dh.diverse_ensemble(ops, 5, seed, sched))
        traces = lc.run_traces(ops, params, members, sched)
        resid = lc.energy_residuals(ops, params, members, sched)
        assert len(traces) == members.shape[1] == len(resid)
        for tr, row, st0 in zip(traces, resid, members.T):
            ref = _frozen_trace(ops, params, st0, sched)
            assert_same_trace(tr, ref)
            assert np.array_equal(row, ref.energy_residuals)
        assert_same_trace(lc.run_trace(ops, params, members[:, 0], sched), traces[0])

    @pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
    def test_one_state_forms_equal_frozen_forms(self, iv_ops, params, t):
        F = unit_random_state(iv_ops, 63)
        assert lc.s_prime_form(iv_ops, params, t, F) == _frozen_s_prime(iv_ops, params, t, F)
        assert lc.commutator_form(iv_ops, params, t, F) == _frozen_Q(iv_ops, params, t, F)
        w = lc.build_weighted_operators(iv_ops, params, t)
        assert w.forms(F)[0] == _frozen_neg_S(iv_ops, *_frozen_weights(iv_ops, params, t), F)

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
        K = -m[:, None] * ops.dense_A()
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

    def test_zero_member_is_degenerate(self, iv_small_ops, params, sched):
        members = np.column_stack([unit_random_state(iv_small_ops, 64),
                                   np.zeros(iv_small_ops.n_dofs)])
        with pytest.raises(dh.DegenerateDataError):
            lc.run_traces(iv_small_ops, params, members, sched)


class TestSharedFormKernel:
    """forms(F) gives <-S F, F> and (S F, Aanti F) from one set of edge
    differences, per column exactly the one-member forms frozen above."""

    @pytest.mark.parametrize("which", ["iv_ops", "disk_ops", "wide_disk_ops"])
    @pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
    def test_block_forms_equal_frozen_forms(self, request, params, which, t):
        ops = request.getfixturevalue(which)
        w = lc.build_weighted_operators(ops, params, t)
        E, d = _frozen_weights(ops, params, t)
        F = np.asfortranarray(np.random.default_rng(66).standard_normal((ops.n_dofs, 4)))
        neg_S = np.array([_frozen_neg_S(ops, E, d, f) for f in F.T])
        S, Aanti = (np.column_stack(p) for p in zip(*(_frozen_split(ops, E, d, f) for f in F.T)))
        got_neg_S, (got_S, got_Aanti) = w.forms(F)
        for got, want in ((got_neg_S, neg_S), (got_S, S), (got_Aanti, Aanti)):
            assert np.array_equal(got, want)
        for j, f in enumerate(F.T):
            assert w.forms(f)[0] == neg_S[j]
            assert np.array_equal(w.forms(f)[1][1], Aanti[:, j])


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
        got = lc.interpolation_exponent(params, t1, t2, t3)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_exponent_needs_ordered_times(self, params):
        with pytest.raises(dh.UsageError):
            lc.interpolation_exponent(params, 0.5, 0.5, 0.9)

    def test_degenerate_middle_time_passes_trivially(self, params):
        recs = lc.interpolation_check([0.0, 0.5, 1.0], [1.0, 0.5, 0.25],
                                      params, 0.0, [(0, 2, 2)])
        assert recs[0].M == pytest.approx(0.0)
        assert recs[0].passed

    def test_unordered_triple_rejected(self, params):
        with pytest.raises(dh.UsageError):
            lc.interpolation_check([0.0, 0.5, 1.0], [1.0, 1.0, 1.0],
                                   params, 0.0, [(1, 0, 2)])

    def test_nonpositive_norm_rejected(self, params):
        with pytest.raises(dh.DegenerateDataError):
            lc.interpolation_check([0.0, 0.5, 1.0], [1.0, 0.0, 1.0],
                                   params, 0.0, [(0, 1, 2)])

    def test_engineered_violation_detected(self, params):
        recs = lc.interpolation_check([0.0, 0.5, 1.0], [1.0, np.exp(10.0), 1.0],
                                      params, 0.0, [(0, 1, 2)])
        assert not recs[0].passed

    def test_trace_satisfies_inequality_with_fitted_constant(
            self, iv_small_ops, params, sched):
        st = unit_random_state(iv_small_ops, 56)
        tr = lc.run_trace(iv_small_ops, params, st, sched)
        triples = [(0, 30, 60), (10, 50, 90), (0, 50, 100), (20, 40, 80)]
        recs = lc.interpolation_check(tr.t, tr.normF2, params, tr.C, triples)
        assert all(r.passed for r in recs)


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
        expect = lc.interpolation_exponent(p, *times)
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
        assert np.log(fit.mu) + fit.K / fit.T == pytest.approx(fit.log_G, rel=1e-12)
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
                                  T=1.0, n_members=2)
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
