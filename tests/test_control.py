import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

import dynheat as dh
from dynheat import control as ctl
from dynheat import evolve
from dynheat import logconvexity as lc
from dynheat.control import ControlOperator
from dynheat.evolve import SCHEMES

from conftest import unit_random_state


@pytest.fixture(scope="module")
def prob():
    return dh.ControlProblem(tau=0.5, eps=0.1, kappa=20.0)


@pytest.fixture(scope="module")
def ctrl_sched():
    return dh.Schedule(0.0, 1.0, 0.01)


def _ladder(ops, sched, prob, states, seed, budget=ctl.DEFAULT_DOUBLING_BUDGET):
    """control._calibrate of the block states from a kappa seed, with the
    doubling budget set through DEFAULT_DOUBLING_BUDGET."""
    co = ControlOperator(ops, sched, prob.tau)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ctl, "DEFAULT_DOUBLING_BUDGET", budget)
        return ctl._calibrate(co, prob, ctl._free_flows(co, states), seed)


class TestControlProblem:
    def test_validation(self):
        with pytest.raises(dh.ConfigurationError):
            dh.ControlProblem(tau=0.5, eps=0.0)
        with pytest.raises(dh.ConfigurationError):
            dh.ControlProblem(tau=0.5, eps=0.1, kappa=-1.0)
        with pytest.raises(dh.ConfigurationError):
            dh.ControlProblem(tau=0.5, eps=0.1, cg_tol=0.0)
        with pytest.raises(dh.ConfigurationError):
            dh.ControlProblem(tau=0.5, eps=0.1, cg_maxit=0)
        assert dh.ControlProblem(tau=0.5, eps=0.1).kappa is None


class TestControlOperator:
    def test_tau_must_be_interior(self, iv_small_ops, ctrl_sched):
        for bad in (0.0, 1.0, 2.0):
            with pytest.raises(dh.ConfigurationError):
                ControlOperator(iv_small_ops, ctrl_sched, bad)

    def test_step_split_and_tau_snapping(self, iv_small_ops, ctrl_sched):
        co = ControlOperator(iv_small_ops, ctrl_sched, 0.503)
        assert co.n_tau + co.n_obs == co.n_total == 100
        assert co.tau_effective == pytest.approx(0.5)

    def test_gramian_needs_kappa(self, iv_small_ops, ctrl_sched):
        co = ControlOperator(iv_small_ops, ctrl_sched, 0.5)
        with pytest.raises(dh.UsageError):
            co.gramian_apply(np.ones(iv_small_ops.n_dofs), None, 0.1)

    def test_gramian_is_self_adjoint_and_coercive(self, iv_small_ops, prob, ctrl_sched):
        ops = iv_small_ops
        co = ControlOperator(ops, ctrl_sched, prob.tau)
        rng = np.random.default_rng(70)
        z = rng.standard_normal(ops.n_dofs)
        w = rng.standard_normal(ops.n_dofs)

        def G(u):
            return co.gramian_apply(u, prob.kappa, prob.eps)

        assert ops.inner(G(z), w) == pytest.approx(ops.inner(z, G(w)), rel=1e-11)
        for _ in range(10):
            z = rng.standard_normal(ops.n_dofs)
            quad_form = ops.inner(G(z), z)
            assert quad_form >= prob.eps ** 2 * ops.inner(z, z) * (1.0 - 1e-12)

    def test_dense_gramian_eigenvalues_sit_above_eps_squared(
            self, iv_small_ops, prob, ctrl_sched):
        ops = iv_small_ops
        co = ControlOperator(ops, ctrl_sched, prob.tau)
        n = ops.n_dofs
        G = co.gramian_apply(np.eye(n), prob.kappa, prob.eps)
        m = ops.mass
        Gsym = np.sqrt(m)[:, None] * G / np.sqrt(m)[None, :]
        ev = np.linalg.eigvalsh(0.5 * (Gsym + Gsym.T))
        assert ev.min() >= prob.eps ** 2 * (1.0 - 1e-10)


class TestSynthesize:
    def test_needs_kappa(self, iv_ops, ctrl_sched):
        with pytest.raises(dh.UsageError):
            dh.synthesize(iv_ops, dh.ControlProblem(tau=0.5, eps=0.1), ctrl_sched,
                          unit_random_state(iv_ops, 71))

    def test_certificates_and_residuals(self, iv_ops, prob, ctrl_sched):
        psi0 = unit_random_state(iv_ops, 72)
        res = dh.synthesize(iv_ops, prob, ctrl_sched, psi0)
        assert res.certified
        assert res.flags == {"target": True, "cost": True,
                             "apriori": True, "observation": True}
        assert res.norm_PsiT <= prob.eps * res.norm_Psi0 * (1.0 + 1e-8)
        assert (res.norm_h ** 2 / prob.kappa ** 2
                + res.norm_PsiT ** 2 / prob.eps ** 2
                <= res.norm_Psi0 ** 2 * (1.0 + 1e-8))
        assert res.residuals["cg_rel"] <= 1e-10
        assert res.residuals["terminal_identity"] <= 1e-10
        assert res.tau_effective == pytest.approx(0.5)
        summary = res.summary()
        assert summary["kappa"] == prob.kappa
        assert summary["flags"]["target"] is True

    def test_terminal_state_is_scaled_dual_minimizer(self, iv_ops, prob, ctrl_sched):
        psi0 = unit_random_state(iv_ops, 73)
        res = dh.synthesize(iv_ops, prob, ctrl_sched, psi0)
        gap = iv_ops.norm(res.psi_T + prob.eps ** 2 * res.theta)
        assert gap <= 1e-10 * res.norm_Psi0

    def test_duality_identity(self, iv_ops, prob, ctrl_sched):
        psi0 = unit_random_state(iv_ops, 74)
        res = dh.synthesize(iv_ops, prob, ctrl_sched, psi0)
        zetas = np.column_stack([unit_random_state(iv_ops, 75 + k) for k in range(5)])
        resid = dh.verify_duality(iv_ops, prob, ctrl_sched, psi0, res, zetas)
        assert np.all(resid <= 1e-12)

    def test_minimizes_penalized_dual_functional(self, iv_small_ops, ctrl_sched):
        """Independent oracle: BFGS on J(z) = 1/2 <Gz, z> + <Psi_free(T), z>
        must land on the CG minimizer."""
        ops = iv_small_ops
        prob = dh.ControlProblem(tau=0.5, eps=0.2, kappa=5.0)
        co = ControlOperator(ops, ctrl_sched, prob.tau)
        psi0 = unit_random_state(ops, 76)
        res = dh.synthesize(ops, prob, ctrl_sched, psi0)
        free_T = co.prop.flow(psi0, co.n_total)

        def G(u):
            return co.gramian_apply(u, prob.kappa, prob.eps)

        def J(z):
            return 0.5 * ops.inner(G(z), z) + ops.inner(free_T, z)

        def grad(z):
            return ops.mass * (G(z) + free_T)

        def hessp(z, p):
            return ops.mass * G(p)

        out = minimize(J, np.zeros(ops.n_dofs), jac=grad, hessp=hessp,
                       method="Newton-CG", options={"xtol": 1e-12, "maxiter": 200})
        assert res.theta == pytest.approx(out.x, rel=1e-4, abs=1e-6)
        # no independently found point beats the synthesized minimizer
        assert J(res.theta) <= J(out.x) + 1e-12 * max(1.0, abs(J(out.x)))

    def test_a_warm_start_worse_than_zero_is_dropped(self, iv_ops, ctrl_sched):
        """At eps = 1e-100 theta0 = (b - Z y) / eps^2 is far past any useful
        size; the CG starts from zero instead and names its stall, with no
        float warning on the way."""
        prob = dh.ControlProblem(tau=0.5, eps=1e-100, kappa=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(dh.NumericalError, match="did not reach tol"):
                dh.synthesize(iv_ops, prob, ctrl_sched, unit_random_state(iv_ops, 5))

    def test_zero_data_needs_no_control(self, iv_ops, prob, ctrl_sched):
        res = dh.synthesize(iv_ops, prob, ctrl_sched, np.zeros(iv_ops.n_dofs))
        assert res.certified
        assert res.norm_h == 0.0 and res.norm_Psi0 == 0.0
        assert np.all(res.h == 0.0) and np.all(res.psi_T == 0.0)
        assert res.residuals["cg_iterations"] == 0


class TestCalibration:
    def test_input_validation(self, iv_small_ops, ctrl_sched):
        prob = dh.ControlProblem(tau=0.5, eps=0.1)
        with pytest.raises(dh.ConfigurationError):
            dh.calibrate_kappa(iv_small_ops, prob, ctrl_sched, np.zeros((iv_small_ops.n_dofs, 0)))

    def test_adequate_seed_needs_no_doubling(self, iv_ops, ctrl_sched):
        prob = dh.ControlProblem(tau=0.5, eps=0.1)
        states = np.column_stack([unit_random_state(iv_ops, 78 + k) for k in range(2)])
        cal = _ladder(iv_ops, ctrl_sched, prob, states, 20.0)
        assert cal.doublings == 0
        assert cal.kappa == 20.0
        assert all(r.certified for r in cal.results)
        assert len(cal.results) == 2

    def test_small_seed_doubles_up(self, iv_ops, ctrl_sched):
        prob = dh.ControlProblem(tau=0.5, eps=0.1)
        st = unit_random_state(iv_ops, 80)
        cal = _ladder(iv_ops, ctrl_sched, prob, st[:, None], 0.5)
        assert cal.doublings > 0
        assert cal.kappa == 0.5 * 2 ** cal.doublings
        assert all(r.certified for r in cal.results)

    def test_budget_exhaustion_raises(self, iv_ops, ctrl_sched):
        prob = dh.ControlProblem(tau=0.5, eps=0.05)
        st = unit_random_state(iv_ops, 81)
        with pytest.raises(dh.CalibrationError):
            _ladder(iv_ops, ctrl_sched, prob, st[:, None], 1e-6, budget=0)

    def test_budget_exhaustion_names_the_reduced_model(self, iv_ops, ctrl_sched):
        """The diagnostics hold n_omega, W's extreme eigenvalues and each
        member's predicted ||Psi(T)|| / ||Psi0|| at the last rung, which a
        propagated synthesis there confirms."""
        prob = dh.ControlProblem(tau=0.5, eps=0.05)
        states = np.column_stack([unit_random_state(iv_ops, 81), np.zeros(iv_ops.n_dofs)])
        with pytest.raises(dh.CalibrationError) as info:
            _ladder(iv_ops, ctrl_sched, prob, states, 1e-6, budget=2)
        diag = info.value.diagnostics
        assert diag["n_omega"] == iv_ops.grid.omega_idx.size
        assert diag["kappa_last"] == 4e-6
        assert 0.0 <= diag["w_eigenvalue_max"] <= 1.0
        assert diag["w_eigenvalue_min"] >= -1e-12 * diag["w_eigenvalue_max"]
        ratio, zero = diag["predicted_ratio_last"]
        res = dh.synthesize(iv_ops, replace(prob, kappa=4e-6), ctrl_sched, states[:, 0])
        assert ratio == pytest.approx(res.norm_PsiT / res.norm_Psi0, rel=1e-9)
        assert ratio > prob.eps and zero == 0.0

    def test_seed_beyond_the_float_range_is_a_numerical_error(self, iv_ops, ctrl_sched):
        """Prediction stops where kappa^2 overflows; the propagated rung
        then names the float range."""
        prob = dh.ControlProblem(tau=0.5, eps=0.1)
        st = unit_random_state(iv_ops, 81)
        with pytest.raises(dh.NumericalError, match="float range"):
            _ladder(iv_ops, ctrl_sched, prob, st[:, None], 1e200)


def _mixed_ensemble(ops):
    """Random members, a smooth mode that converges in fewer CG iterations,
    and a zero state."""
    x = ops.grid.points[:, 0]
    smooth = np.cos(np.pi * x)
    return np.column_stack([unit_random_state(ops, 90 + k) for k in range(3)]
                           + [smooth / ops.norm(smooth), np.zeros(ops.n_dofs)])


class TestBatchedCalibration:
    @pytest.fixture(scope="class")
    def calibrated(self, iv_ops, ctrl_sched):
        prob = dh.ControlProblem(tau=0.5, eps=0.1)
        states = _mixed_ensemble(iv_ops)
        return prob, states, dh.calibrate_kappa(iv_ops, prob, ctrl_sched, states)

    def test_ensemble_exercises_the_block_solver(self, iv_ops, ctrl_sched, calibrated):
        """From a zero start the block's columns stop at different
        iterations; the warm start needs no more, and both solve G."""
        prob, states, cal = calibrated
        assert cal.doublings > 0
        co = ControlOperator(iv_ops, ctrl_sched, prob.tau)
        rhs = -co.prop.flow(states, co.n_total)
        theta, iters = ctl._cg_mass_inner(
            lambda z: co.gramian_apply(z, cal.kappa, prob.eps), rhs, iv_ops.inner,
            prob.cg_tol, prob.cg_maxit, np.zeros(rhs.shape), rhs)
        assert len(set(iters)) >= 3 and iters[-1] == 0
        warm = [r.residuals["cg_iterations"] for r in cal.results]
        assert all(w <= c for w, c in zip(warm, iters))
        for k, res in enumerate(cal.results[:-1]):
            assert np.linalg.norm(res.theta - theta[:, k]) <= 1e-9 * np.linalg.norm(theta[:, k])

    def test_block_equals_one_member_synthesis_bit_for_bit(
            self, iv_ops, ctrl_sched, calibrated):
        prob, states, cal = calibrated
        prob_k = replace(prob, kappa=cal.kappa)
        for st, res in zip(states.T, cal.results):
            one = dh.synthesize(iv_ops, prob_k, ctrl_sched, st)
            assert res.summary() == one.summary()
            for name in ("h", "theta", "psi_T"):
                assert np.array_equal(getattr(res, name), getattr(one, name)), name

    def test_theta_matches_dense_cholesky_oracle(self, iv_ops, ctrl_sched, calibrated):
        """Dense CN step matrix, dense G, Cholesky of the mass-symmetric M G."""
        prob, states, cal = calibrated
        ops, dt = iv_ops, ctrl_sched.dt
        M, K = np.diag(ops.mass), ops.K.toarray()
        S = np.linalg.solve(M + 0.5 * dt * K, M - 0.5 * dt * K)
        co = ControlOperator(ops, ctrl_sched, prob.tau)
        P_obs = np.linalg.matrix_power(S, co.n_obs)
        P_T = np.linalg.matrix_power(S, co.n_total)
        on_omega = np.zeros(ops.n_dofs)
        on_omega[ops.grid.omega_idx] = 1.0
        G = (cal.kappa ** 2 * P_obs @ (on_omega[:, None] * P_obs)
             + prob.eps ** 2 * np.eye(ops.n_dofs))
        factor = sla.cho_factor(M @ G)
        for st, res in zip(states.T, cal.results):
            theta = sla.cho_solve(factor, -M @ (P_T @ st))
            assert np.linalg.norm(res.theta - theta) <= 1e-9 * np.linalg.norm(theta)


# seeds kappa at M1 e^{M2/(T - tau)} / eps^delta = 20 e^4 for T - tau = 0.5
# and eps = 0.1
_FIT = lc.ObservabilityFit(beta=0.5, log_G=2.0, mu=np.e, K=1.0, K1=2.0, K2=1.0,
                           M1=2.0, M2=2.0, delta=1.0, n_members=2)


class TestCostStudy:
    def test_empty_eps_list_rejected(self, iv_small_ops, ctrl_sched):
        with pytest.raises(dh.ConfigurationError):
            dh.cost_study(iv_small_ops, dh.ControlProblem(tau=0.5, eps=0.1),
                          ctrl_sched, [], unit_random_state(iv_small_ops, 84)[:, None])

    def test_sweep_costs_are_certified_and_nondecreasing(self, iv_ops, ctrl_sched):
        states = np.column_stack([unit_random_state(iv_ops, 85 + k) for k in range(2)])
        study = dh.cost_study(iv_ops, dh.ControlProblem(tau=0.5, eps=0.1),
                              ctrl_sched, [0.2, 0.1], states)
        assert study.all_certified
        assert study.nondecreasing
        assert np.isfinite(study.slope)
        assert study.delta_fitted is None
        assert [r.eps for r in study.rows] == [0.2, 0.1]
        assert study.rows[1].kappa >= study.rows[0].kappa

    def test_free_decay_member_contributes_zero_cost(self, iv_ops, ctrl_sched):
        """A member whose free flow already meets eps is excluded."""
        x = iv_ops.grid.points[:, 0]
        fast = np.cos(np.sqrt(13.492357146504844) * (x - 0.5))
        fast_st = fast / iv_ops.norm(fast)
        alone = dh.cost_study(iv_ops, dh.ControlProblem(tau=0.5, eps=0.1),
                              ctrl_sched, [0.2], fast_st[:, None])
        assert alone.rows[0].sup_cost == 0.0
        assert alone.rows[0].passes

        rand_st = unit_random_state(iv_ops, 87)
        mixed = dh.cost_study(iv_ops, dh.ControlProblem(tau=0.5, eps=0.1),
                              ctrl_sched, [0.2], np.column_stack([rand_st, fast_st]))
        rand_only = dh.cost_study(iv_ops, dh.ControlProblem(tau=0.5, eps=0.1),
                                  ctrl_sched, [0.2], rand_st[:, None])
        assert mixed.rows[0].sup_cost == pytest.approx(rand_only.rows[0].sup_cost)

    def test_slope_skips_zero_cost_rows(self, iv_ops, ctrl_sched):
        """Rows whose members all decay below eps unaided have no log cost,
        and a slope needs two distinct eps among the rest."""
        x = iv_ops.grid.points[:, 0]
        fast = np.cos(np.sqrt(13.492357146504844) * (x - 0.5))
        fast_st = fast / iv_ops.norm(fast)
        co = ControlOperator(iv_ops, ctrl_sched, 0.5)
        ratio = iv_ops.norm(co.prop.flow(fast_st, co.n_total))
        prob = dh.ControlProblem(tau=0.5, eps=0.1)

        study = dh.cost_study(iv_ops, prob, ctrl_sched,
                              [2.0 * ratio, 0.5 * ratio, 0.25 * ratio], fast_st[:, None])
        zero, r1, r2 = study.rows
        assert zero.sup_cost == 0.0 and r1.sup_cost > 0.0 and r2.sup_cost > 0.0
        two_point = (np.log(r2.sup_cost / r1.sup_cost)
                     / np.log(r1.eps / r2.eps))
        assert study.slope == pytest.approx(two_point, rel=1e-12)

        one_costly = dh.cost_study(iv_ops, prob, ctrl_sched,
                                   [2.0 * ratio, 0.5 * ratio], fast_st[:, None])
        assert one_costly.rows[0].sup_cost == 0.0
        assert one_costly.slope is None

        one_eps = dh.cost_study(iv_ops, prob, ctrl_sched,
                                [0.5 * ratio, 0.5 * ratio], fast_st[:, None])
        assert all(r.sup_cost > 0.0 for r in one_eps.rows)
        assert one_eps.slope is None

    def test_fitted_delta_is_reported(self, iv_ops, ctrl_sched):
        st = unit_random_state(iv_ops, 88)
        study = dh.cost_study(iv_ops, dh.ControlProblem(tau=0.5, eps=0.1),
                              ctrl_sched, [0.2, 0.1], st[:, None], constants=_FIT)
        assert study.delta_fitted == 1.0
        assert study.all_certified

    def test_fitted_seed_starts_the_first_level(self, iv_ops, ctrl_sched):
        """The first eps level starts from M1 e^{M2/(T - tau)} / eps^delta;
        where that seed certifies, the level's kappa is the seed itself,
        with no doubling."""
        st = unit_random_state(iv_ops, 83)
        study = dh.cost_study(iv_ops, dh.ControlProblem(tau=0.5, eps=0.1),
                              ctrl_sched, [0.1], st[:, None], constants=_FIT)
        assert study.rows[0].kappa == _FIT.kappa0(ctrl_sched.t1 - 0.5, 0.1)
        assert study.rows[0].kappa == pytest.approx(20.0 * np.exp(4.0), rel=1e-12)
        assert study.all_certified


def _cold_operator(ops, sched, tau):
    """A ControlOperator without a reduced Gramian: CG from zero and the
    ladder from its seed, the solver as it is above the memory cap."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ctl, "REDUCED_GRAMIAN_MAX_ENTRIES", 0)
        co = ControlOperator(ops, sched, tau)
        assert co.reduced is None
    return co


def _propagated_ladder(ops, sched, prob, states, seed, budget):
    """(kappa, doublings) of a test-local ladder that propagates every
    rung from a zero start, or None when the budget runs out."""
    cold = _cold_operator(ops, sched, prob.tau)
    flows = ctl._free_flows(cold, states)
    kappa = seed
    for k in range(budget + 1):
        results = ctl._synthesize_block(cold, replace(prob, kappa=kappa), flows)
        if all(r.certified for r in results):
            return kappa, k
        kappa *= 2.0
    return None


def _dense_step(ops, dt, scheme):
    M, K = np.diag(ops.mass), ops.K.toarray()
    if scheme == "crank_nicolson":
        return np.linalg.solve(M + 0.5 * dt * K, M - 0.5 * dt * K)
    return np.linalg.solve(M + dt * K, M)


@st.composite
def reduced_cases(draw):
    lo = draw(st.integers(1, 15))
    hi = draw(st.integers(lo + 3, 19))
    domain = dh.DomainSpec.interval(0.0, 1.0, (lo + hi) / 40, lo / 20, hi / 20)
    ops = dh.assemble_operator(dh.build_grid(domain, n=draw(st.integers(8, 40))))
    dt = draw(st.sampled_from([0.02, 0.05]))
    sched = dh.Schedule(0.0, 0.5, dt, draw(st.sampled_from(SCHEMES)))
    prob = dh.ControlProblem(tau=0.25, eps=draw(st.sampled_from([0.3, 0.1, 0.05])))
    rng = np.random.default_rng(draw(st.integers(0, 9999)))
    states = []
    for _ in range(draw(st.integers(1, 3))):
        v = rng.standard_normal(ops.n_dofs)
        states.append(v / ops.norm(v))
    seed = draw(st.sampled_from([0.25, 2.0, 16.0]))
    return ops, sched, prob, np.column_stack(states), seed


class TestReducedGramian:
    @settings(max_examples=40, deadline=None)
    @given(case=reduced_cases())
    def test_reduced_model_against_dense_flow_and_propagation(self, case):
        ops, sched, prob, states, seed = case
        # one member on a wide omega would start from zero: build anyway
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ctl, "COLD_APPLIES_PER_MEMBER", ops.n_dofs)
            self._check_reduced_model(ops, sched, prob, states, seed)

    @staticmethod
    def _check_reduced_model(ops, sched, prob, states, seed):
        co = ControlOperator(ops, sched, prob.tau)
        red = co.reduced
        idx = ops.grid.omega_idx

        # W = R_omega P^{2n} E_omega from a dense matrix power is symmetric
        # in M_omega and positive semidefinite.  Z = P^n E_omega
        # M_omega^{-1/2} Q has Z^T M Z = diag(eigenvalues), and with Q
        # orthogonal (M^{1/2} Z)(M^{1/2} Z)^T is Y Y^T for the dense
        # Y = M^{1/2} P^n E_omega M_omega^{-1/2}
        S = _dense_step(ops, sched.dt, sched.scheme)
        P_obs = np.linalg.matrix_power(S, co.n_obs)
        W = np.linalg.matrix_power(S, 2 * co.n_obs)[np.ix_(idx, idx)]
        MW = ops.mass[idx][:, None] * W
        scale = np.abs(MW).max()
        assert np.abs(MW - MW.T).max() <= 1e-12 * scale
        top = red.eigenvalues.max()
        ZMZ = red.Z.T @ (ops.mass[:, None] * red.Z)
        assert np.abs(ZMZ - np.diag(red.eigenvalues)).max() <= 1e-10 * top
        sqrt_mass = np.sqrt(ops.mass)
        Y = sqrt_mass[:, None] * P_obs[:, idx] / sqrt_mass[idx]
        YY = Y @ Y.T
        MZ = sqrt_mass[:, None] * red.Z
        assert np.abs(MZ @ MZ.T - YY).max() <= 1e-10 * np.abs(YY).max()
        assert red.eigenvalues.min() >= -1e-12 * top

        # predictions against a propagated synthesis from a zero start, and
        # the ladder against a test-local propagation-only ladder.  A
        # synthesis is an oracle where its true residual is small.  Up to
        # kappa / eps = 1e3 the prediction holds to 1e-9.  Beyond, kappa^2
        # lam passes eps^2 for small eigenvalues lam, whose rounding is
        # absolute (about 1e-16 of the largest), and the prediction divides
        # by them; it must still stay tenfold inside the near-miss
        # window, so that no rung a propagation would certify is skipped
        cold = _cold_operator(ops, sched, prob.tau)
        cold_flows = ctl._free_flows(cold, states)
        flows = ctl._free_flows(co, states)
        budget, kappa, expected = 8, seed, None
        for k in range(budget + 1):
            results = ctl._synthesize_block(cold, replace(prob, kappa=kappa), cold_flows)
            ratio, cost = ctl._predict(co, flows, kappa, prob.eps)
            rel = 1e-9 if kappa <= 1e3 * prob.eps else 0.1 * ctl._NEAR_MISS
            for r, pr, pc in zip(results, ratio, cost):
                if r.residuals["cg_rel"] > 1e-10:
                    continue
                assert pr == pytest.approx(r.norm_PsiT / r.norm_Psi0, rel=rel)
                prop_cost = (r.norm_h ** 2 / kappa ** 2
                             + r.norm_PsiT ** 2 / prob.eps ** 2) / r.norm_Psi0 ** 2
                assert pc == pytest.approx(prop_cost, rel=rel)
            if all(r.certified for r in results):
                expected = (kappa, k)
                break
            kappa *= 2.0
        if expected is None:
            with pytest.raises(dh.CalibrationError):
                _ladder(ops, sched, prob, states, seed, budget)
        else:
            cal = _ladder(ops, sched, prob, states, seed, budget)
            assert (cal.kappa, cal.doublings) == expected

    @settings(max_examples=40, deadline=None)
    @given(case=reduced_cases())
    def test_reduced_coordinates_equal_the_stepped_observation(self, case):
        """Z c = P^n E_omega R_omega P^n a, the right side stepped by
        Propagator.flow: c = Z^T M a because P is self-adjoint in M."""
        ops, sched, prob, states, _ = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ctl, "COLD_APPLIES_PER_MEMBER", ops.n_dofs)
            co = ControlOperator(ops, sched, prob.tau)
            flows = ctl._free_flows(co, states)
        assert flows.red is co.reduced is not None
        prop = dh.Propagator(ops, sched.dt, sched.scheme)
        observed = ops.restrict_omega(prop.flow(flows.free_T, co.n_obs))
        expected = prop.flow(ops.embed_omega(observed), co.n_obs)
        error = ops.norm(flows.red.Z @ flows.c - expected)
        assert np.all(error <= 1e-10 * ops.norm(expected))

    def test_free_flows_step_each_member_over_the_horizon_only(
            self, iv_ops, ctrl_sched, monkeypatch):
        """With the reduced Gramian built, _free_flows steps each member
        n_T times and no more: c is read off Z, not flowed."""
        states = _mixed_ensemble(iv_ops)
        co = ControlOperator(iv_ops, ctrl_sched, 0.5)
        assert co.reduced is not None
        columns = []
        step = evolve.Propagator.step

        def counted(self, u):
            columns.append(1 if u.ndim == 1 else u.shape[1])
            return step(self, u)

        monkeypatch.setattr(evolve.Propagator, "step", counted)
        flows = ctl._free_flows(co, states)
        assert flows.red is co.reduced
        assert sum(columns) == states.shape[1] * co.n_total

    def test_large_kappa_over_eps_keeps_the_propagated_ladder(self):
        """Backward Euler reaches eps = 0.002 at kappa / eps = 3.2e4, where
        the predictions divide by W's rounded small eigenvalues: the
        predicted start still gives the kappa and doublings of propagating
        every rung, and skips rungs on the way."""
        ops = dh.assemble_operator(dh.build_grid(
            dh.DomainSpec.interval(0.0, 1.0, 0.5, 0.3, 0.7), n=24))
        sched = dh.Schedule(0.0, 0.5, 0.05, "backward_euler")
        prob = dh.ControlProblem(tau=0.25, eps=0.002)
        states = np.column_stack([unit_random_state(ops, 95 + k) for k in range(2)])
        expected = _propagated_ladder(ops, sched, prob, states, 1.0, 30)
        assert expected is not None and expected[0] >= 1e4 * prob.eps
        cal = _ladder(ops, sched, prob, states, 1.0, 30)
        assert (cal.kappa, cal.doublings) == expected
        co = ControlOperator(ops, sched, prob.tau)
        flows = ctl._free_flows(co, states)
        assert ctl._predicted_miss(co, flows, cal.kappa / 2.0, prob.eps)

    def test_one_member_on_a_wide_omega_starts_from_zero(self, disk_ops):
        """On a disk whose omega holds more nodes than a calibration from
        zero spends Gramian applies on one member, a one-member synthesis
        runs the CG from zero without building the reduced Gramian, and a
        block of enough members builds it."""
        sched = dh.Schedule(0.0, 0.2, 0.02)
        n_omega = disk_ops.grid.omega_idx.size
        assert n_omega > ctl.COLD_APPLIES_PER_MEMBER
        st = unit_random_state(disk_ops, 96)
        co = ControlOperator(disk_ops, sched, 0.1)
        flows = ctl._free_flows(co, st[:, None])
        assert flows.red is None and "reduced" not in vars(co)
        prob = dh.ControlProblem(tau=0.1, eps=0.1, kappa=4.0)
        one = ctl._synthesize_block(co, prob, flows)[0]
        cold = _cold_operator(disk_ops, sched, 0.1)
        zero_start = ctl._synthesize_block(cold, prob, ctl._free_flows(cold, st[:, None]))[0]
        assert one.summary() == zero_start.summary()
        assert one.residuals["cg_iterations"] > 0

        members = -(-n_omega // ctl.COLD_APPLIES_PER_MEMBER)
        states = np.column_stack([unit_random_state(disk_ops, 96 + k) for k in range(members)])
        assert ctl._free_flows(co, states).red is co.reduced is not None

    def test_above_the_memory_cap_the_solver_starts_from_zero(
            self, iv_ops, ctrl_sched, monkeypatch):
        """Without the reduced Gramian the same CG runs from zero and the
        ladder from its seed: the same kappa and doublings, h to 1e-9."""
        prob = dh.ControlProblem(tau=0.5, eps=0.1)
        states = _mixed_ensemble(iv_ops)
        warm = dh.calibrate_kappa(iv_ops, prob, ctrl_sched, states)
        monkeypatch.setattr(ctl, "REDUCED_GRAMIAN_MAX_ENTRIES", iv_ops.n_dofs - 1)
        cold = dh.calibrate_kappa(iv_ops, prob, ctrl_sched, states)
        assert (cold.kappa, cold.doublings) == (warm.kappa, warm.doublings)
        for w, c in zip(warm.results[:-1], cold.results[:-1]):
            assert w.flags == c.flags
            assert np.linalg.norm(w.h - c.h) <= 1e-9 * np.linalg.norm(c.h)
            assert c.residuals["cg_iterations"] > w.residuals["cg_iterations"]
            assert c.residuals["cg_rel"] <= 1e-10
