from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import minimize

import dynheat as dh
from dynheat import logconvexity as lc

from conftest import unit_random_state


@pytest.fixture(scope="module")
def prob():
    return dh.ControlProblem(tau=0.5, eps=0.1, kappa=20.0)


@pytest.fixture(scope="module")
def ctrl_sched():
    return dh.Schedule(0.0, 1.0, 0.01)


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
                dh.ControlOperator(iv_small_ops, ctrl_sched, bad)

    def test_step_split_and_tau_snapping(self, iv_small_ops, ctrl_sched):
        co = dh.ControlOperator(iv_small_ops, ctrl_sched, 0.503)
        assert co.n_tau + co.n_obs == co.n_total == 100
        assert co.tau_effective == pytest.approx(0.5)

    def test_gramian_needs_kappa(self, iv_small_ops, ctrl_sched):
        co = dh.ControlOperator(iv_small_ops, ctrl_sched, 0.5)
        with pytest.raises(dh.UsageError):
            co.gramian_apply(np.ones(iv_small_ops.n_dofs), None, 0.1)

    def test_gramian_is_self_adjoint_and_coercive(self, iv_small_ops, prob, ctrl_sched):
        ops = iv_small_ops
        co = dh.ControlOperator(ops, ctrl_sched, prob.tau)
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
        co = dh.ControlOperator(ops, ctrl_sched, prob.tau)
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
        gap = iv_ops.norm(res.psi_T + prob.eps ** 2 * res.theta0)
        assert gap <= 1e-10 * res.norm_Psi0

    def test_duality_identity(self, iv_ops, prob, ctrl_sched):
        psi0 = unit_random_state(iv_ops, 74)
        res = dh.synthesize(iv_ops, prob, ctrl_sched, psi0)
        zetas = [unit_random_state(iv_ops, 75 + k) for k in range(5)]
        resid = dh.verify_duality(iv_ops, prob, ctrl_sched, psi0, res, zetas)
        assert np.all(resid <= 1e-12)

    def test_minimizes_penalized_dual_functional(self, iv_small_ops, ctrl_sched):
        """Independent oracle: BFGS on J(z) = 1/2 <Gz, z> + <Psi_free(T), z>
        must land on the CG minimizer."""
        ops = iv_small_ops
        prob = dh.ControlProblem(tau=0.5, eps=0.2, kappa=5.0)
        co = dh.ControlOperator(ops, ctrl_sched, prob.tau)
        psi0 = unit_random_state(ops, 76)
        res = dh.synthesize(ops, prob, ctrl_sched, psi0)
        free_T = co.prop.flow(psi0.values, co.n_total)

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
        assert res.theta0 == pytest.approx(out.x, rel=1e-4, abs=1e-6)
        # no independently found point beats the synthesized minimizer
        assert J(res.theta0) <= J(out.x) + 1e-12 * max(1.0, abs(J(out.x)))

    def test_zero_data_needs_no_control(self, iv_ops, prob, ctrl_sched):
        res = dh.synthesize(iv_ops, prob, ctrl_sched, dh.State.zeros(iv_ops.grid))
        assert res.certified
        assert res.norm_h == 0.0 and res.norm_Psi0 == 0.0
        assert np.all(res.h == 0.0) and np.all(res.psi_T == 0.0)
        assert res.residuals["cg_iterations"] == 0


class TestCalibration:
    def test_input_validation(self, iv_small_ops, ctrl_sched):
        prob = dh.ControlProblem(tau=0.5, eps=0.1)
        st = unit_random_state(iv_small_ops, 77)
        with pytest.raises(dh.ConfigurationError):
            dh.calibrate_kappa(iv_small_ops, prob, ctrl_sched, [st], budget=-1)
        with pytest.raises(dh.ConfigurationError):
            dh.calibrate_kappa(iv_small_ops, prob, ctrl_sched, [])
        with pytest.raises(dh.ConfigurationError):
            dh.calibrate_kappa(iv_small_ops, prob, ctrl_sched, [st], kappa0=-2.0)

    def test_adequate_seed_needs_no_doubling(self, iv_ops, ctrl_sched):
        prob = dh.ControlProblem(tau=0.5, eps=0.1)
        states = [unit_random_state(iv_ops, 78 + k) for k in range(2)]
        cal = dh.calibrate_kappa(iv_ops, prob, ctrl_sched, states, kappa0=20.0)
        assert cal.doublings == 0
        assert cal.kappa == cal.kappa0 == 20.0
        assert all(r.certified for r in cal.results)
        assert len(cal.results) == 2

    def test_small_seed_doubles_up(self, iv_ops, ctrl_sched):
        prob = dh.ControlProblem(tau=0.5, eps=0.1)
        st = unit_random_state(iv_ops, 80)
        cal = dh.calibrate_kappa(iv_ops, prob, ctrl_sched, [st], kappa0=0.5)
        assert cal.doublings > 0
        assert cal.kappa == 0.5 * 2 ** cal.doublings
        assert all(r.certified for r in cal.results)

    def test_budget_exhaustion_raises(self, iv_ops, ctrl_sched):
        prob = dh.ControlProblem(tau=0.5, eps=0.05)
        st = unit_random_state(iv_ops, 81)
        with pytest.raises(dh.CalibrationError):
            dh.calibrate_kappa(iv_ops, prob, ctrl_sched, [st], kappa0=1e-6, budget=0)

    def test_seed_priority_explicit_over_fitted(self, iv_ops, ctrl_sched):
        fit = lc.ObservabilityFit(beta=0.5, log_G=2.0, mu=np.e, K=1.0,
                                  K1=2.0, K2=1.0, M1=2.0, M2=2.0, delta=1.0,
                                  T=1.0, n_members=2)
        prob = dh.ControlProblem(tau=0.5, eps=0.1)
        st = unit_random_state(iv_ops, 82)
        cal = dh.calibrate_kappa(iv_ops, prob, ctrl_sched, [st],
                                 constants=fit, kappa0=25.0)
        assert cal.kappa0 == 25.0

    def test_fitted_constants_supply_seed(self, iv_ops, ctrl_sched):
        fit = lc.ObservabilityFit(beta=0.5, log_G=2.0, mu=np.e, K=1.0,
                                  K1=2.0, K2=1.0, M1=2.0, M2=2.0, delta=1.0,
                                  T=1.0, n_members=2)
        prob = dh.ControlProblem(tau=0.5, eps=0.1)
        st = unit_random_state(iv_ops, 83)
        cal = dh.calibrate_kappa(iv_ops, prob, ctrl_sched, [st], constants=fit)
        assert cal.kappa0 == pytest.approx(20.0 * np.exp(4.0), rel=1e-12)
        assert cal.doublings == 0


def _mixed_ensemble(ops):
    """Random members, a smooth mode that converges in fewer CG iterations,
    and a zero state."""
    x = ops.grid.points[:, 0]
    smooth = np.cos(np.pi * x)
    return ([unit_random_state(ops, 90 + k) for k in range(3)]
            + [dh.State(ops.grid, smooth / ops.norm(smooth)),
               dh.State.zeros(ops.grid)])


class TestBatchedCalibration:
    @pytest.fixture(scope="class")
    def calibrated(self, iv_ops, ctrl_sched):
        prob = dh.ControlProblem(tau=0.5, eps=0.1)
        states = _mixed_ensemble(iv_ops)
        return prob, states, dh.calibrate_kappa(iv_ops, prob, ctrl_sched, states,
                                                kappa0=1.0)

    def test_ensemble_exercises_the_block_solver(self, calibrated):
        _, _, cal = calibrated
        iters = [r.residuals["cg_iterations"] for r in cal.results]
        assert cal.doublings > 0
        assert len(set(iters)) >= 3 and iters[-1] == 0

    def test_block_equals_one_member_synthesis_bit_for_bit(
            self, iv_ops, ctrl_sched, calibrated):
        prob, states, cal = calibrated
        prob_k = replace(prob, kappa=cal.kappa)
        for st, res in zip(states, cal.results):
            one = dh.synthesize(iv_ops, prob_k, ctrl_sched, st)
            assert res.summary() == one.summary()
            for name in ("h", "theta0", "psi_T"):
                assert np.array_equal(getattr(res, name), getattr(one, name)), name

    def test_theta_matches_dense_cholesky_oracle(self, iv_ops, ctrl_sched, calibrated):
        """Dense CN step matrix, dense G, Cholesky of the mass-symmetric M G."""
        prob, states, cal = calibrated
        ops, dt = iv_ops, ctrl_sched.dt
        M, K = np.diag(ops.mass), ops.K.toarray()
        S = np.linalg.solve(M + 0.5 * dt * K, M - 0.5 * dt * K)
        co = dh.ControlOperator(ops, ctrl_sched, prob.tau)
        P_obs = np.linalg.matrix_power(S, co.n_obs)
        P_T = np.linalg.matrix_power(S, co.n_total)
        on_omega = np.zeros(ops.n_dofs)
        on_omega[ops.grid.omega_idx] = 1.0
        G = (cal.kappa ** 2 * P_obs @ (on_omega[:, None] * P_obs)
             + prob.eps ** 2 * np.eye(ops.n_dofs))
        factor = sla.cho_factor(M @ G)
        for st, res in zip(states, cal.results):
            theta = sla.cho_solve(factor, -M @ (P_T @ st.values))
            assert np.linalg.norm(res.theta0 - theta) <= 1e-9 * np.linalg.norm(theta)


class TestCostStudy:
    def test_empty_eps_list_rejected(self, iv_small_ops, ctrl_sched):
        with pytest.raises(dh.ConfigurationError):
            dh.cost_study(iv_small_ops, dh.ControlProblem(tau=0.5, eps=0.1),
                          ctrl_sched, [], [unit_random_state(iv_small_ops, 84)])

    def test_sweep_costs_are_certified_and_nondecreasing(self, iv_ops, ctrl_sched):
        states = [unit_random_state(iv_ops, 85 + k) for k in range(2)]
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
        fast_st = dh.State(iv_ops.grid, fast / iv_ops.norm(fast))
        alone = dh.cost_study(iv_ops, dh.ControlProblem(tau=0.5, eps=0.1),
                              ctrl_sched, [0.2], [fast_st])
        assert alone.rows[0].sup_cost == 0.0
        assert alone.rows[0].passes

        rand_st = unit_random_state(iv_ops, 87)
        mixed = dh.cost_study(iv_ops, dh.ControlProblem(tau=0.5, eps=0.1),
                              ctrl_sched, [0.2], [rand_st, fast_st])
        rand_only = dh.cost_study(iv_ops, dh.ControlProblem(tau=0.5, eps=0.1),
                                  ctrl_sched, [0.2], [rand_st])
        assert mixed.rows[0].sup_cost == pytest.approx(rand_only.rows[0].sup_cost)

    def test_slope_skips_zero_cost_rows(self, iv_ops, ctrl_sched):
        """Rows whose members all decay below eps unaided have no log cost."""
        x = iv_ops.grid.points[:, 0]
        fast = np.cos(np.sqrt(13.492357146504844) * (x - 0.5))
        fast_st = dh.State(iv_ops.grid, fast / iv_ops.norm(fast))
        co = dh.ControlOperator(iv_ops, ctrl_sched, 0.5)
        ratio = iv_ops.norm(co.prop.flow(fast_st.values, co.n_total))
        prob = dh.ControlProblem(tau=0.5, eps=0.1)

        study = dh.cost_study(iv_ops, prob, ctrl_sched,
                              [2.0 * ratio, 0.5 * ratio, 0.25 * ratio], [fast_st])
        zero, r1, r2 = study.rows
        assert zero.sup_cost == 0.0 and r1.sup_cost > 0.0 and r2.sup_cost > 0.0
        two_point = (np.log(r2.sup_cost / r1.sup_cost)
                     / np.log(r1.eps / r2.eps))
        assert study.slope == pytest.approx(two_point, rel=1e-12)

        one_costly = dh.cost_study(iv_ops, prob, ctrl_sched,
                                   [2.0 * ratio, 0.5 * ratio], [fast_st])
        assert one_costly.rows[0].sup_cost == 0.0
        assert one_costly.slope is None

    def test_fitted_delta_is_reported(self, iv_ops, ctrl_sched):
        fit = lc.ObservabilityFit(beta=0.5, log_G=2.0, mu=np.e, K=1.0,
                                  K1=2.0, K2=1.0, M1=2.0, M2=2.0, delta=1.0,
                                  T=1.0, n_members=2)
        st = unit_random_state(iv_ops, 88)
        study = dh.cost_study(iv_ops, dh.ControlProblem(tau=0.5, eps=0.1),
                              ctrl_sched, [0.2, 0.1], [st], constants=fit)
        assert study.delta_fitted == 1.0
        assert study.all_certified
