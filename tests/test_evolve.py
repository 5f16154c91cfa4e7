import numpy as np
import pytest
import scipy.linalg as sla

import dynheat as dh

from conftest import unit_random_state


class TestSchedule:
    def test_rejects_bad_scheme(self):
        with pytest.raises(dh.ConfigurationError):
            dh.Schedule(0.0, 1.0, 0.1, scheme="forward_euler")

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(dh.ConfigurationError):
            dh.Schedule(0.0, 1.0, 0.0)

    def test_rejects_reversed_window(self):
        with pytest.raises(dh.ConfigurationError):
            dh.Schedule(1.0, 0.0, 0.1)

    def test_rejects_nondividing_dt(self):
        with pytest.raises(dh.ConfigurationError):
            dh.Schedule(0.0, 1.0, 0.3)

    def test_times_and_steps(self):
        sched = dh.Schedule(0.25, 0.75, 0.125)
        assert sched.steps == 4
        assert sched.times() == pytest.approx([0.25, 0.375, 0.5, 0.625, 0.75])

    def test_replace_keeps_other_fields(self):
        sched = dh.Schedule(0.0, 1.0, 0.1)
        halved = sched.replace(dt=0.05)
        assert halved.dt == 0.05
        assert (halved.t0, halved.t1, halved.scheme) == (0.0, 1.0, sched.scheme)


# a single state (n,) or a block of three states (n, 3), per scheme, through
# the direct solve or the conjugate-gradient branch
STEP_CASES = [
    pytest.param(scheme, columns, direct,
                 id=scheme + ("-block" if columns else "") + ("" if direct else "-cg"))
    for direct in (True, False)
    for scheme in ("crank_nicolson", "backward_euler")
    for columns in (None, 3)]


class TestSingleStepOracle:
    """One step must equal the dense linear solve it abbreviates."""

    @pytest.mark.parametrize("scheme, columns, direct", STEP_CASES)
    def test_step_matches_dense_solve(self, iv_small_ops, scheme, columns,
                                      direct):
        ops = iv_small_ops
        dt = 0.05
        rng = np.random.default_rng(21)
        u0 = rng.standard_normal((ops.n_dofs,) if columns is None
                                 else (ops.n_dofs, columns))
        prop = dh.Propagator(ops, dt, scheme,
                             direct_max_dofs=ops.n_dofs if direct else 0)
        got = prop.step(u0)
        assert got.shape == u0.shape

        M = np.diag(ops.mass)
        K = ops.K.toarray()
        if scheme == "crank_nicolson":
            lhs, rhs = M + 0.5 * dt * K, (M - 0.5 * dt * K) @ u0
        else:
            lhs, rhs = M + dt * K, M @ u0
        expect = np.linalg.solve(lhs, rhs)
        if direct:
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-13)
        else:
            assert got == pytest.approx(expect, rel=1e-9, abs=1e-11)

    @pytest.mark.parametrize("scheme", ["crank_nicolson", "backward_euler"])
    def test_step_is_mass_self_adjoint(self, iv_small_ops, scheme):
        ops = iv_small_ops
        prop = dh.Propagator(ops, 0.05, scheme)
        rng = np.random.default_rng(22)
        u = rng.standard_normal(ops.n_dofs)
        v = rng.standard_normal(ops.n_dofs)
        assert ops.inner(prop.step(u), v) == pytest.approx(
            ops.inner(u, prop.step(v)), rel=1e-11)

    def test_iterative_branch_agrees_with_direct(self, iv_ops):
        u0 = unit_random_state(iv_ops, 23).values
        direct = dh.Propagator(iv_ops, 0.01).step(u0)
        iterative = dh.Propagator(iv_ops, 0.01, direct_max_dofs=0).step(u0)
        assert iterative == pytest.approx(direct, rel=1e-9, abs=1e-11)


class TestFlowProperties:
    def test_constants_are_steady(self, iv_ops):
        ones = dh.State(iv_ops.grid, np.ones(iv_ops.n_dofs))
        final, rec = dh.propagate(iv_ops, ones, dh.Schedule(0.0, 1.0, 0.01))
        assert np.max(np.abs(final.values - 1.0)) < 1e-10
        assert abs(rec.norms[-1] - rec.norms[0]) < 1e-10

    def test_norms_contract_stepwise(self, iv_ops, sched):
        st = unit_random_state(iv_ops, 24)
        _, rec = dh.propagate(iv_ops, st, sched)
        assert np.all(np.diff(rec.norms) <= 1e-12)

    def test_matrix_exponential_oracle(self, iv_domain):
        """Free flow vs expm(T A) on a grid small enough to exponentiate."""
        ops = dh.assemble_operator(dh.build_grid(iv_domain, n=8))
        st = unit_random_state(ops, 25)
        sched = dh.Schedule(0.0, 0.25, 1e-3)
        final, _ = dh.propagate(ops, st, sched)
        expect = sla.expm(0.25 * ops.dense_A()) @ st.values
        err = ops.norm(final.values - expect) / ops.norm(expect)
        assert err < 1e-3

    def test_recorded_states_replay_norms(self, iv_small_ops):
        """The record's norms are those of states advanced one step at a time."""
        ops = iv_small_ops
        st = unit_random_state(ops, 26)
        sched = dh.Schedule(0.0, 0.2, 0.05)
        _, rec = dh.propagate(ops, st, sched)
        prop = dh.Propagator(ops, sched.dt, sched.scheme)
        u = st.values
        replayed = [ops.norm(u)]
        for _ in range(sched.steps):
            u = prop.step(u)
            replayed.append(ops.norm(u))
        assert rec.times == pytest.approx(sched.times())
        assert rec.norms == pytest.approx(replayed, rel=1e-14)

    def test_block_flow_matches_column_flows(self, iv_small_ops):
        """A block of states flows as its columns do, one at a time."""
        ops = iv_small_ops
        prop = dh.Propagator(ops, 0.05)
        block = np.random.default_rng(32).standard_normal((ops.n_dofs, 4))
        got = prop.flow(block, 6)
        assert got.shape == block.shape
        for j in range(block.shape[1]):
            u = block[:, j]
            for _ in range(6):
                u = prop.step(u)
            assert got[:, j] == pytest.approx(u, rel=1e-13, abs=1e-15)

    def test_flow_returns_a_new_array(self, iv_small_ops):
        prop = dh.Propagator(iv_small_ops, 0.05)
        u = unit_random_state(iv_small_ops, 33).values
        out = prop.flow(u, 0)
        assert np.array_equal(out, u) and not np.shares_memory(out, u)

    def test_shared_propagator_reuse(self, iv_small_ops):
        prop = dh.Propagator(iv_small_ops, 0.05)
        st = unit_random_state(iv_small_ops, 27)
        sched = dh.Schedule(0.0, 0.2, 0.05)
        a, _ = dh.propagate(iv_small_ops, st, sched, propagator=prop)
        b, _ = dh.propagate(iv_small_ops, st, sched)
        assert a.values == pytest.approx(b.values)


class TestImpulsiveFlow:
    def test_matches_composed_free_flows(self, iv_ops):
        """Mild solution: flow to tau, add the embedded payload, flow on."""
        sched = dh.Schedule(0.0, 1.0, 0.01)
        st = unit_random_state(iv_ops, 28)
        payload = np.sin(np.linspace(0.0, np.pi, iv_ops.grid.omega_idx.size))
        imp = dh.ImpulseEvent(tau=0.5, payload=payload)
        final, rec, info = dh.propagate_impulsive(iv_ops, st, imp, sched)

        mid, leg1 = dh.propagate(iv_ops, st, dh.Schedule(0.0, 0.5, 0.01))
        kicked = dh.State(iv_ops.grid,
                          mid.values + iv_ops.embed_omega(payload).values)
        expect, leg2 = dh.propagate(iv_ops, kicked, dh.Schedule(0.5, 1.0, 0.01))
        assert final.values == pytest.approx(expect.values, rel=1e-12, abs=1e-14)
        assert rec.norms == pytest.approx(
            np.concatenate([leg1.norms, leg2.norms]), rel=1e-12)
        assert rec.times == pytest.approx(
            np.concatenate([leg1.times, leg2.times]))
        assert info["tau_effective"] == pytest.approx(0.5)
        assert info["steps_before"] == 50
        assert info["norm_after_kick"] == pytest.approx(iv_ops.norm(kicked))

    def test_tau_snaps_to_step_grid(self, iv_small_ops):
        sched = dh.Schedule(0.0, 1.0, 0.1)
        st = unit_random_state(iv_small_ops, 29)
        payload = np.zeros(iv_small_ops.grid.omega_idx.size)
        _, _, info = dh.propagate_impulsive(
            iv_small_ops, st, dh.ImpulseEvent(tau=0.512, payload=payload), sched)
        assert info["tau_effective"] == pytest.approx(0.5)
        _, _, info = dh.propagate_impulsive(
            iv_small_ops, st, dh.ImpulseEvent(tau=0.03, payload=payload), sched)
        assert info["tau_effective"] == pytest.approx(0.1)
        assert info["steps_before"] == 1

    def test_tau_outside_window_rejected(self, iv_small_ops):
        sched = dh.Schedule(0.0, 1.0, 0.1)
        st = unit_random_state(iv_small_ops, 30)
        payload = np.zeros(iv_small_ops.grid.omega_idx.size)
        for bad in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(dh.ConfigurationError):
                dh.propagate_impulsive(
                    iv_small_ops, st, dh.ImpulseEvent(tau=bad, payload=payload), sched)
