import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

import dynheat as dh
from dynheat import evolve
from dynheat.control import ControlOperator
from dynheat.discretize import OperatorSet

from conftest import (THETA_BROKEN_KINDS, FrozenDiskSolver, dense_A, frozen_disk_modal_flow,
                      frozen_step_solver, same_bits, theta_broken, unit_random_state)


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
        halved = dataclasses.replace(sched, dt=0.05)
        assert halved.dt == 0.05
        assert (halved.t0, halved.t1, halved.scheme) == (0.0, 1.0, sched.scheme)
        with pytest.raises(dh.ConfigurationError, match="does not divide"):
            dataclasses.replace(sched, dt=0.3)


# a single state (n,) or a block of three states (n, 3), per scheme, through
# the interval's tridiagonal solve or the disk's FFT/tridiagonal solve (the
# "-structured" cases)
STEP_CASES = [
    pytest.param(scheme, columns, disk,
                 id=scheme + ("-block" if columns else "")
                 + ("-structured" if disk else ""))
    for disk in (False, True)
    for scheme in ("crank_nicolson", "backward_euler")
    for columns in (None, 3)]


STEP_DTS = [1e-3, 4e-3, 0.02, 0.05]


def dense_step(ops, dt, scheme, u0):
    """One step by a dense solve of the step matrix M + c K."""
    M = np.diag(ops.mass)
    K = ops.K.toarray()
    if scheme == "crank_nicolson":
        lhs, rhs = M + 0.5 * dt * K, (M - 0.5 * dt * K) @ u0
    else:
        lhs, rhs = M + dt * K, M @ u0
    return np.linalg.solve(lhs, rhs)


class TestSingleStepOracle:
    """One step must equal the dense linear solve it abbreviates."""

    @pytest.mark.parametrize("scheme, columns, disk", STEP_CASES)
    def test_step_matches_dense_solve(self, iv_small_ops, disk_ops, scheme, columns, disk):
        ops = disk_ops if disk else iv_small_ops
        dt = 0.05
        rng = np.random.default_rng(21)
        u0 = rng.standard_normal((ops.n_dofs,) if columns is None
                                 else (ops.n_dofs, columns))
        prop = dh.Propagator(ops, dt, scheme)
        got = prop.step(u0)
        assert got.shape == u0.shape
        assert got == pytest.approx(dense_step(ops, dt, scheme, u0), rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("scheme", ["crank_nicolson", "backward_euler"])
    def test_step_is_mass_self_adjoint(self, iv_small_ops, scheme):
        ops = iv_small_ops
        prop = dh.Propagator(ops, 0.05, scheme)
        rng = np.random.default_rng(22)
        u = rng.standard_normal(ops.n_dofs)
        v = rng.standard_normal(ops.n_dofs)
        assert ops.inner(prop.step(u), v) == pytest.approx(
            ops.inner(u, prop.step(v)), rel=1e-11)

    def test_large_interval_step_matches_banded_solve(self, iv_domain):
        """The tridiagonal solve at about the large disk's size, against LAPACK's
        banded LU solve of the same step."""
        ops = dh.assemble_operator(dh.build_grid(iv_domain, n=20010))
        # two backward-stable solves agree to about the condition number
        # times the rounding unit; in the mass norm that is 1 + c 4/dx^2,
        # 8e3 at this dt (and 8e5 at dt = 1e-3, where they part at 1.4e-12)
        dt = 1e-5
        u0 = np.random.default_rng(34).standard_normal(ops.n_dofs)
        got = dh.Propagator(ops, dt).step(u0)

        c = 0.5 * dt
        main, off = ops.K.diagonal(), ops.K.diagonal(1)
        rhs = ops.mass * u0 - c * (main * u0)
        rhs[:-1] -= c * off * u0[1:]
        rhs[1:] -= c * off * u0[:-1]
        bands = np.zeros((3, ops.n_dofs))
        bands[0, 1:] = bands[2, :-1] = c * off
        bands[1] = ops.mass + c * main
        expect = sla.solve_banded((1, 1), bands, rhs)
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)

    def test_indefinite_interval_step_matrix_is_a_numerical_error(self, iv_small_ops):
        """A K with the wrong sign, every edge weight negated, leaves M + c K
        with a nonpositive pivot, which the factorization names instead of
        solving on."""
        ops = iv_small_ops
        flipped = OperatorSet(grid=ops.grid, mass=ops.mass.copy(), edges=ops.edges,
                              edge_weights=-ops.edge_weights)
        with pytest.raises(dh.NumericalError, match=r"12-node interval \(dpttrf info"):
            dh.Propagator(flipped, 1.0, "backward_euler")


def assert_matches_dense_powers(ops, prop, dt, scheme, block, steps):
    """step and flow of a block against the dense step matrix and its
    power, each column bit for bit its one-state flow, and P^steps mass
    self-adjoint to rounding."""
    got = prop.step(block)
    assert got.flags.f_contiguous
    for j in range(block.shape[1]):
        assert np.array_equal(got[:, j], prop.step(block[:, j].copy()))
    expect = dense_step(ops, dt, scheme, block)
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()

    got = prop.flow(block, steps)
    for j in range(block.shape[1]):
        assert np.array_equal(got[:, j], prop.flow(block[:, j].copy(), steps))
    # two backward-stable computations part by about the step matrix's
    # condition number, at most 1 + c max_i sum_j |K_ij| / m_i, times the
    # rounding unit per step (1.4e-12 for 25 steps on a 261-node interval
    # at dt = 0.05)
    c = 0.5 * dt if scheme == "crank_nicolson" else dt
    cond = 1.0 + c * np.max(np.asarray(abs(ops.K).sum(axis=1)).ravel() / ops.mass)
    P = dense_step(ops, dt, scheme, np.eye(ops.n_dofs))
    expect = np.linalg.matrix_power(P, steps) @ block
    tol = 1e-13 + steps * cond * np.finfo(float).eps
    assert np.abs(got - expect).max() <= tol * np.abs(expect).max()
    # reversed, so a one-column block still gives two states
    u, v = block[:, 0], block[::-1, -1]
    defect = ops.inner(prop.flow(u, steps), v) - ops.inner(u, prop.flow(v, steps))
    assert abs(defect) <= 1e-14 * ops.norm(u) * ops.norm(v)


@st.composite
def modal_cases(draw):
    """An interval of 4 to 64 nodes or a disk of 2 to 8 rings and 4 to 24
    angles, a scheme, dt and a power of 1 to 50 steps."""
    if draw(st.booleans()):
        grid = dh.build_grid(dh.DomainSpec.interval(0.0, 1.0, 0.5, 0.3, 0.7),
                             n=draw(st.integers(4, 64)))
    else:
        grid = dh.build_grid(dh.DomainSpec.disk((0.0, 0.0), 1.0, (0.0, 0.0), (0.0, 0.0), 0.5),
                             nr=draw(st.integers(2, 8)), ntheta=draw(st.integers(4, 24)))
    return (dh.assemble_operator(grid), draw(st.sampled_from([0.002, 0.01, 0.05])),
            draw(st.sampled_from(evolve.SCHEMES)), draw(st.integers(1, 50)))


class TestModalFlow:
    @settings(max_examples=60, deadline=None)
    @given(case=modal_cases(), seed=st.integers(0, 9999))
    def test_modes_against_dense_eigh_and_stepping(self, case, seed):
        """P^steps equals the dense power V diag(r(c lambda)^steps) V^T M
        from the generalized eigh of (K, M) and stepping, both to rounding;
        and a block's columns, any subset of them and a state (n,) all
        carry the bits of one-column products."""
        ops, dt, scheme, steps = case
        modes = evolve._ModalFlow(ops, dt, scheme, steps)
        block = np.random.default_rng(seed).standard_normal((ops.n_dofs, 5))
        flowed = modes(block)
        assert flowed.shape == block.shape and flowed.flags.f_contiguous
        # assert_matches_dense_powers' allowance, steps * cond * eps, on each
        # side: stepping rounds that much per step, and the modes' rounding
        # of about eps ||c S|| reaches P^steps through its derivative in
        # lambda, at most steps * c * max |r'| <= 2 steps c.  Over 1500
        # random cases of this domain the two parted by at most 3.7 times
        # steps * cond * eps
        c = 0.5 * dt if scheme == "crank_nicolson" else dt
        cond = 1.0 + c * np.max(np.asarray(abs(ops.K).sum(axis=1)).ravel() / ops.mass)
        stepped = dh.Propagator(ops, dt, scheme).flow(block, steps)
        tol = 1e-13 + 8 * steps * cond * np.finfo(float).eps
        assert np.abs(flowed - stepped).max() <= tol * np.abs(stepped).max()

        # the dense eigh rounds its eigenpairs as the modes do, so the same
        # derivative bound holds; over 11,500 random cases of this domain
        # the two parted by at most 9.8 times steps * cond * eps
        lam, V = sla.eigh(ops.K.toarray(), np.diag(ops.mass))
        x = c * lam
        r = (1.0 - x) / (1.0 + x) if scheme == "crank_nicolson" else 1.0 / (1.0 + x)
        dense = (V * r ** steps) @ (V.T @ (ops.mass[:, None] * block))
        tol = 16 * steps * cond * np.finfo(float).eps
        assert np.abs(flowed - dense).max() <= tol * np.abs(dense).max()

        for j in range(block.shape[1]):
            assert np.array_equal(flowed[:, j], modes(block[:, j].copy()))
        subset = [3, 0]
        assert np.array_equal(flowed[:, subset], modes(block[:, subset]))


class TestStructuredSolve:
    """The structured solves against a dense solve of M + c K and its
    powers, and a block step or flow against its one-state ones, bit for
    bit; a Crank-Nicolson step is one solve and one subtraction,
    (M + cK)^{-1} (2 M u) - u, so no step applies K."""

    @settings(max_examples=30, deadline=None)
    @given(nr=st.integers(2, 12), ntheta=st.integers(4, 40),
           width=st.integers(1, 6), dt=st.sampled_from(STEP_DTS),
           steps=st.integers(1, 25),
           scheme=st.sampled_from(["crank_nicolson", "backward_euler"]))
    def test_block_equals_columns_and_dense_solve(self, disk_domain, nr, ntheta,
                                                  width, dt, steps, scheme):
        ops = dh.assemble_operator(dh.build_grid(disk_domain, nr=nr, ntheta=ntheta))
        prop = dh.Propagator(ops, dt, scheme)
        block = np.asfortranarray(
            np.random.default_rng(nr * 100 + ntheta).standard_normal((ops.n_dofs, width)))
        assert_matches_dense_powers(ops, prop, dt, scheme, block, steps)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(4, 300), width=st.integers(1, 20),
           dt=st.sampled_from(STEP_DTS), steps=st.integers(1, 25),
           scheme=st.sampled_from(["crank_nicolson", "backward_euler"]))
    def test_block_step_equals_one_state_steps(self, iv_domain, n, width, dt, steps,
                                               scheme):
        """The interval: a block step, C or Fortran order, and a block flow
        are their one-state ones bit for bit, and the dense solve and power
        to rounding."""
        ops = dh.assemble_operator(dh.build_grid(iv_domain, n=n))
        prop = dh.Propagator(ops, dt, scheme)
        block = np.random.default_rng(n * 100 + width).standard_normal((n, width))
        assert np.array_equal(prop.step(np.asfortranarray(block)), prop.step(block))
        assert_matches_dense_powers(ops, prop, dt, scheme, block, steps)

    @pytest.mark.parametrize("which", ["iv_small_ops", "disk_ops"])
    @pytest.mark.parametrize("scheme", ["crank_nicolson", "backward_euler"])
    def test_step_bits_do_not_depend_on_shape_or_order(self, request, which, scheme):
        """A state (n,), its one-column block (n, 1) and C- and
        Fortran-order blocks (n, m) step to the same bits column by column,
        with the node weights shaped once at construction; the input is
        left as it was."""
        ops = request.getfixturevalue(which)
        prop = dh.Propagator(ops, 0.05, scheme)
        block = np.random.default_rng(8).standard_normal((ops.n_dofs, 4))
        kept = block.copy()
        want = np.column_stack([prop.step(u.copy()) for u in block.T])
        for j in range(block.shape[1]):
            assert np.array_equal(prop.step(block[:, j:j + 1].copy()), want[:, j:j + 1])
        for same in (np.ascontiguousarray(block), np.asfortranarray(block)):
            assert np.array_equal(prop.step(same), want)
        assert np.array_equal(block, kept)

    @settings(max_examples=60, deadline=None)
    @given(disk=st.booleans(), n=st.integers(4, 200), nr=st.integers(2, 12),
           ntheta=st.integers(4, 40), width=st.integers(1, 6),
           dt=st.sampled_from(STEP_DTS), steps=st.integers(1, 10),
           scheme=st.sampled_from(["crank_nicolson", "backward_euler"]))
    def test_flow_equals_the_frozen_K_read(self, iv_domain, disk_domain, disk, n, nr,
                                           ntheta, width, dt, steps, scheme):
        """The solvers read K's diagonal and edge weights; their flow equals,
        bit for bit, that of a solver whose coefficients are read from the
        assembled K (conftest.frozen_step_solver)."""
        grid = (dh.build_grid(disk_domain, nr=nr, ntheta=ntheta) if disk
                else dh.build_grid(iv_domain, n=n))
        ops = dh.assemble_operator(grid)
        prop = dh.Propagator(ops, dt, scheme)
        frozen = dh.Propagator(ops, dt, scheme)
        frozen._solve = frozen_step_solver(ops, 0.5 * dt if scheme == "crank_nicolson" else dt)
        block = np.random.default_rng(n + nr * ntheta).standard_normal((ops.n_dofs, width))
        assert np.array_equal(prop.flow(block, steps), frozen.flow(block, steps))

    @settings(max_examples=60, deadline=None)
    @given(nr=st.integers(2, 12), ntheta=st.integers(4, 40), width=st.integers(1, 6),
           fortran=st.booleans(), dt=st.sampled_from(STEP_DTS), steps=st.integers(1, 25),
           scheme=st.sampled_from(evolve.SCHEMES), seed=st.integers(0, 9999))
    def test_disk_paths_equal_their_frozen_layouts(self, disk_domain, nr, ntheta, width,
                                                   fortran, dt, steps, scheme, seed):
        """On a disk, a step and a flow of a state or of a C- or
        Fortran-order block, and the modal flow, carry the bits, sign bits
        included, of the solver and the modal flow that each kept its own
        Fourier layout (conftest.FrozenDiskSolver, frozen_disk_modal_flow).
        One column of the block is radially symmetric, so its modes k > 0
        are zeros."""
        ops = dh.assemble_operator(dh.build_grid(disk_domain, nr=nr, ntheta=ntheta))
        rng = np.random.default_rng(seed)
        block = rng.standard_normal((ops.n_dofs, width))
        block[:, 0] = np.repeat(rng.standard_normal(nr + 1), ntheta)
        if fortran:
            block = np.asfortranarray(block)
        prop = dh.Propagator(ops, dt, scheme)
        frozen = dh.Propagator(ops, dt, scheme)
        frozen._solve = FrozenDiskSolver(ops, 0.5 * dt if scheme == "crank_nicolson" else dt)
        modes = evolve._ModalFlow(ops, dt, scheme, steps)
        for u in (block, block[:, -1].copy()):
            assert same_bits(prop.step(u), frozen.step(u))
            assert same_bits(prop.flow(u, steps), frozen.flow(u, steps))
            assert same_bits(modes(u), frozen_disk_modal_flow(ops, dt, scheme, steps, u))

    @pytest.mark.parametrize("kind", THETA_BROKEN_KINDS)
    def test_k_off_theta_invariance_is_a_numerical_error(self, disk_ops, kind):
        with pytest.raises(dh.NumericalError, match=r"6x16 disk: relative residual"):
            dh.Propagator(theta_broken(disk_ops, kind), 0.05)

    @pytest.mark.parametrize("scheme", ["crank_nicolson", "backward_euler"])
    @pytest.mark.parametrize("disk", [False, True], ids=["interval", "disk"])
    def test_steps_never_apply_K(self, monkeypatch, iv_small_ops, disk_ops, scheme, disk):
        """Neither the solvers nor a step apply K or form it as a matrix:
        apply_K, the CSR K and D all refuse."""
        ops = disk_ops if disk else iv_small_ops

        def refuse(self, u):
            raise AssertionError("a step applied K")

        def refuse_matrix(self):
            raise AssertionError("a step formed a matrix of K")

        monkeypatch.setattr(OperatorSet, "apply_K", refuse)
        monkeypatch.setattr(OperatorSet, "K", property(refuse_matrix))
        monkeypatch.setattr(OperatorSet, "incidence", property(refuse_matrix))
        u = np.random.default_rng(35).standard_normal(ops.n_dofs)
        with pytest.raises(AssertionError, match="applied K"):
            ops.apply_K(u)
        for name in ("K", "incidence"):
            with pytest.raises(AssertionError, match="formed a matrix"):
                getattr(ops, name)
        prop = dh.Propagator(ops, 0.05, scheme)
        prop.step(u)
        prop.flow(np.column_stack([u, -u]), 3)


class TestFlowProperties:
    def test_constants_are_steady(self, iv_ops):
        ones = np.ones(iv_ops.n_dofs)
        final, rec = dh.propagate(iv_ops, ones, dh.Schedule(0.0, 1.0, 0.01))
        assert np.max(np.abs(final - 1.0)) < 1e-10
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
        expect = sla.expm(0.25 * dense_A(ops)) @ st
        err = ops.norm(final - expect) / ops.norm(expect)
        assert err < 1e-3

    def test_recorded_states_replay_norms(self, iv_small_ops):
        """The record's norms are those of states advanced one step at a time."""
        ops = iv_small_ops
        st = unit_random_state(ops, 26)
        sched = dh.Schedule(0.0, 0.2, 0.05)
        _, rec = dh.propagate(ops, st, sched)
        prop = dh.Propagator(ops, sched.dt, sched.scheme)
        u = st
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

    def test_block_steps_carry_one_state_bits(self, wide_disk_ops):
        """On the 816-dof disk, where SuperLU's multi-column solve once
        rounded member 3 differently in the first step, every column of a
        block flow carries exactly its one-state steps."""
        ops = wide_disk_ops
        sched = dh.Schedule(0.0, 0.2, 0.01)
        members = list(dh.diverse_ensemble(ops, 5, 51, sched).T)
        prop = dh.Propagator(ops, sched.dt)
        flows = [prop.trajectory(u, 4) for u in members]
        for X in prop.trajectory(np.column_stack(members), 4):
            assert X.flags.f_contiguous
            for j, flow in enumerate(flows):
                assert np.array_equal(X[:, j], next(flow))

    def test_flow_returns_a_new_array(self, iv_small_ops):
        prop = dh.Propagator(iv_small_ops, 0.05)
        u = unit_random_state(iv_small_ops, 33)
        out = prop.flow(u, 0)
        assert np.array_equal(out, u) and not np.shares_memory(out, u)

    def test_shared_propagator_reuse(self, iv_small_ops):
        prop = dh.Propagator(iv_small_ops, 0.05)
        st = unit_random_state(iv_small_ops, 27)
        sched = dh.Schedule(0.0, 0.2, 0.05)
        a, _ = dh.propagate(iv_small_ops, st, sched, propagator=prop)
        b, _ = dh.propagate(iv_small_ops, st, sched)
        assert a == pytest.approx(b)


class TestImpulsiveFlow:
    def test_matches_composed_free_flows(self, iv_ops):
        """Mild solution: flow to tau, add the embedded payload, flow on."""
        sched = dh.Schedule(0.0, 1.0, 0.01)
        st = unit_random_state(iv_ops, 28)
        payload = np.sin(np.linspace(0.0, np.pi, iv_ops.grid.omega_idx.size))
        final, rec, info = dh.propagate_impulsive(iv_ops, st, 0.5, payload, sched)

        mid, leg1 = dh.propagate(iv_ops, st, dh.Schedule(0.0, 0.5, 0.01))
        kicked = mid + iv_ops.embed_omega(payload)
        expect, leg2 = dh.propagate(iv_ops, kicked, dh.Schedule(0.5, 1.0, 0.01))
        assert final == pytest.approx(expect, rel=1e-12, abs=1e-14)
        assert rec.norms == pytest.approx(
            np.concatenate([leg1.norms, leg2.norms]), rel=1e-12)
        assert rec.times == pytest.approx(
            np.concatenate([leg1.times, leg2.times]))
        assert info["tau_effective"] == pytest.approx(0.5)
        assert sched.kick_step(0.5) == 50
        assert info["norm_after_kick"] == pytest.approx(iv_ops.norm(kicked))

    def test_tau_snaps_to_step_grid(self, iv_small_ops):
        sched = dh.Schedule(0.0, 1.0, 0.1)
        st = unit_random_state(iv_small_ops, 29)
        payload = np.zeros(iv_small_ops.grid.omega_idx.size)
        _, _, info = dh.propagate_impulsive(
            iv_small_ops, st, 0.512, payload, sched)
        assert info["tau_effective"] == pytest.approx(0.5)
        _, _, info = dh.propagate_impulsive(
            iv_small_ops, st, 0.03, payload, sched)
        assert info["tau_effective"] == pytest.approx(0.1)
        assert sched.kick_step(0.03) == 1

    def test_tau_outside_window_rejected(self, iv_small_ops):
        sched = dh.Schedule(0.0, 1.0, 0.1)
        st = unit_random_state(iv_small_ops, 30)
        payload = np.zeros(iv_small_ops.grid.omega_idx.size)
        for bad in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(dh.ConfigurationError):
                dh.propagate_impulsive(iv_small_ops, st, bad, payload, sched)

    def test_one_step_schedule_has_no_kick_step(self, iv_small_ops):
        """A kick needs a step before it and one after: with one step over
        [t0, t1] no step in [1, steps - 1] exists, and the error names the
        two config keys that set it."""
        sched = dh.Schedule(0.0, 1.0, 1.0)
        with pytest.raises(dh.ConfigurationError, match=r"impulse\.tau.*time\.dt"):
            sched.kick_step(0.5)
        with pytest.raises(dh.ConfigurationError, match="before and after the kick"):
            dh.propagate_impulsive(iv_small_ops, unit_random_state(iv_small_ops, 30), 0.5,
                                   np.zeros(iv_small_ops.grid.omega_idx.size), sched)
        assert dh.Schedule(0.0, 1.0, 0.5).kick_step(0.9) == 1

    def test_control_snaps_tau_as_the_impulsive_flow_does(self, iv_small_ops):
        """Schedule.kick_step is the one snap: the impulsive flow and the
        control operator take the same step and the same effective tau,
        and both reject a tau outside (t0, t1) by its message."""
        sched = dh.Schedule(0.0, 1.0, 0.1)
        st = unit_random_state(iv_small_ops, 31)
        payload = np.zeros(iv_small_ops.grid.omega_idx.size)
        for tau, n_tau in ((0.03, 1), (0.512, 5), (0.97, 9)):
            assert sched.kick_step(tau) == n_tau
            _, _, info = dh.propagate_impulsive(iv_small_ops, st, tau, payload, sched)
            co = ControlOperator(iv_small_ops, sched, tau)
            assert co.n_tau == n_tau
            assert info["tau_effective"] == co.tau_effective
        for bad in (0.0, 1.0):
            with pytest.raises(dh.ConfigurationError, match="strictly inside"):
                ControlOperator(iv_small_ops, sched, bad)
