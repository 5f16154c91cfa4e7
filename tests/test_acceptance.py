"""End-to-end acceptance checks at desk scale.

Each test exercises one headline capability at its stated tolerance and
wall-clock budget and prints a single summary line with the measured
numbers.  Tolerances are asserted exactly as stated; seeds are frozen so
reruns reproduce the same figures.
"""

import filecmp
import os
import time

import numpy as np
import pytest
import scipy.linalg as sla

import dynheat as dh
from dynheat import logconvexity as lc
from dynheat.cli import main as cli_main

from conftest import (apply_A, dense_A, energy_residuals, final_states,
                      smooth_random_state, unit_random_state)

INTERVAL = dh.DomainSpec.interval(0.0, 1.0, 0.5, 0.3, 0.7)
DISK = dh.DomainSpec.disk((0.0, 0.0), 1.0, (0.0, 0.0), (0.0, 0.0), 0.5)
PARAMS = dh.WeightParams(s=0.5, h=0.5, T=1.0)


def _ops(n):
    return dh.assemble_operator(dh.build_grid(INTERVAL, n=n))


@pytest.fixture(scope="module")
def ops48():
    return _ops(48)


@pytest.fixture(scope="module")
def trace_sched():
    return dh.Schedule(0.0, 1.0, 0.01)


@pytest.fixture(scope="module")
def fitted_C(ops48, trace_sched):
    states = np.column_stack([unit_random_state(ops48, seed) for seed in range(10)])
    # the smallest C >= 0 valid for every member
    return float(lc.run_traces(ops48, PARAMS, states, trace_sched).C.max())


@pytest.fixture(scope="module")
def observability_fit(ops48, trace_sched):
    train = lc.diverse_ensemble(ops48, 20, seed=11, sched=trace_sched)
    return lc.fit_observability_constants(ops48, trace_sched, train,
                                          final_states(ops48, trace_sched, train))


def test_01_operator_structure():
    """Assembled generator: self-adjoint, dissipative, kills constants."""
    start = time.monotonic()
    builds = [_ops(8), _ops(32), _ops(128),
              dh.assemble_operator(dh.build_grid(DISK, nr=6, ntheta=16))]
    worst_asym = worst_diss = worst_const = 0.0
    rng = np.random.default_rng(1)
    for ops in builds:
        MA = ops.mass[:, None] * dense_A(ops)
        worst_asym = max(worst_asym, float(np.max(np.abs(MA - MA.T))))
        ones = np.ones(ops.n_dofs)
        worst_const = max(worst_const,
                          ops.norm(apply_A(ops, ones)) / ops.norm(ones))
        for _ in range(100):
            u = rng.standard_normal(ops.n_dofs)
            worst_diss = max(worst_diss,
                             ops.inner(apply_A(ops, u), u) / ops.inner(u, u))
    elapsed = time.monotonic() - start
    assert worst_asym <= 1e-12
    assert worst_diss <= 1e-12
    assert worst_const <= 1e-12
    assert elapsed < 5.0
    print(f"\noperator structure: asymmetry {worst_asym:.2e}, "
          f"dissipativity excess {worst_diss:.2e}, constant drift "
          f"{worst_const:.2e}, {elapsed:.2f}s")


def test_02_propagation_oracles():
    """Free flow: steady constants, contraction, matrix-exponential match."""
    start = time.monotonic()
    ops = _ops(128)
    sched = dh.Schedule(0.0, 1.0, 0.01)
    ones = np.ones(ops.n_dofs)
    final, rec = dh.propagate(ops, ones, sched)
    drift = float(np.max(np.abs(final - 1.0)))
    assert drift <= 1e-10

    contraction_ok = True
    for seed in (2, 3, 4):
        _, rec = dh.propagate(ops, unit_random_state(ops, seed), sched)
        contraction_ok &= bool(np.all(np.diff(rec.norms) <= 1e-12 * rec.norms[0]))
    assert contraction_ok

    small = _ops(8)
    st = unit_random_state(small, 5)
    fine = dh.Schedule(0.0, 1.0, 1e-3)
    got, _ = dh.propagate(small, st, fine)
    expect = sla.expm(1.0 * dense_A(small)) @ st
    rel = small.norm(got - expect) / small.norm(expect)
    assert rel <= 1e-3

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\npropagation: constant drift {drift:.2e}, contraction "
          f"{contraction_ok}, exponential error {rel:.2e}, {elapsed:.2f}s")


def test_03_energy_identity_order(ops48):
    """Midpoint energy residual halves at second order in dt."""
    start = time.monotonic()
    orders = []
    for seed in range(100, 105):
        st = smooth_random_state(ops48, seed)
        coarse = energy_residuals(ops48, PARAMS, st[:, None], dh.Schedule(0.0, 1.0, 0.02))
        fine = energy_residuals(ops48, PARAMS, st[:, None], dh.Schedule(0.0, 1.0, 0.01))
        orders.append(np.log2(np.max(np.abs(coarse)) / np.max(np.abs(fine))))
    elapsed = time.monotonic() - start
    assert all(abs(o - 2.0) <= 0.2 for o in orders)
    assert elapsed < 30.0
    print(f"\nenergy identity: orders {np.round(orders, 3).tolist()}, "
          f"{elapsed:.2f}s")


def test_04_commutator_refinement():
    """Identity residuals vanish under refinement; interval at order two."""
    start = time.monotonic()
    iv = lc.commutator_identity_check(
        INTERVAL, PARAMS, 0.5, lc.InteriorBump([0.45], 0.3),
        [{"n": 64}, {"n": 128}, {"n": 256}])
    assert np.all(np.diff(iv.rel_residual) < 0.0)
    assert np.all(iv.orders >= 1.9)

    dk = lc.commutator_identity_check(
        DISK, PARAMS, 0.5, lc.InteriorBump((0.0, 0.0), 0.55),
        [{"nr": 4, "ntheta": 12}, {"nr": 8, "ntheta": 24},
         {"nr": 16, "ntheta": 48}, {"nr": 32, "ntheta": 96}])
    assert np.all(np.diff(dk.rel_residual) < 0.0)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\ncommutator: interval orders {np.round(iv.orders, 3).tolist()}, "
          f"disk residuals {np.round(dk.rel_residual, 4).tolist()}, "
          f"{elapsed:.2f}s")


def test_05_drift_bound_holdout(ops48, trace_sched, fitted_C):
    """C fitted on 10 trajectories certifies 50 held-out trajectories."""
    start = time.monotonic()
    C = fitted_C
    assert np.isfinite(C) and C > 0.0
    holdout = np.column_stack([unit_random_state(ops48, seed) for seed in range(1000, 1050)])
    violations = lc.count_bound_violations(lc.run_traces(ops48, PARAMS, holdout, trace_sched), C)
    elapsed = time.monotonic() - start
    assert violations == 0
    assert elapsed < 60.0
    print(f"\ndrift bound: C {C:.6g}, holdout violations {violations}/50 "
          f"trajectories, {elapsed:.2f}s")


def test_06_interpolation_inequality(ops48, trace_sched, fitted_C):
    """Three-point inequality with closed-form exponent on random triples."""
    start = time.monotonic()
    rng = np.random.default_rng(77)
    checked = failures = 0
    for seed in range(2000, 2050):
        tr = lc.run_trace(ops48, PARAMS, unit_random_state(ops48, seed),
                          trace_sched)
        n_times = tr.t.size
        triples = []
        while len(triples) < 10:
            i1, i2, i3 = sorted(rng.choice(n_times, size=3, replace=False))
            triples.append((int(i1), int(i2), int(i3)))
        rec = lc.interpolation_check(tr.t, tr.normF2[0], PARAMS, fitted_C, triples)
        checked += rec.passed.size
        failures += int(np.count_nonzero(~rec.passed))
    elapsed = time.monotonic() - start
    assert checked == 500
    assert failures == 0
    assert elapsed < 60.0
    print(f"\ninterpolation: {failures}/{checked} violations, {elapsed:.2f}s")


def test_07_observability_fit(ops48, trace_sched, observability_fit):
    """Fitted exponent lies in (0, 1) and transfers to held-out members."""
    start = time.monotonic()
    fit = observability_fit
    assert 0.0 < fit.beta < 1.0
    holdout = lc.diverse_ensemble(ops48, 10, seed=21, sched=trace_sched)
    violations = lc.count_observability_violations(
        fit, ops48, holdout, final_states(ops48, trace_sched, holdout))
    elapsed = time.monotonic() - start
    assert violations <= 1
    assert np.isfinite(fit.M1) and fit.M1 > 0.0
    assert np.isfinite(fit.M2) and fit.M2 >= 0.0
    assert np.isfinite(fit.delta) and fit.delta > 0.0
    assert elapsed < 60.0
    print(f"\nobservability: beta {fit.beta:.4f}, holdout violations "
          f"{violations}/10, M1 {fit.M1:.4g}, M2 {fit.M2:.4g}, delta "
          f"{fit.delta:.4g}, {elapsed:.2f}s")


def test_08_control_certificates(ops48, trace_sched):
    """Impulses calibrated from kappa = 1, as control calibrates them,
    certify target and cost for every member."""
    start = time.monotonic()
    prob = dh.ControlProblem(tau=0.5, eps=0.1)
    rng = np.random.default_rng(42)
    psi0s = []
    for _ in range(5):
        v = rng.standard_normal(ops48.n_dofs)
        psi0s.append(v / ops48.norm(v))

    psi0s = np.column_stack(psi0s)
    cal = dh.calibrate_kappa(ops48, prob, trace_sched, psi0s)
    assert cal.result.certified.all()
    worst_cg = float(cal.result.residuals["cg_rel"].max())
    assert worst_cg <= 1e-10

    zrng = np.random.default_rng(4242)
    zetas = np.column_stack([zrng.standard_normal(ops48.n_dofs) for _ in range(20)])
    prob_cal = dh.ControlProblem(tau=0.5, eps=0.1, kappa=cal.kappa)
    resid = dh.verify_duality(ops48, prob_cal, trace_sched, psi0s, cal.result, zetas)
    assert resid.shape == (5, 20)
    worst_dual = float(resid.max())
    assert worst_dual <= 1e-10

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"\ncontrol: kappa {cal.kappa:.4g} ({cal.doublings} doublings), "
          f"5/5 certified, cg residual {worst_cg:.2e}, duality residual "
          f"{worst_dual:.2e}, {elapsed:.2f}s")


def test_09_cost_sweep(ops48, trace_sched, observability_fit):
    """Tightening eps never lowers the certified sup cost."""
    start = time.monotonic()
    rng = np.random.default_rng(42)
    psi0s = []
    for _ in range(5):
        v = rng.standard_normal(ops48.n_dofs)
        psi0s.append(v / ops48.norm(v))
    eps_list = [0.2, 0.1, 0.05, 0.025, 0.0125]
    study = dh.cost_study(ops48, dh.ControlProblem(tau=0.5, eps=0.1),
                          trace_sched, eps_list, np.column_stack(psi0s),
                          constants=observability_fit)
    elapsed = time.monotonic() - start
    assert study.all_certified
    assert study.nondecreasing
    assert np.isfinite(study.slope)
    assert elapsed < 300.0
    costs = [round(r.sup_cost, 4) for r in study.rows]
    print(f"\ncost sweep: sup costs {costs}, slope {study.slope:.4f}, "
          f"fitted delta {study.delta_fitted:.4f}, {elapsed:.2f}s")


PIPELINE_CONFIG = """\
[domain]
kind = interval
a = 0.0
b = 1.0
x0 = 0.5

[omega]
lo = 0.3
hi = 0.7

[grid]
n = 16

[weight]
s = 0.5
h_weight = 0.5
ell = 2.0

[time]
T = 1.0
dt = 0.02

[impulse]
tau = 0.5

[control]
eps = 0.2, 0.1

[ensemble]
count = 6
seed = 7
"""


def test_10_pipeline_determinism(tmp_path):
    """Two full pipeline runs with one seed produce identical bytes."""
    start = time.monotonic()
    cfg = tmp_path / "run.ini"
    cfg.write_text(PIPELINE_CONFIG)
    stages = ["simulate", "observe", "commutator-check", "control",
              "cost-study", "report"]
    for out in ("a", "b"):
        for stage in stages:
            code = cli_main([stage, "--config", str(cfg),
                             "--out", str(tmp_path / out)])
            assert code == 0, stage
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b",
                                               names, shallow=False)
    elapsed = time.monotonic() - start
    assert mismatch == [] and errors == []
    assert len(match) == len(names)
    print(f"\ndeterminism: {len(names)} artifacts byte-identical across two "
          f"runs, {elapsed:.2f}s")
