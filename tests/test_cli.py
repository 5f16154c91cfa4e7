import dataclasses
import filecmp
import functools
import json
import os
import runpy
import time
from pathlib import Path

import numpy as np
import pytest

from dynheat import FitFailureError, cli, control as ctl, evolve, logconvexity as lc
from dynheat.cli import main
from dynheat.config import load_config
from dynheat.discretize import OperatorSet, assemble_operator
from dynheat.reporting import ARTIFACTS, canonical_json, check, csv_text, merge_report, passed

from conftest import THETA_BROKEN_KINDS, theta_broken

ROOT = Path(__file__).resolve().parents[1]

CONFIG = """\
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
scheme = crank_nicolson

[impulse]
tau = 0.5

[control]
eps = 0.2, 0.1
kappa = auto
cg_tol = 1e-12
cg_maxit = 400

[ensemble]
count = 6
seed = 7
"""

DISK_CONFIG = """\
[domain]
kind = disk
center = 0.0, 0.0
radius = 1.0
x0 = 0.0, 0.0

[omega]
center = 0.0, 0.0
radius = 0.5

[grid]
nr = 6
ntheta = 16

[weight]
s = 0.5
h_weight = 0.5
ell = 2.0

[time]
T = 0.1
dt = 0.02

[impulse]
tau = 0.04

[ensemble]
count = 3
seed = 7
"""

# the 32-node interval of the pipeline-interval benchmark at ensemble seed
# 4000: its members fit distinct, positive drift constants C
INTERVAL_32_CONFIG = """\
[domain]
kind = interval
a = 0.0
b = 1.0
x0 = 0.5

[omega]
lo = 0.3
hi = 0.7

[grid]
n = 32

[weight]
s = 0.5
h_weight = 0.5
ell = 2.0

[time]
T = 0.5
dt = 0.01
scheme = crank_nicolson

[impulse]
tau = 0.25

[control]
eps = 0.2, 0.1
kappa = auto
cg_tol = 1e-12
cg_maxit = 400

[ensemble]
count = 20
seed = 4000
initial = random
"""


def _assert_trace_table_is_the_certified_bound(out, trace):
    """frequency_trace.csv is member 0's rows of the trace record with the
    drift bound at the C that constants.json certifies with; where the
    bound check passes, no row has Q above that bound."""
    doc = json.loads((out / "constants.json").read_text())
    table = (out / "frequency_trace.csv").read_text()
    assert table == csv_text(["t", "normF2", "N", "Q", "bound"], trace.rows(0, doc["C"]))
    if doc["checks"]["bound"]["violations"] == 0:
        Q, bound = np.loadtxt(out / "frequency_trace.csv", delimiter=",", skiprows=1)[:, 3:].T
        scale = np.maximum(1.0, np.maximum(np.abs(Q), np.abs(bound)))
        assert np.all(Q <= bound + lc.SLACK * scale)


PIPELINE = ["simulate", "observe", "commutator-check", "control",
            "cost-study", "report"]

# the reporting.ARTIFACTS section each certifying stage writes
SECTIONS = {"simulate": "simulate", "observe": "observe",
            "commutator-check": "commutator", "control": "control",
            "cost-study": "cost_study"}

# a large explicit penalization: kappa^2 / eps^2 = 2.5e9 leaves the warm
# start's full-space residual near 1e-7, which two CG iterations cannot
# bring to cg_tol, so control exits 3
FAILING_CONFIG = (CONFIG.replace("kappa = auto", "kappa = 1e4")
                  .replace("cg_maxit = 400", "cg_maxit = 2"))


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "run.ini"
    path.write_text(CONFIG)
    return str(path)


def run_pipeline(config_path, out_dir):
    codes = {}
    for sub in PIPELINE:
        codes[sub] = main([sub, "--config", config_path, "--out", str(out_dir)])
    return codes


@pytest.fixture(scope="module")
def pipeline_dir(config_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    codes = run_pipeline(config_path, out)
    return out, codes


class TestPipeline:
    def test_every_stage_exits_clean(self, pipeline_dir):
        _, codes = pipeline_dir
        assert codes == {sub: 0 for sub in PIPELINE}

    def test_artifacts_exist_with_expected_headers(self, pipeline_dir):
        out, _ = pipeline_dir
        headers = {
            "trajectory.csv": "t,norm",
            "frequency_trace.csv": "t,normF2,N,Q,bound",
            "commutator_residuals.csv": "resolution,spacing,lhs,rhs,rel_residual",
            "cost_study.csv": "eps,sup_cost,kappa,passes",
        }
        for name, header in headers.items():
            text = (out / name).read_text()
            assert text.splitlines()[0] == header, name
        for name in ("simulate.json", "constants.json", "commutator.json",
                     "control_result.json", "cost_study.json", "report.json"):
            json.loads((out / name).read_text())

    def test_report_merges_all_sections_and_passes(self, pipeline_dir):
        out, _ = pipeline_dir
        report = json.loads((out / "report.json").read_text())
        for section in ("simulate", "observe", "commutator", "control",
                        "cost_study"):
            assert report[section] is not None
        assert report["all_passed"] is True
        checks = {section: sorted(report[section]["checks"]) for section in ARTIFACTS}
        assert checks == {"simulate": ["contraction"], "observe": ["bound", "interpolation"],
                          "commutator": ["monotone"], "control": ["cost", "target"],
                          "cost_study": ["certified", "nondecreasing"]}
        # 6 members x 51 samples, 10 drawn triples each; one sweep of the
        # tolerance ladder; 2 refinement steps
        assert report["observe"]["checks"] == {"bound": check(306, 0),
                                               "interpolation": check(60, 0)}
        assert report["cost_study"]["checks"]["nondecreasing"] == check(1, 0)
        assert report["commutator"]["checks"]["monotone"] == check(2, 0)
        assert sorted(report["control"]["flags"]) == ["apriori", "observation"]

    def test_observe_certifies_with_the_largest_member_C(self, config_path, pipeline_dir,
                                                          tmp_path, monkeypatch):
        """constants.json's C is the largest member C of the trace record
        of the stage's ensemble, its bound check counts that record with
        it, and its table is member 0's rows.  Every member C is 0 on this
        config, so a second run gives the record distinct ones."""
        out, _ = pipeline_dir
        cfg = load_config(config_path)
        ops, sched = assemble_operator(cfg.grid()), cfg.schedule()
        states = lc.diverse_ensemble(ops, cfg.ensemble_count, cfg.seed, sched)
        trace = lc.run_traces(ops, cfg.weight_params(), states, sched)
        doc = json.loads((out / "constants.json").read_text())
        assert doc["C"] == trace.C.max()
        assert doc["checks"]["bound"] == check(
            trace.Q.size, lc.count_bound_violations(trace, trace.C.max()))
        _assert_trace_table_is_the_certified_bound(out, trace)

        C = np.array([0.5, 3.0, 0.0, 2.5, 1.0, 0.25])
        monkeypatch.setattr(lc, "run_traces", lambda *args: dataclasses.replace(trace, C=C))
        main(["observe", "--config", config_path, "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "constants.json").read_text())
        assert doc["C"] == 3.0
        assert doc["checks"]["bound"] == check(
            trace.Q.size, lc.count_bound_violations(trace, 3.0))

    @pytest.mark.parametrize("seed", [4000, 4003])
    def test_observe_certifies_a_positive_C(self, tmp_path, seed):
        """On INTERVAL_32_CONFIG observe certifies with C > 0, unpatched:
        C is the trace record's largest member C, above member 0's own
        fit, the bound and interpolation checks hold with it, and the
        table's bound column is formed with it.  At seed 4003 member 0's
        fit is 0 against about 227: a column formed with member 0's fit
        puts Q above it on two rows while the bound check passes."""
        path = tmp_path / "run.ini"
        path.write_text(INTERVAL_32_CONFIG.replace("seed = 4000", f"seed = {seed}"))
        assert main(["observe", "--config", str(path), "--out", str(tmp_path)]) == 0
        cfg = load_config(str(path))
        ops, sched = assemble_operator(cfg.grid()), cfg.schedule()
        states = lc.diverse_ensemble(ops, cfg.ensemble_count, cfg.seed, sched)
        trace = lc.run_traces(ops, cfg.weight_params(), states, sched)
        doc = json.loads((tmp_path / "constants.json").read_text())
        assert doc["C"] > 0.0 and doc["C"] == trace.C.max() > trace.C[0]
        assert doc["checks"] == {"bound": check(trace.Q.size, 0),
                                 "interpolation": check(200, 0)}
        _assert_trace_table_is_the_certified_bound(tmp_path, trace)

    def test_report_is_idempotent(self, config_path, pipeline_dir):
        out, _ = pipeline_dir
        first = (out / "report.json").read_bytes()
        assert main(["report", "--out", str(out)]) == 0
        assert (out / "report.json").read_bytes() == first


    @pytest.mark.parametrize("stage, section", SECTIONS.items())
    def test_a_stage_alone_writes_its_artifacts_and_exits_by_its_rule(
            self, config_path, tmp_path, stage, section):
        code = main([stage, "--config", config_path, "--out", str(tmp_path)])
        assert sorted(os.listdir(tmp_path)) == sorted(ARTIFACTS[section])
        doc = json.loads((tmp_path / ARTIFACTS[section][-1]).read_text())
        assert code == (0 if passed(doc) else 1)

    def test_cost_study_reads_back_the_fit_observe_made(self, config_path, tmp_path,
                                                        monkeypatch):
        """constants.json carries every fitted constant, and cost-study
        rebuilds the very ObservabilityFit that observe computed."""
        fits, read = [], []
        fit_constants, cost_study = lc.fit_observability_constants, ctl.cost_study

        def fitted(*args):
            fits.append(fit_constants(*args))
            return fits[-1]

        def studied(*args, constants):
            read.append(constants)
            return cost_study(*args, constants=constants)

        monkeypatch.setattr(lc, "fit_observability_constants", fitted)
        monkeypatch.setattr(ctl, "cost_study", studied)
        for stage in ("observe", "cost-study"):
            assert main([stage, "--config", config_path, "--out", str(tmp_path)]) == 0
        assert len(fits) == 1 and read == fits


@pytest.mark.parametrize("text, labels", [
    pytest.param(CONFIG, ["16", "32", "64"], id="interval"),
    pytest.param(DISK_CONFIG, ["6x16", "12x32", "24x64"], id="disk")])
def test_commutator_check_refines_the_configured_grid(tmp_path, text, labels):
    """commutator-check refines [grid] by 1, 2 and 4 and labels each level
    by its grid counts joined with x."""
    path = tmp_path / "run.ini"
    path.write_text(text)
    assert main(["commutator-check", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "commutator.json").read_text())["resolutions"] == labels
    rows = (tmp_path / "commutator_residuals.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == labels


def _frozen_unit_random_states(ops, count, seed):
    """The member-by-member draw as it stood before states were one block:
    count draws of n normals, each scaled by its own mass norm."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        v = rng.standard_normal(ops.n_dofs)
        states.append(v / ops.norm(v))
    return states


class TestDeterminism:
    @pytest.mark.parametrize("which", ["iv_ops", "wide_disk_ops"])
    @pytest.mark.parametrize("count", [1, 20])
    def test_initial_block_equals_the_frozen_member_loop(self, request, which, count):
        """One (count, n) draw normalized as a block carries the bits of the
        member-by-member draw."""
        ops = request.getfixturevalue(which)
        block = cli._unit_random_states(ops, count, 4035, "random")
        assert block.shape == (ops.n_dofs, count)
        for got, want in zip(block.T, _frozen_unit_random_states(ops, count, 4035)):
            assert np.array_equal(got, want)
        zero = cli._unit_random_states(ops, count, 4035, "zero")
        assert zero.shape == (ops.n_dofs, count) and not zero.any()

    def test_pipeline_is_byte_identical_across_runs(self, config_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_pipeline(config_path, a)
        run_pipeline(config_path, b)
        names = sorted(os.listdir(a))
        assert names == sorted(os.listdir(b))
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert mismatch == [] and errors == []

    def test_seed_override_changes_results(self, config_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["observe", "--config", config_path, "--out", str(a)]) == 0
        assert main(["observe", "--config", config_path, "--out", str(b),
                     "--seed", "99"]) == 0
        assert (a / "constants.json").read_bytes() != (b / "constants.json").read_bytes()


class TestWorkCounts:
    """Step-solve ceilings for control and cost-study on CONFIG (50 steps,
    the kick after 25), at their exact counts.  control: the free flows
    (50) and one propagated rung, whose theta(T) (25) and Psi(T) (25) are
    stepped; the Gramian, the warm start and the reduced Gramian take the
    modes.  cost-study: the free flows once (50) and one such rung per eps
    (2 x 50).  Stepping a Gramian apply, the reduced Gramian's build, every
    rung or the members once per eps exceeds them."""

    @pytest.mark.parametrize("stage, ceiling", [("control", 100), ("cost-study", 150)])
    def test_step_calls_stay_under_the_ceiling(self, config_path, tmp_path,
                                               monkeypatch, stage, ceiling):
        calls = []
        step = evolve.Propagator.step

        def counted(self, u):
            calls.append(1)
            return step(self, u)

        monkeypatch.setattr(evolve.Propagator, "step", counted)
        assert main([stage, "--config", config_path, "--out", str(tmp_path)]) == 0
        assert 0 < len(calls) <= ceiling


class TestSetupPath:
    @pytest.mark.parametrize("text", [CONFIG, DISK_CONFIG], ids=["interval", "disk"])
    def test_only_control_builds_the_modes(self, text, tmp_path, capsys, monkeypatch):
        """With the modes' eigh_tridiagonal raising, perfbench/setup_probe.py's
        main (import, load_config, build_grid, assemble_operator, one
        Propagator) and simulate still run: the benchmark's setup_s and
        the stages without control build no modes.  A ControlOperator's
        reduced Gramian does reach the patched function."""
        def refuse(*args, **kwargs):
            raise AssertionError("eigh_tridiagonal called")

        monkeypatch.setattr(evolve, "eigh_tridiagonal", refuse)
        path = tmp_path / "run.ini"
        path.write_text(text)
        runpy.run_path(str(ROOT / "perfbench" / "setup_probe.py"))["main"](str(path))
        assert float(capsys.readouterr().out) > 0.0
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        cfg = load_config(str(path))
        co = ctl.ControlOperator(assemble_operator(cfg.grid()), cfg.schedule(), cfg.tau)
        with pytest.raises(AssertionError, match="eigh_tridiagonal called"):
            co.reduced


class TestConfigErrors:
    def write(self, tmp_path, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        return str(path)

    def test_unknown_key_is_named(self, config_path, tmp_path, capsys):
        bad = self.write(tmp_path, CONFIG.replace("eps = 0.2, 0.1",
                                                  "epsilon = 0.2, 0.1"))
        assert main(["control", "--config", bad, "--out", str(tmp_path)]) == 2
        assert "control.epsilon" in capsys.readouterr().err

    def test_unknown_section_is_named(self, tmp_path, capsys):
        bad = self.write(tmp_path, CONFIG + "\n[penalty]\nweight = 2\n")
        assert main(["simulate", "--config", bad, "--out", str(tmp_path)]) == 2
        assert "penalty" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        bad = self.write(tmp_path, CONFIG.replace("x0 = 0.5\n", ""))
        assert main(["simulate", "--config", bad, "--out", str(tmp_path)]) == 2
        assert "domain.x0" in capsys.readouterr().err

    @pytest.mark.parametrize("text, kind, section, line", [
        pytest.param(CONFIG, "interval", "domain", "radius = -7", id="interval-domain.radius"),
        pytest.param(CONFIG, "interval", "domain", "center = 9, 9", id="interval-domain.center"),
        pytest.param(CONFIG, "interval", "omega", "radius = 0.1", id="interval-omega.radius"),
        pytest.param(CONFIG, "interval", "grid", "nr = 3", id="interval-grid.nr"),
        pytest.param(CONFIG, "interval", "grid", "ntheta = 2", id="interval-grid.ntheta"),
        pytest.param(DISK_CONFIG, "disk", "grid", "n = 5", id="disk-grid.n"),
        pytest.param(DISK_CONFIG, "disk", "domain", "a = 3", id="disk-domain.a"),
        pytest.param(DISK_CONFIG, "disk", "domain", "b = -1", id="disk-domain.b")])
    def test_key_of_the_other_kind_is_named(self, tmp_path, capsys, text, kind, section,
                                            line):
        bad = self.write(tmp_path, text.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", bad, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{section}.{line.split()[0]}" in err and kind in err
        assert not out.exists()

    def test_default_section_keys_follow_the_section_own_keys(self, tmp_path, capsys):
        """A [DEFAULT] key reaches every section after the section's own
        keys, so the first unknown key named is the section's own."""
        bad = self.write(tmp_path, "[DEFAULT]\nzz = 1\n\n" + CONFIG.replace("b = 1.0", "bb = 1.0"))
        assert main(["simulate", "--config", bad, "--out", str(tmp_path)]) == 2
        assert "unknown config key: domain.bb" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        bad = self.write(tmp_path, "kind = interval\nno section header\n")
        assert main(["simulate", "--config", bad, "--out", str(tmp_path)]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.ini")
        assert main(["simulate", "--config", missing, "--out", str(tmp_path)]) == 2
        assert "not found" in capsys.readouterr().err

    def test_config_required_for_runs(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path)]) == 2
        assert "needs --config" in capsys.readouterr().err

    def test_file_that_is_not_utf8_is_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(CONFIG.encode() + b"# \xff\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config file {bad} is not UTF-8" in err
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["simulate", "report"])
    def test_out_naming_a_file_is_named(self, config_path, tmp_path, capsys, stage):
        taken = tmp_path / "taken"
        taken.write_text("kept")
        argv = [stage, "--out", str(taken)]
        assert main(argv + (["--config", config_path] if stage == "simulate" else [])) == 2
        assert f"cannot make the artifact directory {taken}" in capsys.readouterr().err
        assert taken.read_text() == "kept"

    @pytest.mark.parametrize("old, new, key", [
        ("dt = 0.02", "dt = nan", "time.dt"),
        ("T = 1.0", "T = inf", "time.T"),
        ("eps = 0.2, 0.1", "eps = 0.2, nan", "control.eps"),
        ("kappa = auto", "kappa = nan", "control.kappa"),
        ("h_weight = 0.5", "h_weight = inf", "weight.h_weight"),
    ])
    def test_non_finite_value_is_named(self, tmp_path, capsys, old, new, key):
        bad = self.write(tmp_path, CONFIG.replace(old, new))
        assert main(["observe", "--config", bad, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert key in err and "finite" in err

    @pytest.mark.parametrize("stage, count", [
        ("simulate", -1), ("control", -1), ("observe", -1), ("cost-study", -1),
        ("observe", 0), ("observe", 1),
    ])
    def test_ensemble_count_is_checked(self, tmp_path, capsys, stage, count):
        bad = self.write(tmp_path, CONFIG.replace("count = 6", f"count = {count}"))
        assert main([stage, "--config", bad, "--out", str(tmp_path)]) == 2
        assert "ensemble.count" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["bad.ini"]

    def test_observe_needs_three_time_samples(self, tmp_path, capsys):
        bad = self.write(tmp_path, CONFIG.replace("dt = 0.02", "dt = 1.0"))
        assert main(["observe", "--config", bad, "--out", str(tmp_path)]) == 2
        assert "time.dt" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["simulate", "control", "cost-study"])
    def test_a_kick_needs_two_steps(self, tmp_path, capsys, stage):
        """With one step over [0, T] no step is left for the kick inside
        it: the stage exits 2 naming impulse.tau and time.dt, instead of
        kicking at t = 0 or running the whole doubling ladder."""
        bad = self.write(tmp_path, CONFIG.replace("dt = 0.02", "dt = 1.0"))
        out = tmp_path / "out"
        assert main([stage, "--config", bad, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: impulse.tau = 0.5 needs a step before and after")
        assert "time.dt = 1.0" in err and "Traceback" not in err
        assert os.listdir(out) == []

    def test_cost_study_needs_a_member(self, tmp_path, capsys):
        bad = self.write(tmp_path, CONFIG.replace("count = 6", "count = 0"))
        assert main(["cost-study", "--config", bad, "--out", str(tmp_path)]) == 2
        assert "ensemble.count" in capsys.readouterr().err
        assert not (tmp_path / "cost_study.json").exists()


    @pytest.mark.parametrize("stage", ["simulate", "observe", "control", "cost-study"])
    def test_negative_seed_in_config_is_named(self, tmp_path, capsys, stage):
        bad = self.write(tmp_path, CONFIG.replace("seed = 7", "seed = -5"))
        assert main([stage, "--config", bad, "--out", str(tmp_path)]) == 2
        assert "ensemble.seed" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["bad.ini"]

    @pytest.mark.parametrize("stage", ["simulate", "observe", "control", "cost-study"])
    def test_negative_seed_flag_is_named(self, config_path, tmp_path, capsys, stage):
        out = tmp_path / "out"
        assert main([stage, "--config", config_path, "--out", str(out),
                     "--seed", "-3"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dt", ["1e-300", "5e-324"])
    @pytest.mark.parametrize("stage", PIPELINE)
    def test_unallocatable_step_count_is_named(self, tmp_path, capsys, stage, dt):
        """A dt whose step count no numpy array can hold exits 2 naming
        time.dt, before any stage starts, instead of a traceback or an
        endless control run."""
        bad = self.write(tmp_path, CONFIG.replace("dt = 0.02", f"dt = {dt}"))
        out = tmp_path / "out"
        start = time.perf_counter()
        assert main([stage, "--config", bad, "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "time.dt" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, old, new, key", [
        (CONFIG, "n = 16", "n = 1000000000000", "grid.n = 1000000000000"),
        (DISK_CONFIG, "ntheta = 16", "ntheta = 1000000000000",
         "grid.ntheta = 1000000000000")], ids=["interval", "disk"])
    @pytest.mark.parametrize("stage", PIPELINE)
    def test_unallocatable_grid_size_is_named(self, tmp_path, capsys, stage, text, old,
                                              new, key):
        """A grid of 10^12 nodes, which numpy would refuse to allocate,
        exits 2 naming its [grid] key before any stage starts, instead of
        a MemoryError traceback."""
        bad = self.write(tmp_path, text.replace(old, new))
        out = tmp_path / "out"
        assert main([stage, "--config", bad, "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, sizes", [
        (CONFIG, "grid.n = 16 and ensemble.count = 6"),
        (DISK_CONFIG, "grid.nr = 6 and grid.ntheta = 16 and ensemble.count = 3")],
        ids=["interval", "disk"])
    @pytest.mark.parametrize("stage", ["simulate", "observe", "control", "cost-study"])
    def test_out_of_memory_exits_2_naming_the_sizes(self, tmp_path, capsys, monkeypatch,
                                                    stage, text, sizes):
        """Sizes below MAX_NODES that the machine cannot hold exit 2, not
        with a MemoryError traceback (exit 1), naming the stage, the [grid]
        keys, ensemble.count and numpy's text, and write no artifact.  The
        refused allocation is simulated; nothing large is allocated."""
        numpy_text = ("Unable to allocate 7.28 TiB for an array with shape "
                      "(1000000000000,) and data type float64")

        def refuse(grid):
            raise MemoryError(numpy_text)

        monkeypatch.setattr(cli, "assemble_operator", refuse)
        out = tmp_path / "out"
        assert main([stage, "--config", self.write(tmp_path, text), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {stage} ran out of memory with {sizes}: {numpy_text}\n")
        assert list(out.iterdir()) == []


class TestInterpolationTriples:
    def test_sorted_distinct_in_range_and_seeded(self):
        triples = cli._interpolation_triples(7, 5, 51)
        assert triples.shape == (5, 10, 3)
        assert np.all(np.diff(triples, axis=-1) > 0)
        assert triples.min() >= 0 and triples.max() < 51
        assert np.array_equal(triples, cli._interpolation_triples(7, 5, 51))
        assert not np.array_equal(triples, cli._interpolation_triples(8, 5, 51))
        assert np.array_equal(cli._interpolation_triples(7, 2, 3),
                              np.broadcast_to([0, 1, 2], (2, 10, 3)))

    @pytest.mark.parametrize("seed, members, n_times", [(1, 20, 51), (4, 15, 21), (9, 3, 3)])
    def test_member_draws_are_the_one_call_draw(self, seed, members, n_times):
        """Drawing member by member takes the numbers of one (members, 10,
        n_times) call, and the three smallest by partition are the first
        three of a full sort."""
        draws = np.random.default_rng((seed, 2)).random((members, 10, n_times))
        one_call = np.sort(np.argsort(draws, axis=-1)[..., :3], axis=-1)
        assert np.array_equal(cli._interpolation_triples(seed, members, n_times), one_call)

    def test_every_sorted_triple_is_equally_likely(self):
        """20,000 triples of 6 samples hit each of the 20 sorted triples;
        their counts pass a chi-square test at the 0.001 level (19 degrees
        of freedom)."""
        triples = cli._interpolation_triples(7, 2000, 6).reshape(-1, 3)
        counts = np.unique(triples @ [36, 6, 1], return_counts=True)[1]
        assert counts.size == 20
        assert np.sum((counts - 1000.0) ** 2 / 1000.0) < 43.82


class TestStiffnessFormedWhereRead:
    """The step solvers read K's diagonal and edge weights, so simulate,
    control and cost-study never form K as a matrix; observe and
    commutator-check form it once per grid for the log-convexity forms."""

    @pytest.mark.parametrize("stage, text", [
        pytest.param("simulate", CONFIG, id="simulate-interval"),
        pytest.param("simulate", DISK_CONFIG, id="simulate-disk"),
        pytest.param("control", CONFIG, id="control-interval"),
        pytest.param("cost-study", CONFIG, id="cost-study-interval")])
    def test_stages_that_never_read_K_never_form_it(self, tmp_path, monkeypatch, stage, text):
        path = tmp_path / "run.ini"
        path.write_text(text)
        plain, refused = tmp_path / "plain", tmp_path / "refused"
        assert main([stage, "--config", str(path), "--out", str(plain)]) == 0

        def refuse(self):
            raise AssertionError("formed a matrix of K")

        monkeypatch.setattr(OperatorSet, "K", property(refuse))
        monkeypatch.setattr(OperatorSet, "incidence", property(refuse))
        assert main([stage, "--config", str(path), "--out", str(refused)]) == 0
        names = sorted(os.listdir(plain))
        assert names == sorted(os.listdir(refused)) and names
        match, mismatch, errors = filecmp.cmpfiles(plain, refused, names, shallow=False)
        assert mismatch == [] and errors == []

    @pytest.mark.parametrize("stage, text, grids", [
        pytest.param("observe", CONFIG, 1, id="observe-interval"),
        pytest.param("commutator-check", CONFIG, 3, id="commutator-check-interval"),
        pytest.param("commutator-check", DISK_CONFIG, 3, id="commutator-check-disk")])
    def test_observe_and_commutator_check_form_K_once_per_grid(
            self, tmp_path, monkeypatch, stage, text, grids):
        path = tmp_path / "run.ini"
        path.write_text(text)
        formed = []
        form = OperatorSet.K.func

        def counted(self):
            formed.append(self.grid.shape)
            return form(self)

        K = functools.cached_property(counted)
        K.__set_name__(OperatorSet, "K")
        monkeypatch.setattr(OperatorSet, "K", K)
        assert main([stage, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert len(formed) == len(set(formed)) == grids


class TestFailureArtifact:
    def test_numerical_exit_writes_failure_json(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(FAILING_CONFIG)
        out = tmp_path / "out"
        assert main(["control", "--config", str(path), "--out", str(out)]) == 3
        message = capsys.readouterr().err.split("numerical failure: ", 1)[1].strip()
        assert message.startswith("gramian solve did not reach tol")
        assert os.listdir(out) == ["failure.json"]
        assert (out / "failure.json").read_text() == canonical_json(
            {"stage": "control", "error": "NumericalError", "message": message,
             "diagnostics": {}})

    def test_an_ill_conditioned_rung_is_a_named_exit(self, tmp_path, capsys):
        """On INTERVAL_32_CONFIG at n = 200 no kappa certifies eps = 0.2.
        The ladder stops at the first rung whose kappa^2 lambda_max(W) /
        eps^2 passes GRAMIAN_CONDITION_MAX, without propagating it, and
        names kappa, eps, that ratio and the largest predicted
        ||Psi(T)|| / ||Psi0|| there, the floor that eps lies below, with
        the reduced model's diagnostics."""
        path = tmp_path / "run.ini"
        path.write_text(INTERVAL_32_CONFIG.replace("n = 32", "n = 200"))
        out = tmp_path / "out"
        start = time.perf_counter()
        code = main(["control", "--config", str(path), "--out", str(out), "--seed", "4000"])
        assert code == 3 and time.perf_counter() - start < 1.0
        doc = json.loads((out / "failure.json").read_text())
        assert doc["error"] == "CalibrationError"
        diag = doc["diagnostics"]
        spread = diag["kappa_last"] ** 2 * diag["w_eigenvalue_max"] / 0.2 ** 2
        assert ctl.GRAMIAN_CONDITION_MAX < spread < 4.0 * ctl.GRAMIAN_CONDITION_MAX
        assert f"kappa below {diag['kappa_last']:.6g}" in doc["message"]
        assert "eps=0.2" in doc["message"] and f"{spread:.3e}" in doc["message"]
        floor = max(diag["predicted_ratio_last"])
        assert floor > 0.2
        assert doc["message"].endswith(f"up to {floor:.3g}, against eps=0.2")
        assert capsys.readouterr().err.startswith("numerical failure: no kappa below")

    def test_calibration_failure_diagnostics_are_kept(self, config_path, tmp_path,
                                                      monkeypatch):
        """A calibration that runs out of doublings (here a budget of 0 from
        kappa = 1 at eps 0.01, where the cost certificate fails) records the
        reduced model in failure.json."""
        path = tmp_path / "tight.ini"
        path.write_text(CONFIG.replace("eps = 0.2, 0.1", "eps = 0.01"))
        monkeypatch.setattr(ctl, "DEFAULT_DOUBLING_BUDGET", 0)
        out = tmp_path / "out"
        assert main(["control", "--config", str(path), "--out", str(out)]) == 3
        doc = json.loads((out / "failure.json").read_text())
        assert doc["stage"] == "control" and doc["error"] == "CalibrationError"
        diag = doc["diagnostics"]
        assert diag["n_omega"] == 6 and diag["kappa_last"] == 1.0
        assert 0.0 < diag["w_eigenvalue_max"] <= 1.0
        assert diag["w_eigenvalue_min"] <= diag["w_eigenvalue_max"]
        [ratio] = diag["predicted_ratio_last"]
        assert 0.0 < ratio < 1.0

    def test_fit_failure_diagnostics_are_kept(self, config_path, tmp_path, monkeypatch):
        def fail(*args):
            raise FitFailureError("beta left (0, 1)", diagnostics={"beta": 1.5})

        monkeypatch.setattr(lc, "fit_observability_constants", fail)
        assert main(["observe", "--config", config_path, "--out", str(tmp_path)]) == 3
        doc = json.loads((tmp_path / "failure.json").read_text())
        assert doc == {"stage": "observe", "error": "FitFailureError",
                       "message": "beta left (0, 1)", "diagnostics": {"beta": 1.5}}

    def test_completed_stage_clears_its_failure(self, config_path, tmp_path):
        failing = tmp_path / "failing.ini"
        failing.write_text(FAILING_CONFIG)
        out = tmp_path / "out"
        assert main(["control", "--config", str(failing), "--out", str(out)]) == 3
        assert main(["control", "--config", config_path, "--out", str(out)]) == 0
        assert not (out / "failure.json").exists()
        assert main(["report", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is True and "failure" not in report

    def test_report_fails_while_a_failure_is_present(self, config_path, tmp_path):
        failing = tmp_path / "failing.ini"
        failing.write_text(FAILING_CONFIG)
        out = tmp_path / "out"
        assert main(["control", "--config", str(failing), "--out", str(out)]) == 3
        assert main(["report", "--out", str(out)]) == 1
        # a stage other than the failed one leaves the failure in place
        assert main(["simulate", "--config", config_path, "--out", str(out)]) == 0
        assert main(["report", "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is False
        assert passed(report["simulate"])
        assert report["failure"]["stage"] == "control"
        assert report["failure"]["error"] == "NumericalError"

    @pytest.mark.parametrize("kind", THETA_BROKEN_KINDS)
    @pytest.mark.parametrize("nr, ntheta", [(6, 16), (16, 48)])
    def test_structured_solve_check_is_a_numerical_exit(self, tmp_path, monkeypatch, kind,
                                                        nr, ntheta):
        """A K that is not theta-invariant, through a radial, an interior
        angular or a boundary ring edge, fails the structured disk solve's
        construction check instead of flowing with the wrong matrix."""
        path = tmp_path / "disk.ini"
        path.write_text(DISK_CONFIG.replace("nr = 6\nntheta = 16",
                                            f"nr = {nr}\nntheta = {ntheta}"))
        monkeypatch.setattr(cli, "assemble_operator",
                            lambda grid: theta_broken(assemble_operator(grid), kind))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
        assert os.listdir(out) == ["failure.json"]
        doc = json.loads((out / "failure.json").read_text())
        assert doc["stage"] == "simulate" and doc["error"] == "NumericalError"
        assert doc["message"].startswith(
            f"structured step solve misses M + cK on the {nr}x{ntheta} disk")

    def test_other_exits_write_none(self, pipeline_dir, tmp_path):
        out, codes = pipeline_dir
        assert set(codes.values()) == {0}
        assert not (out / "failure.json").exists()
        (tmp_path / "constants.json").write_text(
            '{"checks": {"bound": {"checked": 1, "violations": 1}}}\n')
        (tmp_path / "frequency_trace.csv").write_text("t,normF2,N,Q,bound\n")
        assert main(["report", "--out", str(tmp_path)]) == 1
        assert not (tmp_path / "failure.json").exists()


class TestPassRule:
    """reporting.passed is the one rule: a document passes when no record
    in its checks has a violation, whatever the check is called."""

    def test_a_check_no_stage_writes_decides_every_reader(self, tmp_path):
        doc = {"checks": {"contraction": check(3, 0), "held_out": check(4, 1)}}
        assert not passed(doc)
        assert cli._emit(str(tmp_path), "simulate", doc, "t,norm\n") == 1
        assert merge_report(str(tmp_path))["all_passed"] is False
        doc["checks"]["held_out"] = check(4, 0)
        assert cli._emit(str(tmp_path), "simulate", doc, "t,norm\n") == 0
        assert merge_report(str(tmp_path))["all_passed"] is True

    def test_a_nan_norm_step_is_a_contraction_violation(self, tmp_path, monkeypatch):
        """A NaN rise is not <= the tolerance, so it counts as a violation.
        The NaN norm follows a zero-length step, which the trajectory does
        not write, so it reaches the check and no table."""
        path = tmp_path / "free.ini"
        path.write_text(CONFIG.replace("[impulse]\ntau = 0.5\n", ""))
        record = evolve.PropagationRecord(times=np.array([0.0, 0.5, 0.5, 1.0]),
                                          norms=np.array([1.0, 0.9, np.nan, 0.8]))
        monkeypatch.setattr(cli, "propagate", lambda ops, state0, sched: (0.8 * state0, record))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        doc = json.loads((out / "simulate.json").read_text())
        assert doc["checks"] == {"contraction": check(2, 1)}
        assert (out / "trajectory.csv").read_text().count("nan") == 0


class TestReadBack:
    """A stage document read back that is not a JSON object, or lacks a
    key its reader needs, exits 2 naming the file and the key: exit 1
    stays the failed-certificate code."""

    @pytest.mark.parametrize("text, named", [
        ("{}\n", "lacks the key 'checks'"),
        # the shape written before the checks record
        ('{"bound_violations": 0, "interpolation_violations": 0}\n',
         "lacks the key 'checks'"),
        ("5\n", "lacks the key 'checks'"),
        ("not json\n", "is not a JSON document"),
    ])
    def test_report_on_a_document_without_checks(self, tmp_path, capsys, text, named):
        (tmp_path / "constants.json").write_text(text)
        (tmp_path / "frequency_trace.csv").write_text("t,normF2,N,Q,bound\n")
        assert main(["report", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'constants.json'} {named}" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("checks", [
        '{"bound": 3}', '[]', '{"bound": {"checked": 1}}',
        '{"bound": {"checked": 1, "violations": true}}',
        '{"bound": {"checked": 1.0, "violations": 0}}'])
    def test_report_on_a_malformed_checks_record(self, tmp_path, capsys, checks):
        (tmp_path / "constants.json").write_text(f'{{"checks": {checks}}}\n')
        (tmp_path / "frequency_trace.csv").write_text("t,normF2,N,Q,bound\n")
        assert main(["report", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'constants.json'} has checks" in err
        assert not (tmp_path / "report.json").exists()

    def test_report_on_a_failure_that_is_not_an_object(self, tmp_path, capsys):
        (tmp_path / "failure.json").write_text("[]\n")
        assert main(["report", "--out", str(tmp_path)]) == 2
        assert f"{tmp_path / 'failure.json'} is not a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_cost_study_on_a_fit_without_mu(self, config_path, tmp_path, capsys):
        (tmp_path / "constants.json").write_text('{"beta": 0.5}\n')
        assert main(["cost-study", "--config", config_path, "--out", str(tmp_path)]) == 2
        assert f"{tmp_path / 'constants.json'} lacks the key 'mu'" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["constants.json"]


class TestDegenerateData:
    def test_zero_data_control_is_certified_with_zero_impulse(
            self, tmp_path, config_path):
        cfg = CONFIG + "initial = zero\n"
        path = tmp_path / "zero.ini"
        path.write_text(cfg)
        out = tmp_path / "out"
        assert main(["control", "--config", str(path), "--out", str(out)]) == 0
        doc = json.loads((out / "control_result.json").read_text())
        assert doc["norm_h"] == 0.0
        assert doc["norm_Psi0"] == 0.0
        assert doc["checks"]["target"] == check(1, 0)

    def test_zero_data_observe_is_config_error(self, tmp_path, capsys):
        cfg = CONFIG + "initial = zero\n"
        path = tmp_path / "zero.ini"
        path.write_text(cfg)
        assert main(["observe", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "zero" in capsys.readouterr().err


class TestReportEdgeCases:
    def test_empty_directory_lists_artifacts(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        for name in ("simulate.json", "constants.json", "control_result.json"):
            assert name in err

    def test_report_needs_out_or_config(self, capsys):
        assert main(["report"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_partial_report_has_null_sections(self, config_path, tmp_path):
        out = tmp_path / "partial"
        assert main(["control", "--config", config_path, "--out", str(out)]) == 0
        assert main(["report", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["control"] is not None
        for section in ("simulate", "observe", "commutator", "cost_study"):
            assert report[section] is None
        assert report["all_passed"] is True
