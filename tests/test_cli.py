import filecmp
import functools
import json
import os
import time

import numpy as np
import pytest

from dynheat import FitFailureError, cli, control as ctl, evolve, logconvexity as lc
from dynheat.cli import main
from dynheat.discretize import OperatorSet, assemble_operator
from dynheat.reporting import ARTIFACTS, SECTION_PASSED, canonical_json

from conftest import theta_broken

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

PIPELINE = ["simulate", "observe", "commutator-check", "control",
            "cost-study", "report"]

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
        assert report["simulate"]["contraction"] is True
        assert report["observe"]["bound_violations"] == 0
        assert report["cost_study"]["nondecreasing"] is True

    def test_report_is_idempotent(self, config_path, pipeline_dir):
        out, _ = pipeline_dir
        first = (out / "report.json").read_bytes()
        assert main(["report", "--out", str(out)]) == 0
        assert (out / "report.json").read_bytes() == first


    @pytest.mark.parametrize("stage, section", [
        ("simulate", "simulate"), ("observe", "observe"),
        ("commutator-check", "commutator"), ("control", "control"),
        ("cost-study", "cost_study"),
    ])
    def test_a_stage_alone_writes_its_artifacts_and_exits_by_its_rule(
            self, config_path, tmp_path, stage, section):
        code = main([stage, "--config", config_path, "--out", str(tmp_path)])
        assert sorted(os.listdir(tmp_path)) == sorted(ARTIFACTS[section])
        doc = json.loads((tmp_path / ARTIFACTS[section][-1]).read_text())
        assert code == (0 if SECTION_PASSED[section](doc) else 1)

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
    the kick after 25).  control: the reduced Gramian's block flow (50),
    the free flows (50) and one propagated rung with no CG iteration:
    P^n theta0 and G theta0 (50), theta(T) (25) and Psi(T) (25).
    cost-study: the same 100 once and one such rung per eps.  Flowing
    every rung, the members once per eps, or R_omega P^n a beside the
    free flows exceeds them."""

    @pytest.mark.parametrize("stage, ceiling", [("control", 200), ("cost-study", 300)])
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
        assert report["simulate"]["contraction"] is True
        assert report["failure"]["stage"] == "control"
        assert report["failure"]["error"] == "NumericalError"

    def test_structured_solve_check_is_a_numerical_exit(self, tmp_path, monkeypatch):
        """A K that is not theta-invariant fails the structured disk solve's
        construction check instead of flowing with the wrong matrix."""
        path = tmp_path / "disk.ini"
        path.write_text(DISK_CONFIG)
        monkeypatch.setattr(cli, "assemble_operator",
                            lambda grid: theta_broken(assemble_operator(grid)))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
        assert os.listdir(out) == ["failure.json"]
        doc = json.loads((out / "failure.json").read_text())
        assert doc["stage"] == "simulate" and doc["error"] == "NumericalError"
        assert doc["message"].startswith("structured step solve misses M + cK on the 6x16 disk")

    def test_other_exits_write_none(self, pipeline_dir, tmp_path):
        out, codes = pipeline_dir
        assert set(codes.values()) == {0}
        assert not (out / "failure.json").exists()
        (tmp_path / "constants.json").write_text(
            '{"bound_violations": 1, "interpolation_violations": 0}\n')
        (tmp_path / "frequency_trace.csv").write_text("t,normF2,N,Q,bound\n")
        assert main(["report", "--out", str(tmp_path)]) == 1
        assert not (tmp_path / "failure.json").exists()


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
        assert doc["flags"]["target"] is True

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
