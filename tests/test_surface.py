"""The package's declared surface, and the scripts that use it: every demo
and the README library example run in process against the package."""

import ast
import importlib
import json
import re
import runpy
import subprocess
import sys
import types
from pathlib import Path

import pytest

import dynheat

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_is_the_public_namespace():
    public = {name for name, value in vars(dynheat).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(dynheat.__all__) == len(set(dynheat.__all__))
    assert set(dynheat.__all__) == public


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from dynheat import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(dynheat.__all__)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    script = tmp_path / "library.py"
    script.write_text(code)
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(script), run_name="__main__")


def test_readme_config_example_loads(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n### Config file\n", 1)[1]
    path = tmp_path / "run.ini"
    path.write_text(re.search(r"```ini\n(.*?)```", section, re.S).group(1))
    cfg = dynheat.load_config(str(path))
    assert cfg.domain().kind == "interval" and cfg.grid_args == {"n": 64}
    assert (cfg.scheme, cfg.tau, cfg.eps_list, cfg.kappa) == ("crank_nicolson", 0.5,
                                                              (0.2, 0.1), None)
    assert (cfg.ensemble_count, cfg.seed, cfg.initial, cfg.out_dir) == (6, 7, "random", "out")


def _tracer_targets():
    """perfbench/tracer.py's TARGETS, read from its source without importing
    the benchmark."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


@pytest.mark.parametrize("module, name", _tracer_targets(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_benchmark_tracer_target_resolves(module, name):
    """The benchmark tracer records a target it cannot find as absent, so a
    renamed or deleted name would quietly blank its per-layer metric."""
    owner = importlib.import_module(f"dynheat.{module}")
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def _workload_configs():
    """The config text of every perfbench/workloads.py template at its
    benchmark and its test size, one param per workload and size."""
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["WORKLOADS"]
    return [pytest.param(w.config_text(w.input_seeds(0)[0], tiny), id=f"{name}-{size}")
            for name, w in workloads.items()
            for size, tiny in (("params", False), ("tiny", True))]


@pytest.mark.parametrize("text", _workload_configs())
def test_benchmark_setup_probe_runs(text, tmp_path, capsys):
    """perfbench/setup_probe.py reads load_config, RunConfig.domain(),
    grid_args, dt and scheme; a RunConfig that loses one would fail only
    the benchmark's setup_s run."""
    path = tmp_path / "run.ini"
    path.write_text(text)
    runpy.run_path(str(ROOT / "perfbench" / "setup_probe.py"))["main"](str(path))
    assert float(capsys.readouterr().out) > 0.0


# the artifacts each stage writes, by CLI stage name
_STAGE_FILES = {"simulate": ["simulate.json", "trajectory.csv"],
                "observe": ["constants.json", "frequency_trace.csv"],
                "commutator-check": ["commutator.json", "commutator_residuals.csv"],
                "control": ["control_result.json"],
                "cost-study": ["cost_study.csv", "cost_study.json"],
                "report": ["report.json"]}


@pytest.mark.parametrize("workload, inputs, stages", [
    pytest.param("large-disk", ["2000", "2001"], ["simulate", "report"], id="large-disk"),
    pytest.param("certify-disk", ["2000", "2001"],
                 ["simulate", "observe", "commutator-check", "report"], id="certify-disk"),
    pytest.param("pipeline-interval", ["4000", "4001", "4002", "4003"], list(_STAGE_FILES),
                 id="pipeline-interval")])
def test_artifact_digests_script_runs_and_repeats(workload, inputs, stages):
    """tools/artifact_digests.py on one benchmark seed of a workload:
    large-disk runs simulate and report, certify-disk simulate, observe,
    commutator-check and report (every trace chunk one sample), and
    pipeline-interval all six stages.  Every stage exits 0 and records the
    sha256 of what it wrote, every certifying stage its checks, no check
    fails, and a second run prints the same text."""
    argv = [sys.executable, str(ROOT / "tools" / "artifact_digests.py"),
            "--workload", workload, "--seeds", "1000-1000"]
    out = [subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120).stdout
           for _ in range(2)]
    assert out[0] == out[1]
    doc = json.loads(out[0])
    assert doc["nonzero"] == [] and sorted(doc["inputs"]) == inputs
    assert doc["failing"] == {}
    for stages_run in doc["inputs"].values():
        assert sorted(stages_run) == sorted(stages)
        for stage, rec in stages_run.items():
            assert rec["exit"] == 0
            assert sorted(rec["files"]) == _STAGE_FILES[stage]
            assert ("checks" in rec) is (stage != "report")
            assert all(c["violations"] == 0 for c in rec.get("checks", {}).values())
        assert list(stages_run["simulate"]["checks"]) == ["contraction"]
        assert all(re.fullmatch("[0-9a-f]{64}", d)
                   for rec in stages_run.values() for d in rec["files"].values())


def test_benchmark_reads_the_direct_solve_threshold():
    from dynheat import evolve
    assert isinstance(evolve.DIRECT_SOLVE_MAX_DOFS, int)


def test_the_disk_fourier_layout_lives_in_one_class():
    """np.fft is called only inside evolve._RingModes, the one place that
    knows the disk's Fourier layout, and no module imports an fft."""
    calls = []
    for path in sorted((ROOT / "src" / "dynheat").glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = {id(node): f"{path.stem}.{cls.name}" for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "fft":
                calls.append(owners.get(id(node), path.stem))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names] + [getattr(node, "module", None)]
                assert not any("fft" in (name or "") for name in names), path.name
    assert calls and set(calls) == {"evolve._RingModes"}


# library names that wait for the production caller a ROADMAP item gives them
_AWAITING_CALLER = {
    ("control", "verify_duality"),  # item 3: control writes its duality residual
    ("logconvexity", "count_observability_violations"),  # item 16: held-out check
}


def test_every_public_definition_has_a_caller_in_the_package():
    """A public function, class or method that nothing else under
    src/dynheat references is library code without a production caller:
    tests, demos, the README and the re-exports in __init__ do not count.
    The benchmark's tracer targets and _AWAITING_CALLER are exempt."""
    package = ROOT / "src" / "dynheat"
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py")) if path.stem != "__init__"}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    defined = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((module, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined.update((module, f"{node.name}.{item.name}", item.name)
                               for item in node.body if isinstance(item, ast.FunctionDef))
    exempt = set(_tracer_targets()) | _AWAITING_CALLER
    unused = sorted(f"{module}.{qualname}" for module, qualname, name in defined
                    if not name.startswith("_") and name not in referenced
                    and (module, qualname) not in exempt)
    assert unused == []
