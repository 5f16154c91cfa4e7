"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q

The tiny variants run the same stages and code paths as the benchmark
sizes with less work, so these tests take seconds, not minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speedprobe  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def tiny_run(name, trace):
    return run.measure(WORKLOADS[name], SEED, seconds=0.01, trace=trace, tiny=True)


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_metrics_present_with_units(name):
    doc = tiny_run(name, trace=False)
    assert doc["correct"], doc["failures"]
    assert doc["failed"] == 0 and doc["attempted"] >= len(WORKLOADS[name].stages)
    for metric in SPEC["end_to_end"]:
        got = doc["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_work_counters_repeat_exactly(name):
    first, second = tiny_run(name, trace=True), tiny_run(name, trace=True)
    for doc in (first, second):
        assert doc["correct"], doc["failures"] + doc["counter_repeat_errors"]
        for metric in SPEC["per_layer"]:
            assert doc["metrics"][metric["name"]]["unit"] == metric["unit"]
    counted = [m["name"] for m in SPEC["per_layer"]
               if m["unit"] in ("count", "bytes")] + ["control.certified_ratio"]
    assert {k: first["metrics"][k]["value"] for k in counted} == \
        {k: second["metrics"][k]["value"] for k in counted}


def test_traced_split_matches_the_predictions():
    docs = {name: tiny_run(name, trace=True)["metrics"] for name in WORKLOADS}
    value = {name: {k: m["value"] for k, m in metrics.items()}
             for name, metrics in docs.items()}
    for name in ("certify-disk", "large-disk"):
        assert value[name]["control.synthesize.calls"] == 0
        assert value[name]["control.calibrate_kappa.calls"] == 0
    assert value["large-disk"]["evolve.step.cg_path_calls"] > 0
    assert value["pipeline-interval"]["evolve.step.cg_path_calls"] == 0
    assert value["certify-disk"]["evolve.step.cg_path_calls"] == 0


def test_speed_probe_samples_on_its_timer_and_restores_the_handler():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    with speedprobe.SpeedProbe() as probe:
        deadline = time.perf_counter() + 10 * speedprobe.PERIOD_S
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert len(probe.samples) >= 5
    assert probe.busy_s >= sum(probe.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_missing_targets_are_absent_and_originals_restored(monkeypatch):
    import dynheat.cli
    import dynheat.logconvexity as lc
    original = lc.run_trace
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("logconvexity", "no_such_function"), ("control", "NoSuchClass.method")))
    t = tracer.Tracer()
    t.install()
    try:
        assert lc.run_trace is not original
    finally:
        t.uninstall()
    assert {"logconvexity.no_such_function", "control.method"} <= t.absent
    assert lc.run_trace is original and dynheat.run_trace is original
    assert dynheat.cli.propagate is dynheat.evolve.propagate


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "large-disk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
