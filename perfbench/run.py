"""dynheat benchmark: runs one workload through ``dynheat.cli.main``.

    python3 perfbench/run.py --workload pipeline-interval --seed 1 --seconds 25 --trace 0

Closed loop, one client, one process: the next pipeline starts when the
previous one ends.  After one untimed warm-up pipeline the run cycles
through the workload's generated inputs until ``--seconds`` have passed and
every input has run twice.  Every stage invocation is checked: exit code 0,
``report.json`` with ``all_passed`` true, and artifacts byte-identical to
the earlier repeat of the same input.

With ``--trace 0`` a :class:`speedprobe.SpeedProbe` samples the machine's
speed while each pipeline runs, and the gated ``pipeline_rel`` divides each
pipeline's time by the mean probe sample taken during it; wall-clock
``pipeline_s`` is printed beside it.  BLAS and OpenMP pools are held to one
thread, so the process runs one worker.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced pipelines and prints the per-layer metrics.  Lines
before the last describe every metric with its unit; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details (machine, stage percentiles, artifact digests) go to
``perfbench/results/``; spans of the last traced pipeline to a gzip CSV
beside them.

Exits 2 without a result when the checkout holds no ``src/dynheat``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

# one worker: no BLAS or OpenMP thread pool competes for the cores (set
# before anything imports numpy, here or in the set-up interpreters)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))

import envinfo  # noqa: E402
from speedprobe import SpeedProbe  # noqa: E402
from tracer import COUNTERS, MODULES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120

STAGE_METRICS = {"simulate": "simulate_s", "observe": "observe_s",
                 "commutator-check": "commutator_s", "control": "control_s",
                 "cost-study": "cost_study_s", "report": "report_s"}

# Gated end-to-end metrics, with their units.  Only metrics that every
# workload has and that repeat on a shared 2-core machine.  Wall-clock
# pipeline_s and the per-stage times are reported in the lines above the
# result but not gated: the machine's speed drifts by more than any allowed
# bound between runs, and most stages run on only some workloads.
END_TO_END = {"pipeline_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer: (span name, metrics taken from its spans)
LAYER_SPANS = (
    ("config.load_config", ("self_s",)),
    ("geometry.weight_phi_bundle", ("calls", "self_s")),
    ("discretize.assemble_operator", ("calls", "self_s")),
    ("discretize.apply_K", ("calls", "self_s")),
    ("evolve.Propagator", ("calls", "self_s")),
    ("evolve.step", ("calls", "self_s")),
    ("evolve.propagate", ("calls",)),
    ("evolve.propagate_impulsive", ("calls",)),
    ("logconvexity.run_trace", ("calls", "self_s")),
    ("logconvexity.commutator_form", ("calls", "self_s")),
    ("logconvexity.s_prime_form", ("calls", "self_s")),
    ("logconvexity.diverse_ensemble", ("calls", "self_s")),
    ("logconvexity.fit_observability_constants", ("calls", "self_s")),
    ("logconvexity.interpolation_check", ("calls", "self_s")),
    ("logconvexity.commutator_identity_check", ("calls", "self_s")),
    ("control.calibrate_kappa", ("calls",)),
    ("control.synthesize", ("calls", "self_s")),
    ("control.cost_study", ("calls", "self_s")),
    ("control.gramian_apply", ("calls", "self_s")),
    ("reporting.canonical_json", ("self_s",)),
    ("reporting.csv_text", ("self_s",)),
) + tuple(("cli." + stage, ("self_s",)) for stage in STAGE_METRICS)



def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, kinds in LAYER_SPANS:
        for kind in kinds:
            units[f"{span}.{kind}"] = "count" if kind == "calls" else "s"
        if span == "evolve.step":
            units["evolve.step.us_per_call"] = "us"
    units.update((c, "bytes" if c == "reporting.bytes_written" else "count")
                 for c in COUNTERS if c != "control.certified")
    units["control.certified_ratio"] = "ratio"
    units.update((f"{module}.incl_s", "s") for module in MODULES)
    units["trace_overhead_ratio"] = "ratio"
    return units


# -- one pipeline ------------------------------------------------------------

@dataclass
class PipelineRun:
    input_index: int
    traced: bool
    stage_s: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)      # stage -> {file: sha256}
    failed: dict = field(default_factory=dict)       # stage -> reason
    layers: dict | None = None
    probe_s: float | None = None    # mean speed-probe sample during the run

    @property
    def pipeline_s(self):
        return sum(self.stage_s.values())

    @property
    def pipeline_rel(self):
        return self.pipeline_s / self.probe_s


def _listing(directory):
    return {entry.name: (entry.stat().st_size, entry.stat().st_mtime_ns)
            for entry in os.scandir(directory) if entry.is_file()}


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def stage_argv(stage, config, out_dir, input_seed):
    if stage == "report":
        return ["report", "--out", str(out_dir)]
    return [stage, "--config", str(config), "--out", str(out_dir),
            "--seed", str(input_seed)]


def run_pipeline(cli_main, stages, config, input_seed, out_dir, input_index,
                 tracer=None, probe=None):
    """Run the stages into a fresh directory; time, check and hash each one.

    pipeline_s is the sum of the stage calls; listing the directory to see
    what a stage wrote happens between the timed calls.  With a running
    ``probe``, its samples are left out of the stage times, and one sample
    is taken up front so that every pipeline has at least one.
    """
    run = PipelineRun(input_index=input_index, traced=tracer is not None)
    if probe is not None:
        first = len(probe.samples)
        probe.sample()
    os.makedirs(out_dir)
    before, written = {}, {}
    for stage in stages:
        argv = stage_argv(stage, config, out_dir, input_seed)
        busy = probe.busy_s if probe is not None else 0.0
        start = time.perf_counter()
        try:
            rc = tracer.stage(stage, cli_main, argv) if tracer else cli_main(argv)
        except (Exception, SystemExit) as exc:   # a crash is a failed invocation
            rc = f"{type(exc).__name__}: {exc}"
        run.stage_s[stage] = time.perf_counter() - start
        if probe is not None:
            run.stage_s[stage] -= probe.busy_s - busy
        if rc != 0:
            run.failed[stage] = f"exit {rc}"
        after = _listing(out_dir)
        written[stage] = sorted(f for f, sig in after.items() if before.get(f) != sig)
        before = after
    run.outputs = {stage: {f: _sha256(Path(out_dir) / f) for f in files}
                   for stage, files in written.items()}
    if "report" in stages and "report" not in run.failed:
        try:
            passed = json.loads((Path(out_dir) / "report.json").read_text())["all_passed"]
        except (OSError, ValueError, KeyError) as exc:
            passed = f"unreadable report.json ({exc})"
        if passed is not True:
            run.failed["report"] = f"all_passed is {passed!r}"
    shutil.rmtree(out_dir)
    if probe is not None:
        run.probe_s = statistics.mean(probe.samples[first:])
    return run


# -- statistics --------------------------------------------------------------

def summarize(samples):
    """Median, the highest percentile with >= 10 samples above it, and n."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs) if xs else None, "n": n,
           "tail_pct": None, "tail": None, "samples": list(samples)}
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(q / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            out["tail_pct"], out["tail"] = q, xs[rank - 1]
            break
    return out


def per_input_median(runs, value):
    """Mean over inputs of each input's median: inputs differ in how much
    work they do, and a median over the mixed pipelines would jump between
    them."""
    by_input = {}
    for run in runs:
        by_input.setdefault(run.input_index, []).append(value(run))
    return statistics.mean(statistics.median(v) for v in by_input.values())


def layer_values(tracer):
    """Per-layer values of the pipeline the tracer just recorded."""
    values = {}
    for span, kinds in LAYER_SPANS:
        for kind in kinds:
            source = tracer.calls if kind == "calls" else tracer.self_s
            values[f"{span}.{kind}"] = source.get(span, 0)
    steps = tracer.calls.get("evolve.step", 0)
    values["evolve.step.us_per_call"] = (
        1e6 * tracer.self_s.get("evolve.step", 0.0) / steps if steps else 0.0)
    values.update((k, tracer.counters[k]) for k in COUNTERS)
    values.update((f"{m}.incl_s", tracer.incl_s[m]) for m in MODULES)
    return values


def absent_metrics(tracer):
    """Per-layer metrics whose span or counter source no longer exists."""
    gone = set()
    for name in per_layer_units():
        stem = name.rsplit(".", 1)[0]
        if name in tracer.absent or stem in tracer.absent:
            gone.add(name)
    if "control.certified" in tracer.absent or "control.synthesize" in tracer.absent:
        gone.add("control.certified_ratio")
    return sorted(gone)


def aggregate_layers(runs, n_inputs):
    """Counts: mean per pipeline over the inputs (each must repeat exactly).
    Times: median over traced pipelines.  Returns (metrics, repeat errors)."""
    traced = [r for r in runs if r.traced]
    units = per_layer_units()
    # work counts must repeat exactly for every input
    counted = {k for k, u in units.items() if u in ("count", "bytes")} | set(COUNTERS)
    first, errors = {}, []
    for run in traced:
        counts = {k: v for k, v in run.layers.items() if k in counted}
        ref = first.setdefault(run.input_index, counts)
        errors += [f"input {run.input_index}: {k} {ref[k]} then {v}"
                   for k, v in counts.items() if v != ref[k]]
    out = {}
    for name, unit in units.items():
        if unit in ("count", "bytes"):
            out[name] = sum(c[name] for c in first.values()) / n_inputs
        elif name in traced[0].layers:
            out[name] = statistics.median(r.layers[name] for r in traced)
    synth = sum(c["control.synthesize.calls"] for c in first.values())
    certified = sum(c["control.certified"] for c in first.values())
    out["control.certified_ratio"] = certified / synth if synth else 0.0
    untraced = statistics.median(r.pipeline_s for r in runs if not r.traced)
    out["trace_overhead_ratio"] = (
        statistics.median(r.pipeline_s for r in traced) / untraced)
    return out, errors


# -- the run -----------------------------------------------------------------

def probe_setup(config):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(config)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, tiny=False, spans_path=None):
    """Run one workload; returns the full result document.

    With ``trace`` and ``spans_path`` the spans of the last traced pipeline
    are written there.
    """
    import dynheat.cli

    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        seeds = workload.input_seeds(seed)
        configs = []
        for s in seeds:
            path = work / f"input-{s}.ini"
            path.write_text(workload.config_text(s, tiny))
            configs.append(path)
        setup = [] if trace else [probe_setup(configs[0]) for _ in range(SETUP_REPEATS)]

        def pipeline(index, name, tracer=None, probe=None):
            return run_pipeline(dynheat.cli.main, workload.stages, configs[index],
                                seeds[index], work / name, index, tracer, probe)

        warmup = pipeline(0, "warmup")
        tracer = Tracer() if trace else None
        runs = []
        k = len(seeds)
        start = time.perf_counter()
        with contextlib.nullcontext() if trace else SpeedProbe() as probe:
            while len(runs) < 2 * k or time.perf_counter() - start < seconds:
                i = len(runs)
                traced = trace and i % 2 == 1
                index = (i // 2) % k if trace else i % k
                if traced:
                    tracer.reset()
                    tracer.install()
                    try:
                        run = pipeline(index, f"run-{i}", tracer)
                    finally:
                        tracer.uninstall()
                    run.layers = layer_values(tracer)
                else:
                    run = pipeline(index, f"run-{i}", probe=probe)
                runs.append(run)
        measured_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # correctness: exit codes and report flags, then byte identity per input
    reference, digests, failures = {}, {}, []
    attempted = failed = 0
    for run in [warmup] + runs:
        ref = reference.setdefault(run.input_index, run.outputs)
        for stage in workload.stages:
            attempted += 1
            reason = run.failed.get(stage)
            if reason is None and run.outputs.get(stage) != ref.get(stage):
                reason = "artifacts differ from an earlier repeat of the same input"
            if reason is not None:
                failed += 1
                failures.append(f"input {seeds[run.input_index]} {stage}: {reason}")
    for index, outputs in sorted(reference.items()):
        lines = sorted(f"{f} {h}" for files in outputs.values() for f, h in files.items())
        digests[str(seeds[index])] = hashlib.sha256("\n".join(lines).encode()).hexdigest()

    untraced = [r for r in runs if not r.traced]
    stages = {STAGE_METRICS[s]: summarize([r.stage_s[s] for r in untraced])
              for s in workload.stages}
    stages["pipeline_s"] = summarize([r.pipeline_s for r in untraced])
    if not trace:
        stages["pipeline_rel"] = summarize([r.pipeline_rel for r in untraced])
        stages["probe_s"] = summarize([r.probe_s for r in untraced])
    doc = {
        "workload": workload.name, "seed": seed, "input_seeds": seeds,
        "seconds": seconds, "measured_s": measured_s, "trace": int(trace),
        "tiny": tiny, "machine": envinfo.machine_info(seed),
        "attempted": attempted, "failed": failed, "failures": failures,
        "failed_ratio": failed / attempted,
        "artifact_sha256": digests, "stages": stages,
    }
    if trace:
        layers, repeat_errors = aggregate_layers(runs, k)
        doc["absent"] = absent_metrics(tracer)
        doc["counter_repeat_errors"] = repeat_errors
        doc["metrics"] = {name: {"value": layers[name], "unit": unit}
                          for name, unit in per_layer_units().items()}
        if spans_path is not None:
            tracer.write_spans(spans_path)
    else:
        doc["setup_s"] = summarize(setup)
        values = {"pipeline_rel": per_input_median(untraced, lambda r: r.pipeline_rel),
                  "setup_s": doc["setup_s"]["median"],
                  "peak_rss_mb": peak_rss_mb}
        doc["metrics"] = {name: {"value": values[name], "unit": unit}
                          for name, unit in END_TO_END.items()}
    doc["correct"] = failed == 0 and not doc.get("counter_repeat_errors")
    return doc


def _describe(doc):
    """Human-readable lines: every metric with its unit."""
    lines = [f"workload {doc['workload']} seed {doc['seed']} inputs "
             f"{doc['input_seeds']} trace {doc['trace']}: "
             f"{len(doc['stages'])} stage metrics, measured {doc['measured_s']:.1f} s"]
    for name, stat in doc["stages"].items():
        unit = "ratio" if name == "pipeline_rel" else "s"
        tail = (f"p{stat['tail_pct']:g} {stat['tail']:.6g} {unit}" if stat["tail"] is not None
                else "no percentile with 10 samples above it")
        lines.append(f"  {name}: median {stat['median']:.6g} {unit}, {tail}, "
                     f"n={stat['n']}")
    if "setup_s" in doc:
        lines.append(f"  setup_s: median {doc['setup_s']['median']:.6g} s, "
                     f"n={doc['setup_s']['n']} fresh interpreters (gated)")
    absent = set(doc.get("absent", ()))
    for name, metric in doc["metrics"].items():
        if name == "setup_s":
            continue
        note = " (absent: source no longer exists)" if name in absent else ""
        if name == "pipeline_rel":
            note = " (gated: mean over inputs of each input's median)"
        elif name in END_TO_END:
            note = " (gated)"
        lines.append(f"  {name}: {metric['value']:.6g} {metric['unit']}{note}")
    lines.append(f"  failed_ratio: {doc['failed_ratio']:.6g} ratio "
                 f"({doc['failed']} of {doc['attempted']} stage invocations)")
    lines += [f"  FAILED {f}" for f in doc["failures"]]
    lines += [f"  COUNTER DID NOT REPEAT {e}" for e in doc.get("counter_repeat_errors", ())]
    lines += [f"  artifacts sha256 input {s}: {h}" for s, h in doc["artifact_sha256"].items()]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "dynheat" / "__init__.py").is_file():
        print(f"error: no dynheat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace), spans_path=RESULTS / f"{stem}-spans.csv.gz")
    (RESULTS / f"{stem}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for line in _describe(doc):
        print(line)
    print(json.dumps({key: doc[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
