"""Exit codes, artifact digests and checks of a benchmark workload's inputs.

    python3 tools/artifact_digests.py --workload pipeline-interval --seeds 1000-1099

For every benchmark seed s from A to B the workload's inputs are the
configs that ``perfbench/workloads.py`` generates, one per ensemble seed
``s * inputs + j``.  Each input runs its stages in process through
``dynheat.cli.main`` into a fresh directory, with the arguments the
benchmark passes.  The script prints one JSON object: per input and stage
the exit code, the first line the stage printed to stderr when it exited
nonzero, the sha256 of every file it wrote or changed, the files it
removed and the ``checks`` of the stage document it wrote (none when the
document has none, as an older checkout's may not); ``nonzero``
lists every nonzero exit, and ``failing`` maps each ``stage.check`` to the
inputs with a violation of it.  Two checkouts give the same bytes on those
inputs when their outputs are equal:

    python3 tools/artifact_digests.py --workload W --seeds A-B > change.json
    python3 tools/artifact_digests.py --workload W --seeds A-B --root ../parent > parent.json
    diff parent.json change.json

``--root`` names the checkout whose ``src/dynheat`` and
``perfbench/workloads.py`` are run; by default the one holding this script.
BLAS and OpenMP pools are held to one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _seed_range(text):
    first, sep, last = text.partition("-")
    try:
        first, last = int(first), int(last if sep else first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}") from None
    if not 0 <= first <= last:
        raise argparse.ArgumentTypeError(f"expected 0 <= A <= B, got {text!r}")
    return range(first, last + 1)


def _load(root):
    """dynheat.cli's main, the names of the stage documents and perfbench's
    workloads from the checkout root."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import dynheat.cli
    import dynheat.reporting
    import workloads
    for module in (dynheat.cli, dynheat.reporting, workloads):
        if not Path(module.__file__).resolve().is_relative_to(root):
            raise SystemExit(f"{module.__name__} was imported from {module.__file__}, "
                             f"not from {root}")
    documents = {names[-1] for names in dynheat.reporting.ARTIFACTS.values()}
    return dynheat.cli.main, documents, workloads.WORKLOADS


def _digests(directory):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.iterdir()) if path.is_file()}


def run_input(main, documents, workload, input_seed, work):
    """{stage: record} for one input, run in a fresh directory under work."""
    config = work / f"input{input_seed}.ini"
    config.write_text(workload.config_text(input_seed))
    out = work / f"out{input_seed}"
    records, before = {}, {}
    for stage in workload.stages:
        argv = (["report", "--out", str(out)] if stage == "report" else
                [stage, "--config", str(config), "--out", str(out),
                 "--seed", str(input_seed)])
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except (Exception, SystemExit) as exc:   # a crash is recorded, not raised
                code = f"raised {type(exc).__name__}: {exc}"
        after = _digests(out) if out.exists() else {}
        record = {"exit": code,
                  "files": {f: d for f, d in after.items() if before.get(f) != d},
                  "removed": sorted(set(before) - set(after))}
        if code != 0:
            record["error"] = (err.getvalue().strip().splitlines() or [""])[0]
        for name in documents.intersection(record["files"]):
            doc = json.loads((out / name).read_text())
            if "checks" in doc:
                record["checks"] = doc["checks"]
        records[stage] = record
        before = after
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seed_range,
                        help="benchmark seeds A-B, both included")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout to run (default: the one holding this script)")
    args = parser.parse_args(argv)
    cli_main, documents, workloads = _load(args.root.resolve())
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}, pick one of {sorted(workloads)}")
    workload = workloads[args.workload]

    inputs, nonzero, failing = {}, [], {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for input_seed in workload.input_seeds(seed):
                inputs[input_seed] = run_input(cli_main, documents, workload, input_seed,
                                               Path(tmp))
                for stage, rec in inputs[input_seed].items():
                    if rec["exit"] != 0:
                        nonzero.append([input_seed, stage, rec["exit"]])
                    for name, check in rec.get("checks", {}).items():
                        if check["violations"]:
                            failing.setdefault(f"{stage}.{name}", []).append(input_seed)
    json.dump({"workload": workload.name,
               "seeds": [args.seeds.start, args.seeds.stop - 1],
               "inputs": inputs, "nonzero": nonzero, "failing": failing},
              sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
