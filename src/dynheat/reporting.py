"""Canonical report serialization.

All floats render with 17 significant digits and JSON keys are sorted, so
a run's artifacts are byte-identical across repeated invocations with the
same seed: certification decisions stay reproducible.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import ConfigurationError, UsageError

FLOAT_FMT = "%.17g"


def format_float(x):
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise UsageError(f"non-finite value {x!r} cannot enter a report")
    return FLOAT_FMT % x


def _render(obj):
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_render(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise UsageError(f"report keys must be strings, got {key!r}")
            items.append(json.dumps(key) + ":" + _render(obj[key]))
        return "{" + ",".join(items) + "}"
    raise UsageError(f"cannot serialize {type(obj).__name__} into a report")


def canonical_json(obj):
    """Render obj as deterministic JSON text (sorted keys, 17-digit floats)."""
    return _render(obj) + "\n"


def csv_text(header, rows):
    """Render a table as deterministic CSV text."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (bool, np.bool_)):
                cells.append("true" if v else "false")
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            elif isinstance(v, str):
                cells.append(v)
            else:
                cells.append(format_float(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_text(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# artifact names each subcommand emits; report() merges whichever exist
ARTIFACTS = {
    "simulate": ("trajectory.csv", "simulate.json"),
    "observe": ("frequency_trace.csv", "constants.json"),
    "commutator": ("commutator_residuals.csv", "commutator.json"),
    "control": ("control_result.json",),
    "cost_study": ("cost_study.csv", "cost_study.json"),
}


def merge_report(directory):
    """Merge prior run artifacts in directory into one report document.

    Sections without artifacts come out null; an empty directory is an
    error listing every recognized artifact.  A failure.json is copied
    under "failure" and fails the report.  The merge reads only files,
    so running it twice produces the same document.
    """
    found_any = False
    report = {}
    flags = []

    def have(names):
        return all(os.path.exists(os.path.join(directory, n)) for n in names)

    if have(ARTIFACTS["simulate"]):
        found_any = True
        doc = read_json(os.path.join(directory, "simulate.json"))
        report["simulate"] = doc
        flags.append(bool(doc["contraction"]))
    else:
        report["simulate"] = None

    if have(ARTIFACTS["observe"]):
        found_any = True
        doc = read_json(os.path.join(directory, "constants.json"))
        report["observe"] = doc
        flags.append(doc["bound_violations"] == 0)
        flags.append(doc["interpolation_violations"] == 0)
    else:
        report["observe"] = None

    if have(ARTIFACTS["commutator"]):
        found_any = True
        doc = read_json(os.path.join(directory, "commutator.json"))
        report["commutator"] = doc
        flags.append(bool(doc["monotone"]))
    else:
        report["commutator"] = None

    if have(ARTIFACTS["control"]):
        found_any = True
        doc = read_json(os.path.join(directory, "control_result.json"))
        report["control"] = doc
        flags.append(bool(doc["flags"]["target"] and doc["flags"]["cost"]))
    else:
        report["control"] = None

    if have(ARTIFACTS["cost_study"]):
        found_any = True
        doc = read_json(os.path.join(directory, "cost_study.json"))
        report["cost_study"] = doc
        flags.append(bool(doc["all_certified"]))
        flags.append(bool(doc["nondecreasing"]))
    else:
        report["cost_study"] = None

    if have(("failure.json",)):
        found_any = True
        report["failure"] = read_json(os.path.join(directory, "failure.json"))
        flags.append(False)

    if not found_any:
        wanted = sorted({n for names in ARTIFACTS.values() for n in names})
        raise ConfigurationError(
            "no run artifacts found; expected any of: " + ", ".join(wanted))

    report["all_passed"] = all(flags)
    return report
