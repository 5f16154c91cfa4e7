"""Canonical report serialization and the one pass rule.

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
    """Render a table as deterministic CSV text.

    A float64 ndarray table (rows, columns) is checked for non-finite
    values once and rendered from Python floats; any other table cell by
    cell.  Both give the same bytes, and the first non-finite value in row
    order raises the same UsageError."""
    lines = [",".join(header)]
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.ndim == 2:
        finite = np.isfinite(rows)
        if not finite.all():
            # the first in row order raises the per-cell path's UsageError
            format_float(rows.flat[np.argmin(finite)])
        row_fmt = ",".join([FLOAT_FMT] * rows.shape[1])
        return "\n".join(lines + [row_fmt % tuple(row) for row in rows.tolist()]) + "\n"
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


def read_json(path, keys=()):
    """The JSON object at path, which must hold keys; when "checks" is one
    of them, it must map each check to a record as check() writes it."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise ConfigurationError(f"{path} is not a JSON document: {exc}") from None
    for key in keys:
        if not isinstance(doc, dict) or key not in doc:
            raise ConfigurationError(f"{path} lacks the key {key!r}")
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path} is not a JSON object")
    checks = doc["checks"] if "checks" in keys else {}
    if not (isinstance(checks, dict) and all(
            isinstance(record, dict) and all(type(record.get(key)) is int
                                             for key in ("checked", "violations"))
            for record in checks.values())):
        raise ConfigurationError(f"{path} has checks {checks!r}, not check() records")
    return doc


# artifact names each subcommand emits, its JSON document last;
# report() merges whichever sections are complete into REPORT
REPORT = "report.json"
ARTIFACTS = {
    "simulate": ("trajectory.csv", "simulate.json"),
    "observe": ("frequency_trace.csv", "constants.json"),
    "commutator": ("commutator_residuals.csv", "commutator.json"),
    "control": ("control_result.json",),
    "cost_study": ("cost_study.csv", "cost_study.json"),
}


def check(checked, violations):
    """One check's record: the items it checked and how many violate it."""
    return {"checked": int(checked), "violations": int(violations)}


def passed(doc):
    """Whether a stage document passes: no check record has a violation."""
    return all(record["violations"] == 0 for record in doc["checks"].values())


def merge_report(directory):
    """Merge prior run artifacts in directory into one report document.

    Sections without artifacts come out null.  An empty directory is an
    error listing every artifact, and a document without "checks" one
    naming it.  A failure.json is copied under "failure" and fails the
    report.  The merge reads only files, so it repeats its document.
    """
    def have(name):
        return os.path.exists(os.path.join(directory, name))

    report = {section: read_json(os.path.join(directory, names[-1]), ("checks",))
              if all(have(n) for n in names) else None
              for section, names in ARTIFACTS.items()}
    flags = [passed(doc) for doc in report.values() if doc is not None]

    if have("failure.json"):
        report["failure"] = read_json(os.path.join(directory, "failure.json"))
        flags.append(False)

    if not flags:
        wanted = sorted({n for names in ARTIFACTS.values() for n in names})
        raise ConfigurationError(
            "no run artifacts found; expected any of: " + ", ".join(wanted))

    report["all_passed"] = all(flags)
    return report
