"""Every stage on generated tiny interval configs either runs or exits with
a named reason: exit codes stay in {0, 1, 2, 3}, no stage ends in a
traceback, and exit 1 always comes with a failed flag in its artifact."""

import contextlib
import io
import json
import os
import tempfile
import traceback

from hypothesis import given, settings, strategies as st

from dynheat.cli import main

from test_cli import PIPELINE


def _failed_flag(stage, out):
    def doc(name):
        with open(os.path.join(out, name)) as fh:
            return json.load(fh)

    if stage == "simulate":
        return not doc("simulate.json")["contraction"]
    if stage == "observe":
        d = doc("constants.json")
        return d["bound_violations"] > 0 or d["interpolation_violations"] > 0
    if stage == "commutator-check":
        return not doc("commutator.json")["monotone"]
    if stage == "control":
        flags = doc("control_result.json")["flags"]
        return not (flags["target"] and flags["cost"])
    if stage == "cost-study":
        d = doc("cost_study.json")
        return not (d["all_certified"] and d["nondecreasing"])
    return not doc("report.json")["all_passed"]


@st.composite
def interval_configs(draw):
    # omega and the anchor are valid (lo < x0 < hi inside (0, 1)); the
    # other keys reach every configuration error on their own
    lo, x0, hi = sorted(draw(st.lists(st.integers(1, 19), min_size=3, max_size=3,
                                      unique=True)))
    T = draw(st.sampled_from([0.05, 0.1, 0.2]))
    steps = draw(st.integers(1, 10))
    eps = draw(st.lists(st.sampled_from(["0.3", "0.1", "0.02", "1e-200"]),
                        min_size=1, max_size=2))
    kappa = draw(st.sampled_from(["auto", "1.0", "50.0", "1e200", "1e-300"]))
    return f"""\
[domain]
kind = interval
a = 0.0
b = 1.0
x0 = {x0 / 20}

[omega]
lo = {lo / 20}
hi = {hi / 20}

[grid]
n = {draw(st.integers(3, 24))}

[weight]
s = {draw(st.sampled_from([0.1, 0.5, 0.9]))}
h_weight = {draw(st.sampled_from([0.01, 0.1, 0.5]))}
ell = {draw(st.sampled_from([1.0, 2.0, 4.0]))}

[time]
T = {T}
dt = {T / steps!r}
scheme = {draw(st.sampled_from(["crank_nicolson", "backward_euler"]))}

[impulse]
tau = {draw(st.integers(0, 20)) / 20 * T}

[control]
eps = {", ".join(eps)}
kappa = {kappa}
cg_maxit = {draw(st.sampled_from([2, 400]))}

[ensemble]
count = {draw(st.integers(0, 6))}
seed = {draw(st.integers(0, 9999))}
"""


@settings(max_examples=25, deadline=None)
@given(config=interval_configs())
def test_every_stage_exits_with_a_named_reason(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w") as fh:
            fh.write(config)
        out = os.path.join(tmp, "out")
        for stage in PIPELINE:
            err = io.StringIO()
            try:
                with contextlib.redirect_stderr(err):
                    code = main([stage, "--config", path, "--out", out])
            except Exception:
                raise AssertionError(f"{stage} raised:\n{traceback.format_exc()}\n{config}")
            assert code in (0, 1, 2, 3), (stage, code, config)
            assert "Traceback" not in err.getvalue(), (stage, err.getvalue(), config)
            if code == 1:
                assert _failed_flag(stage, out), (stage, config)
