"""Every stage on generated tiny interval and disk configs either runs or
exits with a named reason: exit codes stay in {0, 1, 2, 3}, no stage ends
in a traceback or raises a RuntimeWarning, and exit 1 always comes with a
failed flag in its artifact."""

import contextlib
import io
import json
import os
import tempfile
import traceback
import warnings

from hypothesis import example, given, settings, strategies as st

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


def _config(lo, x0, hi, T, steps, eps, kappa, n, s, h_weight, ell, scheme,
            tau, cg_maxit, count, seed):
    """Interval config text; lo, x0, hi and tau are in twentieths."""
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
n = {n}

[weight]
s = {s}
h_weight = {h_weight}
ell = {ell}

[time]
T = {T}
dt = {T / steps!r}
scheme = {scheme}

[impulse]
tau = {tau / 20 * T}

[control]
eps = {", ".join(eps)}
kappa = {kappa}
cg_maxit = {cg_maxit}

[ensemble]
count = {count}
seed = {seed}
"""


@st.composite
def interval_configs(draw):
    # omega and the anchor are valid (lo < x0 < hi inside (0, 1)); the
    # other keys reach every configuration error on their own
    lo, x0, hi = sorted(draw(st.lists(st.integers(1, 19), min_size=3, max_size=3,
                                      unique=True)))
    return _config(
        lo, x0, hi,
        T=draw(st.sampled_from([0.05, 0.1, 0.2])),
        steps=draw(st.integers(1, 10)),
        eps=draw(st.lists(st.sampled_from(["0.3", "0.1", "0.02", "1e-200"]),
                          min_size=1, max_size=2)),
        kappa=draw(st.sampled_from(["auto", "1.0", "50.0", "1e200", "1e-300"])),
        n=draw(st.integers(3, 24)),
        s=draw(st.sampled_from([0.1, 0.5, 0.9])),
        h_weight=draw(st.sampled_from([0.01, 0.1, 0.5])),
        ell=draw(st.sampled_from([1.0, 2.0, 4.0])),
        scheme=draw(st.sampled_from(["crank_nicolson", "backward_euler"])),
        tau=draw(st.integers(0, 20)),
        cg_maxit=draw(st.sampled_from([2, 400])),
        count=draw(st.integers(0, 6)),
        seed=draw(st.integers(0, 9999)))


_BASE = dict(lo=6, x0=10, hi=14, T=0.2, steps=10, kappa="auto", n=16, s=0.5,
             h_weight=0.5, ell=2.0, scheme="backward_euler", tau=10,
             cg_maxit=400, count=3, seed=7)


def _check_stages(config, stages):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w") as fh:
            fh.write(config)
        out = os.path.join(tmp, "out")
        for stage in stages:
            err = io.StringIO()
            try:
                # a RuntimeWarning (numpy's RankWarning is one) marks a
                # number the stage did not check
                with contextlib.redirect_stderr(err), warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    code = main([stage, "--config", path, "--out", out])
            except Exception:
                raise AssertionError(f"{stage} raised:\n{traceback.format_exc()}\n{config}")
            assert code in (0, 1, 2, 3), (stage, code, config)
            assert "Traceback" not in err.getvalue(), (stage, err.getvalue(), config)
            if code == 1:
                assert _failed_flag(stage, out), (stage, config)


@settings(max_examples=25, deadline=None)
@given(config=interval_configs())
# eps^delta leaves the float range in the fitted kappa seed
@example(config=_config(eps=["1e-200"], **_BASE))
@example(config=_config(eps=["1e200"], **_BASE))
# a log-log slope through two rows that share one eps
@example(config=_config(eps=["0.1", "0.1"], **_BASE))
def test_every_stage_exits_with_a_named_reason(config):
    _check_stages(config, PIPELINE)



DISK_STAGES = ("simulate", "observe", "commutator-check", "report")


def _disk_config(nr, ntheta, omega, x0, T, steps, s, h_weight, ell, scheme,
                 tau, count, seed):
    """Disk config text on the unit disk; tau is in twentieths of T."""
    return f"""\
[domain]
kind = disk
center = 0.0, 0.0
radius = 1.0
x0 = {x0[0]}, {x0[1]}

[omega]
center = {omega[0]}, {omega[1]}
radius = {omega[2]}

[grid]
nr = {nr}
ntheta = {ntheta}

[weight]
s = {s}
h_weight = {h_weight}
ell = {ell}

[time]
T = {T}
dt = {T / steps!r}
scheme = {scheme}

[impulse]
tau = {tau / 20 * T}

[ensemble]
count = {count}
seed = {seed}
"""


@st.composite
def disk_configs(draw):
    # the anchor sits at omega's centre, halfway to its rim or outside it;
    # omega may hold no node of a coarse grid, a configuration error of its
    # own, and only an anchor at the disk's centre passes commutator-check
    ox, oy, radius = draw(st.sampled_from([(0.0, 0.0, 0.5), (0.0, 0.0, 0.2),
                                           (0.3, -0.2, 0.4), (0.0, 0.0, 0.9)]))
    shift = draw(st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.5])) * radius
    return _disk_config(
        nr=draw(st.integers(2, 6)),
        ntheta=draw(st.integers(4, 12)),
        omega=(ox, oy, radius),
        x0=(ox + shift, oy),
        T=draw(st.sampled_from([0.05, 0.1, 0.2])),
        steps=draw(st.integers(1, 10)),
        s=draw(st.sampled_from([0.1, 0.5, 0.9])),
        h_weight=draw(st.sampled_from([0.01, 0.1, 0.5])),
        ell=draw(st.sampled_from([1.0, 2.0, 4.0])),
        scheme=draw(st.sampled_from(["crank_nicolson", "backward_euler"])),
        tau=draw(st.integers(0, 20)),
        count=draw(st.integers(0, 6)),
        seed=draw(st.integers(0, 9999)))


@settings(max_examples=40, deadline=None)
@given(config=disk_configs())
def test_every_disk_stage_exits_with_a_named_reason(config):
    _check_stages(config, DISK_STAGES)
