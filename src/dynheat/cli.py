"""Batch entry point: wires run configs to module operations and emits
machine-readable artifacts.

Exit codes: 0 when the run completed and every certification in scope
passed; 1 when a certification failed; 2 on configuration or usage errors,
and when a stage runs out of memory (the message names the [grid] keys and
ensemble.count); 3 on numerical failures, which also write failure.json
(stage, error class, message, diagnostics) into the artifact directory.
That stage removes it when it next completes, and report fails while one
is present.
Every number written to an artifact comes from a module operation; the CLI
only aggregates (observe certifies with the largest member C of its one
FrequencyTrace).  Artifact names and the pass rule come from
reporting.ARTIFACTS and reporting.passed, which report reads too.

control calibrates kappa by doubling from 1 and never reads constants.json;
cost-study seeds each eps level from the fit that observe wrote there, when
it is present.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import control as ctl
from . import logconvexity as lc
from .config import load_config
from .discretize import assemble_operator
from .errors import (CalibrationError, ConfigurationError, DegenerateDataError,
                     DynHeatError, FitFailureError, NumericalError,
                     ParameterError, UsageError)
from .evolve import propagate, propagate_impulsive
from .reporting import (ARTIFACTS, REPORT, canonical_json, check, csv_text,
                        merge_report, passed, read_json, write_text)

EXIT_OK = 0
EXIT_CERT_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# the ObservabilityFit fields that observe writes and cost-study reads back
_FIT_KEYS = ("beta", "mu", "K", "K1", "K2", "M1", "M2", "delta", "log_G", "n_members")


def _emit(out_dir, section, doc, *tables):
    """Write the section's tables and then its document under the names
    reporting.ARTIFACTS gives; EXIT_OK exactly when the document passes."""
    for name, text in zip(ARTIFACTS[section], tables + (canonical_json(doc),),
                          strict=True):
        write_text(os.path.join(out_dir, name), text)
    return EXIT_OK if passed(doc) else EXIT_CERT_FAILED


def _unit_random_states(ops, count, seed, initial):
    """Seeded unit-norm initial states as an (n, count) block, one member per
    column; the zero mode returns zero states."""
    if initial == "zero":
        return np.zeros((ops.n_dofs, count))
    # row k of one (count, n) draw is the k-th of count draws of n numbers
    block = np.random.default_rng(seed).standard_normal((count, ops.n_dofs)).T
    return block / ops.norm(block)


def _interpolation_triples(seed, members, n_times):
    """Ten triples of distinct sample indices per member, each sorted, as
    an integer array (members, 10, 3), drawn from default_rng((seed, 2)):
    the indices of the three smallest of n_times uniform numbers.  Those
    numbers come in a uniformly random order, so every sorted triple is
    equally likely.  One call per member holds 10 n_times numbers and
    draws the numbers of one (members, 10, n_times) call."""
    rng = np.random.default_rng((seed, 2))
    triples = np.empty((members, 10, 3), dtype=np.intp)
    for j in range(members):
        draws = rng.random((10, n_times))
        triples[j] = np.sort(np.argpartition(draws, 2, axis=-1)[:, :3], axis=-1)
    return triples


def _cmd_simulate(cfg, out_dir):
    grid = cfg.grid()
    ops = assemble_operator(grid)
    sched = cfg.schedule()
    state0 = _unit_random_states(ops, 1, cfg.seed, cfg.initial)[:, 0]

    if cfg.tau is None:
        _, rec = propagate(ops, state0, sched)
        info = {}
    else:
        rng = np.random.default_rng((cfg.seed, 1))
        payload = rng.standard_normal(grid.omega_idx.size)
        _, rec, info = propagate_impulsive(ops, state0, cfg.tau, payload, sched)
    # the kick is the one zero-length step: it is neither checked for
    # contraction nor written twice
    moved = np.diff(rec.times) > 0.0
    keep = np.concatenate([[True], moved])
    contracts = np.diff(rec.norms)[moved] <= 1e-12 * rec.norms[0]
    doc = {
        "scheme": sched.scheme, "dt": sched.dt, "T": sched.t1,
        "tau_effective": info.get("tau_effective"),
        "norm_initial": float(rec.norms[0]),
        "norm_final": float(rec.norms[-1]),
        "norm_before_kick": info.get("norm_before_kick"),
        "norm_after_kick": info.get("norm_after_kick"),
        "checks": {"contraction": check(contracts.size, np.count_nonzero(~contracts))},
    }
    return _emit(out_dir, "simulate", doc, csv_text(
        ["t", "norm"], np.column_stack([rec.times[keep], rec.norms[keep]])))


def _cmd_observe(cfg, out_dir):
    grid = cfg.grid()
    ops = assemble_operator(grid)
    sched = cfg.schedule()
    params = cfg.weight_params()

    if cfg.initial == "zero":
        raise ConfigurationError(
            "ensemble.initial = zero cannot drive an observation ensemble")
    if sched.steps < 2:
        raise ConfigurationError(
            f"observe needs at least 3 time samples; time.dt = {sched.dt} "
            f"gives {sched.steps + 1} over [0, {sched.t1}]")
    if cfg.ensemble_count < 2:
        raise ConfigurationError(
            f"observe needs at least 2 members; ensemble.count = {cfg.ensemble_count}")
    states = lc.diverse_ensemble(ops, cfg.ensemble_count, cfg.seed, sched)
    trace = lc.run_traces(ops, params, states, sched)
    C = float(trace.C.max())
    bound = check(trace.Q.size, lc.count_bound_violations(trace, C))

    # ten sorted triples of distinct samples per member, one draw per member
    triples = _interpolation_triples(cfg.seed, *trace.normF2.shape)
    passes = lc.interpolation_check(trace.t, trace.normF2, params, C, triples).passed

    fit = lc.fit_observability_constants(ops, sched, states, trace.final)
    steps = lc.step_constants(grid.domain, params, C, cfg.ell)

    # the sign condition is reported, not certified: it is a property of the
    # configured chain length, not of the run
    doc = {
        "C0": params.C0, "C": C, "ell": steps.ell,
        "M_ell": steps.M_ell, "D_ell": steps.D_ell,
        "sign_lhs": steps.sign_lhs, "sign_ok": steps.sign_ok,
        "checks": {"bound": bound, "interpolation": check(passes.size, np.count_nonzero(~passes))},
        **{key: getattr(fit, key) for key in _FIT_KEYS},
    }
    return _emit(out_dir, "observe", doc, csv_text(
        ["t", "normF2", "N", "Q", "bound"], trace.rows(0, C)))


def _cmd_commutator_check(cfg, out_dir):
    domain = cfg.domain()
    params = cfg.weight_params()
    t_check = 0.5 * params.T
    if domain.kind == "interval":
        center = [domain.interval_center]
        width = 0.3 * (domain.b - domain.a)
    else:
        center = list(domain.center)
        width = 0.55 * domain.radius
    family = lc.InteriorBump(center=center, width=width)
    resolutions = [{key: level * value for key, value in cfg.grid_args.items()}
                   for level in (1, 2, 4)]
    rep = lc.commutator_identity_check(domain, params, t_check, family,
                                       resolutions)

    res_labels = ["x".join(map(str, r.values())) for r in rep.resolutions]
    falls = np.diff(rep.rel_residual) < 0.0
    rows = [[res_labels[i], rep.spacings[i], rep.lhs[i], rep.rhs[i],
             rep.rel_residual[i]] for i in range(len(res_labels))]
    doc = {
        "t": t_check, "family_width": family.width,
        "resolutions": res_labels,
        "rel_residuals": list(rep.rel_residual),
        "orders": list(rep.orders),
        "checks": {"monotone": check(falls.size, np.count_nonzero(~falls))},
    }
    return _emit(out_dir, "commutator", doc, csv_text(
        ["resolution", "spacing", "lhs", "rhs", "rel_residual"], rows))


def _cmd_control(cfg, out_dir):
    grid = cfg.grid()
    ops = assemble_operator(grid)
    sched = cfg.schedule()
    if cfg.tau is None:
        raise ConfigurationError("missing config key: impulse.tau")
    eps = cfg.eps_list[0]
    prob = ctl.ControlProblem(tau=cfg.tau, eps=eps, kappa=cfg.kappa,
                              cg_tol=cfg.cg_tol, cg_maxit=cfg.cg_maxit)
    psi0s = _unit_random_states(ops, 1, cfg.seed, cfg.initial)

    if cfg.kappa is None:
        result = ctl.calibrate_kappa(ops, prob, sched, psi0s).result
    else:
        result = ctl.synthesize(ops, prob, sched, psi0s)

    doc = result.summary(0)
    doc["checks"] = {key: check(1, not doc["flags"].pop(key)) for key in ("target", "cost")}
    return _emit(out_dir, "control", doc)


def _cmd_cost_study(cfg, out_dir):
    grid = cfg.grid()
    ops = assemble_operator(grid)
    sched = cfg.schedule()
    if cfg.tau is None:
        raise ConfigurationError("missing config key: impulse.tau")
    prob = ctl.ControlProblem(tau=cfg.tau, eps=cfg.eps_list[0],
                              cg_tol=cfg.cg_tol, cg_maxit=cfg.cg_maxit)
    psi0s = _unit_random_states(ops, cfg.ensemble_count, cfg.seed, cfg.initial)

    constants = None
    constants_path = os.path.join(out_dir, ARTIFACTS["observe"][-1])
    if os.path.exists(constants_path):
        doc = read_json(constants_path, _FIT_KEYS)
        constants = lc.ObservabilityFit(**{key: doc[key] for key in _FIT_KEYS})

    study = ctl.cost_study(ops, prob, sched, list(cfg.eps_list), psi0s,
                           constants=constants)
    rows = [[r.eps, r.sup_cost, r.kappa, r.passes] for r in study.rows]
    doc = {
        "rows": [{"eps": r.eps, "sup_cost": r.sup_cost, "kappa": r.kappa,
                  "passes": r.passes} for r in study.rows],
        "slope": study.slope,
        "delta_fitted": study.delta_fitted,
        "checks": {"certified": check(1, not study.all_certified),
                   "nondecreasing": check(1, not study.nondecreasing)},
    }
    return _emit(out_dir, "cost_study", doc,
                 csv_text(["eps", "sup_cost", "kappa", "passes"], rows))


def _cmd_report(cfg, out_dir):
    report = merge_report(out_dir)
    write_text(os.path.join(out_dir, REPORT), canonical_json(report))
    return EXIT_OK if report["all_passed"] else EXIT_CERT_FAILED


_COMMANDS = {
    "simulate": _cmd_simulate,
    "observe": _cmd_observe,
    "commutator-check": _cmd_commutator_check,
    "control": _cmd_control,
    "cost-study": _cmd_cost_study,
    "report": _cmd_report,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dynheat",
        description="Heat flow with dynamic boundary conditions: propagation, "
                    "log-convexity certification, impulsive control synthesis.")
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="path to the run-config file")
    parser.add_argument("--out", help="artifact directory (default from config)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the ensemble seed")
    return parser


# argparse asks for the terminal size on every add_argument, so the parser
# is built once, not on each of the in-process calls of main
_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    cfg = out_dir = None
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigurationError(f"--seed must be >= 0, got {args.seed}")
        if args.subcommand == "report" and args.config is None:
            cfg = None
            out_dir = args.out
            if out_dir is None:
                raise ConfigurationError("report needs --out or --config")
        else:
            if args.config is None:
                raise ConfigurationError(f"{args.subcommand} needs --config")
            cfg = load_config(args.config)
            if args.seed is not None:
                cfg.seed = args.seed
            out_dir = args.out or cfg.out_dir or "."
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot make the artifact directory {out_dir}: {exc.strerror}") from exc
        code = _COMMANDS[args.subcommand](cfg, out_dir)
        failure = os.path.join(out_dir, "failure.json")
        if os.path.exists(failure) and read_json(failure).get("stage") == args.subcommand:
            os.remove(failure)
        return code
    except (ConfigurationError, UsageError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, CalibrationError, FitFailureError,
            DegenerateDataError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        if out_dir is not None:
            write_text(os.path.join(out_dir, "failure.json"), canonical_json(
                {"stage": args.subcommand, "error": type(exc).__name__,
                 "message": str(exc), "diagnostics": getattr(exc, "diagnostics", {})}))
        return EXIT_NUMERICAL
    except DynHeatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # sizes that pass the config checks but that this machine cannot hold
        sizes = "" if cfg is None else " with " + " and ".join(
            [f"grid.{key} = {value}" for key, value in cfg.grid_args.items()]
            + [f"ensemble.count = {cfg.ensemble_count}"])
        print(f"error: {args.subcommand} ran out of memory{sizes}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
