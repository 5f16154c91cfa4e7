"""Run-configuration parsing: plain key/value blocks with strict validation.

The file format is INI-style sections.  Every key is checked against the
schema for its section and unknown keys are rejected by name, so a typo in
a tolerance key fails the run instead of silently using a default.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .control import DEFAULT_CG_MAXIT, DEFAULT_CG_TOL
from .discretize import build_grid
from .errors import ConfigurationError
from .evolve import SCHEMES, Schedule
from .geometry import DomainSpec, WeightParams

# section -> {key: (parser, required)}; parsers raise ValueError on bad text
_INT = int


def _FLOAT(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text.strip()!r}")
    return value


def _pair(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated numbers, got {text!r}")
    return (_FLOAT(parts[0]), _FLOAT(parts[1]))


def _float_list(text):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(_FLOAT(p) for p in parts)


def _count(text):
    value = int(text)
    if value < 0:
        raise ValueError(f"expected an integer >= 0, got {value}")
    return value


def _scheme(text):
    name = text.strip()
    if name not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {name!r}")
    return name


def _kappa_mode(text):
    name = text.strip()
    if name == "auto":
        return None
    return _FLOAT(name)


_SCHEMA = {
    "domain": {"kind": str, "a": _FLOAT, "b": _FLOAT, "center": _pair,
               "radius": _FLOAT, "x0": str},
    "omega": {"lo": _FLOAT, "hi": _FLOAT, "center": _pair, "radius": _FLOAT},
    "grid": {"n": _INT, "nr": _INT, "ntheta": _INT},
    "weight": {"s": _FLOAT, "h_weight": _FLOAT, "ell": _FLOAT},
    "time": {"T": _FLOAT, "dt": _FLOAT, "scheme": _scheme},
    "impulse": {"tau": _FLOAT},
    "control": {"eps": _float_list, "kappa": _kappa_mode, "cg_tol": _FLOAT,
                "cg_maxit": _INT},
    "ensemble": {"count": _count, "seed": _count, "initial": str},
    "output": {"dir": str},
}


@dataclass
class RunConfig:
    """Validated run parameters, one attribute per config block."""

    domain_kind: str
    domain_args: dict
    omega_args: dict
    grid_args: dict
    s: float
    h_weight: float
    ell: float
    T: float
    dt: float
    scheme: str
    tau: float | None
    eps_list: tuple
    kappa: float | None
    cg_tol: float
    cg_maxit: int
    ensemble_count: int
    seed: int
    initial: str = "random"
    out_dir: str | None = None
    _domain: DomainSpec = field(default=None, repr=False, compare=False)

    def domain(self):
        if self._domain is None:
            if self.domain_kind == "interval":
                spec = DomainSpec.interval(
                    self.domain_args["a"], self.domain_args["b"],
                    self.domain_args["x0"],
                    self.omega_args["lo"], self.omega_args["hi"])
            else:
                spec = DomainSpec.disk(
                    self.domain_args["center"], self.domain_args["radius"],
                    self.domain_args["x0"],
                    self.omega_args["center"], self.omega_args["radius"])
            object.__setattr__(self, "_domain", spec)
        return self._domain

    def grid(self):
        return build_grid(self.domain(), **self.grid_args)

    def weight_params(self):
        return WeightParams(s=self.s, h=self.h_weight, T=self.T)

    def schedule(self):
        return Schedule(0.0, self.T, self.dt, self.scheme)


def _get(sections, section, key, default=None, required=False):
    block = sections.get(section, {})
    if key in block:
        return block[key]
    if required:
        raise ConfigurationError(f"missing config key: {section}.{key}")
    return default


def _parse_sections(parser):
    sections = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown config section: {section}")
        schema = _SCHEMA[section]
        block = {}
        for key, raw in parser[section].items():
            if key not in schema:
                raise ConfigurationError(f"unknown config key: {section}.{key}")
            try:
                block[key] = schema[key](raw)
            except (ValueError, TypeError) as exc:
                raise ConfigurationError(
                    f"invalid value for {section}.{key}: {exc}") from exc
        sections[section] = block
    return sections


def load_config(path):
    """Parse and validate a run-config file into a RunConfig."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config file: {exc}") from exc
    if not read:
        raise ConfigurationError(f"config file not found: {path}")
    sections = _parse_sections(parser)

    kind = _get(sections, "domain", "kind", required=True).strip()
    if kind == "interval":
        x0_raw = _get(sections, "domain", "x0", required=True)
        try:
            x0 = _FLOAT(x0_raw)
        except ValueError as exc:
            raise ConfigurationError(
                f"invalid value for domain.x0: {exc}") from exc
        domain_args = {
            "a": _get(sections, "domain", "a", required=True),
            "b": _get(sections, "domain", "b", required=True),
            "x0": x0,
        }
        omega_args = {
            "lo": _get(sections, "omega", "lo", required=True),
            "hi": _get(sections, "omega", "hi", required=True),
        }
        grid_args = {"n": _get(sections, "grid", "n", required=True)}
    elif kind == "disk":
        x0_raw = _get(sections, "domain", "x0", required=True)
        try:
            x0 = _pair(x0_raw)
        except ValueError as exc:
            raise ConfigurationError(
                f"invalid value for domain.x0: {exc}") from exc
        domain_args = {
            "center": _get(sections, "domain", "center", required=True),
            "radius": _get(sections, "domain", "radius", required=True),
            "x0": x0,
        }
        omega_args = {
            "center": _get(sections, "omega", "center", required=True),
            "radius": _get(sections, "omega", "radius", required=True),
        }
        grid_args = {
            "nr": _get(sections, "grid", "nr", required=True),
            "ntheta": _get(sections, "grid", "ntheta", required=True),
        }
    else:
        raise ConfigurationError(
            f"invalid value for domain.kind: expected interval or disk, got {kind!r}")

    cfg = RunConfig(
        domain_kind=kind,
        domain_args=domain_args,
        omega_args=omega_args,
        grid_args=grid_args,
        s=_get(sections, "weight", "s", 0.5),
        h_weight=_get(sections, "weight", "h_weight", 0.5),
        ell=_get(sections, "weight", "ell", 4.0),
        T=_get(sections, "time", "T", 1.0),
        dt=_get(sections, "time", "dt", 1e-2),
        scheme=_get(sections, "time", "scheme", "crank_nicolson"),
        tau=_get(sections, "impulse", "tau"),
        eps_list=_get(sections, "control", "eps", (0.1,)),
        kappa=_get(sections, "control", "kappa"),
        cg_tol=_get(sections, "control", "cg_tol", DEFAULT_CG_TOL),
        cg_maxit=_get(sections, "control", "cg_maxit", DEFAULT_CG_MAXIT),
        ensemble_count=_get(sections, "ensemble", "count", 20),
        seed=_get(sections, "ensemble", "seed", 0),
        initial=_get(sections, "ensemble", "initial", "random"),
        out_dir=_get(sections, "output", "dir"),
    )
    if cfg.initial not in ("random", "zero"):
        raise ConfigurationError(
            f"invalid value for ensemble.initial: expected random or zero, "
            f"got {cfg.initial!r}")
    # fail fast on geometric inconsistencies so the error names the block
    try:
        cfg.domain()
    except ConfigurationError:
        raise
    except Exception as exc:
        raise ConfigurationError(f"invalid [domain]/[omega] block: {exc}") from exc
    # and on a [time] block that makes no schedule, whichever stage runs
    cfg.schedule()
    return cfg
