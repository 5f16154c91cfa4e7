"""Run-configuration parsing: plain key/value blocks with strict validation.

The file format is INI-style sections.  Every key is checked against the
schema for its section and unknown keys are rejected by name, so a typo in
a tolerance key fails the run instead of silently using a default.

domain.kind picks the [domain], [omega] and [grid] keys (see _KINDS):
interval takes a, b, x0; lo, hi; n.  disk takes center, radius, x0 (a
pair); center, radius; nr, ntheta.  A key of the other kind is rejected
by name as well.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .control import DEFAULT_CG_MAXIT, DEFAULT_CG_TOL
from .discretize import build_grid, check_grid_size
from .errors import ConfigurationError
from .evolve import SCHEMES, Schedule
from .geometry import DomainSpec, WeightParams

# parsers turn the text of one value into its value and raise ValueError on
# bad text
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


def _one_of(*names):
    def parse(text):
        name = text.strip()
        if name not in names:
            raise ValueError(f"expected {' or '.join(names)}, got {name!r}")
        return name
    return parse


def _kappa_mode(text):
    name = text.strip()
    if name == "auto":
        return None
    return _FLOAT(name)


# domain.kind -> (DomainSpec constructor, x0 parser, the [domain] and [omega]
# keys in the order the constructor takes them, the [grid] keys)
_KINDS = {
    "interval": (DomainSpec.interval, _FLOAT,
                 {"domain": ("a", "b", "x0"), "omega": ("lo", "hi")}, ("n",)),
    "disk": (DomainSpec.disk, _pair,
             {"domain": ("center", "radius", "x0"), "omega": ("center", "radius")},
             ("nr", "ntheta")),
}

# section -> {key: parser}; domain.x0 is parsed by its kind's parser
_SCHEMA = {
    "domain": {"kind": _one_of(*_KINDS), "a": _FLOAT, "b": _FLOAT, "center": _pair,
               "radius": _FLOAT, "x0": str},
    "omega": {"lo": _FLOAT, "hi": _FLOAT, "center": _pair, "radius": _FLOAT},
    "grid": {"n": _INT, "nr": _INT, "ntheta": _INT},
    "weight": {"s": _FLOAT, "h_weight": _FLOAT, "ell": _FLOAT},
    "time": {"T": _FLOAT, "dt": _FLOAT, "scheme": _one_of(*SCHEMES)},
    "impulse": {"tau": _FLOAT},
    "control": {"eps": _float_list, "kappa": _kappa_mode, "cg_tol": _FLOAT,
                "cg_maxit": _INT},
    "ensemble": {"count": _count, "seed": _count, "initial": _one_of("random", "zero")},
    "output": {"dir": str},
}


@dataclass
class RunConfig:
    """Validated run parameters, one attribute per config block."""

    domain_spec: DomainSpec
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

    def domain(self):
        return self.domain_spec

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

    kind = _get(sections, "domain", "kind", required=True)
    construct, x0_parser, domain_keys, grid_keys = _KINDS[kind]
    for section, keys in {**domain_keys, "grid": grid_keys}.items():
        for key in sections.get(section, {}):
            if key != "kind" and key not in keys:
                raise ConfigurationError(
                    f"config key {section}.{key} does not apply to domain.kind = {kind}")
    try:
        sections["domain"]["x0"] = x0_parser(
            _get(sections, "domain", "x0", required=True))
    except ValueError as exc:
        raise ConfigurationError(f"invalid value for domain.x0: {exc}") from exc
    args = [_get(sections, section, key, required=True)
            for section, keys in domain_keys.items() for key in keys]
    # fail fast on geometric inconsistencies so the error names the block
    try:
        domain = construct(*args)
    except ConfigurationError:
        raise
    except Exception as exc:
        raise ConfigurationError(f"invalid [domain]/[omega] block: {exc}") from exc

    cfg = RunConfig(
        domain_spec=domain,
        grid_args={key: _get(sections, "grid", key, required=True) for key in grid_keys},
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
    # fail fast on a [grid] block that makes no grid, or a [time] block that
    # makes no schedule, whichever stage runs
    check_grid_size(kind, **cfg.grid_args)
    cfg.schedule()
    return cfg
