"""Numerical laboratory for heat flow with dynamic boundary conditions.

The package couples a bulk diffusion with a boundary diffusion through the
normal flux, evolves the pair (with an optional impulsive kick), certifies
the logarithmic-convexity machinery behind final-state observability at
desk scale, and synthesizes impulsive controls with explicit error and
cost certificates.

The names below are what the command line, the demos and the certified
quantities reach through the package; everything else stays available
from its module, e.g. ``dynheat.control.ControlOperator``.
"""

from . import reporting  # noqa: F401  (import dynheat loads every module)
from .config import load_config
from .control import ControlProblem, calibrate_kappa, cost_study, synthesize, verify_duality
from .discretize import assemble_operator, build_grid
from .errors import (CalibrationError, ConfigurationError, DegenerateDataError,
                     DynHeatError, FitFailureError, NumericalError,
                     ParameterError, UsageError)
from .evolve import Propagator, Schedule, propagate, propagate_impulsive
from .geometry import DomainSpec, WeightParams
from .logconvexity import (InteriorBump, commutator_identity_check,
                           count_bound_violations, count_observability_violations,
                           diverse_ensemble, fit_observability_constants, interpolation_check,
                           run_trace, run_traces, step_constants)

__version__ = "0.1.0"

__all__ = [
    "DomainSpec", "WeightParams", "build_grid", "assemble_operator",
    "load_config",
    "Schedule", "Propagator", "propagate", "propagate_impulsive",
    "diverse_ensemble", "run_trace", "run_traces",
    "count_bound_violations", "interpolation_check", "step_constants",
    "InteriorBump", "commutator_identity_check", "fit_observability_constants",
    "count_observability_violations",
    "ControlProblem", "calibrate_kappa", "synthesize", "cost_study",
    "verify_duality",
    "CalibrationError", "ConfigurationError", "DegenerateDataError",
    "DynHeatError", "FitFailureError", "NumericalError", "ParameterError",
    "UsageError",
]
