"""Numerical laboratory for heat flow with dynamic boundary conditions.

The package couples a bulk diffusion with a boundary diffusion through the
normal flux, evolves the pair (with an optional impulsive kick), certifies
the logarithmic-convexity machinery behind final-state observability at
desk scale, and synthesizes impulsive controls with explicit error and
cost certificates.
"""

from .config import RunConfig, load_config
from .control import (CalibrationResult, ControlOperator, ControlProblem,
                      ControlResult, CostStudy, calibrate_kappa, cost_study,
                      synthesize, verify_duality)
from .discretize import Grid, OperatorSet, State, assemble_operator, build_grid
from .errors import (CalibrationError, ConfigurationError, DegenerateDataError,
                     DynHeatError, FitFailureError, InvalidDomainError,
                     NumericalError, ParameterError, UsageError)
from .evolve import (ImpulseEvent, Propagator, Schedule, propagate,
                     propagate_impulsive)
from .geometry import (BigPhi, DomainSpec, NormalSignReport, PhiBundle,
                       WeightParams, big_phi, check_normal_sign, gauge, level,
                       phi_extremes, upsilon, weight_phi_bundle)
from .logconvexity import (CommutatorReport, FrequencyTrace, InteriorBump,
                           InterpolationRecord, ObservabilityFit,
                           StepConstants, build_weighted_operators,
                           commutator_form, commutator_identity_check,
                           commutator_rhs, count_bound_violations,
                           count_observability_violations, diverse_ensemble,
                           fit_bound_constant, fit_observability_constants,
                           frequency, interpolation_check, interpolation_exponent,
                           run_trace, run_traces, step_constants)
from .reporting import canonical_json, csv_text, merge_report

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
