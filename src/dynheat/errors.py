"""Exception types shared across the package.

Every error raised by the library derives from DynHeatError so callers can
catch one base class.  The subclasses separate misuse (bad arguments), bad
run configuration, numerical breakdown, and failed fits, because the CLI
maps them to different exit messages.
"""


class DynHeatError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(DynHeatError):
    """A run configuration value is missing, unknown, or out of range."""


class UsageError(DynHeatError):
    """An operation was called with arguments outside its contract."""


class ParameterError(DynHeatError):
    """Analysis parameters produce unrepresentable quantities (overflow)."""


class NumericalError(DynHeatError):
    """A linear solver or iteration failed to converge."""


class DegenerateDataError(DynHeatError):
    """Input data carries no information (zero state, identical ensemble)."""


class _DiagnosedError(DynHeatError):
    """An error that carries a dict of diagnostics for failure.json."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class CalibrationError(_DiagnosedError):
    """Penalization calibration exhausted its doubling budget; diagnostics
    attached."""


class FitFailureError(_DiagnosedError):
    """An empirical fit left its admissible range; diagnostics attached."""
