"""Exception hierarchy shared across the package."""


class BoardstatsError(Exception):
    """Base class for all package-specific errors; each subclass sets the
    ``stage`` of a run it belongs to and the CLI ``exit_code`` it maps to."""


class TableValidationError(BoardstatsError):
    """Raised when a prediction table fails its invariants.

    Carries the full list of violations so callers can report every
    problem at once instead of the first one found.
    """

    stage, exit_code = "input", 1

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid prediction table: {lines}")


class DataFormatError(BoardstatsError):
    """Raised for malformed input files (ragged rows, missing columns, ...)."""

    stage, exit_code = "input", 1


class MetricError(BoardstatsError):
    """Raised when a metric cannot be evaluated on the given data."""

    stage, exit_code = "bootstrap", 2


class ConfigError(BoardstatsError):
    """Raised for inconsistent or unparseable run configuration."""

    stage, exit_code = "configuration", 2
