"""Exception hierarchy. Each class carries the CLI exit code of its category."""


class DpxaError(Exception):
    """Base class for all package errors."""

    exit_code = 1


# --- data / ingestion problems (exit 3) ---------------------------------- #

class DataError(DpxaError):
    """Input data violates an invariant (non-finite values, bad shapes)."""

    exit_code = 3


class EmptyInputError(DataError):
    pass


class ShapeError(DataError):
    pass


class IngestionError(DataError):
    """A CSV file could not be parsed."""


# --- configuration problems (exit 4) -------------------------------------- #

class ConfigError(DpxaError):
    """Inconsistent or out-of-range configuration."""

    exit_code = 4


class InvalidScaleError(ConfigError):
    pass


class WindowTooSmallError(ConfigError):
    pass


class InsufficientScalesError(ConfigError):
    pass


class SizeError(ConfigError):
    pass


# --- numerical degeneracy (exit 5) ---------------------------------------- #

class NumericalError(DpxaError):
    """The computation is undefined for this input."""

    exit_code = 5


class GenerationError(NumericalError):
    """Circulant embedding produced an invalid spectrum."""


class CoherenceError(GenerationError):
    """The requested cross-correlation structure is not positive semidefinite."""


class DegenerateInputError(NumericalError):
    pass


# --- warnings -------------------------------------------------------------- #

class RankDeficiencyWarning(UserWarning):
    """A window regression design was rank deficient; minimum-norm fit used."""


class ExcludedScaleWarning(UserWarning):
    """Non-positive fluctuation values were dropped from a log-log fit."""


class SpectrumValidityWarning(UserWarning):
    """The estimated singularity spectrum is not single-valued."""
