"""Exception hierarchy for the twinbeam package.

Errors are grouped by the kind of failure so the CLI can map them to
stable exit codes: configuration (2), data/file (3), fitting (4).
"""


class TwinbeamError(Exception):
    """Base class for all package errors."""


class ConfigError(TwinbeamError):
    """Invalid configuration or parameter values."""


class InvalidParams(ConfigError):
    pass


class RecordTooShort(InvalidParams):
    """A record is too short for a delay scan; ``least`` samples would do."""

    def __init__(self, message: str, least: int):
        super().__init__(message)
        self.least = least


class StepNotSampleAligned(InvalidParams):
    """Delay step is not an integer multiple of the sample period: a setting, so exit 2."""


class KernelTooWide(InvalidParams):
    """Delay kernel support is comparable to the trace duration: a setting, so exit 2."""


class InvalidTransmission(ConfigError):
    pass


class InvalidBand(ConfigError):
    pass


class DataError(TwinbeamError):
    """Malformed or inconsistent input data."""


class MismatchedClock(DataError):
    pass


class MismatchedLength(DataError):
    pass


class DegenerateRange(DataError):
    """A trace has zero dynamic range and cannot be binned."""


class EmptyHistogram(DataError):
    pass


class GridMismatch(DataError):
    pass


class HeaderMismatch(DataError):
    pass


class NonUniformTime(DataError):
    pass


class FitError(TwinbeamError):
    """Model fitting failures."""


class NoPeak(FitError):
    """Curve has no interior maximum to work from."""


class NonpositiveReference(FitError):
    pass


class FitDiverged(FitError):
    pass


class BracketFailure(FitError):
    """Target width lies below the zero-spread floor; sigma cannot be bracketed."""


class QuadratureNonConvergence(TwinbeamError):
    pass
