"""Exception hierarchy for the twinbeam package.

One class per CLI exit code: configuration (2), data/file (3), fitting (4).
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


class DataError(TwinbeamError):
    """Malformed or inconsistent input data."""


class FitError(TwinbeamError):
    """Model fitting failures."""
