"""Exception types raised by the library."""


class IntrinsicTimeError(Exception):
    """Base class for all library errors."""


class ConfigurationError(IntrinsicTimeError):
    """Invalid parameter values (threshold out of range, bad grid, ...)."""


class DomainError(IntrinsicTimeError):
    """Input values outside the valid domain (non-positive price, ...)."""


class OrderingError(IntrinsicTimeError):
    """Timestamps fed to a runner or series went backwards."""


class EmptyInputError(IntrinsicTimeError):
    """An operation that needs data received none."""


class InsufficientDataError(IntrinsicTimeError):
    """Input too short for the requested computation."""


class ConsistencyError(IntrinsicTimeError):
    """Events whose delta differs from the threshold given to ``summarize``."""


class FitError(IntrinsicTimeError):
    """Power-law regression received unusable points."""


class IngestionError(IntrinsicTimeError):
    """A tick or event file failed to parse; carries the offending row number."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class WriteError(IntrinsicTimeError):
    """An output file could not be written."""
