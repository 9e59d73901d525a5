"""Exception types shared across the pipeline."""


class RoadwatchError(Exception):
    """Base class for all pipeline errors."""


class PayloadError(RoadwatchError):
    """Raw detector payload has the wrong structure (length, header, magic)."""


class ValidationError(RoadwatchError):
    """A value violates its documented range or invariant."""


class LogParseError(RoadwatchError):
    """A log line could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message)
        self.line_number = line_number


class StreamOrderError(RoadwatchError):
    """Timestamps or frame indices arrived out of order within a stream."""


class ConfigError(RoadwatchError):
    """A configuration value or file is invalid."""
