"""Exception types shared across the toolkit.

The CLI maps these onto stable exit codes: usage/config problems -> 2,
data problems -> 3, checkpoint format problems -> 4.
"""


class DimensionError(ValueError):
    """Tensor shapes do not line up for an operation."""


class ConfigError(ValueError):
    """A configuration value is out of its valid range."""


class UsageError(ValueError):
    """An API was called in a way its contract forbids."""


class DataError(ValueError):
    """Corpus or reference files are malformed or misaligned."""


class FormatError(ValueError):
    """A serialized artifact (checkpoint, embedding file) is malformed.

    ``offset`` carries the byte offset (or line number for text formats)
    where parsing failed, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class NumericError(ArithmeticError):
    """An operation produced NaN or Inf."""
