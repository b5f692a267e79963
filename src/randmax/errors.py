"""Exception types shared across the package."""

import operator


class RandmaxError(Exception):
    """Base class for all package errors."""


class DomainError(RandmaxError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def as_integer(name, value):
    """`value` as an int, for a count or seed named `name`; a float (even a
    whole one) or any other non-integer raises a DomainError naming it.
    numpy integers pass."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


class RangeLinkError(RandmaxError):
    """A coefficient link produced a value outside its admissible range.

    The offending value is kept on the exception so callers can inspect it.
    """

    def __init__(self, message, value):
        super().__init__(f"{message} (computed value {value!r})")
        self.value = value


class EstimationError(RandmaxError):
    """An estimator could not produce a finite estimate from the data."""

    def __init__(self, message, stage=None):
        super().__init__(message if stage is None else f"[{stage}] {message}")
        self.stage = stage


class ConfigError(RandmaxError):
    """A configuration file is missing, malformed, or violates the schema."""

    def __init__(self, message, path=None):
        super().__init__(message if path is None else f"{path}: {message}")
        self.path = path


class InputParseError(RandmaxError):
    """An input data file could not be parsed."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
