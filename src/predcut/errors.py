"""Exception types shared across the package."""


class PredcutError(Exception):
    """Base class for all package errors."""


class DimensionError(PredcutError):
    """A vector or matrix does not match the instance size."""


class DomainError(PredcutError):
    """A value lies outside its admissible domain; `row` indexes the failing input row, if any."""

    row = None

    @classmethod
    def at(cls, row, message):
        err = cls(message)
        err.row = row
        return err


class ParameterError(PredcutError):
    """An algorithm parameter is out of range."""


class ContractViolationError(PredcutError):
    """Inputs passed to an operation break its stated precondition."""


class ParseError(PredcutError):
    """A file could not be parsed. Carries the offending 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
