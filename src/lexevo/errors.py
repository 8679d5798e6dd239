"""Exception types shared across the pipeline."""


class LexevoError(Exception):
    """Base class for all package errors."""


class DataError(LexevoError):
    """Input data violates a contract (bad file, missing word, etc.)."""


class RowParseError(DataError):
    """A single malformed row; recoverable, carries the line number."""

    def __init__(self, message, line_number=0):
        super().__init__(message)
        self.line_number = line_number

    def __str__(self):
        base = super().__str__()
        if self.line_number:
            return f"line {self.line_number}: {base}"
        return base


class NoBirthError(DataError):
    """A series with no nonzero count has no birth year."""


class UnfittableModelError(DataError):
    """Training data has a class with zero vectors."""


class ConvergenceError(LexevoError):
    """An iterative numerical method did not converge."""
