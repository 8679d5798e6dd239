"""Exception types shared across the pipeline."""


class LexevoError(Exception):
    """Base class for all package errors."""


class UsageError(LexevoError):
    """The command line is wrong: an input left out or a bad value."""


class DataError(LexevoError):
    """Input data violates a contract (bad file, missing word, etc.)."""


class UnfittableModelError(DataError):
    """Training data has a class with zero vectors."""


class ConvergenceError(LexevoError):
    """An iterative numerical method did not converge."""
