"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific class that applies: a non-finite entry of a given matrix
is an InputError, a computation past the float range a PrecisionError.
"""


class ExpotransError(Exception):
    """Base class for all package errors."""


class InputError(ExpotransError):
    """Malformed or inconsistent user input (bad JSON, shape mismatch)."""


class MathDomainError(ExpotransError):
    """A mathematical precondition is violated (point inside support,
    indefinite moment matrix, suction past an empty domain)."""


class PrecisionError(ExpotransError):
    """A numerical tolerance could not be met within the allowed budget."""
