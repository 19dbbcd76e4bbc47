"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific class that applies.
"""


class ExpotransError(Exception):
    """Base class for all package errors."""


class InputError(ExpotransError):
    """Malformed or inconsistent user input (bad JSON, shape mismatch)."""


class NonFiniteError(InputError):
    """A matrix with a NaN or infinite entry given to `MomentMatrix` or
    `ExpMoments`; one built inside `series.in_float_range` is a computation
    that left the float range, a PrecisionError."""


class MathDomainError(ExpotransError):
    """A mathematical precondition is violated (point inside support,
    indefinite moment matrix, suction past an empty domain)."""


class PrecisionError(ExpotransError):
    """A numerical tolerance could not be met within the allowed budget."""
