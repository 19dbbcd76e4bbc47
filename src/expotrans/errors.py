"""Exception hierarchy shared across the package, and the CLI's exit codes.

Each class carries the exit code and stderr label that `cli.main` gives it.
Library code should raise the most specific class that applies: a
non-finite entry of a given matrix is an InputError, a computation past
the float range a PrecisionError.
"""


class ExpotransError(Exception):
    """Base class for all package errors."""
    exit_code, label = 1, "error"


class InputError(ExpotransError):
    """Malformed or inconsistent user input (bad JSON, shape mismatch)."""
    exit_code, label = 2, "input error"


class MathDomainError(ExpotransError):
    """A mathematical precondition is violated (point inside support,
    indefinite moment matrix, suction past an empty domain)."""
    exit_code, label = 3, "domain error"


class PrecisionError(ExpotransError):
    """A numerical tolerance could not be met within the allowed budget."""
    exit_code, label = 4, "precision error"
