"""Exception types shared across the package.

Each class carries the exit code the CLI returns for it as ``exit_code``:
usage 1, domain 2, resource 3, and 3 also for a missing or damaged data
file; the base class, raised alone, maps to 2.
"""


class GraphBellError(Exception):
    """Base class for all library errors."""

    exit_code = 2


class UsageError(GraphBellError):
    """An operation was invoked in a way it cannot accept (bad arguments, malformed input)."""

    exit_code = 1


class DomainError(GraphBellError):
    """A parameter lies outside the mathematical domain of the operation."""

    exit_code = 2


class ResourceError(GraphBellError):
    """A guardrail or capacity limit refused the computation."""

    exit_code = 3


class DataFileError(GraphBellError):
    """A data file shipped with the package is missing, short or corrupt."""

    exit_code = 3
