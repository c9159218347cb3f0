"""Exception hierarchy for the equicolor package, and its one domain check.

Every error raised by the library derives from :class:`EquicolorError` so
callers can catch one base class.  The CLI maps each subclass to a distinct
exit code; nothing in the library ever calls ``sys.exit`` itself.
:func:`require_int` is the integer-domain rule every module applies to
m, n, r, k and the oracle budgets.
"""

from __future__ import annotations


class EquicolorError(Exception):
    """Base class for all errors raised by this package."""


class ParameterDomainError(EquicolorError, ValueError):
    """An input parameter is outside the documented domain (e.g. m < 1)."""


def require_int(name: str, value: int, minimum: int) -> None:
    """Raise :class:`ParameterDomainError` unless ``value`` is an int (not
    a bool) of at least ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParameterDomainError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ParameterDomainError(f"{name} must be >= {minimum}, got {value}")


class GridBoundsError(EquicolorError, ValueError):
    """A vertex lies outside the m-by-n grid it is supposed to live on.

    Distinct from a verification violation: a coloring that mentions a
    nonexistent vertex is structurally malformed, not merely invalid.
    """


class InfeasibleWindowError(EquicolorError, ValueError):
    """A requested size-window split admits no solution.

    Raised by :func:`equicolor.construct.split_sizes` exactly when
    ``lo * count <= total <= (lo + r) * count`` fails.
    """


class NotColorableError(EquicolorError):
    """A witness coloring was requested for an instance that has none.

    ``reason`` carries the failed verdict's machine-readable tag, one of
    the ``REASON_*`` constants in :mod:`equicolor.closed_forms`.
    """

    def __init__(self, message: str, reason: str) -> None:
        super().__init__(message)
        self.reason = reason


class BudgetExceededError(EquicolorError):
    """A brute-force oracle hit its configured resource budget.

    This is a first-class outcome, never silently converted to "not
    colorable": an oracle that ran out of nodes has proven nothing.
    ``limit_name`` names the budget field that was exhausted.
    """

    def __init__(self, message: str, limit_name: str) -> None:
        super().__init__(message)
        self.limit_name = limit_name


class ColoringFileError(EquicolorError, ValueError):
    """A coloring file does not conform to the ``equicolor v1`` format.

    ``line`` is the 1-based line number of the first offending line.
    """

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class InternalCheckError(EquicolorError, RuntimeError):
    """A runtime self-check that should be unreachable was falsified.

    Raised when the implementation detects that one of its own proven
    invariants does not hold (e.g. a freshly built coloring fails its own
    verifier).  Always a bug, never a user error.
    """
