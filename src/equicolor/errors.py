"""Exception hierarchy, domain check and record base of the equicolor package.

Every error raised by the library derives from :class:`EquicolorError` so
callers can catch one base class.  The CLI maps each subclass to a distinct
exit code; nothing in the library ever calls ``sys.exit`` itself.
:func:`require_int` is the integer-domain rule every module applies to
m, n, r, k and the oracle budgets.
"""

from __future__ import annotations

from operator import attrgetter


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


_set = object.__setattr__  # sets a field in a record's ``__init__``


class _Record:
    """A frozen record, kept here so that no command loads ``dataclasses``:
    its fields are its ``__slots__ = __match_args__``, set with ``_set`` in
    its ``__init__``, and equality (same class only), hash, ``repr`` and
    pickling go through their tuple, as a frozen dataclass's do."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # The tuple of fields, read in C; every record has two or more.
        cls._values = property(attrgetter(*cls.__match_args__))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__qualname__}.{name} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), self._values


class GridBoundsError(EquicolorError, ValueError):
    """A vertex lies outside the m-by-n grid it is supposed to live on.

    Distinct from a verification violation: a coloring that mentions a
    nonexistent vertex is structurally malformed, not merely invalid.
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
