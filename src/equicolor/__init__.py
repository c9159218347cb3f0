"""r-equitable chromatic thresholds of K_m x K_n and K_{m(n)}.

The package computes exact thresholds and colorability verdicts via
closed forms (equicolor.closed_forms), builds explicit witness colorings
(equicolor.construct), judges colorings (equicolor.grid), and
cross-checks everything against brute-force searches on small instances
(equicolor.oracle).  The ``equicolor`` console script exposes all of it.

Each public name is listed once, under its home module in ``_EXPORTS``;
``import equicolor`` loads no submodule, and the first use of a name or a
submodule imports it (PEP 562).
"""

from importlib import import_module

__version__ = "0.4.0"

_EXPORTS = {
    "closed_forms": "GammaResult Params ThresholdCase ThresholdResult Trichotomy ceil_div"
    " equ_bound gamma kronecker_colorable kronecker_verdict multipartite_colorable"
    " multipartite_verdict theta_balanced theta_min threshold_kronecker threshold_multipartite",
    "construct": "color_kronecker color_multipartite split_sizes",
    "errors": "BudgetExceededError ColoringFileError EquicolorError GridBoundsError"
    " InfeasibleWindowError InternalCheckError NotColorableError ParameterDomainError",
    "files": "format_coloring parse_coloring read_coloring write_coloring",
    "grid": "Coloring VerificationReport Violation ViolationKind verify",
    "oracle": "DEFAULT_BUDGET OracleBudget oracle_kronecker_colorable"
    " oracle_multipartite_colorable oracle_threshold",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str) -> object:
    """A submodule, or a public name, imported from its module on first use."""
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return __all__
