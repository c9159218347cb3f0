"""r-equitable chromatic thresholds of K_m x K_n and K_{m(n)}.

The package computes exact thresholds and colorability verdicts via
closed forms (equicolor.closed_forms), builds explicit witness colorings
(equicolor.construct), judges colorings (equicolor.grid), and
cross-checks everything against brute-force searches on small instances
(equicolor.oracle).  The ``equicolor`` console script exposes all of it.
"""

from .closed_forms import (
    GammaResult,
    Params,
    ThresholdCase,
    ThresholdResult,
    Trichotomy,
    ceil_div,
    equ_bound,
    gamma,
    kronecker_colorable,
    kronecker_verdict,
    multipartite_colorable,
    multipartite_verdict,
    theta_balanced,
    theta_min,
    threshold_kronecker,
    threshold_multipartite,
)
from .construct import (
    color_kronecker,
    color_multipartite,
    split_sizes,
)
from .errors import (
    BudgetExceededError,
    ColoringFileError,
    EquicolorError,
    GridBoundsError,
    InfeasibleWindowError,
    InternalCheckError,
    NotColorableError,
    ParameterDomainError,
)
from .files import format_coloring, parse_coloring, read_coloring, write_coloring
from .grid import (
    Coloring,
    VerificationReport,
    Vertex,
    Violation,
    ViolationKind,
    adjacent,
    verify,
)
from .oracle import (
    DEFAULT_BUDGET,
    Family,
    OracleBudget,
    oracle_kronecker_colorable,
    oracle_multipartite_colorable,
    oracle_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "Coloring",
    "ColoringFileError",
    "DEFAULT_BUDGET",
    "EquicolorError",
    "Family",
    "GammaResult",
    "GridBoundsError",
    "InfeasibleWindowError",
    "InternalCheckError",
    "NotColorableError",
    "OracleBudget",
    "ParameterDomainError",
    "Params",
    "ThresholdCase",
    "ThresholdResult",
    "Trichotomy",
    "VerificationReport",
    "Vertex",
    "Violation",
    "ViolationKind",
    "adjacent",
    "ceil_div",
    "color_kronecker",
    "color_multipartite",
    "equ_bound",
    "format_coloring",
    "gamma",
    "kronecker_colorable",
    "kronecker_verdict",
    "multipartite_colorable",
    "multipartite_verdict",
    "oracle_kronecker_colorable",
    "oracle_multipartite_colorable",
    "oracle_threshold",
    "parse_coloring",
    "read_coloring",
    "split_sizes",
    "theta_balanced",
    "theta_min",
    "threshold_kronecker",
    "threshold_multipartite",
    "verify",
    "write_coloring",
    "__version__",
]
