"""Vertices, colorings and the verifier for K_m x K_n.

The vertex set of K_m x K_n is the m-by-n grid of cells (i, j) with
1 <= i <= m and 1 <= j <= n (1-based everywhere, matching the file
format).  Two cells are adjacent exactly when they differ in both
coordinates; consequently a set of cells is independent iff it fits in a
single row or a single column.  Both characterizations are implemented:
:func:`is_independent` checks pairs against the adjacency rule (with the
verifier's own loop) and :func:`single_row_or_column` checks the line
structure, and the test suite asserts they agree on every subset of
small grids.  The verifier deliberately uses the pairwise route only, so
it cannot share a bug with construction code that thinks in rows and
columns.

A :class:`Coloring` is an ordered tuple of color classes; classes may be
empty (size 0), which is how class counts beyond m*n stay meaningful.
:func:`verify` checks the three defining properties independently and
reports every kind of violation it finds rather than stopping at the
first.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

from .errors import GridBoundsError, ParameterDomainError

# ============================================================
# Vertices and adjacency
# ============================================================


class Vertex(NamedTuple):
    """A cell of the m-by-n grid; row in [1, m], col in [1, n]."""

    row: int
    col: int


def adjacent(u: Vertex, v: Vertex) -> bool:
    """Adjacency in K_m x K_n: the cells differ in row and in column.

    Irreflexive and symmetric by construction.
    """
    return u[0] != v[0] and u[1] != v[1]


def is_independent(vertices: Iterable[Vertex]) -> bool:
    """No two of the given cells are adjacent (pairwise, by definition)."""
    return _first_adjacent_pair(tuple(vertices)) is None


def single_row_or_column(vertices: Iterable[Vertex]) -> bool:
    """All cells share one row, or all share one column.

    Equivalent to :func:`is_independent` on this graph; kept as a second,
    structurally different route so the two can be checked against each
    other.  Empty sets and singletons qualify trivially.
    """
    vs = list(vertices)
    if len(vs) <= 1:
        return True
    rows = {v[0] for v in vs}
    cols = {v[1] for v in vs}
    return len(rows) == 1 or len(cols) == 1


# ============================================================
# Colorings
# ============================================================


@dataclass(frozen=True)
class Coloring:
    """An assignment of the m-by-n grid to k ordered color classes.

    ``classes[c]`` holds the cells of class c+1 (classes are 1-based in
    the file format, 0-based here).  Nothing is validated at construction
    time; :func:`verify` is the judge.
    """

    m: int
    n: int
    classes: tuple[tuple[Vertex, ...], ...]

    @property
    def k(self) -> int:
        return len(self.classes)

    def sizes(self) -> list[int]:
        return [len(c) for c in self.classes]


class ViolationKind(Enum):
    NOT_PARTITION = "not-partition"  # some cell missing or covered twice
    ADJACENT_PAIR = "adjacent-pair"  # a class contains two adjacent cells
    IMBALANCE = "imbalance"  # max class size - min class size > r


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    violations: tuple[Violation, ...]


def verify(r: int, coloring: Coloring) -> VerificationReport:
    """Check that ``coloring`` is an r-equitable coloring of K_m x K_n.

    Three independent checks, all always performed:

    * partition: every grid cell appears in exactly one class;
    * independence: within each class, no two cells are adjacent
      (checked pairwise against :func:`adjacent`'s rule, not via the
      row/column shortcut);
    * balance: max class size minus min class size is at most r, with
      empty classes counting as size 0.

    A cell outside the grid raises :class:`GridBoundsError` instead of
    being reported as a violation: such a coloring is malformed, not
    merely invalid.

    Args:
        r: allowed size gap, r >= 1.
        coloring: the candidate to judge.

    Returns:
        A report with ``valid`` true iff no violations were found.
    """
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise ParameterDomainError(f"r must be an int >= 1, got {r!r}")
    m, n = coloring.m, coloring.n
    if m < 1 or n < 1:
        raise ParameterDomainError(f"grid must be nonempty, got m={m} n={n}")

    violations: list[Violation] = []

    # Partition check via a cover-count per cell.
    counts = [0] * (m * n)
    for cls in coloring.classes:
        for i, j in cls:
            if not (1 <= i <= m and 1 <= j <= n):
                raise GridBoundsError(
                    f"vertex ({i},{j}) outside the {m}x{n} grid"
                )
            counts[(i - 1) * n + (j - 1)] += 1
    for idx, c in enumerate(counts):
        if c != 1:
            i, j = divmod(idx, n)
            what = "missing from every class" if c == 0 else f"covered {c} times"
            violations.append(
                Violation(
                    ViolationKind.NOT_PARTITION,
                    f"vertex ({i + 1},{j + 1}) is {what}",
                )
            )

    # Independence check, pairwise by the adjacency rule.  One witness
    # pair per offending class is enough to make the report actionable.
    for ci, cls in enumerate(coloring.classes):
        pair = _first_adjacent_pair(cls)
        if pair is not None:
            u, v = pair
            violations.append(
                Violation(
                    ViolationKind.ADJACENT_PAIR,
                    f"class {ci + 1} contains adjacent vertices "
                    f"({u[0]},{u[1]}) and ({v[0]},{v[1]})",
                )
            )

    # Balance check; empty classes participate with size 0.
    if coloring.classes:
        sizes = coloring.sizes()
        lo, hi = min(sizes), max(sizes)
        if hi - lo > r:
            violations.append(
                Violation(
                    ViolationKind.IMBALANCE,
                    f"class sizes range from {lo} (class {sizes.index(lo) + 1}) "
                    f"to {hi} (class {sizes.index(hi) + 1}); gap {hi - lo} "
                    f"exceeds r={r}",
                )
            )
    else:
        violations.append(
            Violation(ViolationKind.NOT_PARTITION, "coloring has no classes")
        )

    return VerificationReport(not violations, tuple(violations))


def _first_adjacent_pair(
    cls: tuple[Vertex, ...]
) -> tuple[Vertex, Vertex] | None:
    # Hot loop; the comparison is adjacent()'s rule inlined.
    for a in range(len(cls)):
        ra, ca = cls[a]
        for b in range(a + 1, len(cls)):
            rb, cb = cls[b]
            if ra != rb and ca != cb:
                return cls[a], cls[b]
    return None
