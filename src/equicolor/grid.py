"""Cells, colorings and the verifier for K_m x K_n.

The vertex set of K_m x K_n is the m-by-n grid of cells (i, j) with
1 <= i <= m and 1 <= j <= n (1-based everywhere, matching the file
format), each a plain ``(row, col)`` tuple of ints, which the cyclic GC
stops tracking (unlike a tuple subclass).  Two cells are adjacent
exactly when they differ in both coordinates; consequently a set of
cells is independent iff it fits in a single row or a single column.
:func:`verify` judges each class in one pass anchored at its first cell
and returns the same witness pair a scan of every pair in order would;
the test suite keeps that pairwise scan and the one-row-or-one-column
test as references and checks the verifier against both exhaustively on
small grids.

A :class:`Coloring` is an ordered tuple of color classes; classes may be
empty (size 0), which is how class counts beyond m*n stay meaningful.
:func:`verify` checks the three defining properties independently and
reports every kind of violation it finds rather than stopping at the
first.  Its cost is one flat counting pass over all cells, the per-cell
partition report scan only when some cell is not covered exactly once,
and the pair search only for classes of two or more cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain

from .errors import GridBoundsError, ParameterDomainError, require_int

# ============================================================
# Cells
# ============================================================

Cell = tuple[int, int]  # (row, col)


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
    classes: tuple[tuple[Cell, ...], ...]

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

    * partition: every grid cell appears in exactly one class, counted
      in one flat pass over the cells in class order; the counts are
      scanned for the report only when some cell is not covered exactly
      once;
    * independence: within each class, no two cells are adjacent,
      judged in one pass per class of two or more cells; an offending
      class is reported with the first adjacent pair in pairwise order;
    * balance: max class size minus min class size is at most r, with
      empty classes counting as size 0.

    A cell outside the grid raises :class:`GridBoundsError` (the first
    such cell in class order) instead of being reported as a violation:
    such a coloring is malformed, not merely invalid.

    Args:
        r: allowed size gap, r >= 1.
        coloring: the candidate to judge.

    Returns:
        A report with ``valid`` true iff no violations were found.
    """
    require_int("r", r, 1)
    m, n = coloring.m, coloring.n
    if m < 1 or n < 1:
        raise ParameterDomainError(f"grid must be nonempty, got m={m} n={n}")

    violations: list[Violation] = []

    # Partition check via a cover-count per cell.  All m*n counts are 1
    # exactly when the cover is a partition, so only then is the report
    # scan skipped.
    counts = [0] * (m * n)
    for i, j in chain.from_iterable(coloring.classes):
        if not (1 <= i <= m and 1 <= j <= n):
            raise GridBoundsError(f"vertex ({i},{j}) outside the {m}x{n} grid")
        counts[(i - 1) * n + (j - 1)] += 1
    if counts.count(1) != m * n:
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

    # Independence check.  One witness pair per offending class is enough
    # to make the report actionable; a class of fewer than two cells has
    # no pair to search.
    for ci, cls in enumerate(coloring.classes):
        if len(cls) < 2:
            continue
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
    cls: tuple[Cell, ...]
) -> tuple[Cell, Cell] | None:
    # The pair a scan of every (a, b), a < b, would return first, found in
    # one pass.  Pairs (0, b) come first, so a cell off both lines of
    # u = cls[0] pairs with u.  Otherwise each cell is u or on one line of
    # it: the first cell off u's row and the first off u's column are the
    # answer in class order, as every cell before them equals u.
    if not cls:
        return None
    u = cls[0]
    ru, cu = u
    off_row = off_col = None
    for v in cls:
        rv, cv = v
        if rv != ru:
            if cv != cu:
                return u, v
            if off_row is None:
                off_row = v
        elif cv != cu and off_col is None:
            off_col = v
    if off_row is None or off_col is None:
        return None
    # No earlier cell equals either, so index() finds each one's position.
    if cls.index(off_row) < cls.index(off_col):
        return off_row, off_col
    return off_col, off_row
