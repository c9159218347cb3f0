"""Brute-force ground truth for small instances.

Two oracles decide r-equitable k-colorability without using any of the
closed forms in equicolor.closed_forms, so they can confirm those forms
independently:

* :func:`oracle_kronecker_colorable` backtracks over the grid cells in
  row-major order, assigning each cell to a color class and checking
  independence pairwise against the adjacency rule.  It never reasons
  about rows and columns as such.
* :func:`oracle_multipartite_colorable` searches per-part color counts
  and a common size-window base for K_{m(n)}.  It enumerates candidate
  count distributions explicitly instead of evaluating the closed-form
  inequality.

The two searches share no structure, so a bug in one cannot validate
itself through the other.

Budgets are first-class: exceeding ``max_vertices``, ``max_k`` or
``node_limit`` raises :class:`BudgetExceededError` and is never reported
as "not colorable" — an interrupted search has proven nothing.

Pruning in the vertex search is sound and verdict-preserving.  Beyond the
static per-class size window [ceil(mn/k) - r, floor(mn/k) + r] (any valid
coloring has max >= ceil(mn/k) and min <= floor(mn/k), so every final
size lies in that window), the search tracks the running maximum class
size, a lower bound on cells still needed to lift every class to the
smallest permissible final size, and (in the default row-major order) the
fact that a class confined to an already-finished row can never grow
again.  Symmetry breaking is the canonical one: a cell may open class c
only when classes 1..c-1 are already non-empty, and only the single next
class can be opened at each step.  None of this depends on which branch
is explored first, so the verdict is independent of the cell enumeration
order; the test suite checks that under row and column relabelings.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .closed_forms import Params, ceil_div
from .errors import BudgetExceededError, ParameterDomainError

# ============================================================
# Budgets
# ============================================================


@dataclass(frozen=True)
class OracleBudget:
    """Resource caps for a single oracle call.

    max_vertices: largest m*n the vertex search accepts.
    max_k: largest class count either oracle accepts.
    node_limit: cap on backtracking nodes / (distribution, window base)
        pairs.
    """

    max_vertices: int = 24
    max_k: int = 1000
    node_limit: int = 10_000_000

    def __post_init__(self) -> None:
        for name in ("max_vertices", "max_k", "node_limit"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ParameterDomainError(
                    f"OracleBudget.{name} must be a positive int, got {v!r}"
                )


DEFAULT_BUDGET = OracleBudget()


class Family(Enum):
    """Which graph family an oracle threshold is asked about."""

    KRONECKER = "kronecker"
    MULTIPARTITE = "multipartite"


def _check_k(k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ParameterDomainError(f"k must be an int >= 1, got {k!r}")


# ============================================================
# Vertex-backtracking oracle for K_m x K_n
# ============================================================


def oracle_kronecker_colorable(
    p: Params, k: int, budget: OracleBudget = DEFAULT_BUDGET
) -> bool:
    """Decide by exhaustive search whether K_m x K_n has an r-equitable
    k-coloring (empty classes allowed).

    Accepts any orientation of m and n; the graph itself is symmetric in
    the two factors.

    Raises:
        BudgetExceededError: m*n > budget.max_vertices, k > budget.max_k,
            or the search visits more than budget.node_limit nodes.
    """
    _check_k(k)
    total = p.m * p.n
    if total > budget.max_vertices:
        raise BudgetExceededError(
            f"m*n = {total} exceeds max_vertices = {budget.max_vertices}",
            "max_vertices",
        )
    if k > budget.max_k:
        raise BudgetExceededError(
            f"k = {k} exceeds max_k = {budget.max_k}", "max_k"
        )
    return _search_kronecker(p.m, p.n, p.r, k, budget.node_limit, None)


def _search_kronecker(
    m: int,
    n: int,
    r: int,
    k: int,
    node_limit: int,
    order: list[tuple[int, int]] | None,
) -> bool:
    """Core backtracking search.

    ``order`` overrides the cell enumeration order (used by tests to
    check invariance under relabelings); None means row-major, which
    additionally enables a row-boundary prune that relies on finished
    rows staying finished.
    """
    total = m * n
    lo = max(0, ceil_div(total, k) - r)
    hi = total // k + r
    if k > total:
        # At most `total` classes can ever be non-empty, so some class is
        # empty and every size must be at most r.
        hi = min(hi, r)
    if k * hi < total or k * lo > total:
        return False

    row_major = order is None
    if order is None:
        order = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]

    sizes = [0] * k
    members: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    fixrow = [0] * k  # shared row of all members, 0 once mixed
    fixcol = [0] * k
    nodes = 0

    def extend(pos: int, opened: int, cur_max: int, lo_dyn: int, deficit: int) -> bool:
        # deficit = cells still required to lift every class (open or
        # not) to lo_dyn = max(lo, cur_max - r), a sound lower bound on
        # the smallest final size.
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise BudgetExceededError(
                f"search exceeded node_limit = {node_limit} "
                f"on m={m} n={n} r={r} k={k}",
                "node_limit",
            )
        if pos == total:
            smallest = 0 if opened < k else min(sizes)
            return cur_max - smallest <= r
        remaining = total - pos
        if deficit > remaining:
            return False
        if cur_max > r and opened + remaining < k:
            return False  # some class would end empty against a big max
        vi, vj = order[pos]

        if row_major and vj == 1 and vi > 1:
            # Rows 1..vi-1 are fully assigned.  A class confined to one
            # of them is frozen; one confined to a column can still gain
            # at most the unassigned cells of that column.
            avail = m - vi + 1
            capacity = (k - opened) * hi
            for ci in range(opened):
                sz = sizes[ci]
                pot = avail if fixcol[ci] else 0
                if sz + pot < lo_dyn:
                    return False
                room = hi - sz
                capacity += room if room < pot else pot
            if capacity < remaining:
                return False

        for ci in range(opened):
            sz = sizes[ci]
            if sz >= hi:
                continue
            ok = True
            for wi, wj in members[ci]:
                if wi != vi and wj != vj:  # adjacency rule
                    ok = False
                    break
            if not ok:
                continue
            old_fr, old_fc = fixrow[ci], fixcol[ci]
            if old_fr != vi:
                fixrow[ci] = 0
            if old_fc != vj:
                fixcol[ci] = 0
            sizes[ci] = sz + 1
            members[ci].append((vi, vj))
            if sz + 1 > cur_max:
                new_lo = max(lo, sz + 1 - r)
                if new_lo != lo_dyn:
                    new_def = (k - opened) * new_lo
                    for cj in range(opened):
                        gap = new_lo - sizes[cj]
                        if gap > 0:
                            new_def += gap
                else:
                    new_def = deficit - (1 if sz < lo_dyn else 0)
                hit = extend(pos + 1, opened, sz + 1, new_lo, new_def)
            else:
                hit = extend(
                    pos + 1,
                    opened,
                    cur_max,
                    lo_dyn,
                    deficit - (1 if sz < lo_dyn else 0),
                )
            members[ci].pop()
            sizes[ci] = sz
            fixrow[ci], fixcol[ci] = old_fr, old_fc
            if hit:
                return True

        if opened < k:
            ci = opened
            sizes[ci] = 1
            members[ci].append((vi, vj))
            fixrow[ci], fixcol[ci] = vi, vj
            new_max = cur_max if cur_max > 1 else 1
            hit = extend(
                pos + 1,
                opened + 1,
                new_max,
                lo_dyn,
                deficit - (1 if lo_dyn > 0 else 0),
            )
            members[ci].pop()
            sizes[ci] = 0
            fixrow[ci] = fixcol[ci] = 0
            if hit:
                return True
        return False

    return extend(0, 0, 0, lo, k * lo)


# ============================================================
# Count-distribution oracle for K_{m(n)}
# ============================================================


def oracle_multipartite_colorable(
    p: Params, k: int, budget: OracleBudget = DEFAULT_BUDGET
) -> bool:
    """Decide by explicit search whether K_{m(n)} has an r-equitable
    k-coloring.

    Every color class lies inside one part, so a coloring is the same
    thing as: a number e >= 0 of empty classes, per-part class counts
    c_1..c_m >= 1 summing to k - e, and a split of each part's n vertices
    into its classes with all sizes within a common window [a, a+r].
    Such a split of part i exists iff c_i*a <= n <= c_i*(a+r).  When
    e >= 1 the window must start at a = 0, because size 0 participates in
    the gap.  This procedure examines candidate count distributions one
    by one (the acceptance predicate only sees the multiset, so ordered
    arrangements of the same counts are not re-examined) and, for each,
    every window base a up to n // c_max — deliberately not the
    closed-form inequality it is used to cross-check.

    There is no max_vertices cap here; instead every (distribution,
    window base) pair examined counts against node_limit, so the work,
    which grows with n through the window bases, stays bounded.

    Raises:
        BudgetExceededError: k > budget.max_k, or more than
            budget.node_limit (distribution, window base) pairs examined.
    """
    _check_k(k)
    if p.m < 1:
        raise ParameterDomainError(f"m must be >= 1, got {p.m}")
    if k > budget.max_k:
        raise BudgetExceededError(
            f"k = {k} exceeds max_k = {budget.max_k}", "max_k"
        )
    m, n, r = p.m, p.n, p.r
    nodes = 0
    for empties in range(0, k - m + 1):
        ncls = k - empties
        for counts in _count_multisets(ncls, m, ncls):
            cmax, cmin = counts[0], counts[-1]
            # With an empty class the window starts at a = 0.
            for a in range(0, n // cmax + 1 if empties == 0 else 1):
                nodes += 1
                if nodes > budget.node_limit:
                    raise BudgetExceededError(
                        f"examined more than node_limit = {budget.node_limit} "
                        f"(distribution, window base) pairs on "
                        f"m={m} n={n} r={r} k={k}",
                        "node_limit",
                    )
                if n <= cmin * (a + r):
                    return True
    return False


def _count_multisets(total: int, parts: int, cap: int):
    """Yield non-increasing tuples of ``parts`` positive ints, each at most
    ``cap``, summing to ``total``, most balanced first."""
    if parts == 1:
        if 1 <= total <= cap:
            yield (total,)
        return
    first_lo = ceil_div(total, parts)
    first_hi = min(cap, total - (parts - 1))
    for first in range(first_lo, first_hi + 1):
        for rest in _count_multisets(total - first, parts - 1, first):
            yield (first,) + rest


# ============================================================
# Thresholds by scan
# ============================================================


def oracle_threshold(
    p: Params, which: Family, budget: OracleBudget = DEFAULT_BUDGET
) -> int:
    """Least k such that the oracle says colorable for every k' in
    [k, m*n + 1].

    The scan may stop at m*n + 1 because for k > m*n a coloring always
    exists: make every vertex a singleton and leave the remaining classes
    empty, for a size gap of 1 <= r.  So the last failing k in
    [1, m*n + 1] (if any) determines the threshold.

    Raises:
        BudgetExceededError: propagated from the per-k oracle calls.
    """
    if which is Family.KRONECKER:
        decide = oracle_kronecker_colorable
    elif which is Family.MULTIPARTITE:
        decide = oracle_multipartite_colorable
    else:
        raise ParameterDomainError(f"unknown family {which!r}")
    last_false = 0
    for k in range(1, p.m * p.n + 2):
        if not decide(p, k, budget):
            last_false = k
    return last_false + 1
