"""Brute-force ground truth for small instances.

Two oracles decide r-equitable k-colorability without using any of the
closed forms in equicolor.closed_forms, so they can confirm those forms
independently:

* :func:`oracle_kronecker_colorable` backtracks over the grid cells in
  row-major order.  One loop tries each cell in every open class, then
  in the next unopened one.  Cells that differ in row and in column are
  adjacent, so an independent set lies in one row or one column: a class
  keeps only the row and the column all its members share (0 once they
  differ), and a cell may join it when it is empty or shares either.
  The row-boundary prune below rests on the same fact.
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
row-boundary prune: a class not confined to one column never grows once
its row is finished.  Symmetry breaking is the canonical one: a cell may
open class c only when classes 1..c-1 are already non-empty, so the
placement loop ends with the single next class.  None of this depends on
which branch is explored first, so neither does the verdict depend on the
cell order; the test suite checks that under row and column relabelings.
"""

from __future__ import annotations

from collections.abc import Callable

from .closed_forms import Params, ceil_div
from .errors import BudgetExceededError, _Record, _set, require_int

# ============================================================
# Budgets
# ============================================================


class OracleBudget(_Record):
    """Resource caps for a single oracle call.

    max_vertices: largest m*n the vertex search accepts.
    max_k: largest class count either oracle accepts.
    node_limit: cap on backtracking nodes / (distribution, window base)
        pairs.
    """

    __slots__ = __match_args__ = ("max_vertices", "max_k", "node_limit")

    def __init__(
        self, max_vertices: int = 24, max_k: int = 1000, node_limit: int = 10_000_000
    ) -> None:
        for name, value in zip(self.__match_args__, (max_vertices, max_k, node_limit)):
            require_int(f"OracleBudget.{name}", value, 1)
            _set(self, name, value)


DEFAULT_BUDGET = OracleBudget()


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
    require_int("k", k, 1)
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
    """Core backtracking search.  One loop places each cell: it joins each
    open class whose members all share its row (``fixrow``) or its column
    (``fixcol``) in turn and last, while fewer than k are open, a new one.

    ``order`` overrides the cell enumeration order (used by tests to
    check invariance under relabelings); None means row-major, which
    additionally enables a row-boundary prune that relies on finished
    rows staying finished.
    """
    total = m * n
    lo = max(0, ceil_div(total, k) - r)
    hi = total // k + r

    row_major = order is None
    if order is None:
        order = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]

    sizes = [0] * k
    fixrow = [0] * k  # shared row of all members, 0 once mixed
    fixcol = [0] * k  # shared column of all members, 0 once mixed
    nodes = 0

    def extend(pos: int, opened: int, cur_max: int, lo_dyn: int, deficit: int) -> bool:
        # deficit = cells still required to lift every class (open or
        # not) to lo_dyn = max(lo, cur_max - r), a sound lower bound on
        # the smallest final size.  A max above r forces lo_dyn >= 1, so
        # the deficit test also refutes ending with a class empty.
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise BudgetExceededError(
                f"search exceeded node_limit = {node_limit} "
                f"on m={m} n={n} r={r} k={k}",
                "node_limit",
            )
        if pos == total:
            return cur_max - min(sizes) <= r
        remaining = total - pos
        if deficit > remaining:
            return False
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

        for ci in range(opened + (opened < k)):
            sz, old_fr, old_fc = sizes[ci], fixrow[ci], fixcol[ci]
            if sz >= hi or (sz and old_fr != vi and old_fc != vj):
                continue
            now_open = opened + (ci == opened)
            fixrow[ci] = vi if sz == 0 or old_fr == vi else 0
            fixcol[ci] = vj if sz == 0 or old_fc == vj else 0
            sizes[ci] = sz + 1
            new_max, new_lo = cur_max, lo_dyn
            new_def = deficit - (1 if sz < lo_dyn else 0)
            if sz >= cur_max:
                new_max = sz + 1
                new_lo = max(lo, new_max - r)
                if new_lo != lo_dyn:
                    new_def = (k - now_open) * new_lo
                    for cj in range(now_open):
                        gap = new_lo - sizes[cj]
                        if gap > 0:
                            new_def += gap
            hit = extend(pos + 1, now_open, new_max, new_lo, new_def)
            sizes[ci] = sz
            fixrow[ci], fixcol[ci] = old_fr, old_fc
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
    require_int("k", k, 1)
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
    ``cap``, summing to ``total``, most balanced first: lexicographically,
    each entry from ceil(rest / parts left) up to the least of the entry
    before it (or ``cap``) and what leaves 1 for each later part.  One
    loop with an explicit prefix, as a recursion per part overflowed
    Python's stack from parts = 997 on.
    """
    prefix: list[int] = []
    rest, entry = total, ceil_div(total, parts)  # the next entry to try
    while True:
        left = parts - len(prefix)
        if 0 < entry <= min(prefix[-1] if prefix else cap, rest - left + 1):
            if left == 1:
                yield (*prefix, entry)
            else:
                prefix.append(entry)
                rest -= entry
                entry = ceil_div(rest, left - 1)
                continue
        if not prefix:
            return
        entry = prefix.pop()  # the last entry, raised by one
        rest += entry
        entry += 1


# ============================================================
# Thresholds by scan
# ============================================================


def oracle_threshold(
    p: Params,
    decide: Callable[[Params, int, OracleBudget], bool],
    budget: OracleBudget = DEFAULT_BUDGET,
) -> int:
    """Least k such that ``decide`` (one of the two oracles above) says
    colorable for every k' in [k, m*n + 1].

    The scan may stop at m*n + 1 because for k > m*n a coloring always
    exists: make every vertex a singleton and leave the remaining classes
    empty, for a size gap of 1 <= r.  So the last failing k in
    [1, m*n + 1] (if any) determines the threshold.

    Raises:
        BudgetExceededError: propagated from the per-k oracle calls.
    """
    last_false = 0
    for k in range(1, p.m * p.n + 2):
        if not decide(p, k, budget):
            last_false = k
    return last_false + 1
