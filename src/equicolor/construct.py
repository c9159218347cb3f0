"""Explicit r-equitable colorings for K_{m(n)} and K_m x K_n.

Every function either returns a coloring that passes
:func:`equicolor.grid.verify` or raises :class:`NotColorableError`; there
is no third outcome.  Constructions are deterministic: ties are broken
lowest-index-first, so identical inputs always produce byte-identical
colorings after serialization.

Four plans, one realizer.  Every class lies inside one row or one column,
and a witness is fixed by a plan (b, C, G): base class size b, C cells
that rows hand over to column classes, G column classes.  The product
constructor picks the plan by where k falls relative to gamma =
gamma(m, n, r), n and m*n, and :func:`_realize` places the classes:

* m <= k < gamma, and every K_{m(n)}: multipartite rows,
  b = n // ceil(k/m), C = G = 0; the decision rule guarantees the
  multipartite size condition.  b = 0 (when ceil(k/m) > n) leaves the
  per-row class count unbounded, so k > m*n gives empty classes.
* gamma <= k <= n: columns plus row splits, b = m, C = c*m, G = c: c =
  k - m*s' full columns, and every row split into s' classes of sizes in
  [m, m+r], where s = n // (m+r) and s' is s, or s+1 when the residue
  n mod (m+r) exceeds m.  This is the construction that witnesses gamma.
* n < k <= m*n: scatter, b and C scanned, G computed, by
  :func:`_scatter_layout`.  Classes need not be contiguous - a class is
  any subset of one row or one column - and that freedom is essential:
  some instances (for example m=6, n=10, r=1, k=15) admit no coloring
  made of contiguous runs.
* k > m*n: singletons; every cell is its own class and the remaining
  k - m*n classes stay empty, last (the size gap is 1 <= r).

Coordinates follow equicolor.grid: rows 1..m, columns 1..n.
"""

from __future__ import annotations

from .closed_forms import (
    Params,
    ceil_div,
    gamma,
    kronecker_verdict,
    multipartite_verdict,
)
from .errors import (
    InfeasibleWindowError,
    InternalCheckError,
    NotColorableError,
    ParameterDomainError,
)
from .grid import Coloring, Vertex

# ============================================================
# Size-window splitting
# ============================================================


def split_sizes(total: int, count: int, lo: int, r: int) -> list[int]:
    """Split ``total`` items into ``count`` sizes within [lo, lo+r].

    The split is near-even and non-increasing: divmod(total, count) gives
    the base size, and the remainder goes to the lowest-indexed entries.
    A near-even split automatically lands inside the window whenever any
    split does, so feasibility is exactly the two-sided bound below.

    Args:
        total: number of items, >= 0.
        count: number of sizes to emit, >= 1.
        lo: smallest allowed size, >= 0.
        r: window width, >= 0 (r = 0 forces an exact split).

    Returns:
        A non-increasing list of ``count`` sizes summing to ``total``.

    Raises:
        InfeasibleWindowError: iff not lo*count <= total <= (lo+r)*count.
    """
    if total < 0 or count < 1 or lo < 0 or r < 0:
        raise ParameterDomainError(
            f"split_sizes domain: total>=0, count>=1, lo>=0, r>=0; "
            f"got total={total} count={count} lo={lo} r={r}"
        )
    if not (lo * count <= total <= (lo + r) * count):
        raise InfeasibleWindowError(
            f"cannot split {total} into {count} sizes within "
            f"[{lo}, {lo + r}]: need {lo * count} <= {total} <= "
            f"{(lo + r) * count}"
        )
    base, extra = divmod(total, count)
    return [base + 1] * extra + [base] * (count - extra)


# ============================================================
# Complete multipartite graphs
# ============================================================


def color_multipartite(p: Params, k: int) -> Coloring:
    """An r-equitable k-coloring of K_{m(n)}, part i living on grid row i.

    Colors are shared out near-evenly over the parts (lowest-indexed
    parts get the spare ones) and each part is split near-evenly among
    its colors.  The extreme class sizes this produces are exactly the
    two quantities compared by the colorability condition, so the result
    is r-equitable precisely when that condition passes.  For k > m*n
    some classes come out empty, which is allowed.

    Raises:
        NotColorableError: when ``multipartite_verdict(p, k)`` is false;
            the exception's ``reason`` is the verdict's tag.
    """
    ok, reason = multipartite_verdict(p, k)
    if not ok:
        raise NotColorableError(
            f"K_{{{p.m}({p.n})}} has no {p.r}-equitable {k}-coloring "
            f"({reason})",
            reason,
        )
    return _realize(p, k, p.n // ceil_div(k, p.m), 0, 0)


# ============================================================
# Kronecker products
# ============================================================


def color_kronecker(p: Params, k: int) -> Coloring:
    """An r-equitable k-coloring of K_m x K_n (canonical m <= n).

    Dispatches on k as described in the module docstring; the edgeless
    1-by-n grid is the same graph as K_{1(n)} and is colored as such.
    The returned coloring always has exactly k classes, every class
    inside one row or one column, and size gap at most r.

    Raises:
        NotColorableError: when ``kronecker_colorable(p, k)`` is false;
            the exception's ``reason`` names the failed condition.
    """
    ok, reason = kronecker_verdict(p, k)
    if not ok:
        raise NotColorableError(
            f"K_{p.m} x K_{p.n} has no {p.r}-equitable {k}-coloring "
            f"({reason})",
            reason,
        )
    if p.m == 1:
        return color_multipartite(p, k)
    g = gamma(p).value
    if g > p.n:
        raise InternalCheckError(f"gamma {g} exceeds n for {p}")
    if k < g:
        return color_multipartite(p, k)
    if k <= p.n:
        s = p.n // (p.m + p.r)
        s_eff = s + 1 if p.n % (p.m + p.r) > p.m else s
        c = k - p.m * s_eff
        return _realize(p, k, p.m, c * p.m, c)
    if k <= p.m * p.n:
        return _scatter_layout(p, k)
    return _singletons(p, k)


def _scatter_layout(p: Params, k: int) -> Coloring:
    """The n < k <= m*n plan: column classes fed near-evenly by the rows.

    Scans a base size b from m*n // k, the largest min size any k-class
    partition allows, down to 1, and a columnar cell total C from 0 up;
    C = 0 is the pure row-split layout, used whenever it can realize
    exactly k classes.  Because the donations :func:`_realize` takes are
    near-even, any per-column load vector with entries at most m can be
    realized by giving each column the rows with the largest remaining
    donation budget, so feasibility reduces to arithmetic on class-count
    intervals: the scan accepts the first (b, C) for which some G fits
    both the column side and k - G fits the row side.  The least G that
    carries C is computed, since the column load grows monotonically in G
    and fills column by column (:func:`_least_column_classes`).
    """
    m, n, r = p.m, p.n, p.r
    for b in range(m * n // k, 0, -1):
        w = b + r
        col_budget = n * (m // b)  # a column hosts at most m // b classes
        for cells in range(m * n + 1):
            # A row keeping x cells takes ceil(x/w) to x//b classes.
            donate, d_extra = divmod(cells, m)
            p_lo = p_hi = 0
            for rows, kept in ((m - d_extra, n - donate), (d_extra, n - donate - 1)):
                lo, hi = ceil_div(kept, w), kept // b
                if rows and lo > hi:
                    break
                p_lo += rows * lo
                p_hi += rows * hi
            else:
                # Also rejects C the columns cannot hold (least G > col_budget).
                col_cls = max(_least_column_classes(cells, m, n, w), k - p_hi)
                if col_cls <= min(cells // b, col_budget) and p_lo <= k - col_cls:
                    return _realize(p, k, b, cells, col_cls)
    raise InternalCheckError(
        f"no scatter layout found for {p}, k={k}; "
        f"the decision rule said this instance is colorable"
    )


def _least_column_classes(cells: int, m: int, n: int, w: int) -> int:
    """Least G whose balanced column load (as :func:`_realize` places it,
    classes of size at most w) reaches ``cells`` <= m*n.

    With G = n*q + e, 0 <= e <= n, that load is n*min(q*w, m) +
    e*(min((q+1)*w, m) - min(q*w, m)), non-decreasing in G.  As cells <=
    m*n, the least G has q*w < m: q = (cells - 1) // (n*w), clamped at 0.
    """
    q = max(0, (cells - 1) // (n * w))
    return n * q + ceil_div(cells - n * q * w, min((q + 1) * w, m) - q * w)


def _realize(p: Params, k: int, b: int, cells: int, col_cls: int) -> Coloring:
    """Place the k classes of the plan (b, C, G) = (b, cells, col_cls).

    * G column classes live on t = min(n, G) columns with balanced
      per-column class counts g_j; column j holds z_j cells with
      g_j*b <= z_j <= min(g_j*(b+r), m), the loads filled left to right.
    * Every row donates floor(C/m) or ceil(C/m) cells to those columns,
      the larger donations coming from the highest row indexes.
    * Each row takes the least class count its kept cells allow; the
      other k - G row classes are dealt round-robin, lowest row first,
      up to kept // b per row (no cap when b = 0).  Each row splits its
      kept cells near-evenly, in column order, into sizes in [b, b+r].
    """
    m, n, r = p.m, p.n, p.r
    w = b + r
    if not (0 <= col_cls and col_cls * b <= cells <= m * n):
        raise InternalCheckError(
            f"plan b={b} C={cells} G={col_cls} out of range for {p}, k={k}"
        )

    # Column side: balanced class counts, loads filled left to right.
    loads: list[int] = []
    counts: list[int] = []
    if col_cls:
        t = min(n, col_cls)
        base, extra = divmod(col_cls, t)
        counts = [base + 1] * extra + [base] * (t - extra)
        loads = [g * b for g in counts]
        spare = cells - col_cls * b
        for j in range(t):
            take = min(min(counts[j] * w, m) - loads[j], spare)
            loads[j] += take
            spare -= take
        if spare:
            raise InternalCheckError(
                f"column loads cannot absorb {spare} cells for {p}, k={k}"
            )

    # Row donations: near-even, the spares from the highest row indexes.
    donate, d_extra = divmod(cells, m)
    budget = [donate] * (m - d_extra) + [donate + 1] * d_extra
    kept = [n - y for y in budget]
    drawn: list[set[int]] = [set() for _ in range(m)]
    classes: list[tuple[Vertex, ...]] = []
    for j, (load, g) in enumerate(zip(loads, counts), start=1):
        # Loads are non-increasing, so taking the rows with the largest
        # remaining budget each time always succeeds (bipartite greedy).
        order = sorted(range(m), key=lambda i: (-budget[i], i))
        chosen = sorted(order[:load])
        for i in chosen:
            if budget[i] <= 0:
                raise InternalCheckError(
                    f"row donation budget exhausted at column {j} for {p}, k={k}"
                )
            budget[i] -= 1
            drawn[i].add(j)
        at = 0
        for size in split_sizes(load, g, b, r):
            classes.append(
                tuple(Vertex(i + 1, j) for i in chosen[at : at + size])
            )
            at += size
    if any(budget):
        raise InternalCheckError(f"unplaced donations {budget} for {p}, k={k}")

    # Row side: distribute the remaining k - col_cls classes over rows,
    # lowest row index first, within each row's feasible count range.
    row_cls = [ceil_div(x, w) for x in kept]
    hi_cnt = [x // b if b else k for x in kept]
    need = (k - col_cls) - sum(row_cls)
    if need < 0:
        raise InternalCheckError(f"too few row classes needed for {p}, k={k}")
    while need:
        before = need
        for i in range(m):
            if need and row_cls[i] < hi_cnt[i]:
                row_cls[i] += 1
                need -= 1
        if need == before:
            raise InternalCheckError(f"row class counts stuck for {p}, k={k}")
    for i in range(1, m + 1):
        own = [j for j in range(1, n + 1) if j not in drawn[i - 1]]
        if len(own) != kept[i - 1]:
            raise InternalCheckError(f"kept-cell mismatch in row {i} for {p}")
        at = 0
        if row_cls[i - 1]:
            for size in split_sizes(kept[i - 1], row_cls[i - 1], b, r):
                classes.append(
                    tuple(Vertex(i, j) for j in own[at : at + size])
                )
                at += size
    return Coloring(m, n, tuple(classes))


def _singletons(p: Params, k: int) -> Coloring:
    """The k > m*n shape: one cell per class, rest empty; gap is 1 <= r."""
    classes: list[tuple[Vertex, ...]] = [
        (Vertex(i, j),)
        for i in range(1, p.m + 1)
        for j in range(1, p.n + 1)
    ]
    classes.extend(() for _ in range(k - p.m * p.n))
    return Coloring(p.m, p.n, tuple(classes))
