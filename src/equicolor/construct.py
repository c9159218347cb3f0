"""Explicit r-equitable colorings for K_{m(n)} and K_m x K_n.

Each public function returns a coloring that passes
:func:`equicolor.grid.verify`, or raises :class:`NotColorableError` for a
refused instance, :class:`ParameterDomainError` (from the verdict) for
k < 1 or, in :func:`color_kronecker`, m > n, or :class:`InternalCheckError`
when a self-check of :func:`_scatter_layout` or :func:`_realize` fails,
which is a bug.  Constructions are deterministic: ties are broken
lowest-index-first, so identical inputs give byte-identical files.

Four plans, one realizer.  Every class lies inside one row or one column,
and a witness is fixed by a plan (b, C, G): base class size b, C cells
that rows hand over to column classes, G column classes.  The reason
tag of :func:`~equicolor.closed_forms.kronecker_verdict` picks the plan,
then k against n and m*n, and :func:`_realize` places the classes:

* ``edgeless`` or ``multipartite-condition``, and every K_{m(n)}:
  K_{m(n)}'s multipartite rows, b = n // ceil(k/m), C = G = 0, which
  its spanning subgraph K_m x K_n inherits.  b = 0 (when ceil(k/m) > n)
  leaves the per-row class count unbounded, so k > m*n gives empty classes.
* ``at-or-above-gamma``, k <= n: columns plus row splits, b = m, C = c*m,
  G = c: c = k - m*s' full columns, and every row split into s' classes
  of sizes in [m, m+r], where s = n // (m+r) and s' is s, or s+1 when
  the residue n mod (m+r) exceeds m.  This construction witnesses gamma.
* n < k <= m*n: scatter, b = m*n // k, and the least C with its
  G <= k mod m solved in blocks of m cells, at most b + 1 of them;
  :func:`_scatter_layout` returns the plan.  Classes need not be
  contiguous - a class is any subset of one row or one column - and that
  freedom is essential: some instances (for example m=6, n=10, r=1,
  k=15) admit no coloring made of contiguous runs.
* k > m*n: singletons; every cell is its own class and the remaining
  k - m*n classes stay empty, last (the size gap is 1 <= r).

Coordinates follow equicolor.grid: rows 1..m, columns 1..n.  The realizer
runs Python once per column, per group of equal rows and per run of equal
class sizes, never per cell or per class, and keeps a mask of m*n bytes.
"""

from __future__ import annotations

from itertools import chain, compress, groupby, islice, product, repeat

from .closed_forms import (
    REASON_AT_OR_ABOVE_GAMMA,
    Params,
    ceil_div,
    kronecker_verdict,
    multipartite_verdict,
)
from .errors import InternalCheckError, NotColorableError
from .grid import Cell, Coloring

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

    The verdict's reason tag picks the plan, as the module docstring says;
    below gamma the witness is K_{m(n)}'s, the edgeless 1-by-n grid's too.
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
    if reason != REASON_AT_OR_ABOVE_GAMMA:  # edgeless or multipartite-condition
        return color_multipartite(p, k)
    if k <= p.n:
        s = p.n // (p.m + p.r)
        s_eff = s + 1 if p.n % (p.m + p.r) > p.m else s
        c = k - p.m * s_eff
        plan = (p.m, c * p.m, c)
    elif k <= p.m * p.n:
        plan = _scatter_layout(p, k)
    else:  # singletons, then the k - m*n empty classes
        cells = product(range(1, p.m + 1), range(1, p.n + 1))
        return Coloring(p.m, p.n, (*zip(cells), *repeat((), k - p.m * p.n)))
    return _realize(p, k, *plan)


def _scatter_layout(p: Params, k: int) -> tuple[int, int, int]:
    """The n < k <= m*n plan (b, C, G): column classes fed by the rows.

    b = m*n // k, the largest min size any k-class partition allows, and
    C is the least columnar cell total (C = 0 is the pure row-split
    layout) for which some G fits the column side and k - G the row side.
    :func:`_realize` gives each column class its own column and any load
    of b to top = min(w, m) cells (w = b + r), so G <= n classes carry C
    cells iff G*b <= C <= G*top.  A row keeping x cells takes
    lo = ceil(x/w) to hi = x // b classes; m - e rows keep y = n - C // m
    cells, the e = C mod m others y - 1, and [p_lo, p_hi] sums their
    windows.  An empty window needs no test: lo <= ceil(x/b) <= hi + 1
    makes its lo - hi = 1, and lo and hi each rise by 0 or 1 from x - 1
    to x, so the other group's lo - hi >= 0.  Then p_lo > p_hi, and no G
    has k - p_hi <= G <= k - p_lo.  So C is accepted iff p_lo <= p_hi,
    b*(k - p_hi) <= C <= top*(k - p_lo) and ceil(C/top) <= C // b, with
    G = max(ceil(C/top), k - p_hi).

    Block solve: in the block q = C // m, y is fixed, p_lo =
    m*ceil(y/w) - e*alpha and p_hi = m*(y // b) - e*beta, where alpha and
    beta (each 0 or 1) are the drops in ceil(y/w) and y // b from y to
    y - 1.  The first three tests are each a*e <= c, an interval of e
    with least C0.  The last first holds at max(C0, b*ceil(C0/top)): for
    C0 <= C < b*ceil(C0/top), ceil(C/top) stays ceil(C0/top) > C // b.

    Lemma: with j = k // m, G' = k mod m, C' = max(m*n - m*j*(b+1), G'*b),
    (b, C', G') is accepted; here 1 <= b <= m-1 and j >= 1.  As w grows,
    p_lo and ceil(C / min(w, m)) only fall and the other bounds stay, so
    take r = 1.  By k*b <= m*n every row keeps j*b to j*(b+1) cells, so
    p_lo <= m*j = k - G' <= p_hi.  By m*n <= k*(b+1), G'*b <= C' <=
    G'*(b+1), and b+1 <= m, so ceil(C' / min(w, m)) <= G' <= C' // b.  By
    m*j >= k-m+1 and k*(b+1) > m*n, C' <= (m-1)(b+1) - 1, so the least C
    lies in a block q <= b.  Hence b needs no search, at most b + 1
    blocks are solved, and the raise below is unreachable; it stays as a
    self-check.

    G <= k mod m < n, so the solve needs no G <= n test: the G taken at
    C is G(C) = max(ceil(C/top), k - p_hi(C)), which never falls as C
    grows, since each further donated cell lowers one row's kept count
    by 1 and so never raises p_hi.  The least C is at most C', and both
    terms of G(C') are at most G' by the lemma.
    """
    m, n, r = p.m, p.n, p.r
    b = m * n // k
    w = b + r
    top = min(w, m)
    for q in range(b + 1):
        y = n - q
        lo, hi = ceil_div(y, w), y // b
        alpha, beta = lo - ceil_div(y - 1, w), hi - (y - 1) // b
        first, last = 0, m - 1  # the e that pass the three linear tests
        for a, c in (
            (beta - alpha, m * (hi - lo)),  # p_lo <= p_hi
            (b * beta - 1, q * m - b * (k - m * hi)),  # b*(k - p_hi) <= C
            (1 - top * alpha, top * (k - m * lo) - q * m),  # C <= top*(k - p_lo)
        ):
            if a > 0:
                last = min(last, c // a)
            elif a < 0:
                first = max(first, ceil_div(c, a))
            elif c < 0:
                last = -1
        cells = max(q * m + first, b * ceil_div(q * m + first, top))
        if cells <= q * m + last:
            return b, cells, max(ceil_div(cells, top), k - m * hi + (cells - q * m) * beta)
    raise InternalCheckError(
        f"no scatter layout found for {p}, k={k}; "
        f"the decision rule said this instance is colorable"
    )


def _realize(p: Params, k: int, b: int, cells: int, col_cls: int) -> Coloring:
    """Place the k classes of the plan (b, C, G) = (b, cells, col_cls).

    * Column class j fills column j, for j = 1..G, so G <= n: G = 0 for
      the rows plan, c <= k <= n for columns plus row splits, and
      :func:`_scatter_layout` proves G <= k mod m for scatter.  Each
      holds b to min(b + r, m) cells, so G*b <= C <= G*min(b + r, m):
      b each, and the C - G*b spare cells filled in left to right.
    * Every row donates floor(C/m) or ceil(C/m) cells to those columns,
      the larger donations coming from the highest row indexes.  Column
      j takes, in ascending order, the next z_j rows (its load) of one
      cyclic walk over rows 1..m from row m - (C mod m) + 1 (row 1 if
      C mod m = 0).  These are the rows the greedy giving each column
      the rows with the largest remaining budget (ties to the lowest row)
      picks: budgets differ by at most 1, the larger held by the rows
      from the walk's position to m, and every z_j <= m.
    * Each row takes the least class count its kept cells allow; the
      other k - G row classes are dealt round-robin, lowest row first,
      up to kept // b per row (no cap when b = 0).  The rows form at most
      two runs of equal kept counts, so the deal is solved per run: T
      whole rounds give each row min(room, T) more, and the last, partial
      round one more to the lowest rows with room left.  Each row splits
      its kept cells near-evenly, in column order, into sizes in [b, b+r].
    * The rows' cells are one stream over a row-major mask of m*n bytes,
      cleared at donor cells by strided slices, and each run of equal
      row class sizes is one ``islice(zip(*[stream] * size), many)``.
    """
    m, n, r = p.m, p.n, p.r
    w = b + r
    top = min(w, m)  # a column class's largest load
    if not (0 <= col_cls <= n and col_cls * b <= cells <= col_cls * top):
        raise InternalCheckError(
            f"plan b={b} C={cells} G={col_cls} out of range for {p}, k={k}"
        )

    # Column side: class j takes column j's cells in the next rows of the
    # donor walk; ``walk`` is the 0-based row the walk takes next.
    keep, longer = divmod(m * n - cells, m)  # the first ``longer`` rows keep one more
    kept = [keep + 1] * longer + [keep] * (m - longer)
    free = bytearray(b"\1") * (m * n)  # 1 where a row keeps its cell
    classes: list[tuple[Cell, ...]] = []
    spare = cells - col_cls * b
    walk = m - cells % m
    for j in range(1, col_cls + 1):
        load = min(top, b + spare)
        spare -= load - b
        stop = walk + load
        wrap, last = max(stop - m, 0), min(stop, m)  # rows 1..wrap, walk+1..last
        free[j - 1 : wrap * n : n] = bytes(wrap)
        free[walk * n + j - 1 : last * n : n] = bytes(last - walk)
        rows = chain(range(1, wrap + 1), range(walk + 1, last + 1))
        classes.append(tuple(zip(rows, repeat(j))))
        walk = stop % m

    # Row side: (kept, class count, rows) segments in row order, at most
    # two per run of equal rows.  ``active`` rows have room beyond
    # ``rounds`` whole rounds.
    runs = []  # (kept, rows, least class count, room for more)
    for x, run in groupby(kept):
        least = ceil_div(x, w)
        runs.append((x, len(list(run)), least, (x // b if b else k) - least))
    need = (k - col_cls) - sum(rows * least for _, rows, least, _ in runs)
    if need < 0:
        raise InternalCheckError(f"too few row classes needed for {p}, k={k}")
    rounds, active = 0, m
    for room, rows in sorted((room, rows) for _, rows, _, room in runs):
        if need < active * (room - rounds):
            break
        need -= active * (room - rounds)
        rounds, active = room, active - rows
    if need and not active:
        raise InternalCheckError(f"row class counts stuck for {p}, k={k}")
    more, partial = divmod(need, active or 1)
    rounds += more
    segments = []
    for x, rows, least, room in runs:
        c = least + min(room, rounds)
        first = min(partial, rows) if room > rounds else 0
        partial -= first
        segments += (x, c + 1, first), (x, c, rows - first)
    counted = list(map(free.count, repeat(1), range(0, m * n, n), range(n, m * n + 1, n)))
    if counted != kept:
        raise InternalCheckError(f"kept-cell mismatch for {p}, k={k}")
    stream = compress(product(range(1, m + 1), range(1, n + 1)), free)
    for x, c, times in segments:
        if not c:  # c = 0 keeps no cell
            continue
        # The near-even cut needs no window check: every plan leaves each
        # row ceil(x/w) <= x // b, c starts at ceil(x/w) and grows only
        # while below x // b, so c*b <= x <= c*w.
        base, extra = divmod(x, c)
        cuts = [(base + 1, extra), (base, c - extra)] * times if extra else [(base, c * times)]
        for size, many in cuts:
            classes += islice(zip(*[stream] * size), many) if size else repeat((), many)
    return Coloring(m, n, tuple(classes))
