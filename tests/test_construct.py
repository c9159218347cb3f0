"""Unit tests for the witness constructors, and for the near-even split
that their per-cell reference realizer uses."""

import gc
import hashlib
import random
import sys
from itertools import filterfalse, islice, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicolor import construct
from equicolor.closed_forms import (
    Params,
    ceil_div,
    gamma,
    kronecker_colorable,
    multipartite_colorable,
)
from equicolor.construct import (
    _realize,
    _scatter_layout,
    color_kronecker,
    color_multipartite,
)
from equicolor.errors import InternalCheckError, NotColorableError, ParameterDomainError
from equicolor.files import format_coloring
from equicolor.grid import Coloring, verify


def single_row_or_column(cls):
    return len({v[0] for v in cls}) <= 1 or len({v[1] for v in cls}) <= 1


# ------------------------------------------------------------
# the near-even split
# ------------------------------------------------------------


def split_sizes(total, count, lo, r):
    """``total`` cut near-evenly into ``count`` sizes, the larger first,
    each checked inside [lo, lo + r]: the reference realizer's split.
    construct._realize cuts with divmod alone, as its plans keep
    lo*count <= total <= (lo + r)*count, where the cut always fits."""
    base, extra = divmod(total, count)
    sizes = [base + 1] * extra + [base] * (count - extra)
    if not all(lo <= size <= lo + r for size in sizes):
        raise ValueError(f"{sizes} leaves the window [{lo}, {lo + r}]")
    return sizes


def test_split_sizes_examples():
    assert split_sizes(10, 3, 3, 1) == [4, 3, 3]
    assert split_sizes(6, 3, 2, 0) == [2, 2, 2]
    with pytest.raises(ValueError, match="leaves the window"):
        split_sizes(13, 3, 3, 1)  # 13 > (3+1)*3


def test_split_sizes_feasibility_iff_exhaustive():
    # The near-even cut fits the window exactly when any cut does, that
    # is when lo*count <= total <= (lo+r)*count, over a dense small box.
    for lo in range(0, 6):
        for count in range(1, 9):
            for r in range(0, 5):
                for total in range(0, 41):
                    feasible = lo * count <= total <= (lo + r) * count
                    if feasible:
                        sizes = split_sizes(total, count, lo, r)
                        assert len(sizes) == count
                        assert sum(sizes) == total
                        assert sizes == sorted(sizes, reverse=True)
                        assert max(sizes) - min(sizes) <= 1  # near-even
                    else:
                        with pytest.raises(ValueError):
                            split_sizes(total, count, lo, r)


# ------------------------------------------------------------
# color_multipartite
# ------------------------------------------------------------


def test_color_multipartite_one_color_per_part():
    c = color_multipartite(Params(3, 7, 2), 3)
    assert c.sizes() == [7, 7, 7]
    assert all(len({v[0] for v in cls}) == 1 for cls in c.classes)
    assert verify(2, c).valid


def test_color_multipartite_uneven_color_counts():
    c = color_multipartite(Params(2, 10, 2), 5)
    # Part 1 carries the extra color: 3 classes (4,3,3); part 2 two (5,5).
    assert c.sizes() == [4, 3, 3, 5, 5]
    part_of = [{v[0] for v in cls} for cls in c.classes]
    assert part_of == [{1}, {1}, {1}, {2}, {2}]
    assert verify(2, c).valid


def test_color_multipartite_refuses_with_reason():
    with pytest.raises(NotColorableError) as exc:
        color_multipartite(Params(2, 10, 2), 3)
    assert exc.value.reason == "multipartite-condition-failed"
    with pytest.raises(NotColorableError) as exc:
        color_multipartite(Params(3, 5, 1), 2)
    assert exc.value.reason == "below-chromatic"


def test_color_multipartite_beyond_vertex_count_uses_empties():
    p = Params(2, 3, 1)
    c = color_multipartite(p, 8)
    assert c.k == 8
    assert sorted(c.sizes()) == [0, 0, 1, 1, 1, 1, 1, 1]
    assert verify(1, c).valid


@settings(max_examples=80)
@given(m=st.integers(2, 6), n=st.integers(1, 14), r=st.integers(1, 4),
       k=st.integers(2, 40))
def test_color_multipartite_sound_whenever_it_accepts(m, n, r, k):
    p = Params(m, n, r)
    if not multipartite_colorable(p, k):
        with pytest.raises(NotColorableError):
            color_multipartite(p, k)
        return
    c = color_multipartite(p, k)
    assert c.k == k
    assert verify(r, c).valid
    # Multipartite classes must stay inside one part, i.e. one row.
    assert all(len({v[0] for v in cls}) <= 1 for cls in c.classes)


# ------------------------------------------------------------
# color_kronecker: frozen shapes
# ------------------------------------------------------------


def test_color_kronecker_columns_plus_row_splits():
    c = color_kronecker(Params(2, 10, 2), 6)
    assert c.sizes() == [2, 2, 4, 4, 4, 4]
    assert verify(2, c).valid


def test_color_kronecker_at_k_equals_n():
    c = color_kronecker(Params(3, 7, 2), 7)
    assert c.sizes() == [3] * 7
    # Four full columns, then one kept block per row.
    for j, cls in enumerate(c.classes[:4], start=1):
        assert cls == tuple((i, j) for i in (1, 2, 3))
    assert verify(2, c).valid


def test_color_kronecker_at_gamma_and_between():
    assert color_kronecker(Params(3, 7, 2), 5).sizes() == [3, 3, 5, 5, 5]
    assert color_kronecker(Params(3, 7, 2), 6).sizes() == [3, 3, 3, 4, 4, 4]


def test_color_kronecker_below_gamma_delegates_to_multipartite():
    c = color_kronecker(Params(3, 7, 2), 3)
    assert c.sizes() == [7, 7, 7]
    assert all(len({v[0] for v in cls}) == 1 for cls in c.classes)


def test_color_kronecker_refusals_carry_reasons():
    with pytest.raises(NotColorableError) as exc:
        color_kronecker(Params(3, 7, 2), 4)
    assert exc.value.reason == "multipartite-condition-failed"
    with pytest.raises(NotColorableError) as exc:
        color_kronecker(Params(3, 7, 2), 2)
    assert exc.value.reason == "below-chromatic"


def test_color_kronecker_singletons_and_empties():
    c = color_kronecker(Params(2, 3, 1), 7)
    assert c.sizes() == [1, 1, 1, 1, 1, 1, 0]
    assert verify(1, c).valid


# ------------------------------------------------------------
# color_kronecker: the scatter layout (n < k <= m*n)
# ------------------------------------------------------------


def test_scatter_layout_golden_small_instance():
    # 4x4, r=1, k=7: two cells go columnar (donated by rows 3 and 4), the
    # rows keep the rest.  Frozen byte-for-byte as a determinism anchor.
    c = color_kronecker(Params(4, 4, 1), 7)
    assert format_coloring(c) == (
        "equicolor v1\n"
        "m=4 n=4 k=7\n"
        "1: (3,1) (4,1)\n"
        "2: (1,1) (1,2)\n"
        "3: (1,3) (1,4)\n"
        "4: (2,1) (2,2)\n"
        "5: (2,3) (2,4)\n"
        "6: (3,2) (3,3) (3,4)\n"
        "7: (4,2) (4,3) (4,4)\n"
    )
    assert verify(1, c).valid


def test_scatter_layout_handles_forced_exact_sizes():
    # 6x10 with k=15 forces fifteen classes of size exactly 4, which no
    # arrangement of contiguous runs can tile; the scatter layout must
    # still find a coloring (non-contiguous column classes).
    c = color_kronecker(Params(6, 10, 1), 15)
    assert c.sizes() == [4] * 15
    assert verify(1, c).valid
    assert all(single_row_or_column(cls) for cls in c.classes)


@pytest.mark.parametrize(
    "m,n,r,k",
    [(4, 4, 1, 7), (4, 5, 1, 9), (5, 5, 1, 8), (5, 7, 1, 16),
     (6, 11, 1, 14), (6, 11, 1, 16), (8, 11, 2, 30), (7, 9, 3, 20),
     (8, 13, 5, 15)],
)
def test_scatter_layout_spot_instances(m, n, r, k):
    p = Params(m, n, r)
    assert kronecker_colorable(p, k)
    c = color_kronecker(p, k)
    assert c.k == k
    assert verify(r, c).valid
    assert all(single_row_or_column(cls) for cls in c.classes)


def test_scatter_layout_takes_the_largest_base_size():
    # _scatter_layout's lemma: b = m*n // k, the largest min size any
    # k-class partition allows, is always accepted, at or before
    # C' = max(m*n - m*j*(b+1), (k mod m)*b) <= (m-1)(b+1) - 1, j = k // m,
    # and its G never exceeds k mod m < n.
    # Every n < k <= m*n is colorable (gamma <= n), so all draws reach
    # the scatter plan.
    rng = random.Random(15)
    rs = (1, 2, 3, 5, 8, 13, 30, 100, 1000, 10**6)
    for draw in range(300):
        m = rng.randint(2, 120)
        n = rng.randint(m, 400)
        lo, hi = [
            (n + 1, min(n + m, m * n)),  # just above n
            (max(n + 1, m * n - m), m * n),  # near m*n
            (n + 1, m * n),
        ][draw % 3]
        k = rng.randint(lo, hi)
        p = Params(m, n, rng.choice(rs))
        assert kronecker_colorable(p, k)
        b, cells, col_cls = _scatter_layout(p, k)
        assert b == m * n // k, (p, k)
        c_star = max(m * n - m * (k // m) * (b + 1), k % m * b)
        assert cells <= c_star <= (m - 1) * (b + 1) - 1, (p, k, cells)
        assert col_cls <= k % m, (p, k, col_cls)  # hence one column each


def test_scatter_layout_lemma_plan_passes_the_judge():
    # The plan (m*n // k, C', k mod m) of _scatter_layout's lemma, built
    # by the realizer and judged by the independent verifier.
    for m in range(2, 16):
        for n in range(m, 16):
            for r in range(1, 4):
                p = Params(m, n, r)
                for k in range(n + 1, m * n + 1):
                    b = m * n // k
                    c_star = max(m * n - m * (k // m) * (b + 1), k % m * b)
                    c = _realize(p, k, b, c_star, k % m)
                    assert c.k == k and verify(r, c).valid, (p, k)


def reference_scatter_layout(p, k):
    """The scatter plan found by scanning C from 0 one cell at a time, up
    to (m-1)(b+1) steps: the tests of _scatter_layout's docstring applied
    to each C in turn.  construct._scatter_layout solves them per block
    of m cells instead."""
    m, n, r = p.m, p.n, p.r
    b = m * n // k
    w = b + r
    for cells in range(m * n + 1):
        y, e = n - cells // m, cells % m
        p_lo = (m - e) * ceil_div(y, w) + e * ceil_div(y - 1, w)
        p_hi = (m - e) * (y // b) + e * ((y - 1) // b)
        g_hi = min(cells // b, k - p_lo)  # G's upper bounds
        if k - p_hi <= g_hi:
            col_cls = max(ceil_div(cells, min(w, m)), k - p_hi)
            if col_cls <= g_hi:
                return b, cells, col_cls
    raise InternalCheckError(f"no scatter layout found for {p}, k={k}")


def _scatter_instances():
    for m in range(2, 21):
        for n in range(m, 21):
            for r in range(1, 6):
                for k in range(n + 1, m * n + 1):
                    yield Params(m, n, r), k
    rng = random.Random(25)
    for _ in range(3000):
        m = rng.randint(2, 300)
        n = rng.randint(m, 400)
        yield Params(m, n, rng.randint(1, 9)), rng.randint(n + 1, m * n)
    yield Params(1000, 1000, 1), 1500
    yield Params(1000, 1000, 3), 1100


def test_scatter_layout_matches_the_scan():
    count = 0
    for p, k in _scatter_instances():
        assert _scatter_layout(p, k) == reference_scatter_layout(p, k), (p, k)
        count += 1
    assert count == 106_077


def test_realizer_refuses_more_column_classes_than_columns():
    # Column class j fills column j, so G = n + 1 would clear column
    # n + 1's donor cells in the next row's stretch of the kept-cell mask.
    p = Params(3, 4, 1)
    with pytest.raises(InternalCheckError, match="out of range"):
        _realize(p, 6, 1, 5, p.n + 1)


# ------------------------------------------------------------
# soundness, completeness mirror, determinism
# ------------------------------------------------------------


def test_color_kronecker_sound_on_small_box():
    # The full-scale sweep lives in the acceptance suite; this is the
    # fast everyday version; m = 1 is the edgeless grid.
    for m in range(1, 7):
        for n in range(m, 7):
            for r in range(1, 4):
                p = Params(m, n, r)
                for k in range(1, m * n + 2):
                    if not kronecker_colorable(p, k):
                        with pytest.raises(NotColorableError):
                            color_kronecker(p, k)
                        continue
                    c = color_kronecker(p, k)
                    assert c.k == k
                    report = verify(r, c)
                    assert report.valid, (m, n, r, k, report.violations)


def test_color_kronecker_deterministic():
    for args in [(3, 7, 2, 6), (4, 4, 1, 7), (6, 10, 1, 15), (2, 10, 2, 6)]:
        m, n, r, k = args
        first = color_kronecker(Params(m, n, r), k)
        second = color_kronecker(Params(m, n, r), k)
        assert first == second
        assert format_coloring(first) == format_coloring(second)


def test_color_kronecker_requires_canonical_orientation():
    with pytest.raises(ParameterDomainError):
        color_kronecker(Params(7, 3, 2), 5)


# sha256 over every witness (as written by format_coloring) and every
# refusal reason in the boxes below.  Any change to a witness byte moves it.
WITNESS_DIGEST = "cf2919603c67c106b6a3dc366e3d628f4acd147309c47aa3bcda160757a9abf7"


def _witness_records():
    for m in range(1, 10):
        for n in range(m, 10):
            for r in range(1, 4):
                for k in range(1, m * n + 3):
                    yield color_kronecker, Params(m, n, r), k
    for m in range(1, 7):
        for n in range(1, 7):
            for r in range(1, 4):
                for k in range(1, 2 * m * n + 4):
                    yield color_multipartite, Params(m, n, r), k


def test_witnesses_are_frozen():
    digest = hashlib.sha256()
    for constructor, p, k in _witness_records():
        try:
            text = format_coloring(constructor(p, k))
        except NotColorableError as exc:
            text = f"refused {exc.reason}\n"
        digest.update(f"{constructor.__name__} {p.m} {p.n} {p.r} {k}\n".encode())
        digest.update(text.encode())
    assert digest.hexdigest() == WITNESS_DIGEST


# sha256 over every witness with gamma <= k <= m*n, 2 <= m <= n <= 12 and
# r <= 3 (8,705 of them, every one colorable): every plan shape on wider
# grids than the box above, where the donor rows of a column wrap past m.
WIDE_WITNESS_DIGEST = "0b4663f687e487754812c7779ba1b86330b7190fdee1520b323c885668ebfe1f"


def test_wide_witnesses_are_frozen():
    digest = hashlib.sha256()
    count = 0
    for m in range(2, 13):
        for n in range(m, 13):
            for r in range(1, 4):
                p = Params(m, n, r)
                for k in range(gamma(p).value, m * n + 1):
                    digest.update(f"{m} {n} {r} {k}\n".encode())
                    digest.update(format_coloring(color_kronecker(p, k)).encode())
                    count += 1
    assert count == 8_705
    assert digest.hexdigest() == WIDE_WITNESS_DIGEST


def test_witness_cells_are_not_tracked_by_the_garbage_collector():
    # Exact tuples of ints leave the collector's lists on its first pass,
    # so a large witness costs no collection time once it is built.
    p = Params(12, 15, 1)
    for k in (12, gamma(p).value, 15, 40, 12 * 15 + 5):  # every plan shape
        coloring = color_kronecker(p, k)
        gc.collect()
        cells = [cell for cls in coloring.classes for cell in cls]
        assert len(cells) == 12 * 15
        assert all(type(cell) is tuple for cell in cells)
        assert not any(map(gc.is_tracked, cells))


def test_witness_classes_are_exact_tuples_of_cell_pairs():
    # Every plan shape, including the edgeless m = 1 grid: classes are
    # exact tuples of exact (row, col) tuples of ints.
    p = Params(12, 15, 1)
    shapes = [(p, k) for k in (12, gamma(p).value, 15, 40, 12 * 15 + 5)]
    shapes += [(Params(6, 10, 1), 15), (Params(1, 7, 2), 3)]
    for p, k in shapes:
        coloring = color_kronecker(p, k)
        assert type(coloring.classes) is tuple
        for cls in coloring.classes:
            assert type(cls) is tuple
            for cell in cls:
                assert type(cell) is tuple and len(cell) == 2
                assert type(cell[0]) is int and type(cell[1]) is int


# ------------------------------------------------------------
# the realizer against a per-cell reference
# ------------------------------------------------------------


def reference_realize(p, k, b, cells, col_cls):
    """The plan (b, C, G) placed one donor cell and one class at a time:
    per-row sets of donated columns, row classes dealt round-robin one
    at a time, one islice per class.  Same contract as
    construct._realize, which deals in whole rounds and cuts the same
    classes in runs."""
    m, n, r = p.m, p.n, p.r
    w = b + r
    if not (0 <= col_cls and col_cls * b <= cells <= m * n):
        raise InternalCheckError(
            f"plan b={b} C={cells} G={col_cls} out of range for {p}, k={k}"
        )
    t = min(n, col_cls)
    counts = split_sizes(col_cls, t, col_cls // t, 1) if t else []
    loads = [g * b for g in counts]
    spare = cells - col_cls * b
    for j, g in enumerate(counts):
        take = min(min(g * w, m) - loads[j], spare)
        loads[j] += take
        spare -= take
    if spare:
        raise InternalCheckError(f"column loads cannot absorb {spare} cells for {p}, k={k}")
    kept = split_sizes(m * n - cells, m, 0, n)
    drawn = [set() for _ in range(m)]
    classes = []
    walk = m - cells % m
    for j, (load, g) in enumerate(zip(loads, counts), start=1):
        stop = walk + load
        rows = [*range(1, stop - m + 1), *range(walk + 1, min(stop, m) + 1)]
        walk = stop % m
        for i in rows:
            drawn[i - 1].add(j)
        sizes = split_sizes(load, g, b, r)
        classes += map(tuple, map(islice, repeat(zip(rows, repeat(j))), sizes))
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
        own = list(filterfalse(drawn[i - 1].__contains__, range(1, n + 1)))
        if len(own) != kept[i - 1]:
            raise InternalCheckError(f"kept-cell mismatch in row {i} for {p}")
        if row_cls[i - 1]:
            sizes = split_sizes(kept[i - 1], row_cls[i - 1], b, r)
            classes += map(tuple, map(islice, repeat(zip(repeat(i), own)), sizes))
    return Coloring(m, n, tuple(classes))


def _large_instances(seed, per_shape):
    """(constructor, p, k) with sides 100-250, ``per_shape`` for each of
    the four realizer plans: K_{m(n)} rows (k up to 2mn, so some with
    b = 0), and K_m x K_n rows below gamma, columns plus rows, scatter."""
    rng = random.Random(seed)
    draws = {"multipartite": 0, "kronecker rows": 0, "columns": 0, "scatter": 0}
    while min(draws.values()) < per_shape:
        m = rng.randint(100, 250)
        p = Params(m, rng.randint(m, 250), rng.randint(1, 3))
        g = gamma(p).value
        shape = min(draws, key=draws.get)
        if shape == "multipartite":
            k = rng.randint(m, 2 * m * p.n)
            if not multipartite_colorable(p, k):
                continue
            yield color_multipartite, p, k
        elif shape == "kronecker rows":
            ks = [k for k in range(m, g) if kronecker_colorable(p, k)]
            if not ks:
                continue
            yield color_kronecker, p, rng.choice(ks)
        elif shape == "columns":
            if g > p.n:
                continue
            yield color_kronecker, p, rng.randint(g, p.n)
        else:
            yield color_kronecker, p, rng.randint(p.n + 1, m * p.n)
        draws[shape] += 1


def _realizer_cases():
    for constructor, p, k in _witness_records():
        yield constructor, p, k
    for m in range(2, 13):
        for n in range(m, 13):
            for r in range(1, 4):
                p = Params(m, n, r)
                for k in range(gamma(p).value, m * n + 1):
                    yield color_kronecker, p, k
    yield from _large_instances(17, 10)


def test_realizer_matches_the_per_cell_reference(monkeypatch):
    # Equal as tuples, class order and cell order both: format_coloring
    # sorts the cells of a class, so the witness digests cannot see the
    # order within one.
    real = construct._realize
    plans = []

    def checked(p, k, *plan):
        coloring = real(p, k, *plan)
        assert coloring == reference_realize(p, k, *plan), (p, k, plan)
        plans.append(plan)
        return coloring

    monkeypatch.setattr(construct, "_realize", checked)
    for constructor, p, k in _realizer_cases():
        try:
            constructor(p, k)
        except NotColorableError:
            pass
    assert len(plans) > 10_000
    assert any(b == 0 for b, _, _ in plans)  # k > m*n on K_{m(n)}
    assert any(cells for _, cells, _ in plans)  # columns take cells


# ------------------------------------------------------------
# documented costs, counted in Python line events
# ------------------------------------------------------------


def construct_line_events(call, *args):
    """Line events in equicolor/construct.py during ``call(*args)``, per
    function; a generator expression's lines count toward the function
    that runs it.  The count does not depend on the machine's speed."""
    counts = {}

    def trace(frame, event, arg):
        if frame.f_code.co_filename != construct.__file__:
            return None
        owner = frame
        while owner.f_code.co_name.startswith("<"):
            owner = owner.f_back
        name = owner.f_code.co_name

        def local(frame, event, arg):
            if event == "line":
                counts[name] = counts.get(name, 0) + 1
            return local

        return local

    before = sys.gettrace()
    sys.settrace(trace)
    try:
        call(*args)
    finally:
        sys.settrace(before)
    return counts


@pytest.mark.parametrize(
    "m, n, r, k", [(10, 10, 1, 15), (100, 100, 1, 150), (1000, 1000, 1, 1500)]
)
def test_scatter_cost_is_per_column_class_and_per_block(m, n, r, k):
    # README: the realizer runs Python "never per cell or per class", and
    # the plan is solved in "the first b + 1 blocks".  Measured: _realize
    # takes 10*G + 55 line events here (one class per row, so no row adds
    # a run) and _scatter_layout 23 to 24 per block, while m*n grows a
    # hundredfold from row to row of the parameters.
    p = Params(m, n, r)
    b, cells, col_cls = _scatter_layout(p, k)
    blocks = cells // m + 1
    assert blocks <= b + 1
    counts = construct_line_events(color_kronecker, p, k)
    assert 10 * col_cls <= counts["_realize"] <= 11 * col_cls + 64
    assert counts["_scatter_layout"] <= 25 * blocks + 10


def test_rows_plan_cost_does_not_grow_with_the_grid():
    # Every row of K_{1000(1000)} split into two classes of 500: the
    # rows plan, with no column class, takes a few dozen line events for
    # 10^6 cells and 2,000 classes (measured: 55 in _realize).
    counts = construct_line_events(color_multipartite, Params(1000, 1000, 1), 2000)
    assert counts["_realize"] <= 64
    assert sum(counts.values()) <= 80
