"""Unit tests for split_sizes and the witness constructors."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicolor.closed_forms import (
    Params,
    kronecker_colorable,
    multipartite_colorable,
)
from equicolor.construct import (
    _least_column_classes,
    color_kronecker,
    color_multipartite,
    split_sizes,
)
from equicolor.errors import (
    InfeasibleWindowError,
    NotColorableError,
    ParameterDomainError,
)
from equicolor.files import format_coloring
from equicolor.grid import Vertex, single_row_or_column, verify

# ------------------------------------------------------------
# split_sizes
# ------------------------------------------------------------


def test_split_sizes_examples():
    assert split_sizes(10, 3, 3, 1) == [4, 3, 3]
    assert split_sizes(6, 3, 2, 0) == [2, 2, 2]
    with pytest.raises(InfeasibleWindowError):
        split_sizes(13, 3, 3, 1)  # 13 > (3+1)*3


def test_split_sizes_domain_errors():
    with pytest.raises(ParameterDomainError):
        split_sizes(-1, 3, 1, 1)
    with pytest.raises(ParameterDomainError):
        split_sizes(5, 0, 1, 1)
    with pytest.raises(ParameterDomainError):
        split_sizes(5, 2, -1, 1)
    with pytest.raises(ParameterDomainError):
        split_sizes(5, 2, 1, -1)


def test_split_sizes_feasibility_iff_exhaustive():
    # Success must coincide exactly with lo*count <= total <= (lo+r)*count,
    # both directions, over a dense small box.
    for lo in range(0, 6):
        for count in range(1, 9):
            for r in range(0, 5):
                for total in range(0, 41):
                    feasible = lo * count <= total <= (lo + r) * count
                    if feasible:
                        sizes = split_sizes(total, count, lo, r)
                        assert len(sizes) == count
                        assert sum(sizes) == total
                        assert all(lo <= s <= lo + r for s in sizes)
                        assert sizes == sorted(sizes, reverse=True)
                        assert max(sizes) - min(sizes) <= 1  # near-even
                    else:
                        with pytest.raises(InfeasibleWindowError):
                            split_sizes(total, count, lo, r)


# ------------------------------------------------------------
# color_multipartite
# ------------------------------------------------------------


def test_color_multipartite_one_color_per_part():
    c = color_multipartite(Params(3, 7, 2), 3)
    assert c.sizes() == [7, 7, 7]
    assert all(len({v.row for v in cls}) == 1 for cls in c.classes)
    assert verify(2, c).valid


def test_color_multipartite_uneven_color_counts():
    c = color_multipartite(Params(2, 10, 2), 5)
    # Part 1 carries the extra color: 3 classes (4,3,3); part 2 two (5,5).
    assert c.sizes() == [4, 3, 3, 5, 5]
    part_of = [{v.row for v in cls} for cls in c.classes]
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
    assert all(len({v.row for v in cls}) <= 1 for cls in c.classes)


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
        assert cls == tuple(Vertex(i, j) for i in (1, 2, 3))
    assert verify(2, c).valid


def test_color_kronecker_at_gamma_and_between():
    assert color_kronecker(Params(3, 7, 2), 5).sizes() == [3, 3, 5, 5, 5]
    assert color_kronecker(Params(3, 7, 2), 6).sizes() == [3, 3, 3, 4, 4, 4]


def test_color_kronecker_below_gamma_delegates_to_multipartite():
    c = color_kronecker(Params(3, 7, 2), 3)
    assert c.sizes() == [7, 7, 7]
    assert all(len({v.row for v in cls}) == 1 for cls in c.classes)


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
     (6, 11, 1, 14), (6, 11, 1, 16), (8, 11, 2, 30), (7, 9, 3, 20)],
)
def test_scatter_layout_spot_instances(m, n, r, k):
    p = Params(m, n, r)
    assert kronecker_colorable(p, k)
    c = color_kronecker(p, k)
    assert c.k == k
    assert verify(r, c).valid
    assert all(single_row_or_column(cls) for cls in c.classes)


def test_least_column_classes_matches_its_definition():
    # The least G in [0, m*n] whose balanced load reaches C: t = min(n, G)
    # columns get divmod(G, t) classes each, and a column with g classes
    # holds min(g*w, m) cells.
    def balanced_load(g_total, m, n, w):
        if g_total == 0:
            return 0
        t = min(n, g_total)
        base, extra = divmod(g_total, t)
        return (extra * min((base + 1) * w, m)
                + (t - extra) * min(base * w, m))

    for m in range(1, 13):
        for n in range(m, 13):
            for w in range(1, 11):
                loads = [balanced_load(g, m, n, w) for g in range(m * n + 1)]
                for cells in range(m * n + 1):
                    least = next(g for g, load in enumerate(loads) if load >= cells)
                    assert _least_column_classes(cells, m, n, w) == least, (
                        m, n, w, cells)


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
