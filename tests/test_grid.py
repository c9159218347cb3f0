"""Unit tests for the grid model and the coloring verifier."""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicolor import grid
from equicolor.closed_forms import Params, kronecker_colorable
from equicolor.construct import color_kronecker
from equicolor.errors import GridBoundsError, ParameterDomainError
from equicolor.grid import (
    Coloring,
    VerificationReport,
    Violation,
    ViolationKind,
    _first_adjacent_pair,
    verify,
)

# ------------------------------------------------------------
# references: the adjacency rule, the pairwise scan and the line structure
# ------------------------------------------------------------


def adjacent(u, v):
    """Adjacency in K_m x K_n: the cells differ in row and in column."""
    return u[0] != v[0] and u[1] != v[1]


def pairwise_first_adjacent_pair(cls):
    """The first (cls[a], cls[b]), a < b, that :func:`adjacent` accepts."""
    for a in range(len(cls)):
        for b in range(a + 1, len(cls)):
            if adjacent(cls[a], cls[b]):
                return cls[a], cls[b]
    return None


def is_independent(vertices):
    """No two of the given cells are adjacent, checked pairwise."""
    return pairwise_first_adjacent_pair(tuple(vertices)) is None


def single_row_or_column(vertices):
    """All cells share one row, or all share one column."""
    vs = list(vertices)
    return len({v[0] for v in vs}) <= 1 or len({v[1] for v in vs}) <= 1


def verifier_independent(vertices):
    return _first_adjacent_pair(tuple(vertices)) is None


def reference_verify(r, coloring):
    """:func:`verify` as a nested loop: every cover count is scanned and
    every class, however small, is searched pair by pair."""
    m, n = coloring.m, coloring.n
    violations = []
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
    for ci, cls in enumerate(coloring.classes):
        pair = pairwise_first_adjacent_pair(cls)
        if pair is not None:
            u, v = pair
            violations.append(
                Violation(
                    ViolationKind.ADJACENT_PAIR,
                    f"class {ci + 1} contains adjacent vertices "
                    f"({u[0]},{u[1]}) and ({v[0]},{v[1]})",
                )
            )
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


def outcome(route, r, coloring):
    """The report, or the type and message of a grid-bounds error."""
    try:
        return route(r, coloring)
    except GridBoundsError as exc:
        return GridBoundsError, str(exc)


# ------------------------------------------------------------
# adjacency (the reference rule above)
# ------------------------------------------------------------


def test_adjacent_examples():
    assert adjacent((1, 1), (2, 2)) is True
    assert adjacent((1, 1), (1, 5)) is False  # shared row
    assert adjacent((3, 2), (1, 2)) is False  # shared column


vertices = st.tuples(st.integers(1, 9), st.integers(1, 9))


@given(u=vertices, v=vertices)
def test_adjacent_symmetric_and_irreflexive(u, v):
    assert adjacent(u, v) == adjacent(v, u)
    assert adjacent(u, u) is False


# ------------------------------------------------------------
# independence, both routes
# ------------------------------------------------------------


def test_is_independent_examples():
    for route in (is_independent, verifier_independent):
        assert route([(1, 1), (1, 2), (1, 3)]) is True
        assert route([(1, 1), (2, 1)]) is True
        assert route([(1, 1), (1, 2), (2, 1)]) is False


def test_both_routes_accept_empty_and_singleton():
    for route in (is_independent, verifier_independent, single_row_or_column):
        assert route([]) is True
        assert route([(2, 3)]) is True


def test_independence_routes_agree_exhaustively():
    # Every subset of every grid with m*n <= 12: the pairwise-adjacency
    # route and the one-row-or-one-column route must give the same answer,
    # and the verifier must return the pairwise route's pair.
    grids = [(m, n) for m in range(2, 7) for n in range(2, 7) if m * n <= 12]
    assert grids  # guard against an accidentally empty sweep
    for m, n in grids:
        cells = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
        for mask in range(1 << (m * n)):
            subset = tuple(cells[b] for b in range(m * n) if mask >> b & 1)
            pair = pairwise_first_adjacent_pair(subset)
            assert (pair is None) == single_row_or_column(subset), (
                m,
                n,
                subset,
            )
            assert _first_adjacent_pair(subset) == pair, (m, n, subset)


def test_verifier_pair_matches_pairwise_on_every_short_sequence():
    # Every sequence of length <= 5 over the 3x3 grid, repeats included:
    # 66,430 classes, in every order.
    cells = [(i, j) for i in range(1, 4) for j in range(1, 4)]
    count = 0
    for length in range(6):
        for seq in itertools.product(cells, repeat=length):
            assert _first_adjacent_pair(seq) == pairwise_first_adjacent_pair(
                seq
            ), seq
            count += 1
    assert count == 66_430


@given(
    cls=st.lists(
        st.tuples(st.integers(1, 5), st.integers(1, 5)), max_size=40
    )
)
def test_verifier_pair_matches_pairwise_on_random_classes(cls):
    cls = tuple(cls)
    pair = _first_adjacent_pair(cls)
    assert pair == pairwise_first_adjacent_pair(cls)
    if pair is not None:
        assert adjacent(*pair)


def test_non_contiguous_line_subsets_are_independent():
    # Independence depends only on sharing a line, not on adjacency of
    # the indices along it.
    for route in (is_independent, verifier_independent):
        assert route([(1, 1), (1, 5), (1, 9)]) is True
        assert route([(2, 4), (5, 4), (9, 4)]) is True


# ------------------------------------------------------------
# verify
# ------------------------------------------------------------


def rows_coloring():
    return Coloring(
        2,
        2,
        (
            ((1, 1), (1, 2)),
            ((2, 1), (2, 2)),
        ),
    )


def test_verify_accepts_two_row_coloring():
    report = verify(1, rows_coloring())
    assert report.valid is True
    assert report.violations == ()


def test_verify_flags_adjacent_pairs_in_both_classes():
    diagonal = Coloring(
        2,
        2,
        (
            ((1, 1), (2, 2)),
            ((1, 2), (2, 1)),
        ),
    )
    report = verify(1, diagonal)
    assert report.valid is False
    kinds = [v.kind for v in report.violations]
    assert kinds.count(ViolationKind.ADJACENT_PAIR) == 2


def test_verify_flags_imbalance():
    lopsided = Coloring(
        2,
        4,
        (
            tuple((1, j) for j in range(1, 5)),
            ((2, 1),),
            ((2, 2), (2, 3), (2, 4)),
        ),
    )
    report = verify(1, lopsided)
    assert report.valid is False
    assert [v.kind for v in report.violations] == [ViolationKind.IMBALANCE]
    assert "4" in report.violations[0].detail
    assert "1" in report.violations[0].detail


def test_verify_flags_missing_and_duplicated_cells():
    broken = Coloring(
        2,
        2,
        (
            ((1, 1), (1, 2)),
            ((1, 1), (2, 1)),  # (1,1) twice, (2,2) nowhere
        ),
    )
    report = verify(2, broken)
    assert report.valid is False
    kinds = {v.kind for v in report.violations}
    assert ViolationKind.NOT_PARTITION in kinds
    details = " | ".join(v.detail for v in report.violations)
    assert "(1,1)" in details and "(2,2)" in details


def test_verify_counts_empty_classes_in_the_balance():
    with_empty = Coloring(
        2,
        2,
        (
            ((1, 1), (1, 2)),
            ((2, 1), (2, 2)),
            (),
        ),
    )
    assert verify(2, with_empty).valid is True  # sizes 2,2,0 within r=2
    report = verify(1, with_empty)  # gap 2 > 1
    assert report.valid is False
    assert [v.kind for v in report.violations] == [ViolationKind.IMBALANCE]


def test_verify_rejects_out_of_grid_vertex_as_malformed():
    stray = Coloring(2, 2, (((1, 1), (3, 1)),))
    with pytest.raises(GridBoundsError):
        verify(1, stray)


def test_verify_with_no_classes_is_not_a_partition():
    report = verify(1, Coloring(1, 1, ()))
    assert report.valid is False
    assert report.violations[0].kind is ViolationKind.NOT_PARTITION


def test_verify_validates_r():
    with pytest.raises(ParameterDomainError, match="r must be >= 1, got 0"):
        verify(0, rows_coloring())
    with pytest.raises(ParameterDomainError, match="r must be an int, got True"):
        verify(True, rows_coloring())


def test_verify_rejects_an_empty_grid():
    with pytest.raises(ParameterDomainError,
                       match="grid must be nonempty, got m=0 n=3"):
        verify(1, Coloring(0, 3, ((),)))


def test_coloring_k_and_sizes():
    c = rows_coloring()
    assert c.k == 2
    assert c.sizes() == [2, 2]


def corrupted_witnesses():
    # Every witness for 2 <= m <= n <= 4, r <= 2, k <= m*n with one cell
    # moved to the front or the back of a class holding a cell adjacent
    # to it.
    for m in range(2, 5):
        for n in range(m, 5):
            for r in (1, 2):
                p = Params(m, n, r)
                for k in range(1, m * n + 1):
                    if not kronecker_colorable(p, k):
                        continue
                    classes = color_kronecker(p, k).classes
                    for src, cls in enumerate(classes):
                        for cell in cls:
                            rest = tuple(c for c in cls if c != cell)
                            for dst, other in enumerate(classes):
                                if not any(adjacent(cell, c) for c in other):
                                    continue
                                for moved in ((cell,) + other, other + (cell,)):
                                    out = list(classes)
                                    out[src], out[dst] = rest, moved
                                    yield r, Coloring(m, n, tuple(out))


def test_verify_report_matches_pairwise_reference_on_corrupted_witnesses(
    monkeypatch,
):
    cases = list(corrupted_witnesses())
    assert len(cases) > 1000
    reports = [verify(r, c) for r, c in cases]
    assert not any(report.valid for report in reports)
    monkeypatch.setattr(
        grid, "_first_adjacent_pair", pairwise_first_adjacent_pair
    )
    assert reports == [verify(r, c) for r, c in cases]


# Fixed partition-path cases on the 2x3 grid, with the grid's cells
# (1,1) (1,2) (1,3) / (2,1) (2,2) (2,3).
PARTITION_CASES = {
    "valid": (((1, 1), (1, 2), (1, 3)), ((2, 1), (2, 2), (2, 3))),
    "missing cell": (((1, 1), (1, 2), (1, 3)), ((2, 1), (2, 2))),
    "duplicate within a class": (
        ((1, 1), (1, 2), (1, 1), (1, 3)),
        ((2, 1), (2, 2), (2, 3)),
    ),
    "duplicate across classes": (
        ((1, 1), (1, 2), (1, 3)),
        ((2, 1), (2, 2), (2, 3), (1, 2)),
    ),
    # Six cells in all, as many as the grid has.
    "duplicate plus missing": (
        ((1, 1), (1, 2), (1, 3)),
        ((2, 1), (2, 2), (1, 1)),
    ),
    "stray after a duplicate": (
        ((1, 1), (1, 1), (3, 1), (1, 2), (1, 4)),
        ((2, 1), (0, 2)),
    ),
    "stray in a later class": (
        ((1, 1), (1, 2), (1, 2)),
        ((2, 1), (2, 7)),
        ((5, 1),),
    ),
    "empty and one-cell classes": (
        ((1, 1),),
        (),
        ((1, 2), (1, 3)),
        ((2, 1),),
        (),
        ((2, 2), (2, 3)),
    ),
    "adjacent two-cell classes": (
        ((1, 1), (2, 2)),
        ((1, 2), (2, 1)),
        ((1, 3), (2, 3)),
    ),
}


@pytest.mark.parametrize("name", sorted(PARTITION_CASES))
def test_verify_matches_nested_loop_reference_on_fixed_cases(name):
    coloring = Coloring(2, 3, PARTITION_CASES[name])
    for r in (1, 2, 3):
        assert outcome(verify, r, coloring) == outcome(
            reference_verify, r, coloring
        )


def test_partition_cases_reach_every_verifier_path():
    # The first grid-bounds error is the first stray in class order.
    stray = Coloring(2, 3, PARTITION_CASES["stray after a duplicate"])
    assert outcome(verify, 1, stray) == (
        GridBoundsError,
        "vertex (3,1) outside the 2x3 grid",
    )
    later = Coloring(2, 3, PARTITION_CASES["stray in a later class"])
    assert outcome(verify, 1, later) == (
        GridBoundsError,
        "vertex (2,7) outside the 2x3 grid",
    )
    # A duplicate and a missing cell keep the cell total at m*n.
    both = verify(1, Coloring(2, 3, PARTITION_CASES["duplicate plus missing"]))
    assert [v.detail for v in both.violations[:2]] == [
        "vertex (1,1) is covered 2 times",
        "vertex (2,3) is missing from every class",
    ]
    pairs = verify(1, Coloring(2, 3, PARTITION_CASES["adjacent two-cell classes"]))
    assert [v.kind for v in pairs.violations] == [ViolationKind.ADJACENT_PAIR] * 2
    assert verify(1, Coloring(2, 3, PARTITION_CASES["valid"])).valid
    small = Coloring(2, 3, PARTITION_CASES["empty and one-cell classes"])
    assert verify(2, small).valid


@st.composite
def small_colorings(draw):
    """A cover of an m x n grid (m, n <= 5) cut into classes, some empty,
    with up to two cells dropped, up to two cells repeated and, now and
    then, a cell outside the grid."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    grid_cells = list(itertools.product(range(1, m + 1), range(1, n + 1)))
    cells = list(draw(st.permutations(grid_cells)))
    for _ in range(draw(st.integers(0, min(2, len(cells))))):
        del cells[draw(st.integers(0, len(cells) - 1))]
    for _ in range(draw(st.integers(0, 2))):
        cells.insert(
            draw(st.integers(0, len(cells))), draw(st.sampled_from(grid_cells))
        )
    if draw(st.integers(0, 3)) == 0:
        stray = st.one_of(
            st.tuples(st.sampled_from([0, m + 1]), st.integers(0, n + 1)),
            st.tuples(st.integers(0, m + 1), st.sampled_from([0, n + 1])),
        )
        cells.insert(draw(st.integers(0, len(cells))), draw(stray))
    cuts = sorted(draw(st.lists(st.integers(0, len(cells)), max_size=2 * n)))
    bounds = [0, *cuts, len(cells)]
    classes = tuple(tuple(cells[a:b]) for a, b in zip(bounds, bounds[1:]))
    return draw(st.integers(1, 3)), Coloring(m, n, classes)


@settings(max_examples=400)
@given(case=small_colorings())
def test_verify_matches_nested_loop_reference_on_random_colorings(case):
    r, coloring = case
    assert outcome(verify, r, coloring) == outcome(reference_verify, r, coloring)


def test_verify_is_linear_in_one_long_class():
    # A single 100,000-cell row: the pairwise scan needs minutes here.
    coloring = color_kronecker(Params(1, 100_000, 1), 1)
    start = time.process_time()
    report = verify(1, coloring)
    assert time.process_time() - start < 5
    assert report.valid


def test_verify_is_linear_in_a_class_of_repeated_cells():
    # 100,000 copies of (1,1) come before the only adjacent pair.
    coloring = Coloring(
        2, 2, (((1, 1),) * 100_000 + ((1, 2), (2, 1)),)
    )
    start = time.process_time()
    report = verify(1, coloring)
    assert time.process_time() - start < 5
    assert report.violations == (
        Violation(
            ViolationKind.NOT_PARTITION, "vertex (1,1) is covered 100000 times"
        ),
        Violation(
            ViolationKind.NOT_PARTITION,
            "vertex (2,2) is missing from every class",
        ),
        Violation(
            ViolationKind.ADJACENT_PAIR,
            "class 1 contains adjacent vertices (1,2) and (2,1)",
        ),
    )
