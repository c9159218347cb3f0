"""Unit tests for the grid model and the coloring verifier."""

import itertools
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from equicolor import grid
from equicolor.closed_forms import Params, kronecker_colorable
from equicolor.construct import color_kronecker
from equicolor.errors import GridBoundsError, ParameterDomainError
from equicolor.grid import (
    Coloring,
    Violation,
    ViolationKind,
    _first_adjacent_pair,
    adjacent,
    verify,
)

# ------------------------------------------------------------
# references: the pairwise scan and the line structure
# ------------------------------------------------------------


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


# ------------------------------------------------------------
# adjacency
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
    with pytest.raises(ParameterDomainError):
        verify(0, rows_coloring())


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
