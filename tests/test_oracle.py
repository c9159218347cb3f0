"""Unit tests for the brute-force oracles.

The oracles are the trusted ground truth of this package, so these tests
avoid the closed forms except where the point is agreement between the
two; the oracles' own expected values are hand-derivable.
"""

import random

import pytest

from equicolor.closed_forms import (
    Params,
    kronecker_colorable,
    kronecker_verdict,
    multipartite_colorable,
    multipartite_verdict,
)
from equicolor.errors import BudgetExceededError, ParameterDomainError
from equicolor.oracle import (
    DEFAULT_BUDGET,
    Family,
    OracleBudget,
    _search_kronecker,
    oracle_kronecker_colorable,
    oracle_multipartite_colorable,
    oracle_threshold,
)

# ------------------------------------------------------------
# budgets
# ------------------------------------------------------------


def test_budget_defaults_and_validation():
    assert DEFAULT_BUDGET.max_vertices == 24
    with pytest.raises(ParameterDomainError):
        OracleBudget(max_vertices=0)
    with pytest.raises(ParameterDomainError):
        OracleBudget(node_limit=-5)


def test_vertex_cap_is_an_error_not_a_verdict():
    with pytest.raises(BudgetExceededError) as exc:
        oracle_kronecker_colorable(Params(5, 5, 1), 5)
    assert exc.value.limit_name == "max_vertices"


def test_k_cap_is_an_error_not_a_verdict():
    small = OracleBudget(max_k=3)
    with pytest.raises(BudgetExceededError) as exc:
        oracle_kronecker_colorable(Params(2, 2, 1), 4, small)
    assert exc.value.limit_name == "max_k"
    with pytest.raises(BudgetExceededError):
        oracle_multipartite_colorable(Params(2, 10, 1), 4, small)


def test_node_limit_exhaustion_raises():
    strangled = OracleBudget(node_limit=1)
    with pytest.raises(BudgetExceededError) as exc:
        oracle_kronecker_colorable(Params(3, 4, 1), 4, strangled)
    assert exc.value.limit_name == "node_limit"
    # Window bases count too: one distribution with n // 2 + 1 of them.
    with pytest.raises(BudgetExceededError) as exc:
        oracle_multipartite_colorable(Params(2, 10**12, 1), 4,
                                      OracleBudget(node_limit=1000))
    assert exc.value.limit_name == "node_limit"


# ------------------------------------------------------------
# vertex-backtracking oracle
# ------------------------------------------------------------


def test_oracle_kronecker_frozen_examples():
    assert oracle_kronecker_colorable(Params(2, 2, 1), 1) is False  # has edges
    assert oracle_kronecker_colorable(Params(3, 7, 2), 4) is False
    assert oracle_kronecker_colorable(Params(2, 3, 1), 6) is True  # singletons


def test_oracle_kronecker_beyond_vertex_count():
    # k > m*n forces empty classes; all sizes must then be at most r.
    assert oracle_kronecker_colorable(Params(2, 3, 1), 7) is True
    assert oracle_kronecker_colorable(Params(2, 3, 1), 100) is True


def test_oracle_kronecker_accepts_both_orientations():
    for k in (2, 3, 5):
        assert oracle_kronecker_colorable(
            Params(2, 5, 1), k
        ) == oracle_kronecker_colorable(Params(5, 2, 1), k)


def test_oracle_kronecker_verdict_independent_of_cell_order():
    # Relabeling rows and columns permutes the cell enumeration; the
    # verdict must not move.  The order hook disables the row-boundary
    # prune, so this also cross-checks that prune's soundness.
    rng = random.Random(20260823)
    cases = [(2, 4, 1), (3, 4, 1), (2, 5, 2), (3, 4, 2), (2, 6, 1)]
    for m, n, r in cases:
        for k in range(1, m * n + 2):
            base = _search_kronecker(m, n, r, k, 10_000_000, None)
            for _ in range(3):
                rows = list(range(1, m + 1))
                cols = list(range(1, n + 1))
                rng.shuffle(rows)
                rng.shuffle(cols)
                order = [(i, j) for i in rows for j in cols]
                assert _search_kronecker(m, n, r, k, 10_000_000, order) == base
            reversed_order = [
                (i, j)
                for i in range(m, 0, -1)
                for j in range(n, 0, -1)
            ]
            assert _search_kronecker(m, n, r, k, 10_000_000, reversed_order) == base


# ------------------------------------------------------------
# count-distribution oracle
# ------------------------------------------------------------


def test_oracle_multipartite_frozen_examples():
    assert oracle_multipartite_colorable(Params(2, 10, 2), 4) is True
    assert oracle_multipartite_colorable(Params(2, 10, 2), 3) is False
    assert oracle_multipartite_colorable(Params(2, 1, 1), 2) is True


def test_oracle_multipartite_empty_classes_need_tiny_parts():
    # With an empty class in play every size must be <= r.
    assert oracle_multipartite_colorable(Params(2, 3, 1), 7) is True
    assert oracle_multipartite_colorable(Params(2, 3, 1), 8) is True
    assert oracle_multipartite_colorable(Params(2, 4, 1), 7) is True
    # k between the threshold run and the all-singletons regime can fail.
    assert oracle_multipartite_colorable(Params(2, 7, 1), 5) is False


def test_oracle_multipartite_scales_past_the_vertex_cap():
    # No max_vertices cap on this oracle: n is large but m, k stay small.
    assert oracle_multipartite_colorable(Params(2, 500, 1), 4) is True


def test_oracle_multipartite_single_part():
    assert oracle_multipartite_colorable(Params(1, 4, 1), 2) is True
    assert oracle_multipartite_colorable(Params(1, 4, 1), 1) is True


# ------------------------------------------------------------
# thresholds
# ------------------------------------------------------------


def test_oracle_threshold_frozen_examples():
    assert oracle_threshold(Params(2, 2, 1), Family.KRONECKER) == 2
    assert oracle_threshold(Params(3, 7, 2), Family.KRONECKER) == 5
    assert oracle_threshold(Params(2, 10, 2), Family.MULTIPARTITE) == 4


def test_oracle_threshold_sees_the_non_monotone_dip():
    p = Params(3, 7, 2)
    assert oracle_kronecker_colorable(p, 3) is True
    assert oracle_kronecker_colorable(p, 4) is False
    assert oracle_threshold(p, Family.KRONECKER) == 5  # not 3


# ------------------------------------------------------------
# spot agreement with the closed forms
# ------------------------------------------------------------


def test_oracles_agree_with_formulas_on_a_small_box():
    # The acceptance suite runs the full grid; this is the quick version.
    for m, n, r in [(2, 2, 1), (2, 3, 1), (3, 3, 2), (2, 4, 2), (3, 4, 1)]:
        p = Params(m, n, r)
        for k in range(1, m * n + 2):
            assert oracle_kronecker_colorable(p, k) == kronecker_colorable(p, k)
            assert oracle_multipartite_colorable(p, k) == multipartite_colorable(
                p, k
            )


def test_edgeless_verdicts_agree_with_both_oracles():
    # K_1 x K_n and K_{1(n)} are the same edgeless graph on n vertices.
    for n in range(1, 13):
        for r in range(1, 4):
            for p in (Params(1, n, r), Params(n, 1, r)):
                q = p.canonical()
                for k in range(1, n + 2):
                    assert kronecker_verdict(q, k) == (True, "edgeless")
                    assert multipartite_verdict(q, k) == (True, "edgeless")
                    assert oracle_kronecker_colorable(p, k) is True
                    assert oracle_multipartite_colorable(q, k) is True
