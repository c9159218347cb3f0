"""Unit tests for the brute-force oracles.

The oracles are the trusted ground truth of this package, so these tests
avoid the closed forms except where the point is agreement between the
two; the oracles' own expected values are hand-derivable.
"""

import ast
import inspect
import random

import pytest

from equicolor import oracle as oracle_module
from equicolor.closed_forms import (
    Params,
    ceil_div,
    kronecker_colorable,
    kronecker_verdict,
    multipartite_colorable,
    multipartite_verdict,
)
from equicolor.errors import BudgetExceededError, ParameterDomainError
from equicolor.oracle import (
    DEFAULT_BUDGET,
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
    with pytest.raises(ParameterDomainError,
                       match="OracleBudget.max_vertices must be >= 1, got 0"):
        OracleBudget(max_vertices=0)
    with pytest.raises(ParameterDomainError):
        OracleBudget(node_limit=-5)
    with pytest.raises(ParameterDomainError,
                       match="OracleBudget.max_k must be an int, got True"):
        OracleBudget(max_k=True)


@pytest.mark.parametrize(
    "oracle", [oracle_kronecker_colorable, oracle_multipartite_colorable]
)
def test_oracles_check_k(oracle):
    with pytest.raises(ParameterDomainError, match="k must be >= 1, got 0"):
        oracle(Params(2, 2, 1), 0)
    with pytest.raises(ParameterDomainError, match="k must be an int, got False"):
        oracle(Params(2, 2, 1), False)


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


@pytest.mark.parametrize(
    "m, n, r, k, verdict, nodes",
    [
        (2, 2, 1, 1, False, 3),
        (3, 7, 2, 4, False, 977),
        (3, 7, 2, 5, True, 25),
        (2, 3, 1, 7, True, 7),
        (4, 5, 1, 6, True, 141),
        (2, 9, 1, 5, False, 20_185),
        (3, 8, 2, 7, True, 25_577),
    ],
)
def test_oracle_kronecker_node_counts_are_frozen(m, n, r, k, verdict, nodes):
    # The search visits exactly `nodes` nodes: a weakened prune visits
    # more and trips the smaller limit.
    assert _search_kronecker(m, n, r, k, nodes, None) is verdict
    with pytest.raises(BudgetExceededError) as exc:
        _search_kronecker(m, n, r, k, nodes - 1, None)
    assert exc.value.limit_name == "node_limit"


def reference_search_kronecker(m, n, r, k, order):
    """The vertex search with each class's member list in place of its
    shared row: a cell joins a class only after a pairwise scan of the
    members against the adjacency rule.  Otherwise the same search, prune
    for prune and in the same class order.  Returns (verdict, nodes)."""
    total = m * n
    lo = max(0, ceil_div(total, k) - r)
    hi = total // k + r
    row_major = order is None
    if order is None:
        order = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    sizes = [0] * k
    members = [[] for _ in range(k)]
    fixcol = [0] * k
    nodes = 0

    def extend(pos, opened, cur_max, lo_dyn, deficit):
        nonlocal nodes
        nodes += 1
        if pos == total:
            return cur_max - min(sizes) <= r
        remaining = total - pos
        if deficit > remaining:
            return False
        vi, vj = order[pos]
        if row_major and vj == 1 and vi > 1:
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
            sz = sizes[ci]
            if sz >= hi:
                continue
            if any(wi != vi and wj != vj for wi, wj in members[ci]):
                continue
            now_open = opened + (ci == opened)
            old_fc = fixcol[ci]
            fixcol[ci] = vj if sz == 0 or old_fc == vj else 0
            sizes[ci] = sz + 1
            members[ci].append((vi, vj))
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
            members[ci].pop()
            sizes[ci] = sz
            fixcol[ci] = old_fc
            if hit:
                return True
        return False

    return extend(0, 0, 0, lo, k * lo), nodes


def test_search_matches_the_member_list_reference_node_for_node():
    # Same verdict and exactly the same node count, in row-major order
    # (with the row-boundary prune) and in one relabelled order (without).
    rng = random.Random(20261020)
    grids = [(m, n) for m in range(2, 5) for n in range(m, 7) if m * n <= 12]
    assert grids == [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4)]
    checked = 0
    for m, n in grids:
        rows, cols = list(range(1, m + 1)), list(range(1, n + 1))
        rng.shuffle(rows)
        rng.shuffle(cols)
        relabelled = [(i, j) for i in rows for j in cols]
        for r in range(1, 4):
            for k in range(1, m * n + 2):
                for order in (None, relabelled):
                    verdict, nodes = reference_search_kronecker(m, n, r, k, order)
                    assert _search_kronecker(m, n, r, k, nodes, order) is verdict
                    with pytest.raises(BudgetExceededError):
                        _search_kronecker(m, n, r, k, nodes - 1, order)
                    checked += 1
    assert checked == 2 * 3 * sum(m * n + 1 for m, n in grids)  # 408


def test_oracle_imports_only_params_and_ceil_div_from_closed_forms():
    # The ground truth must not see a formula it is used to check.
    from_closed_forms = set()
    for node in ast.walk(ast.parse(inspect.getsource(oracle_module))):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if (node.module or "").endswith("closed_forms"):
                from_closed_forms |= names
            else:
                assert "closed_forms" not in names
        elif isinstance(node, ast.Import):
            assert not any("closed_forms" in alias.name for alias in node.names)
    assert from_closed_forms == {"Params", "ceil_div"}


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


def test_oracle_multipartite_a_thousand_parts():
    # k = 1,000 is the default max_k.  The count enumeration once recursed
    # per part and overflowed Python's stack from m = 997 on.
    assert oracle_multipartite_colorable(Params(1000, 2, 1), 1000) is True
    # One part of 3 split in two (sizes 1 and 2) next to parts of 3.
    assert oracle_multipartite_colorable(Params(999, 3, 1), 1000) is False
    assert multipartite_colorable(Params(999, 3, 1), 1000) is False


def reference_count_multisets(total, parts, cap):
    """The recursion, one call per part, that the oracle's loop replaced."""
    if parts == 1:
        if 1 <= total <= cap:
            yield (total,)
        return
    for first in range(-(-total // parts), min(cap, total - (parts - 1)) + 1):
        for rest in reference_count_multisets(total - first, parts - 1, first):
            yield (first,) + rest


def test_count_multisets_keeps_the_recursive_order():
    # The same tuples in the same order, so node counts and budget trips
    # are unchanged.
    seen = 0
    for total in range(25):
        for parts in range(1, 12):
            for cap in range(26):
                got = list(oracle_module._count_multisets(total, parts, cap))
                assert got == list(reference_count_multisets(total, parts, cap))
                seen += len(got)
    assert seen > 10_000


# ------------------------------------------------------------
# thresholds
# ------------------------------------------------------------


def test_oracle_threshold_frozen_examples():
    assert oracle_threshold(Params(2, 2, 1), oracle_kronecker_colorable) == 2
    assert oracle_threshold(Params(3, 7, 2), oracle_kronecker_colorable) == 5
    assert oracle_threshold(Params(2, 10, 2), oracle_multipartite_colorable) == 4


def test_oracle_threshold_sees_the_non_monotone_dip():
    p = Params(3, 7, 2)
    assert oracle_kronecker_colorable(p, 3) is True
    assert oracle_kronecker_colorable(p, 4) is False
    assert oracle_threshold(p, oracle_kronecker_colorable) == 5  # not 3


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
