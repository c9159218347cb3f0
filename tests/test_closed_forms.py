"""Unit tests for the closed-form arithmetic.

Expected values in this file were frozen after cross-checking against the
brute-force oracles (see test_oracle.py and test_acceptance.py); the
oracle suite re-derives them independently on every run.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicolor import closed_forms
from equicolor.closed_forms import (
    Params,
    ThresholdCase,
    Trichotomy,
    ceil_div,
    equ_bound,
    gamma,
    kronecker_colorable,
    kronecker_verdict,
    multipartite_colorable,
    multipartite_verdict,
    theta_balanced,
    threshold_kronecker,
    threshold_multipartite,
)
from equicolor.errors import ParameterDomainError
from equicolor.oracle import (
    oracle_kronecker_colorable,
    oracle_multipartite_colorable,
    oracle_threshold,
)

# ------------------------------------------------------------
# Params
# ------------------------------------------------------------


def test_params_validation():
    Params(1, 1, 1)  # minimal legal triple
    with pytest.raises(ParameterDomainError):
        Params(0, 3, 1)
    with pytest.raises(ParameterDomainError):
        Params(3, 0, 1)
    with pytest.raises(ParameterDomainError):
        Params(3, 3, 0)
    with pytest.raises(ParameterDomainError):
        Params(3, 3.0, 1)  # type: ignore[arg-type]
    with pytest.raises(ParameterDomainError):
        Params(True, 3, 1)  # type: ignore[arg-type]


def test_params_canonical_swaps_to_m_le_n():
    assert Params(7, 3, 2).canonical() == Params(3, 7, 2)
    p = Params(3, 7, 2)
    assert p.canonical() is p


def test_ceil_div():
    assert ceil_div(7, 2) == 4
    assert ceil_div(8, 2) == 4
    assert ceil_div(0, 5) == 0
    assert ceil_div(1, 5) == 1


# ------------------------------------------------------------
# gamma
# ------------------------------------------------------------


def test_gamma_frozen_values():
    g = gamma(Params(3, 7, 2))
    assert (g.value, g.trichotomy, g.residue) == (5, Trichotomy.LESS, 2)

    # Evaluating both sides directly: 4 - 2*1 = 2 and 2*ceil(4/4) = 2.
    g = gamma(Params(2, 4, 2))
    assert (g.value, g.trichotomy, g.residue) == (2, Trichotomy.EQUAL, 0)

    g = gamma(Params(2, 10, 2))
    assert (g.value, g.trichotomy, g.residue) == (6, Trichotomy.EQUAL, 2)
    assert g.residue == 2 == g.value - 2 * 2  # t = m here


def test_gamma_rejects_m_below_2():
    with pytest.raises(ParameterDomainError, match="gamma requires m >= 2, got m=1"):
        gamma(Params(1, 5, 1))


@given(
    m=st.integers(2, 40),
    n=st.integers(1, 200),
    r=st.integers(1, 10),
)
def test_gamma_trichotomy_matches_residue_rule(m, n, r):
    g = gamma(Params(m, n, r))
    t = g.residue
    assert t == n % (m + r)
    if 1 <= t <= m - 1:
        assert g.trichotomy is Trichotomy.LESS
    elif t == 0 or t == m:
        assert g.trichotomy is Trichotomy.EQUAL
    else:
        assert m + 1 <= t <= m + r - 1
        assert g.trichotomy is Trichotomy.GREATER


@given(m=st.integers(2, 30), n=st.integers(2, 120), r=st.integers(1, 8))
def test_gamma_value_is_the_min_of_both_sides(m, n, r):
    g = gamma(Params(m, n, r))
    s = n // (m + r)
    assert g.value == min(n - r * s, m * ceil_div(n, m + r))
    if m <= n:
        assert m <= g.value <= n


# ------------------------------------------------------------
# theta scans
# ------------------------------------------------------------


def test_theta_balanced_frozen_values():
    assert theta_balanced(10, 2) == 5
    assert theta_balanced(7, 1) == 1
    assert theta_balanced(1, 1) == 1


@given(n=st.integers(1, 300), r=st.integers(1, 8))
def test_theta_balanced_is_least_qualifying(n, r):
    theta = theta_balanced(n, r)
    assert 1 <= theta <= n
    assert n // (theta + 1) < ceil_div(n, theta + r)
    for smaller in range(1, theta):
        assert not (n // (smaller + 1) < ceil_div(n, smaller + r))


def reference_theta_min(p):
    """theta_min by its definition, scanned from 1: the least theta >= 1
    passing the theta_balanced test with m * ceil(n / (theta+r)) <= gamma."""
    cap = gamma(p).value
    return next(
        theta
        for theta in itertools.count(1)
        if p.n // (theta + 1) < ceil_div(p.n, theta + p.r)
        and p.m * ceil_div(p.n, theta + p.r) <= cap
    )


def test_theta_min_frozen_values():
    # All three take the otherwise branch, which reports theta_min.
    assert threshold_kronecker(Params(2, 2, 1)).theta == 2
    assert threshold_kronecker(Params(2, 10, 2)).theta == 5
    assert threshold_kronecker(Params(3, 3, 1)).theta == 3


def test_theta_min_requires_canonical_orientation():
    with pytest.raises(ParameterDomainError, match="threshold_kronecker requires the canon"):
        threshold_kronecker(Params(5, 3, 1))
    with pytest.raises(ParameterDomainError, match="threshold_kronecker requires m >= 2"):
        threshold_kronecker(Params(1, 3, 1))


def test_theta_min_at_least_theta_balanced_and_capped():
    # Every triple of a small grid, so a scan that starts one step late
    # is caught wherever the gamma cap's first theta already balances.
    otherwise = 0
    for m in range(2, 21):
        for n in range(m, m + 81):
            for r in range(1, 7):
                p = Params(m, n, r)
                theta = reference_theta_min(p)
                assert theta >= theta_balanced(n, r)
                t = threshold_kronecker(p)
                if t.case is ThresholdCase.OTHERWISE:
                    assert t.theta == theta, p
                    otherwise += 1
    assert otherwise > 5_000


def test_threshold_kronecker_computes_gamma_once(monkeypatch):
    real = closed_forms.gamma
    calls = []

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(closed_forms, "gamma", counted)
    for p in (Params(2, 10, 2), Params(3, 7, 2)):  # the otherwise and residue branches
        calls.clear()
        threshold_kronecker(p)
        assert calls == [p]


# ------------------------------------------------------------
# thresholds
# ------------------------------------------------------------


def test_threshold_multipartite_frozen_values():
    assert threshold_multipartite(Params(2, 10, 2)) == 4
    assert threshold_multipartite(Params(4, 7, 1)) == 16
    assert threshold_multipartite(Params(2, 1, 1)) == 2


def test_threshold_multipartite_rejects_m_below_2():
    with pytest.raises(
        ParameterDomainError, match="threshold_multipartite requires m >= 2, got m=1"
    ):
        threshold_multipartite(Params(1, 5, 1))


def test_threshold_multipartite_does_not_canonicalize():
    # K_{7(3)} and K_{3(7)} are different graphs.
    assert threshold_multipartite(Params(7, 3, 1)) != threshold_multipartite(
        Params(3, 7, 1)
    )


def test_threshold_kronecker_frozen_values():
    t = threshold_kronecker(Params(3, 7, 2))
    assert t.value == 5
    assert t.case is ThresholdCase.RESIDUE_SMALL_GAP
    assert t.theta is None
    assert t.value == 7 - 2 * (7 // 5)  # n - r*s on this branch

    t = threshold_kronecker(Params(2, 2, 1))
    assert t.value == 2
    assert t.case is ThresholdCase.OTHERWISE
    assert t.theta == 2

    t = threshold_kronecker(Params(4, 7, 1))
    assert t.value == 6
    assert t.case is ThresholdCase.RESIDUE_SMALL_GAP


def test_threshold_kronecker_rejects_bad_orientation():
    with pytest.raises(ParameterDomainError):
        threshold_kronecker(Params(7, 3, 1))
    with pytest.raises(ParameterDomainError):
        threshold_kronecker(Params(1, 3, 1))


@given(m=st.integers(2, 15), nd=st.integers(0, 60), r=st.integers(1, 5))
def test_threshold_kronecker_branch_invariants(m, nd, r):
    p = Params(m, m + nd, r)
    t = threshold_kronecker(p)
    s = p.n // (m + r)
    if t.case is ThresholdCase.RESIDUE_SMALL_GAP:
        assert t.value == p.n - r * s
        assert t.theta is None
        assert 2 <= t.gamma.residue <= m - 1
        assert ceil_div(p.n, s) - p.n // (s + 1) > r
    else:
        # The paper's literal condition fails here (s >= 1 when 2 <= t).
        assert not (2 <= t.gamma.residue <= m - 1 and ceil_div(p.n, s) - p.n // (s + 1) > r)
        assert t.theta is not None
        assert t.value == m * ceil_div(p.n, t.theta + r)
        assert t.value <= t.gamma.value


@settings(max_examples=60)
@given(m=st.integers(2, 6), nd=st.integers(0, 18), r=st.integers(1, 4))
def test_thresholds_satisfy_their_definition_by_scan(m, nd, r):
    # The threshold is the least k that starts an unbroken run of
    # colorable counts; above m*n + 1 everything is colorable (singletons
    # plus empty classes), so scanning that far is conclusive.
    p = Params(m, m + nd, r)
    top = p.m * p.n + 1

    tk = threshold_kronecker(p).value
    assert all(kronecker_colorable(p, k) for k in range(tk, top + 1))
    if tk > 1:
        assert not kronecker_colorable(p, tk - 1)

    tm = threshold_multipartite(p)
    assert all(multipartite_colorable(p, k) for k in range(tm, top + 1))
    if tm > 1:
        assert not multipartite_colorable(p, tm - 1)


# ------------------------------------------------------------
# single-k membership
# ------------------------------------------------------------


def test_multipartite_colorable_frozen_values():
    assert multipartite_colorable(Params(2, 10, 2), 3) is False
    assert multipartite_colorable(Params(2, 10, 2), 4) is True
    assert multipartite_colorable(Params(3, 5, 1), 2) is False  # k < m


def test_kronecker_membership_is_not_monotone():
    p = Params(3, 7, 2)
    assert kronecker_colorable(p, 3) is True
    assert kronecker_colorable(p, 4) is False
    assert kronecker_colorable(p, 5) is True


def test_kronecker_verdict_reason_tags():
    p = Params(3, 7, 2)
    assert kronecker_verdict(p, 2) == (False, "below-chromatic")
    assert kronecker_verdict(p, 3) == (True, "multipartite-condition")
    assert kronecker_verdict(p, 4) == (False, "multipartite-condition-failed")
    assert kronecker_verdict(p, 5) == (True, "at-or-above-gamma")


def test_multipartite_verdict_reason_tags():
    p = Params(3, 5, 1)
    assert multipartite_verdict(p, 2) == (False, "below-chromatic")
    assert multipartite_verdict(p, 3) == (True, "multipartite-condition")
    assert multipartite_verdict(p, 4) == (False, "multipartite-condition-failed")
    p = Params(2, 10, 2)
    assert multipartite_verdict(p, 1) == (False, "below-chromatic")
    assert multipartite_verdict(p, 3) == (False, "multipartite-condition-failed")
    assert multipartite_verdict(p, 4) == (True, "multipartite-condition")
    assert multipartite_verdict(Params(1, 5, 1), 9) == (True, "edgeless")


def test_verdicts_check_k_before_the_edgeless_answer():
    for verdict in (kronecker_verdict, multipartite_verdict):
        with pytest.raises(ParameterDomainError, match="k must be >= 1, got 0"):
            verdict(Params(1, 4, 1), 0)


@given(
    m=st.integers(2, 10),
    nd=st.integers(0, 30),
    r=st.integers(1, 5),
    k=st.integers(1, 120),
)
def test_membership_monotone_in_r_and_subgraph_direction(m, nd, r, k):
    p = Params(m, m + nd, r)
    wider = Params(m, m + nd, r + 1)
    if multipartite_colorable(p, k):
        assert multipartite_colorable(wider, k)
        assert kronecker_colorable(p, k)  # spanning-subgraph direction
    if kronecker_colorable(p, k):
        assert kronecker_colorable(wider, k)


@given(m=st.integers(2, 10), nd=st.integers(0, 30), r=st.integers(1, 5))
def test_thresholds_non_increasing_in_r(m, nd, r):
    p = Params(m, m + nd, r)
    wider = Params(m, m + nd, r + 1)
    assert threshold_kronecker(wider).value <= threshold_kronecker(p).value
    assert threshold_multipartite(wider) <= threshold_multipartite(p)


# ------------------------------------------------------------
# equ_bound
# ------------------------------------------------------------


def test_equ_bound_frozen_values():
    assert equ_bound(2, 2) == 20
    assert equ_bound(3, 2) == 30
    # ceil((2+3)*(2+6-1)/2) = ceil(35/2) = 18, by direct evaluation.
    assert equ_bound(2, 3) == 18


@pytest.mark.parametrize(
    "m, n, kronecker, multipartite",
    [(2, 2, 2, 2), (2, 6, 4, 4), (2, 8, 6, 6), (3, 4, 3, 6)],
)
def test_r_1_thresholds_agree_for_some_n_and_differ_for_others(
    m, n, kronecker, multipartite
):
    # equ_bound has no r = 1 value, yet agreement at r = 1 is not ruled
    # out: both formulas and both oracle scans give these thresholds.
    p = Params(m, n, 1)
    assert threshold_kronecker(p).value == kronecker
    assert threshold_multipartite(p) == multipartite
    assert oracle_threshold(p, oracle_kronecker_colorable) == kronecker
    assert oracle_threshold(p, oracle_multipartite_colorable) == multipartite


def _r_1_families_agree(m: int, n: int) -> bool:
    # lcm(1..m) divides n and n mod (m+1) is 0 or m; README derives it.
    return n % math.lcm(*range(1, m + 1)) == 0 and n % (m + 1) in (0, m)


def test_r_1_agreement_predicate_matches_both_formulas():
    # At r = 1 the families agree exactly where the predicate holds, so
    # agreement never settles for good and equ_bound has nothing to say.
    # The grid holds 65,923 pairs (m, n).
    agreeing, mismatches = 0, []
    for m in range(2, 13):
        for n in range(m, 6000):
            p = Params(m, n, 1)
            agree = threshold_kronecker(p).value == threshold_multipartite(p)
            if agree != _r_1_families_agree(m, n):
                mismatches.append((m, n))
            agreeing += agree
    assert mismatches == []
    assert agreeing == 2_835


def test_equ_bound_rejects_r_1():
    # For r = 1 the two thresholds differ for infinitely many n, so no
    # finite bound exists; the formula's divisor would be zero anyway.
    with pytest.raises(ParameterDomainError):
        equ_bound(2, 1)
    with pytest.raises(ParameterDomainError):
        equ_bound(1, 2)
