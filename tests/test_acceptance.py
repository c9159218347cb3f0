"""Acceptance gate: every shipped claim re-checked end to end.

Each test covers one release criterion, prints a single PASS/FAIL line
on the terminal (bypassing capture), and then asserts.  Oracle-backed
criteria use explicit generous budgets so that no check can be silently
skipped: a budget trip is itself recorded and fails the criterion.

The slowest test here is the full constructor sweep (several minutes);
everything else is seconds.  README's quick suite deselects the three
slow criteria (the oracle decisions, the oracle thresholds and the
sweep) and runs the rest, in well under a second.
"""

import math
import time

import pytest

from equicolor import closed_forms as cf
from equicolor.closed_forms import Params
from equicolor.construct import color_kronecker
from equicolor.errors import BudgetExceededError
from equicolor.grid import verify
from equicolor.oracle import (
    OracleBudget,
    oracle_kronecker_colorable,
    oracle_multipartite_colorable,
    oracle_threshold,
)

# A budget that must never trip on the grids below; tripping is failure,
# not an excuse to skip.  The deepest instance in the decision grid
# (m=2, n=11, r=2, k=5) needs exactly 12,025,102 nodes, above the library
# default, hence the explicit ceiling here.
DEEP_BUDGET = OracleBudget(max_vertices=24, max_k=1000, node_limit=10**9)

# Same, for the threshold grid, whose two extra instances have 27 and 28
# vertices (see test_thresholds_match_oracle_and_hit_both_branches).
WIDE_BUDGET = OracleBudget(max_vertices=28, max_k=1000, node_limit=10**9)


@pytest.fixture(scope="session")
def oracles():
    """The Kronecker and K_{m(n)} oracles, each finished verdict kept for
    the session, keyed on (oracle, m, n, r, k).

    Items 1 and 2 share a grid, so each decision runs once per session,
    and either test run alone still decides all it needs.  The two
    budgets differ only in max_vertices, which every shared (m, n) meets
    under both.  A budget trip raises before anything is stored, so it
    is met again on every call.
    """
    verdicts = {}

    def once(oracle):
        def decide(p, k, budget):
            key = (oracle, p.m, p.n, p.r, k)
            if key not in verdicts:
                verdicts[key] = oracle(p, k, budget)
            return verdicts[key]
        return decide

    return once(oracle_kronecker_colorable), once(oracle_multipartite_colorable)


def small_grid_pairs(cap=24):
    """All 2 <= m <= n with m*n <= cap."""
    return [
        (m, n)
        for m in range(2, cap + 1)
        for n in range(m, cap + 1)
        if m * n <= cap
    ]


def report(capsys, name, ok, detail=""):
    with capsys.disabled():
        suffix = f"  ({detail})" if detail else ""
        print(f"[acceptance] {'PASS' if ok else 'FAIL'} {name}{suffix}")


# ------------------------------------------------------------
# 1. The closed-form decision rules agree with brute force.
# ------------------------------------------------------------


def test_decision_rules_match_oracles(capsys, oracles):
    kronecker_oracle, multipartite_oracle = oracles
    start = time.monotonic()
    mismatches = []
    skipped = []
    checked = 0
    for m, n in small_grid_pairs(24):
        for r in range(1, 5):
            p = Params(m, n, r)
            for k in range(1, m * n + 2):
                try:
                    kron_truth = kronecker_oracle(p, k, DEEP_BUDGET)
                    multi_truth = multipartite_oracle(p, k, DEEP_BUDGET)
                except BudgetExceededError as exc:
                    skipped.append((m, n, r, k, str(exc)))
                    continue
                checked += 2
                if cf.kronecker_colorable(p, k) is not kron_truth:
                    mismatches.append(("kronecker", m, n, r, k, kron_truth))
                if cf.multipartite_colorable(p, k) is not multi_truth:
                    mismatches.append(("multipartite", m, n, r, k, multi_truth))
    elapsed = time.monotonic() - start
    ok = not mismatches and not skipped and elapsed < 600
    report(
        capsys,
        "decision rules vs oracles",
        ok,
        f"{checked} decisions, {len(mismatches)} mismatches, "
        f"{len(skipped)} skipped, {elapsed:.1f}s",
    )
    assert not skipped, skipped[:5]
    assert not mismatches, mismatches[:5]
    assert elapsed < 600


# ------------------------------------------------------------
# 2. Both threshold formulas agree with the brute-force threshold,
#    and each formula branch is exercised several times.
# ------------------------------------------------------------


def test_thresholds_match_oracle_and_hit_both_branches(capsys, oracles):
    kronecker_oracle, multipartite_oracle = oracles
    start = time.monotonic()
    # The small grid contains only three instances on the residue branch,
    # so two slightly larger ones are added to see that branch five
    # times; their oracles still finish instantly.
    triples = [
        (m, n, r) for m, n in small_grid_pairs(24) for r in range(1, 5)
    ]
    triples += [(3, 9, 4), (4, 7, 1)]

    mismatches = []
    branch_hits = {"residue-small-gap": 0, "otherwise": 0}
    # At r = 1 the two oracle thresholds are equal exactly when lcm(1..m)
    # divides n and n mod (m+1) is 0 or m (README derives it).
    r_1_agree = {True: 0, False: 0}
    for m, n, r in triples:
        p = Params(m, n, r)
        t = cf.threshold_kronecker(p)
        branch_hits[t.case.value] += 1
        kron = oracle_threshold(p, kronecker_oracle, WIDE_BUDGET)
        if t.value != kron:
            mismatches.append(("kronecker", m, n, r, t.value))
        mt = cf.threshold_multipartite(p)
        multi = oracle_threshold(p, multipartite_oracle, WIDE_BUDGET)
        if mt != multi:
            mismatches.append(("multipartite", m, n, r, mt))
        if r == 1 and m * n <= 24:
            agree = n % math.lcm(*range(1, m + 1)) == 0 and n % (m + 1) in (0, m)
            r_1_agree[agree] += 1
            if agree != (kron == multi):
                mismatches.append(("r = 1 predicate", m, n, r, agree))
    ok = (
        not mismatches
        and branch_hits["residue-small-gap"] >= 5
        and branch_hits["otherwise"] >= 5
        and min(r_1_agree.values()) > 0
    )
    report(
        capsys,
        "threshold formulas and the r = 1 predicate vs oracle thresholds",
        ok,
        f"{len(triples)} instances, branches {branch_hits}, r = 1 pairs "
        f"agreeing/differing {r_1_agree[True]}/{r_1_agree[False]}, "
        f"{len(mismatches)} mismatches, {time.monotonic() - start:.2f}s",
    )
    assert not mismatches, mismatches[:5]
    assert min(r_1_agree.values()) > 0, r_1_agree
    assert branch_hits["residue-small-gap"] >= 5, branch_hits
    assert branch_hits["otherwise"] >= 5, branch_hits


# ------------------------------------------------------------
# 3. The constructor produces a verified witness for every instance
#    the decision rule accepts.
# ------------------------------------------------------------


def test_constructor_sound_across_sweep(capsys):
    start = time.monotonic()
    failures = []
    built = 0
    for m in range(2, 31):
        for n in range(m, 31):
            for r in range(1, 6):
                p = Params(m, n, r)
                for k in range(1, m * n + 2):
                    if not cf.kronecker_colorable(p, k):
                        continue
                    coloring = color_kronecker(p, k)
                    report_ = verify(r, coloring)
                    if not (report_.valid and coloring.k == k):
                        failures.append((m, n, r, k))
                    built += 1
    elapsed = time.monotonic() - start
    ok = not failures
    report(
        capsys,
        "constructor soundness sweep (m, n <= 30, r <= 5)",
        ok,
        f"{built} witnesses, {len(failures)} failures, {elapsed:.1f}s",
    )
    assert not failures, failures[:5]


# ------------------------------------------------------------
# 4. The r = 1 threshold matches a second, independently written form
#    of the gap-1 threshold rule.
# ------------------------------------------------------------


def _ceil(a, b):
    return -(-a // b)


def _independent_r1_threshold(m, n):
    """The r = 1 Kronecker threshold, restated from scratch.

    Residue branch: ceil(m*n / (m+1)) when n mod (m+1) lies in
    {2, ..., m-1}.  Otherwise m * ceil(n / s) where s is the least
    integer >= 2 that does not divide n and keeps m * ceil(n / s)
    at most ceil(m*n / (m+1)).
    """
    cap = _ceil(m * n, m + 1)
    if 2 <= n % (m + 1) <= m - 1:
        return cap
    s = 2
    while n % s == 0 or m * _ceil(n, s) > cap:
        s += 1
    return m * _ceil(n, s)


def test_r1_threshold_matches_independent_formula(capsys):
    start = time.monotonic()
    mismatches = []
    checked = 0
    for m in range(2, 61):
        for n in range(m, 61):
            checked += 1
            got = cf.threshold_kronecker(Params(m, n, 1)).value
            want = _independent_r1_threshold(m, n)
            if got != want:
                mismatches.append((m, n, got, want))
    ok = not mismatches
    report(
        capsys,
        "r=1 threshold vs independent formula (m, n <= 60)",
        ok,
        f"{checked} pairs, {len(mismatches)} mismatches, "
        f"{time.monotonic() - start:.2f}s",
    )
    assert not mismatches, mismatches[:5]


# ------------------------------------------------------------
# 5. On the r = 1 residue branch the Kronecker threshold is strictly
#    below the multipartite one.
# ------------------------------------------------------------


def test_r1_residue_instances_separate_families(capsys):
    start = time.monotonic()
    violations = []
    instances = 0
    for m in range(2, 61):
        for n in range(m, 61):
            if not 2 <= n % (m + 1) <= m - 1:
                continue
            instances += 1
            p = Params(m, n, 1)
            kron = cf.threshold_kronecker(p).value
            multi = cf.threshold_multipartite(p)
            if not (kron < multi and kron % m != 0 and multi % m == 0):
                violations.append((m, n, kron, multi))
    ok = instances > 0 and not violations
    report(
        capsys,
        "r=1 residue branch separates the families",
        ok,
        f"{instances} instances, {len(violations)} violations, "
        f"{time.monotonic() - start:.2f}s",
    )
    assert instances > 0
    assert not violations, violations[:5]


# ------------------------------------------------------------
# 6. Beyond the equality bound the two families are interchangeable:
#    same threshold and the same verdict at every k.
# ------------------------------------------------------------


def test_thresholds_agree_beyond_equality_bound(capsys):
    start = time.monotonic()
    violations = []
    checked = 0
    for r in (2, 3, 4):
        for m in (2, 3, 4):
            bound = cf.equ_bound(m, r)
            for n in range(bound, bound + 21):
                p = Params(m, n, r)
                checked += 1
                if cf.threshold_kronecker(p).value != cf.threshold_multipartite(p):
                    violations.append(("threshold", m, n, r))
                for k in range(1, m * n + 2):
                    if cf.kronecker_colorable(p, k) != cf.multipartite_colorable(p, k):
                        violations.append(("decision", m, n, r, k))
    elapsed = time.monotonic() - start
    ok = not violations and elapsed < 60
    report(
        capsys,
        "families coincide from the equality bound on",
        ok,
        f"{checked} instances, {len(violations)} violations, {elapsed:.1f}s",
    )
    assert not violations, violations[:5]
    assert elapsed < 60


# ------------------------------------------------------------
# 7. Just below each multipartite step value m*ceil(n/(t+r)), the
#    multipartite graph is never colorable with k in the gap
#    (step - m + 1 .. step - 1), for every window start t that
#    actually tightens the size window.
# ------------------------------------------------------------


def test_sizes_just_below_multipartite_steps_are_uncolorable(capsys):
    start = time.monotonic()
    violations = []
    checked = 0
    for m in range(2, 6):
        for n in range(2, 41):
            for r in range(1, 5):
                p = Params(m, n, r)
                for t in range(1, n + 1):
                    if not n // (t + 1) < _ceil(n, t + r):
                        continue
                    step = m * _ceil(n, t + r)
                    for i in range(1, m):
                        checked += 1
                        if cf.multipartite_colorable(p, step - i):
                            violations.append((m, n, r, t, step - i))
    ok = not violations
    report(
        capsys,
        "multipartite gaps below each step value",
        ok,
        f"{checked} checks, {len(violations)} violations, "
        f"{time.monotonic() - start:.2f}s",
    )
    assert not violations, violations[:5]


# ------------------------------------------------------------
# 8. The showcase non-monotone instance, checked both ways.
# ------------------------------------------------------------


def test_non_monotone_witness_3_7_2(capsys):
    start = time.monotonic()
    p = Params(3, 7, 2)
    expected = {3: True, 4: False, **{k: True for k in range(5, 23)}}
    bad = []
    for k, want in expected.items():
        if cf.kronecker_colorable(p, k) is not want:
            bad.append(("formula", k, want))
        if oracle_kronecker_colorable(p, k, DEEP_BUDGET) is not want:
            bad.append(("oracle", k, want))
    ok = not bad
    report(
        capsys,
        "non-monotone witness m=3 n=7 r=2",
        ok,
        f"{2 * len(expected)} verdicts, {len(bad)} wrong, "
        f"{time.monotonic() - start:.2f}s",
    )
    assert not bad, bad
