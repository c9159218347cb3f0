"""Closed-form arithmetic for r-equitable chromatic thresholds.

Two graph families are handled, both built from complete graphs on m and n
vertices with 2 <= m (and m <= n where noted).  For m = 1 both graphs are
edgeless; only the two verdicts accept that case, colorable for every k
with the ``edgeless`` tag.

* the Kronecker product K_m x K_n: vertices are the cells (i, j) of an
  m-by-n grid, and two cells are adjacent exactly when they differ in both
  coordinates.  Independent sets are precisely the subsets of a single row
  or a single column.
* the complete multipartite graph K_{m(n)}: m parts of n vertices each,
  with every cross-part pair adjacent.  Independent sets are the subsets
  of a single part.  K_m x K_n is a spanning subgraph of K_{m(n)} (identify
  row i with part i), so any class structure legal in K_{m(n)} is legal in
  the product as well.

A coloring is r-equitable when the color classes are independent and any
two class sizes differ by at most r.  Classes are allowed to be empty (an
empty class has size 0), which is what makes k larger than the vertex
count workable.  The r-equitable chromatic threshold of G is the least k
such that G is r-equitably k'-colorable for every k' >= k; colorability is
not monotone in k below that point, which is why the threshold is a
genuine object and not just "least colorable k".

All quantities here are exact integers; every floor and ceiling is integer
division.  The derived quantities:

* ``gamma(m, n, r)`` = min(n - r*(n // (m+r)), m * ceil(n / (m+r))).
  Every k >= gamma is achievable for the product graph, so the product
  threshold never exceeds gamma.  Which of the two expressions wins is
  decided entirely by the residue t = n mod (m+r): the first is strictly
  smaller iff 1 <= t <= m-1, they are equal iff t is 0 or m, and the
  second is strictly smaller iff m+1 <= t <= m+r-1.
* ``theta_balanced(n, r)`` = least theta >= 1 with
  n // (theta+1) < ceil(n / (theta+r)).  The multipartite threshold is
  m * ceil(n / (theta_balanced + r)): below it some class count splits a
  part too unevenly, at or above it every count works.
* theta_min, scanned inside ``threshold_kronecker``, adds the cap
  m * ceil(n / (theta+r)) <= gamma to the same test; it feeds the product
  threshold's generic branch.

Membership for a single k (rather than the threshold) is decided by
``kronecker_colorable``: k is good iff k >= gamma or K_{m(n)} is
k-colorable, that is k >= m and the multipartite size condition
ceil(n / (k // m)) - n // ceil(k / m) <= r holds.  The product threshold
follows from that rule in two branches.  When gamma's first side wins
and K_{m(n)} refuses k = gamma - 1, the threshold is gamma itself,
n - r*(n // (m+r)); otherwise it is m * ceil(n / (theta_min + r)).

Everything in this module is cross-checked elsewhere against brute-force
oracles that know nothing about these formulas (see equicolor.oracle).
"""

from __future__ import annotations

from enum import Enum

from .errors import ParameterDomainError, _Record, _set, require_int

# ============================================================
# Reason tags for single-k decisions
# ============================================================

REASON_BELOW_CHROMATIC = "below-chromatic"
REASON_AT_OR_ABOVE_GAMMA = "at-or-above-gamma"
REASON_MULTIPARTITE_CONDITION = "multipartite-condition"
REASON_MULTIPARTITE_FAILED = "multipartite-condition-failed"
REASON_EDGELESS = "edgeless"


def ceil_div(a: int, b: int) -> int:
    """Ceiling of a / b for b >= 1, in exact integer arithmetic."""
    return -(-a // b)


# ============================================================
# Parameters
# ============================================================


class Params(_Record):
    """Instance parameters: factor sizes m, n and allowed size gap r >= 1.

    For the Kronecker product the two factors commute, so product-side
    functions require the canonical orientation m <= n (use
    :meth:`canonical`).  K_{m(n)} is *not* symmetric in m and n, so
    multipartite-side functions accept any orientation and callers must
    not canonicalize for them.
    """

    __slots__ = __match_args__ = ("m", "n", "r")

    def __init__(self, m: int, n: int, r: int) -> None:
        require_int("m", m, 1)
        require_int("n", n, 1)
        require_int("r", r, 1)
        _set(self, "m", m)
        _set(self, "n", n)
        _set(self, "r", r)

    def canonical(self) -> "Params":
        """The orientation with m <= n, swapping the factors if needed."""
        if self.m > self.n:
            return Params(self.n, self.m, self.r)
        return self


def _require_canonical(p: Params, name: str) -> None:
    """The product-side domain: 2 <= m <= n, refused in ``name``'s words."""
    if p.m < 2:
        raise ParameterDomainError(f"{name} requires m >= 2, got m={p.m}")
    if p.m > p.n:
        raise ParameterDomainError(
            f"{name} requires the canonical orientation m <= n, got m={p.m} n={p.n}"
        )


# ============================================================
# gamma and its trichotomy
# ============================================================


class Trichotomy(Enum):
    """Which side of gamma's min wins, decided by t = n mod (m+r)."""

    LESS = "less"  # n - r*s strictly smaller; t in [1, m-1]
    EQUAL = "equal"  # both sides agree; t in {0, m}
    GREATER = "greater"  # m*ceil(n/(m+r)) strictly smaller; t in [m+1, m+r-1]


class GammaResult(_Record):
    __slots__ = __match_args__ = ("value", "trichotomy", "residue")

    def __init__(self, value: int, trichotomy: Trichotomy, residue: int) -> None:
        _set(self, "value", value)
        _set(self, "trichotomy", trichotomy)
        _set(self, "residue", residue)  # t = n mod (m+r), determines the trichotomy


def _gamma_sides(p: Params) -> tuple[int, int]:
    """gamma's two sides, n - r*(n // (m+r)) and m*ceil(n / (m+r))."""
    return p.n - p.r * (p.n // (p.m + p.r)), p.m * ceil_div(p.n, p.m + p.r)


def gamma(p: Params) -> GammaResult:
    """min(n - r*(n // (m+r)), m*ceil(n / (m+r))), with the winning side.

    Requires m >= 2.  gamma is the point from which every larger class
    count is achievable for K_m x K_n; for m <= n, m <= gamma <= n.
    """
    if p.m < 2:
        raise ParameterDomainError(f"gamma requires m >= 2, got m={p.m}")
    first, second = _gamma_sides(p)
    if first < second:
        tri = Trichotomy.LESS
    elif first == second:
        tri = Trichotomy.EQUAL
    else:
        tri = Trichotomy.GREATER
    return GammaResult(min(first, second), tri, p.n % (p.m + p.r))


# ============================================================
# theta scans
# ============================================================


def _least_balanced(n: int, r: int, start: int) -> int:
    """Least theta >= start passing the theta_balanced test (theta = n does)."""
    theta = start
    while not (n // (theta + 1) < ceil_div(n, theta + r)):
        theta += 1
    return theta


def theta_balanced(n: int, r: int) -> int:
    """Least theta >= 1 with n // (theta+1) < ceil(n / (theta+r)).

    The condition says: splitting n items into theta+1 near-equal pieces
    already makes some piece smaller than every piece of a split into
    theta+r pieces can be, i.e. piece counts between theta+1 and theta+r
    cannot coexist within gap r.  The scan terminates: theta = n always
    satisfies the condition (n // (n+1) = 0 < 1).
    """
    require_int("n", n, 1)
    require_int("r", r, 1)
    return _least_balanced(n, r, 1)


# ============================================================
# Thresholds
# ============================================================


class ThresholdCase(Enum):
    """Which branch produced a Kronecker threshold value."""

    RESIDUE_SMALL_GAP = "residue-small-gap"
    OTHERWISE = "otherwise"


class ThresholdResult(_Record):
    __slots__ = __match_args__ = ("value", "case", "theta", "gamma")

    def __init__(
        self, value: int, case: ThresholdCase, theta: int | None, gamma: GammaResult
    ) -> None:
        _set(self, "value", value)
        _set(self, "case", case)
        _set(self, "theta", theta)  # theta_min when the OTHERWISE branch fired, else None
        _set(self, "gamma", gamma)


def threshold_multipartite(p: Params) -> int:
    """r-equitable chromatic threshold of K_{m(n)}: m*ceil(n/(theta+r)).

    theta is theta_balanced(n, r).  Requires m >= 2 (m = 1 is the edgeless
    graph, whose threshold is 1).  Note the asymmetry: K_{m(n)} has m
    parts of size n, so do not swap m and n.
    """
    if p.m < 2:
        raise ParameterDomainError(f"threshold_multipartite requires m >= 2, got m={p.m}")
    return p.m * ceil_div(p.n, theta_balanced(p.n, p.r) + p.r)


def threshold_kronecker(p: Params) -> ThresholdResult:
    """r-equitable chromatic threshold of K_m x K_n, with branch detail.

    Requires 2 <= m <= n.  The threshold is gamma = n - r*s, s = n // (m+r),
    when gamma's first side wins and K_{m(n)} refuses gamma - 1 (the
    residue branch); otherwise it is m * ceil(n / (theta_min + r)).  This
    is the paper's 2 <= t <= m-1 and ceil(n / s) - n // (s+1) > r, where
    t = n mod (m+r): the first side wins iff 1 <= t <= m-1, and then s >= 1
    (else n = t < m) and gamma - 1 = m*s + t - 1.  K_{m(n)} at that k tests
    the very gap for t >= 2, and ceil(n / s) - n // s <= 1 <= r for t = 1.
    """
    _require_canonical(p, "threshold_kronecker")
    g = gamma(p)
    if g.trichotomy is Trichotomy.LESS and not _multipartite_rule(p, g.value - 1)[0]:
        return ThresholdResult(g.value, ThresholdCase.RESIDUE_SMALL_GAP, None, g)
    # theta_min: the least theta >= 1 passing the theta_balanced test with
    # m * ceil(n / (theta+r)) <= gamma.  That cap holds exactly from
    # theta = ceil(n / (gamma // m)) - r on, so the balanced scan starts
    # there (or at 1); it ends by theta = n, where the cap reads m <= gamma.
    theta = _least_balanced(p.n, p.r, max(1, ceil_div(p.n, g.value // p.m) - p.r))
    return ThresholdResult(p.m * ceil_div(p.n, theta + p.r), ThresholdCase.OTHERWISE, theta, g)


# ============================================================
# Single-k membership
# ============================================================


def multipartite_verdict(p: Params, k: int) -> tuple[bool, str]:
    """Decide r-equitable k-colorability of K_{m(n)}, with a reason tag.

    Requires k >= 1; any m, any orientation.  Colorable iff m = 1 (the
    edgeless K_{1(n)}) or k >= m and
    ceil(n / (k // m)) - n // ceil(k / m) <= r: the smallest class forced
    by giving some part only k // m colors must stay within r of the
    largest class allowed when a part has ceil(k / m) colors.  Tags:

    * ``edgeless``: m = 1, colorable.
    * ``below-chromatic``: k < m, not colorable.
    * ``multipartite-condition``: k >= m and the condition holds.
    * ``multipartite-condition-failed``: k >= m and it fails.
    """
    require_int("k", k, 1)
    return _multipartite_rule(p, k)


def _multipartite_rule(p: Params, k: int) -> tuple[bool, str]:
    """:func:`multipartite_verdict` for a k already checked."""
    if p.m == 1:
        return True, REASON_EDGELESS
    if k < p.m:
        return False, REASON_BELOW_CHROMATIC
    if ceil_div(p.n, k // p.m) - p.n // ceil_div(k, p.m) <= p.r:
        return True, REASON_MULTIPARTITE_CONDITION
    return False, REASON_MULTIPARTITE_FAILED


def multipartite_colorable(p: Params, k: int) -> bool:
    """Is K_{m(n)} r-equitably k-colorable?  Requires k >= 1."""
    return multipartite_verdict(p, k)[0]


def kronecker_verdict(p: Params, k: int) -> tuple[bool, str]:
    """Decide r-equitable k-colorability of K_m x K_n, with a reason tag.

    Requires m <= n, k >= 1.  The decision rule: colorable iff k >= gamma
    or the spanning supergraph K_{m(n)} is (:func:`multipartite_verdict`),
    as K_m x K_n inherits every K_{m(n)} coloring and below gamma no other
    shape is available.  m = 1 is the edgeless K_{1(n)}; for m >= 2,
    gamma >= m, so the chromatic bound k >= m is K_{m(n)}'s.  Tags:

    * ``edgeless``: m = 1, colorable.
    * ``below-chromatic``: k < m, not colorable.
    * ``at-or-above-gamma``: k >= gamma, colorable.
    * ``multipartite-condition``: m <= k < gamma, colorable via K_{m(n)}.
    * ``multipartite-condition-failed``: m <= k < gamma, not colorable.
    """
    require_int("k", k, 1)
    if p.m >= 2:
        _require_canonical(p, "kronecker_verdict")
        if k >= min(_gamma_sides(p)):
            return True, REASON_AT_OR_ABOVE_GAMMA
    return _multipartite_rule(p, k)


def kronecker_colorable(p: Params, k: int) -> bool:
    """Is K_m x K_n r-equitably k-colorable?  Requires m <= n, k >= 1."""
    return kronecker_verdict(p, k)[0]


# ============================================================
# When do the two families' thresholds agree?
# ============================================================


def equ_bound(m: int, r: int) -> int:
    """ceil((m+r)*(m+2r-1) / (r-1)): for n at least this, thresholds match.

    For every n >= equ_bound(m, r) the Kronecker and multipartite
    thresholds coincide.  Requires m >= 2 and r >= 2: the bound diverges
    as r -> 1, and at r = 1 (m <= n) the thresholds agree exactly when
    lcm(1, ..., m) divides n and n mod (m+1) is 0 or m, so they differ
    for infinitely many n (README gives the proof).
    """
    require_int("m", m, 2)
    require_int("r", r, 2)
    return ceil_div((m + r) * (m + 2 * r - 1), r - 1)
