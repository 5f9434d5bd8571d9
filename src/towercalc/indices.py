"""Index bookkeeping for weighted-L2 membership and excluded data sets.

A TowerIndex (sign, k, sigma, m) names one member; its coefficient degree is
k + sigma on the growing side and k - sigma - n on the decaying side.  A
member's homogeneity class lies in the weight-s space iff

    degree < -s - n/2.

The decaying members that *fail* this at floors <= K form the finite
excluded sets driving the weighted expansions; they are empty exactly when
s < n/2 - K.

Weights are exact rationals throughout (pass ints, 'p/q' strings, or QQ).
"""

from __future__ import annotations

import math

from .errors import HypothesisError, require_odd_dimension
from .ring import QQ, qq, qq_str
from .towers import TowerIndex, multiplicity


def in_weighted_l2(index: TowerIndex, s, n: int) -> bool:
    """True iff the member's homogeneity class lies in the weight-s space."""
    require_odd_dimension(n)
    return qq(index.degree(n)) < -qq(s) - QQ(n, 2)


# The most work an excluded set may take: sigma steps walked plus indices
# listed.  A weight, floor count or sigma cap beyond it is refused before any
# enumeration (excluded_work).
EXCLUDED_LIMIT = 100_000


def excluded_work(n: int, rank: int, line: str, k_max: int, s,
                  sigma_max: int | None = None) -> int:
    """An upper bound on the sigma steps plus the indices that
    enumerate_excluded walks and lists, from each floor's sigma span and
    the multiplicity at its top: mu(n, p, sigma) is nondecreasing in sigma
    for 0 < p < n and at most 1 at p in {0, n}.  sigma_max adds the growing
    side.  Counting stops once the bound passes EXCLUDED_LIMIT, so a huge
    weight or floor count costs nothing."""
    s = qq(s)
    if k_max + 1 > EXCLUDED_LIMIT:
        return k_max + 1
    first = math.floor(s - QQ(n, 2))
    work = 0
    for k in range(k_max + 1):
        for top in (first + k, -1 if sigma_max is None else sigma_max):
            if top < 0:
                continue
            if top >= EXCLUDED_LIMIT:
                return top + 1
            work += (top + 1) * (1 + max(1, multiplicity(n, rank, line, top, k)))
            if work > EXCLUDED_LIMIT:
                return work
    return work


def enumerate_excluded(n: int, rank: int, line: str, k_max: int, s,
                       negative_only: bool = True,
                       sigma_max: int | None = None) -> list:
    """All indices at floors <= k_max whose members fail weight-s membership.

    With negative_only (the default) only the decaying side is listed; it is
    finite on its own (sigma <= s + k - n/2).  Listing the growing side too
    requires an explicit sigma_max cap, since every growing index fails for
    s >= -n/2.  A request whose excluded_work passes EXCLUDED_LIMIT is a
    ValueError, raised before anything is listed.
    """
    require_odd_dimension(n)
    s = qq(s)
    if not negative_only and sigma_max is None:
        raise ValueError("listing growing-side indices requires sigma_max")
    work = excluded_work(n, rank, line, k_max, s, None if negative_only else sigma_max)
    if work > EXCLUDED_LIMIT:
        raise ValueError(
            f"the excluded indices at this weight (floors <= {k_max}"
            + ("" if negative_only else f", sigma <= {sigma_max}")
            + f") take more than the limit of {EXCLUDED_LIMIT} sigma steps and indices")
    half = QQ(n, 2)
    out = []
    for k in range(k_max + 1):
        sigma = 0
        while qq(sigma) <= s + k - half:
            for m in range(1, multiplicity(n, rank, line, sigma, k) + 1):
                out.append(TowerIndex(-1, k, sigma, m))
            sigma += 1
    if not negative_only:
        for k in range(k_max + 1):
            for sigma in range(sigma_max + 1):
                idx = TowerIndex(1, k, sigma, 1)
                if not in_weighted_l2(idx, s, n):
                    for m in range(1, multiplicity(n, rank, line, sigma, k) + 1):
                        out.append(TowerIndex(1, k, sigma, m))
    out.sort(key=lambda i: (i.sign < 0, i.k, i.sigma, i.m))
    return out


def excluded_empty_weight_bound(n: int, k_max: int) -> QQ:
    """The decaying excluded set at floors <= k_max is empty iff s < n/2 - k_max."""
    return QQ(n, 2) - k_max


def shift_index(index: TowerIndex, j: int) -> tuple:
    """Floor shift k -> k + j.  Returns (shifted index, parity_swapped).

    parity_swapped reports whether the member's seed ladder swaps between
    the two ranks of its family (odd shifts do that).
    """
    new_k = index.k + j
    if new_k < 0:
        raise ValueError(f"shift by {j} drops floor {index.k} below 0")
    return (TowerIndex(index.sign, new_k, index.sigma, index.m), j % 2 == 1)


def negate_index(index: TowerIndex) -> TowerIndex:
    """Swap growing/decaying side at the same (k, sigma, m)."""
    return TowerIndex(-index.sign, index.k, index.sigma, index.m)


# ---------------------------------------------------------------------------
# exceptional weights
# ---------------------------------------------------------------------------

def is_exceptional_weight(s, n: int) -> bool:
    """Weights where whole-scale solvability degenerates:
    s = m + n/2 or s = 1 - m - n/2 for some integer m >= 0."""
    require_odd_dimension(n)
    s = qq(s)
    half = QQ(n, 2)
    up = s - half
    down = 1 - half - s
    def is_nat(x):
        return x >= 0 and x == int(x)
    return is_nat(up) or is_nat(down)


def exceptional_weights(n: int, count: int = 5) -> list:
    """The first `count` exceptional weights on each side, ascending."""
    require_odd_dimension(n)
    half = QQ(n, 2)
    lows = [1 - half - m for m in range(count)]
    highs = [half + m for m in range(count)]
    return sorted(lows) + highs


# ---------------------------------------------------------------------------
# hypothesis validation
# ---------------------------------------------------------------------------

def validate_hypotheses(context: str, n: int, s, tau=None, j: int | None = None,
                        max_degree=None) -> dict:
    """Check the weight/decay hypotheses of the three solvability contexts.

    context:
      "solvability"      one whole-scale solve at weight s with decay tau
      "operator_domain"  admissibility of the solution-operator profile
                         (needs max_degree = max coefficient degree of the
                         excluded data, or None when the data set is empty)
      "operator_power"   j-fold iteration

    Returns {"passed": bool, "context", "failures": [messages]}.
    """
    require_odd_dimension(n)
    if context not in ("solvability", "operator_domain", "operator_power"):
        raise ValueError(f"unknown context {context!r}")
    s = qq(s)
    half = QQ(n, 2)
    failures = []

    if context == "operator_power":
        if j is None or j < 1:
            failures.append("power j must be an integer >= 1")
            j = max(1, j or 1)
        lower = qq(j) - half
    else:
        lower = 1 - half
    if not s > lower:
        failures.append(f"weight s={qq_str(s)} not above {qq_str(lower)}")
    if is_exceptional_weight(s, n):
        failures.append(f"weight s={qq_str(s)} is exceptional")

    if tau is None:
        failures.append("decay rate tau is required")
    else:
        tau = qq(tau)
        if not tau > max(QQ(0), s - half):
            failures.append(
                f"tau={qq_str(tau)} not above max(0, s-n/2)={qq_str(max(QQ(0), s - half))}")
        if context == "operator_power":
            if not tau >= qq(j) - 1 - s:
                failures.append(f"tau={qq_str(tau)} below j-1-s={qq_str(qq(j) - 1 - s)}")
        else:
            if not tau >= -s:
                failures.append(f"tau={qq_str(tau)} below -s={qq_str(-s)}")
        if context in ("operator_domain", "operator_power") and max_degree is not None:
            bound = s + half + qq(max_degree)
            if not tau > bound:
                failures.append(
                    f"tau={qq_str(tau)} not above s+n/2+max_degree={qq_str(bound)}")

    return {"passed": not failures, "context": context, "failures": failures}


def require_hypotheses(context: str, n: int, s, tau=None, j=None,
                       max_degree=None) -> None:
    rep = validate_hypotheses(context, n, s, tau=tau, j=j, max_degree=max_degree)
    if not rep["passed"]:
        raise HypothesisError(f"{context}: " + "; ".join(rep["failures"]))
