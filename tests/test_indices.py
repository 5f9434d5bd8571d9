from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from towercalc import indices, towers
from towercalc.errors import HypothesisError
from towercalc.harmonic import mu
from towercalc.indices import (EXCLUDED_LIMIT, enumerate_excluded, exceptional_weights,
                               excluded_empty_weight_bound, excluded_work, in_weighted_l2,
                               is_exceptional_weight, multiplicity,
                               negate_index, require_hypotheses, shift_index,
                               validate_hypotheses)
from towercalc.ring import QQ, qq
from towercalc.towers import TowerIndex


def test_membership_boundary_is_strict():
    n = 3
    # degree of (-,k=0,sigma=0) is -3; threshold  -3 < -s - 3/2  <=>  s < 3/2
    idx = TowerIndex(-1, 0, 0, 1)
    assert in_weighted_l2(idx, qq(1), n)
    assert not in_weighted_l2(idx, QQ(3, 2), n)   # boundary excluded
    assert not in_weighted_l2(idx, qq(2), n)


def test_membership_examples():
    n = 3
    assert not in_weighted_l2(TowerIndex(1, 0, 0, 1), qq(0), n)
    assert in_weighted_l2(TowerIndex(-1, 0, 2, 1), qq(0), n)     # degree -5
    assert in_weighted_l2(TowerIndex(-1, 1, 1, 1), qq(1), n)     # degree -3
    assert not in_weighted_l2(TowerIndex(-1, 1, 1, 1), QQ(7, 4), n)


@given(k=st.integers(0, 4), sigma=st.integers(0, 3),
       s=st.fractions(min_value=-4, max_value=4, max_denominator=6))
def test_membership_matches_inequality(k, sigma, s):
    n = 3
    for sign in (1, -1):
        idx = TowerIndex(sign, k, sigma, 1)
        want = Fraction(idx.degree(n)) < -s - Fraction(n, 2)
        assert in_weighted_l2(idx, qq(s), n) == want


@pytest.mark.parametrize("n", [3, 5])
def test_membership_in_integers_matches_the_fraction_formula(n):
    """Integer, p/q and negative weights, as int, str and QQ, and each
    index's boundary weight -degree - n/2 with its neighbours."""
    weights = [0, 2, -3, "5/2", "-7/3", "4/6", QQ(-1, 6), QQ(11, 4)]
    for sign in (1, -1):
        for k in range(4):
            for sigma in range(4):
                idx = TowerIndex(sign, k, sigma, 1)
                degree = Fraction(idx.degree(n))
                boundary = -degree - Fraction(n, 2)
                assert not in_weighted_l2(idx, boundary, n)
                assert not in_weighted_l2(idx, str(boundary), n)
                for s in weights + [boundary, boundary - Fraction(1, 7),
                                    boundary + Fraction(1, 7), str(boundary - 1)]:
                    want = degree < -Fraction(s) - Fraction(n, 2)
                    assert in_weighted_l2(idx, s, n) == want, (idx, s)


def test_multiplicity_parity_rules():
    n = 3
    # D-line on rank q: even floors mu^q, odd floors mu^{q+1}
    assert multiplicity(n, 1, "D", 1, 0) == mu(n, 1, 1)
    assert multiplicity(n, 1, "D", 1, 1) == mu(n, 2, 1)
    assert multiplicity(n, 2, "R", 1, 0) == mu(n, 2, 1)
    assert multiplicity(n, 2, "R", 1, 1) == mu(n, 1, 1)
    # the vanished -D^{0,0} slot still counts once at the bookkeeping level
    assert multiplicity(n, 0, "D", 0, 0) == 1
    with pytest.raises(Exception):
        multiplicity(n, 3, "D", 0, 0)    # D-line rank capped at n-1
    with pytest.raises(Exception):
        multiplicity(n, 0, "R", 0, 0)    # R-line rank starts at 1
    # one rule: the families count their floors with the same function
    assert multiplicity is towers.multiplicity


def brute_force_excluded(n, rank, line, k_max, s):
    # sigma cap of 10 is safe for every weight probed below (s + k - n/2 < 10)
    found = []
    for k in range(k_max + 1):
        for sigma in range(0, 10):
            idx = TowerIndex(-1, k, sigma, 1)
            if in_weighted_l2(idx, s, n):
                continue
            count = multiplicity(n, rank, line, sigma, k)
            found.extend(TowerIndex(-1, k, sigma, m)
                         for m in range(1, count + 1))
    return found


@pytest.mark.parametrize("s", ["-2", "-1/2", "0", "3/4", "2"])
@pytest.mark.parametrize("rank,line", [(1, "D"), (2, "R")])
def test_enumerate_excluded_against_brute_force(s, rank, line):
    n = 3
    got = enumerate_excluded(n, rank, line, 2, qq(s))
    want = brute_force_excluded(n, rank, line, 2, qq(s))
    assert sorted(got) == sorted(want)


def test_excluded_empty_iff_weight_below_bound():
    n = 3
    for k_max in range(4):
        bound = excluded_empty_weight_bound(n, k_max)
        assert bound == Fraction(n, 2) - k_max - 0  # documented closed form
        below = qq(bound) - QQ(1, 4)
        at = qq(bound)
        assert enumerate_excluded(n, 1, "D", k_max, below) == []
        assert enumerate_excluded(n, 1, "D", k_max, at) != []


def test_seed_multiplicity_is_nondecreasing_in_sigma():
    """excluded_work bounds a floor's members by its sigma span times mu at
    the top of the span; that needs mu nondecreasing for 0 < p < n."""
    for n in range(3, 22, 2):
        for p in range(1, n):
            counts = [mu(n, p, sigma) for sigma in range(300)]
            assert counts == sorted(counts), (n, p)


@pytest.mark.parametrize("n,top", [(3, 12), (5, 6), (7, 3)])
def test_excluded_work_bounds_the_listing(n, top):
    weights = [QQ(x, 4) for x in range(-20, 4 * top, 3)]
    for line, ranks in (("D", range(n)), ("R", range(1, n + 1))):
        for rank in ranks:
            for k_max in range(4):
                for s in weights:
                    for sigma_max in (None, 0, 1):
                        work = excluded_work(n, rank, line, k_max, s, sigma_max)
                        if work <= EXCLUDED_LIMIT:
                            got = enumerate_excluded(n, rank, line, k_max, s,
                                                     negative_only=sigma_max is None,
                                                     sigma_max=sigma_max)
                            assert len(got) <= work


# (n, rank, line, k_max, largest admitted integer weight): the weight one above
# it passes EXCLUDED_LIMIT
_EDGES = [(3, 1, "D", 3, 110), (3, 1, "D", 0, 224), (3, 2, "R", 0, 224), (5, 2, "D", 1, 15)]


@pytest.mark.parametrize("n,rank,line,k_max,edge", _EDGES)
def test_the_first_weight_over_the_limit_is_refused_before_listing(monkeypatch, n, rank,
                                                                   line, k_max, edge):
    assert excluded_work(n, rank, line, k_max, edge) <= EXCLUDED_LIMIT
    monkeypatch.setattr(indices, "TowerIndex", None)      # listing would raise TypeError
    for s in (edge + 1, QQ(99999999999999999999, 7), QQ(10) ** 400):
        assert excluded_work(n, rank, line, k_max, s) > EXCLUDED_LIMIT
        with pytest.raises(ValueError, match=f"limit of {EXCLUDED_LIMIT}"):
            enumerate_excluded(n, rank, line, k_max, s)


@pytest.mark.parametrize("k_max,s,sigma_max", [(EXCLUDED_LIMIT, 0, None), (10 ** 12, -10 ** 12, None),
                                               (2, 1, EXCLUDED_LIMIT), (0, -10, 10 ** 30)])
def test_huge_floor_counts_and_sigma_caps_are_refused_before_listing(monkeypatch, k_max, s,
                                                                      sigma_max):
    monkeypatch.setattr(indices, "TowerIndex", None)
    with pytest.raises(ValueError, match=f"limit of {EXCLUDED_LIMIT}"):
        enumerate_excluded(3, 1, "D", k_max, qq(s), negative_only=sigma_max is None,
                           sigma_max=sigma_max)


def test_shift_index_and_parity():
    idx = TowerIndex(-1, 1, 2, 3)
    up, swapped = shift_index(idx, 1)
    assert up == TowerIndex(-1, 2, 2, 3) and swapped
    up2, swapped2 = shift_index(idx, 2)
    assert up2 == TowerIndex(-1, 3, 2, 3) and not swapped2
    down, swapped3 = shift_index(up, -1)
    assert down == idx and swapped3
    assert up.degree(3) == idx.degree(3) + 1
    with pytest.raises(ValueError):
        shift_index(TowerIndex(1, 0, 0, 1), -1)


def test_negate_index_swaps_side():
    idx = TowerIndex(1, 2, 1, 1)
    neg = negate_index(idx)
    assert neg == TowerIndex(-1, 2, 1, 1)
    assert negate_index(neg) == idx
    # (k+sigma) + (k-sigma-n) = 2k - n
    assert idx.degree(3) + neg.degree(3) == 2 * idx.k - 3
    assert idx.degree(3) == 3 and neg.degree(3) == -2


def test_exceptional_weight_set():
    n = 3
    # I = {m + 3/2} union {1 - m - 3/2} = {3/2, 5/2, ...} u {-1/2, -3/2, ...}
    for s in ["3/2", "5/2", "7/2", "-1/2", "-3/2", "-5/2"]:
        assert is_exceptional_weight(qq(s), n), s
    for s in ["0", "1", "1/2", "-1", "-17/4", "2"]:
        assert not is_exceptional_weight(qq(s), n), s
    listed = exceptional_weights(n, 3)
    assert qq("3/2") in listed and qq("-1/2") in listed
    assert listed == sorted(listed)


def test_solvability_validator_table():
    n = 3
    ok = validate_hypotheses("solvability", n, qq(0), qq(1))
    assert ok["passed"] and ok["failures"] == []
    # tau too small
    bad = validate_hypotheses("solvability", n, qq(2), QQ(1, 4))
    assert not bad["passed"]
    assert any("tau" in f for f in bad["failures"])
    # s at an exceptional weight
    exc = validate_hypotheses("solvability", n, QQ(3, 2), qq(2))
    assert not exc["passed"]
    assert any("exceptional" in f for f in exc["failures"])
    # s at the lower end of the admissible interval
    low = validate_hypotheses("solvability", n, QQ(-1, 2), qq(1))
    assert not low["passed"]


def test_operator_domain_validator():
    n = 3
    ok = validate_hypotheses("operator_domain", n, qq(0), qq(10),
                             max_degree=2)
    assert ok["passed"]
    # tau must clear s + n/2 + max_degree
    bad = validate_hypotheses("operator_domain", n, qq(0), qq(3),
                              max_degree=2)
    assert not bad["passed"]
    # with no stored degree data the bound is not checkable and is skipped
    free = validate_hypotheses("operator_domain", n, qq(0), qq(3),
                               max_degree=None)
    assert free["passed"]


def test_operator_power_validator():
    n = 3
    ok = validate_hypotheses("operator_power", n, qq(2), qq(10), j=2,
                             max_degree=0)
    assert ok["passed"]
    # j = 2 requires s > 2 - n/2 = 1/2
    low = validate_hypotheses("operator_power", n, qq(0), qq(10), j=2,
                              max_degree=0)
    assert not low["passed"]
    # tau >= j - 1 - s
    tight = validate_hypotheses("operator_power", n, qq(2), qq(1), j=4,
                                max_degree=None)
    assert not tight["passed"]
    zero = validate_hypotheses("operator_power", n, qq(2), qq(1), j=0)
    assert not zero["passed"]
    assert any("power" in f for f in zero["failures"])


def test_require_hypotheses_raises():
    with pytest.raises(HypothesisError):
        require_hypotheses("solvability", 3, QQ(3, 2), qq(2))
    require_hypotheses("solvability", 3, qq(0), qq(1))  # no raise


def test_unknown_context_rejected():
    with pytest.raises(ValueError):
        validate_hypotheses("nonsense", 3, qq(0), qq(1))


@given(s=st.fractions(min_value=-3, max_value=3, max_denominator=4),
       tau=st.fractions(min_value=-1, max_value=6, max_denominator=4))
def test_solvability_validator_matches_inequalities(s, tau):
    n = 3
    out = validate_hypotheses("solvability", n, qq(s), qq(tau))
    in_interval = s > 1 - Fraction(n, 2)
    not_exc = not is_exceptional_weight(qq(s), n)
    tau_ok = tau > max(0, s - Fraction(n, 2)) and tau >= -s
    assert out["passed"] == (in_interval and not_exc and tau_ok)
