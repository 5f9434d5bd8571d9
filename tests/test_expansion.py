import math
import random

import pytest
from hypothesis import given, strategies as st

from towercalc.errors import ConsistencyError
from towercalc.expansion import (ExpansionResult, MaxwellPair, _expand_side,
                                 expand, expansion_commutes_with_maxwell,
                                 iterated_maxwell_check, lemma34_classify,
                                 maxwell_map, membership_filter,
                                 tower_candidates)
from towercalc.forms import Form, SpherePairing, sphere_gram, sphere_inner_product
from towercalc.indices import in_weighted_l2
from towercalc.ring import QQ, RadialRingElement, qq
from towercalc.towers import (TowerContext, TowerIndex, checked_gram,
                              exceptional_form)

from oracles import (expand_side_by_solves, expand_side_full_gram,
                     fraction_sphere_inner_product)


def make_pair(ctx, q, parts):
    """Assemble a static pair from (side, index, coeff) triples."""
    n = ctx.n
    e = Form.zero(n, q)
    h = Form.zero(n, q + 1)
    for side, idx, c in parts:
        if side == "e":
            e = e + ctx.d_form(q, idx).scale(qq(c))
        else:
            h = h + ctx.r_form(q + 1, idx).scale(qq(c))
    return MaxwellPair(e, h)


def coeff_map(side):
    return {i: c for i, c in side.coeffs.items()}


def test_pair_validation():
    with pytest.raises(ValueError):
        MaxwellPair(Form.zero(3, 1), Form.zero(3, 3))   # ranks must be (q, q+1)
    with pytest.raises(ValueError):
        MaxwellPair(Form.zero(3, 1), Form.zero(5, 2))   # same dimension
    pair = MaxwellPair(Form.zero(3, 1), Form.zero(3, 2))
    assert MaxwellPair.from_obj(pair.to_obj()).e == pair.e


def test_maxwell_map_and_nilpotence(ctx3):
    idx = TowerIndex(1, 2, 1, 1)
    pair = make_pair(ctx3, 1, [("e", idx, "1")])
    checked = iterated_maxwell_check(pair, 3)
    assert checked["passed"]
    assert checked["first_zero_power"] == 3   # floor-2 member dies after 3 steps
    m1 = maxwell_map(pair)
    assert m1.e.q == 1 and m1.h.q == 2
    # floor-2 member maps down to floor 1, then floor 0, then to zero
    assert not m1.h.is_zero()
    m2 = maxwell_map(m1)
    assert not m2.e.is_zero() or not m2.h.is_zero()
    m3 = maxwell_map(m2)
    assert m3.e.is_zero() and m3.h.is_zero()


def test_candidates_are_deterministic_and_complete(ctx3):
    a = tower_candidates(ctx3, 1, "D", 2, 3)
    b = tower_candidates(ctx3, 1, "D", 2, 3)
    assert [i for i, _ in a] == [i for i, _ in b]
    degs = {f.homogeneous_degree() for _, f in a}
    assert degs == {2}
    # growing floor-0 sigma=2 members and floor-1 sigma=1 members both occur
    ks = {(i.sign, i.k, i.sigma) for i, _ in a}
    assert (1, 0, 2) in ks and (1, 1, 1) in ks and (1, 2, 0) in ks
    assert (-1, 2, 3) not in ks   # decaying degree 2 needs k = sigma + n + 2 > 3


def test_round_trip_single_member(ctx3):
    idx = TowerIndex(1, 1, 1, 2)
    pair = make_pair(ctx3, 1, [("e", idx, "3/7")])
    out = expand(pair, 2, ctx3)
    assert out.exact
    assert coeff_map(out.e_side) == {idx: QQ(3, 7)}
    assert coeff_map(out.h_side) == {}
    back = out.reconstruct(ctx3)
    assert back.e == pair.e and back.h == pair.h


def test_round_trip_mixture_both_sides(ctx3):
    parts = [("e", TowerIndex(1, 0, 1, 1), "2"),
             ("e", TowerIndex(-1, 1, 0, 1), "-1/3"),
             ("h", TowerIndex(1, 1, 0, 1), "5/2"),
             ("h", TowerIndex(-1, 2, 1, 4), "7")]
    pair = make_pair(ctx3, 1, parts)
    out = expand(pair, 3, ctx3)
    assert out.exact
    want_e = {i: qq(c) for s, i, c in parts if s == "e"}
    want_h = {i: qq(c) for s, i, c in parts if s == "h"}
    assert coeff_map(out.e_side) == want_e
    assert coeff_map(out.h_side) == want_h


def test_random_rational_mixtures_recover_exactly(ctx3):
    rng = random.Random(7)
    for trial in range(10):
        q = rng.choice([0, 1, 2])
        parts = []
        for _ in range(rng.randint(1, 4)):
            side = rng.choice(["e", "h"])
            sign = rng.choice([1, -1])
            k = rng.randint(0, 2)
            sigma = rng.randint(0, 2)
            rank = q if side == "e" else q + 1
            line = "D" if side == "e" else "R"
            from towercalc.indices import multiplicity
            count = multiplicity(3, rank, line, sigma, k)
            if count == 0:
                continue
            idx = TowerIndex(sign, k, sigma, rng.randint(1, count))
            if side == "e" and ctx3.d_form(q, idx) is None:
                continue
            if side == "h" and ctx3.r_form(q + 1, idx) is None:
                continue
            c = QQ(rng.randint(-9, 9), rng.randint(1, 9))
            if c == 0:
                continue
            parts.append((side, idx, c))
        if not parts:
            continue
        pair = make_pair(ctx3, q, parts)
        out = expand(pair, 3, ctx3)
        assert out.exact, (trial, q, parts)
        back = out.reconstruct(ctx3)
        assert back.e == pair.e and back.h == pair.h, (trial, q, parts)


def test_zero_coefficients_are_pruned(ctx3):
    idx = TowerIndex(1, 0, 0, 1)
    pair = make_pair(ctx3, 1, [("e", idx, "1")])
    out = expand(pair, 2, ctx3)
    assert all(c != 0 for c in out.e_side.coeffs.values())
    assert out.h_side.coeffs == {}


def test_hat_slot_reports_none_when_absent(ctx3):
    # q=2 family at even height: the E-side hat slot does not exist, the
    # H-side one does.  Absent slots report None, never a zero coefficient.
    pair = make_pair(ctx3, 2, [("e", TowerIndex(1, 0, 0, 1), "1")])
    out = expand(pair, 2, ctx3)
    assert out.e_side.hat_descriptor is None
    assert out.e_side.hat_coeff is None
    assert not out.h_side.hat_descriptor.is_zero
    assert out.h_side.hat_coeff == 0


def test_hat_slot_participates_when_needed(ctx3):
    # the height-2 scalar-family hat occurs on the E side at rank 0
    desc_pair = expand(make_pair(ctx3, 0, [("h", TowerIndex(-1, 1, 0, 1), "4")]),
                       2, ctx3)
    assert desc_pair.exact


def test_non_static_pair_rejected(ctx3):
    n = 3
    from towercalc.ring import RadialRingElement
    x1 = RadialRingElement.variable(n, 1)
    e = Form.dx(n, (1,), x1)                   # div = 1, not divergence-free
    h = Form.zero(n, 2)
    with pytest.raises(ValueError):
        expand(MaxwellPair(e, h), 2, ctx3)


def test_height_hypothesis_enforced(ctx3):
    # a floor-3 member needs 4 applications of the mixed map to die, so it
    # is not a height-3 pair; at height 4 it expands exactly
    pair = make_pair(ctx3, 1, [("e", TowerIndex(1, 3, 0, 1), "1")])
    with pytest.raises(ValueError):
        expand(pair, 3, ctx3)
    out = expand(pair, 4, ctx3)
    assert out.exact
    assert coeff_map(out.e_side) == {TowerIndex(1, 3, 0, 1): qq(1)}


def test_expansion_serialization(ctx3):
    pair = make_pair(ctx3, 1, [("e", TowerIndex(1, 1, 1, 2), "3/7")])
    out = expand(pair, 2, ctx3)
    obj = out.to_obj()
    assert obj["kind"] == "expansion"
    assert obj["exact"] is True
    assert obj["e"]["residual_zero"] is True
    rows = obj["e"]["coeffs"]
    assert rows == [{"sign": "+", "k": 1, "sigma": 1, "m": 2, "coeff": "3/7"}]
    assert obj["h"]["coeffs"] == []
    assert obj["e"]["hat"]["kind"] == "D_hat"


def test_commutation_with_maxwell(ctx3):
    parts = [("e", TowerIndex(1, 2, 0, 1), "2"),
             ("h", TowerIndex(1, 2, 1, 3), "-1/2")]
    pair = make_pair(ctx3, 1, parts)
    report = expansion_commutes_with_maxwell(pair, 3, ctx3)
    assert report["passed"], report["failures"]


def test_membership_filter_flags_each_side(ctx3):
    parts = [("e", TowerIndex(1, 0, 1, 1), "2"),        # degree 1, never in L2
             ("h", TowerIndex(-1, 0, 2, 1), "1")]       # degree -5
    pair = make_pair(ctx3, 1, parts)
    out = expand(pair, 2, ctx3)
    verdict = membership_filter(out, qq(0))
    assert not verdict["passed"]
    assert TowerIndex(1, 0, 1, 1) in verdict["e_offending"]
    assert verdict["h_offending"] == []
    # at a harsher weight the decaying member is excluded as well
    # (degree -5 stays integrable only while s < 7/2)
    harsh = membership_filter(out, qq(4))
    assert TowerIndex(-1, 0, 2, 1) in harsh["h_offending"]


def test_membership_filter_matches_pointwise_check(ctx3):
    parts = [("e", TowerIndex(-1, 1, 0, 2), "1"),
             ("h", TowerIndex(-1, 0, 1, 1), "-2")]
    pair = make_pair(ctx3, 1, parts)
    out = expand(pair, 2, ctx3)
    for s in ["-5/4", "0", "7/4", "3"]:
        verdict = membership_filter(out, qq(s))
        for idx, c in out.e_side.coeffs.items():
            flagged = idx in verdict["e_offending"]
            assert flagged == (c != 0 and not in_weighted_l2(idx, qq(s), 3))
        for idx, c in out.h_side.coeffs.items():
            flagged = idx in verdict["h_offending"]
            assert flagged == (c != 0 and not in_weighted_l2(idx, qq(s), 3))


def test_classify_both_branch(ctx3):
    # decaying floor-2 div-free AND rot-free member: classification "both"
    e = ctx3.d_form(1, TowerIndex(-1, 0, 0, 1))
    assert e is not None
    out = lemma34_classify(e, qq(0), ctx3)
    assert out["class"] == "both"
    assert out["rot_integrable"] and out["div_integrable"]
    assert all(i.k > 0 for i in out["indices"])


def test_classify_div_only_branch(ctx3):
    e = ctx3.d_form(1, TowerIndex(-1, 2, 0, 1))      # div-free, rot = R_1 != 0
    out = lemma34_classify(e, qq(-1), ctx3)
    assert out["class"] in {"div_only", "both"}
    if out["class"] == "div_only":
        assert out["div_integrable"] and not out["rot_integrable"]


def test_classify_rot_only_branch(ctx3):
    h = ctx3.r_form(2, TowerIndex(-1, 2, 1, 1))      # rot-free, div = D_1 != 0
    out = lemma34_classify(h, qq(-1), ctx3)
    assert out["class"] in {"rot_only", "both"}


def test_classify_unclassified_branch(ctx3):
    # a rank-1 mixture whose rot and div are both nonzero and growing gains
    # nothing from one extra weight
    f = ctx3.d_form(1, TowerIndex(1, 2, 0, 1)) + \
        ctx3.r_form(1, TowerIndex(1, 2, 0, 1))
    assert not f.rot().is_zero() and not f.div().is_zero()
    out = lemma34_classify(f, qq(4), ctx3)
    assert out["class"] == "unclassified"
    assert not out["rot_integrable"] and not out["div_integrable"]


# ---------------------------------------------------------------------------
# block-diagonal Gram: structure, cache lifetime, and the full-Gram oracle
# ---------------------------------------------------------------------------

# (n, k_max, sigma_max): every degree whose candidates all have sigma <= sigma_max
_BLOCK_GRID = [(3, 3, 3), (5, 2, 1)]


def _lines(n):
    return [("D", rank) for rank in range(n)] + [("R", rank) for rank in range(1, n + 1)]


def _block_key(idx):
    return idx.sign, idx.k, idx.sigma


def _degrees(n, k_max, sigma_max):
    """Growing degrees d <= sigma_max have sigma = d - k <= sigma_max, and
    decaying ones d >= k_max - n - sigma_max have sigma = k - n - d <= sigma_max."""
    return range(k_max - n - sigma_max, sigma_max + 1)


@pytest.mark.parametrize("n,k_max,sigma_max", _BLOCK_GRID)
def test_cross_block_gram_entries_vanish(ctx3, ctx5, n, k_max, sigma_max):
    """Members of different (sign, k, sigma) blocks, and the exceptional slots
    against the members of their degree, are orthogonal on the sphere."""
    ctx = ctx3 if n == 3 else ctx5
    for line, rank in _lines(n):
        for degree in _degrees(n, k_max, sigma_max):
            cands = tower_candidates(ctx, rank, line, degree, k_max)
            assert all(idx.sigma <= sigma_max for idx, _ in cands)
            for i, (a_idx, a) in enumerate(cands):
                for b_idx, b in cands[i + 1:]:
                    if _block_key(a_idx) != _block_key(b_idx):
                        assert sphere_inner_product(a, b) == 0, (rank, line, a_idx, b_idx)
        kind = "D_hat" if line == "D" else "R_hat"
        for K in range(1, 5):
            hat = exceptional_form(kind, n, rank, K)
            if hat.is_zero:
                continue
            hat_form = hat.resolve(ctx)
            cands = tower_candidates(ctx, rank, line, hat_form.homogeneous_degree(),
                                     min(K - 1, k_max))
            for idx, f in cands:
                assert sphere_inner_product(hat_form, f) == 0, (kind, rank, K, idx)


def test_block_grams_are_cached_per_context_and_survive_rebuilds(ctx3):
    ctx = TowerContext(3)
    parts = [("e", TowerIndex(1, 1, 1, 2), "3/7"), ("e", TowerIndex(-1, 2, 0, 1), "2"),
             ("h", TowerIndex(1, 2, 0, 1), "-5")]
    pair = make_pair(ctx, 1, parts)
    first = expand(pair, 3, ctx)
    key = (1, "D", 1, 1, 1)
    gram = ctx.block_gram(*key)
    assert ctx.block_gram(*key) is gram
    old_floors = ctx.family(1, 1, 1, 1).floors
    rebuilt = ctx.family(1, 1, 1, old_floors + 2)
    assert rebuilt.floors == old_floors + 2
    assert ctx.block_gram(*key) is gram
    assert sphere_gram([f for _, f in ctx.block(*key)]) == gram
    again = expand(pair, 3, ctx)
    assert again.to_obj() == first.to_obj()
    for a, b in ((first.e_side, again.e_side), (first.h_side, again.h_side)):
        assert (a.coeffs, a.hat_coeff, a.residual, a.exact) == \
            (b.coeffs, b.hat_coeff, b.residual, b.exact)
    other = TowerContext(3)
    assert other.block_gram(*key) == gram
    assert other.block_gram(*key) is not gram
    assert ctx3.block_gram(*key) is not gram


def _outside_form(n, rank, degree, draw):
    """c * x^alpha * r^(degree - |alpha|) dx^I for a drawn I, alpha and c."""
    idx = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=rank, max_size=rank))))
    alpha = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    c = draw(st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool))
    el = RadialRingElement.from_poly(n, {alpha: c}) * \
        RadialRingElement.r_power(n, degree - sum(alpha))
    return Form.dx(n, idx, el)


@given(data=st.data())
def test_block_solve_matches_full_gram_oracle(ctx3, ctx5, data):
    """Block-by-block solves give the full-Gram answer: exact coefficients for
    member mixtures, and the same projection when a form outside the tower
    span is mixed in."""
    draw = data.draw
    n, k_max_bound, sigma_max = draw(st.sampled_from(_BLOCK_GRID))
    ctx = ctx3 if n == 3 else ctx5
    line, rank = draw(st.sampled_from(_lines(n)))
    k_max = draw(st.integers(0, k_max_bound))
    kind = "D_hat" if line == "D" else "R_hat"
    hat = exceptional_form(kind, n, rank, k_max + 1)
    degrees = draw(st.lists(st.sampled_from(_degrees(n, k_max, sigma_max)),
                            min_size=1, max_size=3, unique=True))
    coef = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    form = Form.zero(n, rank)
    for degree in degrees:
        for _, f in tower_candidates(ctx, rank, line, degree, k_max):
            if draw(st.booleans()):
                form = form + f.scale(draw(coef))
    if not hat.is_zero and draw(st.booleans()):
        form = form + hat.resolve(ctx).scale(draw(coef))
    if draw(st.booleans()):
        form = form + _outside_form(n, rank, draw(st.sampled_from(degrees)), draw)
    got = _expand_side(form, rank, line, k_max, ctx, hat)
    want = expand_side_full_gram(form, rank, line, k_max, ctx, hat)
    assert got.coeffs == want.coeffs
    assert got.hat_descriptor == want.hat_descriptor
    assert got.hat_coeff == want.hat_coeff
    assert got.residual == want.residual
    assert got.exact == want.exact


class _Slot:
    """An exceptional-slot stand-in that resolves to a given form."""

    is_zero = False

    def __init__(self, form):
        self.form = form

    def resolve(self, ctx):
        return self.form


def test_orthogonality_and_rank_failures_are_consistency_errors(ctx3):
    _, member = tower_candidates(ctx3, 1, "D", 1, 1)[0]
    with pytest.raises(ConsistencyError, match="not orthogonal"):
        _expand_side(member, 1, "D", 1, ctx3, _Slot(member.scale(qq(2))))
    with pytest.raises(ConsistencyError, match="dependent expansion candidates"):
        checked_gram([member, member.scale(qq(2))], 1, "D", 1)


# ---------------------------------------------------------------------------
# cached block inverses and the exceptional slot checked once per context
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 5])
def test_cached_block_inverses_invert_the_block_grams(ctx3, ctx5, n):
    """Every block at k <= 3, sigma <= 2: the cached inverse is an integer
    matrix M over one denominator d > 0 with M G = d I exactly."""
    ctx = ctx3 if n == 3 else ctx5
    blocks = 0
    for line, rank in _lines(n):
        for sign in (1, -1):
            for k in range(4):
                for sigma in range(3):
                    key = (rank, line, sign, k, sigma)
                    if not ctx.block(*key):
                        continue
                    matrix, d = inverse = ctx.block_inverse(*key)
                    assert ctx.block_inverse(*key) is inverse
                    gram = ctx.block_gram(*key)
                    assert type(d) is int and d > 0
                    assert all(type(m) is int for row in matrix for m in row)
                    # M G = d I, on the integer matrix G * (lcm of its denominators)
                    size, den = len(gram), math.lcm(*(g.denominator for row in gram for g in row))
                    columns = [[(j, int(row[l] * den)) for j, row in enumerate(gram) if row[l]]
                               for l in range(size)]
                    assert [[sum(matrix[i][j] * g for j, g in columns[l])
                             for l in range(size)] for i in range(size)] == \
                        [[d * den if i == l else 0 for l in range(size)] for i in range(size)]
                    blocks += 1
    assert blocks > 100


@given(data=st.data())
def test_cached_inverses_match_the_per_call_solves(ctx3, ctx5, data):
    """The cached-inverse route gives what a solve of every block Gram and a
    fresh orthogonality check of the exceptional slot give on each call, on
    member mixtures with and without the slot and a form outside the span."""
    draw = data.draw
    n, k_max_bound, sigma_max = draw(st.sampled_from(_BLOCK_GRID))
    ctx = ctx3 if n == 3 else ctx5
    line, rank = draw(st.sampled_from(_lines(n)))
    k_max = draw(st.integers(0, k_max_bound))
    hat = exceptional_form("D_hat" if line == "D" else "R_hat", n, rank, k_max + 1)
    degrees = draw(st.lists(st.sampled_from(_degrees(n, k_max, sigma_max)),
                            min_size=1, max_size=3, unique=True))
    coef = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    form = Form.zero(n, rank)
    for degree in degrees:
        for _, f in tower_candidates(ctx, rank, line, degree, k_max):
            if draw(st.booleans()):
                form = form + f.scale(draw(coef))
    if not hat.is_zero and draw(st.booleans()):
        form = form + hat.resolve(ctx).scale(draw(coef))
    if draw(st.booleans()):
        form = form + _outside_form(n, rank, draw(st.sampled_from(degrees)), draw)
    for _ in range(2):                        # the second call reads the caches
        got = _expand_side(form, rank, line, k_max, ctx, hat)
        want = expand_side_by_solves(form, rank, line, k_max, ctx, hat)
        assert (got.coeffs, got.hat_descriptor, got.hat_coeff, got.residual, got.exact) == \
            (want.coeffs, want.hat_descriptor, want.hat_coeff, want.residual, want.exact)


def test_exceptional_slot_is_checked_once_per_context(monkeypatch):
    """The slot's orthogonality products and its 1x1 Gram are made on the
    first expansion only; a fresh context makes them again."""
    from towercalc import towers
    calls = []
    real = towers.sphere_inner_product
    monkeypatch.setattr(towers, "sphere_inner_product",
                        lambda a, b: calls.append(1) or real(a, b))
    pair = make_pair(TowerContext(3), 1, [("e", TowerIndex(1, 1, 1, 2), "3/7"),
                                         ("h", TowerIndex(1, 2, 0, 1), "-5")])
    ctx = TowerContext(3)
    first = expand(pair, 3, ctx)
    made = len(calls)
    assert made > 0 and first.e_side.hat_descriptor is not None
    hat = first.e_side.hat_descriptor
    gram = ctx.hat_gram(hat, 1, "D", 2)
    assert expand(pair, 3, ctx).to_obj() == first.to_obj()
    assert len(calls) == made
    assert ctx.hat_gram(hat, 1, "D", 2) is gram
    expand(pair, 3, TowerContext(3))
    assert len(calls) > made


# ---------------------------------------------------------------------------
# the pairing index of each degree's candidates
# ---------------------------------------------------------------------------

@given(data=st.data())
def test_pairing_index_products_match_the_fraction_pairing(ctx3, ctx5, data):
    """The pairing index gives each candidate's product with a piece as the
    Fraction pairing does: on member mixtures, whose cross-block products
    cancel to exactly 0, on the exceptional slot, orthogonal to every
    candidate, on forms outside the span, and on pieces with a component
    field that none of the indexed forms has.  It keeps no zero average."""
    draw = data.draw
    n, k_max_bound, sigma_max = draw(st.sampled_from(_BLOCK_GRID))
    ctx = ctx3 if n == 3 else ctx5
    line, rank = draw(st.sampled_from(_lines(n)))
    k_max = draw(st.integers(0, k_max_bound))
    hat = exceptional_form("D_hat" if line == "D" else "R_hat", n, rank, k_max + 1)
    coef = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    if not hat.is_zero and draw(st.booleans()):
        piece = hat.resolve(ctx).scale(draw(coef.filter(bool)))
        degree = piece.homogeneous_degree()
    else:
        piece = Form.zero(n, rank)
        degree = draw(st.sampled_from(_degrees(n, k_max, sigma_max)))
    cands, _, index = ctx.pairing(rank, line, degree, k_max)
    forms = [f for _, f in cands]
    for f in forms:
        if draw(st.booleans()):
            piece = piece + f.scale(draw(coef))
    if draw(st.booleans()):
        piece = piece + _outside_form(n, rank, degree, draw)
    if draw(st.booleans()):
        # index the candidates without one component, which the piece has
        drop = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=rank, max_size=rank))))
        forms = [Form(n, rank, {idx: el for idx, el in f.components.items() if idx != drop})
                 for f in forms]
        index = SpherePairing(forms)
        piece = piece + Form.dx(n, drop, RadialRingElement.r_power(n, degree))
    if draw(st.booleans()):
        # the same form with its table in reverse key order: the walk then
        # meets the smaller average denominators first
        piece = Form._make(n, rank, dict(reversed(piece.terms.items())), piece.den)
    memos: dict = {}
    for _ in range(2):                        # the second walk reads the filled entries
        nums, ds = index.numerators(piece)
        assert [QQ(num, d * piece.den) for num, d in zip(nums, ds)] == \
            [fraction_sphere_inner_product(piece, f, memos) for f in forms]
    assert all(num for table in index.averages.values() for entries in table.values()
               for _, num, _ in entries)


def test_pairing_index_is_filled_once_per_context(monkeypatch):
    """The first expansion fills the pairing index; a second one on the same
    context adds no entries and computes no average, and a fresh context
    computes them again."""
    from towercalc import forms
    calls = []
    real = forms._average_against
    monkeypatch.setattr(forms, "_average_against",
                        lambda *args: calls.append(1) or real(*args))

    def entries(ctx):
        return sum(len(table) for _, _, index in ctx._pairings.values()
                   for table in index.averages.values())

    pair = make_pair(TowerContext(3), 1, [("e", TowerIndex(1, 1, 1, 2), "3/7"),
                                         ("e", TowerIndex(-1, 2, 0, 1), "2"),
                                         ("h", TowerIndex(1, 2, 0, 1), "-5")])
    ctx = TowerContext(3)
    first = expand(pair, 3, ctx)
    made, filled = len(calls), entries(ctx)
    assert made > 0 and filled > 0
    assert expand(pair, 3, ctx).to_obj() == first.to_obj()
    assert (len(calls), entries(ctx)) == (made, filled)
    expand(pair, 3, TowerContext(3))
    assert len(calls) > made
