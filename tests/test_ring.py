import fractions
import itertools
import math

import pytest
import sympy
from hypothesis import given, strategies as st

from towercalc.forms import Form, R_op, T_op
from towercalc.ring import (MAX_EXP, QQ, R_OFFSET, RadialRingElement, _layout,
                            _var_terms, monomials, qq, qq_str, reduce_poly,
                            reduced_monomials)

from oracles import (diff_by_canonicalize, fraction_add, fraction_add_var_into,
                     fraction_diff, fraction_div, fraction_form_parts,
                     fraction_laplacian, fraction_mul_r_power, fraction_parts,
                     fraction_r_op, fraction_rot, fraction_scale,
                     fraction_sphere_restriction, fraction_t_op)

R = RadialRingElement

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=7).map(qq)


@st.composite
def ring_elements(draw, n=3, max_degree=3):
    """Sums of c * r^b * x_1^e * x^alpha with odd and even b; the extra x_1
    factor makes the x_1 reduction and the x_1-derivative paths common."""
    el = R.zero(n)
    for _ in range(draw(st.integers(0, 3))):
        d = draw(st.integers(0, max_degree))
        alpha = draw(st.sampled_from(list(monomials(n, d))))
        alpha = (alpha[0] + draw(st.integers(0, 2)),) + alpha[1:]
        b = draw(st.integers(-3, 3))
        c = draw(rationals)
        el = el + R.from_poly(n, {alpha: c}).mul_r_power(b)
    return el


def test_rational_parsing():
    assert qq("3/4") == QQ(3, 4)
    assert qq("-2") == QQ(-2)
    assert qq_str(QQ(-5, 3)) == "-5/3"
    assert qq(fractions.Fraction(1, 2)) == QQ(1, 2)


def test_monomial_enumeration_counts():
    assert len(list(monomials(3, 2))) == 6
    assert len(reduced_monomials(3, 2)) == 5          # drops x1^2
    # graded order is deterministic and starts with the x1-heavy monomial
    assert list(monomials(3, 2))[0] == (2, 0, 0)


def test_reduction_kills_leading_squares():
    red = reduce_poly({(2, 0, 0): qq(1)}, 3)
    # x1^2 = r^2 - x2^2 - x3^2
    assert red == {0: {(0, 2, 0): qq(-1), (0, 0, 2): qq(-1)}, 2: {(0, 0, 0): qq(1)}}


def test_reduction_reassembles_via_sympy():
    # independent oracle: multiply each reduced layer back by (sum x^2)^(off/2)
    x = sympy.symbols("x1 x2 x3")
    rsq = sum(v**2 for v in x)
    poly = {(3, 1, 0): qq(2), (2, 2, 1): QQ(-1, 3), (0, 1, 0): qq(5),
            (4, 0, 0): qq(1)}
    red = reduce_poly(dict(poly), 3)
    rebuilt = 0
    for off, layer in red.items():
        for alpha, c in layer.items():
            assert alpha[0] < 2, "reduced layer still has x1-degree >= 2"
            term = sympy.Rational(str(c))
            for v, e in zip(x, alpha):
                term *= v**e
            rebuilt += term * rsq ** (off // 2)
    original = 0
    for alpha, c in poly.items():
        term = sympy.Rational(str(c))
        for v, e in zip(x, alpha):
            term *= v**e
        original += term
    assert sympy.expand(rebuilt - original) == 0


def test_sum_of_squares_is_r_squared():
    n = 3
    sq = R.zero(n)
    for i in range(1, n + 1):
        sq = sq + R.variable(n, i) * R.variable(n, i)
    assert sq == R.r_power(n, 2)


def test_r_power_arithmetic():
    n = 3
    assert R.r_power(n, 2) * R.r_power(n, -2) == R.one(n)
    assert R.r_power(n, -4).mul_r_power(4) == R.one(n)
    x1 = R.variable(n, 1)
    assert (x1 * R.r_power(n, -2)).mul_r_power(2) == x1


def test_homogeneity_bookkeeping():
    n = 3
    el = R.variable(n, 1).mul_r_power(-2) + R.from_rational(n, 5)
    assert sorted(el.degrees()) == [-1, 0]
    assert el.homogeneous_part(-1) == R.variable(n, 1).mul_r_power(-2)
    assert R.variable(n, 2).degrees() == [1]


def test_partial_derivatives_known_values():
    n = 3
    x1, x2 = R.variable(n, 1), R.variable(n, 2)
    assert x1.diff(1) == R.one(n)
    assert x1.diff(2) == R.zero(n)
    # d/dx_i r^b = b r^(b-2) x_i
    for b in (-3, -1, 2, 4):
        got = R.r_power(n, b).diff(2)
        want = x2.mul_r_power(b - 2).scale(qq(b))
        assert got == want, b
    # product rule spot check: d/dx1 (x1 * x2) = x2
    assert (x1 * x2).diff(1) == x2


@given(ring_elements(), ring_elements(), ring_elements())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + R.zero(3) == a
    assert a * R.one(3) == a
    assert a - a == R.zero(3)


@given(ring_elements(), ring_elements())
def test_derivation_product_rule(a, b):
    for i in (1, 2, 3):
        assert (a * b).diff(i) == a.diff(i) * b + a * b.diff(i)


@given(st.one_of(ring_elements(3), ring_elements(5)))
def test_diff_matches_canonicalizing_oracle(a):
    for i in range(1, a.n + 1):
        assert a.diff(i) == diff_by_canonicalize(a, i)


def assert_normal_form(el):
    """Integer numerators over one positive denominator, no common factor of
    the two, no zero numerator or empty part, every monomial reduced and of
    its part's degree; zero has den 1."""
    assert type(el.den) is int and el.den > 0
    nums = []
    for (d, bb), poly in el.parts.items():
        assert poly
        for alpha, cc in poly.items():
            assert type(cc) is int and cc != 0
            assert alpha[0] < 2
            assert sum(alpha) == d - bb
            nums.append(cc)
    assert math.gcd(el.den, *nums) == 1
    if el.is_zero():
        assert el.den == 1


@given(st.sampled_from([3, 5]).flatmap(
    lambda n: st.tuples(ring_elements(n), ring_elements(n))))
def test_canonical_form_has_no_leading_squares(pair):
    # the operators build their output from integer tables they trust to be
    # reduced, dividing out only the content
    a, b = pair
    n = a.n
    outputs = [a, a.laplacian()] + [a.diff(i) for i in range(1, n + 1)]
    forms = []
    for q in range(n + 1):
        idxs = list(itertools.combinations(range(1, n + 1), q))
        f = Form(n, q, {idxs[0]: a}) + Form(n, q, {idxs[-1]: b})
        forms += [f.laplacian(), R_op(f), T_op(f)]
        if q < n:
            forms.append(f.rot())
        if q > 0:
            forms.append(f.div())
    for f in forms:
        for el in f.components.values():
            assert not el.is_zero()
            outputs.append(el)
    for el in outputs:
        assert_normal_form(el)


@given(st.sampled_from([3, 5]).flatmap(
    lambda n: st.tuples(ring_elements(n), ring_elements(n))), rationals)
def test_arithmetic_results_are_in_normal_form(pair, c):
    a, b = pair
    outputs = [a + b, a - b, a - a, a * b, -a, a.scale(c), a.scale(0), a.scale(2),
               b.scale(QQ(1, 6)) + b.scale(QQ(5, 6)), a.mul_r_power(-3),
               R.from_records(a.n, a.to_records()), RadialRingElement(a.n, {})]
    outputs += [a.homogeneous_part(d) for d in a.degrees()]
    for el in outputs:
        assert_normal_form(el)
    assert (a - a).parts == {} and (a - a).den == 1
    assert b.scale(QQ(1, 6)) + b.scale(QQ(5, 6)) == b


def test_content_is_divided_out():
    half = R.from_rational(3, QQ(1, 2))
    assert (half + half).den == 1 and half + half == R.one(3)
    x1 = R.variable(3, 1)
    assert x1.scale(QQ(2, 3)).den == 3
    assert (x1.scale(QQ(2, 3)) * R.from_rational(3, QQ(3, 4))).den == 2
    # d/dx1 of x1^2 / 2 is x1, over den 1
    sq = R.from_poly(3, {(0, 2, 0): QQ(1, 2)})
    assert sq.diff(2) == R.variable(3, 2) and sq.diff(2).den == 1
    assert R.zero(3).den == 1 and R.from_rational(3, 0).den == 1


@st.composite
def element_pairs(draw):
    """Two n in {3, 5} elements, the second over a drawn extra denominator so
    that the pair usually has different denominators."""
    n = draw(st.sampled_from([3, 5]))
    a, b = draw(ring_elements(n)), draw(ring_elements(n))
    return a, b.scale(QQ(1, draw(st.integers(1, 12))))


@given(element_pairs(), rationals)
def test_integer_core_matches_fraction_oracles(pair, c):
    """diff, laplacian, scale, + and - on integer numerators give the part
    tables the Fraction-per-term operators give."""
    a, b = pair
    fa, fb = fraction_parts(a), fraction_parts(b)
    for i in range(1, a.n + 1):
        assert fraction_parts(a.diff(i)) == fraction_diff(fa, i)
    assert fraction_parts(a.laplacian()) == fraction_laplacian(fa, a.n)
    assert fraction_parts(a.scale(c)) == fraction_scale(fa, c)
    assert fraction_parts(b.scale(c)) == fraction_scale(fb, c)
    assert fraction_parts(a + b) == fraction_add(fa, fb)
    assert fraction_parts(a - b) == fraction_add(fa, fb, -1)
    assert fraction_parts(-b) == fraction_scale(fb, -1)


@given(ring_elements())
def test_serialization_round_trip(a):
    assert R.from_records(3, a.to_records()) == a


def test_only_the_written_records_decode():
    el = R.variable(3, 2) + R.from_rational(3, "1/3")
    recs = el.to_records()
    respelled = [dict(rec, terms=[dict(t, coef=t["coef"].replace("1/3", "3/9"))
                                  for t in rec["terms"]]) for rec in recs]
    assert R.from_records(3, respelled) == el
    x1_squared = [{"degree": 2, "r_exp": 0, "terms": [{"alpha": [2, 0, 0], "coef": "1"}]}]
    split = [dict(recs[0], terms=recs[0]["terms"] * 2)]
    zero = recs + [{"degree": 3, "r_exp": 0, "terms": [{"alpha": [0, 3, 0], "coef": "0"}]}]
    shuffled = recs[::-1]
    for bad in (x1_squared, split, zero, shuffled):
        with pytest.raises(ValueError, match="canonical encoding"):
            R.from_records(3, bad)


def test_invalid_part_degree_rejected():
    with pytest.raises(ValueError):
        RadialRingElement(3, {(5, 0): {(1, 0, 0): qq(1)}})


def test_sphere_restriction_sums_layers():
    n = 3
    # r^2 restricted to the sphere is 1, so x1^2's restriction equals
    # 1 - x2^2 - x3^2 written in reduced monomials
    el = R.variable(n, 1) * R.variable(n, 1)
    rest = el.sphere_restriction()
    assert rest == {(0, 0, 0): qq(1), (0, 2, 0): qq(-1), (0, 0, 2): qq(-1)}


# ---------------------------------------------------------------------------
# the packed layout against the Fraction oracles, and its bound
# ---------------------------------------------------------------------------

# exponents of x_2..x_n and r exponents small or near the packing bound; the
# margin of 2 leaves room for the x_1^2 rewrite, which adds 2 to one of them
near_bound_exponents = st.one_of(st.integers(0, 3), st.integers(MAX_EXP - 6, MAX_EXP - 2))
near_bound_r_exponents = st.one_of(st.integers(-4, 4), st.integers(-MAX_EXP, -MAX_EXP + 4),
                                   st.integers(MAX_EXP - 6, MAX_EXP - 2))


@st.composite
def packed_elements(draw, n):
    """Sums of c r^b x^alpha with x_1-exponent 0..2 (2 takes the reduction),
    b of both signs, exponents and b small or near the bound, and c over
    1, 2, 3, 5 or 7."""
    raw: dict = {}
    for _ in range(draw(st.integers(1, 4))):
        alpha = (draw(st.integers(0, 2)),) + tuple(
            draw(near_bound_exponents) for _ in range(n - 1))
        b = draw(near_bound_r_exponents)
        c = QQ(draw(st.integers(-9, 9).filter(bool)), draw(st.sampled_from([1, 2, 3, 5, 7])))
        raw.setdefault((b + sum(alpha), b), {})[alpha] = c
    return R(n, raw)


@given(st.sampled_from([3, 5, 7]).flatmap(
    lambda n: st.tuples(packed_elements(n), packed_elements(n))),
    rationals, st.integers(-4, 4))
def test_packed_operators_match_fraction_oracles(pair, c, s):
    a, b = pair
    n = a.n
    fa, fb = fraction_parts(a), fraction_parts(b)
    for i in range(1, n + 1):
        assert fraction_parts(a.diff(i)) == fraction_diff(fa, i)
        layout = _layout(n)
        for neg in (False, True):
            table = _var_terms(a.terms, layout, {0: (layout.var_target(i - 1, 0, neg),)})
            want: dict = {}
            fraction_add_var_into(fa, want, i, -1 if neg else 1)
            assert fraction_parts(R._from_table(n, table, a.den)) == want
        # the two signs together cancel every term
        both = (layout.var_target(i - 1), layout.var_target(i - 1, 0, True))
        assert _var_terms(a.terms, layout, {0: both}) == {}
    assert fraction_parts(a.laplacian()) == fraction_laplacian(fa, n)
    assert fraction_parts(a.scale(c)) == fraction_scale(fa, c)
    assert fraction_parts(a + b) == fraction_add(fa, fb)
    assert fraction_parts(a - b) == fraction_add(fa, fb, -1)
    assert fraction_parts(-b) == fraction_scale(fb, -1)
    assert fraction_parts(a.mul_r_power(s)) == fraction_mul_r_power(fa, s)
    assert a.sphere_restriction() == fraction_sphere_restriction(fa)
    assert R.from_records(n, a.to_records()) == a
    for el in (a, a.diff(1), a.laplacian(), a + b, a.mul_r_power(s)):
        assert_normal_form(el)


@st.composite
def packed_forms(draw):
    n = draw(st.sampled_from([3, 5, 7]))
    q = draw(st.integers(0, n))
    idxs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(1, n + 1), q))),
                         min_size=1, max_size=3, unique=True))
    return Form(n, q, {idx: draw(packed_elements(n)) for idx in idxs})


@given(packed_forms())
def test_packed_form_operators_match_fraction_oracles(f):
    if f.q < f.n:
        assert fraction_form_parts(f.rot()) == fraction_rot(f)
    if f.q > 0:
        assert fraction_form_parts(f.div()) == fraction_div(f)
    assert fraction_form_parts(R_op(f)) == fraction_r_op(f)
    assert fraction_form_parts(T_op(f)) == fraction_t_op(f)


def test_key_order_is_the_order_of_degree_r_exponent_and_monomial():
    layout = _layout(3)
    terms = [(d, b, alpha) for b in (-MAX_EXP, -3, 0, 2, MAX_EXP)
             for e in (0, 1, 3) for alpha in monomials(3, e) for d in (b + e,)]
    keys = [layout.pack(*t) for t in terms]
    assert [layout.unpack(k) for k in keys] == terms
    assert sorted(keys) == [layout.pack(*t) for t in sorted(terms)]


def test_sum_of_two_admitted_monomials_does_not_carry():
    """The sphere pairing and __mul__ add two keys: every digit of the sum
    is the sum of the digits."""
    for n in (3, 5, 7):
        layout = _layout(n)
        top = (MAX_EXP,) * n
        a = layout.pack(n * MAX_EXP + MAX_EXP, MAX_EXP, top) & layout.alpha_mask
        assert layout.alpha(a + a) == (2 * MAX_EXP,) * n
        k = layout.pack(-MAX_EXP, -MAX_EXP, (0,) * n)
        assert layout.unpack(k + k - layout.one) == (
            -2 * MAX_EXP, -2 * MAX_EXP, (0,) * n)


def _one_term_records(alpha, b):
    return [{"degree": b + sum(alpha), "r_exp": b,
             "terms": [{"alpha": list(alpha), "coef": "1"}]}]


@pytest.mark.parametrize("alpha, b", [
    ((0, MAX_EXP, 0), 0), ((1, 0, MAX_EXP), -3), ((0, 0, 0), MAX_EXP),
    ((0, 0, 0), -MAX_EXP), ((1, MAX_EXP, MAX_EXP), -MAX_EXP)])
def test_monomials_at_the_packing_bound_are_admitted(alpha, b):
    el = R.from_records(3, _one_term_records(alpha, b))
    assert el.parts == {(b + sum(alpha), b): {alpha: 1}}
    assert R(3, {(b + sum(alpha), b): {alpha: qq(1)}}) == el
    assert el.to_records() == _one_term_records(alpha, b)
    if b == 0:
        assert R.from_poly(3, {alpha: 1}) == el
    if alpha == (0, 0, 0):
        assert R.r_power(3, b) == el


@pytest.mark.parametrize("alpha, b", [
    ((0, -1, 2), 0), ((-1, 1, 1), 0), ((0, MAX_EXP + 1, 0), 0),
    ((1, 0, MAX_EXP + 1), -3), ((0, 0, 0), MAX_EXP + 1), ((0, 0, 0), -MAX_EXP - 1)],
    ids=["negative", "negative-x1", "past-bound", "past-bound-x3", "r-past-bound",
         "negative-r-past-bound"])
def test_monomials_outside_the_packing_bound_are_refused(alpha, b):
    with pytest.raises(ValueError):
        R.from_records(3, _one_term_records(alpha, b))
    with pytest.raises(ValueError):
        R(3, {(b + sum(alpha), b): {alpha: qq(1)}})
    if b == 0:
        with pytest.raises(ValueError):
            R.from_poly(3, {alpha: 1})
    if alpha == (0, 0, 0):
        with pytest.raises(ValueError):
            R.r_power(3, b)


def test_normal_forms_and_products_past_the_bound_are_refused():
    # x_1^2 x_2^MAX_EXP = r^2 x_2^MAX_EXP - x_2^(MAX_EXP+2) - x_2^MAX_EXP x_3^2
    with pytest.raises(ValueError, match="packing bound"):
        R.from_poly(3, {(2, MAX_EXP, 0): 1})
    at_bound = R.from_poly(3, {(0, MAX_EXP, 0): 1})
    x1, x2 = R.variable(3, 1), R.variable(3, 2)
    assert (R.from_poly(3, {(0, MAX_EXP - 1, 0): 1}) * x2) == at_bound
    for a, b in ((at_bound, x2), (R.from_poly(3, {(1, MAX_EXP, 0): 1}), x1),
                 (R.r_power(3, MAX_EXP), R.r_power(3, 1)),
                 (R.r_power(3, -MAX_EXP), R.r_power(3, -1))):
        with pytest.raises(ValueError, match="packing bound"):
            a * b


def test_mul_r_power_refuses_to_leave_the_r_field():
    top, bottom = R.r_power(3, MAX_EXP), R.r_power(3, -MAX_EXP)
    # an exact shift past MAX_EXP is kept: only the field's range is checked
    assert top.mul_r_power(1000).parts == {(MAX_EXP + 1000, MAX_EXP + 1000): {(0, 0, 0): 1}}
    for el, s in ((top, R_OFFSET - 1), (bottom, 1 - R_OFFSET), (top, R_OFFSET),
                  (bottom, -R_OFFSET)):
        with pytest.raises(ValueError, match="packing bound"):
            el.mul_r_power(s)
