import functools
import itertools
import math
from math import prod

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from towercalc.forms import (Form, GradeError, R_op, T_op, coordinate_vectors,
                             monomial_average, sphere_inner_product)
from towercalc.ring import MAX_EXP, QQ, R_OFFSET, RadialRingElement, _layout, monomials, qq

from oracles import (component_add, component_div, component_hodge_star,
                     component_mul_r_power, component_r_op, component_rot,
                     component_scale, component_sphere_inner_product,
                     component_t_op, fraction_add, fraction_div, fraction_form_parts,
                     fraction_laplacian, fraction_mul_r_power, fraction_r_op,
                     fraction_rot, fraction_scale, fraction_t_op, hodge_div,
                     laplacian_by_diff, laplacian_factored, poly_sphere_average,
                     r_op_by_wedge, radial_one_form, sphere_inner_product_direct,
                     t_op_by_product, wedge)
from test_ring import ring_elements

R = RadialRingElement

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=5).map(qq)


@st.composite
def homogeneous_forms(draw, n=3, q=None, degree=None):
    """Random homogeneous q-form with coefficients c * r^b * x^alpha."""
    if q is None:
        q = draw(st.integers(0, n))
    if degree is None:
        degree = draw(st.integers(-3, 3))
    form = Form.zero(n, q)
    idx_choices = list(itertools.combinations(range(1, n + 1), q))
    for _ in range(draw(st.integers(1, 3))):
        e = draw(st.integers(0, 2))
        alpha = draw(st.sampled_from(list(monomials(n, e))))
        b = degree - e
        if (degree - e) % 2 != 0:
            alpha_list = list(alpha)
            alpha_list[draw(st.integers(0, n - 1))] += 1
            alpha = tuple(alpha_list)
            e += 1
            b = degree - e
        coef = R.from_poly(n, {alpha: draw(rationals)}).mul_r_power(b)
        form = form + Form.dx(n, draw(st.sampled_from(idx_choices)), coef)
    return form


@st.composite
def ring_forms(draw, n=3, q=None):
    """Rank-q forms whose components are arbitrary ring elements: mixed
    degrees, odd and even r-exponents, x_1-heavy monomials."""
    if q is None:
        q = draw(st.integers(0, n))
    idx_choices = list(itertools.combinations(range(1, n + 1), q))
    form = Form.zero(n, q)
    for _ in range(draw(st.integers(1, 3))):
        form = form + Form(n, q, {draw(st.sampled_from(idx_choices)):
                                  draw(ring_elements(n, max_degree=2))})
    return form


operator_inputs = st.one_of(homogeneous_forms(), homogeneous_forms(n=5),
                            ring_forms(), ring_forms(n=5))


@st.composite
def mixed_denominator_forms(draw, n):
    """Forms whose components sit over different denominators: component t
    is a ring element times a drawn integer over the t-th of 2, 3, 5, 7."""
    q = draw(st.integers(0, n))
    idxs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(1, n + 1), q))),
                         min_size=1, max_size=4, unique=True))
    comps = {idx: draw(ring_elements(n, max_degree=2)).scale(QQ(draw(st.integers(1, 9)), p))
             for idx, p in zip(idxs, (2, 3, 5, 7))}
    return Form(n, q, comps)


@given(st.sampled_from([3, 5]).flatmap(mixed_denominator_forms), rationals)
def test_form_operators_match_fraction_oracles(f, c):
    """rot, div, R_op, T_op, laplacian and scale over the lcm of the
    component denominators give the Fraction-per-term tables."""
    if f.q < f.n:
        assert fraction_form_parts(f.rot()) == fraction_rot(f)
    if f.q > 0:
        assert fraction_form_parts(f.div()) == fraction_div(f)
    assert fraction_form_parts(R_op(f)) == fraction_r_op(f)
    assert fraction_form_parts(T_op(f)) == fraction_t_op(f)
    parts = fraction_form_parts(f)
    assert fraction_form_parts(f.laplacian()) == {
        idx: t for idx, p in parts.items() if (t := fraction_laplacian(p, f.n))}
    assert fraction_form_parts(f.scale(c)) == {
        idx: t for idx, p in parts.items() if (t := fraction_scale(p, c))}


@st.composite
def flat_form_pairs(draw):
    """Two forms of one shape at n in {3, 5, 7} and any rank, with up to
    four components over the different denominators 2, 3, 5 and 7, shifted
    by r^-s so that many terms have negative degree."""
    n = draw(st.sampled_from([3, 5, 7]))
    q = draw(st.integers(0, n))
    tuples = list(itertools.combinations(range(1, n + 1), q))

    elements = ring_elements(n, max_degree=2).filter(lambda el: not el.is_zero())

    def form():
        idxs = draw(st.lists(st.sampled_from(tuples), min_size=1, max_size=4, unique=True))
        return Form(n, q, {
            idx: draw(elements).mul_r_power(-draw(st.integers(0, n + 2)))
            .scale(QQ(draw(st.integers(1, 9)), p))
            for idx, p in zip(idxs, (2, 3, 5, 7))})

    return form(), form()


def assert_flat_normal_form(f):
    """One positive denominator with no factor common to it and all the
    numerators, no zero numerator, every component field of rank f.q."""
    assert type(f.den) is int and f.den > 0
    assert all(type(c) is int and c for c in f.terms.values())
    assert math.gcd(f.den, *f.terms.values()) == 1
    assert all(len(idx) == f.q for idx in f.components)
    if f.is_zero():
        assert f.den == 1


def _split_fraction_parts(f, d):
    """The Fraction tables of the degree-d part of each component of f."""
    out = {}
    for idx, parts in fraction_form_parts(f).items():
        kept = {key: p for key, p in parts.items() if key[0] == d}
        if kept:
            out[idx] = kept
    return out


@settings(max_examples=60)
@given(flat_form_pairs(), rationals, st.integers(-4, 4))
def test_flat_operators_match_the_component_route(pair, c, s):
    """Every operator on the flat table gives the form that the per-component
    route gives, and the Fraction-per-term tables of the fraction oracles."""
    f, g = pair
    n, q = f.n, f.q
    parts_f, parts_g = fraction_form_parts(f), fraction_form_parts(g)
    results = []
    if q < n:
        assert f.rot() == component_rot(f)
        assert fraction_form_parts(f.rot()) == fraction_rot(f)
        results.append(f.rot())
    if q > 0:
        assert f.div() == component_div(f)
        assert fraction_form_parts(f.div()) == fraction_div(f)
        results.append(f.div())
    assert R_op(f) == component_r_op(f) and fraction_form_parts(R_op(f)) == fraction_r_op(f)
    assert T_op(f) == component_t_op(f) and fraction_form_parts(T_op(f)) == fraction_t_op(f)
    assert f.laplacian() == Form(n, q, {idx: el.laplacian() for idx, el in f.components.items()})
    assert fraction_form_parts(f.laplacian()) == {
        idx: t for idx, p in parts_f.items() if (t := fraction_laplacian(p, n))}
    assert f.hodge_star() == component_hodge_star(f)
    assert f.scale(c) == component_scale(f, c)
    assert fraction_form_parts(f.scale(c)) == {
        idx: t for idx, p in parts_f.items() if (t := fraction_scale(p, c))}
    assert f.mul_r_power(s) == component_mul_r_power(f, s)
    assert fraction_form_parts(f.mul_r_power(s)) == {
        idx: fraction_mul_r_power(p, s) for idx, p in parts_f.items()}
    for sign, total in ((1, f + g), (-1, f - g)):
        assert total == component_add(f, g, sign)
        want = {idx: fraction_add(parts_f.get(idx, {}), parts_g.get(idx, {}), sign)
                for idx in parts_f.keys() | parts_g.keys()}
        assert fraction_form_parts(total) == {idx: t for idx, t in want.items() if t}
    assert -f == component_scale(f, -1)
    assert (f == g) == (f.components == g.components) and f - f == Form.zero(n, q)
    assert f.coefficient_degrees() == sorted(
        {d for el in f.components.values() for d in el.degrees()})
    split = f.homogeneity_split()
    assert list(split) == f.coefficient_degrees()
    for d, piece in split.items():
        assert fraction_form_parts(piece) == _split_fraction_parts(f, d)
    want = sphere_inner_product_direct(f, g)
    assert sphere_inner_product(f, g) == component_sphere_inner_product(f, g) == want
    assert sphere_inner_product(f, g) == want                 # from the memo
    keys, (vf, vg) = coordinate_vectors([f, g])
    layout = _layout(n)
    # integer key order is the order of (component, ring key)
    assert [(_comp_of(k, n), k & layout.ring_mask) for k in keys] == sorted(
        {(idx, key) for h in (f, g) for idx, el in h.components.items() for key in el.terms})
    assert Form._from_coordinates(n, q, {k: v for k, v in zip(keys, vf) if v}) == f
    assert f.to_obj() == {"n": n, "q": q, "components": {
        ",".join(map(str, idx)): el.to_records() for idx, el in sorted(f.components.items())}}
    assert Form.from_obj(f.to_obj()) == f
    for h in results + [R_op(f), T_op(f), f.laplacian(), f.scale(c), f + g, f - g,
                        f.mul_r_power(s), f.hodge_star(), *split.values()]:
        assert_flat_normal_form(h)


def _comp_of(key, n):
    """The index tuple of a form key's component field."""
    field = key >> _layout(n).sc
    return tuple(i for i in range(1, n + 1) if not field >> (n - i) & 1)


def test_component_keys_validated():
    with pytest.raises(ValueError):
        Form(3, 2, {(2, 1): R.one(3)})      # not increasing
    with pytest.raises(ValueError):
        Form(3, 1, {(4,): R.one(3)})        # out of range


def test_wedge_known_products():
    n = 3
    dx1, dx2 = Form.dx(n, (1,)), Form.dx(n, (2,))
    assert wedge(dx1, dx2) == Form.dx(n, (1, 2))
    assert wedge(dx2, dx1) == Form.dx(n, (1, 2)).scale(qq(-1))
    assert wedge(dx1, dx1).is_zero()


@given(homogeneous_forms(q=1), homogeneous_forms(q=1))
def test_wedge_anticommutes_on_one_forms(a, b):
    assert wedge(a, b) == wedge(b, a).scale(qq(-1))


@given(homogeneous_forms(q=1), homogeneous_forms(q=1), homogeneous_forms(q=1))
def test_wedge_associates(a, b, c):
    assert wedge(a, wedge(b, c)) == wedge(wedge(a, b), c)


def test_hodge_star_basis_values():
    n = 3
    assert Form.dx(n, (1,)).hodge_star() == Form.dx(n, (2, 3))
    assert Form.dx(n, (2,)).hodge_star() == Form.dx(n, (1, 3)).scale(qq(-1))
    assert Form.dx(n, ()).hodge_star() == Form.dx(n, (1, 2, 3))


@given(homogeneous_forms())
def test_hodge_star_is_involutive(f):
    assert f.hodge_star().hodge_star() == f


@given(homogeneous_forms(q=1, degree=2))
def test_second_exterior_derivative_vanishes(f):
    assert f.rot().rot().is_zero()


@given(homogeneous_forms(q=2, degree=2))
def test_second_codifferential_vanishes(f):
    assert f.div().div().is_zero()


@given(st.one_of(homogeneous_forms(), homogeneous_forms(n=5)))
def test_codifferential_matches_direct_index_formula(f):
    if f.q == 0:
        return
    assert f.div() == hodge_div(f)


@given(homogeneous_forms())
def test_radial_operators_square_to_zero(f):
    assert R_op(R_op(f)).is_zero()
    assert T_op(T_op(f)).is_zero()


@given(homogeneous_forms())
def test_radial_anticommutator_is_r_squared(f):
    if f.q in (0, 3):
        return   # on scalars/top forms one factor collapses the identity
    got = R_op(T_op(f)) + T_op(R_op(f))
    assert got == f.mul_r_power(2)


@given(homogeneous_forms())
def test_tangential_cartan_identity(f):
    # d(T f) + T(d f): multiplication by (degree + rank) on homogeneous forms;
    # at the rank edges the collapsed factor contributes nothing
    n, q, h = f.n, f.q, f.homogeneous_degree()
    if h is None:
        return
    lhs = Form.zero(n, q)
    if q > 0:
        lhs = lhs + T_op(f).rot()
    if q < n:
        lhs = lhs + T_op(f.rot())
    assert lhs == f.scale(qq(h + q))


@given(homogeneous_forms())
def test_radial_cartan_identity(f):
    # div(R f) + R(div f): multiplication by (n + degree - rank)
    n, q, h = f.n, f.q, f.homogeneous_degree()
    if h is None:
        return
    lhs = Form.zero(n, q)
    if q < n:
        lhs = lhs + R_op(f).div()
    if q > 0:
        lhs = lhs + R_op(f.div())
    assert lhs == f.scale(qq(n + h - q))


@given(homogeneous_forms())
def test_radial_weight_commutators(f):
    # moving r^(2a) through the derivative leaves 2a r^(2a-2) (radial part)
    a = 1
    if f.q < f.n:
        lhs = f.mul_r_power(2 * a).rot() - f.rot().mul_r_power(2 * a)
        assert lhs == R_op(f).mul_r_power(2 * a - 2).scale(qq(2 * a))
    if f.q > 0:
        lhs = f.mul_r_power(2 * a).div() - f.div().mul_r_power(2 * a)
        assert lhs == T_op(f).mul_r_power(2 * a - 2).scale(qq(2 * a))


@given(st.one_of(homogeneous_forms(degree=2), homogeneous_forms(n=5, degree=2)))
def test_laplacian_factorizations_agree(f):
    assert f.laplacian() == laplacian_factored(f)


@given(operator_inputs)
def test_laplacian_matches_second_partials_oracle(f):
    assert f.laplacian() == laplacian_by_diff(f)


@given(operator_inputs)
def test_radial_operators_match_product_oracles(f):
    assert R_op(f) == r_op_by_wedge(f)
    assert T_op(f) == t_op_by_product(f)


def test_grade_guards():
    n = 3
    with pytest.raises(GradeError):
        Form.dx(n, (1, 2, 3)).rot()
    with pytest.raises(GradeError):
        Form.from_scalar(R.one(n)).div()


def test_zero_form_radial_conventions():
    n = 3
    f = Form.from_scalar(R.variable(n, 1))
    assert T_op(f).is_zero() and T_op(f).q == 0
    top = Form.dx(n, (1, 2, 3))
    assert R_op(top).is_zero() and R_op(top).q == n


def test_radial_one_form_is_r_op_of_one():
    n = 3
    assert radial_one_form(n) == R_op(Form.from_scalar(R.one(n)))


# ---------------------------------------------------------------------------
# sphere moments
# ---------------------------------------------------------------------------

def sympy_sphere_average(alpha):
    """Oracle: integrate the monomial over S^2 in spherical coordinates."""
    theta, phi = sympy.symbols("theta phi")
    x = sympy.sin(theta) * sympy.cos(phi)
    y = sympy.sin(theta) * sympy.sin(phi)
    z = sympy.cos(theta)
    integrand = (x ** alpha[0]) * (y ** alpha[1]) * (z ** alpha[2]) * sympy.sin(theta)
    val = sympy.integrate(sympy.integrate(integrand, (phi, 0, 2 * sympy.pi)),
                          (theta, 0, sympy.pi))
    return sympy.nsimplify(val / (4 * sympy.pi))


@pytest.mark.parametrize("alpha,expected", [
    ((0, 0, 0), QQ(1)),
    ((1, 0, 0), QQ(0)),
    ((2, 0, 0), QQ(1, 3)),
    ((1, 1, 0), QQ(0)),
    ((2, 2, 0), QQ(1, 15)),
    ((4, 0, 0), QQ(1, 5)),
    ((2, 2, 2), QQ(1, 105)),
    ((6, 0, 0), QQ(1, 7)),
])
def test_monomial_average_known_values(alpha, expected):
    assert monomial_average(alpha, 3) == expected
    assert sympy.Rational(str(expected)) == sympy_sphere_average(alpha)


@functools.cache
def _gauss_moment(e):
    """The integral of x^e exp(-x^2) over the real line, by sympy."""
    x = sympy.symbols("x", real=True)
    return sympy.integrate(x ** e * sympy.exp(-x ** 2), (x, -sympy.oo, sympy.oo))


@functools.cache
def _sphere_area_times_radial_moment(m, n):
    """|S^(n-1)| times the integral of r^(m+n-1) exp(-r^2) over r > 0."""
    r = sympy.symbols("r", positive=True)
    area = 2 * sympy.pi ** sympy.Rational(n, 2) / sympy.gamma(sympy.Rational(n, 2))
    return area * sympy.integrate(r ** (m + n - 1) * sympy.exp(-r ** 2), (r, 0, sympy.oo))


@pytest.mark.parametrize("n", [3, 5])
def test_monomial_average_matches_gaussian_moments(n):
    """Oracle for every exponent of degree <= 6: the integral of x^alpha
    exp(-|x|^2) over R^n is a product of 1-D Gaussian moments, and in polar
    coordinates it is |S^(n-1)| avg_S(x^alpha) times a radial moment."""
    for m in range(7):
        for alpha in monomials(n, m):
            want = prod((_gauss_moment(e) for e in alpha), start=sympy.Integer(1)) \
                / _sphere_area_times_radial_moment(m, n)
            assert want.is_Rational, (alpha, want)
            assert sympy.Rational(str(monomial_average(alpha, n))) == want, alpha


def test_monomial_average_is_memoised():
    monomial_average((3, 1, 0), 3)
    hits = monomial_average.cache_info().hits
    assert monomial_average((3, 1, 0), 3) == 0
    assert monomial_average.cache_info().hits == hits + 1


def test_monomial_average_odd_exponent_vanishes():
    assert monomial_average((3, 2, 0), 3) == QQ(0)
    assert monomial_average((0, 1, 4), 3) == QQ(0)


def test_poly_sphere_average_is_linear():
    p = {(2, 0, 0): qq(3), (0, 0, 0): qq(1), (1, 0, 0): qq(7)}
    assert poly_sphere_average(p, 3) == qq(3) * QQ(1, 3) + qq(1)


@given(homogeneous_forms())
def test_sphere_inner_product_positive_definite(f):
    v = sphere_inner_product(f, f)
    assert (v > 0) == (not f.is_zero())
    assert v >= 0


@given(homogeneous_forms(q=1, degree=1), homogeneous_forms(q=1, degree=1))
def test_sphere_inner_product_symmetric_bilinear(a, b):
    assert sphere_inner_product(a, b) == sphere_inner_product(b, a)
    assert sphere_inner_product(a + b, b) == \
        sphere_inner_product(a, b) + sphere_inner_product(b, b)


@st.composite
def forms_to_pair(draw):
    """(b, [a, ...]): non-homogeneous forms of one rank, n in {3, 5}."""
    n = draw(st.sampled_from([3, 5]))
    q = draw(st.integers(0, n))
    return draw(ring_forms(n, q)), draw(st.lists(ring_forms(n, q), min_size=2, max_size=4))


@given(forms_to_pair(), rationals)
def test_memoised_sphere_product_matches_the_direct_product(case, c):
    b, others = case
    fresh = Form.from_obj(b.to_obj())
    for _ in range(2):                        # the second round hits the memos
        for a in others:
            assert sphere_inner_product(a, b) == sphere_inner_product_direct(a, b)
            assert sphere_inner_product(b, a) == sphere_inner_product_direct(b, a)
        assert sphere_inner_product(b, b) == sphere_inner_product_direct(b, b)
    g = others[0]
    v = sphere_inner_product_direct(b, g)
    assert sphere_inner_product(b.scale(c), g) == c * v
    assert sphere_inner_product(g, b.scale(c)) == c * v
    assert sphere_inner_product(-b, g) == -v
    assert sphere_inner_product(b + g, g) == v + sphere_inner_product_direct(g, g)
    assert sphere_inner_product(g, b + g) == v + sphere_inner_product_direct(g, g)
    copy = Form.from_obj(b.to_obj())
    assert sphere_inner_product(copy, g) == v
    assert sphere_inner_product(g, copy) == v
    # the cache is not part of the value: a paired and an unpaired copy agree
    assert fresh._sphere is None and (b._sphere is not None or b.is_zero())
    assert b == fresh and fresh == b
    assert b.to_obj() == fresh.to_obj()


@given(homogeneous_forms())
def test_form_serialization_round_trip(f):
    assert Form.from_obj(f.to_obj()) == f


# ---------------------------------------------------------------------------
# the packing bound on the flat table
# ---------------------------------------------------------------------------

AT_THE_BOUND = [((0, MAX_EXP, 0), 0), ((1, 0, MAX_EXP), -3), ((0, 0, 0), MAX_EXP),
                ((0, 0, 0), -MAX_EXP), ((1, MAX_EXP, MAX_EXP), -MAX_EXP),
                ((1, MAX_EXP, 0), MAX_EXP)]


@pytest.mark.parametrize("alpha, b", AT_THE_BOUND)
@pytest.mark.parametrize("q", [0, 1, 2, 3])
def test_forms_at_the_packing_bound_stay_correct_or_are_refused(alpha, b, q):
    """Components at the exponent limit and the r-exponent limit go through
    rot, div, R_op, T_op and from_obj with correct components, or raise
    ValueError; no operator carries into the next field."""
    n = 3
    el = R(n, {(b + sum(alpha), b): {alpha: QQ(1, 3)}})
    tuples = list(itertools.combinations(range(1, n + 1), q))
    f = Form(n, q, {tuples[0]: el, tuples[-1]: el.scale(QQ(-2, 5)) + R.one(n)})
    assert Form.from_obj(f.to_obj()) == f
    steps = [(R_op, fraction_r_op), (T_op, fraction_t_op)]
    if q < n:
        steps.append((Form.rot, fraction_rot))
    if q > 0:
        steps.append((Form.div, fraction_div))
    for op, oracle in steps:
        got = op(f)
        assert fraction_form_parts(got) == oracle(f)
        assert got == Form(n, got.q, got.components)
        try:
            back = Form.from_obj(got.to_obj())
        except ValueError:
            # past the bound: an exponent of MAX_EXP + 1 or r^(-MAX_EXP - 2)
            assert any(max(a) > MAX_EXP or abs(bb) > MAX_EXP
                       for parts in fraction_form_parts(got).values()
                       for (_, bb), p in parts.items() for a in p)
        else:
            assert back == got


def test_flat_mul_r_power_refuses_to_leave_the_r_field():
    top = Form.dx(3, (1, 3), R.r_power(3, MAX_EXP)) + Form.dx(3, (2, 3), R.one(3))
    bottom = Form.dx(3, (1, 2), R.r_power(3, -MAX_EXP))
    shifted = top.mul_r_power(1000)
    assert shifted.components == {(1, 3): R.r_power(3, MAX_EXP).mul_r_power(1000),
                                  (2, 3): R.r_power(3, 1000)}
    for f, s in ((top, R_OFFSET - 1), (bottom, 1 - R_OFFSET), (top, R_OFFSET),
                 (bottom, -R_OFFSET)):
        with pytest.raises(ValueError, match="packing bound"):
            f.mul_r_power(s)
