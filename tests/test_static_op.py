import pytest

from towercalc.errors import ConsistencyError, HypothesisError
from towercalc.expansion import MaxwellPair, expand, maxwell_map
from towercalc.forms import Form
from towercalc.indices import enumerate_excluded, in_weighted_l2
from towercalc.ring import QQ, qq
from towercalc.static_op import (LinExpr, OperatorRangeDescriptor,
                                 TowerProfile, apply_L_power, apply_L_profile,
                                 solve_whole_space, verify_recursion)
from towercalc.towers import TowerContext, TowerIndex


# ---------------------------------------------------------------------------
# linear-expression slots
# ---------------------------------------------------------------------------

def test_linexpr_algebra():
    a = LinExpr.symbol("a")
    b = LinExpr.symbol("b")
    e = a.scale(qq(2)) + b - LinExpr.constant(qq(3))
    assert str(e) == "-3 + 2*a + b"
    assert not e.is_zero() and not e.is_constant()
    assert (e - e).is_zero()
    got = e.substitute({"a": qq(1), "b": qq(1)})
    assert got.is_constant() and got.const == qq(0)


def test_linexpr_serialization():
    assert LinExpr.constant(QQ(3, 4)).to_obj() == "3/4"
    obj = (LinExpr.symbol("u") + LinExpr.constant(qq(1))).to_obj()
    assert obj == {"const": "1", "terms": {"u": "1"}}


# ---------------------------------------------------------------------------
# profile bookkeeping
# ---------------------------------------------------------------------------

def excluded_coeffs(n, q, s, value="1"):
    f = {i: qq(value) for i in enumerate_excluded(n, q, "D", 0, s)}
    g = {i: qq(value) for i in enumerate_excluded(n, q + 1, "R", 0, s)}
    return f, g


def test_profile_validates_rank_weight_and_membership():
    n = 3
    f, g = excluded_coeffs(n, 1, qq(2))
    prof = TowerProfile(n, 1, qq(2), f, g)
    assert prof.l2_weight == qq(2)
    assert prof.max_degree() is not None
    with pytest.raises(Exception):
        TowerProfile(n, 0, qq(2), {}, {})          # rank must be middle
    with pytest.raises(HypothesisError):
        TowerProfile(n, 1, QQ(3, 2), {}, {})       # exceptional weight
    with pytest.raises(ValueError):
        # an integrable index cannot sit in the non-integrable part
        TowerProfile(n, 1, qq(2), {TowerIndex(-1, 0, 3, 1): qq(1)}, {})


def test_profile_serialization():
    n = 3
    f, g = excluded_coeffs(n, 1, qq(2))
    prof = TowerProfile(n, 1, qq(2), f, g)
    obj = prof.to_obj()
    assert obj["kind"] == "tower_profile"
    assert obj["n"] == n and obj["q"] == 1
    assert len(obj["f_coeffs"]) == len(f)


# ---------------------------------------------------------------------------
# one application of the solution operator
# ---------------------------------------------------------------------------

def test_apply_once_moves_data_up_one_floor():
    n = 3
    f, g = excluded_coeffs(n, 1, qq(2))
    prof = TowerProfile(n, 1, qq(2), f, g)
    out = apply_L_profile(prof, tau=qq(10))
    assert out.s == qq(1)
    assert out.step == prof.step + 1
    # every original g index reappears shifted one floor on the f side
    for idx in g:
        up = TowerIndex(idx.sign, idx.k + 1, idx.sigma, idx.m)
        assert up in out.f_coeffs
        assert out.f_coeffs[up] == LinExpr.constant(qq(1))
    for idx in f:
        up = TowerIndex(idx.sign, idx.k + 1, idx.sigma, idx.m)
        assert up in out.g_coeffs


def test_apply_once_introduces_fresh_floor_zero_unknowns():
    n = 3
    f, g = excluded_coeffs(n, 1, qq(2))
    prof = TowerProfile(n, 1, qq(2), f, g)
    out = apply_L_profile(prof, tau=qq(10))
    fresh_f = [i for i in out.f_coeffs if i.k == 0]
    assert sorted(fresh_f) == sorted(enumerate_excluded(n, 1, "D", 0, qq(1)))
    for i in fresh_f:
        expr = out.f_coeffs[i]
        assert not expr.is_constant()
        (name, c), = expr.terms.items()
        assert name.startswith("Et") and c == qq(1)
    fresh_g = [i for i in out.g_coeffs if i.k == 0]
    for i in fresh_g:
        (name, _), = out.g_coeffs[i].terms.items()
        assert name.startswith("Ht")


def test_apply_requires_domain_hypotheses():
    n = 3
    f, g = excluded_coeffs(n, 1, qq(2))
    prof = TowerProfile(n, 1, qq(2), f, g)
    # tau must exceed max(0, s - n/2) = 1/2
    with pytest.raises(HypothesisError):
        apply_L_profile(prof, tau=QQ(1, 4))


# ---------------------------------------------------------------------------
# iterated operator and its range descriptor
# ---------------------------------------------------------------------------

def test_power_equals_composition():
    n = 3
    f, g = excluded_coeffs(n, 1, qq(3))
    prof = TowerProfile(n, 1, qq(3), f, g)
    by_power, desc = apply_L_power(prof, 2, tau=qq(12))
    by_steps = apply_L_profile(apply_L_profile(prof, tau=qq(12)), tau=qq(12))
    assert by_power.s == by_steps.s == qq(1)
    assert set(by_power.f_coeffs) == set(by_steps.f_coeffs)
    assert set(by_power.g_coeffs) == set(by_steps.g_coeffs)
    assert desc.power == 2 and desc.target_weight == qq(1)


def test_descriptor_partitions_range_indices():
    n = 3
    f, g = excluded_coeffs(n, 1, qq(3))
    prof = TowerProfile(n, 1, qq(3), f, g)
    out, desc = apply_L_power(prof, 2, tau=qq(12))
    # shifted data and fresh unknowns together exhaust the range profile
    assert sorted(out.f_coeffs) == sorted(desc.new_d + desc.shifted_d)
    assert sorted(out.g_coeffs) == sorted(desc.new_r + desc.shifted_r)
    # fresh slots are exactly the excluded sets of the target weight, floors < j
    want_d = enumerate_excluded(n, 1, "D", 1, qq(1))
    assert sorted(desc.new_d) == sorted(want_d)
    # even power: no parity swap of the data sides
    assert not desc.parity_swapped


def test_descriptor_odd_power_swaps_parity():
    n = 3
    f, g = excluded_coeffs(n, 1, qq(3))
    prof = TowerProfile(n, 1, qq(3), f, g)
    _, desc = apply_L_power(prof, 1, tau=qq(12))
    assert desc.parity_swapped
    # the shifted D-side data came from the g side of the source
    assert sorted(desc.shifted_d) == sorted(
        TowerIndex(i.sign, i.k + 1, i.sigma, i.m) for i in g)


def test_descriptor_weight_bounds():
    n = 3
    f, g = excluded_coeffs(n, 1, qq(3))
    prof = TowerProfile(n, 1, qq(3), f, g)
    _, desc = apply_L_power(prof, 2, tau=qq(12))
    bounds = desc.t_bounds()
    assert bounds["t_max_inclusive"] == qq(1)          # t <= s - j
    assert bounds["t_sup_shift"] == QQ(3, 2) - 2 + 1   # t < n/2 - j + 1
    assert desc.admissible_weight(qq(-4))
    assert not desc.admissible_weight(qq(2))           # above s - j
    report = desc.membership_cross_check(qq(-4))
    assert report["passed"], report


def test_empty_profile_power():
    n = 3
    prof = TowerProfile(n, 1, qq(2), {}, {})
    out, desc = apply_L_power(prof, 2, tau=qq(8))
    assert desc.max_data_degree is None
    assert desc.shifted_d == [] and desc.shifted_r == []
    # fresh unknowns still appear wherever the target weight demands them
    assert sorted(out.f_coeffs) == sorted(desc.new_d)


def test_power_hypotheses_checked():
    n = 3
    f, g = excluded_coeffs(n, 1, qq(3))
    prof = TowerProfile(n, 1, qq(3), f, g)
    with pytest.raises(HypothesisError):
        apply_L_power(prof, 5, tau=qq(12))   # j = 5 needs s > 7/2
    with pytest.raises(HypothesisError):
        apply_L_power(prof, 2, tau=qq(1))    # tau must exceed s - n/2 = 3/2


# ---------------------------------------------------------------------------
# concrete whole-space solves
# ---------------------------------------------------------------------------

def test_solve_reproduces_tower_relations(ctx3):
    # data (F, G) = (div R_2, rot D_2) solves back to (E, H) = (D_3-ish, R_3-ish)
    q = 1
    d2 = ctx3.d_form(q, TowerIndex(-1, 2, 0, 1))
    r2 = ctx3.r_form(q + 1, TowerIndex(-1, 2, 1, 2))
    f_form = r2.div()
    g_form = d2.rot()
    pair = solve_whole_space(f_form, g_form, ctx3)
    assert pair.e.rot() == g_form
    assert pair.h.div() == f_form
    assert pair.e.div().is_zero()
    assert pair.h.rot().is_zero()


def test_solve_zero_data_gives_zero_pair(ctx3):
    pair = solve_whole_space(Form.zero(3, 1), Form.zero(3, 2), ctx3)
    assert pair.e.is_zero() and pair.h.is_zero()


def test_solve_rejects_data_outside_span(ctx3):
    from towercalc.ring import RadialRingElement
    x1 = RadialRingElement.variable(3, 1)
    with pytest.raises(ValueError):
        solve_whole_space(Form.dx(3, (1,), x1), Form.zero(3, 2), ctx3, k_max=3)


def test_solve_then_map_returns_data(ctx3):
    q = 1
    f_form = ctx3.d_form(q, TowerIndex(-1, 1, 0, 2))
    g_form = ctx3.r_form(q + 1, TowerIndex(-1, 1, 1, 3))
    pair = solve_whole_space(f_form, g_form, ctx3)
    image = maxwell_map(pair)
    assert image.e == f_form and image.h == g_form


def test_solution_expansion_shifts_coefficients(ctx3):
    # expand/solve round trip: solving then re-expanding moves every index
    # up one floor with the same coefficient
    q = 1
    src = {TowerIndex(-1, 0, 0, 1): QQ(2, 3), TowerIndex(-1, 1, 0, 1): qq(-1)}
    f_form = Form.zero(3, q)
    for idx, c in src.items():
        f_form = f_form + ctx3.d_form(q, idx).scale(c)
    pair = solve_whole_space(f_form, Form.zero(3, q + 1), ctx3)
    out = expand(pair, 3, ctx3)
    assert out.exact
    got = dict(out.h_side.coeffs)
    want = {TowerIndex(i.sign, i.k + 1, i.sigma, i.m): c
            for i, c in src.items()}
    assert got == want
    assert dict(out.e_side.coeffs) == {}


# ---------------------------------------------------------------------------
# the recursion between profile bookkeeping and concrete solves
# ---------------------------------------------------------------------------

def test_verify_recursion_single_seed(ctx3):
    report = verify_recursion(ctx3, 1,
                              {TowerIndex(-1, 0, 0, 1): qq(1)}, {}, 2)
    assert report["passed"], report
    assert report["power"] == 2
    assert all(c["passed"] for c in report["checks"])


def test_verify_recursion_mixture(ctx3):
    f = {TowerIndex(-1, 0, 0, 1): QQ(1, 2)}
    g = {TowerIndex(-1, 0, 0, 2): qq(3), TowerIndex(-1, 0, 1, 1): qq(-2)}
    report = verify_recursion(ctx3, 1, f, g, 3)
    assert report["passed"], report
    names = {c["name"] for c in report["checks"]}
    for step in (1, 2, 3):
        for kind in ("solves-data", "expansion-exact",
                     "coefficients-shifted", "no-fresh-unknowns"):
            assert f"step-{step}-{kind}" in names
