import pytest
from hypothesis import given, settings, strategies as st

from towercalc.errors import ConsistencyError
from towercalc.forms import Form, R_op, T_op
from towercalc.harmonic import mu, seed_basis
from towercalc.ring import QQ, RadialRingElement, qq
from towercalc.towers import (TowerContext, TowerFamily, TowerIndex, a_chain,
                              b_chain, build_tower_pair, exceptional_form,
                              homogeneity_degree, tower_coefficient,
                              verify_family, verify_low_floor_harmonicity)

from oracles import radial_one_form, tower_coefficient_closed

R = RadialRingElement


def test_index_basics():
    i = TowerIndex(-1, 2, 1, 4)
    assert homogeneity_degree(-1, 2, 1, 3) == -2
    assert i.degree(3) == -2
    assert TowerIndex(1, 2, 1, 4).degree(3) == 3
    assert str(i) == "(-,k=2,sigma=1,m=4)"
    assert TowerIndex.from_obj(i.to_obj()) == i
    with pytest.raises(ValueError):
        TowerIndex(0, 1, 1, 1)
    with pytest.raises(ValueError):
        TowerIndex(1, -1, 0, 1)
    with pytest.raises(ValueError):
        TowerIndex(1, 0, 0, 0)


def test_ladder_on_constant_seed_matches_hand_computation():
    # seed W = dx1 (degree 0, bi-closed); first floors worked out by hand:
    #   F1 = (1/(n+g-p)) rho W = (1/2) r dr wedge dx1-part
    #   F2 = u1 r^2 W + v1 rho T W with v1 = -1/(2(n+2)), u1 = 4 v1 ... etc.
    n = 3
    seed = Form.dx(n, (1,))
    floors = a_chain(seed, 0, 4)
    assert floors[0] == seed
    want1 = R_op(seed).scale(QQ(1, 2))
    assert floors[1] == want1
    x = [R.variable(n, i) for i in range(1, 4)]
    want2 = Form.dx(n, (1,), R.r_power(n, 2).scale(QQ(1, 5))) + \
        Form(n, 1, {(i,): x[0] * x[i - 1] for i in range(1, 4)}).scale(QQ(-1, 10))
    assert floors[2] == want2
    # dual-pairing relations along the chain
    assert floors[1].div() == floors[0]
    assert floors[2].rot() == floors[1]
    assert floors[1].rot().is_zero()
    assert floors[2].div().is_zero()
    assert floors[3].div() == floors[2]


def test_mirror_ladder_relations():
    n = 3
    seed = Form.dx(n, (1, 2))       # rank 2, degree 0, bi-closed
    floors = b_chain(seed, 0, 4)
    assert floors[0] == seed
    assert floors[1].rot() == floors[0]
    assert floors[2].div() == floors[1]
    assert floors[3].rot() == floors[2]
    assert floors[1].div().is_zero()
    assert floors[2].rot().is_zero()


def test_tower_coefficient_base_cases():
    n = 3
    # decaying side starts at 1; growing side at -1/(2 sigma + n) mid-rank
    assert tower_coefficient(1, 1, 0, 0, n) == qq(-1) / qq(n)
    assert tower_coefficient(1, 1, 2, 0, n) == qq(-1) / qq(2 * 2 + n)
    assert tower_coefficient(-1, 1, 0, 0, n) == qq(1)
    # extreme ranks flip the base sign
    assert tower_coefficient(1, 0, 2, 0, n) == -tower_coefficient(1, 1, 2, 0, n)
    assert tower_coefficient(1, n, 2, 0, n) == -tower_coefficient(1, 1, 2, 0, n)


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("sign", [1, -1])
def test_tower_coefficients_recursion_equals_closed_form(n, sign):
    for q in (0, 1, n - 1, n):
        for sigma in range(3):
            for k in range(6):
                lhs = tower_coefficient(sign, q, sigma, k, n)
                rhs = tower_coefficient_closed(sign, q, sigma, k, n)
                assert lhs == rhs, (sign, q, sigma, k, n)


def test_tower_coefficient_recursion_step():
    n, sign, q, sigma = 3, 1, 1, 2
    for k in range(1, 6):
        prev = tower_coefficient(sign, q, sigma, k - 1, n)
        cur = tower_coefficient(sign, q, sigma, k, n)
        denom = qq(2 * k) * (qq(2 * k) + sign * qq(2 * sigma + n))
        assert cur == prev / denom


def test_tower_coefficient_scales_the_built_odd_floors():
    # floor 2j+1 of the ladder from seed X (A) or Y (B) is
    # c_0 * a_j/a_0 * r^(2j) * R_op(X)  resp.  c_0 * a_j/a_0 * r^(2j) * T_op(Y);
    # the bootstrapped ladders of the ghost families enter after the seeded
    # members of their floor and are not covered
    checked = 0
    for n, sigma_max in ((3, 2), (5, 1)):
        for q in range(n):
            for sign in (1, -1):
                for sigma in range(sigma_max + 1):
                    fam = build_tower_pair(n, q, sign, sigma, floors=5)
                    g = homogeneity_degree(sign, 0, sigma, n)
                    ladders = ((fam.r_floors, seed_basis(n, q, g), R_op, n + g - q),
                               (fam.d_floors, seed_basis(n, q + 1, g), T_op, g + q + 1))
                    for floors, seeds, op, base in ladders:
                        if not seeds.dim:
                            continue     # no seeded ladder (and base may be 0)
                        a0 = tower_coefficient(sign, seeds.q, sigma, 0, n)
                        for j in range(3):
                            members = floors[2 * j + 1]
                            assert len(members) >= seeds.dim
                            c = tower_coefficient(sign, seeds.q, sigma, j, n) / (a0 * base)
                            for f, x in zip(members, seeds.forms):
                                assert f == op(x).mul_r_power(2 * j).scale(c), \
                                    (n, q, sign, sigma, 2 * j + 1)
                                checked += 1
    assert checked == 1908


def family_cases():
    cases = []
    for q in range(3):
        for sign in (1, -1):
            for sigma in (0, 1):
                cases.append((q, sign, sigma))
    return cases


@pytest.mark.parametrize("q,sign,sigma", family_cases())
def test_families_verify_exactly(q, sign, sigma):
    fam = build_tower_pair(3, q, sign, sigma, floors=3)
    report = verify_family(fam, rebuild=True, independence=True)
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]
    harm = verify_low_floor_harmonicity(fam)
    assert harm["passed"], harm


def test_family_floor_counts_follow_parity():
    fam = build_tower_pair(3, 1, 1, 1, floors=4)
    for k in range(5):
        d_want = mu(3, 1 + (k % 2), 1)
        r_want = mu(3, 2 - (k % 2), 1)
        assert len(fam.d_floors[k]) == d_want, k
        assert len(fam.r_floors[k]) == r_want, k


def test_family_members_and_context_resolution(ctx3):
    idx = TowerIndex(1, 2, 1, 3)
    f = ctx3.d_form(1, idx)
    assert f.homogeneous_degree() == 3
    assert f.div().is_zero()
    # the same member resolves identically from a freshly built family
    fam = build_tower_pair(3, 1, 1, 1, floors=2)
    assert fam.member("D", 2, 3) == f
    with pytest.raises(IndexError):
        fam.member("D", 2, 6)    # multiplicity is 5


def test_vanished_slots_resolve_to_none(ctx3):
    assert ctx3.d_form(0, TowerIndex(-1, 0, 0, 1)) is None
    assert ctx3.r_form(3, TowerIndex(-1, 0, 0, 1)) is None


def test_combine_is_the_member_sum(ctx3):
    q = 1
    coeffs = {TowerIndex(1, 1, 1, 2): qq("3/7"), TowerIndex(-1, 0, 0, 1): qq(2),
              TowerIndex(-1, 2, 1, 4): qq(-5)}
    for rank, line, member in ((q, "D", ctx3.d_form), (q + 1, "R", ctx3.r_form)):
        want = Form.zero(3, rank)
        for idx, c in coeffs.items():
            want = want + member(rank, idx).scale(c)
        assert ctx3.combine(rank, line, coeffs) == want
        assert ctx3.member(rank, line, TowerIndex(1, 1, 1, 2)) == \
            member(rank, TowerIndex(1, 1, 1, 2))
    # the decaying rank-0 seed at sigma 0 vanishes: its slot has no member
    with pytest.raises(ConsistencyError, match="missing D member"):
        ctx3.combine(0, "D", {TowerIndex(-1, 0, 0, 1): qq(1)})


def test_ghost_families():
    n = 3
    ghost = radial_one_form(n).mul_r_power(-n)
    fam = build_tower_pair(n, 0, -1, 0, floors=3)
    assert fam.d_floors[0] == []
    assert fam.r_floors[1] == [ghost]
    assert ghost.rot().is_zero() and ghost.div().is_zero()
    # the conjugate family at top rank starts from the star of the ghost
    fam2 = build_tower_pair(n, n - 1, -1, 0, floors=3)
    assert fam2.r_floors[0] == []
    assert len(fam2.d_floors[1]) == 1
    assert fam2.d_floors[1][0] == ghost.hodge_star() or \
        fam2.d_floors[1][0] == ghost.hodge_star().scale(qq(-1))
    for fam_ in (fam, fam2):
        rep = verify_family(fam_, rebuild=True, independence=True)
        assert rep["passed"], [c for c in rep["checks"] if not c["passed"]]


def test_family_serialization_round_trip():
    fam = build_tower_pair(3, 1, -1, 1, floors=2)
    again = TowerFamily.from_obj(fam.to_obj())
    assert again.d_floors == fam.d_floors
    assert again.r_floors == fam.r_floors
    assert again.omega_sq == fam.omega_sq


def test_omega_squared_metadata():
    fam = build_tower_pair(3, 1, 1, 2, floors=1)
    assert fam.omega_sq == qq((2 + 1) * (2 + 3 - 1))


def test_verify_detects_tampering():
    fam = build_tower_pair(3, 1, 1, 0, floors=2)
    fam.d_floors[1][0] = fam.d_floors[1][0].scale(QQ(3, 2))
    report = verify_family(fam, rebuild=False, independence=False)
    assert not report["passed"]
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failed & {"rot-ladder", "div-ladder"}


def test_failing_report_text():
    # full reports on three tampered copies of one family, pinned verbatim
    def report(tamper):
        fam = build_tower_pair(3, 1, 1, 0, floors=3)
        tamper(fam)
        return [(c["name"], c["passed"], c["detail"]) for c in verify_family(fam)["checks"]]

    def scale(fam):
        fam.d_floors[1][0] = fam.d_floors[1][0].scale(QQ(3, 2))

    def delete(fam):
        del fam.r_floors[2][1]

    def r_shift(fam):
        fam.d_floors[0][1] = fam.d_floors[0][1].mul_r_power(2)

    rebuilt = ("canonical-rebuild", False,
               "stored floors differ from the canonical reconstruction")
    assert report(scale) == [
        ("seed-closedness", True, ""),
        ("div-free-d-line", True, ""),
        ("rot-free-r-line", True, ""),
        ("rot-ladder", False, "rot D_1 member 1 != R_0"),
        ("div-ladder", False, "div R_2 member 1 != D_1"),
        ("floor-homogeneity", True, ""),
        ("floor-multiplicity", True, ""),
        ("floor-independence", True, ""),
        rebuilt]
    assert report(delete) == [
        ("seed-closedness", True, ""),
        ("div-free-d-line", True, ""),
        ("rot-free-r-line", True, ""),
        ("rot-ladder", False,
         "rot D_3 member 2 != R_2; rot D_3 member 3 nonzero with no partner"),
        ("div-ladder", False, "div R_2 member 2 != D_1"),
        ("floor-homogeneity", True, ""),
        ("floor-multiplicity", False, "R_2: 2 members, expected 3"),
        ("floor-independence", True, ""),
        rebuilt]
    assert report(r_shift) == [
        ("seed-closedness", False,
         "rot D_0 member 2 nonzero; div D_0 member 2 nonzero"),
        ("div-free-d-line", False, "div D_0 member 2 nonzero"),
        ("rot-free-r-line", True, ""),
        ("rot-ladder", True, ""),
        ("div-ladder", False, "div R_1 member 2 != D_0"),
        ("floor-homogeneity", False, "D_0 member 2 degree 2 != 0"),
        ("floor-multiplicity", True, ""),
        ("floor-independence", True, ""),
        rebuilt]


def test_exceptional_table_consistency(ctx3):
    n = 3
    # the height-1 slots: (is_zero, family_q, line, floor) for each kind and rank
    for kind, q, want in [("D_hat", 0, (True, -1, "", -1)),
                          ("D_hat", 1, (False, 0, "R", 1)),
                          ("R_hat", n, (True, -1, "", -1)),
                          ("R_hat", n - 1, (False, n - 1, "D", 1)),
                          ("D_check", 1, (False, 0, "R", 1)),
                          ("R_check", n - 1, (False, n - 1, "D", 1))]:
        desc = exceptional_form(kind, n, q, 1)
        assert (desc.is_zero, desc.family_q, desc.line, desc.floor) == want, (kind, q)
        if not desc.is_zero:
            fam = ctx3.family(desc.family_q, -1, 0, desc.floor)
            members = (fam.d_floors if desc.line == "D" else fam.r_floors)[desc.floor]
            form = desc.resolve(ctx3)
            assert members == [form] and form.q == q, (kind, q)


def test_exceptional_window_gates_on_weight():
    n = 3
    # hat slots demand s < n/2 - K, check slots the complement
    assert exceptional_form("D_hat", n, 0, 2, s=qq(0)).is_zero
    assert not exceptional_form("D_hat", n, 0, 2, s=qq(-1)).is_zero
    assert not exceptional_form("D_check", n, 0, 2, s=qq(0)).is_zero
    assert exceptional_form("D_check", n, 0, 2, s=qq(-1)).is_zero
    # without a weight the slot is unconditionally present
    assert not exceptional_form("D_hat", n, 0, 2).is_zero


def test_exceptional_resolution(ctx3):
    desc = exceptional_form("D_hat", 3, 1, 2)
    form = desc.resolve(ctx3)
    assert form is not None and form.q == 1
    assert form.rot().is_zero()
    zero_desc = exceptional_form("R_hat", 3, 1, 2)
    assert zero_desc.is_zero and zero_desc.resolve(ctx3) is None


def test_build_rejects_bad_parameters():
    with pytest.raises(Exception):
        build_tower_pair(3, 3, 1, 0, floors=2)    # family rank out of range
    with pytest.raises(Exception):
        build_tower_pair(4, 1, 1, 0, floors=2)    # even dimension
    with pytest.raises(Exception):
        build_tower_pair(3, 1, 1, -1, floors=2)   # negative order


@settings(max_examples=8)
@given(q=st.integers(0, 2), sign=st.sampled_from([1, -1]),
       sigma=st.integers(0, 2), floors=st.integers(1, 3))
def test_ladder_relations_property(q, sign, sigma, floors):
    fam = build_tower_pair(3, q, sign, sigma, floors)
    for k in range(1, floors + 1):
        for m, f in enumerate(fam.d_floors[k]):
            image = f.rot() if q < 3 else None
            if k % 2 == 1 and image is not None and m < len(fam.r_floors[k - 1]):
                assert image == fam.r_floors[k - 1][m]
        for m, f in enumerate(fam.r_floors[k]):
            image = f.div()
            if k % 2 == 1 and m < len(fam.d_floors[k - 1]):
                assert image == fam.d_floors[k - 1][m]
