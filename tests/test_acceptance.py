"""The acceptance gate: every shipped guarantee re-checked in one module.

Each test covers one numbered criterion and reports a single PASS/FAIL line
in the terminal summary (see conftest).  All comparisons are exact rational
identities; there are no tolerances anywhere.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from towercalc.cli import main as cli_main
from towercalc.expansion import MaxwellPair, expand, membership_filter
from towercalc.forms import Form
from towercalc.indices import (enumerate_excluded, in_weighted_l2,
                               is_exceptional_weight, multiplicity,
                               validate_hypotheses)
from towercalc.ring import QQ, RadialRingElement, qq
from towercalc.static_op import (TowerProfile, apply_L_profile,
                                 solve_whole_space, verify_recursion)
from towercalc.towers import (TowerContext, TowerIndex, build_tower_pair,
                              tower_coefficient, verify_family,
                              verify_low_floor_harmonicity)

from oracles import tower_coefficient_closed

SWEEP_BUDGET_SECONDS = 300


@pytest.fixture(scope="module")
def sweep():
    """The shared N in {3,5} family sweep used by criteria 1 and 2.

    Family q carries the rank-q D line and the rank-(q+1) R line, so q in
    0..N-1 covers every form rank 0..N on one of its two lines.
    """
    t0 = time.time()
    relation_failures = []
    harmonic_failures = []
    count = 0
    for n in (3, 5):
        for q in range(n):
            for sign in (1, -1):
                for sigma in range(4):
                    fam = build_tower_pair(n, q, sign, sigma, 4)
                    rep = verify_family(fam, rebuild=False, independence=False)
                    if not rep["passed"]:
                        relation_failures.append((n, q, sign, sigma, rep))
                    harm = verify_low_floor_harmonicity(fam)
                    if not harm["passed"]:
                        harmonic_failures.append((n, q, sign, sigma, harm))
                    count += 1
    return {"relation_failures": relation_failures,
            "harmonic_failures": harmonic_failures,
            "families": count,
            "elapsed": time.time() - t0}


def test_criterion_1_tower_relations_exact(criterion, sweep):
    with criterion(1, "tower relations exact-zero for N in {3,5}, all ranks, "
                      "both signs, sigma <= 3, floors <= 4, under 5 minutes"):
        assert sweep["families"] == 64
        assert sweep["relation_failures"] == []
        assert sweep["elapsed"] < SWEEP_BUDGET_SECONDS


def test_criterion_2_low_floor_harmonicity(criterion, sweep):
    with criterion(2, "floor-0/1 members are harmonic (exact zero Laplacian) "
                      "across the same sweep"):
        assert sweep["harmonic_failures"] == []


def test_criterion_3_extreme_rank_table(criterion):
    with criterion(3, "extreme-rank seed table: scalar slot dimensions, the "
                      "vanished decaying slot, and the {1}/{*1} spans"):
        for n in (3, 5):
            ctx = TowerContext(n)
            assert multiplicity(n, 0, "D", 0, 0) == 1
            for sigma in (1, 2, 3):
                assert multiplicity(n, 0, "D", sigma, 0) == 0
            # the decaying scalar-family floor-0 slot is identically zero
            assert ctx.d_form(0, TowerIndex(-1, 0, 0, 1)) is None
            assert build_tower_pair(n, 0, -1, 0, 1).d_floors[0] == []
            one = Form.from_scalar(RadialRingElement.from_rational(n, qq(1)))
            assert build_tower_pair(n, 0, 1, 0, 1).d_floors[0] == [one]
            vol = one.hodge_star()
            assert build_tower_pair(n, n - 1, 1, 0, 1).r_floors[0] == [vol]


def test_criterion_4_coefficient_recursion_vs_closed_form(criterion):
    with criterion(4, "floor-coefficient recursion equals the closed product "
                      "form for k <= 10, sigma <= 5, both signs, N in {3,5,7}"):
        for n in (3, 5, 7):
            for sign in (1, -1):
                for q in (0, 1, n - 1, n):
                    for sigma in range(6):
                        for k in range(11):
                            a = tower_coefficient(sign, q, sigma, k, n)
                            b = tower_coefficient_closed(sign, q, sigma, k, n)
                            assert a == b, (n, sign, q, sigma, k)


def _available_members(ctx, q):
    """All (side, index) slots with a nonzero member at floors <= 2."""
    n = ctx.n
    slots = []
    for side, rank, line in (("e", q, "D"), ("h", q + 1, "R")):
        for sign in (1, -1):
            for k in range(3):
                for sigma in range(3):
                    for m in range(1, multiplicity(n, rank, line, sigma, k) + 1):
                        idx = TowerIndex(sign, k, sigma, m)
                        form = (ctx.d_form(q, idx) if side == "e"
                                else ctx.r_form(q + 1, idx))
                        if form is not None:
                            slots.append((side, idx))
    return slots


def test_criterion_5_expansion_round_trip(criterion, ctx3):
    weights = [QQ(-5, 4), qq(0), QQ(7, 4), qq(3)]
    with criterion(5, "100 random rational height-<=3 combinations expand "
                      "back exactly; membership verdicts match the "
                      "per-index rule at four weights"):
        rng = random.Random(20240915)
        slot_cache = {q: _available_members(ctx3, q) for q in (0, 1, 2)}
        for trial in range(100):
            q = rng.choice([0, 1, 2])
            want = {"e": {}, "h": {}}
            for _ in range(rng.randint(1, 4)):
                side, idx = rng.choice(slot_cache[q])
                c = QQ(rng.randint(-9, 9), rng.randint(1, 9))
                cur = want[side].get(idx, qq(0)) + c
                if cur == 0:
                    want[side].pop(idx, None)
                else:
                    want[side][idx] = cur
            if not want["e"] and not want["h"]:
                continue
            e = Form.zero(3, q)
            for idx, c in want["e"].items():
                e = e + ctx3.d_form(q, idx).scale(c)
            h = Form.zero(3, q + 1)
            for idx, c in want["h"].items():
                h = h + ctx3.r_form(q + 1, idx).scale(c)
            pair = MaxwellPair(e, h)
            out = expand(pair, 3, ctx3)
            assert out.exact, (trial, q)
            assert dict(out.e_side.coeffs) == want["e"], (trial, q)
            assert dict(out.h_side.coeffs) == want["h"], (trial, q)
            back = out.reconstruct(ctx3)
            assert back.e == pair.e and back.h == pair.h
            for s in weights:
                verdict = membership_filter(out, s)
                for side_name, coeffs, offending in (
                        ("e", out.e_side.coeffs, verdict["e_offending"]),
                        ("h", out.h_side.coeffs, verdict["h_offending"])):
                    for idx, c in coeffs.items():
                        flagged = idx in offending
                        assert flagged == (c != 0 and
                                           not in_weighted_l2(idx, s, 3))


def test_criterion_6_index_calculus(criterion):
    with criterion(6, "excluded-set emptiness iff s < N/2 - K on 50 pairs; "
                      "exceptional-weight membership on 40 probes with "
                      "boundaries"):
        n = 3
        pairs = 0
        for k_max in range(5):
            bound = Fraction(3, 2) - k_max
            for off in (Fraction(-2), Fraction(-1), Fraction(-1, 4),
                        Fraction(0), Fraction(1, 4), Fraction(1),
                        Fraction(7, 4), Fraction(5, 2), Fraction(13, 4),
                        Fraction(4)):
                s = qq(bound + off)
                empty = enumerate_excluded(n, 1, "D", k_max, s) == []
                assert empty == (bound + off < bound), (k_max, off)
                pairs += 1
        assert pairs == 50

        probes = 0
        for m in range(10):
            assert is_exceptional_weight(qq(Fraction(3, 2) + m), n)
            assert is_exceptional_weight(qq(Fraction(-1, 2) - m), n)
            probes += 2
        for s in [qq(v) for v in range(-3, 7)]:
            assert not is_exceptional_weight(s, n)
            probes += 1
        for v in ("1/4", "3/4", "5/4", "7/4", "9/4", "11/4", "13/4",
                  "-1/4", "-3/4", "-5/4"):
            assert not is_exceptional_weight(qq(v), n)
            probes += 1
        assert probes == 40


SEED_SETS = [
    ({TowerIndex(-1, 0, 0, 1): qq(1)}, {}),
    ({}, {TowerIndex(-1, 0, 1, 1): qq(4)}),
    ({TowerIndex(-1, 0, 1, 2): QQ(3, 5)},
     {TowerIndex(-1, 0, 0, 1): qq(-2), TowerIndex(-1, 0, 2, 3): QQ(1, 7)}),
]


def test_criterion_7_recursion_and_profiles(criterion, ctx3):
    with criterion(7, "verify_recursion exact for sigma <= 2 seeds up to "
                      "power 3; expanding the concrete solves reproduces "
                      "the profile bookkeeping"):
        q, n = 1, 3
        for f, g in SEED_SETS:
            report = verify_recursion(ctx3, q, f, g, 3)
            assert report["passed"], report

        s = QQ(15, 4)
        tau = qq(10)
        for f, g in SEED_SETS:
            profile = TowerProfile(n, q, s, f, g)
            f_form = Form.zero(n, q)
            for idx, c in f.items():
                f_form = f_form + ctx3.d_form(q, idx).scale(c)
            g_form = Form.zero(n, q + 1)
            for idx, c in g.items():
                g_form = g_form + ctx3.r_form(q + 1, idx).scale(c)
            for step in range(1, 4):
                profile = apply_L_profile(profile, tau)
                pair = solve_whole_space(f_form, g_form, ctx3)
                out = expand(pair, step + 1, ctx3)
                assert out.exact
                zeros = {name: qq(0) for name in profile.symbols()}
                for coeffs, side in ((profile.f_coeffs, out.e_side),
                                     (profile.g_coeffs, out.h_side)):
                    got = dict(side.coeffs)
                    for idx, expr in coeffs.items():
                        expect = expr.substitute(zeros).const
                        assert got.pop(idx, qq(0)) == expect, (step, idx)
                    assert got == {}
                f_form, g_form = pair.e, pair.h


VALIDATOR_TABLE = [
    # (context, n, s, tau, j, max_degree, expected)
    ("solvability", 3, "0", "1", None, None, True),
    ("solvability", 3, "0", "0", None, None, False),      # tau not > 0
    ("solvability", 3, "2", "1", None, None, True),
    ("solvability", 3, "2", "1/2", None, None, False),    # tau not > s-3/2
    ("solvability", 3, "3/2", "2", None, None, False),    # exceptional s
    ("solvability", 3, "-1/2", "1", None, None, False),   # interval boundary
    ("solvability", 3, "-1/4", "1/4", None, None, True),
    ("solvability", 3, "-1/4", "1/8", None, None, False),  # tau < -s
    ("solvability", 5, "-3/2", "3/2", None, None, False),  # boundary, n = 5
    ("solvability", 5, "-5/4", "3/2", None, None, True),
    ("operator_domain", 3, "0", "4", None, 2, True),
    ("operator_domain", 3, "0", "7/2", None, 2, False),   # tau not > s+n/2+d
    ("operator_domain", 3, "0", "1", None, None, True),   # degree bound skipped
    ("operator_domain", 3, "2", "10", None, -3, True),
    ("operator_power", 3, "0", "1", 1, None, True),
    ("operator_power", 3, "0", "10", 2, 0, False),        # s not > j - 3/2
    ("operator_power", 3, "1", "10", 2, None, True),
    ("operator_power", 3, "7/4", "1/4", 3, None, False),  # tau not > s-3/2
    ("operator_power", 3, "7/4", "1/2", 3, None, True),
    ("operator_power", 3, "5/2", "10", 2, None, False),   # exceptional s
]


def test_criterion_8_hypothesis_validators(criterion):
    with criterion(8, "theorem-hypothesis validators agree with 20 "
                      "hand-checked rational cases, exactly"):
        assert len(VALIDATOR_TABLE) == 20
        for row in VALIDATOR_TABLE:
            context, n, s, tau, j, max_degree, expected = row
            kwargs = {"max_degree": max_degree}
            if j is not None:
                kwargs["j"] = j
            out = validate_hypotheses(context, n, qq(s), qq(tau), **kwargs)
            assert out["passed"] == expected, (row, out["failures"])


def _tamper_one_coefficient(obj, rng):
    """Scale one random stored term coefficient by 3; returns its location."""
    while True:
        fam = rng.choice(obj["families"])
        line = rng.choice(["d_floors", "r_floors"])
        floors = [(k, fl) for k, fl in enumerate(fam[line]) if fl]
        if not floors:
            continue
        k, floor = rng.choice(floors)
        member = rng.choice(floor)
        key = rng.choice(sorted(member["components"]))
        part = rng.choice(member["components"][key])
        term = rng.choice(part["terms"])
        num, _, den = term["coef"].partition("/")
        term["coef"] = f"{int(num) * 3}{'/' + den if den else ''}"
        return (fam["q"], fam["sign"], fam["sigma"], line, k)


def test_criterion_9_fault_injection(criterion, tmp_path, capsys):
    with criterion(9, "20 random single-coefficient perturbations of built "
                      "towers all make cmd_verify fail naming a violated "
                      "relation"):
        base = tmp_path / "families.json"
        code = cli_main(["build", "--n", "3", "--q", "1", "--sign", "both",
                         "--sigma-max", "1", "--floors", "3",
                         "--out", str(base)])
        capsys.readouterr()
        assert code == 0
        pristine = json.loads(base.read_text())

        rng = random.Random(1105)
        detected = 0
        for trial in range(20):
            tampered = json.loads(json.dumps(pristine))
            where = _tamper_one_coefficient(tampered, rng)
            target = tmp_path / f"tampered_{trial}.json"
            target.write_text(json.dumps(tampered))
            code = cli_main(["verify", str(target), "--no-independence"])
            out = capsys.readouterr().out
            fails = [l for l in out.splitlines() if l.startswith("FAIL")]
            named = ("seed-closedness", "div-free-d-line", "rot-free-r-line",
                     "rot-ladder", "div-ladder", "floor-homogeneity",
                     "canonical-rebuild")
            if code == 1 and fails and any(
                    any(nm in l for nm in named) for l in fails):
                detected += 1
            else:
                raise AssertionError(
                    f"tamper {trial} at {where} went undetected: {out}")
        assert detected == 20
