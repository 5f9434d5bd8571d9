import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from towercalc.cli import main
from towercalc.expansion import MaxwellPair
from towercalc.forms import Form
from towercalc import indices
from towercalc.indices import EXCLUDED_LIMIT, enumerate_excluded
from towercalc.errors import MAX_DIM
from towercalc.ring import MAX_EXP, _layout, qq
from towercalc.towers import TowerContext, TowerIndex, build_tower_pair

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def build_file(tmp_path, capsys, *extra):
    path = tmp_path / "fams.json"
    argv = ["build", "--n", "3", "--q", "1", "--sign", "both",
            "--sigma-max", "1", "--floors", "2", "--out", str(path)] + list(extra)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    return path


def test_build_emits_schema_and_is_deterministic(tmp_path, capsys):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    for p in (p1, p2):
        code, out, err = run(capsys, "build", "--n", "3", "--q", "0",
                             "--sigma", "1", "--floors", "2", "--out", str(p))
        assert code == 0
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b1.endswith(b"\n")
    obj = json.loads(b1)
    assert obj["schema"] == "towercalc/1"
    assert obj["kind"] == "tower_family_set"
    assert len(obj["families"]) == 2          # both signs at sigma = 1


@pytest.mark.parametrize("argv", [
    ["build", "--n", "4", "--q", "1"],
    ["build", "--n", "4", "--q", "1", "--sigma-max", "-1"],
    ["dims", "--n", "4", "--sigma-max", "-1"],
    ["weights", "--n", "4"],
    ["iterate", "--n", "4", "--q", "1", "--weight", "1", "--power", "1"],
], ids=["build", "build-no-sigmas", "dims-no-sigmas", "weights", "iterate"])
def test_build_rejects_even_dimension(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "even dimension" in err


def test_dimension_below_three_is_not_called_even(capsys):
    code, out, err = run(capsys, "dims", "--n", "1")
    assert code == 2
    assert "even" not in err
    assert "n >= 3" in err


def test_verify_passes_on_fresh_build(tmp_path, capsys):
    path = build_file(tmp_path, capsys)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert lines and all(l.startswith("PASS") for l in lines)
    assert any("rot-ladder" in l for l in lines)
    assert any("div-ladder" in l for l in lines)
    # harmonicity adds its own named checks
    code2, out2, _ = run(capsys, "verify", str(path), "--harmonicity")
    assert code2 == 0
    assert len(out2.splitlines()) > len(lines)


def test_verify_detects_single_coefficient_tamper(tmp_path, capsys):
    path = build_file(tmp_path, capsys)
    obj = json.loads(path.read_text())
    # scale one stored coefficient of one floor member
    fam = obj["families"][0]
    floor = fam["d_floors"][1][0]
    comp = next(iter(floor["components"].values()))
    term = comp[0]["terms"][0]
    num, _, den = term["coef"].partition("/")
    term["coef"] = f"{int(num) * 3}{'/' + den if den else ''}"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(path), "--no-independence")
    assert code == 1
    bad = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert bad
    named = ("rot-ladder", "div-ladder", "canonical-rebuild",
             "div-free-d-line", "rot-free-r-line", "floor-homogeneity",
             "seed-closedness")
    assert any(any(nm in l for nm in named) for l in bad)
    assert all("family(n=3,q=1" in l for l in bad)


def test_verify_rejects_wrong_document_kind(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "something_else"}))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "expected a tower_family" in err


def test_missing_and_malformed_files(tmp_path, capsys):
    code, _, err = run(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 2 and "not found" in err
    bad = tmp_path / "broken.json"
    bad.write_text('{"kind": "tower_family",')
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert "line 1" in err and "column" in err


_ZERO_DEN_PAIR = {
    "kind": "maxwell_pair", "n": 3, "q": 1,
    "e": {"n": 3, "q": 1, "components": {"1": [{"degree": 0, "r_exp": 0, "terms": [
        {"alpha": [0, 0, 0], "coef": "1/0"}]}]}},
    "h": {"n": 3, "q": 2, "components": {}}}

# a family stored with floors 0..2, and copies whose header disagrees with it
_FAMILY = build_tower_pair(3, 1, 1, 0, floors=2)
_FAMILY_DOC = _FAMILY.to_obj()
_FLOOR_2_TAMPERED = dict(_FAMILY_DOC, floors=1, d_floors=_FAMILY_DOC["d_floors"][:2] + [
    [_FAMILY.d_floors[2][0].scale(qq(3)).to_obj()] + _FAMILY_DOC["d_floors"][2][1:]])
_ZERO_PAIR = MaxwellPair(Form.zero(3, 1), Form.zero(3, 2)).to_obj()


def _first_coef(value):
    """_FAMILY_DOC with its first D-floor coefficient "1" written as value."""
    doc = json.loads(json.dumps(_FAMILY_DOC))
    doc["d_floors"][0][0]["components"]["1"][0]["terms"][0]["coef"] = value
    return doc


def _first_form(edit):
    """_FAMILY_DOC with edit applied to the components of its first D-floor form."""
    doc = json.loads(json.dumps(_FAMILY_DOC))
    edit(doc["d_floors"][0][0]["components"])
    return doc


def _pad_key(comps):
    comps[" 01"] = comps.pop("1")


def _split_term(comps):
    terms = comps["1"][0]["terms"]
    half = dict(terms[0], coef="1/2")
    terms[0:1] = [half, dict(half)]


def _zero_term(comps):
    comps["1"].append({"degree": 1, "r_exp": 0,
                       "terms": [{"alpha": [0, 1, 0], "coef": "0"}]})


def _profile_seed(**row):
    """A profile seed whose one f-row (-,0,0,1) with coeff "2" is edited by row."""
    return {"kind": "profile_seed", "g_coeffs": [], "f_coeffs": [
        dict({"sign": "-", "k": 0, "sigma": 0, "m": 1, "coeff": "2"}, **row)]}


_ITERATE_SEED = ["iterate", "--n", "3", "--q", "1", "--weight", "2", "--power", "1",
                 "--tau", "10", "--seed", "{path}"]


@pytest.mark.parametrize("command,doc", [
    (["verify", "{path}"], []),
    (["verify", "{path}"], {"kind": "tower_family_set", "families": [1]}),
    (["classify", "--input", "{path}", "--weight", "0"], []),
    (["classify", "--input", "{path}", "--weight", "0"],
     {"n": 3, "q": 1, "components": []}),
    (["expand", "--input", "{path}", "--floors", "2"], _ZERO_DEN_PAIR),
    (_ITERATE_SEED, []),
    (["verify", "{path}"], dict(_FAMILY_DOC, floors=4)),
    (["verify", "--no-rebuild", "{path}"], _FLOOR_2_TAMPERED),
    (["verify", "{path}"], dict(_FAMILY_DOC, sign="x")),
    (["verify", "--no-rebuild", "{path}"], dict(_FAMILY_DOC, n=5)),
    (["verify", "--no-rebuild", "{path}"], dict(_FAMILY_DOC, q=2)),
    (["verify", "--no-rebuild", "{path}"], dict(_FAMILY_DOC, ghost_a=True)),
    (["expand", "--input", "{path}", "--floors", "0"], _ZERO_PAIR),
    (["verify", "--no-rebuild", "{path}"], dict(_FAMILY_DOC, sigma=0.5)),
    (["verify", "--no-rebuild", "{path}"], dict(_FAMILY_DOC, floors="2")),
    (["verify", "--no-rebuild", "{path}"], dict(_FAMILY_DOC, n=3.7)),
    (["verify", "--no-rebuild", "{path}"], dict(_FAMILY_DOC, q=True)),
    (["verify", "--no-rebuild", "{path}"], _first_coef(1.0)),
    (["verify", "--no-rebuild", "{path}"], _first_coef(True)),
    (["verify", "--no-rebuild", "{path}"], _first_coef("1.0")),
    (_ITERATE_SEED, _profile_seed(coeff=0.1)),
    (["verify", "--no-rebuild", "{path}"], dict(_FAMILY_DOC, sign=True)),
    (["verify", "--no-rebuild", "{path}"], dict(_FAMILY_DOC, sign=1.0)),
    (_ITERATE_SEED, _profile_seed(sign=-1.0)),
    (["verify", "--no-rebuild", "{path}"], _first_form(_pad_key)),
    (["verify", "--no-rebuild", "{path}"], _first_form(_split_term)),
    (["verify", "--no-rebuild", "{path}"], _first_form(_zero_term)),
    (_ITERATE_SEED, dict(_profile_seed(), f_coeffs=_profile_seed()["f_coeffs"] * 2)),
    (_ITERATE_SEED, _profile_seed(m=99)),
    (["expand", "--input", "{path}", "--floors", "2"],
     dict(_ZERO_PAIR, kind="tower_family", n=5, q=3)),
    (["expand", "--input", "{path}", "--floors", "2"], dict(_ZERO_PAIR, kind="tower_family")),
    (["expand", "--input", "{path}", "--floors", "2"], dict(_ZERO_PAIR, q=2)),
], ids=["verify-list", "verify-bad-family", "classify-list",
        "classify-list-components", "expand-zero-denominator", "iterate-list",
        "verify-floors-beyond-stored", "verify-floors-short-of-stored",
        "verify-unknown-sign", "verify-n-not-stored", "verify-q-not-stored",
        "verify-ghost-flag-not-derived", "expand-floors-0",
        "verify-sigma-not-int", "verify-floors-str", "verify-n-float",
        "verify-q-bool", "verify-coef-float", "verify-coef-bool",
        "verify-coef-decimal-str", "iterate-coeff-float", "verify-sign-bool",
        "verify-sign-float", "iterate-sign-float", "verify-key-not-canonical",
        "verify-split-term", "verify-zero-term", "iterate-duplicate-index",
        "iterate-m-past-multiplicity", "expand-header-not-stored",
        "expand-kind-not-pair", "expand-q-not-stored"])
def test_wrong_shaped_json_is_a_usage_error(tmp_path, capsys, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *[a.format(path=path) for a in command])
    assert code == 2
    assert "internal error" not in err
    assert out == ""


# -- fuzzing the maxwell_pair document through `expand --input` ---------------

_CTX3 = TowerContext(3)
_PAIR_DOC = MaxwellPair(
    _CTX3.d_form(1, TowerIndex(1, 1, 1, 2)).scale(qq("3/7"))
    + _CTX3.d_form(1, TowerIndex(-1, 2, 0, 1)).scale(qq(2)),
    _CTX3.r_form(2, TowerIndex(1, 2, 0, 1)).scale(qq(-5))
    + _CTX3.r_form(2, TowerIndex(-1, 0, 0, 1))).to_obj()

# one value of each JSON type; a type mutation picks one of another type
_JSON_VALUES = [None, True, 7, 1.5, "x", [], {}]
_BAD_RATIONALS = ["0", "-0", "0/5", "1/0", "1.5", " 1", "1/-2", "+1", "", "1e3",
                  "--1", "1/2/3", "\u00bd", "\u0663", "0x10"]
_COMPONENT_KEYS = ["", "0", "1", "2", "3", "4", "1,2", "1,3", "2,3", "2,1", "1,1",
                   " 1", "01", "1,", "a", "1_0", "+1", "\u0663", "1,2,3"]


def _json_type(value):
    return "bool" if isinstance(value, bool) else type(value).__name__


def _nodes(doc, path=()):
    """(path, value) of doc and of everything below it."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _canonical_key(key, n, q):
    """Is key how to_obj writes a rank-q component tuple in dimension n?"""
    parts = key.split(",") if key else []
    if not all(p.isascii() and p.isdigit() and p == str(int(p)) for p in parts):
        return False
    idx = [int(p) for p in parts]
    return len(idx) == q and all(0 < a < b for a, b in zip(idx, idx[1:] + [n + 1]))


@st.composite
def mutated_pairs(draw):
    """(document, malformed): _PAIR_DOC with one mutation of a key, a type, a
    rank, a rational or a component key; malformed says whether the result
    must be refused."""
    doc = json.loads(json.dumps(_PAIR_DOC))
    nodes = list(_nodes(doc))
    read = [(p, v) for p, v in nodes if p and "schema" not in p]
    kind = draw(st.sampled_from(["key", "extra-key", "type", "rank", "rational",
                                 "component-key", "drop-component"]))
    if kind == "key":
        path, _ = draw(st.sampled_from(
            [(p, v) for p, v in read
             if isinstance(p[-1], str) and p[-2:-1] != ("components",)]))
        parent = _at(doc, path[:-1])
        value = parent.pop(path[-1])
        if draw(st.booleans()):
            parent[path[-1] + "_"] = value
        return doc, True
    if kind == "extra-key":
        path, _ = draw(st.sampled_from(
            [(p, v) for p, v in nodes if isinstance(v, dict) and p[-1:] != ("components",)]))
        _at(doc, path)["note"] = draw(st.sampled_from(_JSON_VALUES))
        return doc, False
    if kind == "type":
        path, old = draw(st.sampled_from(read))
        _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(
            [v for v in _JSON_VALUES if _json_type(v) != _json_type(old)]))
        return doc, True
    if kind == "rank":
        path = draw(st.sampled_from([("q",), ("e", "q"), ("h", "q"),
                                     ("n",), ("e", "n"), ("h", "n")]))
        old = _at(doc, path)
        _at(doc, path[:-1])[path[-1]] = draw(st.integers(-1, 7).filter(lambda v: v != old))
        return doc, True
    if kind == "rational":
        path, _ = draw(st.sampled_from([(p, v) for p, v in read if p[-1] == "coef"]))
        good = draw(st.booleans())
        if good:
            p = draw(st.integers(-50, 50).filter(bool))
            text = draw(st.sampled_from([str(p), f"{p}/{draw(st.integers(1, 50))}"]))
        else:
            text = draw(st.sampled_from(_BAD_RATIONALS))
        _at(doc, path[:-1])["coef"] = text
        return doc, not good
    side = draw(st.sampled_from(["e", "h"]))
    comps = doc[side]["components"]
    key = draw(st.sampled_from(sorted(comps)))
    value = comps.pop(key)
    if kind == "drop-component":
        return doc, False
    new = draw(st.sampled_from(_COMPONENT_KEYS))
    comps[new] = value
    return doc, not _canonical_key(new, doc[side]["n"], doc[side]["q"])


@given(mutated_pairs())
def test_fuzzed_maxwell_pairs_never_fault(case):
    """A mutated maxwell_pair is refused with exit 2 when it is malformed and
    expanded (exit 0 or 1) when it is not; nothing exits 3 or raises."""
    doc, malformed = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pair.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["expand", "--input", str(path), "--floors", "3"])
    assert "Traceback" not in err.getvalue()
    assert "internal error" not in err.getvalue()
    if malformed:
        assert code == 2, err.getvalue()
        assert out.getvalue() == ""
    else:
        assert code in (0, 1), err.getvalue()


def test_unmutated_fuzz_base_pair_expands_exactly():
    assert _canonical_key("1,3", 3, 2) and not _canonical_key("3,1", 3, 2)
    assert _canonical_key("", 3, 0) and not _canonical_key("01", 3, 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pair.json"
        path.write_text(json.dumps(_PAIR_DOC))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["expand", "--input", str(path), "--floors", "3"]) == 0


@pytest.mark.parametrize("schema", [7, "nonsense", None])
def test_expand_refuses_another_schema(tmp_path, capsys, schema):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(dict(_PAIR_DOC, schema=schema)))
    code, out, err = run(capsys, "expand", "--input", str(path), "--floors", "3")
    assert code == 2
    assert out == ""
    assert "schema" in err and "internal error" not in err


def test_expand_reads_a_document_without_schema(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({k: v for k, v in _PAIR_DOC.items() if k != "schema"}))
    code, out, _ = run(capsys, "expand", "--input", str(path), "--floors", "3")
    assert code == 0 and json.loads(out)["exact"] is True


# -- fuzzing the tower_family_set document through `verify` --------------------

_SET_DOC = {"schema": "towercalc/1", "kind": "tower_family_set", "n": 3,
            "families": [build_tower_pair(3, 1, sign, sigma, 2).to_obj()
                         for sign in (1, -1) for sigma in (0, 1)]}
_SET_HEADER = ("schema", "kind", "n")
_FAMILY_HEADER = ("schema", "kind", "n", "q", "sign", "sigma", "floors", "omega_sq",
                  "ghost_a", "ghost_b")
_HEADER_VALUES = _JSON_VALUES + [-1, 0, 1, 2, 3, 5, False, "+", "-", "+1", "-1",
                                 "towercalc/1", "tower_family", "tower_family_set"]


def _is_sign(value):
    return value in ("+", "-", "+1", "-1") or (type(value) is int and value in (1, -1))


@st.composite
def mutated_family_sets(draw):
    """(document, malformed): _SET_DOC with one coefficient, exponent,
    degree or r_exp, component key or header field changed; malformed says
    whether the result must be refused.  Every header change but a sign
    written as another sign contradicts the stored members or the derived
    fields (omega_sq, ghost_a, ghost_b)."""
    doc = json.loads(json.dumps(_SET_DOC))
    nodes = list(_nodes(doc))
    kind = draw(st.sampled_from(["coef", "alpha", "degree", "component-key", "header"]))
    if kind == "coef":
        path, _ = draw(st.sampled_from([(p, v) for p, v in nodes if p[-1:] == ("coef",)]))
        good = draw(st.booleans())
        if good:
            p = draw(st.integers(-50, 50).filter(bool))
            text = draw(st.sampled_from([str(p), f"{p}/{draw(st.integers(1, 50))}"]))
        else:
            text = draw(st.sampled_from(_BAD_RATIONALS))
        _at(doc, path[:-1])["coef"] = text
        return doc, not good
    if kind in ("alpha", "degree"):
        # one exponent, degree or r_exp changed breaks sum(alpha) = degree - r_exp
        path, old = draw(st.sampled_from(
            [(p, v) for p, v in nodes if len(p) > 1 and p[-2] == "alpha"] if kind == "alpha"
            else [(p, v) for p, v in nodes if p[-1:] in (("degree",), ("r_exp",))]))
        _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(
            [v for v in _JSON_VALUES + list(range(-4, 5)) if json.dumps(v) != json.dumps(old)]))
        return doc, True
    if kind == "component-key":
        form = draw(st.sampled_from([v for _, v in nodes
                                     if isinstance(v, dict) and v.get("components")]))
        comps = form["components"]
        value = comps.pop(draw(st.sampled_from(sorted(comps))))
        new = draw(st.sampled_from(_COMPONENT_KEYS))
        comps[new] = value
        return doc, not _canonical_key(new, form["n"], form["q"])
    path = draw(st.sampled_from([(f,) for f in _SET_HEADER] + [
        ("families", i, f) for i in range(len(doc["families"])) for f in _FAMILY_HEADER]))
    old = _at(doc, path)
    new = draw(st.sampled_from([v for v in _HEADER_VALUES if json.dumps(v) != json.dumps(old)]))
    _at(doc, path[:-1])[path[-1]] = new
    return doc, not (path[-1] == "sign" and _is_sign(new))


@given(mutated_family_sets())
def test_fuzzed_family_sets_never_fault(case):
    """A mutated tower_family_set is refused with exit 2 when it is malformed
    and verified (exit 0 or 1) when it is not; nothing exits 3 or raises."""
    doc, malformed = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "set.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", str(path)])
    assert "Traceback" not in err.getvalue()
    assert "internal error" not in err.getvalue()
    if malformed:
        assert code == 2, err.getvalue()
        assert out.getvalue() == ""
    else:
        assert code in (0, 1), err.getvalue()


def test_unmutated_fuzz_base_set_verifies(tmp_path, capsys):
    path = tmp_path / "set.json"
    path.write_text(json.dumps(_SET_DOC))
    code, out, _ = run(capsys, "verify", str(path))
    lines = out.splitlines()
    assert code == 0 and all(line.startswith("PASS family(") for line in lines)
    assert len({line.split()[1] for line in lines}) == 4


# -- fuzzing the classify form and the iterate --seed document ----------------

_MUTANTS = _JSON_VALUES + [-1, 0, 1, 2, 3, 5, 10 ** 9, "+", "-", "1/2", "-3", "0", "1/0",
                           "towercalc/1", "profile_seed", "maxwell_pair"]
# a fresh copy of each drawn value, so that no container is shared
_MUTANT = st.sampled_from(_MUTANTS).map(lambda v: json.loads(json.dumps(v)))
_FIELD_NAMES = ["n", "q", "kind", "schema", "components", "degree", "r_exp", "terms",
                "alpha", "coef", "sign", "k", "sigma", "m", "coeff", "f_coeffs",
                "g_coeffs", "1", "2", "1,2", ""]


@st.composite
def mutated_documents(draw, base):
    """base with one or two edits, each dropping an entry, replacing a value
    or adding a named entry; the result may or may not be well formed."""
    doc = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 2))):
        nodes = list(_nodes(doc))
        op = draw(st.sampled_from(["drop", "replace", "add"]))
        if op == "add":
            target = draw(st.sampled_from([v for _, v in nodes if isinstance(v, (dict, list))]))
            value = draw(_MUTANT)
            if isinstance(target, dict):
                target[draw(st.sampled_from(_FIELD_NAMES))] = value
            else:
                target.append(value)
            continue
        if len(nodes) == 1:
            continue
        path, _ = draw(st.sampled_from(nodes[1:]))
        parent = _at(doc, path[:-1])
        if op == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_MUTANT)
    return doc


def _exit_without_fault(argv, doc) -> int:
    """main(argv) on doc written to {path}; it must exit 0, 1 or 2 and print
    no traceback and no internal error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.format(path=path) for a in argv])
    assert "Traceback" not in err.getvalue()
    assert "internal error" not in err.getvalue()
    assert code in (0, 1, 2), err.getvalue()
    assert code != 2 or out.getvalue() == ""
    return code


_FORM_DOC = json.loads((ROOT / "perfbench" / "inputs" / "form.json").read_text())
_SEED_DOC = json.loads((ROOT / "perfbench" / "inputs" / "iterate_seed.json").read_text())
_CLASSIFY = ["classify", "--input", "{path}", "--weight", "0"]
_ITERATE = ["iterate", "--n", "3", "--q", "1", "--weight", "15/4", "--power", "3",
            "--tau", "10", "--seed", "{path}"]


@given(mutated_documents(_FORM_DOC))
def test_fuzzed_classify_forms_never_fault(doc):
    _exit_without_fault(_CLASSIFY, doc)


@given(mutated_documents(_SEED_DOC))
def test_fuzzed_profile_seeds_never_fault(doc):
    _exit_without_fault(_ITERATE, doc)


def test_unmutated_fuzz_bases_classify_and_iterate():
    assert _exit_without_fault(_CLASSIFY, _FORM_DOC) == 0
    assert _exit_without_fault(_ITERATE, _SEED_DOC) == 0


def pair_file(tmp_path, ctx, parts, name="pair.json"):
    q = 1
    e = Form.zero(3, q)
    h = Form.zero(3, q + 1)
    for side, idx, c in parts:
        if side == "e":
            e = e + ctx.d_form(q, idx).scale(qq(c))
        else:
            h = h + ctx.r_form(q + 1, idx).scale(qq(c))
    path = tmp_path / name
    path.write_text(json.dumps(MaxwellPair(e, h).to_obj()))
    return path


def test_expand_round_trip_via_cli(tmp_path, capsys, ctx3):
    path = pair_file(tmp_path, ctx3,
                     [("e", TowerIndex(1, 1, 1, 2), "3/7"),
                      ("h", TowerIndex(-1, 0, 0, 1), "2")])
    code, out, err = run(capsys, "expand", "--input", str(path),
                         "--floors", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "expansion" and obj["exact"] is True
    coeffs = {(r["sign"], r["k"], r["sigma"], r["m"]): r["coeff"]
              for r in obj["e"]["coeffs"]}
    assert coeffs == {("+", 1, 1, 2): "3/7"}


def test_expand_membership_flag(tmp_path, capsys, ctx3):
    path = pair_file(tmp_path, ctx3, [("e", TowerIndex(1, 0, 1, 1), "2")])
    code, out, err = run(capsys, "expand", "--input", str(path),
                         "--floors", "2", "--weight", "0")
    assert code == 0
    obj = json.loads(out)
    assert obj["membership"]["passed"] is False
    assert obj["membership"]["e_offending"]
    assert "membership at s=0: FAIL" in err
    assert "offending E index" in err


def test_expand_rejects_non_static_pair(tmp_path, capsys):
    from towercalc.ring import RadialRingElement
    x1 = RadialRingElement.variable(3, 1)
    pair = MaxwellPair(Form.dx(3, (1,), x1), Form.zero(3, 2))
    path = tmp_path / "ns.json"
    path.write_text(json.dumps(pair.to_obj()))
    code, out, err = run(capsys, "expand", "--input", str(path),
                         "--floors", "2")
    assert code == 1
    assert "FAIL expand" in err


def test_classify_command(tmp_path, capsys, ctx3):
    form = ctx3.d_form(1, TowerIndex(-1, 0, 0, 1))
    path = tmp_path / "form.json"
    path.write_text(json.dumps(form.to_obj()))
    code, out, err = run(capsys, "classify", "--input", str(path),
                         "--weight", "0")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "classification"
    assert obj["class"] == "both"
    assert obj["weight"] == "0"


def test_indices_csv_matches_library(capsys):
    code, out, err = run(capsys, "indices", "--n", "3", "--q", "1",
                         "--line", "D", "--max-floor", "2", "--weight", "2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["sign", "k", "sigma", "m", "degree"]
    want = enumerate_excluded(3, 1, "D", 2, qq(2))
    assert len(rows) - 1 == len(want)
    got_first = rows[1]
    assert got_first[0] == "-" and int(got_first[1]) == want[0].k


def test_indices_warns_on_exceptional_weight(capsys):
    code, out, err = run(capsys, "indices", "--n", "3", "--q", "1",
                         "--line", "D", "--max-floor", "1", "--weight", "3/2")
    assert code == 0
    assert "theorems inapplicable" in err


def test_indices_rejects_bad_rational(capsys):
    code, _, err = run(capsys, "indices", "--n", "3", "--q", "1",
                       "--line", "D", "--max-floor", "1", "--weight", "w0t")
    assert code == 2
    assert "not a rational" in err


def test_weights_csv(capsys):
    code, out, err = run(capsys, "weights", "--n", "3", "--list", "3")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["weight"]
    vals = [r[0] for r in rows[1:]]
    assert "3/2" in vals and "-1/2" in vals
    assert len(vals) == 6


def test_iterate_command(tmp_path, capsys):
    seed = {"schema": "towercalc/1", "kind": "profile_seed",
            "f_coeffs": [{"sign": "-", "k": 0, "sigma": 0, "m": 1,
                          "coeff": "2"}],
            "g_coeffs": []}
    spath = tmp_path / "seed.json"
    spath.write_text(json.dumps(seed))
    code, out, err = run(capsys, "iterate", "--n", "3", "--q", "1",
                         "--weight", "2", "--power", "2", "--tau", "10",
                         "--seed", str(spath))
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "iteration"
    assert len(obj["profiles"]) == 3
    assert obj["range"]["power"] == 2


@pytest.mark.parametrize("doc", [
    dict(_profile_seed(), kind="maxwell_pair"),
    dict(_profile_seed(), kind=None),
    json.loads((ROOT / "perfbench" / "inputs" / "pair.json").read_text()),
], ids=["kind-maxwell-pair", "kind-null", "perfbench-pair"])
def test_iterate_refuses_a_seed_of_another_kind(tmp_path, capsys, doc):
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *[a.format(path=path) for a in _ITERATE_SEED])
    assert (code, out) == (2, "")
    assert "profile_seed" in err


def test_iterate_reads_a_seed_without_kind(tmp_path, capsys):
    path = tmp_path / "seed.json"
    doc = _profile_seed()
    del doc["kind"]
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, *[a.format(path=path) for a in _ITERATE_SEED])
    assert code == 0
    assert json.loads(out)["kind"] == "iteration"


def test_iterate_refuses_a_huge_seed_sigma_at_once(tmp_path):
    """The seed's multiplicity check is mu(3, 1, 10**9), a binomial, not a
    factorial quotient that never returns."""
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(_profile_seed(sigma=10 ** 9)))
    proc = subprocess.run(
        [sys.executable, "-m", "towercalc.cli"] + [a.format(path=path) for a in _ITERATE_SEED],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "internal error" not in proc.stderr


_FORM = str(ROOT / "perfbench" / "inputs" / "form.json")


@pytest.mark.parametrize("argv", [
    ["classify", "--input", _FORM, "--weight", "1e400"],
    ["classify", "--input", _FORM, "--weight", "99999999999999999999/7"],
    ["classify", "--input", _FORM, "--weight", "225"],
    ["indices", "--n", "3", "--q", "1", "--line", "D", "--max-floor", "3", "--weight", "111"],
    ["indices", "--n", "3", "--q", "1", "--max-floor", str(10 ** 12), "--weight", "-1"],
    ["indices", "--n", "3", "--q", "1", "--max-floor", "1", "--weight", "0",
     "--both-signs", "--sigma-max", str(EXCLUDED_LIMIT)],
    ["iterate", "--n", "3", "--q", "1", "--weight", "226", "--power", "1", "--tau", "1000"],
    ["iterate", "--n", "3", "--q", "1", "--weight", "1e400", "--power", "1", "--tau", "1e401"],
], ids=["classify-1e400", "classify-fraction", "classify-edge", "indices-edge",
        "indices-floors", "indices-sigma-max", "iterate-edge", "iterate-1e400"])
def test_excluded_sets_past_the_limit_are_refused_before_listing(capsys, monkeypatch, argv):
    """The weights one above the largest admitted ones (224 at floor 0 and
    110 at floors <= 3 for n = 3, q = 1) and far beyond it exit 2 with no
    output, naming the limit; no index is built (TowerIndex is unset)."""
    monkeypatch.setattr(indices, "TowerIndex", None)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"limit of {EXCLUDED_LIMIT}" in err


def test_iterate_refuses_a_profile_chain_past_the_limit(capsys):
    """Every excluded set of weight 40, power 40 is admitted, but the chain
    keeps them all (it passed 2.8 GB before this bound); it is refused once
    the profiles hold more than the limit."""
    code, out, err = run(capsys, "iterate", "--n", "3", "--q", "1", "--weight", "40",
                         "--power", "40", "--tau", "1000")
    assert (code, out) == (2, "")
    assert f"limit of {EXCLUDED_LIMIT} indices" in err


@pytest.mark.parametrize("doc", [
    {"n": 0, "q": 0, "components": {"": [{"degree": 0, "r_exp": 0, "terms": []}]}},
    {"n": 10 ** 9, "q": 0, "components": {"": []}},
], ids=["n0-empty-record", "huge-n-empty-component"])
def test_stored_forms_of_no_dimension_are_usage_errors(tmp_path, doc):
    """These made the decoder re-encode through the packed layout of n,
    which does not exist at n = 0 (exit 3) and takes memory growing as n^2
    beyond it; they are refused before any layout is built.  The child's
    address space is capped so that a regression fails instead of
    exhausting the host."""
    path = tmp_path / "form.json"
    path.write_text(json.dumps(doc))
    cap = ("import resource, runpy, sys; "
           "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
           "sys.argv = ['towercalc'] + sys.argv[1:]; "
           "runpy.run_module('towercalc.cli', run_name='__main__')")
    proc = subprocess.run(
        [sys.executable, "-c", cap, "classify", "--input", str(path), "--weight", "0"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert "not in the canonical encoding" in proc.stderr


@pytest.mark.parametrize("coef,code", [("1/0", 2), ("3/3", 0), ("2/2", 0), ("0/3", 2)])
def test_stored_coefficient_spellings_keep_their_exit_codes(tmp_path, capsys, coef, code):
    doc = json.loads(Path(_FORM).read_text())
    doc["components"]["1"][0]["terms"][0]["coef"] = coef
    path = tmp_path / "form.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "classify", "--input", str(path), "--weight", "0")[0] == code


@pytest.mark.parametrize("argv", [
    ["build", "--n", "3", "--q", "1", "--sigma-max", "-1"],
    ["dims", "--n", "3", "--sigma-max", "-1"],
    ["weights", "--n", "3", "--list", "-2"],
    ["indices", "--n", "3", "--q", "1", "--weight", "1", "--max-floor", "-1"],
    ["indices", "--n", "3", "--q", "1", "--weight", "1", "--max-floor", "2",
     "--both-signs", "--sigma-max", "-1"],
], ids=["build-sigma-max", "dims-sigma-max", "weights-list", "indices-max-floor",
        "indices-sigma-max"])
def test_negative_counts_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "expected an integer >= 0" in err


def test_iterate_rejects_exceptional_weight(capsys):
    code, _, err = run(capsys, "iterate", "--n", "3", "--q", "1",
                       "--weight", "3/2", "--power", "1", "--tau", "10")
    assert code == 2
    assert "inadmissible" in err


def test_dims_table(capsys):
    code, out, err = run(capsys, "dims", "--n", "3", "--sigma-max", "2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["q\\sigma", "0", "1", "2"]
    # middle ranks 2 sigma + 3; extremes collapse to the constant slot
    assert rows[1] == ["0", "1", "0", "0"]
    assert rows[2] == ["1", "3", "5", "7"]
    assert rows[4] == ["3", "1", "0", "0"]


def test_usage_exit_code_for_unknown_command(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_seed_cache_files_are_neither_read_nor_written(tmp_path, capsys, monkeypatch):
    """Seed spaces are only memoised in process: a corrupt file where the
    former TOWERCALC_CACHE directory kept the n=3 q=1 degree-1 space changes
    nothing build writes, draws no note, and is left as it was."""
    from towercalc import harmonic
    argv = ("build", "--n", "3", "--q", "1", "--sigma-max", "1")
    monkeypatch.setattr(harmonic, "_CACHE", {})
    code, want, _ = run(capsys, *argv)
    assert code == 0
    entry = tmp_path / "seeds_n3_q1_h1.json"
    entry.write_text('{"schema": "towercalc/1", "kind": "seed_space", "n": 3, "q"')
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setenv("TOWERCALC_CACHE", str(tmp_path))
    monkeypatch.setattr(harmonic, "_CACHE", {})
    assert run(capsys, *argv) == (0, want, "")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def _scale_first_form(forms):
    for parts in forms[0]["components"].values():
        for part in parts:
            for term in part["terms"]:
                term["coef"] = str(3 * qq(term["coef"]))


def _drop_last_form(forms):
    forms.pop()


def _nudge_first_form(forms):
    # the x1*x3 dx^3 coefficient 4/3 of the first form sits off every pivot
    # column, so the basis stays in echelon form but the form is not closed
    forms[0]["components"]["3"][0]["terms"][0]["coef"] = "5/3"


@pytest.mark.parametrize("tamper", [_scale_first_form, _drop_last_form,
                                    _nudge_first_form],
                         ids=["not-echelon", "wrong-dimension", "not-biclosed"])
def test_tampered_seed_cache_entry_is_recomputed(tmp_path, capsys, monkeypatch, tamper):
    """A family built while the in-memory seed cache held a basis that is not
    the canonical basis of its space fails verify's canonical rebuild, which
    recomputes the space."""
    from towercalc import harmonic
    from towercalc.harmonic import SeedSpace
    monkeypatch.setattr(harmonic, "_CACHE", {})
    doc = harmonic.seed_basis(3, 1, 2).to_obj()
    tamper(doc["forms"])
    monkeypatch.setattr(harmonic, "_CACHE", {(3, 1, 2): SeedSpace.from_obj(doc)})
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps(build_tower_pair(3, 1, 1, 2, 2).to_obj()))
    monkeypatch.setattr(harmonic, "_CACHE", {})
    code, out, _ = run(capsys, "verify", "--harmonicity", str(fam))
    assert code == 1
    assert "FAIL family(n=3,q=1,sign=+,sigma=2) canonical-rebuild" in out


def test_out_flag_writes_file_not_stdout(tmp_path, capsys):
    path = tmp_path / "dims.csv"
    code, out, err = run(capsys, "dims", "--n", "3", "--sigma-max", "1",
                         "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("q\\sigma")


def _one_term_form(alpha, r_exp):
    """An n=3 rank-1 form document holding r^r_exp x^alpha dx^1 alone."""
    return {"n": 3, "q": 1, "components": {"1": [
        {"degree": r_exp + sum(alpha), "r_exp": r_exp,
         "terms": [{"alpha": list(alpha), "coef": "1"}]}]}}


@pytest.mark.parametrize("alpha, r_exp", [
    ((0, -1, 2), 0), ((0, MAX_EXP + 1, 0), 0), ((0, 0, 1), MAX_EXP + 1),
    ((0, 0, 1), -MAX_EXP - 1)],
    ids=["negative-exponent", "exponent-past-bound", "r-exp-past-bound",
         "negative-r-exp-past-bound"])
def test_classify_refuses_monomials_outside_the_packing_bound(tmp_path, capsys, alpha, r_exp):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(_one_term_form(alpha, r_exp)))
    code, out, err = run(capsys, "classify", "--input", str(path), "--weight", "0")
    assert (code, out) == (2, "")
    assert f"invalid input in {path}" in err


@pytest.mark.parametrize("alpha, r_exp", [
    ((0, MAX_EXP, 0), 0), ((0, 0, 1), MAX_EXP), ((0, 0, 1), -MAX_EXP)],
    ids=["exponent-at-bound", "r-exp-at-bound", "negative-r-exp-at-bound"])
def test_classify_admits_monomials_at_the_packing_bound(tmp_path, capsys, alpha, r_exp):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(_one_term_form(alpha, r_exp)))
    code, out, err = run(capsys, "classify", "--input", str(path), "--weight", "0")
    assert code == 0
    assert json.loads(out)["kind"] == "classification"


_OVER = MAX_DIM + 2


@pytest.mark.parametrize("command,doc", [
    (["classify", "--input", "{path}", "--weight", "0"],
     {"n": _OVER, "q": 0, "components": {"": [{"degree": 1, "r_exp": 0, "terms": [
         {"alpha": [0, 1] + [0] * (_OVER - 2), "coef": "1"}]}]}}),
    (["classify", "--input", "{path}", "--weight", "0"],
     {"n": _OVER, "q": 0, "components": {}}),
    (["verify", "{path}"], {"kind": "tower_family_set", "n": _OVER, "families": []}),
    (["verify", "{path}"], dict(_FAMILY_DOC, n=_OVER, q=0, sigma=0, floors=0,
                                d_floors=[[]], r_floors=[[]], omega_sq=0)),
], ids=["one-term-form", "form-without-components", "family-set", "family"])
def test_documents_stating_a_dimension_past_max_dim_are_refused(tmp_path, capsys,
                                                               command, doc):
    """A decoded n above MAX_DIM exits 2 before any layout is built; the
    packed layout of n takes memory growing as n^2 (140 MB for a 6 KB form
    document at n = 2001)."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    before = _layout.cache_info()
    code, out, err = run(capsys, *[a.format(path=path) for a in command])
    assert (code, out) == (2, "")
    assert f"largest dimension a document may state, {MAX_DIM}" in err
    assert _layout.cache_info().misses == before.misses


def test_build_past_max_dim_is_refused_before_any_work(capsys):
    """build writes only documents that verify reads: an --n above MAX_DIM
    exits 2 before any layout is built."""
    before = _layout.cache_info()
    code, out, err = run(capsys, "build", "--n", str(_OVER), "--q", "0", "--sign", "plus",
                         "--sigma", "0", "--floors", "1")
    assert (code, out) == (2, "")
    assert f"largest dimension a document may state, {MAX_DIM}" in err
    assert _layout.cache_info().misses == before.misses


def test_a_form_at_max_dim_is_decoded():
    n = MAX_DIM
    form = Form.from_obj({"n": n, "q": 0, "components": {"": [
        {"degree": 1, "r_exp": 0, "terms": [{"alpha": [0, 1] + [0] * (n - 2), "coef": "1"}]}]}})
    assert (form.n, len(form.terms)) == (n, 1)


def test_iterate_applies_the_operator_once_per_power(capsys, monkeypatch):
    """The profile chain is built once: the range descriptor is read off it,
    not rebuilt."""
    from towercalc import cli, static_op
    calls, step = [], static_op.apply_L_profile

    def counted(profile, tau=None):
        calls.append(profile.step)
        return step(profile, tau)

    monkeypatch.setattr(cli, "apply_L_profile", counted)
    monkeypatch.setattr(static_op, "apply_L_profile", counted)
    seed = str(ROOT / "perfbench" / "inputs" / "iterate_seed.json")
    for power in (1, 3):
        calls.clear()
        code, out, _ = run(capsys, "iterate", "--n", "3", "--q", "1", "--weight", "15/4",
                           "--power", str(power), "--tau", "10", "--seed", seed)
        assert code == 0 and json.loads(out)["range"]["power"] == power
        assert calls == list(range(power))
