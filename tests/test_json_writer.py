"""cli._emit_json writes the text of json.dumps(indent=2, sort_keys=True)
byte for byte (oracles.indented_json), on random JSON trees and on one real
document of each kind the CLI writes."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from oracles import indented_json
from towercalc.cli import _emit_json, main

ROOT = Path(__file__).resolve().parents[1]
INPUTS = ROOT / "perfbench" / "inputs"


def emitted(obj) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _emit_json(None, obj)
    return buf.getvalue()


_STRINGS = st.one_of(
    st.text(),
    st.sampled_from(["", '"', "\\", "\\\"", "a\"b\\c", "\x00", "\x1f", "\x7f",
                     "\t\n\r\b\f", "é", " ", "\ud800", "\U0001f600", "/"]))
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.floats(), _STRINGS,
    st.integers(), st.integers(-10 ** 200, 10 ** 200),
    st.sampled_from([10 ** 199, -10 ** 199 - 7]))
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(st.integers(-10 ** 200, 10 ** 200), max_size=5),
        st.dictionaries(_STRINGS, children, max_size=5)),
    max_leaves=40)


@given(_TREES)
@example({"a": {}, "b": [[], {}, ()], "c": [{"d": [[[]]]}], "e": {"f": {"g": {}}}})
@example([1, -2, 10 ** 200, True, 0])
@example([[1, 2], (3,), [True], [1.5], [None]])
def test_writer_matches_json_on_random_trees(tree):
    assert emitted(tree) == indented_json(tree)


@pytest.mark.parametrize("obj", [{1: "x"}, {"a": {None: 1}}, [{("k",): 2}]],
                         ids=["int-key", "nested-none-key", "tuple-key"])
def test_writer_refuses_a_key_that_is_not_a_str(obj):
    with pytest.raises(TypeError):
        emitted(obj)


@pytest.mark.parametrize("argv", [
    ["build", "--n", "3", "--q", "1", "--sign", "both", "--sigma-max", "1",
     "--floors", "2"],
    ["expand", "--input", str(INPUTS / "pair.json"), "--floors", "3", "--weight", "7/4"],
    ["classify", "--input", str(INPUTS / "form.json"), "--weight", "0"],
    ["iterate", "--n", "3", "--q", "1", "--weight", "15/4", "--power", "3",
     "--tau", "10", "--seed", str(INPUTS / "iterate_seed.json")],
], ids=["tower_family_set", "expansion-membership", "classification", "iteration"])
def test_writer_matches_json_on_each_document_kind(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["kind"] == {"build": "tower_family_set", "expand": "expansion",
                           "classify": "classification", "iterate": "iteration"}[argv[0]]
    assert argv[0] != "expand" or "membership" in doc
    assert out == indented_json(doc)
