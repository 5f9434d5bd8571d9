import hashlib
import itertools
import json
import os
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from towercalc import harmonic
from towercalc.errors import ConsistencyError, InvalidRankError
from towercalc.forms import Form, coordinate_vectors, sphere_inner_product
from towercalc.harmonic import (SeedSpace, clear_cache, echelon_normalize,
                                harmonic_dimension, mu, seed_basis)
from towercalc.linalg import matrix_rank
from towercalc.ring import QQ, RadialRingElement, reduced_monomials

from oracles import direct_seed_basis, kernel_by_echelon, radial_one_form

# frozen dimension tables; the n=3 middle-rank pattern is 2*sigma + 3
N3_MU = {(0, 0): 1, (0, 1): 0, (0, 2): 0,
         (1, 0): 3, (1, 1): 5, (1, 2): 7, (1, 3): 9,
         (2, 0): 3, (2, 1): 5, (2, 2): 7, (2, 3): 9,
         (3, 0): 1, (3, 1): 0, (3, 2): 0}
N5_MU = {(1, 0): 5, (1, 1): 14, (1, 2): 30,
         (2, 0): 10, (2, 1): 35,
         (3, 0): 10, (4, 0): 5, (0, 0): 1, (5, 0): 1, (0, 1): 0, (5, 1): 0}


@pytest.mark.parametrize("q,sigma", sorted(N3_MU))
def test_dimensions_n3(q, sigma):
    assert mu(3, q, sigma) == N3_MU[(q, sigma)]


@pytest.mark.parametrize("q,sigma", sorted(N5_MU))
def test_dimensions_n5(q, sigma):
    assert mu(5, q, sigma) == N5_MU[(q, sigma)]


@pytest.mark.parametrize("n,sigma_max", [(3, 5), (5, 3), (7, 1)])
def test_closed_form_mu_matches_the_polynomial_kernel(n, sigma_max):
    for q in range(n + 1):
        for sigma in range(sigma_max + 1):
            assert mu(n, q, sigma) == len(harmonic._solve_polynomial(n, q, sigma)), \
                (n, q, sigma)


def test_mu_matches_the_factorial_form():
    for n in range(3, 12, 2):
        for q in range(1, n):
            for sigma in range(60):
                assert mu(n, q, sigma) == (
                    (n + 2 * sigma) * factorial(n + sigma - 1)
                    // (factorial(sigma) * factorial(q - 1) * factorial(n - q - 1)
                        * (sigma + q) * (n + sigma - q))), (n, q, sigma)


def test_mu_at_a_huge_sigma_is_immediate():
    # the factorial form never returns here; mu(5, 2, s) is a cubic in s
    s = 10 ** 9
    assert mu(5, 2, s) == (5 + 2 * s) * (s + 4) * (s + 1) // 2


def test_mu_rejects_what_seed_basis_rejects():
    with pytest.raises(ValueError):
        mu(3, 1, -1)
    with pytest.raises(ValueError):
        mu(4, 1, 0)
    with pytest.raises(InvalidRankError):
        mu(3, 4, 0)


def test_basis_of_the_wrong_dimension_is_a_consistency_error(monkeypatch):
    monkeypatch.delenv("TOWERCALC_CACHE", raising=False)
    monkeypatch.setattr(harmonic, "_CACHE", {})
    monkeypatch.setattr(harmonic, "_solve_polynomial", lambda n, q, degree: [])
    with pytest.raises(ConsistencyError, match="found dim 0, expected 5"):
        seed_basis(3, 1, 1)


def test_rank_one_dimension_matches_harmonic_polynomials():
    # rank-1 seed spaces have the dimension of degree-(sigma+1) harmonics
    for sigma in range(4):
        assert mu(3, 1, sigma) == harmonic_dimension(3, sigma + 1)
    for sigma in range(3):
        assert mu(5, 1, sigma) == harmonic_dimension(5, sigma + 1)


def test_harmonic_dimension_small_values():
    assert harmonic_dimension(3, 0) == 1
    assert harmonic_dimension(3, 1) == 3
    assert harmonic_dimension(3, 2) == 5
    assert harmonic_dimension(5, 2) == 14


@pytest.mark.parametrize("q,sigma", [(1, 0), (1, 2), (2, 1), (2, 0)])
def test_seed_members_are_biclosed_and_homogeneous(q, sigma):
    n = 3
    space = seed_basis(n, q, sigma)           # growing side, degree sigma
    assert space.dim == mu(n, q, sigma)
    for f in space.forms:
        assert f.homogeneous_degree() == sigma
        if q < n:
            assert f.rot().is_zero()
        if q > 0:
            assert f.div().is_zero()


@pytest.mark.parametrize("q,sigma", [(1, 0), (1, 1), (2, 0), (2, 2)])
def test_decaying_seed_members_are_biclosed(q, sigma):
    n = 3
    degree = -sigma - n
    space = seed_basis(n, q, degree)
    assert space.dim == mu(n, q, sigma)
    for f in space.forms:
        assert f.homogeneous_degree() == degree
        assert f.rot().is_zero() and f.div().is_zero()


@pytest.mark.parametrize("q,degree", [(1, 2), (1, -4), (2, 1), (1, -3), (1, -5),
                                      (2, -3), (2, -4), (2, -5)])
def test_strategies_agree(q, degree):
    assert seed_basis(3, q, degree).forms == direct_seed_basis(3, q, degree)


def _descending_coordinate_basis(n, q, sigma):
    """The one-term forms r^(sigma-e) x^beta dx^I (beta reduced, e = |beta| of
    the parity of sigma), in the order of coordinate_vectors, reversed."""
    forms = [Form(n, q, {idx: RadialRingElement(n, {(sigma, sigma - e): {beta: 1}})})
             for idx in itertools.combinations(range(1, n + 1), q)
             for e in range(sigma % 2, sigma + 1, 2) for beta in reduced_monomials(n, e)]
    _, vecs = coordinate_vectors(forms)
    order = sorted(range(len(forms)), key=lambda i: vecs[i].index(1), reverse=True)
    return [forms[i] for i in order]


@given(data=st.data())
def test_kernel_of_operators_matches_the_echelon_route(data):
    """The one-elimination kernel over a descending subset of the coordinate
    basis is the canonical basis that the nullspace-sum-echelon route finds."""
    n = data.draw(st.sampled_from([3, 5]))
    q = data.draw(st.integers(0, n))
    sigma = data.draw(st.integers(0, 3))
    basis = _descending_coordinate_basis(n, q, sigma)
    keep = data.draw(st.lists(st.booleans(), min_size=len(basis), max_size=len(basis)))
    cands = [f for f, k in zip(basis, keep) if k]
    rot_only = [lambda f: f.rot()] if q < n else []
    for ops in (harmonic._biclosed_operators(n, q), rot_only):
        assert harmonic.kernel_of_operators(cands, ops) == kernel_by_echelon(cands, ops)


def test_seed_space_is_echelon_normalized():
    # canonical bases start with a unit leading coefficient per member and
    # rebuilding gives the identical tuple
    space = seed_basis(3, 1, 2)
    again = seed_basis(3, 1, 2)
    assert space.forms == again.forms


def test_empty_spaces_at_extreme_ranks():
    assert seed_basis(3, 0, 2).dim == 0
    assert seed_basis(3, 0, 0).dim == 1           # constants
    assert seed_basis(3, 3, 0).dim == 1           # volume form
    assert seed_basis(3, 3, 2).dim == 0
    assert seed_basis(3, 0, -3).dim == 0          # no decaying scalar seeds
    assert seed_basis(3, 1, -1).dim == 0          # off the degree lattice


def test_ghost_slots_are_one_dimensional():
    # the inverse-power radial form r^-n sum x_i dx^i and its Hodge star
    for n in (3, 5):
        ghost = radial_one_form(n).mul_r_power(-n)
        assert list(seed_basis(n, 1, 1 - n).forms) == echelon_normalize([ghost])
        assert list(seed_basis(n, n - 1, 1 - n).forms) == \
            echelon_normalize([ghost.hodge_star()])


def test_invalid_rank_rejected():
    with pytest.raises(InvalidRankError):
        seed_basis(3, 4, 1)
    with pytest.raises(InvalidRankError):
        seed_basis(3, -1, 1)


def test_gram_matrix_is_nonsingular():
    space = seed_basis(3, 2, 2)
    gram = [[sphere_inner_product(a, b) for b in space.forms] for a in space.forms]
    assert matrix_rank(gram) == space.dim


def test_seed_space_serialization_round_trip():
    space = seed_basis(3, 1, -4)
    again = SeedSpace.from_obj(space.to_obj())
    assert again.forms == space.forms
    assert again.degree == space.degree


def test_disk_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("TOWERCALC_CACHE", str(tmp_path))
    clear_cache()
    space = seed_basis(3, 1, 2)
    files = list(tmp_path.iterdir())
    assert files, "expected a cache file to be written"
    payload = json.loads(files[0].read_text())
    assert payload.get("schema") == "towercalc/1"
    clear_cache()        # drop memory; force the disk path
    again = seed_basis(3, 1, 2)
    assert again.forms == space.forms
    monkeypatch.delenv("TOWERCALC_CACHE")
    clear_cache()


@pytest.mark.parametrize("schema", [7, "nonsense", None, "missing"])
def test_seed_cache_entry_of_another_schema_is_a_miss(tmp_path, monkeypatch, capsys, schema):
    """An entry stating another schema is recomputed and rewritten; one that
    leaves the field out is read."""
    monkeypatch.setenv("TOWERCALC_CACHE", str(tmp_path))
    monkeypatch.setattr(harmonic, "_CACHE", {})
    space = seed_basis(3, 1, 2)
    path = tmp_path / "seeds_n3_q1_h2.json"
    payload = json.loads(path.read_text())
    if schema == "missing":
        del payload["schema"]
    else:
        payload["schema"] = schema
    path.write_text(json.dumps(payload))
    monkeypatch.setattr(harmonic, "_CACHE", {})
    capsys.readouterr()
    assert seed_basis(3, 1, 2).forms == space.forms
    note = capsys.readouterr().err
    if schema == "missing":
        assert note == ""
        assert "schema" not in json.loads(path.read_text())
    else:
        assert "unreadable" in note
        assert json.loads(path.read_text())["schema"] == "towercalc/1"


@pytest.mark.parametrize("edit", ["row-1-plus-row-2", "rows-swapped"])
def test_seed_cache_entry_not_in_echelon_form_is_a_miss(tmp_path, monkeypatch, capsys, edit):
    """An entry holding a basis of the right space that is not the reduced
    row-echelon basis is recomputed and rewritten."""
    monkeypatch.setenv("TOWERCALC_CACHE", str(tmp_path))
    monkeypatch.setattr(harmonic, "_CACHE", {})
    space = seed_basis(3, 1, 2)
    path = tmp_path / "seeds_n3_q1_h2.json"
    forms = list(space.forms)
    if edit == "row-1-plus-row-2":
        forms[0] = forms[0] + forms[1]
    else:
        forms[0], forms[1] = forms[1], forms[0]
    path.write_text(json.dumps(SeedSpace(3, 1, 2, tuple(forms)).to_obj()))
    monkeypatch.setattr(harmonic, "_CACHE", {})
    capsys.readouterr()
    assert seed_basis(3, 1, 2).forms == space.forms
    assert "unreadable" in capsys.readouterr().err
    assert json.loads(path.read_text()) == space.to_obj()


@given(data=st.data())
def test_echelon_shape_check_agrees_with_echelon_normalize(data):
    """_is_echelon holds exactly on the lists that echelon_normalize leaves
    as they are: drawn from seed bases, their sums and their scalings."""
    n = data.draw(st.sampled_from([3, 5]))
    basis = list(seed_basis(n, 1, 1).forms)
    picks = data.draw(st.lists(st.sampled_from(range(len(basis))), min_size=1, max_size=4))
    forms = [basis[i] for i in picks]
    if data.draw(st.booleans()):
        i, j = data.draw(st.tuples(*[st.integers(0, len(forms) - 1)] * 2))
        forms[i] = forms[i] + forms[j].scale(data.draw(st.sampled_from([1, -2, QQ(1, 3)])))
    if data.draw(st.booleans()):
        forms[0] = forms[0].scale(data.draw(st.sampled_from([2, QQ(-1, 2)])))
    forms = [f for f in forms if not f.is_zero()]
    if forms:
        assert harmonic._is_echelon(forms) == (echelon_normalize(forms) == forms)


def test_only_polynomial_spaces_are_cached_on_disk(tmp_path, monkeypatch):
    # counts solve nothing; decaying and ghost spaces are built, not stored
    monkeypatch.setenv("TOWERCALC_CACHE", str(tmp_path))
    monkeypatch.setattr(harmonic, "_CACHE", {})
    assert mu(9, 4, 6) == 160524
    assert seed_basis(3, 1, -4).dim == 5 and seed_basis(3, 1, -2).dim == 1
    assert sorted(f.name for f in tmp_path.iterdir()) == ["seeds_n3_q1_h1.json"]


SEED_SPACE_DIGESTS = Path(__file__).with_name("seed_space_digests.json")


def test_seed_space_bytes_are_pinned(monkeypatch):
    """sha256 of the JSON of every seed space (every rank; degrees sigma,
    -sigma-n and 1-n) at n=3 sigma <= 5 and n=5 sigma <= 3, and of the
    polynomial ones (degree sigma) at n=7 sigma <= 2, solved cold.  The n=3
    and n=5 digests were taken from the part-table ring and the n=7 ones from
    the monomial-candidate kernel: the coordinate order of
    forms.coordinate_vectors fixes each canonical basis, so these bytes guard
    it."""
    monkeypatch.delenv("TOWERCALC_CACHE", raising=False)
    monkeypatch.setattr(harmonic, "_CACHE", {})
    got = {}
    for n, sigma_max, decaying in ((3, 5, True), (5, 3, True), (7, 2, False)):
        degrees = set(range(sigma_max + 1))
        if decaying:
            degrees |= {1 - n} | {-s - n for s in range(sigma_max + 1)}
        for q in range(n + 1):
            for degree in sorted(degrees):
                text = json.dumps(seed_basis(n, q, degree).to_obj())
                got[f"n{n}_q{q}_d{degree}"] = hashlib.sha256(text.encode()).hexdigest()
    want = json.loads(SEED_SPACE_DIGESTS.read_text())
    assert sorted(k for k in want if got.get(k) != want[k]) == []
    assert got.keys() == want.keys()
