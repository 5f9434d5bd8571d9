"""Seed spaces: homogeneous bi-closed forms of a given rank and degree.

A *seed* is a form that is simultaneously rot-closed and div-closed (with the
grade-underflow/overflow convention that the missing condition at rank 0 / n
is vacuous).  Seeds of coefficient degree sigma >= 0 have polynomial
coefficients; the matching decaying seeds live at degree -sigma-n.  Between
those two ranges the only nonzero spaces sit at degree 1-n, ranks 1 and n-1,
each one-dimensional (the inverse-power radial form and its Hodge dual).

Bases are canonical: the reduced-row-echelon basis of the solution space in
the fixed coordinate order of forms.coordinate_vectors, so any solver that
finds the same space returns the identical basis.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
from dataclasses import dataclass
from math import comb

from .errors import (DECODE_ERRORS, ConsistencyError, InvalidRankError,
                     require_int, require_odd_dimension)
from .forms import Form, R_op, T_op, coordinate_vectors, radial_one_form
from .linalg import nullspace, rref
from .ring import QQ, RadialRingElement, monomials

_Q0 = QQ(0)


# ---------------------------------------------------------------------------
# coordinate helpers
# ---------------------------------------------------------------------------

def form_from_coordinates(n: int, q: int, keys: list, vec: list) -> Form:
    """Inverse of coordinate_vectors for a single vector."""
    raw: dict = {}
    for (idx, d, b, alpha), c in zip(keys, vec):
        if not c:
            continue
        parts = raw.setdefault(idx, {})
        poly = parts.setdefault((d, b), {})
        poly[alpha] = poly.get(alpha, _Q0) + c
    comps = {idx: RadialRingElement(n, parts, _canonical=True)
             for idx, parts in raw.items()}
    return Form(n, q, comps)


def echelon_normalize(forms: list) -> list:
    """Canonical basis (RREF rows) of the span of the given forms."""
    forms = [f for f in forms if not f.is_zero()]
    if not forms:
        return []
    n, q = forms[0].n, forms[0].q
    keys, vecs = coordinate_vectors(forms)
    red, _ = rref(vecs)
    return [form_from_coordinates(n, q, keys, row) for row in red]


def kernel_of_operators(candidates: list, operators: list) -> list:
    """Canonical basis of {F in span(candidates) : op(F) = 0 for all ops}.

    operators are callables Form -> Form.
    """
    candidates = [c for c in candidates if not c.is_zero()]
    if not candidates:
        return []
    rows = []
    for op in operators:
        images = [op(c) for c in candidates]
        _, vecs = coordinate_vectors(images)
        if vecs and vecs[0]:
            for row in zip(*vecs):
                rows.append(list(row))
    combos = nullspace(rows, ncols=len(candidates))
    kernel = []
    for v in combos:
        total = Form.zero(candidates[0].n, candidates[0].q)
        for c, cand in zip(v, candidates):
            if c:
                total = total + cand.scale(c)
        kernel.append(total)
    return echelon_normalize(kernel)


def _biclosed_operators(n: int, q: int) -> list:
    ops = []
    if q < n:
        ops.append(lambda f: f.rot())
    if q > 0:
        ops.append(lambda f: f.div())
    return ops


# ---------------------------------------------------------------------------
# seed spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeedSpace:
    """Canonical basis of the bi-closed homogeneous forms of one (rank, degree)."""

    n: int
    q: int
    degree: int
    forms: tuple = ()

    @property
    def dim(self) -> int:
        return len(self.forms)

    def to_obj(self) -> dict:
        return {"schema": "towercalc/1", "kind": "seed_space", "n": self.n,
                "q": self.q, "degree": self.degree,
                "forms": [f.to_obj() for f in self.forms]}

    @classmethod
    def from_obj(cls, obj: dict) -> "SeedSpace":
        forms = tuple(Form.from_obj(o) for o in obj["forms"])
        return cls(require_int(obj["n"], "n"), require_int(obj["q"], "q"),
                   require_int(obj["degree"], "degree"), forms)


_CACHE: dict = {}
_CACHE_LOCK = threading.Lock()


def _disk_cache_path(n: int, q: int, degree: int):
    root = os.environ.get("TOWERCALC_CACHE")
    if not root:
        return None
    return os.path.join(root, f"seeds_n{n}_q{q}_h{degree}.json")


def _load_cached(path: str, key: tuple):
    """The seed space stored at path, or None when the file does not parse
    or does not hold the (n, q, degree) space of its key."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
        space = SeedSpace.from_obj(obj)
        ok = obj["kind"] == "seed_space" and (space.n, space.q, space.degree) == key \
            and all((f.n, f.q, f.homogeneous_degree()) == key for f in space.forms)
    except (OSError, *DECODE_ERRORS):
        return None
    return space if ok else None


def clear_cache() -> None:
    with _CACHE_LOCK:
        _CACHE.clear()


def _polynomial_candidates(n: int, q: int, degree: int) -> list:
    tuples = list(itertools.combinations(range(1, n + 1), q))
    cands = []
    for idx in tuples:
        for alpha in monomials(n, degree):
            cands.append(Form(n, q, {idx: RadialRingElement.from_poly(n, {alpha: 1})}))
    return cands


def _solve_polynomial(n: int, q: int, degree: int) -> list:
    return kernel_of_operators(_polynomial_candidates(n, q, degree),
                               _biclosed_operators(n, q))


def _solve_decaying(n: int, q: int, sigma: int) -> list:
    """Seeds at degree -sigma-n for 1 <= q <= n-1.

    Candidates: inverse-power partners r^b X and r^(b-2) R T X of the
    polynomial seeds X at degree sigma (the span is closed under the radial
    ladder, so the decaying seeds must lie inside it).  The kernel dimension
    must match the polynomial side; anything else is an internal error.
    """
    plus = seed_basis(n, q, sigma)
    if plus.dim == 0:
        return []
    b = -2 * sigma - n
    cands = []
    for x in plus.forms:
        cands.append(x.mul_r_power(b))
        rt = R_op(T_op(x))
        if not rt.is_zero():
            cands.append(rt.mul_r_power(b - 2))
    kernel = kernel_of_operators(cands, _biclosed_operators(n, q))
    if len(kernel) != plus.dim:
        raise ConsistencyError(
            f"decaying seed space at n={n} q={q} degree={-sigma - n}: "
            f"found dim {len(kernel)}, expected {plus.dim}")
    return kernel


def _inverse_radial_ghost(n: int) -> Form:
    """The bi-closed rank-1 form r^-n sum x_i dx^i (degree 1-n)."""
    return radial_one_form(n).mul_r_power(-n)


def seed_basis(n: int, q: int, degree: int) -> SeedSpace:
    """Canonical basis of bi-closed homogeneous rank-q forms of one degree.

    The solve dispatches on the degree: a polynomial kernel for
    degree >= 0, the radial-partner kernel for degree <= -n, explicit forms
    at the two inverse-power slots, and the empty space otherwise.
    """
    require_odd_dimension(n)
    if not 0 <= q <= n:
        raise InvalidRankError(f"rank {q} outside 0..{n}")

    key = (n, q, degree)
    with _CACHE_LOCK:
        if key in _CACHE:
            return _CACHE[key]
    path = _disk_cache_path(n, q, degree)
    if path and os.path.exists(path):
        space = _load_cached(path, key)
        if space is not None:
            with _CACHE_LOCK:
                _CACHE[key] = space
            return space
        print(f"note: seed cache entry {path} is unreadable or not the "
              f"n={n} q={q} degree={degree} space; recomputing it", file=sys.stderr)

    if degree >= 0:
        forms = _solve_polynomial(n, q, degree)
    elif degree <= -n and 1 <= q <= n - 1:
        forms = _solve_decaying(n, q, -degree - n)
    elif degree == 1 - n and q == 1:
        forms = echelon_normalize([_inverse_radial_ghost(n)])
    elif degree == 1 - n and q == n - 1:
        forms = echelon_normalize([_inverse_radial_ghost(n).hodge_star()])
    else:
        forms = []
    space = SeedSpace(n, q, degree, tuple(forms))

    with _CACHE_LOCK:
        _CACHE[key] = space
    if path:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(space.to_obj(), fh)
        os.replace(tmp, path)
    return space


def mu(n: int, q: int, sigma: int) -> int:
    """Seed multiplicity: dim of the polynomial seed space at degree sigma.

    Defined for 0 <= q <= n and sigma >= 0.  The decaying side at degree
    -sigma-n has the same dimension for 1 <= q <= n-1 and dimension 0 at the
    extreme ranks.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    return seed_basis(n, q, sigma).dim


def harmonic_dimension(n: int, degree: int) -> int:
    """dim of homogeneous harmonic polynomials (binomial formula)."""
    if degree < 0:
        return 0
    if degree == 0:
        return 1
    return comb(n + degree - 1, n - 1) - comb(n + degree - 3, n - 1)

