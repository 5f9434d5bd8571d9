"""Seed spaces: homogeneous bi-closed forms of a given rank and degree.

A *seed* is a form that is simultaneously rot-closed and div-closed (with the
grade-underflow/overflow convention that the missing condition at rank 0 / n
is vacuous).  Seeds of coefficient degree sigma >= 0 have polynomial
coefficients; the matching decaying seeds live at degree -sigma-n and are
their Kelvin images.  Between those two ranges the only nonzero spaces sit at
degree 1-n, ranks 1 and n-1, each one-dimensional (the inverse-power radial
form and its Hodge dual).  Dimensions come from the closed form mu; only the
polynomial seeds are found by a kernel solve.

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

from .errors import (DECODE_ERRORS, SCHEMA, ConsistencyError, InvalidRankError,
                     require_int, require_odd_dimension, require_schema)
from .forms import Form, R_op, T_op, _field, coordinate_vectors
from .linalg import rref
from .ring import QQ, RadialRingElement, _layout, reduced_monomials

_Q1 = QQ(1)


# ---------------------------------------------------------------------------
# coordinate helpers
# ---------------------------------------------------------------------------

def echelon_normalize(forms: list) -> list:
    """Canonical basis (RREF rows) of the span of the given forms."""
    forms = [f for f in forms if not f.is_zero()]
    if not forms:
        return []
    n, q = forms[0].n, forms[0].q
    keys, vecs = coordinate_vectors(forms)
    red, _ = rref(vecs)
    return [Form._from_coordinates(n, q, {key: c for key, c in zip(keys, row) if c})
            for row in red]


def _is_echelon(forms: list) -> bool:
    """Whether nonzero forms are a reduced row-echelon basis in coordinate
    order, checked in one scan: each form's first coordinate has
    coefficient 1, the first coordinates increase strictly from form to
    form, and each of them is absent from every other form."""
    leads = [min(f.terms) for f in forms]
    lead_set = set(leads)
    return (all(f.terms[k] == f.den for f, k in zip(forms, leads))
            and all(a < b for a, b in zip(leads, leads[1:]))
            and all(len(lead_set.intersection(f.terms)) == 1 for f in forms))


def kernel_of_operators(candidates: list, operators: list) -> list:
    """Canonical basis of {F in span(candidates) : op(F) = 0 for all ops}.

    candidates are one-term forms with coefficient 1 in descending coordinate
    order (the order of coordinate_vectors, reversed); operators are callables
    Form -> Form.  Each free column j of the constraints' RREF gives the
    kernel vector {j: 1, p: -RREF[row of p][j] for each pivot column p}.
    Every row of an RREF is zero left of its pivot, so that vector is
    otherwise nonzero only at pivot unknowns of larger coordinates: read in
    reverse, the vectors are the reduced-row-echelon basis in coordinate
    order.  Each is built as a form from its nonzero entries only.
    """
    if not candidates:
        return []
    n, q = candidates[0].n, candidates[0].q
    keys = [key for c in candidates for key in c.terms]
    rows = []
    for op in operators:
        _, vecs = coordinate_vectors([op(c) for c in candidates])
        if vecs and vecs[0]:
            rows.extend(list(row) for row in zip(*vecs))
    red, pivots = rref(rows)
    vectors = {j: {key: _Q1} for j, key in enumerate(keys)}
    for p in pivots:
        del vectors[p]
    for row, p in zip(red, pivots):
        # off its pivot, an RREF row is nonzero only at free columns
        for j in range(p + 1, len(row)):
            if row[j]:
                vectors[j][keys[p]] = -row[j]
    return [Form._from_coordinates(n, q, vectors[j]) for j in reversed(vectors)]


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
        return {"schema": SCHEMA, "kind": "seed_space", "n": self.n,
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
    """Where the space is cached on disk, if anywhere.  Only the polynomial
    spaces, which take a kernel solve, are: the others are cheaper to build
    from them than to load and check."""
    root = os.environ.get("TOWERCALC_CACHE")
    if not root or degree < 0:
        return None
    return os.path.join(root, f"seeds_n{n}_q{q}_h{degree}.json")


def _load_cached(path: str, key: tuple, dim: int):
    """The seed space stored at path, or None when the file does not parse,
    states another schema, or does not hold the canonical basis of the
    (n, q, degree) space of its key: dim bi-closed forms of that shape, in
    reduced row-echelon form (_is_echelon)."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
        require_schema(obj)
        space = SeedSpace.from_obj(obj)
        forms = space.forms
        ok = (obj["kind"] == "seed_space" and (space.n, space.q, space.degree) == key
              and len(forms) == dim
              and all((f.n, f.q, f.homogeneous_degree()) == key for f in forms)
              and all(op(f).is_zero() for op in _biclosed_operators(*key[:2])
                      for f in forms)
              and _is_echelon(forms))
    except (OSError, *DECODE_ERRORS):
        return None
    return space if ok else None


def clear_cache() -> None:
    with _CACHE_LOCK:
        _CACHE.clear()


def _solve_polynomial(n: int, q: int, degree: int) -> list:
    """Seeds at degree >= 0: the kernel over the coordinate basis of the
    rank-q forms, r^(degree-e) x^beta dx^I with beta reduced and e = |beta| of
    the parity of degree, in descending coordinate order."""
    layout = _layout(n)
    coords = sorted(((_field(idx, n) << layout.sc) + layout.pack(degree, degree - e, beta)
                     for idx in itertools.combinations(range(1, n + 1), q)
                     for e in range(degree % 2, degree + 1, 2)
                     for beta in reduced_monomials(n, e)), reverse=True)
    return kernel_of_operators([Form._make(n, q, {key: 1}, 1) for key in coords],
                               _biclosed_operators(n, q))


def _solve_decaying(n: int, q: int, sigma: int) -> list:
    """Seeds at degree -sigma-n for 1 <= q <= n-1: the Kelvin images

        X -> r^b X + b/(sigma+q) r^(b-2) R_op(T_op(X)),   b = -(2 sigma + n),

    of the polynomial seeds X at degree sigma.  rot(r^b F) = r^b rot F +
    b r^(b-2) R_op(F), rot R_op = -R_op rot and rot T_op(X) = (sigma+q) X
    make the image's rot (b - b) r^(b-2) R_op(X); its div is likewise
    (b - b) r^(b-2) T_op(X).  The map is injective, so the images span the
    decaying space.
    """
    b = -2 * sigma - n
    c = QQ(b, sigma + q)
    return echelon_normalize([x.mul_r_power(b) + R_op(T_op(x)).mul_r_power(b - 2).scale(c)
                              for x in seed_basis(n, q, sigma).forms])


def _dimension(n: int, q: int, degree: int) -> int:
    """dim of the seed space at (n, q, degree): mu of the growing degree on
    both sides, 1 at the two inverse-power slots, 0 elsewhere."""
    if degree >= 0:
        return mu(n, q, degree)
    if degree <= -n:
        return mu(n, q, -degree - n) if 1 <= q <= n - 1 else 0
    return 1 if degree == 1 - n and q in (1, n - 1) else 0


def seed_basis(n: int, q: int, degree: int) -> SeedSpace:
    """Canonical basis of bi-closed homogeneous rank-q forms of one degree.

    The solve dispatches on the degree: a polynomial kernel for
    degree >= 0, the Kelvin images of the polynomial seeds for degree <= -n,
    R_op(r^-n) at rank 1 and T_op(r^-n dx^1..n) at rank n-1 for degree 1-n,
    and the empty space where _dimension is 0.  A basis of any other size
    than _dimension is a ConsistencyError.
    """
    require_odd_dimension(n)
    if not 0 <= q <= n:
        raise InvalidRankError(f"rank {q} outside 0..{n}")

    key = (n, q, degree)
    with _CACHE_LOCK:
        if key in _CACHE:
            return _CACHE[key]
    dim = _dimension(n, q, degree)
    path = _disk_cache_path(n, q, degree)
    if path and os.path.exists(path):
        space = _load_cached(path, key, dim)
        if space is not None:
            with _CACHE_LOCK:
                _CACHE[key] = space
            return space
        print(f"note: seed cache entry {path} is unreadable or not the "
              f"n={n} q={q} degree={degree} space; recomputing it", file=sys.stderr)

    if degree >= 0:
        forms = _solve_polynomial(n, q, degree)
    elif not dim:
        forms = []
    elif degree <= -n:
        forms = _solve_decaying(n, q, -degree - n)
    else:
        ghost = RadialRingElement.r_power(n, -n)
        forms = [R_op(Form.from_scalar(ghost)) if q == 1
                 else T_op(Form.dx(n, range(1, n + 1), ghost))]
    if len(forms) != dim:
        raise ConsistencyError(f"seed space at n={n} q={q} degree={degree}: "
                               f"found dim {len(forms)}, expected {dim}")
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
    """Seed multiplicity: dim of the polynomial seed space at degree sigma >= 0,

        (n+2 sigma) (n+sigma-1)! / (sigma! (q-1)! (n-q-1)! (sigma+q) (n+sigma-q))

    for 1 <= q <= n-1 (the O(n)-module of highest weight (sigma+1, 1^(q-1)),
    Ikeda-Taniguchi 1978), and [sigma = 0] at q in {0, n}.  The factorials
    are taken as binomials, whose cost grows with n, not with sigma.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    require_odd_dimension(n)
    if not 0 <= q <= n:
        raise InvalidRankError(f"rank {q} outside 0..{n}")
    if q in (0, n):
        return 1 if sigma == 0 else 0
    return ((n + 2 * sigma) * (n - 1) * comb(n - 2, q - 1) * comb(n + sigma - 1, sigma)
            // ((sigma + q) * (n + sigma - q)))


def harmonic_dimension(n: int, degree: int) -> int:
    """dim of homogeneous harmonic polynomials (binomial formula)."""
    if degree < 0:
        return 0
    if degree == 0:
        return 1
    return comb(n + degree - 1, n - 1) - comb(n + degree - 3, n - 1)

