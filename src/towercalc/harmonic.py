"""Seed spaces: homogeneous bi-closed forms of a given rank and degree.

A *seed* is a form that is simultaneously rot-closed and div-closed (with the
grade-underflow/overflow convention that the missing condition at rank 0 / n
is vacuous).  Seeds of coefficient degree sigma >= 0 have polynomial
coefficients; the matching decaying seeds live at degree -sigma-n and are
their Kelvin images.  Between those two ranges the only nonzero spaces sit at
degree 1-n, ranks 1 and n-1, each one-dimensional (the inverse-power radial
form and its Hodge dual).  Dimensions come from the closed form mu; only the
polynomial seeds are found by a kernel solve.

Bases are canonical: the reduced-row-echelon basis of the solution space,
taking the integer order of the forms' term keys as the coordinate order
(see forms.py), so any solver that finds the same space returns the
identical basis.

Every space is computed in process on its first request and memoised for
the life of the process (clear_cache drops them); none is read from or
written to disk, since the sparse solve costs less than loading a stored
basis and checking it.
"""

from __future__ import annotations

import itertools
import threading
from math import comb, lcm

from .errors import (SCHEMA, ConsistencyError, InvalidRankError, require_int,
                     require_odd_dimension)
from .forms import Form, R_op, T_op, _field
from .linalg import rref
from .records import FrozenRecord
from .ring import QQ, RadialRingElement, _layout, reduced_monomials


# ---------------------------------------------------------------------------
# elimination over spans of forms
# ---------------------------------------------------------------------------

def echelon_normalize(forms: list) -> list:
    """Canonical basis (RREF rows) of the span of the given forms: one rref
    of their term tables, whose rows are the basis forms over their pivot
    entries."""
    if not forms:
        return []
    n, q = forms[0].n, forms[0].q
    red, pivots = rref([f.terms for f in forms])
    return [Form._make(n, q, row, row[p]) for row, p in zip(red, pivots)]


def kernel_of_operators(candidates: list, operators: list) -> list:
    """Canonical basis of {F in span(candidates) : op(F) = 0 for all ops}.

    candidates are one-term forms with coefficient 1 in descending key
    order; operators are callables Form -> Form.  Each key of an operator's
    images is one constraint row over the candidate indices, over the lcm of
    its denominators.  Each free column j of the constraints' RREF gives the
    kernel vector {j: 1, p: -RREF[row of p][j] for each pivot column p}.
    Every row of an RREF is zero left of its pivot, so that vector is
    otherwise nonzero only at pivot unknowns of larger keys: read in
    reverse, the vectors are the reduced-row-echelon basis in key order.
    """
    if not candidates:
        return []
    n, q = candidates[0].n, candidates[0].q
    keys = [key for c in candidates for key in c.terms]
    rows = []
    for op in operators:
        images: dict = {}
        for j, c in enumerate(candidates):
            image = op(c)
            for key, v in image.terms.items():
                images.setdefault(key, []).append((j, v, image.den))
        for entries in images.values():
            den = lcm(*(d for _, _, d in entries))
            rows.append({j: v * (den // d) for j, v, d in entries})
    red, pivots = rref(rows)
    vectors = {j: [] for j in range(len(keys))}
    for p in pivots:
        del vectors[p]
    for row, p in zip(red, pivots):
        # off its pivot, an RREF row is nonzero only at free columns
        for j, v in row.items():
            if j != p:
                vectors[j].append((keys[p], v, row[p]))
    forms = []
    for j in reversed(vectors):
        den = lcm(*(d for _, _, d in vectors[j]))
        table = {key: -v * (den // d) for key, v, d in vectors[j]}
        table[keys[j]] = den
        forms.append(Form._from_table(n, q, table, den))
    return forms


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

class SeedSpace(FrozenRecord):
    """Canonical basis of the bi-closed homogeneous forms of one (rank, degree)."""

    _fields = ("n", "q", "degree", "forms")

    def __init__(self, n: int, q: int, degree: int, forms: tuple = ()):
        self._freeze(n=n, q=q, degree=degree, forms=forms)

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
    """Always None: seed spaces are only memoised in process.  The benchmark's
    tracer still calls this to tell disk hits from solves; the stub goes when
    the tracer stops calling it (ROADMAP direction 1)."""
    return None


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

