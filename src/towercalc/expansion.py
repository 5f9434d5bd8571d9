"""Expansion of static pairs over tower members, with weighted membership.

A static pair (E, H) of ranks (q, q+1) satisfies div E = 0 (q >= 1),
rot H = 0 (q+1 <= n-1) and is annihilated by a power of the coupled map
M(E, H) = (div H, rot E).  Such pairs decompose exactly into tower members
of floors <= K-1 (both signs) plus at most one exceptional bootstrapped
member per side at height K.  The decomposition is computed degree by degree
through exact sphere-Gram solves; a nonzero residual means the input was not
a static pair of the stated height.

The Gram matrix of one degree is block-diagonal.  The members of one
(sign, k, sigma) block span one copy of an irreducible O(n)-module; the
sphere pairing is O(n)-invariant and R, T and r^2 are equivariant, so by
Schur's lemma members of different blocks are orthogonal (+ and - blocks of
one degree included).  Each degree is therefore solved block by block.  A
TowerContext computes each block's members, its Gram and the Gram's exact
inverse, an integer matrix over one denominator, once
(TowerContext.block, block_gram, block_inverse); a call computes only the
right-hand sides <piece, member>, and each block's coefficients are the
inverse times them, with no elimination.  Products are memoised per form
(forms.sphere_inner_product): a cached member keeps its pairing with every
monomial it has met, as an integer, so a right-hand side costs one lookup
and one integer multiply-add per term of the piece.  The exceptional slot is
not one of the candidates: the context checks once that its products with
them are exactly 0 and keeps its 1x1 Gram (TowerContext.hat_gram), and each
call solves it as a block of its own.  tests/oracles.py keeps the full-Gram
solve, the per-call solve of each block and the Fraction and uncached
products.
"""

from __future__ import annotations

from itertools import groupby

from .errors import SCHEMA, require_int
from .forms import Form, sphere_inner_product
from .indices import enumerate_excluded, in_weighted_l2, shift_index
from .linalg import inverse_times, solve_posdef
from .records import Record
from .ring import QQ, qq, qq_str
from .towers import ExceptionalFormDescriptor, TowerContext, exceptional_form

_Q0 = QQ(0)


class MaxwellPair(Record):
    """A rank-(q, q+1) pair of forms on the same space."""

    _fields = ("e", "h")

    def __init__(self, e: Form, h: Form):
        if e.n != h.n:
            raise ValueError("mixed dimensions in pair")
        if h.q != e.q + 1:
            raise ValueError(f"pair ranks must be (q, q+1), got ({e.q}, {h.q})")
        self.e, self.h = e, h

    @property
    def n(self) -> int:
        return self.e.n

    @property
    def q(self) -> int:
        return self.e.q

    def to_obj(self) -> dict:
        return {"schema": SCHEMA, "kind": "maxwell_pair", "n": self.n,
                "q": self.q, "e": self.e.to_obj(), "h": self.h.to_obj()}

    @classmethod
    def from_obj(cls, obj: dict) -> "MaxwellPair":
        """Decode a stored pair; its kind must be maxwell_pair and its n, q
        those of the stored forms."""
        pair = cls(Form.from_obj(obj["e"]), Form.from_obj(obj["h"]))
        if obj.get("kind") != "maxwell_pair" or \
                (require_int(obj["n"], "n"), require_int(obj["q"], "q")) != (pair.n, pair.q):
            raise ValueError("the maxwell_pair header disagrees with its forms")
        return pair


def maxwell_map(pair: MaxwellPair) -> MaxwellPair:
    """M(E, H) = (div H, rot E); keeps the (q, q+1) shape."""
    return MaxwellPair(pair.h.div(), pair.e.rot())


def iterated_maxwell_check(pair: MaxwellPair, k: int) -> dict:
    """Is the pair static of height k?  (M^k = 0 plus the line constraints.)"""
    div_e_zero = pair.q == 0 or pair.e.div().is_zero()
    rot_h_zero = pair.h.q == pair.n or pair.h.rot().is_zero()
    cur = pair
    first_zero = None
    for step in range(1, k + 1):
        cur = maxwell_map(cur)
        if cur.e.is_zero() and cur.h.is_zero():
            first_zero = step
            break
    m_power_zero = first_zero is not None
    return {"passed": bool(div_e_zero and rot_h_zero and m_power_zero),
            "div_e_zero": div_e_zero, "rot_h_zero": rot_h_zero,
            "m_power_zero": m_power_zero, "first_zero_power": first_zero}


# ---------------------------------------------------------------------------
# candidates
# ---------------------------------------------------------------------------

def tower_candidates(ctx: TowerContext, rank: int, line: str, degree: int,
                     k_max: int) -> list:
    """All resolvable (index, member) of one rank/line at one coefficient
    degree with floor <= k_max, in deterministic order
    (TowerContext.candidates)."""
    return ctx.candidates(rank, line, degree, k_max)


class SideExpansion(Record):
    """One side of an expansion: tower coefficients plus the exceptional slot.
    hat_coeff is a QQ when the slot exists, else None."""

    _fields = ("coeffs", "hat_descriptor", "hat_coeff", "residual", "exact")

    def __init__(self, coeffs: dict | None = None, hat_descriptor=None,
                 hat_coeff=None, residual: Form | None = None, exact: bool = True):
        self.coeffs = {} if coeffs is None else coeffs
        self.hat_descriptor, self.hat_coeff = hat_descriptor, hat_coeff
        self.residual, self.exact = residual, exact


def _expand_side(form: Form, rank: int, line: str, k_max: int,
                 ctx: TowerContext,
                 hat: ExceptionalFormDescriptor | None) -> SideExpansion:
    """Degree-by-degree sphere-Gram expansion of one form: each block's
    coefficients are its cached inverse Gram times the right-hand sides, and
    the exceptional slot, checked orthogonal to the tower members once per
    context, is solved as a 1x1 block of its own."""
    n = ctx.n
    side = SideExpansion(residual=Form.zero(n, form.q))
    degrees = set(form.coefficient_degrees())
    hat_form = hat_degree = None
    if hat is not None and not hat.is_zero:
        hat_form = hat.resolve(ctx)
        hat_degree = hat_form.homogeneous_degree()
        degrees.add(hat_degree)
        side.hat_descriptor = hat
        side.hat_coeff = _Q0
    pieces = form.homogeneity_split()
    for degree in sorted(degrees):
        piece = pieces.get(degree, Form.zero(n, form.q))
        rem = piece
        for key, members in groupby(tower_candidates(ctx, rank, line, degree, k_max),
                                    key=lambda c: (c[0].sign, c[0].k, c[0].sigma)):
            members = list(members)
            rhs = [sphere_inner_product(piece, f) for _, f in members]
            if not any(rhs):
                continue
            coeffs = inverse_times(ctx.block_inverse(rank, line, *key), rhs)
            for (idx, f), c in zip(members, coeffs):
                if c:
                    rem = rem - f.scale(c)
                    side.coeffs[idx] = c
        if degree == hat_degree:
            gram = ctx.hat_gram(hat, rank, line, k_max)
            rhs = [sphere_inner_product(piece, hat_form)]
            if rhs[0]:
                side.hat_coeff, = solve_posdef(gram, rhs)
                rem = rem - hat_form.scale(side.hat_coeff)
        side.residual = side.residual + rem
    side.exact = side.residual.is_zero()
    return side


class ExpansionResult(Record):
    """Both sides of the expansion of a rank-(q, q+1) pair over floors <= k_max."""

    _fields = ("n", "q", "k_max", "e_side", "h_side")

    def __init__(self, n: int, q: int, k_max: int, e_side: SideExpansion,
                 h_side: SideExpansion):
        self.n, self.q, self.k_max = n, q, k_max
        self.e_side, self.h_side = e_side, h_side

    @property
    def exact(self) -> bool:
        return self.e_side.exact and self.h_side.exact

    def reconstruct(self, ctx: TowerContext) -> MaxwellPair:
        """Rebuild the tower part (coefficients + exceptional slots)."""
        forms = []
        for rank, line, side in ((self.q, "D", self.e_side),
                                 (self.q + 1, "R", self.h_side)):
            form = ctx.combine(rank, line, side.coeffs)
            if side.hat_coeff:
                form = form + side.hat_descriptor.resolve(ctx).scale(side.hat_coeff)
            forms.append(form)
        return MaxwellPair(*forms)

    def to_obj(self) -> dict:
        def side_obj(side):
            return {
                "coeffs": [dict(idx.to_obj(), coeff=qq_str(c))
                           for idx, c in sorted(side.coeffs.items())],
                "hat": None if side.hat_descriptor is None
                       else side.hat_descriptor.to_obj(),
                "hat_coeff": None if side.hat_coeff is None else qq_str(side.hat_coeff),
                "residual_zero": side.residual.is_zero(),
            }
        return {"schema": SCHEMA, "kind": "expansion", "n": self.n,
                "q": self.q, "k_max": self.k_max, "exact": self.exact,
                "e": side_obj(self.e_side), "h": side_obj(self.h_side)}


def expand(pair: MaxwellPair, k: int, ctx: TowerContext) -> ExpansionResult:
    """Expand a static pair of height k over tower members of floors <= k-1
    plus the two height-k exceptional slots."""
    if ctx.n != pair.n:
        raise ValueError("context dimension mismatch")
    if k < 1:
        raise ValueError("height k must be >= 1")
    rep = iterated_maxwell_check(pair, k)
    if not rep["passed"]:
        raise ValueError(f"input is not a static pair of height {k}: {rep}")
    n, q = pair.n, pair.q
    e_hat = exceptional_form("D_hat", n, q, k)
    h_hat = exceptional_form("R_hat", n, q + 1, k)
    e_side = _expand_side(pair.e, q, "D", k - 1, ctx, e_hat)
    h_side = _expand_side(pair.h, q + 1, "R", k - 1, ctx, h_hat)
    return ExpansionResult(n=n, q=q, k_max=k - 1, e_side=e_side, h_side=h_side)


def expansion_commutes_with_maxwell(pair: MaxwellPair, k: int,
                                    ctx: TowerContext) -> dict:
    """M shifts every expansion coefficient down one floor: the coefficient
    of index I in the expansion of M(pair) equals the coefficient of 1I in
    the expansion of pair.  Exceptional slots at height k feed the height-
    (k-1) slots the same way.  Returns a report dict."""
    res = expand(pair, k, ctx)
    image = maxwell_map(pair)
    res_img = expand(image, k - 1, ctx) if k >= 2 else None
    failures = []
    if res_img is not None:
        # E' = div H: D-line coefficients of E' at I = H coefficients at 1I
        for idx, c in res_img.e_side.coeffs.items():
            up, _ = shift_index(idx, 1)
            if res.h_side.coeffs.get(up, _Q0) != c:
                failures.append(f"E' coeff {idx} != H coeff {up}")
        for idx, c in res.h_side.coeffs.items():
            if idx.k >= 1:
                down, _ = shift_index(idx, -1)
                if res_img.e_side.coeffs.get(down, _Q0) != c:
                    failures.append(f"H coeff {idx} not propagated to E' {down}")
        for idx, c in res_img.h_side.coeffs.items():
            up, _ = shift_index(idx, 1)
            if res.e_side.coeffs.get(up, _Q0) != c:
                failures.append(f"H' coeff {idx} != E coeff {up}")
    return {"passed": not failures, "failures": failures}


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def membership_filter(result: ExpansionResult, s) -> dict:
    """Which expansion coefficients violate weight-s membership.

    A pair lies in the weight-s space iff every index carrying a nonzero
    coefficient does, and any nonzero exceptional coefficient survives its
    weight window.
    """
    s = qq(s)
    n = result.n

    def side_report(side, kind):
        offending = [idx for idx, c in sorted(side.coeffs.items())
                     if c and not in_weighted_l2(idx, s, n)]
        hat_ok = True
        if side.hat_coeff:
            desc = side.hat_descriptor
            gated = exceptional_form(kind, n, desc.q, desc.K, s=s)
            hat_ok = not gated.is_zero
        return offending, hat_ok

    e_off, e_hat_ok = side_report(result.e_side, "D_hat")
    h_off, h_hat_ok = side_report(result.h_side, "R_hat")
    passed = not e_off and not h_off and e_hat_ok and h_hat_ok
    return {"passed": passed, "weight": qq_str(s),
            "e_offending": e_off, "h_offending": h_off,
            "e_hat_admissible": e_hat_ok, "h_hat_admissible": h_hat_ok}


# ---------------------------------------------------------------------------
# harmonic-remainder classification
# ---------------------------------------------------------------------------

def _integrable_at(form: Form, s, n: int) -> bool:
    """Every nonzero homogeneous piece has degree < -s - n/2."""
    s = qq(s)
    bound = -s - QQ(n, 2)
    return all(qq(d) < bound for d in form.coefficient_degrees())


# (class, line, floors of the excluded indices, exceptional kind, its height),
# tried in order: the first row whose integrability test holds classifies
_LEMMA34_ROWS = (("both", "D", 0, "D_check", 1),
                 ("div_only", "D", 1, "D_check", 2),
                 ("rot_only", "R", 1, "R_check", 2))


def lemma34_classify(e: Form, s, ctx: TowerContext) -> dict:
    """Classify a harmonic remainder by which of its two derivatives is
    integrable one weight up, and name the finite data that spans it.

    Returns {"class", "rot_integrable", "div_integrable", "line",
    "indices", "exceptional"}; class is one of "both", "div_only",
    "rot_only", "unclassified".
    """
    n = ctx.n
    s = qq(s)
    q = e.q
    rot_ok = q == n or _integrable_at(e.rot(), s + 1, n)
    div_ok = q == 0 or _integrable_at(e.div(), s + 1, n)
    row = next((r for r, holds in zip(_LEMMA34_ROWS, (div_ok and rot_ok, div_ok, rot_ok))
                if holds), None)
    name, line, floors, kind, height = row or ("unclassified", "", 0, None, 0)
    return {"class": name, "rot_integrable": rot_ok, "div_integrable": div_ok,
            "line": line,
            "indices": enumerate_excluded(n, q, line, floors, s) if row else [],
            "exceptional": exceptional_form(kind, n, q, height, s=s) if row else None}
