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
one degree included).  Each degree is therefore solved block by block, with
the blocks' members and Grams computed once per TowerContext
(TowerContext.block, TowerContext.block_gram); only the right-hand sides
<piece, member> are computed per call.  Products are memoised per form
(forms.sphere_inner_product): a cached member keeps its pairing with every
monomial it has met, so a right-hand side costs one lookup per term of the
piece.  The exceptional slot is not one of the candidates: its products with
them are computed on every call and must be exactly 0, after which it is
solved as a 1x1 block.  tests/oracles.py keeps the full-Gram solve and the
uncached product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

from .errors import SCHEMA, ConsistencyError, require_int
from .forms import Form, sphere_inner_product
from .indices import enumerate_excluded, in_weighted_l2, shift_index
from .linalg import solve_posdef
from .ring import QQ, qq, qq_str
from .towers import (ExceptionalFormDescriptor, TowerContext, checked_gram,
                     exceptional_form)

_Q0 = QQ(0)


@dataclass
class MaxwellPair:
    """A rank-(q, q+1) pair of forms on the same space."""

    e: Form
    h: Form

    def __post_init__(self):
        if self.e.n != self.h.n:
            raise ValueError("mixed dimensions in pair")
        if self.h.q != self.e.q + 1:
            raise ValueError(
                f"pair ranks must be (q, q+1), got ({self.e.q}, {self.h.q})")

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
    degree with floor <= k_max, in deterministic order."""
    out = []
    for k in range(k_max + 1):
        for sign in (1, -1):
            sigma = degree - k if sign > 0 else k - ctx.n - degree
            if sigma >= 0:
                out += ctx.block(rank, line, sign, k, sigma)
    return out


@dataclass
class SideExpansion:
    """One side of an expansion: tower coefficients plus the exceptional slot."""

    coeffs: dict = field(default_factory=dict)
    hat_descriptor: object = None
    hat_coeff: object = None          # QQ when the slot exists, else None
    residual: Form = None
    exact: bool = True


def _expand_side(form: Form, rank: int, line: str, k_max: int,
                 ctx: TowerContext,
                 hat: ExceptionalFormDescriptor | None) -> SideExpansion:
    """Degree-by-degree sphere-Gram expansion of one form, solved block by
    block; the exceptional slot is checked orthogonal to the tower members
    and solved as a block of its own."""
    n = ctx.n
    side = SideExpansion(residual=Form.zero(n, form.q))
    hat_form = None
    if hat is not None and not hat.is_zero:
        hat_form = hat.resolve(ctx)
        side.hat_descriptor = hat
        side.hat_coeff = _Q0
    degrees = set(form.coefficient_degrees())
    if hat_form is not None:
        degrees.add(hat_form.homogeneous_degree())
    pieces = form.homogeneity_split()
    for degree in sorted(degrees):
        piece = pieces.get(degree, Form.zero(n, form.q))
        cands = tower_candidates(ctx, rank, line, degree, k_max)
        blocks = [(ctx.block_gram(rank, line, *key), list(members))
                  for key, members in groupby(
                      cands, key=lambda c: (c[0].sign, c[0].k, c[0].sigma))]
        if hat_form is not None and hat_form.homogeneous_degree() == degree:
            if any(sphere_inner_product(hat_form, f) for _, f in cands):
                raise ConsistencyError(
                    f"exceptional slot not orthogonal to the tower members at "
                    f"rank {rank} {line}-line degree {degree}")
            blocks.append((checked_gram([hat_form], rank, line, degree),
                           [("hat", hat_form)]))
        rem = piece
        for gram, members in blocks:
            rhs = [sphere_inner_product(piece, f) for _, f in members]
            if not any(rhs):
                continue
            for (slot, f), c in zip(members, solve_posdef(gram, rhs)):
                if not c:
                    continue
                rem = rem - f.scale(c)
                if slot == "hat":
                    side.hat_coeff = c
                else:
                    side.coeffs[slot] = c
        side.residual = side.residual + rem
    side.exact = side.residual.is_zero()
    return side


@dataclass
class ExpansionResult:
    n: int
    q: int
    k_max: int
    e_side: SideExpansion
    h_side: SideExpansion

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
