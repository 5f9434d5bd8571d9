"""Exact coefficient ring for radial form calculus.

Elements live in Q[x_1..x_n][r, r^-1] modulo the relation r^2 = x_1^2 + ... +
x_n^2.  An element is stored as integer numerators over one denominator,

    (1 / den) * sum  c * r^b * x^alpha,

where every monomial is *reduced*: its x_1-exponent is at most 1.  Reduced
monomials are the remainders of division by r^2 - sum x_i^2 (leading monomial
x_1^2 under graded lex).  den is positive and shares no factor with all the
numerators together (the layout of FLINT's fmpq_poly); zero has no terms and
den 1.  So this representation is a canonical normal form: two elements are
equal in the quotient ring iff their term tables and denominators are
identical.

Packed monomials.  The terms are one dict {key: int numerator}.  A key packs
the total degree d = b + |alpha|, the r exponent b and the exponents alpha
into one Python int of DIGIT_BITS-bit digits, x_1 most significant:

    key = (d + D_OFFSET) * U_d + (b + R_OFFSET) * U_b + sum_j alpha_j * u_j,

    u_j = 2^(DIGIT_BITS (n - j)),  U_b = 2^(DIGIT_BITS n),  U_d = 2^DIGIT_BITS U_b.

The degree and r fields are offset by D_OFFSET = R_OFFSET = 2^(DIGIT_BITS - 2)
so that they stay non-negative.  Integer order of keys is therefore the order
of the tuples (d, b, alpha), and every operator moves a term by one integer
offset: d/dx_j takes key - U_d - u_j, the radial term b r^(b-2) x_j of d/dx_j
takes key - U_d - 2 U_b + u_j, the rewrite x_1^2 = r^2 - x_2^2 - ... - x_n^2
adds n - 1 fixed offsets, multiplication by r^s adds s (U_d + U_b),
restriction to the sphere is key & (U_b - 1), and the product of two
monomials is the sum of their keys less the key of 1.  The parts property
shows the old {(d, b): {alpha: int}} table.

Above the degree field sits one more field, at U_c = 2^DIGIT_BITS U_d.  It is
0 in a ring element; a differential form (forms.py) keeps all its
components in one such table and stores each component's dx-index set there.
The operators below work on either kind of table: _diff_terms, _var_terms
and _laplacian_terms read the component field only to look up where each
term goes, and the others never read it.

Packing bound.  The constructor, from_poly, from_records and r_power admit
exponents 0..MAX_EXP and r exponents -MAX_EXP..MAX_EXP, MAX_EXP = 2^16 - 1,
in their input and in its normal form, and raise ValueError on anything
else; __mul__ checks its own result against the same bound, and mul_r_power
refuses a result whose r field leaves its range [-2^30, 2^30).  With
DIGIT_BITS = 32 the sum of two admitted monomials (a product, or a term of
the sphere pairing) has digits below 2^17 and never carries.  diff, rot,
div, R_op, T_op and laplacian move a digit, the r field or the degree field
by at most 2 per application and do not check: a carry out of an admitted
term takes more than 2^28 of them applied in sequence.  So no operator
carries into the component field either: the fields below it stay in
[0, 2^32), and a form's rank step sets or clears one index bit whose state
it has read (forms.py).

All arithmetic is exact.  The operators add and multiply integer numerators
and divide out the content once per result.  Rationals cross the boundary as
fractions.Fraction (QQ): the constructor takes rational-valued raw tables and
clears their denominators once; sphere_restriction and to_records hand out
QQ, and the exact solves eliminate the integer tables themselves
(linalg.rref).  The table operators are module functions on (terms, den),
shared by RadialRingElement and forms.Form.
"""

from __future__ import annotations

import itertools
import re
import struct
from fractions import Fraction as QQ
from functools import cache, reduce
from math import gcd, lcm
from operator import or_

from .errors import require_dim, require_int

_Q0 = QQ(0)

DIGIT_BITS = 32
MAX_EXP = (1 << 16) - 1
R_OFFSET = 1 << (DIGIT_BITS - 2)
D_OFFSET = R_OFFSET
_DIGIT = (1 << DIGIT_BITS) - 1


def qq(value) -> QQ:
    """Coerce an int, string like '-3/2', or rational to QQ."""
    return value if isinstance(value, QQ) else QQ(value)


def qq_str(value) -> str:
    """Serialize a rational as 'p' or 'p/q'."""
    return str(value)


_RATIONAL_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _rational_parts(value, field: str) -> tuple:
    """(p, q) in lowest terms, q > 0, of a rational field of a decoded
    document: only a string 'p' or 'p/q', as qq_str writes it; numbers,
    booleans and other spellings are refused, and q = 0 is a
    ZeroDivisionError."""
    if not isinstance(value, str) or not _RATIONAL_TEXT.fullmatch(value):
        raise ValueError(f"{field} must be a string 'p' or 'p/q', got {value!r}")
    num, _, den = value.partition("/")
    p, q = int(num), int(den) if den else 1
    if not q:
        raise ZeroDivisionError(f"{field} {value!r} has a zero denominator")
    g = gcd(p, q)
    return p // g, q // g


def require_rational(value, field: str) -> QQ:
    """A rational field of a decoded document as a QQ: only a string 'p' or
    'p/q' (see _rational_parts)."""
    return QQ(*_rational_parts(value, field))


def grlex_key(alpha):
    """Sort key for graded lexicographic monomial order (x1 > x2 > ...)."""
    return (sum(alpha), alpha)


def monomials(n: int, degree: int):
    """Yield all exponent tuples of the given total degree, grlex-descending."""
    if degree < 0:
        return
    out = []
    for bars in itertools.combinations_with_replacement(range(n), degree):
        alpha = [0] * n
        for i in bars:
            alpha[i] += 1
        out.append(tuple(alpha))
    out.sort(key=grlex_key, reverse=True)
    yield from out


def reduced_monomials(n: int, degree: int):
    """Monomials of the given degree with x1-exponent <= 1 (division remainders)."""
    return [alpha for alpha in monomials(n, degree) if alpha[0] <= 1]


def reduce_poly(p: dict, n: int) -> dict:
    """Divide by x_1^2 + ... + x_n^2 repeatedly; only adds and subtracts.

    p is a plain polynomial {exponent tuple: coefficient}.  Returns
    {r_offset: reduced poly} with p = sum_k (sum x^2)^(k/2) * poly_k, offsets
    even, every returned polynomial free of x_1-exponents >= 2.
    """
    out: dict = {}
    cur = {a: c for a, c in p.items() if c}
    off = 0
    while cur:
        quot: dict = {}
        heavy = [alpha for alpha in cur if alpha[0] >= 2]
        while heavy:
            for alpha in heavy:
                c = cur.pop(alpha, 0)
                if not c:
                    continue
                beta = (alpha[0] - 2,) + alpha[1:]
                quot[beta] = quot.get(beta, 0) + c
                if not quot[beta]:
                    del quot[beta]
                # x1^2 * x^beta = (sum x^2) x^beta - sum_{j>=2} xj^2 x^beta
                for j in range(1, n):
                    gamma = beta[:j] + (beta[j] + 2,) + beta[j + 1:]
                    new = cur.get(gamma, 0) - c
                    if new:
                        cur[gamma] = new
                    else:
                        cur.pop(gamma, None)
            heavy = [alpha for alpha in cur if alpha[0] >= 2]
        if cur:
            out[off] = cur
        cur = quot
        off += 2
    return out


# ---------------------------------------------------------------------------
# the packed layout of one variable count
# ---------------------------------------------------------------------------

class _Layout:
    """Digit positions and the fixed key offsets for n variables."""

    __slots__ = ("n", "shifts", "units", "sb", "ub", "sd", "ud", "sc", "alpha_mask",
                 "ring_mask", "one", "odd", "over", "r_guard", "x1_sq", "steps",
                 "diff_var", "diff_sq", "digits", "lone_diff")

    def __init__(self, n: int):
        self.n = n
        self.shifts = tuple(DIGIT_BITS * (n - 1 - j) for j in range(n))
        self.units = tuple(1 << s for s in self.shifts)
        self.sb = DIGIT_BITS * n
        self.ub = 1 << self.sb
        self.sd = self.sb + DIGIT_BITS
        self.ud = 1 << self.sd
        self.sc = self.sd + DIGIT_BITS
        self.alpha_mask = self.ub - 1
        # everything below the component field
        self.ring_mask = (1 << self.sc) - 1
        # the key of the monomial 1
        self.one = (D_OFFSET << self.sd) + (R_OFFSET << self.sb)
        # the exponent digits as big-endian unsigned 32-bit fields
        self.digits = struct.Struct(f">{n}I")
        # bit 0 of every exponent digit: a monomial with one of them set has
        # an odd exponent
        self.odd = sum(self.units)
        # the bits of an exponent digit above MAX_EXP
        self.over = sum((_DIGIT - MAX_EXP) * u for u in self.units)
        # the top bit of the r field, set by a field value outside
        # [0, 2^(DIGIT_BITS - 1))
        self.r_guard = (1 << (DIGIT_BITS - 1)) << self.sb
        # x_1^2 x^beta = r^2 x^beta - sum_{l>=2} x_l^2 x^beta, as the offsets
        # from the key of x_1^2 x^beta of its n terms: (+r^2, -x_2^2, ...)
        u1 = self.units[0]
        self.x1_sq = (2 * self.ub - 2 * u1,) + tuple(2 * u - 2 * u1 for u in self.units[1:])
        # the offsets of d/dx_j: x_j times a term is key + steps[j], d/dx_j of
        # x^alpha is key - steps[j], b r^(b-2) x_j x^alpha is key - diff_var[j],
        # and b r^(b-2) x_l^2 x^beta from d/dx_1 of r^b x_1 x^beta is
        # key - diff_sq[l - 2]
        self.steps = tuple(self.ud + u for u in self.units)
        self.diff_var = tuple(self.ud + 2 * self.ub - u for u in self.units)
        self.diff_sq = tuple(self.ud + 2 * self.ub + u1 - 2 * u for u in self.units[1:])
        # the _diff_terms targets of d/dx_(j+1) on a ring element
        self.lone_diff = tuple({0: (self.diff_target(j),)} for j in range(n))

    def pack(self, d: int, b: int, alpha: tuple) -> int:
        """The key of r^b x^alpha in part d; each exponent in 0..2^32 - 1."""
        return (((d + D_OFFSET) << self.sd) + ((b + R_OFFSET) << self.sb)
                + int.from_bytes(self.digits.pack(*alpha), "big"))

    def unpack(self, key: int) -> tuple:
        """(d, b, alpha) of a key."""
        return (self.degree(key), (key >> self.sb & _DIGIT) - R_OFFSET, self.alpha(key))

    def degree(self, key: int) -> int:
        return (key >> self.sd & _DIGIT) - D_OFFSET

    def alpha(self, key: int) -> tuple:
        """The exponent tuple of a key (or of a packed alpha)."""
        return self.digits.unpack((key & self.alpha_mask).to_bytes(self.digits.size, "big"))

    def admitted(self, key: int) -> bool:
        """Every exponent of the key in 0..MAX_EXP and its r exponent in
        -MAX_EXP..MAX_EXP."""
        return (not key & self.over
                and -MAX_EXP <= (key >> self.sb & _DIGIT) - R_OFFSET <= MAX_EXP)

    def diff_target(self, j: int, delta: int = 0, neg: bool = False) -> tuple:
        """The _diff_terms record of d/dx_(j+1) whose result terms move by
        delta more (a change of the component field) and are negated when
        neg: (j, digit shift, the three kinds of offset, neg)."""
        sq = tuple(off - delta for off in self.diff_sq) if not j else ()
        return (j, self.shifts[j], self.steps[j] - delta, self.diff_var[j] - delta, sq, neg)

    def var_target(self, j: int, delta: int = 0, neg: bool = False) -> tuple:
        """The _var_terms record of x_(j+1) times a term, likewise:
        (j, offset, the x_1^2 rewrite's offsets, neg).  Only x_1 rewrites,
        so the other records hold no rewrite offsets."""
        off = self.steps[j] + delta
        sq = tuple(off + x for x in self.x1_sq[1:]) if not j else ()
        return (j, off, off + self.x1_sq[0], sq, neg)


@cache
def _layout(n: int) -> _Layout:
    return _Layout(n)


def _check_monomial(n: int, d: int, b: int, alpha: tuple) -> None:
    """A raw input monomial r^b x^alpha in part (d, b) is within the packing
    bound and of the part's degree."""
    if n < 1:
        raise ValueError(f"variable count {n} < 1")
    if len(alpha) != n:
        raise ValueError("exponent tuple length != n")
    if not all(0 <= e <= MAX_EXP for e in alpha):
        raise ValueError(f"exponents {alpha} outside 0..{MAX_EXP}")
    if not -MAX_EXP <= b <= MAX_EXP:
        raise ValueError(f"r exponent {b} outside -{MAX_EXP}..{MAX_EXP}")
    if sum(alpha) != d - b:
        raise ValueError(f"part ({d},{b}) holds monomial {alpha} of degree "
                         f"{sum(alpha)}, expected {d - b}")


def _refuse_unadmitted(table: dict, layout: _Layout, what: str) -> None:
    for key in table:
        if not layout.admitted(key):
            d, b, alpha = layout.unpack(key)
            raise ValueError(f"{what} holds r^{b} x^{alpha}, outside the packing "
                             f"bound: exponents 0..{MAX_EXP}, |r exponent| <= {MAX_EXP}")


def _normalized(table: dict, den: int) -> tuple:
    """(table, den) with their common factor divided out, the table in place;
    den is 1 when the table is empty."""
    if den != 1:
        g = gcd(den, *table.values())
        if g != 1:
            for key in table:
                table[key] //= g
            den //= g
    return table, den


def _record_items(terms: dict, den: int, layout: _Layout) -> list:
    """[(component field, (degree, r_exp), [(alpha, p, q), ...]), ...] in the
    order the encodings write them: component fields and then parts
    ascending, the terms of a part by descending grlex, each coefficient p/q
    in lowest terms with q > 0."""
    sb, sc = layout.sb, layout.sc
    groups: dict = {}
    for key in sorted(terms, reverse=True):
        groups.setdefault(key >> sb, []).append(key)
    out = []
    for keys in reversed(groups.values()):
        items = []
        for key in keys:
            c = terms[key]
            g = gcd(c, den)
            items.append((layout.alpha(key), c // g, den // g))
        out.append((keys[0] >> sc, layout.unpack(keys[0])[:2], items))
    return out


_NOT_CANONICAL = "stored ring element is not in the canonical encoding"


def _read_terms(n: int, recs: list, terms: list) -> None:
    """Append (key, p, q) to terms for each term of stored records, with the
    coefficient p/q in lowest terms and q > 0.  Only the encoding
    _encode_records writes is read, up to how each rational is spelled
    ("3/3" reads as 1): records in ascending (degree, r_exp) order, each
    with its terms in descending monomial order, every monomial reduced
    (x_1-exponent <= 1), of its record's degree and within the packing
    bound, and no zero coefficient.  Anything else is a ValueError.  The
    layout of n is looked up only after a monomial of n exponents has
    passed, and only for n <= MAX_DIM, so a stated n far beyond the
    document's own size costs nothing."""
    layout = None
    last_part = -1
    for rec in recs:
        d, b = require_int(rec["degree"], "degree"), require_int(rec["r_exp"], "r_exp")
        prev = None
        for t in rec["terms"]:
            alpha = tuple(require_int(e, "alpha") for e in t["alpha"])
            if alpha and alpha[0] > 1:
                raise ValueError(_NOT_CANONICAL)
            p, q = _rational_parts(t["coef"], "coef")
            _check_monomial(n, d, b, alpha)
            if layout is None:
                layout = _layout(require_dim(n))
            key = layout.pack(d, b, alpha)
            if not p or (key >> layout.sb <= last_part if prev is None else key >= prev):
                raise ValueError(_NOT_CANONICAL)
            prev = key
            terms.append((key, p, q))
        if prev is None:
            raise ValueError(_NOT_CANONICAL)
        last_part = prev >> layout.sb


def _table_over_lcm(terms: list) -> tuple:
    """The table {key: p (den / q)} and den, the lcm of the qs, of terms
    (key, p, q) with distinct keys and each p/q in lowest terms.  It is
    canonical: a prime's full power in den divides some q, and then not
    that term's numerator."""
    den = lcm(*(q for _, _, q in terms))
    return {key: p * (den // q) for key, p, q in terms}, den


def _encode_records(parts: list) -> list:
    """The records of [((degree, r_exp), [(alpha, p, q), ...]), ...]."""
    return [{"degree": d, "r_exp": b,
             "terms": [{"alpha": list(alpha), "coef": f"{p}/{q}" if q != 1 else str(p)}
                       for alpha, p, q in terms]}
            for (d, b), terms in parts]


# ---------------------------------------------------------------------------
# operators on term tables, shared by ring elements and forms
# ---------------------------------------------------------------------------

def _plus_terms(ta: dict, da: int, tb: dict, db: int, sign: int) -> tuple:
    """ta/da + sign tb/db over the lcm of the two denominators, normalized."""
    den = lcm(da, db)
    ka, kb = den // da, sign * (den // db)
    out = {key: c * ka for key, c in ta.items()} if ka != 1 else dict(ta)
    get = out.get
    for key, c in tb.items():
        new = get(key, 0) + c * kb
        if new:
            out[key] = new
        else:
            del out[key]
    return _normalized(out, den)


def _scaled_terms(terms: dict, den: int, c: QQ) -> tuple:
    """c terms/den for a nonzero rational c.  With c = u/v in lowest terms,
    u's common factor with den cancels at once, and only v can share a
    factor with the numerators."""
    u, v = c.numerator, c.denominator
    g = gcd(u, den)
    h = gcd(v, *terms.values()) if v != 1 else 1
    u //= g
    if h == 1:
        out = terms if u == 1 else {key: cc * u for key, cc in terms.items()}
    else:
        out = {key: cc // h * u for key, cc in terms.items()}
    return out, den // g * (v // h)


def _shifted_terms(terms: dict, layout: _Layout, b: int) -> dict:
    """r^b times the terms: a pure key shift, no reduction needed.  A result
    whose r field leaves its range is a ValueError."""
    if not -R_OFFSET < b < R_OFFSET:
        raise ValueError(f"r exponent shift {b} outside the packing bound")
    shift = b * (layout.ud + layout.ub)
    out = {key + shift: c for key, c in terms.items()}
    if reduce(or_, out, 0) & layout.r_guard:
        raise ValueError(f"r^{b} times this element leaves the packing bound")
    return out


def _diff_terms(terms: dict, layout: _Layout, targets) -> dict:
    """sum over the terms t and over the records (see _Layout.diff_target)
    of targets[component field of t] of the record's signed, moved d/dx_j t,
    in normal form.

    d/dx_j (r^b x^alpha) = alpha_j r^b x^(alpha - e_j) + b r^(b-2) x_j x^alpha.
    Only x_1 x^alpha with alpha_1 = 1 needs the rewrite of x_1^2; then
    d/dx_1 (r^b x_1 x^beta) = (1 + b) r^b x^beta - b sum_{l>=2} r^(b-2) x_l^2 x^beta.
    """
    sb, sc = layout.sb, layout.sc
    out: dict = {}
    get = out.get
    for key, c in terms.items():
        b = (key >> sb & _DIGIT) - R_OFFSET
        for j, sj, d_off, v_off, sq_offs, neg in targets[key >> sc]:
            cc = -c if neg else c
            e = key >> sj & _DIGIT
            if j:
                if e:
                    nk = key - d_off
                    new = get(nk, 0) + cc * e
                    if new:
                        out[nk] = new
                    else:
                        del out[nk]
                if b:
                    nk = key - v_off
                    new = get(nk, 0) + cc * b
                    if new:
                        out[nk] = new
                    else:
                        del out[nk]
            elif e:
                if b != -1:
                    nk = key - d_off
                    new = get(nk, 0) + cc * (1 + b)
                    if new:
                        out[nk] = new
                    else:
                        del out[nk]
                if b:
                    cc *= b
                    for off in sq_offs:
                        nk = key - off
                        new = get(nk, 0) - cc
                        if new:
                            out[nk] = new
                        else:
                            del out[nk]
            elif b:
                nk = key - v_off
                new = get(nk, 0) + cc * b
                if new:
                    out[nk] = new
                else:
                    del out[nk]
    return out


def _var_terms(terms: dict, layout: _Layout, targets) -> dict:
    """Like _diff_terms for x_j times a term (see _Layout.var_target).

    x_j x^alpha stays reduced unless j = 1 and alpha_1 = 1; then
    x_1 (r^b x_1 x^beta) = r^(b+2) x^beta - sum_{l>=2} r^b x_l^2 x^beta.
    """
    s1, sc = layout.shifts[0], layout.sc
    out: dict = {}
    get = out.get
    for key, c in terms.items():
        x1 = key >> s1 & _DIGIT
        for j, off, r_off, sq_offs, neg in targets[key >> sc]:
            cc = -c if neg else c
            rewrite = x1 and not j
            nk = key + (r_off if rewrite else off)
            new = get(nk, 0) + cc
            if new:
                out[nk] = new
            else:
                del out[nk]
            if rewrite:
                for x in sq_offs:
                    nk = key + x
                    new = get(nk, 0) - cc
                    if new:
                        out[nk] = new
                    else:
                        del out[nk]
    return out


def _laplacian_terms(terms: dict, layout: _Layout) -> dict:
    """Sum of second partials by the closed form, term by term:

        Delta(r^b x^alpha) = r^b Delta x^alpha
                             + b (2 |alpha| + b + n - 2) r^(b-2) x^alpha,

    where d_1^2 x^alpha = 0 for a reduced monomial, so every term is
    already reduced.  The component field is carried along.
    """
    n, sb, sd = layout.n, layout.sb, layout.sd
    digit_offs = [(s, 2 * layout.ud + 2 * u)
                  for s, u in zip(layout.shifts[1:], layout.units[1:])]
    r_off = 2 * layout.ud + 2 * layout.ub
    out: dict = {}
    get = out.get
    for key, c in terms.items():
        for s, off in digit_offs:
            e = key >> s & _DIGIT
            if e >= 2:
                nk = key - off
                new = get(nk, 0) + c * (e * (e - 1))
                if new:
                    out[nk] = new
                else:
                    del out[nk]
        b = (key >> sb & _DIGIT) - R_OFFSET
        if b:
            kk = b * (2 * ((key >> sd & _DIGIT) - D_OFFSET - b) + b + n - 2)
            if kk:
                nk = key - r_off
                new = get(nk, 0) + c * kk
                if new:
                    out[nk] = new
                else:
                    del out[nk]
    return out


class RadialRingElement:
    """Canonical element of Q[x][r, r^-1] / (r^2 - sum x_i^2).

    terms maps packed keys (see the module docstring) to nonzero int
    numerators of reduced monomials, and den is the one positive denominator
    of every numerator, with gcd(den, numerators) = 1.
    RadialRingElement(n, raw) canonicalizes a raw table
    {(total_degree, r_exp): {alpha: rational}} of int or QQ coefficients.  Do
    not mutate terms after construction.
    """

    __slots__ = ("n", "terms", "den")

    def __init__(self, n: int, parts: dict | None = None):
        self.n = n
        self.terms, self.den = self._canonicalize(n, parts or {})

    @staticmethod
    def _canonicalize(n: int, raw: dict) -> tuple:
        """(normal-form term table, den) of a raw rational table: the
        denominators are cleared once, then reduction runs on integers."""
        den = 1
        for (d, b), poly in raw.items():
            for alpha, c in poly.items():
                _check_monomial(n, d, b, alpha)
                if den % c.denominator:
                    den = lcm(den, c.denominator)
        table: dict = {}
        if not any(raw.values()):
            return table, 1
        layout = _layout(n)
        reduced = False
        for (d, b), poly in raw.items():
            ints = {alpha: c.numerator * (den // c.denominator) for alpha, c in poly.items()}
            if any(alpha[0] > 1 for alpha in ints):
                reduced = True
                offsets = reduce_poly(ints, n).items()
            else:
                offsets = ((0, ints),)
            for off, red in offsets:
                for alpha, c in red.items():
                    key = layout.pack(d, b + off, alpha)
                    table[key] = table.get(key, 0) + c
        table, den = _normalized({key: c for key, c in table.items() if c}, den)
        if reduced:
            _refuse_unadmitted(table, layout, "the normal form")
        return table, den

    @classmethod
    def _make(cls, n: int, terms: dict, den: int) -> "RadialRingElement":
        """The element (terms, den), already canonical."""
        el = object.__new__(cls)
        el.n, el.terms, el.den = n, terms, den
        return el

    @classmethod
    def _from_table(cls, n: int, table: dict, den: int) -> "RadialRingElement":
        """table / den for a fresh term table in normal form (reduced
        monomials, no zero numerator) and den > 0."""
        return cls._make(n, *_normalized(table, den))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "RadialRingElement":
        return cls._make(n, {}, 1)

    @classmethod
    def from_rational(cls, n: int, c) -> "RadialRingElement":
        return cls.r_power(n, 0, c)

    @classmethod
    def one(cls, n: int) -> "RadialRingElement":
        return cls.from_rational(n, 1)

    @classmethod
    def variable(cls, n: int, i: int) -> "RadialRingElement":
        """x_i as an element; i is 1-based."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} outside 1..{n}")
        layout = _layout(n)
        return cls._make(n, {layout.pack(1, 0, (0,) * n) + layout.units[i - 1]: 1}, 1)

    @classmethod
    def from_poly(cls, n: int, poly: dict) -> "RadialRingElement":
        """Element from {exponent tuple: coefficient}; canonicalized."""
        raw: dict = {}
        for alpha, c in poly.items():
            raw.setdefault((sum(alpha), 0), {})[alpha] = qq(c)
        return cls(n, raw)

    @classmethod
    def r_power(cls, n: int, b: int, coef=1) -> "RadialRingElement":
        if not -MAX_EXP <= b <= MAX_EXP:
            raise ValueError(f"r exponent {b} outside -{MAX_EXP}..{MAX_EXP}")
        c = qq(coef)
        if not c:
            return cls.zero(n)
        return cls._make(n, {_layout(n).pack(b, b, (0,) * n): c.numerator}, c.denominator)

    # -- structure ----------------------------------------------------------

    @property
    def parts(self) -> dict:
        """The terms as a fresh table {(degree, r_exp): {alpha: int numerator}}."""
        layout = _layout(self.n)
        out: dict = {}
        for key, c in self.terms.items():
            d, b, alpha = layout.unpack(key)
            out.setdefault((d, b), {})[alpha] = c
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self):
        """Sorted list of total degrees present."""
        degree = _layout(self.n).degree
        return sorted({degree(key) for key in self.terms})

    def homogeneous_part(self, d: int) -> "RadialRingElement":
        degree = _layout(self.n).degree
        kept = {key: c for key, c in self.terms.items() if degree(key) == d}
        return RadialRingElement._from_table(self.n, kept, self.den)

    # -- arithmetic ----------------------------------------------------------

    def _plus(self, other: "RadialRingElement", sign: int) -> "RadialRingElement":
        """self + sign * other, over the lcm of the two denominators."""
        if self.n != other.n:
            raise ValueError("mixed variable counts")
        return RadialRingElement._make(
            self.n, *_plus_terms(self.terms, self.den, other.terms, other.den, sign))

    def __add__(self, other):
        if not isinstance(other, RadialRingElement):
            other = RadialRingElement.from_rational(self.n, other)
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return RadialRingElement._make(
            self.n, {key: -c for key, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        if not isinstance(other, RadialRingElement):
            other = RadialRingElement.from_rational(self.n, other)
        return self._plus(other, -1)

    def __mul__(self, other):
        """Product of two elements (or scale by a rational).  A product of
        reduced monomials holds x_1 at most twice, so one rewrite of x_1^2
        reduces it; the result must be within the packing bound."""
        if not isinstance(other, RadialRingElement):
            return self.scale(other)
        if self.n != other.n:
            raise ValueError("mixed variable counts")
        layout = _layout(self.n)
        base = layout.one
        s1 = layout.shifts[0]
        r_off, *sq_offs = layout.x1_sq
        table: dict = {}
        get = table.get
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key, c = ka + kb - base, ca * cb
                if key >> s1 & _DIGIT == 2:
                    table[key + r_off] = get(key + r_off, 0) + c
                    for off in sq_offs:
                        table[key + off] = get(key + off, 0) - c
                else:
                    table[key] = get(key, 0) + c
        product = RadialRingElement._from_table(
            self.n, {key: c for key, c in table.items() if c}, self.den * other.den)
        _refuse_unadmitted(product.terms, layout, "the product")
        return product

    __rmul__ = __mul__

    def scale(self, c) -> "RadialRingElement":
        """c * self."""
        c = qq(c)
        if not c:
            return RadialRingElement.zero(self.n)
        return RadialRingElement._make(self.n, *_scaled_terms(self.terms, self.den, c))

    def mul_r_power(self, b: int) -> "RadialRingElement":
        """Multiply by r^b (a pure key shift, no reduction needed)."""
        return RadialRingElement._make(
            self.n, _shifted_terms(self.terms, _layout(self.n), b), self.den)

    def diff(self, i: int) -> "RadialRingElement":
        """Partial derivative in x_i (1-based), using d/dx_i r^b = b r^(b-2) x_i
        (the kernel of forms.Form.rot and div)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} outside 1..{self.n}")
        layout = _layout(self.n)
        return RadialRingElement._from_table(
            self.n, _diff_terms(self.terms, layout, layout.lone_diff[i - 1]), self.den)

    def laplacian(self) -> "RadialRingElement":
        """Sum of second partials, term by term (_laplacian_terms, the kernel
        of forms.Form.laplacian)."""
        return RadialRingElement._from_table(
            self.n, _laplacian_terms(self.terms, _layout(self.n)), self.den)

    def __eq__(self, other):
        if not isinstance(other, RadialRingElement):
            if other == 0:
                return self.is_zero()
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.terms == other.terms

    __hash__ = None

    # -- sphere restriction and evaluation -----------------------------------

    def _sphere_terms(self) -> dict:
        """Restriction to the unit sphere: drop r powers and sum the terms of
        each monomial; {packed alpha: QQ}."""
        mask = _layout(self.n).alpha_mask
        out: dict = {}
        get = out.get
        for key, c in self.terms.items():
            a = key & mask
            new = get(a, 0) + c
            if new:
                out[a] = new
            else:
                del out[a]
        return {a: QQ(c, self.den) for a, c in out.items()}

    def sphere_restriction(self) -> dict:
        """Restrict to the unit sphere: drop r powers, sum the terms of each
        monomial; {alpha: QQ}."""
        layout = _layout(self.n)
        return {layout.alpha(a): c for a, c in self._sphere_terms().items()}

    # -- serialization -------------------------------------------------------

    def _record_items(self) -> list:
        """[((degree, r_exp), [(alpha, p, q), ...]), ...] in the order
        to_records writes them (see _record_items)."""
        return [(part, items) for _, part, items
                in _record_items(self.terms, self.den, _layout(self.n))]

    def to_records(self) -> list:
        """The canonical encoding; each coefficient is written as qq_str
        writes the rational p/q."""
        return _encode_records(self._record_items())

    @classmethod
    def from_records(cls, n: int, recs: list) -> "RadialRingElement":
        """Decode records.  Only the encoding to_records writes is accepted, up
        to how each rational is spelled (see _read_terms): a term split in
        two, a zero term, a reducible monomial or records out of order is a
        ValueError, and so is a monomial outside the packing bound."""
        terms: list = []
        _read_terms(n, recs, terms)
        return cls._make(n, *_table_over_lcm(terms))

    # -- display -------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = self.parts
        chunks = []
        for (d, b) in sorted(parts, key=lambda k: (k[0], -k[1])):
            body = _poly_str(parts[(d, b)], self.den)
            if b == 0:
                chunks.append(body)
            else:
                rb = "r" if b == 1 else f"r^{b}"
                chunks.append(f"{rb}*({body})")
        return " + ".join(chunks).replace("+ -", "- ")

    def __repr__(self):
        return f"<RadialRingElement n={self.n} {self}>"


def _poly_str(p: dict, den: int) -> str:
    terms = []
    for alpha, c in sorted(p.items(), key=lambda kv: grlex_key(kv[0]), reverse=True):
        c = QQ(c, den)
        factors = []
        for i, e in enumerate(alpha):
            if e == 1:
                factors.append(f"x{i + 1}")
            elif e:
                factors.append(f"x{i + 1}^{e}")
        if not factors:
            terms.append(qq_str(c))
        elif c == 1:
            terms.append("*".join(factors))
        elif c == -1:
            terms.append("-" + "*".join(factors))
        else:
            terms.append(qq_str(c) + "*" + "*".join(factors))
    return " + ".join(terms).replace("+ -", "- ")
