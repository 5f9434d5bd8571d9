"""Exact coefficient ring for radial form calculus.

Elements live in Q[x_1..x_n][r, r^-1] modulo the relation r^2 = x_1^2 + ... +
x_n^2.  An element is stored as integer numerators over one denominator,

    (1 / den) * sum_{(d, b)}  r^b * p_{d,b}(x)

where p_{d,b} is a homogeneous polynomial of degree d - b with Python-int
coefficients that is *reduced*: no monomial of p_{d,b} has x_1-exponent >= 2.
Reduced polynomials are the remainders of division by r^2 - sum x_i^2 (leading
monomial x_1^2 under graded lex).  den is positive and shares no factor with
all the numerators together (the layout of FLINT's fmpq_poly); zero has no
parts and den 1.  So this representation is a canonical normal form: two
elements are equal in the quotient ring iff their part tables and
denominators are identical.

All arithmetic is exact.  The operators add and multiply integer numerators
and divide out the content once per result.  Rationals cross the boundary as
fractions.Fraction (QQ): the constructor takes rational-valued raw tables and
clears their denominators once; sphere_restriction, to_records and
forms.coordinate_vectors hand out QQ.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction as QQ
from math import gcd, lcm

from .errors import require_int

_Q0 = QQ(0)


def qq(value) -> QQ:
    """Coerce an int, string like '-3/2', or rational to QQ."""
    return value if isinstance(value, QQ) else QQ(value)


def qq_str(value) -> str:
    """Serialize a rational as 'p' or 'p/q'."""
    return str(value)


_RATIONAL_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def require_rational(value, field: str) -> QQ:
    """A rational field of a decoded document: only a string 'p' or 'p/q', as
    qq_str writes it; numbers, booleans and other spellings are refused."""
    if not isinstance(value, str) or not _RATIONAL_TEXT.fullmatch(value):
        raise ValueError(f"{field} must be a string 'p' or 'p/q', got {value!r}")
    return QQ(value)


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


# ---------------------------------------------------------------------------
# plain polynomial helpers: a polynomial is a dict {exponent tuple: int}, zero
# coefficients never stored; a part table maps (degree, r_exp) to one.
# ---------------------------------------------------------------------------

def _padd_into(acc: dict, poly: dict) -> None:
    for alpha, c in poly.items():
        new = acc.get(alpha, 0) + c
        if new:
            acc[alpha] = new
        else:
            acc.pop(alpha, None)


def _pmul(p: dict, q: dict) -> dict:
    out: dict = {}
    for a, ca in p.items():
        for b, cb in q.items():
            g = tuple(x + y for x, y in zip(a, b))
            new = out.get(g, 0) + ca * cb
            if new:
                out[g] = new
            else:
                out.pop(g, None)
    return out


def _add_term(table: dict, key: tuple, alpha: tuple, c: int) -> None:
    """table[key][alpha] += c for c != 0, dropping cancelled terms and
    emptied parts."""
    poly = table.get(key)
    if poly is None:
        table[key] = {alpha: c}
        return
    new = poly.get(alpha, 0) + c
    if new:
        poly[alpha] = new
    else:
        del poly[alpha]
        if not poly:
            del table[key]


def _add_var_times(table: dict, key: tuple, p: dict, j: int, k: int) -> None:
    """table[key] += k * x_j * p for a reduced p (j 0-based), in normal form.

    x_j * p stays reduced unless j = 0 and a monomial already holds x_1; that
    x_1^2 * x^beta is r^2 * x^beta - sum_{l>=2} x_l^2 * x^beta, one step.
    """
    d, b = key
    for alpha, c in p.items():
        c *= k
        e = alpha[j]
        if j or not e:
            _add_term(table, key, alpha[:j] + (e + 1,) + alpha[j + 1:], c)
            continue
        beta = (0,) + alpha[1:]
        _add_term(table, (d, b + 2), beta, c)
        for t in range(1, len(alpha)):
            _add_term(table, key, beta[:t] + (beta[t] + 2,) + beta[t + 1:], -c)


def _content(table: dict, g: int) -> int:
    """gcd of g and every numerator of the table."""
    for poly in table.values():
        if g == 1:
            break
        g = gcd(g, *poly.values())
    return g


def _normalized(table: dict, den: int) -> tuple:
    """(table, den) with their common factor divided out, the table in place;
    den is 1 when the table is empty."""
    g = _content(table, den)
    if g != 1:
        for poly in table.values():
            for alpha in poly:
                poly[alpha] //= g
    return table, den // g


def reduce_poly(p: dict, n: int) -> dict:
    """Divide by x_1^2 + ... + x_n^2 repeatedly; only adds and subtracts.

    Returns {r_offset: reduced poly} with p = sum_k (sum x^2)^(k/2) * poly_k,
    offsets even, every returned polynomial free of x_1-exponents >= 2.
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


def _reduce_table(n: int, raw: dict) -> dict:
    """The normal-form part table of a raw integer table {(d, b): poly}."""
    out: dict = {}
    for (d, b), poly in raw.items():
        for off, red in reduce_poly(poly, n).items():
            key = (d, b + off)
            if key in out:
                _padd_into(out[key], red)
                if not out[key]:
                    del out[key]
            else:
                out[key] = red
    return out


class RadialRingElement:
    """Canonical element of Q[x][r, r^-1] / (r^2 - sum x_i^2).

    parts maps (total_degree, r_exp) -> reduced homogeneous polynomial
    {alpha: int numerator} of degree total_degree - r_exp, and den is the one
    positive denominator of every numerator, with gcd(den, numerators) = 1.
    RadialRingElement(n, raw) canonicalizes a raw table of rational (int or
    QQ) coefficients.  Do not mutate parts after construction.
    """

    __slots__ = ("n", "parts", "den")

    def __init__(self, n: int, parts: dict | None = None):
        self.n = n
        self.parts, self.den = _normalized(*self._canonicalize(n, parts or {}))

    @staticmethod
    def _canonicalize(n: int, raw: dict) -> tuple:
        """(normal-form integer table, den) of a raw rational table: the
        denominators are cleared once, then reduction runs on integers."""
        den = 1
        for poly in raw.values():
            for c in poly.values():
                if den % c.denominator:
                    den = lcm(den, c.denominator)
        ints: dict = {}
        for (d, b), poly in raw.items():
            for alpha in poly:
                if sum(alpha) != d - b:
                    raise ValueError(
                        f"part ({d},{b}) holds monomial {alpha} of degree "
                        f"{sum(alpha)}, expected {d - b}")
            ints[(d, b)] = {alpha: c.numerator * (den // c.denominator)
                            for alpha, c in poly.items()}
        return _reduce_table(n, ints), den

    @classmethod
    def _make(cls, n: int, parts: dict, den: int) -> "RadialRingElement":
        """The element (parts, den), already canonical."""
        el = object.__new__(cls)
        el.n, el.parts, el.den = n, parts, den
        return el

    @classmethod
    def _from_table(cls, n: int, table: dict, den: int) -> "RadialRingElement":
        """table / den for a fresh integer part table in normal form (reduced,
        no zero term, no empty part) and den > 0."""
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
        alpha = tuple(1 if j == i - 1 else 0 for j in range(n))
        return cls._make(n, {(1, 0): {alpha: 1}}, 1)

    @classmethod
    def from_poly(cls, n: int, poly: dict) -> "RadialRingElement":
        """Element from {exponent tuple: coefficient}; canonicalized."""
        raw: dict = {}
        for alpha, c in poly.items():
            raw.setdefault((sum(alpha), 0), {})[alpha] = qq(c)
        return cls(n, raw)

    @classmethod
    def r_power(cls, n: int, b: int, coef=1) -> "RadialRingElement":
        c = qq(coef)
        if not c:
            return cls.zero(n)
        return cls._make(n, {(b, b): {(0,) * n: c.numerator}}, c.denominator)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.parts

    def degrees(self):
        """Sorted list of total degrees present."""
        return sorted({d for d, _ in self.parts})

    def homogeneous_part(self, d: int) -> "RadialRingElement":
        kept = {k: dict(p) for k, p in self.parts.items() if k[0] == d}
        return RadialRingElement._from_table(self.n, kept, self.den)

    # -- arithmetic ----------------------------------------------------------

    def _plus(self, other: "RadialRingElement", sign: int) -> "RadialRingElement":
        """self + sign * other, over the lcm of the two denominators."""
        if self.n != other.n:
            raise ValueError("mixed variable counts")
        den = lcm(self.den, other.den)
        ka, kb = den // self.den, sign * (den // other.den)
        out = {k: {a: c * ka for a, c in p.items()} for k, p in self.parts.items()}
        for k, p in other.parts.items():
            acc = out.get(k)
            if acc is None:
                out[k] = {a: c * kb for a, c in p.items()}
                continue
            for a, c in p.items():
                new = acc.get(a, 0) + c * kb
                if new:
                    acc[a] = new
                else:
                    del acc[a]
            if not acc:
                del out[k]
        return RadialRingElement._from_table(self.n, out, den)

    def __add__(self, other):
        if not isinstance(other, RadialRingElement):
            other = RadialRingElement.from_rational(self.n, other)
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        out = {k: {a: -c for a, c in p.items()} for k, p in self.parts.items()}
        return RadialRingElement._make(self.n, out, self.den)

    def __sub__(self, other):
        if not isinstance(other, RadialRingElement):
            other = RadialRingElement.from_rational(self.n, other)
        return self._plus(other, -1)

    def __mul__(self, other):
        if not isinstance(other, RadialRingElement):
            return self.scale(other)
        if self.n != other.n:
            raise ValueError("mixed variable counts")
        raw: dict = {}
        for (d1, b1), p1 in self.parts.items():
            for (d2, b2), p2 in other.parts.items():
                prod = _pmul(p1, p2)
                if not prod:
                    continue
                key = (d1 + d2, b1 + b2)
                if key in raw:
                    _padd_into(raw[key], prod)
                else:
                    raw[key] = prod
        return RadialRingElement._from_table(self.n, _reduce_table(self.n, raw),
                                             self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c) -> "RadialRingElement":
        """c * self.  With c = u/v in lowest terms, u's common factor with den
        cancels at once, and only v can share a factor with the numerators."""
        c = qq(c)
        if not c:
            return RadialRingElement.zero(self.n)
        u, v = c.numerator, c.denominator
        g = gcd(u, self.den)
        h = _content(self.parts, v)
        u //= g
        out = {k: {a: cc // h * u for a, cc in p.items()} for k, p in self.parts.items()}
        return RadialRingElement._make(self.n, out, self.den // g * (v // h))

    def mul_r_power(self, b: int) -> "RadialRingElement":
        """Multiply by r^b (a pure index shift, no reduction needed)."""
        out = {(d + b, bb + b): dict(p) for (d, bb), p in self.parts.items()}
        return RadialRingElement._make(self.n, out, self.den)

    def diff(self, i: int) -> "RadialRingElement":
        """Partial derivative in x_i (1-based), using d/dx_i r^b = b r^(b-2) x_i."""
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} outside 1..{self.n}")
        table: dict = {}
        self.add_diff_into(table, i)
        return RadialRingElement._from_table(self.n, table, self.den)

    def add_diff_into(self, table: dict, i: int, k: int = 1) -> None:
        """table += k * den * d/dx_i(self), for an integer part table in normal
        form: the derivative's numerators over den, times the integer k.

        d/dx_i (r^b p) = r^b d_i p + b r^(b-2) x_i p: d_i of a reduced p is
        reduced, and only x_1 p needs the one reduction step of _add_var_times.
        """
        j = i - 1
        for (d, b), p in self.parts.items():
            key = (d - 1, b)
            for alpha, c in p.items():
                e = alpha[j]
                if e:
                    _add_term(table, key, alpha[:j] + (e - 1,) + alpha[j + 1:], c * (k * e))
            if b:
                _add_var_times(table, (d - 1, b - 2), p, j, k * b)

    def add_var_into(self, table: dict, i: int, k: int = 1) -> None:
        """table += k * den * x_i * self, for an integer part table in normal form."""
        for (d, b), p in self.parts.items():
            _add_var_times(table, (d + 1, b), p, i - 1, k)

    def laplacian(self) -> "RadialRingElement":
        """Sum of second partials by the closed form, part by part:

            Delta(r^b p) = r^b Delta p + b (2 deg p + b + n - 2) r^(b-2) p,

        where d_1^2 p = 0 for a reduced p, so every term is already reduced.
        """
        n = self.n
        table: dict = {}
        for (d, b), p in self.parts.items():
            key = (d - 2, b)
            for alpha, c in p.items():
                for j in range(1, n):
                    e = alpha[j]
                    if e >= 2:
                        _add_term(table, key, alpha[:j] + (e - 2,) + alpha[j + 1:],
                                  c * (e * (e - 1)))
            k = b * (2 * (d - b) + b + n - 2)
            if k:
                for alpha, c in p.items():
                    _add_term(table, (d - 2, b - 2), alpha, c * k)
        return RadialRingElement._from_table(n, table, self.den)

    def __eq__(self, other):
        if not isinstance(other, RadialRingElement):
            if other == 0:
                return self.is_zero()
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.parts == other.parts

    __hash__ = None

    # -- sphere restriction and evaluation -----------------------------------

    def sphere_restriction(self) -> dict:
        """Restrict to the unit sphere: drop r powers, sum the part
        polynomials; {alpha: QQ}."""
        out: dict = {}
        for p in self.parts.values():
            _padd_into(out, p)
        return {alpha: QQ(c, self.den) for alpha, c in out.items()}

    # -- serialization -------------------------------------------------------

    def _record_items(self) -> list:
        """[((degree, r_exp), [(alpha, QQ coef), ...]), ...] in the order
        to_records writes them: parts sorted, terms by descending grlex."""
        return [(key, [(alpha, QQ(c, self.den)) for alpha, c in
                       sorted(self.parts[key].items(), key=lambda kv: grlex_key(kv[0]),
                              reverse=True)])
                for key in sorted(self.parts)]

    def to_records(self) -> list:
        return [{"degree": d, "r_exp": b,
                 "terms": [{"alpha": list(alpha), "coef": qq_str(c)} for alpha, c in terms]}
                for (d, b), terms in self._record_items()]

    @classmethod
    def from_records(cls, n: int, recs: list) -> "RadialRingElement":
        """Decode records.  Only the encoding to_records writes is accepted, up
        to how each rational is spelled ("3/3" reads as 1): a term split in
        two, a zero term or a reducible monomial is a ValueError."""
        raw: dict = {}
        read = []
        for rec in recs:
            key = (require_int(rec["degree"], "degree"), require_int(rec["r_exp"], "r_exp"))
            poly = raw.setdefault(key, {})
            terms = []
            for t in rec["terms"]:
                alpha = tuple(require_int(e, "alpha") for e in t["alpha"])
                if len(alpha) != n:
                    raise ValueError("exponent tuple length != n")
                c = require_rational(t["coef"], "coef")
                poly[alpha] = poly.get(alpha, _Q0) + c
                terms.append((alpha, c))
            read.append((key, terms))
        el = cls(n, raw)
        if el._record_items() != read:
            raise ValueError("stored ring element is not in the canonical encoding")
        return el

    # -- display -------------------------------------------------------------

    def __str__(self):
        if not self.parts:
            return "0"
        chunks = []
        for (d, b) in sorted(self.parts, key=lambda k: (k[0], -k[1])):
            body = _poly_str(self.parts[(d, b)], self.den)
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
