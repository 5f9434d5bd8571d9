"""Differential forms on R^n with exact radial-ring coefficients.

A Form of rank q stores nonzero components on strictly increasing 1-based
index tuples of length q.  All operators are exact:

  rot   exterior derivative d (rank q -> q+1)
  div   codifferential (rank q -> q-1), by the index formula
        div(f dx^I) = sum_t (-1)^(t-1) df/dx_{i_t} dx^(I without i_t),
        which equals (-1)^((q-1)n) * rot * on odd n
  R_op  wedge with the radial 1-form sum x_i dx^i (rank +1)
  T_op  contraction with the Euler vector field sum x_i d/dx_i (rank -1)

rot on rank n and div on rank 0 raise GradeError (the result leaves the
exterior algebra).  T_op on rank 0 is the zero 0-form by convention.
"""

from __future__ import annotations

from functools import cache
from math import lcm

from .errors import require_int
from .ring import QQ, RadialRingElement, _layout, qq

_Q0 = QQ(0)


class GradeError(ValueError):
    """Operator applied at a rank where its result is undefined."""


def _check_tuple(idx, n, q):
    if len(idx) != q:
        raise ValueError(f"component tuple {idx} has length {len(idx)}, rank is {q}")
    prev = 0
    for i in idx:
        if not prev < i <= n:
            raise ValueError(f"component tuple {idx} not strictly increasing in 1..{n}")
        prev = i


def _merge_sign(left: tuple, right: tuple) -> int:
    """Sign of sorting the concatenation of two increasing disjoint tuples."""
    inv = 0
    for j in right:
        for i in left:
            if i > j:
                inv += 1
    return -1 if inv % 2 else 1


@cache
def _raise_targets(idx: tuple, n: int) -> tuple:
    """(i, I, odd) for each i in 1..n outside idx: dx^i wedge dx^idx =
    (-1)^odd dx^I with I = idx and i sorted together."""
    out = []
    pos = 0          # entries of idx below i: dx^i moves past them
    for i in range(1, n + 1):
        if pos < len(idx) and idx[pos] == i:
            pos += 1
        else:
            out.append((i, idx[:pos] + (i,) + idx[pos:], pos % 2))
    return tuple(out)


@cache
def _lower_targets(idx: tuple, n: int) -> tuple:
    """(i_t, idx without i_t, t odd) for each entry i_t of idx, t 0-based."""
    return tuple((i, idx[:t] + idx[t + 1:], t % 2) for t, i in enumerate(idx))


def _accumulate(out: dict, key: tuple, term: RadialRingElement,
                negate: bool = False) -> None:
    """out[key] += -term if negate else term.  Sums that cancel stay in out
    as zero elements; Form._of drops them."""
    if negate:
        term = -term
    cur = out.get(key)
    out[key] = term if cur is None else cur + term


class Form:
    """A rank-q form: components {strictly increasing index tuple: nonzero
    RadialRingElement}.

    components must not be mutated after construction.  A form caches its
    sphere restrictions and pairings in _sphere (see _sphere_entry), which is
    None until the form is first paired; ==, to_obj and every operator ignore
    it, and each new Form starts without one.
    """

    __slots__ = ("n", "q", "components", "_sphere")

    def __init__(self, n: int, q: int, components: dict | None = None):
        if not 0 <= q <= n:
            raise ValueError(f"form rank {q} outside 0..{n}")
        self.n = n
        self.q = q
        comps = {}
        if components:
            for idx, el in components.items():
                idx = tuple(idx)
                _check_tuple(idx, n, q)
                if not isinstance(el, RadialRingElement):
                    raise TypeError("components must be RadialRingElement")
                if not el.is_zero():
                    comps[idx] = el
        self.components = comps
        self._sphere = None

    @classmethod
    def _of(cls, n: int, q: int, components: dict) -> "Form":
        """The rank-q form of components that are valid by construction:
        strictly increasing index tuples of length q in 1..n mapped to
        RadialRingElements.  Zero elements are dropped."""
        f = object.__new__(cls)
        f.n, f.q, f._sphere = n, q, None
        f.components = {idx: el for idx, el in components.items() if el.terms}
        return f

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, n: int, q: int) -> "Form":
        return cls(n, q, {})

    @classmethod
    def from_scalar(cls, el: RadialRingElement) -> "Form":
        return cls(el.n, 0, {(): el})

    @classmethod
    def dx(cls, n: int, idx, coef=None) -> "Form":
        """coef * dx^idx; coef defaults to 1."""
        idx = tuple(idx)
        el = coef if isinstance(coef, RadialRingElement) else \
            RadialRingElement.from_rational(n, 1 if coef is None else coef)
        return cls(n, len(idx), {idx: el})

    # -- linear structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.components

    def __add__(self, other: "Form") -> "Form":
        if self.n != other.n or self.q != other.q:
            raise ValueError("cannot add forms of different shape")
        out = dict(self.components)
        for idx, el in other.components.items():
            _accumulate(out, idx, el)
        return Form._of(self.n, self.q, out)

    def __neg__(self) -> "Form":
        return Form._of(self.n, self.q, {i: -e for i, e in self.components.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, c) -> "Form":
        c = qq(c)
        if not c:
            return Form.zero(self.n, self.q)
        return Form._of(self.n, self.q, {i: e.scale(c) for i, e in self.components.items()})

    def mul_r_power(self, b: int) -> "Form":
        return Form._of(self.n, self.q,
                        {i: e.mul_r_power(b) for i, e in self.components.items()})

    def __eq__(self, other):
        return (isinstance(other, Form) and self.n == other.n
                and self.q == other.q and self.components == other.components)

    __hash__ = None

    # -- exterior algebra ----------------------------------------------------

    def hodge_star(self) -> "Form":
        full = tuple(range(1, self.n + 1))
        out: dict = {}
        for idx, el in self.components.items():
            comp = tuple(i for i in full if i not in idx)
            _accumulate(out, comp, el, _merge_sign(idx, comp) < 0)
        return Form._of(self.n, self.n - self.q, out)

    # -- differential operators ----------------------------------------------

    def _rank_step(self, q: int, targets, add_into) -> "Form":
        """The rank-q form sum_I sum_{(i, J, odd) in targets(I, n)}
        (-1)^odd op_i(f_I) dx^J, where add_into(el, table, i, k) adds
        k * el.den * op_i(el) to a term table in normal form: every component
        enters over the lcm of the component denominators."""
        den = self._common_den()
        tables: dict = {}
        for idx, el in self.components.items():
            k = den // el.den
            for i, target, odd in targets(idx, self.n):
                add_into(el, tables.setdefault(target, {}), i, -k if odd else k)
        return self._from_tables(q, tables, den)

    def _common_den(self) -> int:
        return lcm(*(el.den for el in self.components.values()))

    def _from_tables(self, q: int, tables: dict, den: int) -> "Form":
        """The rank-q form of term tables over den; each component's content
        is divided out once."""
        return Form._of(self.n, q, {idx: RadialRingElement._from_table(self.n, t, den)
                                    for idx, t in tables.items() if t})

    def rot(self) -> "Form":
        """Exterior derivative; GradeError at top rank."""
        if self.q == self.n:
            raise GradeError(f"rot undefined on rank-{self.q} forms in dimension {self.n}")
        return self._rank_step(self.q + 1, _raise_targets, RadialRingElement.add_diff_into)

    def div(self) -> "Form":
        """Codifferential by the index formula; GradeError at rank 0.

        div(f dx^I) = sum_t (-1)^(t-1) d f/d x_{i_t} dx^{I w/o i_t}.
        """
        if self.q == 0:
            raise GradeError("div undefined on rank-0 forms")
        return self._rank_step(self.q - 1, _lower_targets, RadialRingElement.add_diff_into)

    def laplacian(self) -> "Form":
        """Componentwise sum of second partials (sign: Delta = rot div + div rot).

        Each coefficient part r^b p, p homogeneous of degree m, maps to
        r^b Delta p + b (2m + b + n - 2) r^(b-2) p (RadialRingElement.laplacian).
        """
        return Form._of(self.n, self.q,
                        {idx: el.laplacian() for idx, el in self.components.items()})

    # -- radial operators ----------------------------------------------------

    def radial_wedge(self) -> "Form":
        """R_op: wedge with sum x_i dx^i.  Rank n input gives the zero form."""
        if self.q == self.n:
            return Form.zero(self.n, self.n)
        return self._rank_step(self.q + 1, _raise_targets, RadialRingElement.add_var_into)

    def radial_contraction(self) -> "Form":
        """T_op: contraction with the Euler field.  Rank 0 gives the zero 0-form."""
        if self.q == 0:
            return Form.zero(self.n, 0)
        return self._rank_step(self.q - 1, _lower_targets, RadialRingElement.add_var_into)

    # -- homogeneity ---------------------------------------------------------

    def coefficient_degrees(self) -> list:
        degs = set()
        for el in self.components.values():
            degs.update(el.degrees())
        return sorted(degs)

    def homogeneous_degree(self):
        """The single coefficient degree, or None if zero or mixed."""
        degs = self.coefficient_degrees()
        return degs[0] if len(degs) == 1 else None

    def homogeneity_split(self) -> dict:
        """Split into {degree: homogeneous Form}."""
        out: dict = {}
        for idx, el in self.components.items():
            for d in el.degrees():
                piece = el.homogeneous_part(d)
                slot = out.setdefault(d, {})
                slot[idx] = piece
        return {d: Form._of(self.n, self.q, comps) for d, comps in sorted(out.items())}

    # -- sphere pairing cache ------------------------------------------------

    def _sphere_entry(self, idx: tuple) -> tuple:
        """(restriction, memo) of component idx: its sphere restriction
        {packed alpha: c}, computed once, and the memo packed alpha ->
        avg_S(x^alpha * restriction) that sphere_inner_product fills."""
        cache = self._sphere
        if cache is None:
            cache = self._sphere = {}
        entry = cache.get(idx)
        if entry is None:
            entry = cache[idx] = (self.components[idx]._sphere_terms(), {})
        return entry

    # -- serialization -------------------------------------------------------

    def to_obj(self) -> dict:
        comps = {}
        for idx in sorted(self.components):
            comps[",".join(map(str, idx))] = self.components[idx].to_records()
        return {"n": self.n, "q": self.q, "components": comps}

    @classmethod
    def from_obj(cls, obj: dict) -> "Form":
        """Decode a stored form.  Only the encoding to_obj writes is accepted
        (up to the spelling of each rational, see from_records): a padded
        component key or a zero component is a ValueError."""
        n, q = require_int(obj["n"], "n"), require_int(obj["q"], "q")
        comps = {}
        for key, recs in obj["components"].items():
            idx = tuple(int(s) for s in key.split(",")) if key else ()
            el = RadialRingElement.from_records(n, recs)
            if key != ",".join(map(str, idx)) or el.is_zero():
                raise ValueError(f"component {key!r} is not in the canonical encoding")
            comps[idx] = el
        return cls(n, q, comps)

    def __str__(self):
        if not self.components:
            return f"0 (rank {self.q})"
        chunks = []
        for idx in sorted(self.components):
            name = "dx^(" + ",".join(map(str, idx)) + ")" if idx else "1"
            chunks.append(f"[{self.components[idx]}] {name}")
        return " + ".join(chunks)

    def __repr__(self):
        return f"<Form n={self.n} q={self.q} {len(self.components)} comps>"


def R_op(form: Form) -> Form:
    return form.radial_wedge()


def T_op(form: Form) -> Form:
    return form.radial_contraction()


# ---------------------------------------------------------------------------
# sphere averages and the exact inner product
# ---------------------------------------------------------------------------

@cache
def monomial_average(alpha: tuple, n: int) -> QQ:
    """Average of x^alpha over the unit sphere S^(n-1), memoised per (alpha, n).

    Zero when any exponent is odd; otherwise
    prod_i (alpha_i - 1)!! / prod_{t=0}^{s-1} (n + 2t) with s = |alpha|/2.
    """
    s2 = 0
    num = 1
    for e in alpha:
        if e % 2:
            return _Q0
        s2 += e // 2
        for j in range(1, e, 2):
            num *= j
    den = 1
    for t in range(s2):
        den *= n + 2 * t
    return QQ(num) / QQ(den)


@cache
def _packed_average(alpha: int, n: int) -> QQ:
    """monomial_average of a packed exponent key."""
    return monomial_average(_layout(n).alpha(alpha), n)


def sphere_inner_product(a: Form, b: Form) -> QQ:
    """Exact average over the unit sphere of the pointwise component pairing.

    Linear in a's terms: each term c x^alpha of a's restriction contributes
    c * avg_S(x^alpha * b's restriction), an entry of b's memo that is
    filled through monomial_average on first use (Form._sphere_entry).  The
    restrictions are keyed by packed exponents, so x^alpha x^beta is the sum
    of two keys, and it averages to zero when a digit is odd."""
    if a.n != b.n or a.q != b.q:
        raise ValueError("mismatched shapes in sphere inner product")
    n = a.n
    odd = _layout(n).odd
    total = _Q0
    for idx in a.components:
        if idx not in b.components:
            continue
        pb, memo = b._sphere_entry(idx)
        for alpha, ca in a._sphere_entry(idx)[0].items():
            avg = memo.get(alpha)
            if avg is None:
                avg = _Q0
                for beta, cb in pb.items():
                    gamma = alpha + beta
                    if not gamma & odd:
                        avg += cb * _packed_average(gamma, n)
                memo[alpha] = avg
            if avg:
                total += ca * avg
    return total


def sphere_gram(forms: list) -> list:
    """Matrix of sphere_inner_product over forms.  The pairing is symmetric,
    so each off-diagonal entry is computed once."""
    gram = [[_Q0] * len(forms) for _ in forms]
    for i, a in enumerate(forms):
        for j in range(i, len(forms)):
            gram[i][j] = gram[j][i] = sphere_inner_product(a, forms[j])
    return gram


# ---------------------------------------------------------------------------
# coordinates for exact linear algebra over spans of forms
# ---------------------------------------------------------------------------

def coordinate_vectors(forms: list) -> tuple[list, list]:
    """Return (keys, vectors): a shared coordinate key list and one exact
    coefficient vector per form.  Key = (component tuple, packed term key),
    sorted by component and then by term key, which is the order of
    (component, degree, r_exp, monomial); canonical because ring elements are
    normal forms."""
    per_comp: dict = {}
    for f in forms:
        for idx, el in f.components.items():
            per_comp.setdefault(idx, set()).update(el.terms)
    keys = [(idx, key) for idx in sorted(per_comp) for key in sorted(per_comp[idx])]
    pos = {k: i for i, k in enumerate(keys)}
    vecs = []
    for f in forms:
        v = [_Q0] * len(keys)
        for idx, el in f.components.items():
            den = el.den
            for key, c in el.terms.items():
                v[pos[(idx, key)]] = QQ(c, den)
        vecs.append(v)
    return keys, vecs
