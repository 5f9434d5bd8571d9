"""Differential forms on R^n with exact radial-ring coefficients.

A Form of rank q has nonzero components on strictly increasing 1-based
index tuples of length q.  All operators are exact:

  rot   exterior derivative d (rank q -> q+1)
  div   codifferential (rank q -> q-1), by the index formula
        div(f dx^I) = sum_t (-1)^(t-1) df/dx_{i_t} dx^(I without i_t),
        which equals (-1)^((q-1)n) * rot * on odd n
  R_op  wedge with the radial 1-form sum x_i dx^i (rank +1)
  T_op  contraction with the Euler vector field sum x_i d/dx_i (rank -1)

rot on rank n and div on rank 0 raise GradeError (the result leaves the
exterior algebra).  T_op on rank 0 is the zero 0-form by convention.

Flat layout.  A form is one term table {key: int numerator} over one
positive denominator shared by all its components, with no factor common to
the denominator and all the numerators, like a ring element (ring.py).  A key
is a ring key with the component's dx-index set in the field above the
degree field: bit n - i of that field is set when dx^i is *absent*, so for
one rank, integer order of the fields is the order of the index tuples, and
integer order of keys is the coordinate order (component, degree, r
exponent, monomial) that canonical bases are reduced in (harmonic.py).
Each rank step then moves a term by the fixed offset of its derivative or
x_i factor, plus or minus the bit of dx^i, with the sign (-1)^(entries of
the index set below i); the records for each component field are built once
per dimension (_targets).  The operators run one loop over the table and
divide out the content once per result.

No operator carries into the component field: the ring fields below it stay
in [0, 2^32) (see the packing bound in ring.py), rot and R_op clear only a
bit they have read as set, div and T_op set only a bit they have read as
clear, and the Hodge star maps each field to its complement.
"""

from __future__ import annotations

from functools import cache
from math import lcm

from .errors import require_dim, require_int
from .ring import (_DIGIT, D_OFFSET, QQ, RadialRingElement, _diff_terms, _encode_records,
                   _laplacian_terms, _layout, _normalized, _plus_terms, _read_terms,
                   _record_items, _scaled_terms, _shifted_terms, _table_over_lcm,
                   _var_terms, qq)

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


# ---------------------------------------------------------------------------
# the component field
# ---------------------------------------------------------------------------

@cache
def _field(idx: tuple, n: int) -> int:
    """The component field of dx^idx: bit n - i set for each i not in idx."""
    field = (1 << n) - 1
    for i in idx:
        field ^= 1 << (n - i)
    return field


@cache
def _indices(field: int, n: int) -> tuple:
    """The index tuple of a component field."""
    return tuple(i for i in range(1, n + 1) if not field >> (n - i) & 1)


class _Targets(dict):
    """Component field -> the kernel records of one operator, made on first
    use by make(field)."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, field):
        records = self[field] = self.make(field)
        return records


@cache
def _targets(n: int, raising: bool, var: bool) -> _Targets:
    """The records of rot (raising, d/dx_i), div, R_op (raising, x_i) or
    T_op: for each i whose dx^i is absent (raising) or present, the term
    moves to the component with dx^i added or removed, with sign
    (-1)^(entries of the index set below i)."""
    layout = _layout(n)
    make = layout.var_target if var else layout.diff_target

    def records(field):
        out = []
        for i in range(1, n + 1):
            bit = 1 << (n - i)
            if bool(field & bit) != raising:
                continue
            below = i - 1 - (field >> (n - i + 1)).bit_count()
            out.append(make(i - 1, (-bit if raising else bit) << layout.sc, below % 2 == 1))
        return tuple(out)

    return _Targets(records)


def _merge_sign(left: tuple, right: tuple) -> int:
    """Sign of sorting the concatenation of two increasing disjoint tuples."""
    inv = 0
    for j in right:
        for i in left:
            if i > j:
                inv += 1
    return -1 if inv % 2 else 1


@cache
def _hodge_moves(n: int) -> _Targets:
    """Component field -> (key offset, negate) of the Hodge star: dx^I maps
    to sign(I, I^c) dx^(I^c), whose field is the complement of I's."""
    full = (1 << n) - 1
    sc = _layout(n).sc

    def move(field):
        idx = _indices(field, n)
        comp = _indices(full ^ field, n)
        return ((full ^ field) - field) << sc, _merge_sign(idx, comp) < 0

    return _Targets(move)


class Form:
    """A rank-q form: one term table over one denominator (see the module
    docstring).  Form(n, q, {index tuple: RadialRingElement}) is the
    validated constructor, and components shows the same mapping, built on
    each read.

    terms must not be mutated after construction.  A form caches its
    sphere restrictions and its averages against the monomials of the forms
    it was paired with in _sphere (see _sphere_entries), which is None
    until the form is first paired; ==, to_obj and every operator ignore
    it, and each new Form starts without one.  A SpherePairing that lists
    the form reads its restrictions but keeps its own averages.
    """

    __slots__ = ("n", "q", "terms", "den", "_sphere")

    def __init__(self, n: int, q: int, components: dict | None = None):
        if not 0 <= q <= n:
            raise ValueError(f"form rank {q} outside 0..{n}")
        comps = []
        for idx, el in (components or {}).items():
            idx = tuple(idx)
            _check_tuple(idx, n, q)
            if not isinstance(el, RadialRingElement):
                raise TypeError("components must be RadialRingElement")
            if el.n != n:
                raise ValueError(f"component {idx} has {el.n} variables, the form {n}")
            if el.terms:
                comps.append((idx, el))
        den = lcm(*(el.den for _, el in comps))
        terms: dict = {}
        if comps:
            sc = _layout(n).sc
            for idx, el in comps:
                top, k = _field(idx, n) << sc, den // el.den
                for key, c in el.terms.items():
                    terms[top + key] = c * k
        # each component has no common factor with its own den, so the
        # combined table has none with the lcm
        self.n, self.q, self.terms, self.den, self._sphere = n, q, terms, den, None

    @classmethod
    def _make(cls, n: int, q: int, terms: dict, den: int) -> "Form":
        """The form (terms, den), already canonical."""
        f = object.__new__(cls)
        f.n, f.q, f.terms, f.den, f._sphere = n, q, terms, den, None
        return f

    @classmethod
    def _from_table(cls, n: int, q: int, table: dict, den: int) -> "Form":
        """table / den for a fresh zero-free term table of valid keys; the
        content is divided out."""
        return cls._make(n, q, *_normalized(table, den))

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, n: int, q: int) -> "Form":
        return cls(n, q)

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

    # -- structure -----------------------------------------------------------

    @property
    def components(self) -> dict:
        """The components as a fresh {index tuple: RadialRingElement}, in
        index order."""
        n = self.n
        layout = _layout(n)
        sc, mask = layout.sc, layout.ring_mask
        groups: dict = {}
        for key, c in self.terms.items():
            groups.setdefault(key >> sc, {})[key & mask] = c
        return {_indices(field, n): RadialRingElement._from_table(n, table, self.den)
                for field, table in sorted(groups.items())}

    def is_zero(self) -> bool:
        return not self.terms

    # -- linear structure ----------------------------------------------------

    def _plus(self, other: "Form", sign: int) -> "Form":
        if self.n != other.n or self.q != other.q:
            raise ValueError("cannot add forms of different shape")
        return Form._make(self.n, self.q,
                          *_plus_terms(self.terms, self.den, other.terms, other.den, sign))

    def __add__(self, other: "Form") -> "Form":
        return self._plus(other, 1)

    def __sub__(self, other: "Form") -> "Form":
        return self._plus(other, -1)

    def __neg__(self) -> "Form":
        return Form._make(self.n, self.q, {key: -c for key, c in self.terms.items()}, self.den)

    def scale(self, c) -> "Form":
        c = qq(c)
        if not c:
            return Form.zero(self.n, self.q)
        return Form._make(self.n, self.q, *_scaled_terms(self.terms, self.den, c))

    def mul_r_power(self, b: int) -> "Form":
        """r^b times the form; a ValueError where an r field leaves its range."""
        return Form._make(self.n, self.q, _shifted_terms(self.terms, _layout(self.n), b),
                          self.den)

    def __eq__(self, other):
        return (isinstance(other, Form) and self.n == other.n and self.q == other.q
                and self.den == other.den and self.terms == other.terms)

    __hash__ = None

    # -- exterior algebra ----------------------------------------------------

    def hodge_star(self) -> "Form":
        moves = _hodge_moves(self.n)
        sc = _layout(self.n).sc
        out = {}
        for key, c in self.terms.items():
            delta, neg = moves[key >> sc]
            out[key + delta] = -c if neg else c
        return Form._make(self.n, self.n - self.q, out, self.den)

    # -- differential operators ----------------------------------------------

    def _step(self, q: int, kernel, raising: bool, var: bool) -> "Form":
        """The rank-q form sum_I sum_i (-1)^(entries of I below i) op_i(f_I)
        dx^(I with i added or removed), op_i = d/dx_i (kernel _diff_terms) or
        x_i (_var_terms)."""
        n = self.n
        table = kernel(self.terms, _layout(n), _targets(n, raising, var))
        return Form._from_table(n, q, table, self.den)

    def rot(self) -> "Form":
        """Exterior derivative; GradeError at top rank."""
        if self.q == self.n:
            raise GradeError(f"rot undefined on rank-{self.q} forms in dimension {self.n}")
        return self._step(self.q + 1, _diff_terms, True, False)

    def div(self) -> "Form":
        """Codifferential by the index formula; GradeError at rank 0.

        div(f dx^I) = sum_t (-1)^(t-1) d f/d x_{i_t} dx^{I w/o i_t}.
        """
        if self.q == 0:
            raise GradeError("div undefined on rank-0 forms")
        return self._step(self.q - 1, _diff_terms, False, False)

    def laplacian(self) -> "Form":
        """Componentwise sum of second partials (sign: Delta = rot div + div rot).

        Each term r^b x^alpha maps to r^b Delta x^alpha
        + b (2 |alpha| + b + n - 2) r^(b-2) x^alpha (ring._laplacian_terms).
        """
        table = _laplacian_terms(self.terms, _layout(self.n))
        return Form._from_table(self.n, self.q, table, self.den)

    # -- radial operators ----------------------------------------------------

    def radial_wedge(self) -> "Form":
        """R_op: wedge with sum x_i dx^i.  Rank n input gives the zero form."""
        if self.q == self.n:
            return Form.zero(self.n, self.n)
        return self._step(self.q + 1, _var_terms, True, True)

    def radial_contraction(self) -> "Form":
        """T_op: contraction with the Euler field.  Rank 0 gives the zero 0-form."""
        if self.q == 0:
            return Form.zero(self.n, 0)
        return self._step(self.q - 1, _var_terms, False, True)

    # -- homogeneity ---------------------------------------------------------

    def coefficient_degrees(self) -> list:
        sd = _layout(self.n).sd
        return sorted(d - D_OFFSET for d in {key >> sd & _DIGIT for key in self.terms})

    def homogeneous_degree(self):
        """The single coefficient degree, or None if zero or mixed."""
        degs = self.coefficient_degrees()
        return degs[0] if len(degs) == 1 else None

    def homogeneity_split(self) -> dict:
        """Split into {degree: homogeneous Form}."""
        sd = _layout(self.n).sd
        out: dict = {}
        for key, c in self.terms.items():
            out.setdefault(key >> sd & _DIGIT, {})[key] = c
        return {d - D_OFFSET: Form._from_table(self.n, self.q, table, self.den)
                for d, table in sorted(out.items())}

    # -- sphere pairing cache ------------------------------------------------

    def _sphere_entries(self) -> dict:
        """{component field: (restriction, memo)}: each component's sphere
        restriction {packed alpha: int numerator over den}, computed once for
        the whole form, and the memo packed alpha -> (num, d) that
        sphere_inner_product fills, with avg_S(x^alpha * restriction) =
        num / (d den) (see _average_against)."""
        entries = self._sphere
        if entries is None:
            layout = _layout(self.n)
            sc, mask = layout.sc, layout.alpha_mask
            sums: dict = {}
            for key, c in self.terms.items():
                slot = sums.get(key >> sc)
                if slot is None:
                    slot = sums[key >> sc] = {}
                a = key & mask
                slot[a] = slot.get(a, 0) + c
            entries = self._sphere = {
                field: ({a: c for a, c in slot.items() if c}, {})
                for field, slot in sums.items()}
        return entries

    # -- serialization -------------------------------------------------------

    def to_obj(self) -> dict:
        groups: dict = {}
        for field, part, items in _record_items(self.terms, self.den, _layout(self.n)):
            groups.setdefault(field, []).append((part, items))
        comps = {",".join(map(str, _indices(field, self.n))): _encode_records(parts)
                 for field, parts in groups.items()}
        return {"n": self.n, "q": self.q, "components": comps}

    @classmethod
    def from_obj(cls, obj: dict) -> "Form":
        """Decode a stored form into its one table.  Only the encoding to_obj
        writes is accepted (up to the spelling of each rational, see
        ring._read_terms): a padded component key or a zero component is a
        ValueError, and so is an n above MAX_DIM."""
        n, q = require_int(obj["n"], "n"), require_int(obj["q"], "q")
        if not 0 <= q <= n:
            raise ValueError(f"form rank {q} outside 0..{n}")
        terms: list = []
        for key, recs in obj["components"].items():
            idx = tuple(int(s) for s in key.split(",")) if key else ()
            read: list = []
            if key == ",".join(map(str, idx)):
                _check_tuple(idx, n, q)
                _read_terms(n, recs, read)
            if not read:
                raise ValueError(f"component {key!r} is not in the canonical encoding")
            top = _field(idx, n) << _layout(n).sc
            terms += [(top + k, p, d) for k, p, d in read]
        # _read_terms bounds n before it builds a layout; this bounds a form
        # without components
        require_dim(n)
        return cls._make(n, q, *_table_over_lcm(terms))

    def __str__(self):
        if not self.terms:
            return f"0 (rank {self.q})"
        chunks = []
        for idx, el in self.components.items():
            name = "dx^(" + ",".join(map(str, idx)) + ")" if idx else "1"
            chunks.append(f"[{el}] {name}")
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
def _average_denominator(n: int, s: int) -> int:
    """n (n + 2) ... (n + 2s - 2), the denominator of a degree-2s average
    before reduction; it divides the one of every larger s."""
    den = 1
    for t in range(s):
        den *= n + 2 * t
    return den


def _average_parts(alpha: tuple, n: int):
    """(num, den) with avg_S(x^alpha) = num / den, den =
    _average_denominator(n, |alpha| / 2), or None when an exponent is odd."""
    s2 = 0
    num = 1
    for e in alpha:
        if e % 2:
            return None
        s2 += e // 2
        for j in range(1, e, 2):
            num *= j
    return num, _average_denominator(n, s2)


@cache
def monomial_average(alpha: tuple, n: int) -> QQ:
    """Average of x^alpha over the unit sphere S^(n-1), memoised per (alpha, n).

    Zero when any exponent is odd; otherwise
    prod_i (alpha_i - 1)!! / prod_{t=0}^{s-1} (n + 2t) with s = |alpha|/2.
    """
    parts = _average_parts(alpha, n)
    return _Q0 if parts is None else QQ(*parts)


@cache
def _packed_average(alpha: int, n: int) -> tuple:
    """_average_parts of a packed exponent key whose digits are all even."""
    return _average_parts(_layout(n).alpha(alpha), n)


# the memo entry of every average that is zero, shared
_ZERO_AVERAGE = (0, 1)


def _average_against(alpha: int, restriction: dict, n: int, odd: int) -> tuple:
    """(num, d) with avg_S(x^alpha * sum_beta c_beta x^beta) = num / d for
    the integer restriction {beta: c_beta}; d is the largest
    _average_denominator met, which every smaller one divides."""
    num, d = 0, 1
    for beta, c in restriction.items():
        gamma = alpha + beta
        if not gamma & odd:
            gn, gd = _packed_average(gamma, n)
            if gd == d:
                num += c * gn
            elif gd > d:
                num = num * (gd // d) + c * gn
                d = gd
            else:
                num += c * gn * (d // gd)
    return (num, d) if num else _ZERO_AVERAGE


def sphere_inner_product(a: Form, b: Form) -> QQ:
    """Exact average over the unit sphere of the pointwise component pairing.

    Linear in a's terms: each term c x^alpha of a's restriction contributes
    c * avg_S(x^alpha * b's restriction), an entry of b's memo that is
    filled on first use (Form._sphere_entries, _average_against).  The
    restrictions are keyed by packed exponents, so x^alpha x^beta is the
    sum of two keys, and it averages to zero when a digit is odd.  Both
    restrictions and the memo hold integers: the products are summed as one
    numerator over the largest average denominator met, and divided by it
    and by the two forms' dens in the one Fraction returned."""
    if a.n != b.n or a.q != b.q:
        raise ValueError("mismatched shapes in sphere inner product")
    n = a.n
    odd = _layout(n).odd
    num, d = 0, 1
    entries = b._sphere_entries()
    for field, (pa, _) in a._sphere_entries().items():
        entry = entries.get(field)
        if entry is None:
            continue
        pb, memo = entry
        for alpha, ca in pa.items():
            avg = memo.get(alpha)
            if avg is None:
                avg = memo[alpha] = _average_against(alpha, pb, n, odd)
            an, ad = avg
            if an:
                if ad == d:
                    num += ca * an
                elif ad > d:
                    num = num * (ad // d) + ca * an
                    d = ad
                else:
                    num += ca * an * (d // ad)
    return QQ(num, d * a.den * b.den) if num else _Q0


class SpherePairing:
    """The sphere pairing of any form against a fixed list of forms,
    transposed: one lookup per term of the form gives its products with
    every listed form at once.

    averages maps {component field: {packed alpha: [(position, num, d),
    ...]}}, with avg_S(x^alpha * restriction of forms[position]) = num / d,
    the form's den included in d, and keeps only the averages that are not
    0.  It is filled on first use by _average_against, from each listed
    form's restriction (Form._sphere_entries) but not into its memo."""

    __slots__ = ("forms", "averages")

    def __init__(self, forms):
        self.forms = tuple(forms)
        self.averages: dict = {}

    def _fill(self, field: int, alpha: int, n: int) -> list:
        """The nonzero entries of one (field, alpha)."""
        odd = _layout(n).odd
        out = []
        for j, f in enumerate(self.forms):
            entry = f._sphere_entries().get(field)
            if entry is not None:
                num, d = _average_against(alpha, entry[0], n, odd)
                if num:
                    out.append((j, num, d * f.den))
        return out

    def numerators(self, piece: Form) -> tuple[list, list]:
        """(nums, ds) with sphere_inner_product(piece, forms[j]) =
        nums[j] / (ds[j] piece.den): each term of piece's restriction adds
        its integer products to the positions its entry lists, over the
        largest denominator met, as in sphere_inner_product: the ds of one
        position are average denominators times the same den, so each
        smaller one divides each larger one."""
        forms = self.forms
        if forms and (piece.n, piece.q) != (forms[0].n, forms[0].q):
            raise ValueError("mismatched shapes in sphere inner product")
        nums, ds = [0] * len(forms), [1] * len(forms)
        averages, n = self.averages, piece.n
        for field, (restriction, _) in piece._sphere_entries().items():
            table = averages.get(field)
            if table is None:
                table = averages[field] = {}
            for alpha, c in restriction.items():
                entries = table.get(alpha)
                if entries is None:
                    entries = table[alpha] = self._fill(field, alpha, n)
                for j, an, ad in entries:
                    d = ds[j]
                    if ad == d:
                        nums[j] += c * an
                    elif ad > d:
                        nums[j] = nums[j] * (ad // d) + c * an
                        ds[j] = ad
                    else:
                        nums[j] += c * an * (d // ad)
        return nums, ds


def sphere_gram(forms: list) -> list:
    """Matrix of sphere_inner_product over forms.  The pairing is symmetric,
    so each off-diagonal entry is computed once."""
    gram = [[_Q0] * len(forms) for _ in forms]
    for i, a in enumerate(forms):
        for j in range(i, len(forms)):
            gram[i][j] = gram[j][i] = sphere_inner_product(a, forms[j])
    return gram


# ---------------------------------------------------------------------------
# dense coordinates of forms
# ---------------------------------------------------------------------------

def coordinate_vectors(forms: list) -> tuple[list, list]:
    """Return (keys, vectors): the sorted union of the forms' term keys and
    one exact coefficient vector per form.  Key order is the order of
    (component, degree, r_exp, monomial); canonical because forms are normal
    forms.  The library's solves eliminate the term tables themselves
    (linalg.rref); the dense oracles of the tests read these vectors."""
    keys = sorted(set().union(*(f.terms for f in forms)))
    pos = {k: i for i, k in enumerate(keys)}
    vecs = []
    for f in forms:
        v = [_Q0] * len(keys)
        den = f.den
        for key, c in f.terms.items():
            v[pos[key]] = QQ(c, den)
        vecs.append(v)
    return keys, vecs
