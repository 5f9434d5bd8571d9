"""Whole-space static Maxwell solution operator and its power bookkeeping.

Two modes live here.  The concrete mode solves (div H, rot E) = (F, G) on
the whole space for data given exactly as tower combinations, using the
floor-shift relations rot D_{1J} = R_J and div R_{1I} = D_I.  The symbolic
mode tracks only the non-integrable tower coefficients of a pair (a
TowerProfile): applying the solution operator shifts every index up one
floor with a D/R role swap, introduces fresh undetermined coefficients on
the floor-0 slots that stop being integrable at the new weight, and keeps
an opaque marker for the integrable remainder it cannot resolve.
"""

from __future__ import annotations

from .errors import SCHEMA, ConsistencyError, HypothesisError
from .forms import Form
from .indices import (enumerate_excluded, in_weighted_l2,
                      is_exceptional_weight, require_hypotheses, shift_index)
from .expansion import MaxwellPair, _expand_side, expand
from .records import Record
from .ring import QQ, qq, qq_str
from .towers import TowerContext

_Q0 = QQ(0)
_Q1 = QQ(1)


class LinExpr:
    """A linear expression c0 + sum(c_name * symbol_name) over exact rationals."""

    __slots__ = ("const", "terms")

    def __init__(self, const=0, terms=None):
        self.const = qq(const)
        self.terms = {}
        for name, c in (terms or {}).items():
            c = qq(c)
            if c:
                self.terms[name] = c

    @classmethod
    def symbol(cls, name: str) -> "LinExpr":
        return cls(0, {name: _Q1})

    @classmethod
    def constant(cls, c) -> "LinExpr":
        return cls(c)

    def is_constant(self) -> bool:
        return not self.terms

    def is_zero(self) -> bool:
        return not self.terms and not self.const

    def __add__(self, other):
        if not isinstance(other, LinExpr):
            other = LinExpr(other)
        terms = dict(self.terms)
        for name, c in other.terms.items():
            v = terms.get(name, _Q0) + c
            if v:
                terms[name] = v
            else:
                terms.pop(name, None)
        return LinExpr(self.const + other.const, terms)

    def __neg__(self):
        return LinExpr(-self.const, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LinExpr):
            other = LinExpr(other)
        return self + (-other)

    def scale(self, c) -> "LinExpr":
        c = qq(c)
        return LinExpr(self.const * c, {k: v * c for k, v in self.terms.items()})

    def substitute(self, assignment: dict) -> "LinExpr":
        out = LinExpr(self.const)
        for name, c in self.terms.items():
            if name in assignment:
                out = out + LinExpr(qq(assignment[name]) * c)
            else:
                out = out + LinExpr(0, {name: c})
        return out

    def __eq__(self, other):
        if not isinstance(other, LinExpr):
            other = LinExpr(other)
        return self.const == other.const and self.terms == other.terms

    __hash__ = None

    def __str__(self):
        parts = []
        if self.const:
            parts.append(qq_str(self.const))
        for name in sorted(self.terms):
            c = self.terms[name]
            parts.append(name if c == 1 else f"{qq_str(c)}*{name}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"LinExpr({self})"

    def to_obj(self):
        if self.is_constant():
            return qq_str(self.const)
        return {"const": qq_str(self.const),
                "terms": {k: qq_str(v) for k, v in sorted(self.terms.items())}}


def _as_expr(c) -> LinExpr:
    return c if isinstance(c, LinExpr) else LinExpr(c)


class TowerProfile(Record):
    """Non-integrable tower data of a pair at weight s.

    f_coeffs carries the D-side (rank q) coefficients, g_coeffs the R-side
    (rank q+1).  Every stored index must fail weight-s membership; the
    integrable remainder is represented only by the l2_part marker.
    """

    _fields = ("n", "q", "s", "f_coeffs", "g_coeffs", "l2_part", "step")

    def __init__(self, n: int, q: int, s, f_coeffs: dict | None = None,
                 g_coeffs: dict | None = None, l2_part: bool = True, step: int = 0):
        if not 1 <= q <= n - 2:
            raise ValueError(
                f"profile rank q={q} outside 1..{n - 2} "
                "(extreme ranks carry exceptional slots the bookkeeping excludes)")
        self.n, self.q, self.s = n, q, qq(s)
        if is_exceptional_weight(self.s, n):
            raise HypothesisError(f"weight s={qq_str(self.s)} is exceptional")
        self.f_coeffs = {i: _as_expr(c) for i, c in (f_coeffs or {}).items()}
        self.g_coeffs = {i: _as_expr(c) for i, c in (g_coeffs or {}).items()}
        self.l2_part, self.step = l2_part, step
        for idx in list(self.f_coeffs) + list(self.g_coeffs):
            if in_weighted_l2(idx, self.s, self.n):
                raise ValueError(
                    f"index {idx} is weight-{qq_str(self.s)} integrable; "
                    "profiles store only the non-integrable part")

    def max_degree(self):
        """Largest coefficient degree among stored indices (None if empty)."""
        degs = [i.degree(self.n) for i in list(self.f_coeffs) + list(self.g_coeffs)]
        return max(degs) if degs else None

    @property
    def l2_weight(self):
        return self.s if self.l2_part else None

    def symbols(self) -> set:
        out = set()
        for c in list(self.f_coeffs.values()) + list(self.g_coeffs.values()):
            out |= set(c.terms)
        return out

    def to_obj(self) -> dict:
        def cmap(d):
            return [dict(i.to_obj(), coeff=c.to_obj()) for i, c in sorted(d.items())]
        return {"schema": SCHEMA, "kind": "tower_profile",
                "n": self.n, "q": self.q, "s": qq_str(self.s), "step": self.step,
                "l2_part": f"L2({qq_str(self.s)})" if self.l2_part else None,
                "f_coeffs": cmap(self.f_coeffs), "g_coeffs": cmap(self.g_coeffs)}


def _shifted(coeffs: dict) -> dict:
    """The floor shift k -> k+1 of every index of a coefficient map."""
    return {shift_index(idx, 1)[0]: c for idx, c in coeffs.items()}


def apply_L_profile(profile: TowerProfile, tau=None) -> TowerProfile:
    """One application of the solution operator, on the bookkeeping level.

    The g-coefficient at J lands on the new D side at 1J, the f-coefficient
    at I on the new R side at 1I, and every floor-0 index that fails
    membership at the new weight s-1 gets a fresh symbolic coefficient.
    """
    n, q, s = profile.n, profile.q, profile.s
    require_hypotheses("operator_domain", n, s, tau,
                       max_degree=profile.max_degree())
    new_s = s - 1
    step = profile.step + 1
    new = []
    for rank, line, fresh, source in ((q, "D", "Et", profile.g_coeffs),
                                      (q + 1, "R", "Ht", profile.f_coeffs)):
        coeffs = _shifted(source)
        for idx in enumerate_excluded(n, rank, line, 0, new_s):
            coeffs[idx] = LinExpr.symbol(f"{fresh}{step}({idx.sigma},{idx.m})")
        new.append(coeffs)
    return TowerProfile(n=n, q=q, s=new_s, f_coeffs=new[0], g_coeffs=new[1],
                        l2_part=profile.l2_part, step=step)


class OperatorRangeDescriptor(Record):
    """Where j applications send a profile: the target index sets and every
    weight t whose space contains the whole range.  max_data_degree is over
    the source data, None when it is empty."""

    _fields = ("n", "q", "source_weight", "power", "target_weight", "new_d",
               "new_r", "shifted_d", "shifted_r", "max_data_degree", "parity_swapped")

    def __init__(self, n: int, q: int, source_weight, power: int, target_weight,
                 new_d: list, new_r: list, shifted_d: list, shifted_r: list,
                 max_data_degree, parity_swapped: bool = False):
        self.n, self.q, self.power = n, q, power
        self.source_weight, self.target_weight = source_weight, target_weight
        self.new_d, self.new_r = new_d, new_r
        self.shifted_d, self.shifted_r = shifted_d, shifted_r
        self.max_data_degree, self.parity_swapped = max_data_degree, parity_swapped

    def t_bounds(self) -> dict:
        """The three admissibility constraints on t (None = vacuous)."""
        n, j = self.n, self.power
        out = {"t_max_inclusive": self.target_weight,
               "t_sup_shift": QQ(n, 2) - j + 1,
               "t_sup_data": None}
        if self.max_data_degree is not None:
            out["t_sup_data"] = -qq(j) - QQ(n, 2) - qq(self.max_data_degree)
        return out

    def admissible_weight(self, t) -> bool:
        t = qq(t)
        b = self.t_bounds()
        if not t <= qq(b["t_max_inclusive"]):
            return False
        if not t < qq(b["t_sup_shift"]):
            return False
        if b["t_sup_data"] is not None and not t < qq(b["t_sup_data"]):
            return False
        return True

    def membership_cross_check(self, t) -> dict:
        """At an admissible t every range index must be integrable; at the
        target weight every listed index must fail."""
        t = qq(t)
        n = self.n
        bad = []
        if self.admissible_weight(t):
            for idx in self.new_d + self.shifted_d + self.new_r + self.shifted_r:
                if not in_weighted_l2(idx, t, n):
                    bad.append(f"{idx} not integrable at admissible t={qq_str(t)}")
        for idx in self.new_d + self.shifted_d + self.new_r + self.shifted_r:
            if in_weighted_l2(idx, qq(self.target_weight), n):
                bad.append(f"{idx} integrable at target weight")
        return {"passed": not bad, "failures": bad}

    def to_obj(self) -> dict:
        b = self.t_bounds()
        return {"schema": SCHEMA, "kind": "operator_range",
                "n": self.n, "q": self.q,
                "source_weight": qq_str(qq(self.source_weight)),
                "power": self.power,
                "target_weight": qq_str(qq(self.target_weight)),
                "new_d": [i.to_obj() for i in self.new_d],
                "new_r": [i.to_obj() for i in self.new_r],
                "shifted_d": [i.to_obj() for i in self.shifted_d],
                "shifted_r": [i.to_obj() for i in self.shifted_r],
                "parity_swapped": self.parity_swapped,
                "t_bounds": {k: (None if v is None else qq_str(qq(v)))
                             for k, v in b.items()}}


def require_power(profile: TowerProfile, j: int, tau=None) -> None:
    """The hypotheses of a j-fold application to profile: j >= 1 and the
    operator_power context."""
    if j < 1:
        raise ValueError("power j must be >= 1")
    require_hypotheses("operator_power", profile.n, profile.s, tau, j=j,
                       max_degree=profile.max_degree())


def range_descriptor(chain: list) -> OperatorRangeDescriptor:
    """The range of the application that took chain[0] to chain[-1], where
    chain lists the profile after each apply_L_profile step."""
    profile, cur, j = chain[0], chain[-1], len(chain) - 1
    src_f, src_g = set(profile.f_coeffs), set(profile.g_coeffs)
    shifts = {idx: shift_index(idx, j)[0] for idx in src_f | src_g}
    odd = j % 2 == 1
    shifted_d = sorted(shifts[i] for i in (src_g if odd else src_f))
    shifted_r = sorted(shifts[i] for i in (src_f if odd else src_g))
    old_d, old_r = set(shifted_d), set(shifted_r)
    new_d = [i for i in sorted(cur.f_coeffs) if i not in old_d]
    new_r = [i for i in sorted(cur.g_coeffs) if i not in old_r]
    return OperatorRangeDescriptor(
        n=profile.n, q=profile.q, source_weight=profile.s, power=j,
        target_weight=cur.s, new_d=new_d, new_r=new_r, shifted_d=shifted_d,
        shifted_r=shifted_r, max_data_degree=profile.max_degree(),
        parity_swapped=odd)


def apply_L_power(profile: TowerProfile, j: int, tau=None):
    """j-fold application; returns (profile, OperatorRangeDescriptor)."""
    require_power(profile, j, tau)
    chain = [profile]
    for _ in range(j):
        chain.append(apply_L_profile(chain[-1], tau))
    return chain[-1], range_descriptor(chain)


# ---------------------------------------------------------------------------
# concrete whole-space mode
# ---------------------------------------------------------------------------

def _coeffs_of(form: Form, rank: int, line: str, ctx: TowerContext,
               k_max: int) -> dict:
    side = _expand_side(form, rank, line, k_max, ctx, None)
    if not side.exact:
        raise ValueError(
            f"{line}-side data not in the constructed tower span "
            f"(floors <= {k_max}); expand with more floors or fix the input")
    return side.coeffs


def solve_whole_space(f_form: Form, g_form: Form, ctx: TowerContext,
                      k_max: int = 6) -> MaxwellPair:
    """Solve (div H, rot E) = (F, G) exactly on tower spans.

    E picks up G's coefficients one floor up on the D line, H picks up F's
    one floor up on the R line; div E = 0 and rot H = 0 come for free.
    """
    n = ctx.n
    if f_form.n != n or g_form.n != n:
        raise ValueError("dimension mismatch")
    q = f_form.q
    if g_form.q != q + 1:
        raise ValueError("data ranks must be (q, q+1)")
    f_coeffs = _coeffs_of(f_form, q, "D", ctx, k_max)
    g_coeffs = _coeffs_of(g_form, q + 1, "R", ctx, k_max)
    e = ctx.combine(q, "D", _shifted(g_coeffs))
    h = ctx.combine(q + 1, "R", _shifted(f_coeffs))
    if e.rot() != g_form:
        raise ConsistencyError("rot E != G after whole-space solve")
    if h.div() != f_form:
        raise ConsistencyError("div H != F after whole-space solve")
    if q > 0 and not e.div().is_zero():
        raise ConsistencyError("div E != 0 after whole-space solve")
    if q + 1 < n and not h.rot().is_zero():
        raise ConsistencyError("rot H != 0 after whole-space solve")
    return MaxwellPair(e, h)


def verify_recursion(ctx: TowerContext, q: int, f_coeffs: dict, g_coeffs: dict,
                     j: int, k_max: int | None = None) -> dict:
    """Iterate the concrete solver and check the coefficient recursion.

    Starting from data (F, G) = (sum f_I D_I, sum g_J R_J), each application
    must relabel coefficients by a single floor shift with a D/R swap, and
    re-expanding the solved forms must reproduce exactly those coefficient
    maps with zero residual and no extra entries.
    """
    n = ctx.n
    top = max([i.k for i in list(f_coeffs) + list(g_coeffs)] or [0])
    if k_max is None:
        k_max = top + j
    checks = []

    def add(name, passed, detail=""):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    cur_f = {idx: qq(c) for idx, c in f_coeffs.items()}
    cur_g = {idx: qq(c) for idx, c in g_coeffs.items()}
    cur_pair = MaxwellPair(ctx.combine(q, "D", cur_f), ctx.combine(q + 1, "R", cur_g))
    for step in range(1, j + 1):
        solved = solve_whole_space(cur_pair.e, cur_pair.h, ctx, k_max=k_max)
        maxwell_image = (solved.h.div(), solved.e.rot())
        add(f"step-{step}-solves-data",
            maxwell_image[0] == cur_pair.e and maxwell_image[1] == cur_pair.h)
        want_e = {i: c for i, c in _shifted(cur_g).items() if c}
        want_h = {i: c for i, c in _shifted(cur_f).items() if c}
        res = expand(solved, top + step + 1, ctx)
        add(f"step-{step}-expansion-exact", res.exact)
        got_e = dict(res.e_side.coeffs)
        got_h = dict(res.h_side.coeffs)
        add(f"step-{step}-coefficients-shifted",
            got_e == want_e and got_h == want_h,
            "" if (got_e == want_e and got_h == want_h) else
            f"expected E {sorted(map(str, want_e))} got {sorted(map(str, got_e))}; "
            f"expected H {sorted(map(str, want_h))} got {sorted(map(str, got_h))}")
        add(f"step-{step}-no-fresh-unknowns",
            res.e_side.hat_coeff in (None, _Q0) and
            res.h_side.hat_coeff in (None, _Q0))
        cur_f, cur_g = want_e, want_h
        cur_pair = solved
    return {"passed": all(c["passed"] for c in checks), "n": n, "q": q,
            "power": j, "checks": checks}
