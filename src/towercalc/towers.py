"""Tower families: graded ladders of static Maxwell solutions.

A family at (n, q, sign, sigma) couples a rank-q "D" line (divergence-free)
with a rank-(q+1) "R" line (rotation-free).  Floor 0 of each line is a seed
space basis; higher floors are produced by exact closed-form ladders inside
the module generated by a seed W together with its radial wedge and
contraction.  The defining relations, verified exactly after assembly:

    rot D_0 = 0,  div R_0 = 0                      (seed closedness)
    div D_k = 0,  rot R_k = 0        for all k     (line constraints)
    rot D_k = R_{k-1},  div R_k = D_{k-1}  (k>=1)  (ladder relations)

Floor degrees are sigma + k for sign +1 and k - sigma - n for sign -1.

At sign -1, sigma 0 the extreme families have an identically vanishing
floor-0 entry on one line (rank-0 / rank-n seeds do not decay); their
ladders bootstrap from the inverse-power radial form at floor 1 instead.
Those bootstrapped members are exactly the exceptional forms that the
weighted expansions single out.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyError, InvalidRankError, require_odd_dimension
from .forms import Form, R_op, T_op, sphere_inner_product
from .harmonic import mu, seed_basis
from .linalg import matrix_rank
from .ring import QQ, qq, qq_str

_Q1 = QQ(1)


# ---------------------------------------------------------------------------
# indices and coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class TowerIndex:
    """Position of one tower member: (sign, floor k, sector sigma, member m)."""

    sign: int
    k: int
    sigma: int
    m: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1/-1, got {self.sign}")
        if self.k < 0 or self.sigma < 0 or self.m < 1:
            raise ValueError(f"bad tower index {self}")

    def degree(self, n: int) -> int:
        """Coefficient homogeneity degree of the member."""
        return homogeneity_degree(self.sign, self.k, self.sigma, n)

    def to_obj(self) -> dict:
        return {"sign": "+" if self.sign > 0 else "-", "k": self.k,
                "sigma": self.sigma, "m": self.m}

    @classmethod
    def from_obj(cls, obj: dict) -> "TowerIndex":
        sign = obj["sign"]
        sign = {1: 1, -1: -1, "+": 1, "-": -1, "+1": 1, "-1": -1}[sign]
        return cls(sign, int(obj["k"]), int(obj["sigma"]), int(obj["m"]))

    def __str__(self):
        s = "+" if self.sign > 0 else "-"
        return f"({s},k={self.k},sigma={self.sigma},m={self.m})"


def homogeneity_degree(sign: int, k: int, sigma: int, n: int) -> int:
    """Coefficient degree of floor k: sigma + k growing, k - sigma - n decaying."""
    return k + sigma if sign > 0 else k - sigma - n


def tower_coefficient(sign: int, q: int, sigma: int, k: int, n: int) -> QQ:
    """Normalization coefficient of floor k, by the two-term recursion

        a_k = a_{k-1} / (2k (2k + sign*(2 sigma + n))),

    base a_0 = 1 on the decaying side and
    a_0 = (-1)^(1 + [q=0] + [q=n]) / (2 sigma + n) on the polynomial side.

    These are the ladder scalars of build_tower_pair: with g the floor-0
    degree, floor 2j+1 is a_j/a_0 r^(2j) R_op(X) / (n+g-q) on the a_chain of
    a rank-q seed X and a_j/a_0 r^(2j) T_op(Y) / (g+q+1) on the b_chain of a
    rank-(q+1) seed Y.
    """
    require_odd_dimension(n)
    if sign not in (1, -1):
        raise ValueError("sign must be +1/-1")
    if not 0 <= q <= n:
        raise InvalidRankError(f"rank {q} outside 0..{n}")
    if sigma < 0 or k < 0:
        raise ValueError("sigma and k must be nonnegative")
    if sign > 0:
        expo = 1 + (1 if q == 0 else 0) + (1 if q == n else 0)
        a = QQ(-1) ** expo / QQ(2 * sigma + n)
    else:
        a = _Q1
    for j in range(1, k + 1):
        a = a / QQ(2 * j * (2 * j + sign * (2 * sigma + n)))
    return a


# ---------------------------------------------------------------------------
# closed-form ladders
# ---------------------------------------------------------------------------

def a_chain(seed: Form, degree: int, floors: int) -> list:
    """Ladder with div-free even floors seeded by a bi-closed form.

    F_0 = seed and for j >= 1

        F_{2j-1} = c_{j-1} r^(2j-2) R_op(seed)
        F_{2j}   = u_j r^(2j) seed + v_j r^(2j-2) R_op(T_op(seed))

    chosen so that div F_{2j+1} = F_{2j}, rot F_{2j} = F_{2j-1},
    rot F_odd = 0 and div F_even = 0.
    """
    n, p, g = seed.n, seed.q, degree
    if n + g - p == 0:
        raise ConsistencyError(
            f"ladder undefined: base denominator n+g-p = 0 at n={n} g={g} p={p}")
    out = [seed]
    if floors == 0:
        return out
    w1 = R_op(seed)
    w2 = R_op(T_op(seed)) if p > 0 else None
    c_prev = _Q1 / QQ(n + g - p)
    out.append(w1.scale(c_prev))
    j = 1
    while len(out) <= floors:
        denom = QQ(n + 2 * g + 2 * j)
        if not denom:
            raise ConsistencyError(f"ladder denominator vanished at j={j}")
        v = -c_prev / denom
        u = -QQ(n + g - p + 2 * j) * v / QQ(2 * j)
        even = seed.mul_r_power(2 * j).scale(u)
        if w2 is not None and not w2.is_zero():
            even = even + w2.mul_r_power(2 * j - 2).scale(v)
        out.append(even)
        c_prev = c_prev / (QQ(2 * j) * denom)
        if len(out) <= floors:
            out.append(w1.mul_r_power(2 * j).scale(c_prev))
        j += 1
    return out[:floors + 1]


def b_chain(seed: Form, degree: int, floors: int) -> list:
    """Mirror ladder with rot-free even floors.

    F_0 = seed and for j >= 1

        F_{2j-1} = c_{j-1} r^(2j-2) T_op(seed)
        F_{2j}   = u_j r^(2j) seed + v_j r^(2j-2) T_op(R_op(seed))

    chosen so that rot F_{2j+1} = F_{2j}, div F_{2j} = F_{2j-1},
    div F_odd = 0 and rot F_even = 0.
    """
    n, p, g = seed.n, seed.q, degree
    if g + p == 0:
        raise ConsistencyError(
            f"ladder undefined: base denominator g+p = 0 at n={n} g={g} p={p}")
    out = [seed]
    if floors == 0:
        return out
    v1 = T_op(seed)
    v2 = T_op(R_op(seed)) if p < n else None
    c_prev = _Q1 / QQ(g + p)
    out.append(v1.scale(c_prev))
    j = 1
    while len(out) <= floors:
        denom = QQ(n + 2 * g + 2 * j)
        if not denom:
            raise ConsistencyError(f"ladder denominator vanished at j={j}")
        v = -c_prev / denom
        u = QQ(g + p + 2 * j) * c_prev / (QQ(2 * j) * denom)
        even = seed.mul_r_power(2 * j).scale(u)
        if v2 is not None and not v2.is_zero():
            even = even + v2.mul_r_power(2 * j - 2).scale(v)
        out.append(even)
        c_prev = c_prev / (QQ(2 * j) * denom)
        if len(out) <= floors:
            out.append(v1.mul_r_power(2 * j).scale(c_prev))
        j += 1
    return out[:floors + 1]


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

@dataclass
class TowerFamily:
    """Assembled D/R tower pair.  d_floors[k] lists the rank-q members of
    floor k (even floors from the A ladders, odd from the B ladders);
    r_floors[k] the rank-(q+1) members."""

    n: int
    q: int
    sign: int
    sigma: int
    floors: int
    d_floors: list
    r_floors: list
    ghost_a: bool = False
    ghost_b: bool = False

    @property
    def omega_sq(self) -> int:
        """Angular eigenvalue metadata (sigma+q)(sigma+n-q)."""
        return (self.sigma + self.q) * (self.sigma + self.n - self.q)

    def degree_of_floor(self, k: int) -> int:
        return homogeneity_degree(self.sign, k, self.sigma, self.n)

    def d_member(self, k: int, m: int):
        """Floor-k member m (1-based) of the D line, or None when the slot
        vanishes identically (extreme-rank floor 0)."""
        if not 0 <= k <= self.floors:
            raise IndexError(f"floor {k} outside 0..{self.floors}")
        lst = self.d_floors[k]
        if not 1 <= m <= max(len(lst), self.expected_d_count(k)):
            raise IndexError(f"member {m} outside the floor-{k} multiplicity")
        return lst[m - 1] if m <= len(lst) else None

    def r_member(self, k: int, m: int):
        if not 0 <= k <= self.floors:
            raise IndexError(f"floor {k} outside 0..{self.floors}")
        lst = self.r_floors[k]
        if not 1 <= m <= max(len(lst), self.expected_r_count(k)):
            raise IndexError(f"member {m} outside the floor-{k} multiplicity")
        return lst[m - 1] if m <= len(lst) else None

    def expected_d_count(self, k: int) -> int:
        return mu(self.n, self.q if k % 2 == 0 else self.q + 1, self.sigma)

    def expected_r_count(self, k: int) -> int:
        return mu(self.n, self.q + 1 if k % 2 == 0 else self.q, self.sigma)

    def to_obj(self) -> dict:
        return {
            "schema": "towercalc/1", "kind": "tower_family",
            "n": self.n, "q": self.q,
            "sign": "+" if self.sign > 0 else "-",
            "sigma": self.sigma, "floors": self.floors,
            "omega_sq": self.omega_sq,
            "ghost_a": self.ghost_a, "ghost_b": self.ghost_b,
            "d_floors": [[f.to_obj() for f in fl] for fl in self.d_floors],
            "r_floors": [[f.to_obj() for f in fl] for fl in self.r_floors],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "TowerFamily":
        sign = 1 if obj["sign"] in ("+", 1, "+1") else -1
        return cls(
            n=int(obj["n"]), q=int(obj["q"]), sign=sign,
            sigma=int(obj["sigma"]), floors=int(obj["floors"]),
            d_floors=[[Form.from_obj(o) for o in fl] for fl in obj["d_floors"]],
            r_floors=[[Form.from_obj(o) for o in fl] for fl in obj["r_floors"]],
            ghost_a=bool(obj.get("ghost_a")), ghost_b=bool(obj.get("ghost_b")),
        )


def build_tower_pair(n: int, q: int, sign: int, sigma: int,
                     floors: int) -> TowerFamily:
    """Build the family ladders up to the requested floor count.

    q is the D-line rank, 0 <= q <= n-1 (the R line then has rank q+1).
    """
    require_odd_dimension(n)
    if not 0 <= q <= n - 1:
        raise InvalidRankError(
            f"family rank {q} outside 0..{n - 1} (the rank-{n} line has no partner)")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if floors < 0:
        raise ValueError("floors must be >= 0")

    g0 = homogeneity_degree(sign, 0, sigma, n)
    a_seeds = seed_basis(n, q, g0)
    b_seeds = seed_basis(n, q + 1, g0)

    ghost_a = sign < 0 and sigma == 0 and q == 0
    ghost_b = sign < 0 and sigma == 0 and q == n - 1

    d_floors = [[] for _ in range(floors + 1)]
    r_floors = [[] for _ in range(floors + 1)]

    for x in a_seeds.forms:
        chain = a_chain(x, g0, floors)
        for k, f in enumerate(chain):
            (d_floors if k % 2 == 0 else r_floors)[k].append(f)
    for y in b_seeds.forms:
        chain = b_chain(y, g0, floors)
        for k, f in enumerate(chain):
            (r_floors if k % 2 == 0 else d_floors)[k].append(f)

    if ghost_a and floors >= 1:
        # rank-0 decaying seed vanishes; the ladder enters at floor 1 with the
        # inverse-power radial form.
        boot = seed_basis(n, 1, 1 - n).forms[0]
        chain = b_chain(boot, 1 - n, floors - 1)
        for c, f in enumerate(chain):
            k = c + 1
            (r_floors if c % 2 == 0 else d_floors)[k].append(f)
    if ghost_b and floors >= 1:
        boot = seed_basis(n, n - 1, 1 - n).forms[0]
        chain = a_chain(boot, 1 - n, floors - 1)
        for c, f in enumerate(chain):
            k = c + 1
            (d_floors if c % 2 == 0 else r_floors)[k].append(f)

    return TowerFamily(n=n, q=q, sign=sign, sigma=sigma, floors=floors,
                       d_floors=d_floors, r_floors=r_floors,
                       ghost_a=ghost_a, ghost_b=ghost_b)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_family(fam: TowerFamily, rebuild: bool = True,
                  independence: bool = True) -> dict:
    """Run every structural check on a family; returns a report dict.

    checks: list of {"name", "passed", "detail"}; "passed": overall bool.
    With rebuild=True the family is reconstructed from scratch and compared
    exactly, which catches any tampering that the relation checks miss.
    independence=False skips the per-floor Gram rank check (quadratic in the
    member count; construction guarantees it, the flag exists for sweeps).
    """
    checks = []

    def add(name, passed, detail=""):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    n, q, K = fam.n, fam.q, fam.floors

    # floor-0 closedness
    ok, bad = True, []
    for m, f in enumerate(fam.d_floors[0]):
        if q < n and not f.rot().is_zero():
            ok = False
            bad.append(f"rot D_0 member {m + 1} nonzero")
        if q > 0 and not f.div().is_zero():
            ok = False
            bad.append(f"div D_0 member {m + 1} nonzero")
    for m, f in enumerate(fam.r_floors[0]):
        if q + 1 < n and not f.rot().is_zero():
            ok = False
            bad.append(f"rot R_0 member {m + 1} nonzero")
        if not f.div().is_zero():
            ok = False
            bad.append(f"div R_0 member {m + 1} nonzero")
    add("seed-closedness", ok, "; ".join(bad))

    # line constraints on every floor
    ok, bad = True, []
    for k in range(K + 1):
        for m, f in enumerate(fam.d_floors[k]):
            if q > 0 and not f.div().is_zero():
                ok = False
                bad.append(f"div D_{k} member {m + 1} nonzero")
    add("div-free-d-line", ok, "; ".join(bad))

    ok, bad = True, []
    for k in range(K + 1):
        for m, f in enumerate(fam.r_floors[k]):
            if q + 1 < n and not f.rot().is_zero():
                ok = False
                bad.append(f"rot R_{k} member {m + 1} nonzero")
    add("rot-free-r-line", ok, "; ".join(bad))

    # ladder relations
    ok, bad = True, []
    for k in range(1, K + 1):
        for m, f in enumerate(fam.d_floors[k]):
            partner = fam.r_floors[k - 1][m] if m < len(fam.r_floors[k - 1]) else None
            if partner is None:
                if not f.rot().is_zero():
                    ok = False
                    bad.append(f"rot D_{k} member {m + 1} nonzero with no partner")
            elif f.rot() != partner:
                ok = False
                bad.append(f"rot D_{k} member {m + 1} != R_{k - 1}")
    add("rot-ladder", ok, "; ".join(bad))

    ok, bad = True, []
    for k in range(1, K + 1):
        for m, f in enumerate(fam.r_floors[k]):
            partner = fam.d_floors[k - 1][m] if m < len(fam.d_floors[k - 1]) else None
            if partner is None:
                # bootstrapped ladders: div R_k vanishes where D_{k-1} is absent
                if not f.div().is_zero():
                    ok = False
                    bad.append(f"div R_{k} member {m + 1} nonzero with no partner")
            elif f.div() != partner:
                ok = False
                bad.append(f"div R_{k} member {m + 1} != D_{k - 1}")
    add("div-ladder", ok, "; ".join(bad))

    # homogeneity degrees
    ok, bad = True, []
    for k in range(K + 1):
        want = fam.degree_of_floor(k)
        for line, floors_ in (("D", fam.d_floors), ("R", fam.r_floors)):
            for m, f in enumerate(floors_[k]):
                if f.is_zero() or f.homogeneous_degree() != want:
                    ok = False
                    bad.append(f"{line}_{k} member {m + 1} degree "
                               f"{f.homogeneous_degree()} != {want}")
    add("floor-homogeneity", ok, "; ".join(bad))

    # member counts against seed multiplicities
    ok, bad = True, []
    for k in range(K + 1):
        want_d = fam.expected_d_count(k)
        want_r = fam.expected_r_count(k)
        if fam.ghost_a and k == 0:
            want_d = 0
        if fam.ghost_b and k == 0:
            want_r = 0
        if len(fam.d_floors[k]) != want_d:
            ok = False
            bad.append(f"D_{k}: {len(fam.d_floors[k])} members, expected {want_d}")
        if len(fam.r_floors[k]) != want_r:
            ok = False
            bad.append(f"R_{k}: {len(fam.r_floors[k])} members, expected {want_r}")
    add("floor-multiplicity", ok, "; ".join(bad))

    # per-floor linear independence (sphere Gram rank)
    if independence:
        ok, bad = True, []
        for k in range(K + 1):
            for line, floors_ in (("D", fam.d_floors), ("R", fam.r_floors)):
                lst = floors_[k]
                if len(lst) > 1:
                    g = [[sphere_inner_product(a, b) for b in lst] for a in lst]
                    if matrix_rank(g) != len(lst):
                        ok = False
                        bad.append(f"{line}_{k} members dependent")
                elif len(lst) == 1 and lst[0].is_zero():
                    ok = False
                    bad.append(f"{line}_{k} zero member stored")
        add("floor-independence", ok, "; ".join(bad))

    if rebuild:
        fresh = build_tower_pair(n, q, fam.sign, fam.sigma, K)
        same = (fresh.d_floors == fam.d_floors and fresh.r_floors == fam.r_floors)
        add("canonical-rebuild", same,
            "" if same else "stored floors differ from the canonical reconstruction")

    return {"passed": all(c["passed"] for c in checks), "checks": checks,
            "n": n, "q": q, "sign": fam.sign, "sigma": fam.sigma, "floors": K}


def verify_low_floor_harmonicity(fam: TowerFamily) -> dict:
    """Floors 0 and 1 must be harmonic; floor 2 must not be (when present)."""
    checks = []
    for k in (0, 1):
        if k > fam.floors:
            continue
        for line, floors_ in (("D", fam.d_floors), ("R", fam.r_floors)):
            for m, f in enumerate(floors_[k]):
                lap = f.laplacian()
                checks.append({
                    "name": f"harmonic-{line}_{k}-m{m + 1}",
                    "passed": lap.is_zero(),
                    "detail": "" if lap.is_zero() else "laplacian nonzero"})
    if fam.floors >= 2:
        nontrivial = False
        for floors_ in (fam.d_floors, fam.r_floors):
            for f in floors_[2]:
                if not f.laplacian().is_zero():
                    nontrivial = True
        checks.append({"name": "floor-2-not-harmonic", "passed": nontrivial or
                       not (fam.d_floors[2] or fam.r_floors[2]),
                       "detail": "floor 2 unexpectedly harmonic"
                       if not nontrivial else ""})
    return {"passed": all(c["passed"] for c in checks), "checks": checks}


# ---------------------------------------------------------------------------
# context: cached family access by index
# ---------------------------------------------------------------------------

class TowerContext:
    """Caches built families and resolves TowerIndex lookups per rank/line."""

    def __init__(self, n: int):
        require_odd_dimension(n)
        self.n = n
        self._families: dict = {}

    def family(self, q: int, sign: int, sigma: int, floors: int) -> TowerFamily:
        key = (q, sign, sigma)
        fam = self._families.get(key)
        if fam is None or fam.floors < floors:
            fam = build_tower_pair(self.n, q, sign, sigma, floors)
            self._families[key] = fam
        return fam

    def d_form(self, rank: int, index: TowerIndex):
        """D-line member of the given rank (family rank), or None if absent."""
        fam = self.family(rank, index.sign, index.sigma, index.k)
        return fam.d_member(index.k, index.m)

    def r_form(self, rank: int, index: TowerIndex):
        """R-line member of the given rank (family rank-1), or None if absent."""
        if rank < 1:
            raise InvalidRankError("R-line members have rank >= 1")
        fam = self.family(rank - 1, index.sign, index.sigma, index.k)
        return fam.r_member(index.k, index.m)


# ---------------------------------------------------------------------------
# exceptional forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExceptionalFormDescriptor:
    """Which decaying bootstrapped member (if any) a weighted expansion
    without/with moment conditions singles out at rank q, height K.

    kind: D_hat / R_hat (strict weight window) or D_check / R_check
    (complementary window).  q is the rank of the described form.  s is the
    weight (None for the unweighted tables).  When is_zero, resolve() is None.
    """

    kind: str
    n: int
    q: int
    K: int
    s: object = None
    is_zero: bool = True
    family_q: int = -1
    line: str = ""
    floor: int = -1

    def resolve(self, ctx: TowerContext):
        if self.is_zero:
            return None
        fam = ctx.family(self.family_q, -1, 0, self.floor)
        lst = fam.d_floors[self.floor] if self.line == "D" else fam.r_floors[self.floor]
        if len(lst) != 1:
            raise ConsistencyError(
                f"exceptional slot at family {self.family_q} {self.line}_{self.floor} "
                f"has {len(lst)} members, expected 1")
        return lst[0]

    def to_obj(self) -> dict:
        return {"kind": self.kind, "n": self.n, "q": self.q, "K": self.K,
                "s": None if self.s is None else qq_str(self.s),
                "is_zero": self.is_zero, "family_q": self.family_q,
                "line": self.line, "floor": self.floor}


def exceptional_form(kind: str, n: int, q: int, K: int,
                     s=None) -> ExceptionalFormDescriptor:
    """Table lookup for the exceptional slots.

    q is the rank of the requested form (D-kinds live at the expansion rank,
    R-kinds one rank above).  K >= 1 is the expansion height.  With s given,
    the weight window is applied: strict (<) for hat kinds, complementary
    (>=) for check kinds.
    """
    require_odd_dimension(n)
    if kind not in ("D_hat", "R_hat", "D_check", "R_check"):
        raise ValueError(f"unknown exceptional kind {kind!r}")
    if K < 1:
        raise ValueError("height K must be >= 1")
    if not 0 <= q <= n:
        raise InvalidRankError(f"rank {q} outside 0..{n}")
    half = QQ(n, 2)
    s = None if s is None else qq(s)

    def window(bound):
        """True if the weight admits the slot (hat: s < bound, check: s >= bound)."""
        if s is None:
            return True
        return s < bound if kind.endswith("hat") else s >= bound

    zero = ExceptionalFormDescriptor(kind, n, q, K,
                                     s=None if s is None else s)
    if kind.startswith("D"):
        if q == 0 and K % 2 == 0 and window(half - K):
            return ExceptionalFormDescriptor(kind, n, q, K, s, False, 0, "D", K)
        if q == 1 and window(half - 1):
            return ExceptionalFormDescriptor(kind, n, q, K, s, False, 0, "R", 1)
        if q == n - 1 and K % 2 == 1 and window(half - K):
            return ExceptionalFormDescriptor(kind, n, q, K, s, False, n - 1, "D", K)
        return zero
    # R kinds: the rank-q form lives on the R line of family q-1 except the
    # middle slot which is a D-line member.
    if q == 1 and K % 2 == 1 and window(half - K):
        return ExceptionalFormDescriptor(kind, n, q, K, s, False, 0, "R", K)
    if q == n - 1 and window(half - 1):
        return ExceptionalFormDescriptor(kind, n, q, K, s, False, n - 1, "D", 1)
    if q == n and K % 2 == 0 and window(half - K):
        return ExceptionalFormDescriptor(kind, n, q, K, s, False, n - 1, "R", K)
    return zero
