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

from collections import namedtuple

from .errors import (SCHEMA, ConsistencyError, InvalidRankError, require_dim,
                     require_int, require_odd_dimension, require_schema)
from .forms import Form, R_op, T_op, SpherePairing, sphere_gram, sphere_inner_product
from .harmonic import mu, seed_basis
from .linalg import exact_inverse, matrix_rank
from .records import FrozenRecord, Record
from .ring import QQ, qq, qq_str

_Q1 = QQ(1)
# the JSON spellings of a sign; any other value is malformed input
_SIGNS = {1: 1, -1: -1, "+": 1, "-": -1, "+1": 1, "-1": -1}


def _require_sign(value) -> int:
    """A sign field of a decoded document.  true, 1.0 and -1.0 would hash-match
    the integer keys of _SIGNS, so bool and float are refused before the lookup."""
    if isinstance(value, (bool, float)) or value not in _SIGNS:
        raise ValueError(f"sign must be one of +, -, +1, -1, 1, -1; got {value!r}")
    return _SIGNS[value]


# ---------------------------------------------------------------------------
# indices and coefficients
# ---------------------------------------------------------------------------

class TowerIndex(namedtuple("TowerIndex", "sign k sigma m")):
    """Position of one tower member: (sign, floor k, sector sigma, member m).
    A tuple, so hash, == and the lexicographic order are the field tuple's."""

    __slots__ = ()

    def __new__(cls, sign: int, k: int, sigma: int, m: int):
        self = tuple.__new__(cls, (sign, k, sigma, m))
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1/-1, got {sign}")
        if k < 0 or sigma < 0 or m < 1:
            raise ValueError(f"bad tower index {self}")
        return self

    def degree(self, n: int) -> int:
        """Coefficient homogeneity degree of the member."""
        return homogeneity_degree(self.sign, self.k, self.sigma, n)

    def to_obj(self) -> dict:
        return {"sign": "+" if self.sign > 0 else "-", "k": self.k,
                "sigma": self.sigma, "m": self.m}

    @classmethod
    def from_obj(cls, obj: dict) -> "TowerIndex":
        return cls(_require_sign(obj["sign"]),
                   *(require_int(obj[f], f) for f in ("k", "sigma", "m")))

    def __str__(self):
        s = "+" if self.sign > 0 else "-"
        return f"({s},k={self.k},sigma={self.sigma},m={self.m})"


def homogeneity_degree(sign: int, k: int, sigma: int, n: int) -> int:
    """Coefficient degree of floor k: sigma + k growing, k - sigma - n decaying."""
    return k + sigma if sign > 0 else k - sigma - n


def tower_coefficient(sign: int, q: int, sigma: int, k: int, n: int) -> QQ:
    """Normalization coefficient of floor k, by the two-term recursion

        a_k = a_{k-1} / _ladder_step(n, g, k) = a_{k-1} / (2k (2k + sign*(2 sigma + n)))

    at the floor-0 degree g, base a_0 = 1 on the decaying side and
    a_0 = (-1)^(1 + [q=0] + [q=n]) / (2 sigma + n) on the polynomial side.

    These are the ladder scalars of build_tower_pair: a_j/a_0 = base c_j for
    the c_j of _ladder, so floor 2j+1 is a_j/a_0 r^(2j) R_op(X) / (n+g-q) on
    the a_chain of a rank-q seed X and a_j/a_0 r^(2j) T_op(Y) / (g+q+1) on the
    b_chain of a rank-(q+1) seed Y.
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
    g = homogeneity_degree(sign, 0, sigma, n)
    for j in range(1, k + 1):
        a = a / _ladder_step(n, g, j)
    return a


def multiplicity(n: int, rank: int, line: str, sigma: int, k: int) -> int:
    """Member count of floor k at the given rank on the D or R line.

    D line: floors alternate between the rank-q and rank-(q+1) seed counts;
    R line mirrors one rank up.  This is the bookkeeping count; the one
    identically vanishing slot (decaying extreme-rank floor 0) still counts 1
    here and resolves to an absent form.
    """
    require_odd_dimension(n)
    if line not in ("D", "R"):
        raise ValueError(f"line must be 'D' or 'R', got {line!r}")
    low, partner = (0, rank + 1) if line == "D" else (1, rank - 1)
    if not low <= rank <= n - 1 + low:
        raise InvalidRankError(f"{line}-line rank {rank} outside {low}..{n - 1 + low}")
    return mu(n, rank if k % 2 == 0 else partner, sigma)


# ---------------------------------------------------------------------------
# closed-form ladders
# ---------------------------------------------------------------------------

def _ladder_step(n: int, g: int, j: int) -> int:
    """The j-th floor-coefficient divisor 2j(n + 2g + 2j) at floor-0 degree g."""
    return 2 * j * (n + 2 * g + 2 * j)


def _ladder(seed: Form, degree: int, floors: int, base: int, up, down) -> list:
    """Closed-form ladder F_0..F_floors from a bi-closed seed of rank p and
    degree g.  With the scalars c_0 = 1/base and, for j >= 1,

        c_j = c_{j-1} / _ladder_step(n, g, j),  u_j = (base + 2j) c_j,  v_j = -2j c_j

    the members are F_0 = seed and

        F_{2j-1} = c_{j-1} r^(2j-2) up(seed)
        F_{2j}   = u_j r^(2j) seed + v_j r^(2j-2) up(down(seed)).

    The up(down(seed)) term drops out where down(seed) vanishes, i.e. at the
    extreme rank (T_op at rank 0, R_op at rank n).
    """
    n, p, g = seed.n, seed.q, degree
    if base == 0:
        raise ConsistencyError(
            f"ladder undefined: base denominator 0 at n={n} g={g} p={p}")
    out = [seed]
    if floors == 0:
        return out
    odd = up(seed)
    lowered = down(seed)
    back = None if lowered.is_zero() else up(lowered)
    c = _Q1 / QQ(base)
    out.append(odd.scale(c))
    j = 1
    while len(out) <= floors:
        step = _ladder_step(n, g, j)
        if not step:
            raise ConsistencyError(f"ladder denominator vanished at j={j}")
        c = c / step
        even = seed.mul_r_power(2 * j).scale(QQ(base + 2 * j) * c)
        if back is not None and not back.is_zero():
            even = even + back.mul_r_power(2 * j - 2).scale(QQ(-2 * j) * c)
        out.append(even)
        if len(out) <= floors:
            out.append(odd.mul_r_power(2 * j).scale(c))
        j += 1
    return out[:floors + 1]


def a_chain(seed: Form, degree: int, floors: int) -> list:
    """Ladder with div-free even floors: _ladder with base n+g-p, up = R_op,
    down = T_op, so that div F_{2j+1} = F_{2j}, rot F_{2j} = F_{2j-1},
    rot F_odd = 0 and div F_even = 0."""
    return _ladder(seed, degree, floors, seed.n + degree - seed.q, R_op, T_op)


def b_chain(seed: Form, degree: int, floors: int) -> list:
    """Mirror ladder with rot-free even floors: _ladder with base g+p,
    up = T_op, down = R_op, so that rot F_{2j+1} = F_{2j},
    div F_{2j} = F_{2j-1}, div F_odd = 0 and rot F_even = 0."""
    return _ladder(seed, degree, floors, degree + seed.q, T_op, R_op)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

class TowerFamily(Record):
    """Assembled D/R tower pair.  d_floors[k] lists the rank-q members of
    floor k (even floors from the A ladders, odd from the B ladders);
    r_floors[k] the rank-(q+1) members."""

    _fields = ("n", "q", "sign", "sigma", "floors", "d_floors", "r_floors")

    def __init__(self, n: int, q: int, sign: int, sigma: int, floors: int,
                 d_floors: list, r_floors: list):
        self.n, self.q, self.sign, self.sigma = n, q, sign, sigma
        self.floors, self.d_floors, self.r_floors = floors, d_floors, r_floors

    @property
    def omega_sq(self) -> int:
        """Angular eigenvalue metadata (sigma+q)(sigma+n-q)."""
        return (self.sigma + self.q) * (self.sigma + self.n - self.q)

    @property
    def ghost_a(self) -> bool:
        """D_0 vanishes: the decaying rank-0 seed at sigma 0 is zero."""
        return self.sign < 0 and self.sigma == 0 and self.q == 0

    @property
    def ghost_b(self) -> bool:
        """R_0 vanishes: the decaying rank-n seed at sigma 0 is zero."""
        return self.sign < 0 and self.sigma == 0 and self.q == self.n - 1

    def degree_of_floor(self, k: int) -> int:
        return homogeneity_degree(self.sign, k, self.sigma, self.n)

    def member(self, line: str, k: int, m: int):
        """Floor-k member m (1-based) of line "D" or "R", or None when the
        slot vanishes identically (extreme-rank floor 0)."""
        if not 0 <= k <= self.floors:
            raise IndexError(f"floor {k} outside 0..{self.floors}")
        lst, rank = ((self.d_floors[k], self.q) if line == "D"
                     else (self.r_floors[k], self.q + 1))
        if not 1 <= m <= max(len(lst), multiplicity(self.n, rank, line, self.sigma, k)):
            raise IndexError(f"member {m} outside the floor-{k} multiplicity")
        return lst[m - 1] if m <= len(lst) else None

    def to_obj(self) -> dict:
        return {
            "schema": SCHEMA, "kind": "tower_family",
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
        """Decode a stored family.  The derived header fields omega_sq,
        ghost_a and ghost_b must hold exactly the values to_obj writes."""
        require_schema(obj)
        if obj["kind"] != "tower_family":
            raise ValueError(f"expected kind 'tower_family', got {obj['kind']!r}")
        floors = require_int(obj["floors"], "floors")
        d_floors = [[Form.from_obj(o) for o in fl] for fl in obj["d_floors"]]
        r_floors = [[Form.from_obj(o) for o in fl] for fl in obj["r_floors"]]
        if floors < 0 or not floors + 1 == len(d_floors) == len(r_floors):
            raise ValueError(
                f"floors is {floors} but d_floors/r_floors hold "
                f"{len(d_floors)}/{len(r_floors)} floors")
        fam = cls(n=require_dim(obj["n"]), q=require_int(obj["q"], "q"),
                  sign=_require_sign(obj["sign"]),
                  sigma=require_int(obj["sigma"], "sigma"), floors=floors,
                  d_floors=d_floors, r_floors=r_floors)
        for line, rank, stored in (("D", fam.q, d_floors), ("R", fam.q + 1, r_floors)):
            for f in (f for members in stored for f in members):
                if (f.n, f.q) != (fam.n, rank):
                    raise ValueError(f"a {line} member has n={f.n} rank {f.q}, "
                                     f"expected n={fam.n} rank {rank}")
        if fam.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {fam.sigma}")
        for field in ("omega_sq", "ghost_a", "ghost_b"):
            value = getattr(fam, field)
            if type(obj[field]) is not type(value) or obj[field] != value:
                raise ValueError(f"{field} is {obj[field]!r}, but the family header "
                                 f"gives {value!r}")
        return fam


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

    d_floors = [[] for _ in range(floors + 1)]
    r_floors = [[] for _ in range(floors + 1)]
    fam = TowerFamily(n=n, q=q, sign=sign, sigma=sigma, floors=floors,
                      d_floors=d_floors, r_floors=r_floors)

    # (ladder, its first floor, line of its even members, line of its odd members)
    ladders = [(a_chain(x, g0, floors), 0, d_floors, r_floors) for x in a_seeds.forms]
    ladders += [(b_chain(y, g0, floors), 0, r_floors, d_floors) for y in b_seeds.forms]
    if floors >= 1:
        # the rank-0 (rank-n) decaying seed vanishes; its ladder enters at
        # floor 1 with the inverse-power radial form (its Hodge star)
        if fam.ghost_a:
            boot = seed_basis(n, 1, 1 - n).forms[0]
            ladders.append((b_chain(boot, 1 - n, floors - 1), 1, r_floors, d_floors))
        if fam.ghost_b:
            boot = seed_basis(n, n - 1, 1 - n).forms[0]
            ladders.append((a_chain(boot, 1 - n, floors - 1), 1, d_floors, r_floors))
    for chain, first, even, odd in ladders:
        for c, f in enumerate(chain):
            (even if c % 2 == 0 else odd)[first + c].append(f)
    return fam


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
    n, q, K = fam.n, fam.q, fam.floors
    names = ["seed-closedness", "div-free-d-line", "rot-free-r-line", "rot-ladder",
             "div-ladder", "floor-homogeneity", "floor-multiplicity"]
    if independence:
        names.append("floor-independence")
    bad = {name: [] for name in names}   # failure messages by check

    # per line: its rank, floors and partner line, the operator that vanishes on
    # the whole line (if it is checked there) and its check, the ladder operator
    # (if floor 0 must be closed under it) and its check, the floor-0 ghost slot
    lines = (("D", q, fam.d_floors, "R", fam.r_floors,
              "div", q > 0, "div-free-d-line", "rot", q < n, "rot-ladder", fam.ghost_a),
             ("R", q + 1, fam.r_floors, "D", fam.d_floors,
              "rot", q + 1 < n, "rot-free-r-line", "div", True, "div-ladder", fam.ghost_b))
    for k in range(K + 1):
        want = fam.degree_of_floor(k)
        for (line, rank, own, other, partners, free_op, free_on, free_check,
             step_op, seed_step, step_check, ghost) in lines:
            members = own[k]
            for m, f in enumerate(members, 1):
                image = {free_op: getattr(f, free_op)() if free_on else None,
                         step_op: getattr(f, step_op)() if k or seed_step else None}
                if k == 0:
                    for op in ("rot", "div"):
                        if image[op] is not None and not image[op].is_zero():
                            bad["seed-closedness"].append(f"{op} {line}_0 member {m} nonzero")
                if free_on and not image[free_op].is_zero():
                    bad[free_check].append(f"{free_op} {line}_{k} member {m} nonzero")
                if k:
                    below = partners[k - 1]
                    if m > len(below):
                        # bootstrapped ladders: the image vanishes where the
                        # partner slot is absent
                        if not image[step_op].is_zero():
                            bad[step_check].append(
                                f"{step_op} {line}_{k} member {m} nonzero with no partner")
                    elif image[step_op] != below[m - 1]:
                        bad[step_check].append(
                            f"{step_op} {line}_{k} member {m} != {other}_{k - 1}")
                if f.is_zero() or f.homogeneous_degree() != want:
                    bad["floor-homogeneity"].append(
                        f"{line}_{k} member {m} degree {f.homogeneous_degree()} != {want}")
            want_count = 0 if ghost and k == 0 else multiplicity(n, rank, line, fam.sigma, k)
            if len(members) != want_count:
                bad["floor-multiplicity"].append(
                    f"{line}_{k}: {len(members)} members, expected {want_count}")
            # per-floor linear independence (sphere Gram rank)
            if independence and len(members) > 1:
                if matrix_rank(sphere_gram(members)) != len(members):
                    bad["floor-independence"].append(f"{line}_{k} members dependent")
            elif independence and len(members) == 1 and members[0].is_zero():
                bad["floor-independence"].append(f"{line}_{k} zero member stored")

    checks = [{"name": name, "passed": not msgs, "detail": "; ".join(msgs)}
              for name, msgs in bad.items()]
    if rebuild:
        fresh = build_tower_pair(n, q, fam.sign, fam.sigma, K)
        same = (fresh.d_floors == fam.d_floors and fresh.r_floors == fam.r_floors)
        checks.append({"name": "canonical-rebuild", "passed": same, "detail":
                       "" if same else "stored floors differ from the canonical reconstruction"})

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
        floor2 = fam.d_floors[2] + fam.r_floors[2]
        nontrivial = any(not f.laplacian().is_zero() for f in floor2)
        checks.append({"name": "floor-2-not-harmonic", "passed": nontrivial or not floor2,
                       "detail": "floor 2 unexpectedly harmonic" if not nontrivial else ""})
    return {"passed": all(c["passed"] for c in checks), "checks": checks}


# ---------------------------------------------------------------------------
# context: cached family access by index
# ---------------------------------------------------------------------------

def checked_gram(forms: list, rank: int, line: str, degree: int) -> list:
    """sphere_gram(forms) of expansion candidates; a singular one means the
    candidates are dependent, which is a ConsistencyError."""
    gram = sphere_gram(forms)
    if matrix_rank(gram) != len(forms):
        raise ConsistencyError(
            f"dependent expansion candidates at rank {rank} {line}-line "
            f"degree {degree}")
    return gram


class TowerContext:
    """Caches built families, block members, block Grams and their inverses,
    the pairing index of each degree's candidates and the checked exceptional
    slots, and resolves TowerIndex lookups per rank/line."""

    def __init__(self, n: int):
        require_odd_dimension(n)
        self.n = n
        self._families: dict = {}
        self._blocks: dict = {}
        self._block_grams: dict = {}
        self._block_inverses: dict = {}
        self._pairings: dict = {}
        self._hat_grams: dict = {}

    def family(self, q: int, sign: int, sigma: int, floors: int) -> TowerFamily:
        key = (q, sign, sigma)
        fam = self._families.get(key)
        if fam is None or fam.floors < floors:
            fam = build_tower_pair(self.n, q, sign, sigma, floors)
            self._families[key] = fam
        return fam

    def member(self, rank: int, line: str, index: TowerIndex):
        """Member of the given rank on line "D" (the family rank) or "R" (one
        above it), or None if its slot vanishes."""
        if line == "R" and rank < 1:
            raise InvalidRankError("R-line members have rank >= 1")
        fam = self.family(rank if line == "D" else rank - 1, index.sign,
                          index.sigma, index.k)
        return fam.member(line, index.k, index.m)

    def block(self, rank: int, line: str, sign: int, k: int, sigma: int) -> tuple:
        """The present, nonzero members (index, form) of one (sign, k, sigma)
        block of a rank/line, in m order, looked up once per context.  A
        family rebuilt with more floors keeps its lower floors, so a cached
        block, like its Gram, stays valid for the life of the context."""
        key = (rank, line, sign, k, sigma)
        members = self._blocks.get(key)
        if members is None:
            members = []
            for m in range(1, multiplicity(self.n, rank, line, sigma, k) + 1):
                idx = TowerIndex(sign, k, sigma, m)
                f = self.member(rank, line, idx)
                if f is not None and not f.is_zero():
                    members.append((idx, f))
            members = self._blocks[key] = tuple(members)
        return members

    def _degree_blocks(self, rank: int, line: str, degree: int, k_max: int):
        """((sign, k, sigma), members) of every block of a rank/line at one
        coefficient degree with floor <= k_max, in (k, sign) order."""
        for k in range(k_max + 1):
            for sign in (1, -1):
                sigma = degree - k if sign > 0 else k - self.n - degree
                if sigma >= 0:
                    yield (sign, k, sigma), self.block(rank, line, sign, k, sigma)

    def candidates(self, rank: int, line: str, degree: int, k_max: int) -> list:
        """The members (index, form) of every block of a rank/line at one
        coefficient degree with floor <= k_max, in (k, sign, m) order."""
        return [c for _, members in self._degree_blocks(rank, line, degree, k_max)
                for c in members]

    def pairing(self, rank: int, line: str, degree: int, k_max: int) -> tuple:
        """(candidates, spans, index) for candidates(rank, line, degree,
        k_max), made once per context: spans lists ((sign, k, sigma), start,
        stop) for each nonempty block, whose members are candidates[start:
        stop], and index is the forms.SpherePairing of the candidates' forms,
        which gives a form's products with all of them in one walk."""
        key = (rank, line, degree, k_max)
        pairing = self._pairings.get(key)
        if pairing is None:
            cands, spans = [], []
            for block, members in self._degree_blocks(*key):
                if members:
                    spans.append((block, len(cands), len(cands) + len(members)))
                    cands += members
            pairing = self._pairings[key] = (cands, spans,
                                             SpherePairing(f for _, f in cands))
        return pairing

    def block_gram(self, rank: int, line: str, sign: int, k: int, sigma: int) -> list:
        """checked_gram of block(rank, line, sign, k, sigma), computed on first
        use."""
        key = (rank, line, sign, k, sigma)
        gram = self._block_grams.get(key)
        if gram is None:
            gram = checked_gram([f for _, f in self.block(*key)], rank, line,
                                homogeneity_degree(sign, k, sigma, self.n))
            self._block_grams[key] = gram
        return gram

    def block_inverse(self, rank: int, line: str, sign: int, k: int, sigma: int) -> tuple:
        """The exact inverse of block_gram(rank, line, sign, k, sigma) as
        linalg.exact_inverse gives it, an integer matrix over one
        denominator, computed on first use: the block's coefficients are
        inverse_times(it, <piece, member>)."""
        key = (rank, line, sign, k, sigma)
        inverse = self._block_inverses.get(key)
        if inverse is None:
            inverse = self._block_inverses[key] = exact_inverse(self.block_gram(*key))
        return inverse

    def hat_gram(self, hat, rank: int, line: str, k_max: int) -> list:
        """checked_gram of the nonzero exceptional slot hat (resolved in this
        context) at a rank/line, after the slot is checked orthogonal to every
        candidate of its degree with floor <= k_max; a product that is not 0
        is a ConsistencyError.  The slot and the candidates are forms this
        context owns, so both are computed once per (hat, rank, line,
        k_max)."""
        key = (hat, rank, line, k_max)
        gram = self._hat_grams.get(key)
        if gram is None:
            form = hat.resolve(self)
            degree = form.homogeneous_degree()
            if any(sphere_inner_product(form, f)
                   for _, f in self.candidates(rank, line, degree, k_max)):
                raise ConsistencyError(
                    f"exceptional slot not orthogonal to the tower members at "
                    f"rank {rank} {line}-line degree {degree}")
            gram = self._hat_grams[key] = checked_gram([form], rank, line, degree)
        return gram

    def d_form(self, rank: int, index: TowerIndex):
        """D-line member of the given rank (family rank), or None if absent."""
        return self.member(rank, "D", index)

    def r_form(self, rank: int, index: TowerIndex):
        """R-line member of the given rank (family rank-1), or None if absent."""
        return self.member(rank, "R", index)

    def combine(self, rank: int, line: str, coeffs: dict) -> Form:
        """sum c * member(rank, line, index) over coeffs {index: c}, in
        sorted index order; an absent member is a ConsistencyError."""
        total = Form.zero(self.n, rank)
        for idx, c in sorted(coeffs.items()):
            f = self.member(rank, line, idx)
            if f is None:
                raise ConsistencyError(f"missing {line} member at {idx}")
            total = total + f.scale(qq(c))
        return total


# ---------------------------------------------------------------------------
# exceptional forms
# ---------------------------------------------------------------------------

class ExceptionalFormDescriptor(FrozenRecord):
    """Which decaying bootstrapped member (if any) a weighted expansion
    without/with moment conditions singles out at rank q, height K.

    kind: D_hat / R_hat (strict weight window) or D_check / R_check
    (complementary window).  q is the rank of the described form.  s is the
    weight (None for the unweighted tables).  When is_zero, resolve() is None.
    """

    _fields = ("kind", "n", "q", "K", "s", "is_zero", "family_q", "line", "floor")

    def __init__(self, kind: str, n: int, q: int, K: int, s=None,
                 is_zero: bool = True, family_q: int = -1, line: str = "",
                 floor: int = -1):
        self._freeze(kind=kind, n=n, q=q, K=K, s=s, is_zero=is_zero,
                     family_q=family_q, line=line, floor=floor)

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

    zero = ExceptionalFormDescriptor(kind, n, q, K, s=s)
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
