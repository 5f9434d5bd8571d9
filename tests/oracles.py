"""Slow reference implementations that the library's single paths are checked
against.

Each oracle computes the same object as a library operator by an independent
route:

  hodge_div            codifferential through the Hodge star, (-1)^((q-1)n) * rot *
  laplacian_factored   rot div + div rot, with the grade guards
  nullspace            dense free-variable kernel vectors read off an rref
  kernel_by_echelon    kernel of operators over any candidates: nullspace, the
                       Form sum of each kernel vector, then echelon_normalize
  direct_seed_basis    escalating general ansatz r^(degree-e) * (reduced monomials),
                       solved by kernel_by_echelon
  tower_coefficient_closed   closed product form of the floor-coefficient recursion
  diff_by_canonicalize d/dx_i term by term into raw parts, then the full
                       canonicalization RadialRingElement(n, raw)
  fraction_*           the part-table operators on Fraction coefficients, one
                       Fraction per term, as the ring computed them before its
                       integer-numerator layout: diff, rot, div, R_op, T_op,
                       laplacian, scale, + and -, on fraction_parts tables, and
                       mul_r_power and the sphere restriction on the same tables
  laplacian_by_diff    sum_i of second partials per component, through
                       diff_by_canonicalize
  wedge                exterior product by the component formula, with ring
                       multiplication of the coefficients
  radial_one_form      the 1-form sum x_i dx^i, component by component
  r_op_by_wedge        wedge(radial_one_form(n), f)
  t_op_by_product      contraction with the Euler field as sums of el * x_i
  sphere_inner_product_direct  the sphere pairing by multiplying both
                       restrictions out and averaging the product monomial by
                       monomial, with no cache (poly_sphere_average)
  expand_side_full_gram  one side of an expansion through the full Gram of all
                       candidates at each degree, cross-block entries included,
                       paired by sphere_inner_product_direct
  component_*          the per-component route that forms took before the flat
                       table: one RadialRingElement per component, rank steps
                       through add_diff_into / add_var_into over the lcm of the
                       component denominators (component_rot, _div, _r_op,
                       _t_op), and scale, mul_r_power, + and - and the memoised
                       sphere pairing component by component
"""

import itertools
import math

from towercalc.errors import (ConsistencyError, InvalidRankError,
                              require_odd_dimension)
from towercalc.expansion import SideExpansion, tower_candidates
from towercalc.forms import Form, coordinate_vectors, monomial_average
from towercalc.harmonic import echelon_normalize
from towercalc.linalg import matrix_rank, rref, solve_posdef
from towercalc.ring import _DIGIT, QQ, R_OFFSET, RadialRingElement, _layout, reduced_monomials
from towercalc.towers import ExceptionalFormDescriptor, TowerContext

_Q0 = QQ(0)
_Q1 = QQ(1)


def hodge_div(f: Form) -> Form:
    """(-1)^((q-1)n) * rot * f, for rank q >= 1."""
    out = f.hodge_star().rot().hodge_star()
    return -out if ((f.q - 1) * f.n) % 2 else out


def laplacian_factored(f: Form) -> Form:
    """rot div + div rot, dropping the term whose operator leaves the algebra."""
    total = Form.zero(f.n, f.q)
    if f.q > 0:
        total = total + hodge_div(f).rot()
    if f.q < f.n:
        total = total + hodge_div(f.rot())
    return total


def _hodge_biclosed_operators(n: int, q: int) -> list:
    ops = []
    if q < n:
        ops.append(lambda f: f.rot())
    if q > 0:
        ops.append(hodge_div)
    return ops


def nullspace(rows: list, ncols: int | None = None) -> list:
    """Basis of {v : A v = 0} as a list of QQ vectors.

    Canonical free-variable parametrization: one basis vector per non-pivot
    column, with a 1 in that column.
    """
    ncols = len(rows[0]) if rows else ncols or 0
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for j in free:
        v = [_Q0] * ncols
        v[j] = _Q1
        for i, pc in enumerate(pivots):
            if red[i][j]:
                v[pc] = -red[i][j]
        basis.append(v)
    return basis


def kernel_by_echelon(candidates: list, operators: list) -> list:
    """Canonical basis of {F in span(candidates) : op(F) = 0 for all ops}, for
    candidates in any order and of any shape: each nullspace vector is summed
    as a Form, and the sums are echelon-normalized."""
    candidates = [c for c in candidates if not c.is_zero()]
    if not candidates:
        return []
    rows = []
    for op in operators:
        _, vecs = coordinate_vectors([op(c) for c in candidates])
        if vecs and vecs[0]:
            rows.extend(list(row) for row in zip(*vecs))
    kernel = []
    for v in nullspace(rows, ncols=len(candidates)):
        total = Form.zero(candidates[0].n, candidates[0].q)
        for c, cand in zip(v, candidates):
            if c:
                total = total + cand.scale(c)
        kernel.append(total)
    return echelon_normalize(kernel)


def direct_seed_basis(n: int, q: int, degree: int) -> tuple:
    """Canonical basis of the bi-closed rank-q forms of one degree, found by
    the escalating ansatz r^(degree-e) * (reduced monomials of degree e).

    The depth e <= E grows until the kernel dimension has stayed the same
    twice; past the cap the search fails.
    """
    cap = abs(degree) + q + 9
    depth = q + 2
    # never start below the natural depth scale of the target degree
    if degree > 0:
        depth = max(depth, degree)
    elif degree <= -n:
        depth = max(depth, -degree - n + 2)
    prev_dim = None
    stable = 0
    tuples = list(itertools.combinations(range(1, n + 1), q))
    while depth <= cap:
        cands = []
        for e in range(depth + 1):
            for alpha in reduced_monomials(n, e):
                el = RadialRingElement(n, {(degree, degree - e): {alpha: _Q1}})
                for idx in tuples:
                    cands.append(Form(n, q, {idx: el}))
        kernel = kernel_by_echelon(cands, _hodge_biclosed_operators(n, q))
        if prev_dim is not None and len(kernel) == prev_dim:
            stable += 1
            if stable >= 2:
                return tuple(kernel)
        else:
            stable = 0
        prev_dim = len(kernel)
        depth += 1
    raise RuntimeError(f"seed search at n={n} q={q} degree={degree} did not "
                       f"stabilize below depth {cap}")


def tower_coefficient_closed(sign: int, q: int, sigma: int, k: int, n: int) -> QQ:
    """Closed-form product for towers.tower_coefficient."""
    require_odd_dimension(n)
    if not 0 <= q <= n:
        raise InvalidRankError(f"rank {q} outside 0..{n}")
    if sigma < 0 or k < 0:
        raise ValueError("sigma and k must be nonnegative")
    half = QQ(n, 2)
    fourk = QQ(4) ** k
    fact = _Q1
    for j in range(2, k + 1):
        fact = fact * j
    if sign > 0:
        expo = 1 + (1 if q == 0 else 0) + (1 if q == n else 0)
        base = QQ(-1) ** expo / QQ(2 * sigma + n)
        prod = _Q1
        for t in range(1, k + 1):
            prod = prod * (half + sigma + t)
        return base / (fourk * fact * prod)
    prod = _Q1
    for t in range(k):
        prod = prod * (1 - half - sigma + t)
    return _Q1 / (fourk * fact * prod)


def diff_by_canonicalize(el: RadialRingElement, i: int) -> RadialRingElement:
    """d/dx_i (r^b p) = r^b d_i p + b r^(b-2) x_i p, summed into raw parts that
    the constructor reduces afresh."""
    j = i - 1
    raw: dict = {}

    def put(key, alpha, c):
        poly = raw.setdefault(key, {})
        poly[alpha] = poly.get(alpha, 0) + c

    for (d, b), p in el.parts.items():
        for alpha, c in p.items():
            c = QQ(c, el.den)
            e = alpha[j]
            if e:
                put((d - 1, b), alpha[:j] + (e - 1,) + alpha[j + 1:], c * e)
            if b:
                put((d - 1, b - 2), alpha[:j] + (e + 1,) + alpha[j + 1:], c * b)
    return RadialRingElement(el.n, raw)


def laplacian_by_diff(f: Form) -> Form:
    """Componentwise sum_i d^2/dx_i^2, by repeated generic differentiation."""
    comps = {}
    for idx, el in f.components.items():
        acc = RadialRingElement.zero(f.n)
        for i in range(1, f.n + 1):
            acc = acc + diff_by_canonicalize(diff_by_canonicalize(el, i), i)
        comps[idx] = acc
    return Form(f.n, f.q, comps)


def wedge(a: Form, b: Form) -> Form:
    """a wedge b; the zero rank-n form when the ranks add up past n."""
    if a.n != b.n:
        raise ValueError("mixed dimensions")
    if a.q + b.q > a.n:
        return Form.zero(a.n, a.n)
    total = Form.zero(a.n, a.q + b.q)
    for a_idx, a_el in a.components.items():
        for b_idx, b_el in b.components.items():
            if set(a_idx) & set(b_idx):
                continue
            # sign of sorting a_idx + b_idx: the parity of its inversions
            inversions = sum(1 for j in b_idx for i in a_idx if i > j)
            term = Form(a.n, a.q + b.q, {tuple(sorted(a_idx + b_idx)): a_el * b_el})
            total = total - term if inversions % 2 else total + term
    return total


def radial_one_form(n: int) -> Form:
    """The 1-form sum x_i dx^i."""
    return Form(n, 1, {(i,): RadialRingElement.variable(n, i) for i in range(1, n + 1)})


def r_op_by_wedge(f: Form) -> Form:
    """(sum x_i dx^i) wedge f; the zero rank-n form on rank n."""
    return wedge(radial_one_form(f.n), f)


def t_op_by_product(f: Form) -> Form:
    """sum_t (-1)^(t-1) (f_I * x_{i_t}) dx^(I without i_t); zero on rank 0."""
    if f.q == 0:
        return Form.zero(f.n, 0)
    total = Form.zero(f.n, f.q - 1)
    for idx, el in f.components.items():
        for t, i in enumerate(idx):
            term = Form(f.n, f.q - 1, {
                idx[:t] + idx[t + 1:]: el * RadialRingElement.variable(f.n, i)})
            total = total - term if t % 2 else total + term
    return total


def poly_sphere_average(poly: dict, n: int) -> QQ:
    total = _Q0
    for alpha, c in poly.items():
        avg = monomial_average(alpha, n)
        if avg:
            total += c * avg
    return total


def sphere_inner_product_direct(a: Form, b: Form) -> QQ:
    """Exact average over the unit sphere of the pointwise component pairing."""
    if a.n != b.n or a.q != b.q:
        raise ValueError("mismatched shapes in sphere inner product")
    total = _Q0
    for idx, el in a.components.items():
        other = b.components.get(idx)
        if other is None:
            continue
        pa = el.sphere_restriction()
        pb = other.sphere_restriction()
        prod: dict = {}
        for al, ca in pa.items():
            for be, cb in pb.items():
                g = tuple(x + y for x, y in zip(al, be))
                prod[g] = prod.get(g, _Q0) + ca * cb
        total += poly_sphere_average(prod, a.n)
    return total


def expand_side_full_gram(form: Form, rank: int, line: str, k_max: int,
                          ctx: TowerContext,
                          hat: ExceptionalFormDescriptor | None) -> SideExpansion:
    """Degree-by-degree sphere-Gram expansion of one form, solving the full
    Gram of all candidates and the exceptional slot at each degree."""
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
        basis = [f for _, f in cands]
        slots = [idx for idx, _ in cands]
        if hat_form is not None and hat_form.homogeneous_degree() == degree:
            basis.append(hat_form)
            slots.append("hat")
        if not basis:
            side.residual = side.residual + piece
            continue
        gram = [[sphere_inner_product_direct(a, b) for b in basis] for a in basis]
        if matrix_rank(gram) != len(basis):
            raise ConsistencyError(
                f"dependent expansion candidates at rank {rank} {line}-line "
                f"degree {degree}")
        rhs = [sphere_inner_product_direct(piece, b) for b in basis]
        sol = solve_posdef(gram, rhs)
        rem = piece
        for c, b in zip(sol, basis):
            if c:
                rem = rem - b.scale(c)
        for slot, c in zip(slots, sol):
            if slot == "hat":
                side.hat_coeff = c
            elif c:
                side.coeffs[slot] = c
        side.residual = side.residual + rem
    side.exact = side.residual.is_zero()
    return side


# ---------------------------------------------------------------------------
# the part-table operators on Fraction coefficients
# ---------------------------------------------------------------------------

def fraction_parts(el: RadialRingElement) -> dict:
    """el's part table with one Fraction per term: {(d, b): {alpha: QQ}}."""
    return {k: {a: QQ(c, el.den) for a, c in p.items()} for k, p in el.parts.items()}


def _add_term(table: dict, key: tuple, alpha: tuple, c) -> None:
    """table[key][alpha] += c, dropping cancelled terms and emptied parts."""
    poly = table.get(key)
    if poly is None:
        table[key] = {alpha: c}
        return
    old = poly.get(alpha)
    if old is None:
        poly[alpha] = c
        return
    new = old + c
    if new:
        poly[alpha] = new
    else:
        del poly[alpha]
        if not poly:
            del table[key]


def _times(c, k: int):
    """c * k for an integer k, skipping the multiply at k = +-1."""
    return c if k == 1 else -c if k == -1 else c * k


def _add_var_times(table: dict, key: tuple, p: dict, j: int, k: int) -> None:
    """table[key] += k * x_j * p for a reduced p (j 0-based), in normal form.

    x_j * p stays reduced unless j = 0 and a monomial already holds x_1; that
    x_1^2 * x^beta is r^2 * x^beta - sum_{l>=2} x_l^2 * x^beta, one step.
    """
    d, b = key
    for alpha, c in p.items():
        c = _times(c, k)
        e = alpha[j]
        if j or not e:
            _add_term(table, key, alpha[:j] + (e + 1,) + alpha[j + 1:], c)
            continue
        beta = (0,) + alpha[1:]
        _add_term(table, (d, b + 2), beta, c)
        for t in range(1, len(alpha)):
            _add_term(table, key, beta[:t] + (beta[t] + 2,) + beta[t + 1:], -c)


def fraction_add_diff_into(parts: dict, table: dict, i: int, sign: int = 1) -> None:
    """table += sign * d/dx_i(parts), for a part table in normal form.

    d/dx_i (r^b p) = r^b d_i p + b r^(b-2) x_i p: d_i of a reduced p is
    reduced, and only x_1 p needs the one reduction step of _add_var_times.
    """
    j = i - 1
    for (d, b), p in parts.items():
        key = (d - 1, b)
        for alpha, c in p.items():
            e = alpha[j]
            if e:
                _add_term(table, key, alpha[:j] + (e - 1,) + alpha[j + 1:],
                          _times(c, sign * e))
        if b:
            _add_var_times(table, (d - 1, b - 2), p, j, sign * b)


def fraction_add_var_into(parts: dict, table: dict, i: int, sign: int = 1) -> None:
    """table += sign * x_i * parts, for a part table in normal form."""
    for (d, b), p in parts.items():
        _add_var_times(table, (d + 1, b), p, i - 1, sign)


def fraction_laplacian(parts: dict, n: int) -> dict:
    """Sum of second partials by the closed form, part by part:

        Delta(r^b p) = r^b Delta p + b (2 deg p + b + n - 2) r^(b-2) p,

    where d_1^2 p = 0 for a reduced p, so every term is already reduced.
    """
    table: dict = {}
    for (d, b), p in parts.items():
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
                _add_term(table, (d - 2, b - 2), alpha, _times(c, k))
    return table


def fraction_scale(parts: dict, c) -> dict:
    c = QQ(c)
    if not c:
        return {}
    return {k: {a: cc * c for a, cc in p.items()} for k, p in parts.items()}


def fraction_mul_r_power(parts: dict, s: int) -> dict:
    """r^s * parts: every part (d, b) moves to (d + s, b + s)."""
    return {(d + s, b + s): dict(p) for (d, b), p in parts.items()}


def fraction_sphere_restriction(parts: dict) -> dict:
    """The sum of the part polynomials, r = 1: {alpha: QQ}."""
    out: dict = {}
    for p in parts.values():
        for alpha, c in p.items():
            new = out.get(alpha, _Q0) + c
            if new:
                out[alpha] = new
            else:
                del out[alpha]
    return out


def fraction_diff(parts: dict, i: int) -> dict:
    table: dict = {}
    fraction_add_diff_into(parts, table, i)
    return table


def fraction_add(a: dict, b: dict, sign: int = 1) -> dict:
    """a + sign * b, term by term."""
    table = {k: dict(p) for k, p in a.items()}
    for k, p in b.items():
        for alpha, c in p.items():
            _add_term(table, k, alpha, _times(c, sign))
    return table


def fraction_form_parts(f: Form) -> dict:
    return {idx: fraction_parts(el) for idx, el in f.components.items()}


def _fraction_raise_rank(f: Form, add_into) -> dict:
    """sum_i dx^i wedge (op_i f) on Fraction tables; {idx: table}."""
    tables: dict = {}
    for idx, parts in fraction_form_parts(f).items():
        for i in range(1, f.n + 1):
            if i in idx:
                continue
            pos = sum(1 for j in idx if j < i)
            add_into(parts, tables.setdefault(tuple(sorted(idx + (i,))), {}),
                     i, -1 if pos % 2 else 1)
    return {idx: t for idx, t in tables.items() if t}


def _fraction_lower_rank(f: Form, add_into) -> dict:
    """sum_t (-1)^(t-1) op_{i_t}(f_I) dx^(I without i_t) on Fraction tables."""
    tables: dict = {}
    for idx, parts in fraction_form_parts(f).items():
        for t, i in enumerate(idx):
            add_into(parts, tables.setdefault(idx[:t] + idx[t + 1:], {}),
                     i, -1 if t % 2 else 1)
    return {idx: t for idx, t in tables.items() if t}


def fraction_rot(f: Form) -> dict:
    return _fraction_raise_rank(f, fraction_add_diff_into)


def fraction_div(f: Form) -> dict:
    return _fraction_lower_rank(f, fraction_add_diff_into)


def fraction_r_op(f: Form) -> dict:
    return {} if f.q == f.n else _fraction_raise_rank(f, fraction_add_var_into)


def fraction_t_op(f: Form) -> dict:
    return {} if f.q == 0 else _fraction_lower_rank(f, fraction_add_var_into)


# ---------------------------------------------------------------------------
# the per-component route: one RadialRingElement per component
# ---------------------------------------------------------------------------

def add_diff_into(el: RadialRingElement, table: dict, i: int, k: int = 1) -> None:
    """table += k * el.den * d/dx_i(el), for a ring term table in normal form.

    d/dx_i (r^b x^alpha) = alpha_i r^b x^(alpha - e_i) + b r^(b-2) x_i x^alpha.
    Only x_1 x^alpha with alpha_1 = 1 needs the rewrite of x_1^2; then
    d/dx_1 (r^b x_1 x^beta) = (1 + b) r^b x^beta - b sum_{l>=2} r^(b-2) x_l^2 x^beta.
    """
    layout = _layout(el.n)
    j = i - 1
    sj, sb = layout.shifts[j], layout.sb
    d_off, v_off = layout.steps[j], layout.diff_var[j]

    def put(nk, c):
        new = table.get(nk, 0) + c
        if new:
            table[nk] = new
        else:
            del table[nk]

    for key, c in el.terms.items():
        c *= k
        e = key >> sj & _DIGIT
        b = (key >> sb & _DIGIT) - R_OFFSET
        if j:
            if e:
                put(key - d_off, c * e)
            if b:
                put(key - v_off, c * b)
        elif e:
            if b != -1:
                put(key - d_off, c * (1 + b))
            if b:
                for off in layout.diff_sq:
                    put(key - off, -c * b)
        elif b:
            put(key - v_off, c * b)


def add_var_into(el: RadialRingElement, table: dict, i: int, k: int = 1) -> None:
    """table += k * el.den * x_i * el, for a ring term table in normal form.

    x_i x^alpha stays reduced unless i = 1 and alpha_1 = 1; then
    x_1 (r^b x_1 x^beta) = r^(b+2) x^beta - sum_{l>=2} r^b x_l^2 x^beta.
    """
    layout = _layout(el.n)
    j = i - 1
    off = layout.steps[j]

    def put(nk, c):
        new = table.get(nk, 0) + c
        if new:
            table[nk] = new
        else:
            del table[nk]

    for key, c in el.terms.items():
        c *= k
        if j == 0 and key >> layout.shifts[0] & _DIGIT:
            put(key + off + layout.x1_sq[0], c)
            for x in layout.x1_sq[1:]:
                put(key + off + x, -c)
        else:
            put(key + off, c)


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


def _lower_targets(idx: tuple, n: int) -> tuple:
    """(i_t, idx without i_t, t odd) for each entry i_t of idx, t 0-based."""
    return tuple((i, idx[:t] + idx[t + 1:], t % 2) for t, i in enumerate(idx))


def _rank_step(f: Form, q: int, targets, add_into) -> Form:
    """The rank-q form sum_I sum_{(i, J, odd) in targets(I, n)}
    (-1)^odd op_i(f_I) dx^J, where add_into(el, table, i, k) adds
    k * el.den * op_i(el) to a term table in normal form: every component
    enters over the lcm of the component denominators."""
    comps = f.components
    den = math.lcm(*(el.den for el in comps.values()))
    tables: dict = {}
    for idx, el in comps.items():
        k = den // el.den
        for i, target, odd in targets(idx, f.n):
            add_into(el, tables.setdefault(target, {}), i, -k if odd else k)
    return Form(f.n, q, {idx: RadialRingElement._from_table(f.n, t, den)
                         for idx, t in tables.items() if t})


def component_rot(f: Form) -> Form:
    return _rank_step(f, f.q + 1, _raise_targets, add_diff_into)


def component_div(f: Form) -> Form:
    return _rank_step(f, f.q - 1, _lower_targets, add_diff_into)


def component_r_op(f: Form) -> Form:
    if f.q == f.n:
        return Form.zero(f.n, f.n)
    return _rank_step(f, f.q + 1, _raise_targets, add_var_into)


def component_t_op(f: Form) -> Form:
    if f.q == 0:
        return Form.zero(f.n, 0)
    return _rank_step(f, f.q - 1, _lower_targets, add_var_into)


def component_scale(f: Form, c) -> Form:
    return Form(f.n, f.q, {idx: el.scale(c) for idx, el in f.components.items()})


def component_mul_r_power(f: Form, b: int) -> Form:
    return Form(f.n, f.q, {idx: el.mul_r_power(b) for idx, el in f.components.items()})


def component_add(a: Form, b: Form, sign: int = 1) -> Form:
    out = dict(a.components)
    for idx, el in b.components.items():
        cur = out.get(idx)
        term = el if sign > 0 else -el
        out[idx] = term if cur is None else cur + term
    return Form(a.n, a.q, out)


def component_sphere_inner_product(a: Form, b: Form, memos: dict | None = None) -> QQ:
    """The sphere pairing component by component: each component restricted
    by its ring element (_sphere_terms), and each term of a's restriction
    averaged against b's through a memo per component of b, kept in memos
    when given (keyed by id(b) and the component)."""
    if a.n != b.n or a.q != b.q:
        raise ValueError("mismatched shapes in sphere inner product")
    n = a.n
    odd = _layout(n).odd
    memos = {} if memos is None else memos
    total = _Q0
    comps_b = b.components
    for idx, el in a.components.items():
        other = comps_b.get(idx)
        if other is None:
            continue
        pb = other._sphere_terms()
        memo = memos.setdefault((id(b), idx), {})
        for alpha, ca in el._sphere_terms().items():
            avg = memo.get(alpha)
            if avg is None:
                avg = _Q0
                for beta, cb in pb.items():
                    gamma = alpha + beta
                    if not gamma & odd:
                        avg += cb * monomial_average(_layout(n).alpha(gamma), n)
                memo[alpha] = avg
            if avg:
                total += ca * avg
    return total


def component_hodge_star(f: Form) -> Form:
    """The Hodge star component by component: dx^I -> sign(I, I^c) dx^(I^c)."""
    full = tuple(range(1, f.n + 1))
    out = {}
    for idx, el in f.components.items():
        comp = tuple(i for i in full if i not in idx)
        inversions = sum(1 for j in comp for i in idx if i > j)
        out[comp] = -el if inversions % 2 else el
    return Form(f.n, f.n - f.q, out)
