"""Slow reference implementations that the library's single paths are checked
against.

Each oracle computes the same object as a library operator by an independent
route:

  hodge_div            codifferential through the Hodge star, (-1)^((q-1)n) * rot *
  laplacian_factored   rot div + div rot, with the grade guards
  direct_seed_basis    escalating general ansatz r^(degree-e) * (reduced monomials)
  tower_coefficient_closed   closed product form of the floor-coefficient recursion
  diff_by_canonicalize d/dx_i term by term into raw parts, then the full
                       canonicalization RadialRingElement(n, raw)
  laplacian_by_diff    sum_i of second partials per component, through
                       diff_by_canonicalize
  wedge                exterior product by the component formula, with ring
                       multiplication of the coefficients
  r_op_by_wedge        wedge(radial_one_form(n), f)
  t_op_by_product      contraction with the Euler field as sums of el * x_i
"""

import itertools

from towercalc.errors import InvalidRankError, require_odd_dimension
from towercalc.forms import Form, radial_one_form
from towercalc.harmonic import kernel_of_operators
from towercalc.ring import QQ, RadialRingElement, reduced_monomials

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
                el = RadialRingElement(
                    n, {(degree, degree - e): {alpha: _Q1}}, _canonical=True)
                for idx in tuples:
                    cands.append(Form(n, q, {idx: el}))
        kernel = kernel_of_operators(cands, _hodge_biclosed_operators(n, q))
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
