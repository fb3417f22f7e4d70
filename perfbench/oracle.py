"""Output oracle for the benchmark, written with plain ``int`` and ``Fraction``.

Nothing here imports normrec: a rewrite of the field kernel must be checked
against arithmetic it does not share. Elements of K = Q[x]/(f) are lists of
power-basis coordinates; multiplication by a fixed element is its integer
(or rational) multiplication matrix. Every ``check_*`` function returns a
list of error strings, empty when the output is right.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import isqrt

# ---------------------------------------------------------------------------
# arithmetic in Q[x]/(f), f monic, coefficients lowest degree first
# ---------------------------------------------------------------------------


def reduce_poly(coeffs, min_poly):
    """Coordinates of a polynomial modulo the monic min_poly."""
    d = len(min_poly) - 1
    c = [Fraction(x) for x in coeffs]
    for top in range(len(c) - 1, d - 1, -1):
        lead = c[top]
        if lead:
            for i in range(d):
                c[top - d + i] -= lead * min_poly[i]
        c[top] = Fraction(0)
    return (c + [Fraction(0)] * d)[:d]


def mul_matrix(elt, min_poly):
    """Matrix of y -> elt * y on the power basis (column j is elt * x^j)."""
    d = len(min_poly) - 1
    cols = [reduce_poly([0] * j + list(elt), min_poly) for j in range(d)]
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def mat_vec(m, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in m]


def det(m):
    """Exact determinant by fraction-valued Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    out = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            out = -out
        out *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return out


def norm(elt, min_poly):
    return det(mul_matrix(elt, min_poly))


class UnitFamily:
    """The solutions eps_1^h_1 * ... * eps_r^h_r (h >= 0) of N(x . alpha) = 1
    with the alphas the power basis, so that solution vectors are
    power-basis coordinates. Every benchmark problem has m = 1, where the
    only class of representatives is that of 1."""

    def __init__(self, min_poly, units):
        self.min_poly = [Fraction(c) for c in min_poly]
        self.one = [Fraction(1)] + [Fraction(0)] * (len(min_poly) - 2)
        self.mats = [mul_matrix(u, self.min_poly) for u in units]
        self.unit_norms = [norm(u, self.min_poly) for u in units]
        self._tables = {}

    def coords(self, h):
        v = list(self.one)
        for mat, e in zip(self.mats, h):
            if e < 0:
                raise ValueError("negative exponents are outside the family")
            for _ in range(e):
                v = mat_vec(mat, v)
        return v

    def valid(self, h):
        n = Fraction(1)
        for un, e in zip(self.unit_norms, h):
            n *= un**e
        return n == 1

    def table(self, h_box, component):
        """x-value -> set of h over the box [0, h_box]^r (valid h only)."""
        key = (h_box, component)
        if key not in self._tables:
            coords = {}
            out = {}
            for h in product(range(h_box + 1), repeat=len(self.mats)):
                # one matrix step from a neighbour already tabulated
                i = max((i for i, e in enumerate(h) if e), default=None)
                if i is None:
                    coords[h] = list(self.one)
                else:
                    prev = h[:i] + (h[i] - 1,) + h[i + 1:]
                    coords[h] = mat_vec(self.mats[i], coords[prev])
                if self.valid(h):
                    out.setdefault(coords[h][component - 1], set()).add(h)
            self._tables[key] = out
        return self._tables[key]


def quad_value(d, terms, k):
    """G(k) = sum of coeff * prod base_i^k_i over Q(sqrt d), where coeff and
    every base are pairs (p, q) meaning p + q sqrt(d). Returns a pair."""
    acc_p, acc_q = Fraction(0), Fraction(0)
    for coeff, bases in terms:
        v = (Fraction(coeff[0]), Fraction(coeff[1]))
        for base, e in zip(bases, k):
            v = quad_mul(d, v, quad_pow(d, base, e))
        acc_p += v[0]
        acc_q += v[1]
    return acc_p, acc_q


def quad_pow(d, base, e):
    out = (Fraction(1), Fraction(0))
    for _ in range(e):
        out = quad_mul(d, out, base)
    return out


def quad_mul(d, x, y):
    return x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


# ---------------------------------------------------------------------------
# intersection results
# ---------------------------------------------------------------------------


def check_hits(family, g, k_box, h_box, s, component, hits, complete):
    """Every hit (k, h, x[, full_vector]) must satisfy G(k) = x = H(h) with a
    genuine solution behind it; with complete=True the hit set must also
    equal the oracle's own join over the boxes."""
    errors = []
    table = family.table(h_box, component)
    for hit in hits:
        k, h, x = tuple(hit["k"]), tuple(hit["h"]), Fraction(hit["x"])
        if any(not 0 <= ki <= k_box for ki in k) or len(k) != s:
            errors.append(f"hit k={k} outside the k box")
            continue
        if g(k) != x:
            errors.append(f"hit k={k}: G(k)={g(k)} but x={x}")
        if h not in table.get(x, ()):
            errors.append(f"hit h={h} does not give x={x}")
            continue
        vec = family.coords(h)
        if "full_vector" in hit and tuple(Fraction(c) for c in hit["full_vector"]) != tuple(vec):
            errors.append(f"hit h={h}: solution vector {hit['full_vector']} != {vec}")
        if norm(vec, family.min_poly) != 1:
            errors.append(f"hit h={h}: solution vector {vec} misses the norm")
    if complete:
        expected = []
        for k in product(range(k_box + 1), repeat=s):
            v = g(k)
            if v is not None and v.denominator == 1 and v in table:
                expected.append((k, v))
        got = sorted((tuple(hit["k"]), Fraction(hit["x"])) for hit in hits)
        if got != sorted(expected):
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            errors.append(f"hit set differs: missing {missing[:3]}, extra {extra[:3]}")
    return errors


def check_certificate(family, g, cert, planted, component, sample_points, extra=4):
    """The certificate must carry the planted (A, b), and G(k) = H(kA+b)
    must hold at progression points beyond the sampled ones."""
    errors = []
    a_mat = tuple(tuple(row) for row in cert["A"])
    b_vec = tuple(cert["b"])
    if (a_mat, b_vec) != planted:
        errors.append(f"certificate lattice {(a_mat, b_vec)} != planted {planted}")
        return errors
    offsets, steps = cert["offsets"], cert["steps"]
    s = len(offsets)
    for t in range(sample_points, sample_points + extra):
        ts = [t + i for i in range(s)]  # off the diagonal sample_verify walks
        k = tuple(c + d * ti for c, d, ti in zip(offsets, steps, ts))
        h = tuple(
            b_vec[v] + sum(k[i] * a_mat[i][v] for i in range(s)) for v in range(len(b_vec))
        )
        if not family.valid(h):
            errors.append(f"k={k} maps to h={h} outside the norm-m family")
            continue
        vec = family.coords(h)
        if g(k) != vec[component - 1]:
            errors.append(f"G({k}) != H({h}) at an extra point")
    return errors


# ---------------------------------------------------------------------------
# box solvers
# ---------------------------------------------------------------------------


def norm_form_poly(min_poly, alphas):
    """N(x_1 a_1 + ... + x_n a_n) as {exponent tuple: int}, by the Leibniz
    expansion of det(sum_i x_i M(a_i)) with n = degree."""
    n = len(alphas)
    mats = [mul_matrix(a, [Fraction(c) for c in min_poly]) for a in alphas]

    def entry(i, j):
        return {
            tuple(1 if t == v else 0 for t in range(n)): mats[v][i][j]
            for v in range(n)
            if mats[v][i][j]
        }

    def pmul(p, q):
        out = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return {e: c for e, c in out.items() if c}

    total = {}
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = {(0,) * n: Fraction(sign)}
        for i in range(n):
            term = pmul(term, entry(i, perm[i]))
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    return {e: int(c) for e, c in total.items() if c}


def norm_form_solutions(min_poly, m, box):
    """All x in [-box, box]^n (power-basis alphas) with N(x . alpha) = m."""
    n = len(min_poly) - 1
    alphas = [[0] * i + [1] for i in range(n)]
    poly = norm_form_poly(min_poly, alphas)
    by_last = {}
    for e, c in poly.items():
        by_last.setdefault(e[-1], []).append((e[:-1], c))
    sols = []
    rng = range(-box, box + 1)
    for prefix in product(rng, repeat=n - 1):
        coeffs = {}
        for e_last, terms in by_last.items():
            acc = 0
            for pe, c in terms:
                v = c
                for e, xi in zip(pe, prefix):
                    v *= xi**e
                acc += v
            coeffs[e_last] = acc
        coeffs[0] = coeffs.get(0, 0) - m
        top = max(coeffs)
        for z in rng:
            acc = 0
            for e in range(top, -1, -1):
                acc = acc * z + coeffs.get(e, 0)
            if acc == 0:
                sols.append(prefix + (z,))
    return sorted(sols)


def pell_solutions(d, m, box):
    """All (x, y) with |x|, |y| <= box and x^2 - d y^2 = m, by y then isqrt."""
    sols = set()
    for y in range(-box, box + 1):
        t = m + d * y * y
        if t < 0:
            continue
        x = isqrt(t)
        if x * x == t and x <= box:
            sols.add((x, y))
            sols.add((-x, y))
    return sorted(sols)


def check_solutions(expected, got):
    got = sorted(tuple(x) for x in got)
    if got == expected:
        return []
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    return [f"solution set differs: missing {missing[:3]}, extra {extra[:3]}"]


def vanishing_subsets(a, y):
    prods = [ai * yi for ai, yi in zip(a, y)]
    minimal = []
    for size in range(1, len(a) + 1):
        for subset in combinations(range(len(a)), size):
            if any(set(m) <= set(subset) for m in minimal):
                continue
            if sum(prods[i] for i in subset) == 0:
                minimal.append(subset)
    return minimal


def unit_equation_solutions(a, gens, expo_bound):
    """Solutions of sum a_i y_i = 1 with y = prod g^e over the exponent box,
    first exponent vector per distinct y, as (y, exponents, subsets)."""
    n = len(a)
    seen = {}
    for expo in product(range(-expo_bound, expo_bound + 1), repeat=len(gens)):
        y = [Fraction(1)] * n
        for g, e in zip(gens, expo):
            y = [yi * Fraction(gi) ** e for yi, gi in zip(y, g)]
        y = tuple(y)
        if y not in seen and sum(ai * yi for ai, yi in zip(a, y)) == 1:
            seen[y] = (y, expo, vanishing_subsets(a, y))
    return sorted(seen.values())


def check_unit_equation(a, gens, expo_bound, got):
    expected = unit_equation_solutions([Fraction(x) for x in a], gens, expo_bound)
    got = sorted(
        (tuple(Fraction(v) for v in sol["y"]), tuple(sol["exponents"]),
         [tuple(t) for t in sol["subsets"]])
        for sol in got
    )
    if got != expected:
        return [f"unit equation solutions differ: expected {len(expected)}, got {len(got)}"]
    return []


def rec_value(terms, k):
    """sum c * r^k over Q for terms (c, r)."""
    return sum(Fraction(c) * Fraction(r) ** k for c, r in terms)


def check_zero_structure(terms, bound, got, planted_progressions, planted_sporadic):
    """Sporadic zeros and certified progressions against direct evaluation
    of every k in [0, bound], plus points beyond the bound for progressions."""
    errors = []
    zeros = [k for k in range(bound + 1) if rec_value(terms, k) == 0]
    progs = [tuple(p) for p in got["progressions"]]
    for c, d in progs:
        probe = list(range(c, bound + 1, d))[:3] + [c + d * (bound // d + i) for i in (1, 2)]
        if any(rec_value(terms, k) != 0 for k in probe):
            errors.append(f"progression {(c, d)} is not a zero progression")
    covered = {k for k in zeros if any(k >= c and (k - c) % d == 0 for c, d in progs)}
    if list(got["sporadic"]) != [k for k in zeros if k not in covered]:
        errors.append(f"sporadic zeros {got['sporadic'][:5]} differ from direct evaluation")
    for p in planted_progressions:
        if tuple(p) not in progs:
            errors.append(f"planted progression {p} not certified")
    for k in planted_sporadic:
        if k not in got["sporadic"]:
            errors.append(f"planted sporadic zero {k} missing")
    return errors
