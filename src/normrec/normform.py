"""Norm form problems: brute-force oracle, norm-m representatives,
embedding matrices, component multi-recurrences, and lifts to extensions.

The brute-force oracle runs on plain ints: a quadratic form is solved
through its discriminant, sieved by residue tables, and a form of any other
degree through one bounded integer root scan per prefix of coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import combinations, product
from math import prod

from . import linalg, qpoly
from .errors import DegreeCapExceeded, InvariantViolated, NoNonsingularSelection
from .multirec import MultiRecurrence
from .numberfield import (
    NumberFieldElement,
    SplittingContainer,
    extend_by_irreducible,
    factor_over_field,
    is_algebraic_integer,
    norm,
    splitting_container,
    torsion_units,
)


class NormFormProblem:
    """N_{K/Q}(x_1 a_1 + ... + x_n a_n) = m with algebraic-integer a_i."""

    def __init__(self, field, alphas, m, unit_system=None, max_splitting_degree=24):
        self.field = field
        self.alphas = list(alphas)
        self.m = int(m)
        self.unit_system = unit_system
        self.max_splitting_degree = max_splitting_degree
        if self.m == 0:
            raise ValueError("target norm m must be nonzero")
        n, d = len(self.alphas), field.degree
        if n > d:
            raise ValueError(f"{n} module generators in a degree-{d} field")
        coord_matrix = [list(a.coeffs) for a in self.alphas]
        if linalg.rank(coord_matrix, Fraction(0)) != n:
            raise ValueError("module generators are linearly dependent over Q")
        for a in self.alphas:
            if not is_algebraic_integer(a):
                raise ValueError(f"module generator {a} is not an algebraic integer")
        self._sc = None
        self._norm_poly = None
        self._embedding = None

    @property
    def n(self):
        return len(self.alphas)

    def splitting(self) -> SplittingContainer:
        if self._sc is None:
            self._sc = splitting_container(self.field, self.max_splitting_degree)
        return self._sc

    def norm_polynomial(self):
        """The norm form as {exponent tuple: int coefficient} in n variables.

        N(x . alpha) is an integer form of degree d = [K:Q] in x. Its values
        at the C(n+d-1, d) points x >= 0 with x_1 + ... + x_n = d, which are
        unisolvent for such forms, fix it: one exact integer solve of the
        monomial matrix at those points against the norms there. x^e = 0
        unless supp(e) lies in supp(x), so the matrix is block triangular by
        support; the solve runs block by block, smallest supports first, on
        the norms less the part of the form already known.
        """
        if self._norm_poly is None:
            blocks = {}
            for e in _exponents(self.field.degree, self.n):
                blocks.setdefault(tuple(x > 0 for x in e), []).append(e)
            form = {}
            for _, block in sorted(blocks.items(), key=lambda sb: sum(sb[0])):
                rhs = []
                for point in block:
                    v = norm(sum((a * x for a, x in zip(self.alphas, point)), self.field.zero()))
                    if v.denominator != 1:
                        raise InvariantViolated("norm of an integral element not integral")
                    rhs.append(v.numerator - _evaluate(form.items(), point))
                mat = [[prod(x**k for x, k in zip(point, e)) for e in block] for point in block]
                det, y = linalg.bareiss_solve(mat, rhs)
                if any(c % det for c in y):
                    raise InvariantViolated("norm form coefficient not integral")
                form.update((e, c // det) for e, c in zip(block, y) if c)
            self._norm_poly = form
        return self._norm_poly

    def norm_of_vector(self, x):
        return _evaluate(self.norm_polynomial().items(), x)


def _exponents(d, n):
    """The exponent tuples of the degree-d monomials in n variables."""
    if n == 1:
        return [(d,)]
    return [(e,) + rest for e in range(d + 1) for rest in _exponents(d - e, n - 1)]


def solve_bruteforce(problem: NormFormProblem, box: int):
    """All x in Z^n with |x_i| <= box and N(x . alpha) = m, lex sorted.

    The norm form is homogeneous of degree d = [K:Q], so its coefficient of
    x_n^d is the constant N(alpha_n) != 0. Grouped by the power of x_n, it
    is a polynomial in x_n whose coefficients are integer polynomials in the
    prefix (x_1, ..., x_{n-1}); for n = 1 the prefix is empty. For d != 2,
    each prefix in the box costs one ``qpoly.int_roots`` call. For d = 2
    (so n <= 2) see ``_solve_quadratic``.
    """
    if box < 0:
        raise ValueError(f"box must be nonnegative, got {box}")
    n, d = problem.n, problem.field.degree
    # coeff[e]: the coefficient of x_n^e as [(prefix exponents, int)]
    coeff = [[] for _ in range(d + 1)]
    for exps, c in problem.norm_polynomial().items():
        coeff[exps[-1]].append((exps[:-1], c))
    coeff[0].append(((0,) * (n - 1), -problem.m))
    if d == 2:
        return _solve_quadratic(coeff, n, box)
    sols = []
    for prefix in product(range(-box, box + 1), repeat=n - 1):
        values = [_evaluate(terms, prefix) for terms in coeff]
        sols.extend(prefix + (x,) for x in qpoly.int_roots(values, bound=box))
    return sols


def _evaluate(terms, point):
    acc = 0
    for exps, c in terms:
        for e, x in zip(exps, point):
            if e:
                c *= x**e
        acc += c
    return acc


def _solve_quadratic(coeff, n, box):
    """solve_bruteforce for d = 2: a x_n^2 + C1(x_1) x_n + C0(x_1) - m = 0
    has an integer root only where the discriminant
    D(x_1) = C1(x_1)^2 - 4a (C0(x_1) - m), an integer polynomial of degree
    <= 2, is a square. D(x_1) mod M depends on x_1 mod M alone, so for each
    modulus M of the square test of Cohen, GTM 138, Alg. 1.7.3, one table
    marks the residues of x_1 for which D(x_1) is a square mod M; isqrt
    runs only on the x_1 that pass every table. An empty prefix (n = 1) is
    the case of a constant D, with x_1 = 0 left out of the solutions.
    """
    c2, c1, c0 = ([0] * 3 for _ in range(3))
    for poly, terms in zip((c0, c1, c2), coeff):
        for exps, c in terms:
            poly[sum(exps)] += c  # the exponent of x_1, 0 when n = 1
    a = c2[0]
    disc = qpoly.sub(qpoly.mul(c1, c1), qpoly.scale(c0, 4 * a))
    d0, d1, d2 = disc + (0,) * (3 - len(disc))
    tables = []
    for mod in (64, 63, 65, 11):
        squares = {s * s % mod for s in range(mod)}
        tables.append([(d0 + (d1 + d2 * r) * r) % mod in squares for r in range(mod)])
    q64, q63, q65, q11 = tables
    b0, b1 = c1[0], c1[1]
    lo, hi = (-box, box) if n == 2 else (0, 0)
    sols = []
    # walk the box once per residue class of x_1 mod 64 * 63 that passes the
    # first two tables
    step = 64 * 63
    for r in range(step):
        if not (q64[r & 63] and q63[r % 63]):
            continue
        for x1 in range(lo + (r - lo) % step, hi + 1, step):
            if q65[x1 % 65] and q11[x1 % 11]:
                prefix = (x1,)[: n - 1]
                for x in qpoly._quadratic_roots(a, b0 + b1 * x1, d0 + (d1 + d2 * x1) * x1):
                    if abs(x) <= box:
                        sols.append(prefix + (x,))
    return sorted(sols)


@dataclass
class RepresentativeSet:
    representatives: list
    coeff_bound: int


def norm_representatives(problem: NormFormProblem, coeff_bound: int):
    """Pairwise non-associate elements of norm m with integral-basis
    coordinates bounded by coeff_bound; complete within the box only.

    The candidates are the solutions of the norm form equation on the
    integral basis, from ``solve_bruteforce``. Every candidate has norm
    exactly m, so the quotient of two of them has norm 1 and is a unit
    exactly when it is an algebraic integer.
    """
    field = problem.field
    basis = field.integral_basis()
    candidates = solve_bruteforce(NormFormProblem(field, basis, problem.m), coeff_bound)
    # canonical representative per associate class: smallest coefficients,
    # positive signs preferred; the sort is stable and the candidates are
    # lex sorted, which breaks the remaining ties
    candidates.sort(
        key=lambda cs: (
            sum(c * c for c in cs),
            tuple(abs(c) for c in cs),
            tuple(0 if c >= 0 else 1 for c in cs),
        )
    )
    reps = []
    for coeffs in candidates:
        mu = sum((w * c for c, w in zip(coeffs, basis) if c), field.zero())
        if not any(is_algebraic_integer(mu / r) for r in reps):
            reps.append(mu)
    return RepresentativeSet(reps, coeff_bound)


@dataclass
class EmbeddingMatrix:
    sigma_indices: tuple
    matrix: list
    inverse: list


def embedding_matrix(problem: NormFormProblem) -> EmbeddingMatrix:
    """Lexicographically first n-subset of embeddings whose matrix
    (sigma_i(alpha_j)) has nonzero determinant, with its exact inverse."""
    sc = problem.splitting()
    amb = sc.ambient
    n, d = problem.n, problem.field.degree
    conj = [[sc.embed(a, i) for a in problem.alphas] for i in range(d)]
    for subset in combinations(range(d), n):
        mat = [conj[i] for i in subset]
        try:
            inv = linalg.inverse(mat, amb.zero(), amb.one())
        except ZeroDivisionError:
            continue
        return EmbeddingMatrix(subset, mat, inv)
    raise NoNonsingularSelection(
        "every embedding selection is singular; generators are dependent"
    )


@dataclass
class ComponentRecurrence:
    """x_component = H(h_1, ..., h_r) for solutions using this mu class.

    parity_mask / parity annotate which h give genuine solutions when some
    fundamental unit has norm -1: sum of masked h_v must be == parity mod 2.
    """

    component: int
    recurrence: MultiRecurrence
    mu: NumberFieldElement
    torsion_power: int
    parity_mask: tuple
    parity: int
    embedding_indices: tuple
    problem: NormFormProblem = dc_field(repr=False, default=None)

    def h_valid(self, h) -> bool:
        return sum(hv for hv, msk in zip(h, self.parity_mask) if msk) % 2 == self.parity

    def unit_for(self, h) -> NumberFieldElement:
        sys = self.problem.unit_system
        out = self.problem.field.one()
        for eps, hv in zip(sys.fundamental_units, h):
            out = out * eps ** int(hv)
        return out


def build_component_recurrences(
    problem: NormFormProblem, component: int, coeff_bound: int = 5
):
    """The finite set of component recurrences H for x_component, one per
    (norm-m representative class, torsion class modulo signs)."""
    if not 1 <= component <= problem.n:
        raise ValueError(f"component must be in 1..{problem.n}")
    if problem.unit_system is None:
        raise ValueError("problem has no unit system")
    sc = problem.splitting()
    amb = sc.ambient
    emb = embedding_matrix(problem)
    sys = problem.unit_system
    r = sys.rank
    reps = norm_representatives(problem, coeff_bound)
    unit_norms = [norm(e) for e in sys.fundamental_units]
    parity_mask = tuple(1 if s == -1 else 0 for s in unit_norms)
    t_order, t_elts = torsion_units(problem.field)
    # torsion classes modulo {+-1}: signs are absorbed into associate classes
    torsion_reps = list(range(t_order // 2)) if t_order % 2 == 0 else list(range(t_order))
    out = []
    for mu in reps.representatives:
        for t in torsion_reps:
            scaled_mu = mu * t_elts[1] ** t if t else mu
            n_scaled = norm(scaled_mu)
            if abs(n_scaled) != abs(problem.m):
                raise InvariantViolated("a scaled representative lost its norm")
            parity = 0 if n_scaled == problem.m else 1
            if parity == 1 and not any(parity_mask):
                continue  # no h can repair the sign; class contributes nothing
            terms = []
            for pos, i in enumerate(emb.sigma_indices):
                tau = emb.inverse[component - 1][pos] * sc.embed(scaled_mu, i)
                base = tuple(sc.embed(e, i) for e in sys.fundamental_units)
                terms.append((tau, base))
            rec = MultiRecurrence(amb, r, terms)
            out.append(
                ComponentRecurrence(
                    component=component,
                    recurrence=rec,
                    mu=scaled_mu,
                    torsion_power=t,
                    parity_mask=parity_mask,
                    parity=parity,
                    embedding_indices=emb.sigma_indices,
                    problem=problem,
                )
            )
    return out


@dataclass
class LiftResult:
    problem: NormFormProblem
    relative_degree: int
    embed: object  # callable K -> L


def lift(problem: NormFormProblem, extension_specs) -> LiftResult:
    """Lift to N_{L/Q}(x . alpha) = m^[L:K] by adjoining the specified roots.

    Each spec is either ("poly", coeffs) for a rational polynomial or
    ("radical", element, e) for an e-th root of a field element.
    """
    current = problem.field
    embed = lambda a: a  # noqa: E731

    def compose(f, g):
        return lambda a: f(g(a))

    for spec in extension_specs:
        if spec[0] == "poly":
            coeffs = [current.from_rational(Fraction(c)) for c in spec[1]]
        elif spec[0] == "radical":
            elt, e = spec[1], int(spec[2])
            img = embed(elt)
            coeffs = [-img] + [current.zero()] * (e - 1) + [current.one()]
        else:
            raise ValueError(f"unknown extension spec {spec[0]!r}")
        factors = factor_over_field(coeffs, current)
        factors.sort(key=len)
        irreducible = factors[-1]
        if len(irreducible) == 2:
            continue  # the root already lies in the current field
        new_degree = (len(irreducible) - 1) * current.degree
        if new_degree > problem.max_splitting_degree:
            raise DegreeCapExceeded(
                f"lift degree {new_degree} exceeds cap {problem.max_splitting_degree}"
            )
        current, step_embed, _root = extend_by_irreducible(
            current, irreducible, max_degree=problem.max_splitting_degree
        )
        embed = compose(step_embed, embed)
    rel = current.degree // problem.field.degree
    lifted = NormFormProblem(
        current,
        [embed(a) for a in problem.alphas],
        problem.m**rel,
        unit_system=None,
        max_splitting_degree=problem.max_splitting_degree,
    )
    # tower formula sanity on a few base-field elements
    for probe in (problem.field.gen(), problem.field.one() + problem.field.gen()):
        if norm(embed(probe)) != norm(probe) ** rel:
            raise InvariantViolated("the lift breaks the norm tower formula")
    return LiftResult(lifted, rel, embed)
