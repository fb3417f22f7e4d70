"""Exact arithmetic in number fields K = Q[x]/(f).

An element is a vector of integer numerators in the power basis over one
positive integer denominator, in lowest terms, so that every element has
exactly one representation (Cohen, GTM 138, section 4.2). A product is the
schoolbook integer product reduced through the field's table of
x^(d+j) mod f, which holds only integers because f is monic with integer
coefficients; an inverse is a fraction-free solve on the integer
multiplication matrix. Nothing is rounded anywhere. Conjugate embeddings
live in an exactly represented splitting container built by iterated root
adjunction (Trager-style factorization over the current field, with sympy
supplying resultants and rational factorization).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import sympy as sp

from . import linalg, qpoly
from .errors import (
    DegreeCapExceeded,
    DivisionByZero,
    InvariantViolated,
    NonMonic,
    ReducibleMinPoly,
)

_X = sp.Symbol("x")
_Y = sp.Symbol("y")


def _times_x(col, f):
    """Integer numerators of x * col mod f, for monic integer f."""
    top = col[-1]
    col = [0] + col[:-1]
    if top:
        col = [c - top * fc for c, fc in zip(col, f)]
    return col


def _reduction_table(f):
    """Rows x^(d+j) mod f for j = 0 .. d-2, each as (index, value) pairs of
    its nonzero integer entries."""
    d = len(f) - 1
    row = [-c for c in f[:-1]]
    table = []
    for _ in range(d - 1):
        table.append(tuple((i, c) for i, c in enumerate(row) if c))
        row = _times_x(row, f)
    return tuple(table)


def _mul_num(a, b, table):
    """Integer numerators of a * b mod f, a and b numerator vectors."""
    d = len(a)
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                prod[k] += x * y
    low = prod[:d]
    for hi, row in zip(prod[d:], table):
        if hi:
            for i, c in row:
                low[i] += hi * c
    return low


def _mul_matrix(num, f):
    """Integer matrix of multiplication by the numerator vector num: column
    j holds num * x^j mod f."""
    cols = [list(num)]
    for _ in range(len(num) - 1):
        cols.append(_times_x(cols[-1], f))
    return [list(row) for row in zip(*cols)]


def _reduced(field, num, den):
    """The element num / den in lowest terms with a positive denominator."""
    if den != 1:
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = [n // g for n in num]
            den //= g
    return NumberFieldElement(field, tuple(num), den)


class NumberField:
    """Q[x]/(f) for a monic irreducible integer polynomial f."""

    def __init__(self, min_poly, _trusted=False):
        coeffs = tuple(int(c) for c in min_poly)
        if not coeffs or coeffs[-1] != 1:
            raise NonMonic(f"minimal polynomial must be monic: {coeffs}")
        if len(coeffs) < 2:
            raise NonMonic("minimal polynomial must be non-constant")
        self.min_poly = coeffs
        self.degree = len(coeffs) - 1
        if not _trusted and self.degree > 1:
            factors = _rational_factors(coeffs)
            if len(factors) > 1:
                raise ReducibleMinPoly(factors[0])
        self._reduction = _reduction_table(coeffs)
        zeros = (0,) * (self.degree - 1)
        self._zero = NumberFieldElement(self, (0,) + zeros, 1)
        self._one = NumberFieldElement(self, (1,) + zeros, 1)

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self):
        return hash(self.min_poly)

    def __repr__(self):
        return f"NumberField({list(self.min_poly)})"

    # element constructors

    def element(self, coeffs) -> "NumberFieldElement":
        vals = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = lcm(*(v.denominator for v in vals))
        num = [v.numerator * (den // v.denominator) for v in vals]
        d, f = self.degree, self.min_poly
        for i in range(len(num) - 1, d - 1, -1):
            c = num.pop()
            if c:
                for k in range(d):
                    num[i - d + k] -= c * f[k]
        num += [0] * (d - len(num))
        return _reduced(self, num, den)

    def from_rational(self, q) -> "NumberFieldElement":
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        return NumberFieldElement(
            self, (q.numerator,) + self._zero.num[1:], q.denominator
        )

    def zero(self) -> "NumberFieldElement":
        return self._zero

    def one(self) -> "NumberFieldElement":
        return self._one

    def gen(self) -> "NumberFieldElement":
        if self.degree == 1:
            return self.from_rational(-self.min_poly[0])
        return self.element([0, 1])

    def integral_basis(self):
        """Z-basis of the ring of integers for quadratic x^2 - d fields.

        Power basis elsewhere (equation order); callers that enumerate over
        this basis inherit that caveat for non-quadratic fields.
        """
        if self.degree == 2 and self.min_poly[1] == 0:
            d = -self.min_poly[0]
            if d % 4 == 1:
                return [self.one(), self.element([Fraction(1, 2), Fraction(1, 2)])]
        return [self.element([0] * i + [1]) for i in range(self.degree)]


class NumberFieldElement:
    """(num[0] + num[1] x + ... + num[d-1] x^(d-1)) / den in K.

    Immutable and canonical: den >= 1 and gcd(den, *num) == 1. Build
    elements through the field (``element``, ``from_rational``); the
    constructor trusts its arguments.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num: tuple, den: int):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple:
        """Power-basis coordinates as Fractions, derived from num / den."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    def _check_field(self, other):
        if other.field is not self.field and other.field != self.field:
            raise ValueError("elements of different fields")

    def __add__(self, other):
        num, den = self.num, self.den
        if isinstance(other, NumberFieldElement):
            self._check_field(other)
            oden = other.den
            if oden == den:
                return _reduced(self.field, [a + b for a, b in zip(num, other.num)], den)
            return _reduced(
                self.field,
                [a * oden + b * den for a, b in zip(num, other.num)],
                den * oden,
            )
        if isinstance(other, int):
            # adding a multiple of den keeps the numerators coprime to den
            return NumberFieldElement(
                self.field, (num[0] + other * den,) + num[1:], den
            )
        if isinstance(other, Fraction):
            p, q = other.numerator, other.denominator
            return _reduced(
                self.field, [num[0] * q + p * den] + [n * q for n in num[1:]], den * q
            )
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElement(self.field, tuple(-n for n in self.num), self.den)

    def __sub__(self, other):
        if isinstance(other, (NumberFieldElement, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, NumberFieldElement):
            self._check_field(other)
            num = _mul_num(self.num, other.num, self.field._reduction)
            return _reduced(self.field, num, self.den * other.den)
        if isinstance(other, int):
            return _reduced(self.field, [n * other for n in self.num], self.den)
        if isinstance(other, Fraction):
            p = other.numerator
            return _reduced(
                self.field, [n * p for n in self.num], self.den * other.denominator
            )
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("division by zero in number field")
        d = self.field.degree
        # (A / den)^-1 = den * A^-1, and A^-1 is the solution y / det of
        # M_A y = det * e_0 on the integer multiplication matrix M_A
        det, y = linalg.bareiss_solve(
            _mul_matrix(self.num, self.field.min_poly), [1] + [0] * (d - 1)
        )
        if not det:
            raise DivisionByZero("element is not invertible")
        return _reduced(self.field, [self.den * v for v in y], det)

    def __truediv__(self, other):
        if isinstance(other, NumberFieldElement):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            if not other:
                raise DivisionByZero("division by zero in number field")
            q = other.denominator
            return _reduced(
                self.field, [n * q for n in self.num], self.den * other.numerator
            )
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, n):
        n = int(n)
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = self.field.one()
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, NumberFieldElement):
            return (
                self.num == other.num
                and self.den == other.den
                and (self.field is other.field or self.field == other.field)
            )
        if isinstance(other, (int, Fraction)):
            return (
                self.den == other.denominator
                and self.num[0] == other.numerator
                and not any(self.num[1:])
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.field.min_poly, self.num, self.den))

    def is_zero(self):
        return not any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"element is not rational: {self}")
        return Fraction(self.num[0], self.den)

    def __repr__(self):
        return f"NFElt{list(map(str, self.coeffs))}"


# ---------------------------------------------------------------------------
# field_create and element-level number theory
# ---------------------------------------------------------------------------


def field_create(min_poly) -> NumberField:
    """Build Q[x]/(f); raises ReducibleMinPoly / NonMonic on bad input."""
    return NumberField(min_poly)


def multiplication_matrix(a: NumberFieldElement):
    """Matrix of x -> a*x on the power basis, columns indexed by basis."""
    den = a.den
    return [
        [Fraction(v, den) for v in row] for row in _mul_matrix(a.num, a.field.min_poly)
    ]


def norm(a: NumberFieldElement) -> Fraction:
    """Field norm N_{K/Q}(a), the determinant of multiplication by a."""
    d = a.field.degree
    det, _ = linalg.bareiss_solve(_mul_matrix(a.num, a.field.min_poly), [0] * d)
    return Fraction(det, a.den**d)


def trace(a: NumberFieldElement) -> Fraction:
    m = _mul_matrix(a.num, a.field.min_poly)
    return Fraction(sum(m[i][i] for i in range(len(m))), a.den)


def char_poly(a: NumberFieldElement):
    """Characteristic polynomial of multiplication by a, monic, low-first."""
    return linalg.charpoly(multiplication_matrix(a))


def min_poly_of(a: NumberFieldElement):
    """Minimal polynomial of a over Q: the radical of the char poly."""
    cp = char_poly(a)
    rad, _ = qpoly.divmod_poly(cp, qpoly.gcd(cp, qpoly.deriv(cp)))
    return qpoly.monic(rad)


def is_algebraic_integer(a: NumberFieldElement) -> bool:
    """Whether the min poly of a has integer coefficients. The char poly is
    a power of the min poly, so by Gauss's lemma it is integral exactly
    when the min poly is."""
    return all(c.denominator == 1 for c in char_poly(a))


@lru_cache(maxsize=None)
def _torsion_candidate_orders(d: int):
    """All n >= 1 with euler_phi(n) = [Q(zeta_n):Q] dividing d, ascending."""
    out = []
    # phi(n) > sqrt(n/2) for all n, so n <= 2*(d+1)^2 is a safe scan range
    limit = 2 * (d + 1) * (d + 1) + 1
    for n in range(1, limit):
        phi = n
        m, p = n, 2
        while p * p <= m:
            if m % p == 0:
                while m % p == 0:
                    m //= p
                phi -= phi // p
            p += 1
        if m > 1:
            phi -= phi // m
        if d % phi == 0:
            out.append(n)
    return tuple(out)


def is_root_of_unity(a: NumberFieldElement):
    """Least n with a^n = 1, or None. a must be nonzero."""
    if a.is_zero():
        raise DivisionByZero("zero is not a root of unity")
    if a == a.field.one():
        return 1
    if abs(norm(a)) != 1 or not is_algebraic_integer(a):
        return None
    for n in _torsion_candidate_orders(a.field.degree):
        if n == 1:
            continue
        if a**n == a.field.one():
            return n
    return None


def torsion_units(field: NumberField):
    """The roots of unity in the field: returns (order, elements).

    The torsion group is cyclic, so it suffices to find the largest order n
    for which a primitive n-th root of unity exists; -1 is always present.
    """
    for n in reversed(_torsion_candidate_orders(field.degree)):
        if n <= 2:
            break
        zeta = _find_primitive_root_of_unity(field, n)
        if zeta is not None:
            return n, [zeta**k for k in range(n)]
    minus_one = field.from_rational(-1)
    return 2, [field.one(), minus_one]


def _find_primitive_root_of_unity(field: NumberField, n: int):
    """Search for a primitive n-th root of unity in the field, exactly.

    Solves x^n = 1 by factoring the n-th cyclotomic polynomial over the
    field and looking for linear factors.
    """
    cyc = sp.Poly(sp.cyclotomic_poly(n, _X), _X)
    coeffs = [Fraction(int(c)) for c in reversed(cyc.all_coeffs())]
    lifted = [field.from_rational(c) for c in coeffs]
    for fac in factor_over_field(lifted, field):
        if len(fac) == 2:  # monic linear: x + c
            return -fac[0]
    return None


# ---------------------------------------------------------------------------
# Factorization over a number field (Trager) and root adjunction
# ---------------------------------------------------------------------------


def _lift_rational_poly(coeffs, field: NumberField):
    return [field.from_rational(c) for c in coeffs]


def _to_bivariate(p, field):
    """Sympy expression Sum c_ij y^j x^i for p with field coefficients."""
    expr = sp.Integer(0)
    for i, c in enumerate(p):
        for j, q in enumerate(c.coeffs):
            if q != 0:
                expr += sp.Rational(q.numerator, q.denominator) * _Y**j * _X**i
    return expr


def _field_gen_poly_sympy(field: NumberField):
    return sp.Poly(list(reversed(field.min_poly)), _Y, domain="QQ").as_expr()


def _norm_poly(p, field: NumberField, shift: int):
    """Res_y(g(y), p(x - shift*y)) as a qpoly tuple over Q."""
    shifted = _gen_shifted(p, shift, field)
    bivar = _to_bivariate(shifted, field)
    g = _field_gen_poly_sympy(field)
    res = sp.resultant(g, bivar, _Y)
    res_poly = sp.Poly(sp.expand(res), _X, domain="QQ")
    coeffs = [Fraction(sp.Rational(c)) for c in reversed(res_poly.all_coeffs())]
    return qpoly.trim(coeffs)


def _gen_shifted(p, shift: int, field):
    """p(x - shift*alpha) where alpha is the field generator."""
    if shift == 0:
        return tuple(p)
    return qpoly.compose(p, (field.gen() * -shift, field.one()))


def factor_over_field(p, field: NumberField):
    """Monic irreducible factors of a squarefree polynomial over the field.

    p is a list of NumberFieldElements, lowest degree first, degree >= 1.
    """
    p = qpoly.monic(qpoly.trim(p))
    if field.degree == 1:
        rat = [c.as_rational() for c in p]
        return [
            _lift_rational_poly(f, field) for f in _rational_factors(rat)
        ]
    if len(p) == 2:
        return [p]
    for shift in _shift_candidates():
        npoly = _norm_poly(p, field, shift)
        if not qpoly.is_squarefree(npoly):
            continue
        rational_factors = _rational_factors(npoly)
        if len(rational_factors) == 1:
            return [p]
        shifted = _gen_shifted(p, shift, field)
        out = []
        for fac in rational_factors:
            lifted = _lift_rational_poly(fac, field)
            g = qpoly.gcd(shifted, lifted)
            if len(g) >= 2:
                out.append(_gen_shifted(g, -shift, field))
        if sum(len(f) - 1 for f in out) != len(p) - 1:
            raise InvariantViolated(
                "factor degrees do not add up to the degree of the polynomial"
            )
        return out
    raise RuntimeError("no squarefree shift found (should not happen)")


def _shift_candidates():
    yield 0
    k = 1
    while k <= 40:
        yield k
        yield -k
        k += 1


def _rational_factors(coeffs):
    """Irreducible monic factors over Q of a polynomial with integer or
    rational coefficients, lowest degree first.

    Returns a list of qpoly tuples, each factor repeated by its multiplicity.
    """
    fracs = [Fraction(c) for c in coeffs]
    den = lcm(*(c.denominator for c in fracs))
    ints = [int(c * den) for c in fracs]
    poly = sp.Poly(list(reversed(ints)), _X, domain="QQ")
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        fc = qpoly.monic(
            qpoly.trim([Fraction(sp.Rational(c)) for c in reversed(fac.all_coeffs())])
        )
        out.extend([fc] * mult)
    return out


def _scale_to_integer_monic(min_poly):
    """Given a monic rational min poly of gamma, return (lam, integer min
    poly of lam*gamma)."""
    d = qpoly.degree(min_poly)
    lam = lcm(*(c.denominator for c in min_poly[:-1]))
    while True:
        scaled = tuple(
            min_poly[i] * Fraction(lam) ** (d - i) for i in range(d)
        ) + (Fraction(1),)
        if all(c.denominator == 1 for c in scaled):
            return lam, tuple(int(c) for c in scaled)
        lam *= 2


def extend_by_irreducible(field: NumberField, q, max_degree=None):
    """Adjoin a root of q (irreducible over field, degree >= 2).

    Returns (new_field, embed, root) where embed maps old elements into the
    new field and root is a root of the embedded q.
    """
    e = len(q) - 1
    new_degree = e * field.degree
    if max_degree is not None and new_degree > max_degree:
        raise DegreeCapExceeded(
            f"extension degree {new_degree} exceeds cap {max_degree}"
        )
    if field.degree == 1:
        rat = [c.as_rational() for c in q]
        lam, ints = _scale_to_integer_monic(qpoly.monic(qpoly.trim(rat)))
        new_field = NumberField(ints, _trusted=True)
        root = new_field.gen() * Fraction(1, lam)

        def embed(a, _nf=new_field):
            return _nf.from_rational(a.as_rational())

        return new_field, embed, root
    for shift in _shift_candidates():
        npoly = _norm_poly(q, field, shift)
        if not qpoly.is_squarefree(npoly):
            continue
        lam, ints = _scale_to_integer_monic(qpoly.monic(npoly))
        new_field = NumberField(ints, _trusted=True)
        gamma = new_field.gen() * Fraction(1, lam)
        # locate the image of the old generator: the unique common root of
        # g(y) and q(gamma - shift*y, y) in the new field
        g_lifted = _lift_rational_poly(
            [Fraction(c) for c in field.min_poly], new_field
        )
        shifted = _gen_shifted(q, shift, field)
        # build q~(gamma, y): substitute x = gamma in the bivariate form
        acc = qpoly.ZERO
        gamma_pow = new_field.one()
        for i, c in enumerate(shifted):
            # c is an element of `field`: its coeffs give a poly in y
            cy = [gamma_pow * v for v in c.coeffs]
            acc = qpoly.add(acc, cy)
            gamma_pow = gamma_pow * gamma
        h = qpoly.gcd(g_lifted, acc)
        if len(h) != 2:
            raise InvariantViolated("generator image gcd must be linear")
        alpha_img = -h[0]

        def embed(a, _alpha=alpha_img, _nf=new_field):
            acc_e = _nf.zero()
            pw = _nf.one()
            for n in a.num:
                if n:
                    acc_e = acc_e + pw * n
                pw = pw * _alpha
            return acc_e / a.den

        root = gamma - alpha_img * Fraction(shift)
        return new_field, embed, root
    raise RuntimeError("no squarefree shift found for extension")


# ---------------------------------------------------------------------------
# Splitting container
# ---------------------------------------------------------------------------


class SplittingContainer:
    """An exactly represented field over which the base min poly splits,
    together with the images of the base generator (one per embedding)."""

    def __init__(self, base: NumberField, ambient: NumberField, roots):
        self.base = base
        self.ambient = ambient
        self.roots = list(roots)
        if len(self.roots) != base.degree:
            raise InvariantViolated("a splitting container needs one root per embedding")
        self._powers = [_power_columns(r, base.degree) for r in self.roots]

    def embed(self, a: NumberFieldElement, i: int) -> NumberFieldElement:
        """sigma_i(a) as an element of the ambient field."""
        if a.field is not self.base and a.field != self.base:
            raise ValueError("element not in the base field")
        den, cols = self._powers[i]
        acc = [0] * self.ambient.degree
        for n, col in zip(a.num, cols):
            if n:
                for t, c in enumerate(col):
                    acc[t] += n * c
        return _reduced(self.ambient, acc, a.den * den)

    def conjugates(self, a: NumberFieldElement):
        return [self.embed(a, i) for i in range(self.base.degree)]

    def preimage(self, b: NumberFieldElement, i: int) -> NumberFieldElement:
        """The a in the base field with sigma_i(a) = b; raises if none."""
        den, cols = self._powers[i]
        # sum_j a_j root^j = b  <=>  sum_j a_j cols[j] = den * b
        mat = [list(row) for row in zip(*cols)]
        rhs = [Fraction(den * n, b.den) for n in b.num]
        sol = linalg.solve(mat, rhs, Fraction(0), Fraction(1))
        if sol is None:
            raise ValueError("element has no preimage under this embedding")
        return self.base.element(sol)


def _power_columns(root: NumberFieldElement, d: int):
    """(den, cols) with cols[j] the integer numerators of den * root^j for
    j < d, den the least common denominator of those powers."""
    pows = [root.field.one()]
    for _ in range(d - 1):
        pows.append(pows[-1] * root)
    den = lcm(*(p.den for p in pows))
    return den, [[n * (den // p.den) for n in p.num] for p in pows]


def splitting_container(field: NumberField, max_degree: int = 24) -> SplittingContainer:
    """Build the splitting container by iterated root adjunction."""
    ambient = field
    f_lifted = _lift_rational_poly([Fraction(c) for c in field.min_poly], ambient)
    if field.degree == 1:
        return SplittingContainer(field, field, [field.gen()])
    roots = [ambient.gen()]
    while True:
        remaining = f_lifted
        for r in roots:
            remaining, rem = qpoly.divmod_poly(remaining, (-r, ambient.one()))
            if rem:
                raise InvariantViolated("known root fails exact division")
        if len(remaining) <= 1:
            break
        factors = factor_over_field(remaining, ambient)
        new_roots = [-(f[0]) for f in factors if len(f) == 2]
        nonlinear = [f for f in factors if len(f) > 2]
        if not nonlinear:
            roots.extend(new_roots)
            continue
        roots.extend(new_roots)
        new_field, embed, root = extend_by_irreducible(
            ambient, nonlinear[0], max_degree=max_degree
        )
        roots = [embed(r) for r in roots] + [root]
        f_lifted = _lift_rational_poly(
            [Fraction(c) for c in field.min_poly], new_field
        )
        ambient = new_field
    # verify the split by exact division (done above) and sort roots for
    # deterministic embedding order
    roots_sorted = sorted(roots, key=lambda r: r.coeffs)
    # keep the identity embedding first when the field splits itself
    if ambient == field:
        ident = field.gen()
        roots_sorted.remove(ident)
        roots_sorted = [ident] + roots_sorted
    return SplittingContainer(field, ambient, roots_sorted)
