"""Fundamental unit systems and exact unit decomposition.

Real quadratic fundamental units come from the continued fraction of the
integral-basis generator; decompositions are found by solving logarithmic
embedding systems at escalating precision and then verified exactly, so
floating point is only ever a search heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import isqrt
from itertools import product

import mpmath

from .errors import DecompositionFailed, InvariantViolated, NotAUnit, NotSquarefree
from .numberfield import (
    NumberField,
    NumberFieldElement,
    field_create,
    is_algebraic_integer,
    is_root_of_unity,
    norm,
)


@dataclass
class UnitSystem:
    field: NumberField
    fundamental_units: list

    @property
    def rank(self):
        return len(self.fundamental_units)


@dataclass(frozen=True)
class UnitDecomposition:
    zeta: NumberFieldElement
    exponents: tuple

    def reassemble(self, sys: UnitSystem) -> NumberFieldElement:
        out = self.zeta
        for eps, w in zip(sys.fundamental_units, self.exponents):
            out = out * eps**w
        return out


def is_unit(a: NumberFieldElement) -> bool:
    return (not a.is_zero()) and is_algebraic_integer(a) and abs(norm(a)) == 1


def _is_squarefree_int(d: int) -> bool:
    if d % 4 == 0:
        return False
    p = 2
    m = d
    while p * p <= m:
        if m % (p * p) == 0:
            return False
        if m % p == 0:
            m //= p
        p += 1
    return True


def fundamental_unit_real_quadratic(d: int) -> NumberFieldElement:
    """Fundamental unit > 1 of Q(sqrt(d)) via the continued fraction of the
    integral-basis generator; element of the field with min poly x^2 - d."""
    if d <= 1 or not _is_squarefree_int(d):
        raise NotSquarefree(f"{d} must be a squarefree integer > 1")
    K = field_create([-d, 0, 1])
    if d % 4 == 1:
        p0, q0 = 1, 2
    else:
        p0, q0 = 0, 1
    sq = isqrt(d)
    partials = []
    p, q = p0, q0
    a = (p + sq) // q
    partials.append(a)
    p, q = a * q - p, None
    q = (d - p * p) // q0
    first_state = (p, q)
    while True:
        a = (p + sq) // q
        p_next = a * q - p
        q_next = (d - p_next * p_next) // q
        if (p_next, q_next) == first_state:
            break
        partials.append(a)
        p, q = p_next, q_next
    # convergents over one full period
    h_prev, h = 1, partials[0]
    k_prev, k = 0, 1
    for a in partials[1:]:
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
    # epsilon = h - k * conj(omega), omega = (p0 + sqrt(d)) / q0
    theta = K.gen()
    omega_conj = (K.from_rational(p0) - theta) * Fraction(1, q0)
    eps = K.from_rational(h) - K.from_rational(k) * omega_conj
    if abs(norm(eps)) != 1 or not is_algebraic_integer(eps):
        raise InvariantViolated("the continued fraction gave no unit")
    return eps


def _numeric_embeddings(field: NumberField, prec: int):
    """One numeric root of the min poly per embedding, at working precision."""
    with mpmath.workprec(prec):
        coeffs = [mpmath.mpf(c) for c in reversed(field.min_poly)]
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=prec)
    return list(roots)


def _numeric_value(a: NumberFieldElement, root, prec: int):
    with mpmath.workprec(prec):
        acc = mpmath.mpc(0)
        for c in reversed(a.coeffs):
            acc = acc * root + mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
        return acc


def _archimedean_places(field: NumberField, prec: int):
    """Representative roots, one per archimedean place (conjugate pairs
    collapsed), real places first."""
    roots = _numeric_embeddings(field, prec)
    reals = [r for r in roots if abs(mpmath.im(r)) < mpmath.mpf(2) ** (-prec // 2)]
    complexes = [r for r in roots if r not in reals and mpmath.im(r) > 0]
    return reals + complexes


def unit_decompose(u: NumberFieldElement, sys: UnitSystem) -> UnitDecomposition:
    """Write u = zeta * prod eps_i^{w_i} exactly; raises NotAUnit or
    DecompositionFailed."""
    if not is_unit(u):
        raise NotAUnit(f"{u} is not a unit")
    r = sys.rank
    if r == 0:
        n = is_root_of_unity(u)
        if n is None:
            raise DecompositionFailed("unit is not torsion but the system has rank 0")
        return UnitDecomposition(u, ())
    prec = 64
    while prec <= 4096:
        try:
            places = _archimedean_places(sys.field, prec)
            with mpmath.workprec(prec):
                rows = []
                rhs = []
                for root in places[:r]:
                    rows.append(
                        [
                            mpmath.log(abs(_numeric_value(e, root, prec)))
                            for e in sys.fundamental_units
                        ]
                    )
                    rhs.append(mpmath.log(abs(_numeric_value(u, root, prec))))
                sol = mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix(rhs))
            w = tuple(int(mpmath.nint(x)) for x in sol)
            residual = u
            for eps, wi in zip(sys.fundamental_units, w):
                residual = residual * eps ** (-wi)
            if is_root_of_unity(residual) is not None:
                return UnitDecomposition(residual, w)
        except (ZeroDivisionError, ValueError, mpmath.libmp.NoConvergence):
            pass
        prec *= 2
    raise DecompositionFailed(
        "no exact decomposition found up to 4096 bits; unit system may be incomplete"
    )


@dataclass
class UnitSystemReport:
    valid: bool
    failures: list = dc_field(default_factory=list)
    non_fundamental: bool = False
    notes: list = dc_field(default_factory=list)


def verify_unit_system(sys: UnitSystem, relation_bound: int = 10) -> UnitSystemReport:
    """Check each generator is a unit and that no bounded multiplicative
    relation collapses the system to lower rank."""
    report = UnitSystemReport(valid=True)
    for i, eps in enumerate(sys.fundamental_units):
        if not is_unit(eps):
            report.valid = False
            report.failures.append(("NotAUnit", i))
    if not report.valid:
        return report
    r = sys.rank
    for expo in product(range(-relation_bound, relation_bound + 1), repeat=r):
        if all(e == 0 for e in expo):
            continue
        prod_val = sys.field.one()
        for eps, e in zip(sys.fundamental_units, expo):
            prod_val = prod_val * eps**e
        if is_root_of_unity(prod_val) is not None:
            report.valid = False
            report.failures.append(("Relation", expo))
            return report
    # fundamentality cross-check for real quadratic x^2 - d fields
    mp = sys.field.min_poly
    if len(mp) == 3 and mp[1] == 0 and -mp[0] > 1 and r == 1:
        d = -mp[0]
        if _is_squarefree_int(d):
            eps0 = fundamental_unit_real_quadratic(d)
            try:
                dec = unit_decompose(
                    sys.fundamental_units[0], UnitSystem(sys.field, [eps0])
                )
                if abs(dec.exponents[0]) > 1:
                    report.non_fundamental = True
                    report.notes.append(
                        f"generator is a power {dec.exponents[0]} of the fundamental unit"
                    )
            except (NotAUnit, DecompositionFailed):
                pass
    return report


def auto_unit_system(field: NumberField) -> UnitSystem:
    """Automatic unit system for real quadratic x^2 - d fields."""
    mp = field.min_poly
    if len(mp) != 3 or mp[1] != 0 or -mp[0] <= 1:
        raise NotSquarefree(
            "automatic unit systems are only available for real quadratic fields"
        )
    eps = fundamental_unit_real_quadratic(-mp[0])
    return UnitSystem(field, [field.element(eps.coeffs)])
