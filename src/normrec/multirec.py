"""Multi-recurrence algebra: polynomial-exponential functions on Z^s.

A recurrence is a merged sum of terms (coefficient polynomial, base vector)
with all bases nonzero field elements. Restriction to shifted sublattices
and progressions, proportional-term reduction, and the exact zero-on-
progression decision for simple recurrences all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import NonSimpleUnsupported, ShapeMismatch
from .numberfield import NumberField, NumberFieldElement, is_root_of_unity


class MPoly:
    """Multivariate polynomial over a number field: {exponent tuple: coeff}."""

    def __init__(self, field: NumberField, nvars: int, monomials=None):
        self.field = field
        self.nvars = nvars
        mono = {}
        if monomials:
            for exps, c in monomials.items():
                if not c.is_zero():
                    mono[tuple(int(e) for e in exps)] = c
        self.monomials = mono

    @classmethod
    def constant(cls, field, nvars, c):
        return cls(field, nvars, {(0,) * nvars: c})

    def is_constant(self):
        return all(all(e == 0 for e in exps) for exps in self.monomials)

    def constant_value(self):
        return self.monomials.get((0,) * self.nvars, self.field.zero())

    def is_zero(self):
        return not self.monomials

    def evaluate(self, k):
        acc = self.field.zero()
        for exps, c in self.monomials.items():
            val = c
            for e, ki in zip(exps, k):
                if e:
                    val = val * Fraction(ki) ** e
            acc = acc + val
        return acc

    def __add__(self, other):
        out = dict(self.monomials)
        for exps, c in other.monomials.items():
            out[exps] = out[exps] + c if exps in out else c
        return MPoly(self.field, self.nvars, out)

    def __neg__(self):
        return MPoly(
            self.field, self.nvars, {e: -c for e, c in self.monomials.items()}
        )

    def __mul__(self, other):
        if isinstance(other, NumberFieldElement):
            return MPoly(
                self.field,
                self.nvars,
                {e: c * other for e, c in self.monomials.items()},
            )
        out = {}
        for e1, c1 in self.monomials.items():
            for e2, c2 in other.monomials.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                out[e] = out[e] + prod if e in out else prod
        return MPoly(self.field, self.nvars, out)

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and self.nvars == other.nvars
            and self.monomials == other.monomials
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.monomials.items())))

    def compose_affine(self, a_mat, b_vec, new_nvars):
        """Substitute x_v = b[v] + sum_i y_i * A[i][v]; result in y vars."""
        forms = []
        for v in range(self.nvars):
            mono = {}
            if b_vec[v] != 0:
                mono[(0,) * new_nvars] = self.field.from_rational(b_vec[v])
            for i in range(new_nvars):
                if a_mat[i][v] != 0:
                    exps = tuple(1 if t == i else 0 for t in range(new_nvars))
                    mono[exps] = self.field.from_rational(a_mat[i][v])
            forms.append(MPoly(self.field, new_nvars, mono))
        result = MPoly(self.field, new_nvars)
        for exps, c in self.monomials.items():
            term = MPoly.constant(self.field, new_nvars, c)
            for v, e in enumerate(exps):
                for _ in range(e):
                    term = term * forms[v]
            result = result + term
        return result

    def __repr__(self):
        return f"MPoly({self.monomials})"


@dataclass(frozen=True)
class ShiftedSublattice:
    """h = k*A + b with integer s x r matrix A and offset b in Z^r."""

    a_matrix: tuple  # tuple of s rows, each a tuple of r ints
    b_vector: tuple  # r ints

    def __post_init__(self):
        object.__setattr__(
            self, "a_matrix", tuple(tuple(int(x) for x in row) for row in self.a_matrix)
        )
        object.__setattr__(self, "b_vector", tuple(int(x) for x in self.b_vector))

    @property
    def s(self):
        return len(self.a_matrix)

    @property
    def r(self):
        return len(self.b_vector)

    def apply(self, k):
        if len(k) != self.s:
            raise ShapeMismatch(f"expected {self.s} coordinates, got {len(k)}")
        return tuple(
            sum(k[i] * self.a_matrix[i][v] for i in range(self.s)) + self.b_vector[v]
            for v in range(self.r)
        )


@dataclass(frozen=True)
class MultiProgression:
    """Cartesian product of s arithmetic progressions c_i + d_i * N."""

    offsets: tuple
    steps: tuple

    def __post_init__(self):
        object.__setattr__(self, "offsets", tuple(int(x) for x in self.offsets))
        object.__setattr__(self, "steps", tuple(int(x) for x in self.steps))
        if any(d < 1 for d in self.steps):
            raise ValueError("progression steps must be >= 1")

    @property
    def s(self):
        return len(self.offsets)

    def point(self, n):
        return tuple(c + d * ni for c, d, ni in zip(self.offsets, self.steps, n))


class MultiRecurrence:
    """Finite sum of terms (P_j, base_j); merged and canonically ordered."""

    def __init__(self, field: NumberField, nvars: int, terms):
        self.field = field
        self.vars = nvars
        merged = {}
        for coeff, base in terms:
            base = tuple(base)
            if len(base) != nvars:
                raise ShapeMismatch("base vector length must equal vars")
            for b in base:
                if b.is_zero():
                    raise ValueError("base entries must be nonzero")
            if isinstance(coeff, NumberFieldElement):
                coeff = MPoly.constant(field, nvars, coeff)
            if base in merged:
                merged[base] = merged[base] + coeff
            else:
                merged[base] = coeff
        self.terms = tuple(
            sorted(
                ((c, b) for b, c in merged.items() if not c.is_zero()),
                key=lambda t: tuple(e.coeffs for e in t[1]),
            )
        )

    @classmethod
    def simple(cls, field, nvars, terms):
        """Build from (constant, base) pairs, constants being field elements
        or rationals."""
        conv = []
        for c, base in terms:
            if not isinstance(c, NumberFieldElement):
                c = field.from_rational(c)
            base = tuple(
                b if isinstance(b, NumberFieldElement) else field.from_rational(b)
                for b in base
            )
            conv.append((c, base))
        return cls(field, nvars, conv)

    def is_simple(self):
        return all(c.is_constant() for c, _ in self.terms)

    def is_zero(self):
        return not self.terms

    def evaluate(self, k):
        if len(k) != self.vars:
            raise ShapeMismatch(f"expected {self.vars} coordinates, got {len(k)}")
        acc = self.field.zero()
        for coeff, base in self.terms:
            val = coeff.evaluate(k)
            for b, ki in zip(base, k):
                val = val * b ** int(ki)
            acc = acc + val
        return acc

    def __add__(self, other):
        return MultiRecurrence(
            self.field, self.vars, list(self.terms) + list(other.terms)
        )

    def __neg__(self):
        return MultiRecurrence(
            self.field, self.vars, [(-c, b) for c, b in self.terms]
        )

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return (
            isinstance(other, MultiRecurrence)
            and self.field == other.field
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"MultiRecurrence(vars={self.vars}, q={len(self.terms)})"

    def restrict_sublattice(self, lattice: ShiftedSublattice) -> "MultiRecurrence":
        """Symbolic substitution h = k*A + b; result has lattice.s variables."""
        if lattice.r != self.vars:
            raise ShapeMismatch(
                f"lattice has r={lattice.r} but recurrence has {self.vars} vars"
            )
        s = lattice.s
        new_terms = []
        for coeff, base in self.terms:
            new_base = []
            for i in range(s):
                entry = self.field.one()
                for v in range(self.vars):
                    e = lattice.a_matrix[i][v]
                    if e:
                        entry = entry * base[v] ** e
                new_base.append(entry)
            mult = self.field.one()
            for v in range(self.vars):
                e = lattice.b_vector[v]
                if e:
                    mult = mult * base[v] ** e
            new_coeff = coeff.compose_affine(lattice.a_matrix, lattice.b_vector, s)
            new_terms.append((new_coeff * mult, tuple(new_base)))
        return MultiRecurrence(self.field, s, new_terms)

    def restrict_progression(self, prog: MultiProgression) -> "MultiRecurrence":
        """Substitute k_i = c_i + d_i * N_i."""
        if prog.s != self.vars:
            raise ShapeMismatch("progression dimension mismatch")
        a_mat = tuple(
            tuple(prog.steps[i] if v == i else 0 for v in range(self.vars))
            for i in range(self.vars)
        )
        return self.restrict_sublattice(ShiftedSublattice(a_mat, prog.offsets))


def is_zero_on_progression(recurrence: MultiRecurrence, prog: MultiProgression) -> bool:
    """Complete decision of identical vanishing on the progression, for
    simple recurrences."""
    if not recurrence.is_simple():
        raise NonSimpleUnsupported(
            "zero decision requires constant coefficient polynomials"
        )
    return recurrence.restrict_progression(prog).is_zero()


def mr_reduce(recurrence: MultiRecurrence, prog: MultiProgression) -> MultiRecurrence:
    """Fold terms whose bases are proportional along the progression.

    A term whose base is rho times an earlier kept base, with
    rho_i^{d_i} = 1 for every step d_i, joins that term's coefficient
    scaled by rho at the offsets. The result equals the input on the
    progression.
    """
    if not recurrence.is_simple():
        raise NonSimpleUnsupported("reduction requires a simple recurrence")
    if prog.s != recurrence.vars:
        raise ShapeMismatch("progression dimension mismatch")
    one = recurrence.field.one()
    reps = []  # (base, accumulated coeff)
    for coeff, base in recurrence.terms:
        c_val = coeff.constant_value()
        for idx, (rep_base, rep_c) in enumerate(reps):
            ratio = [bj / bi for bj, bi in zip(base, rep_base)]
            if all(rho**d == one for rho, d in zip(ratio, prog.steps)):
                at_offset = one
                for rho, c in zip(ratio, prog.offsets):
                    at_offset = at_offset * rho**c
                reps[idx] = (rep_base, rep_c + c_val * at_offset)
                break
        else:
            reps.append((base, c_val))
    return MultiRecurrence(recurrence.field, recurrence.vars, [(c, b) for b, c in reps])


@dataclass
class ZeroStructure:
    sporadic: list  # zeros not covered by a certified progression
    progressions: list  # (offset, step) pairs, each decided symbolically
    search_bound: int


def sml_zero_structure(
    recurrence: MultiRecurrence, search_bound: int, period_cap: int = 360
):
    """Desk-scale zero structure for s = 1 simple recurrences.

    Certified progressions are proven symbolically; sporadic zeros are
    complete only within [0, search_bound].
    """
    if recurrence.vars != 1:
        raise ShapeMismatch("zero structure analysis requires s = 1")
    if not recurrence.is_simple():
        raise NonSimpleUnsupported("zero structure requires a simple recurrence")
    consts = [c.constant_value() for c, _ in recurrence.terms]
    bases = [b[0] for _, b in recurrence.terms]
    zeros = []
    powers = [recurrence.field.one() for _ in bases]
    for k in range(search_bound + 1):
        acc = recurrence.field.zero()
        for c, p in zip(consts, powers):
            acc = acc + c * p
        if acc.is_zero():
            zeros.append(k)
        powers = [p * b for p, b in zip(powers, bases)]
    orders = []
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            n = is_root_of_unity(bases[j] / bases[i])
            if n is not None:
                orders.append(n)
    d_max = min(lcm(*orders) if orders else 1, period_cap)
    certified = []
    for d in range(1, d_max + 1):
        for c in range(d):
            if any(d % d0 == 0 and (c - c0) % d0 == 0 for c0, d0 in certified):
                continue  # already implied by a coarser certified progression
            if is_zero_on_progression(recurrence, MultiProgression((c,), (d,))):
                certified.append((c, d))
    covered = {
        k
        for k in zeros
        if any(k >= c and (k - c) % d == 0 for c, d in certified)
    }
    sporadic = [k for k in zeros if k not in covered]
    return ZeroStructure(
        sporadic=sporadic,
        progressions=certified,
        search_bound=search_bound,
    )
