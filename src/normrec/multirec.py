"""Multi-recurrence algebra: simple exponential functions on Z^s.

A recurrence is a merged sum of terms c * base_1^k_1 ... base_s^k_s with a
constant c and nonzero bases, all field elements. Restriction to shifted
sublattices and progressions, proportional-term reduction, and the exact
zero-on-progression decision all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import ShapeMismatch
from .numberfield import NumberField, NumberFieldElement, is_root_of_unity


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
    """Finite sum of terms (c_j, base_j) with constant field elements c_j;
    terms with equal bases are merged, zero terms dropped, and the rest
    canonically ordered."""

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

    def is_zero(self):
        return not self.terms

    def evaluate(self, k):
        if len(k) != self.vars:
            raise ShapeMismatch(f"expected {self.vars} coordinates, got {len(k)}")
        acc = self.field.zero()
        for val, base in self.terms:
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
        """Symbolic substitution h = k*A + b; result has lattice.s variables:
        each base becomes (base^{A_i})_i and each constant gains base^b."""
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
            new_terms.append((coeff * mult, tuple(new_base)))
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
    """Complete decision of identical vanishing on the progression: the
    restriction merges terms with equal bases, and a sum of constants times
    distinct base powers is zero only when every constant is."""
    return recurrence.restrict_progression(prog).is_zero()


def mr_reduce(recurrence: MultiRecurrence, prog: MultiProgression) -> MultiRecurrence:
    """Fold terms whose bases are proportional along the progression.

    A term whose base is rho times an earlier kept base, with
    rho_i^{d_i} = 1 for every step d_i, joins that term's coefficient
    scaled by rho at the offsets. The result equals the input on the
    progression.
    """
    if prog.s != recurrence.vars:
        raise ShapeMismatch("progression dimension mismatch")
    one = recurrence.field.one()
    reps = []  # (base, accumulated coeff)
    for coeff, base in recurrence.terms:
        for idx, (rep_base, rep_c) in enumerate(reps):
            ratio = [bj / bi for bj, bi in zip(base, rep_base)]
            if all(rho**d == one for rho, d in zip(ratio, prog.steps)):
                at_offset = one
                for rho, c in zip(ratio, prog.offsets):
                    at_offset = at_offset * rho**c
                reps[idx] = (rep_base, rep_c + coeff * at_offset)
                break
        else:
            reps.append((base, coeff))
    return MultiRecurrence(recurrence.field, recurrence.vars, [(c, b) for b, c in reps])


@dataclass
class ZeroStructure:
    sporadic: list  # zeros not covered by a certified progression
    progressions: list  # (offset, step) pairs, each decided symbolically
    search_bound: int


def sml_zero_structure(
    recurrence: MultiRecurrence, search_bound: int, period_cap: int = 360
):
    """Desk-scale zero structure for s = 1 recurrences.

    Certified progressions are proven symbolically; sporadic zeros are
    complete only within [0, search_bound].
    """
    if recurrence.vars != 1:
        raise ShapeMismatch("zero structure analysis requires s = 1")
    consts = [c for c, _ in recurrence.terms]
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
