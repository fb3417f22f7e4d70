"""Generalized unit equations a_1 y_1 + ... + a_n y_n = 1 over finitely
generated subgroups of (F*)^n: exhaustive box solving, vanishing-subsum
analysis, the degeneracy cascade, and the exact ESS bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations, product

from .errors import DimensionCapExceeded

SUBSUM_DIMENSION_CAP = 20


def ess_bound(n: int, r: int) -> int:
    """E with exp(E) bounding the non-degenerate solution count: (6n)^(3n)(r+1).

    The bound itself is exp(E); only E is ever materialized.
    """
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    return (6 * n) ** (3 * n) * (r + 1)


@dataclass
class GroupSpec:
    """Subgroup of (F*)^n given by explicit generator vectors."""

    n: int
    generators: list  # vectors of n nonzero field elements

    def __post_init__(self):
        for g in self.generators:
            if len(g) != self.n:
                raise ValueError("generator has wrong dimension")
            for entry in g:
                if entry.is_zero():
                    raise ValueError("generator entries must be nonzero")


@dataclass
class UnitEqSolution:
    y: tuple
    exponents: tuple  # one integer per generator
    degenerate: bool
    vanishing_subsets: list  # minimal index subsets (0-based) summing to zero


def vanishing_subsums(a, y):
    """Minimal nonempty index subsets I with sum_{i in I} a_i y_i = 0."""
    n = len(a)
    if n > SUBSUM_DIMENSION_CAP:
        raise DimensionCapExceeded(f"subsum enumeration capped at n={SUBSUM_DIMENSION_CAP}")
    prods = [ai * yi for ai, yi in zip(a, y)]
    zero = prods[0] - prods[0]
    minimal = []
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            if any(set(m) <= set(subset) for m in minimal):
                continue
            acc = zero
            for i in subset:
                acc = acc + prods[i]
            if acc == zero:
                minimal.append(subset)
    return minimal


def solve_unit_equation(a, grp: GroupSpec, expo_bound: int):
    """All solutions y in the generator box with exponents in
    [-expo_bound, expo_bound]; each annotated with its minimal vanishing
    subsums. Deterministic order by exponent vector."""
    n = grp.n
    if any(ai.is_zero() for ai in a):
        raise ValueError("all coefficients a_i must be nonzero")
    one = a[0].field.one()
    sols = []
    t = len(grp.generators)
    for expo in product(range(-expo_bound, expo_bound + 1), repeat=t):
        y = [one for _ in range(n)]
        for g, e in zip(grp.generators, expo):
            if e:
                y = [yi * gi**e for yi, gi in zip(y, g)]
        acc = a[0] * y[0]
        for ai, yi in zip(a[1:], y[1:]):
            acc = acc + ai * yi
        if acc == one:
            subsets = vanishing_subsums(a, y)
            sols.append(
                UnitEqSolution(
                    y=tuple(y),
                    exponents=tuple(expo),
                    degenerate=bool(subsets),
                    vanishing_subsets=subsets,
                )
            )
    # distinct exponent vectors can give the same y; deduplicate on y
    seen = {}
    for s in sols:
        if s.y not in seen:
            seen[s.y] = s
    return list(seen.values())


@dataclass
class ConstancyRelation:
    """y_i / y_j constant across a vanishing subsum: y_i = c * y_j."""

    i: int
    j: int
    constant: object


@dataclass
class CascadeReport:
    nondegenerate: list = dc_field(default_factory=list)
    relations: list = dc_field(default_factory=list)
    max_depth: int = 0


def degenerate_cascade(a, solutions) -> CascadeReport:
    """Split degenerate solutions along their vanishing subsums and derive
    pairwise constancy relations; terminates since every split strictly
    reduces the summand count."""
    report = CascadeReport()
    for sol in solutions:
        if not sol.degenerate:
            report.nondegenerate.append(sol)
            continue
        depth = _cascade_subsets(a, sol.y, sol.vanishing_subsets, report, 1)
        report.max_depth = max(report.max_depth, depth)
    return report


def _cascade_subsets(a, y, subsets, report, depth):
    max_depth = depth
    for subset in subsets:
        if len(subset) == 1:
            continue  # a_i y_i = 0 is impossible with nonzero data
        if len(subset) == 2:
            # a_i y_i + a_j y_j = 0 pins the ratio y_i / y_j = -a_j / a_i
            i, j = subset
            report.relations.append(ConstancyRelation(i, j, y[i] / y[j]))
            continue
        # renormalize by the last term and recurse on the shorter equation
        last = subset[-1]
        rest = subset[:-1]
        a_sub = [-(a[i] / a[last]) for i in rest]
        y_sub = [y[i] / y[last] for i in rest]
        inner = vanishing_subsums(a_sub, y_sub)
        if inner:
            d = _cascade_subsets(a_sub, y_sub, inner, report, depth + 1)
            max_depth = max(max_depth, d)
        else:
            for i in rest:
                report.relations.append(ConstancyRelation(i, last, y[i] / y[last]))
    return max_depth
