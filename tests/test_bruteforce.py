"""Differential tests of the integer brute-force solver.

``solve_bruteforce`` is checked against a naive enumeration of the whole
box through ``norm_of_vector``: quadratic fields (the discriminant sieve),
n = 1 (the empty prefix) and the cubic and quartic norm forms of
Q(2^(1/3)) and Q(2^(1/4)) (one ``int_roots`` call per prefix). Boxes
wider than the sieve's 4032 residue classes are checked row by row against
the roots in x_2 of each row x_1 instead. The target norm is often the
norm of a point in the box, so that most cases have solutions. ``qpoly.int_roots`` is checked against direct evaluation on
random integer polynomials with known and unknown integer roots.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from normrec import qpoly
from normrec.normform import NormFormProblem, solve_bruteforce
from normrec.numberfield import field_create

SOLVER = settings(max_examples=60, deadline=None)


@lru_cache(maxsize=None)
def _field(min_poly):
    return field_create(list(min_poly))


def naive_solutions(problem, box):
    return [
        x
        for x in product(range(-box, box + 1), repeat=problem.n)
        if problem.norm_of_vector(x) == problem.m
    ]


def _targets(draw, norm_of, n, box):
    """Either the norm of a nonzero point in the box or a random nonzero m."""
    point = draw(st.lists(st.integers(-box, box), min_size=n, max_size=n))
    m = norm_of(point) if any(point) else 0
    if m == 0 or draw(st.booleans()):
        m = draw(st.integers(-60, 60).filter(bool))
    return m


# radicands r of Q(sqrt r): nonzero, not a square
radicands = st.integers(-40, 40).filter(lambda r: r < 0 or isqrt(r) ** 2 != r)


@st.composite
def quadratic_problems(draw):
    r = draw(radicands)
    K = _field((-r, 0, 1))
    th = K.gen()
    # the ring of integers has basis 1, (1 + sqrt r)/2 when r = 1 mod 4
    omega = (K.one() + th) * Fraction(1, 2) if r % 4 == 1 and draw(st.booleans()) else th
    if draw(st.booleans()):
        alphas = [K.one(), omega]
    else:
        u0, u1, v0, v1 = (draw(st.integers(-3, 3)) for _ in range(4))
        if u0 * v1 == u1 * v0:
            u0, u1, v0, v1 = 1, 0, 0, 1
        alphas = [K.one() * u0 + omega * u1, K.one() * v0 + omega * v1]
    box = draw(st.integers(0, 25))

    def norm_of(x):
        return NormFormProblem(K, alphas, 1).norm_of_vector(x)

    return NormFormProblem(K, alphas, _targets(draw, norm_of, 2, box)), box


@SOLVER
@given(quadratic_problems())
def test_quadratic_matches_naive_enumeration(case):
    problem, box = case
    assert solve_bruteforce(problem, box) == naive_solutions(problem, box)


@settings(max_examples=10, deadline=None)
@given(quadratic_problems(), st.integers(2100, 4500))
def test_quadratic_large_box_matches_roots_per_row(case, box):
    # the sieve walks residue classes of x_1 mod 4032 = 64 * 63; a box wider
    # than that puts several x_1 in each class
    problem, _ = case
    a = problem.norm_of_vector((0, 1))

    def row(x1):
        c0 = problem.norm_of_vector((x1, 0))
        c1 = problem.norm_of_vector((x1, 1)) - c0 - a
        return [(x1, x2) for x2 in qpoly.int_roots([c0 - problem.m, c1, a], bound=box)]

    expected = [x for x1 in range(-box, box + 1) for x in row(x1)]
    assert solve_bruteforce(problem, box) == expected


@st.composite
def one_generator_problems(draw):
    min_poly = draw(st.sampled_from([(-3, 1), (-2, 0, 1), (5, 0, 1), (-2, 0, 0, 1),
                                     (-2, 0, 0, 0, 1)]))
    K = _field(min_poly)
    coords = draw(st.lists(st.integers(-2, 2), min_size=K.degree, max_size=K.degree))
    if not any(coords):
        coords[0] = 1
    alpha = K.element([Fraction(c) for c in coords])
    box = draw(st.integers(0, 20))

    def norm_of(x):
        return NormFormProblem(K, [alpha], 1).norm_of_vector(x)

    return NormFormProblem(K, [alpha], _targets(draw, norm_of, 1, box)), box


@SOLVER
@given(one_generator_problems())
def test_one_generator_matches_naive_enumeration(case):
    problem, box = case
    assert solve_bruteforce(problem, box) == naive_solutions(problem, box)


@st.composite
def radical_problems(draw):
    """Subsets of the power basis of Q(2^(1/3)) and Q(2^(1/4)) in random order."""
    K = _field(draw(st.sampled_from([(-2, 0, 0, 1), (-2, 0, 0, 0, 1)])))
    powers = draw(st.permutations(range(K.degree)))
    n = draw(st.integers(2, 3))
    alphas = [K.gen() ** e for e in powers[:n]]
    box = draw(st.integers(0, 4 if n == 3 else 8))

    def norm_of(x):
        return NormFormProblem(K, alphas, 1).norm_of_vector(x)

    return NormFormProblem(K, alphas, _targets(draw, norm_of, n, box)), box


@settings(max_examples=30, deadline=None)
@given(radical_problems())
def test_cubic_and_quartic_match_naive_enumeration(case):
    problem, box = case
    assert solve_bruteforce(problem, box) == naive_solutions(problem, box)


def test_negative_box_is_rejected():
    K = _field((-2, 0, 1))
    with pytest.raises(ValueError):
        solve_bruteforce(NormFormProblem(K, [K.one(), K.gen()], 1), -1)


def _evaluate(p, x):
    return sum(c * x**i for i, c in enumerate(p))


@st.composite
def integer_polynomials(draw):
    """x^k * prod (x - r_i) * cofactor, scaled by a random leading factor, so
    that integer roots are common and the cofactor may add unknown ones."""
    p = [draw(st.integers(1, 4)) * draw(st.sampled_from([1, -1]))]
    for r in draw(st.lists(st.integers(-5, 5), max_size=3)):
        p = list(qpoly.mul(p, (-r, 1)))
    cofactor = draw(st.lists(st.integers(-4, 4), max_size=3).filter(lambda c: any(c)))
    p = list(qpoly.mul(p, qpoly.trim(cofactor)))
    return [0] * draw(st.integers(0, 2)) + p


@settings(max_examples=200, deadline=None)
@given(integer_polynomials(), st.one_of(st.none(), st.integers(0, 6)))
# roots at the Cauchy bound 1 + max|c_i| // |c_d|, which is 1 here
@example([-1, 0, -1, 2], None)  # (x - 1)(2x^2 + x + 1)
@example([1, 0, 1, 2], None)  # (x + 1)(2x^2 - x + 1)
@example([0, -1, 0, -1, 2], 1)
def test_int_roots_matches_direct_evaluation(p, bound):
    # every nonzero integer root divides the lowest nonzero coefficient
    low = next(c for c in p if c)
    limit = abs(low) if bound is None else bound
    expected = [x for x in range(-limit, limit + 1) if _evaluate(p, x) == 0]
    assert qpoly.int_roots(p, bound=bound) == expected
