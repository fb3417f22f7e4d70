"""Norm form problems: brute force, representatives, component recurrences,
embeddings, lifts."""

from fractions import Fraction
from itertools import combinations, product
from math import prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from normrec import linalg
from normrec.errors import DegreeCapExceeded, NormrecError
from normrec.normform import (
    NormFormProblem,
    build_component_recurrences,
    embedding_matrix,
    lift,
    norm_representatives,
    solve_bruteforce,
)
from normrec.numberfield import field_create, is_algebraic_integer, norm
from normrec.units import UnitSystem, auto_unit_system


@pytest.fixture(scope="module")
def K2():
    return field_create([-2, 0, 1])


@pytest.fixture(scope="module")
def pell(K2):
    return NormFormProblem(
        K2, [K2.one(), K2.gen()], 1, unit_system=auto_unit_system(K2)
    )


def test_norm_polynomial_pell(pell):
    assert pell.norm_polynomial() == {(2, 0): 1, (0, 2): -2}


def test_norm_polynomial_cube_root_of_two():
    # N(x + y t + z t^2) for t^3 = 2
    K = field_create([-2, 0, 0, 1])
    t = K.gen()
    problem = NormFormProblem(K, [K.one(), t, t * t], 1)
    assert problem.norm_polynomial() == {
        (3, 0, 0): 1, (0, 3, 0): 2, (0, 0, 3): 4, (1, 1, 1): -6,
    }


@st.composite
def integral_modules(draw):
    """A field of degree 1 to 4 with n <= d random integral generators."""
    d = draw(st.integers(1, 4))
    coeffs = [draw(st.integers(-6, 6)) for _ in range(d)] + [1]
    try:
        K = field_create(coeffs)
    except NormrecError:  # reducible or not squarefree
        assume(False)
    powers = [K.one()]
    for _ in range(d - 1):
        powers.append(powers[-1] * K.gen())
    n = draw(st.integers(1, d))
    alphas = []
    for _ in range(n):
        alpha = K.zero()
        for p in powers:
            alpha = alpha + p * draw(st.integers(-3, 3))
        alphas.append(alpha)
    assume(linalg.rank([list(a.coeffs) for a in alphas], Fraction(0)) == n)
    points = draw(st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=1, max_size=6
    ))
    return NormFormProblem(K, alphas, 1), points


@settings(max_examples=60, deadline=None)
@given(integral_modules())
def test_norm_polynomial_matches_norm(case):
    """The norm form at integer points of both signs is N(sum x_j alpha_j)."""
    problem, points = case
    form = problem.norm_polynomial()
    assert all(sum(e) == problem.field.degree for e in form)
    for x in points:
        value = sum(c * prod(xj**e for xj, e in zip(x, exps)) for exps, c in form.items())
        element = problem.field.zero()
        for a, xj in zip(problem.alphas, x):
            element = element + a * xj
        assert value == norm(element)


def test_norm_of_vector(pell):
    assert pell.norm_of_vector((3, 2)) == 1
    assert pell.norm_of_vector((3, 1)) == 7


def test_rejects_zero_m(K2):
    with pytest.raises(ValueError):
        NormFormProblem(K2, [K2.one()], 0)


def test_rejects_dependent_generators(K2):
    with pytest.raises(ValueError):
        NormFormProblem(K2, [K2.one(), K2.from_rational(2)], 1)


def test_rejects_non_integer_generator(K2):
    with pytest.raises(ValueError):
        NormFormProblem(K2, [K2.from_rational(Fraction(1, 2))], 1)


def test_bruteforce_pell_small(pell):
    sols = solve_bruteforce(pell, 100)
    assert len(sols) == 14
    positives = sorted(x for x, y in sols if x > 0 and y >= 0)
    assert positives == [1, 3, 17, 99]
    for x in sols:
        assert pell.norm_of_vector(x) == 1


def test_bruteforce_empty(K2):
    p = NormFormProblem(K2, [K2.one(), K2.gen()], 5)
    assert solve_bruteforce(p, 50) == []


def test_bruteforce_m7(K2):
    p = NormFormProblem(K2, [K2.one(), K2.gen()], 7)
    sols = solve_bruteforce(p, 20)
    assert (3, 1) in sols and (3, -1) in sols
    for x in sols:
        assert p.norm_of_vector(x) == 7


def test_representatives_m1(pell):
    reps = norm_representatives(pell, 5)
    assert len(reps.representatives) == 1
    assert reps.representatives[0] == 1


def test_representatives_m7(K2):
    p = NormFormProblem(K2, [K2.one(), K2.gen()], 7)
    reps = norm_representatives(p, 5)
    assert len(reps.representatives) == 2
    coeff_sets = sorted(r.coeffs for r in reps.representatives)
    assert coeff_sets == [(Fraction(3), Fraction(-1)), (Fraction(3), Fraction(1))]


def test_representatives_negative_m(K2):
    p = NormFormProblem(K2, [K2.one(), K2.gen()], -1)
    reps = norm_representatives(p, 5)
    assert len(reps.representatives) == 1
    assert reps.representatives[0] == K2.element([Fraction(1), Fraction(1)])


def reference_representatives(problem, coeff_bound):
    """The former enumeration: a field element and its norm for every
    nonzero integral-basis vector of the box, in product order, then the
    canonical key sort and an associate test by both quotients."""
    basis = problem.field.integral_basis()
    found = []
    for coeffs in product(range(-coeff_bound, coeff_bound + 1), repeat=len(basis)):
        if all(c == 0 for c in coeffs):
            continue
        mu = problem.field.zero()
        for c, w in zip(coeffs, basis):
            if c:
                mu = mu + w * Fraction(c)
        if norm(mu) == problem.m:
            found.append((coeffs, mu))
    found.sort(
        key=lambda cm: (
            sum(c * c for c in cm[0]),
            tuple(abs(c) for c in cm[0]),
            tuple(0 if c >= 0 else 1 for c in cm[0]),
        )
    )
    reps = []
    for _, mu in found:
        if not any(
            is_algebraic_integer(mu / r) and is_algebraic_integer(r / mu) for r in reps
        ):
            reps.append(mu)
    return reps


REPRESENTATIVE_PROBES = [
    ([-d, 0, 1], [s * k for k in range(1, 13) for s in (1, -1)], [5])
    for d in (2, 3, 5, 6, 7, 10, 11, 13, 17, 19, 21, 43)
] + [
    (poly, [1, -1, 2, -2, 3, 5, 7], [1, 2, 3])
    for poly in ([-2, 0, 0, 1], [-3, 0, 0, 1], [1, 1, 0, 1], [-1, -1, 0, 1], [-2, 0, 0, 0, 1])
]


@pytest.mark.parametrize(
    "min_poly, targets, bounds",
    REPRESENTATIVE_PROBES,
    ids=[str(poly) for poly, _, _ in REPRESENTATIVE_PROBES],
)
def test_representatives_match_reference(min_poly, targets, bounds):
    """The same elements in the same order as the former enumeration, over
    real quadratic fields (half-integral bases for d = 5, 13, 17, 21),
    cubic fields of unit rank 1 and the quartic Q(2^(1/4)) of unit rank 2."""
    K = field_create(min_poly)
    for m in targets:
        problem = NormFormProblem(K, [K.one()], m)
        for bound in bounds:
            found = norm_representatives(problem, bound).representatives
            assert found == reference_representatives(problem, bound), (m, bound)


def test_embedding_matrix_pell(pell):
    emb = embedding_matrix(pell)
    assert emb.sigma_indices == (0, 1)
    sc = pell.splitting()
    r = sc.ambient.gen()
    assert emb.matrix[0][1] == r
    assert emb.matrix[1][1] == -r
    # M * M^-1 = I
    n = 2
    prod = [
        [
            sum(emb.matrix[i][k] * emb.inverse[k][j] for k in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    amb = sc.ambient
    assert prod == [[amb.one(), amb.zero()], [amb.zero(), amb.one()]]


def _sqrt2_in_biquadratic():
    # K = Q(sqrt 2 + sqrt 3); sqrt 2 = (theta^3 - 9 theta) / 2
    K = field_create([1, 0, -10, 0, 1])
    th = K.gen()
    return K, [K.one(), (th**3 - th * 9) * Fraction(1, 2)]


def _theta_squared_in_quartic():
    # K = Q(2^(1/4)); theta^2 = sqrt 2 takes each value at two embeddings
    K = field_create([-2, 0, 0, 0, 1])
    return K, [K.one(), K.gen() ** 2]


@pytest.mark.parametrize("make", [_theta_squared_in_quartic, _sqrt2_in_biquadratic])
def test_embedding_matrix_skips_singular_selections(make):
    K, alphas = make()
    p = NormFormProblem(K, alphas, 1)
    sc = p.splitting()
    amb = sc.ambient
    conj = [[sc.embed(a, i) for a in alphas] for i in range(K.degree)]
    nonsingular = [
        s for s in combinations(range(K.degree), 2)
        if linalg.det([conj[i] for i in s], amb.zero()) != amb.zero()
    ]
    assert len(nonsingular) < 6  # some selections are singular
    emb = embedding_matrix(p)
    assert emb.sigma_indices == nonsingular[0]
    prod = [
        [sum((emb.matrix[i][k] * emb.inverse[k][j] for k in range(2)), amb.zero()) for j in range(2)]
        for i in range(2)
    ]
    assert prod == [[amb.one(), amb.zero()], [amb.zero(), amb.one()]]


def test_component_recurrence_values(pell):
    crs = build_component_recurrences(pell, 1)
    assert len(crs) == 1
    cr = crs[0]
    # norm(1 + sqrt 2) = -1, so only even h give solutions of x^2 - 2y^2 = 1
    assert cr.parity_mask == (1,)
    assert cr.parity == 0
    vals = [cr.recurrence.evaluate((h,)).as_rational() for h in (0, 2, 4, 6)]
    assert vals == [1, 3, 17, 99]
    assert cr.h_valid((2,)) and not cr.h_valid((3,))


def test_component_recurrence_second_component(pell):
    crs = build_component_recurrences(pell, 2)
    cr = crs[0]
    vals = [cr.recurrence.evaluate((h,)).as_rational() for h in (0, 2, 4, 6)]
    assert vals == [0, 2, 12, 70]


def test_component_recurrence_negative_m(K2):
    # m = -1: the representative 1 + sqrt(2) already has norm -1, so the
    # parity stays 0 and the values are the x-coordinates of x^2 - 2y^2 = -1
    p = NormFormProblem(K2, [K2.one(), K2.gen()], -1, unit_system=auto_unit_system(K2))
    crs = build_component_recurrences(p, 1)
    cr = crs[0]
    assert cr.mu == K2.element([Fraction(1), Fraction(1)])
    assert cr.parity == 0
    vals = [cr.recurrence.evaluate((h,)).as_rational() for h in (0, 2, 4)]
    assert vals == [1, 7, 41]


def test_component_out_of_range(pell):
    with pytest.raises(ValueError):
        build_component_recurrences(pell, 3)


def test_unit_for_matches_recurrence(pell):
    cr = build_component_recurrences(pell, 1)[0]
    for h in (0, 2, 4):
        element = cr.mu * cr.unit_for((h,))
        assert norm(element) == 1
        assert element.coeffs[0] == cr.recurrence.evaluate((h,)).as_rational()


def test_lift_to_fourth_root(pell, K2):
    # L = Q(2^(1/4)) via adjoining a square root of sqrt(2)
    res = lift(pell, [("radical", K2.gen(), 2)])
    assert res.relative_degree == 2
    assert res.problem.field.degree == 4
    assert res.problem.m == 1
    gamma = K2.element([Fraction(3), Fraction(5)])
    assert norm(res.embed(gamma)) == norm(gamma) ** 2


def test_lift_trivial_when_root_exists(pell, K2):
    # sqrt of 2 is already sqrt(2)^2... adjoining a root of x - 3 changes nothing
    res = lift(pell, [("poly", [-3, 1])])
    assert res.relative_degree == 1
    assert res.problem.field == K2


def test_lift_degree_cap(K2):
    p = NormFormProblem(K2, [K2.one(), K2.gen()], 1, max_splitting_degree=3)
    with pytest.raises(DegreeCapExceeded):
        lift(p, [("radical", K2.gen(), 2)])


def test_lifted_alphas_are_integers(pell, K2):
    res = lift(pell, [("radical", K2.gen(), 2)])
    for a in res.problem.alphas:
        assert is_algebraic_integer(a)
