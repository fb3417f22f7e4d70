"""Number field arithmetic, invariants, torsion, factorization, splitting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from normrec import numberfield
from normrec.errors import (
    DivisionByZero,
    InvariantViolated,
    NonMonic,
    ReducibleMinPoly,
)
from normrec.numberfield import (
    char_poly,
    factor_over_field,
    field_create,
    is_algebraic_integer,
    is_root_of_unity,
    min_poly_of,
    norm,
    splitting_container,
    torsion_units,
    trace,
)


@pytest.fixture(scope="module")
def K2():
    """Q(sqrt(2)), minimal polynomial x^2 - 2."""
    return field_create([-2, 0, 1])


@pytest.fixture(scope="module")
def K3():
    """Q(theta) with theta^3 = theta + 1."""
    return field_create([-1, -1, 0, 1])


def test_create_rejects_non_monic():
    with pytest.raises(NonMonic):
        field_create([1, 0, 2])


def test_create_rejects_reducible():
    with pytest.raises(ReducibleMinPoly):
        field_create([-1, 0, 1])  # x^2 - 1 = (x-1)(x+1)


def test_gen_squares_to_two(K2):
    r = K2.gen()
    assert r * r == 2


def test_arithmetic(K2):
    a = K2.element([Fraction(1), Fraction(1)])  # 1 + sqrt(2)
    b = K2.element([Fraction(1), Fraction(-1)])  # 1 - sqrt(2)
    assert a * b == -1
    assert a + b == 2
    assert (a - b) == K2.element([Fraction(0), Fraction(2)])


def test_inverse(K2):
    a = K2.element([Fraction(1), Fraction(1)])
    assert a * a.inverse() == 1
    # (1+sqrt 2)^(-1) = sqrt(2) - 1
    assert a.inverse() == K2.element([Fraction(-1), Fraction(1)])


def test_division_by_zero(K2):
    with pytest.raises(DivisionByZero):
        K2.one() / K2.zero()


def test_negative_power(K2):
    a = K2.element([Fraction(3), Fraction(2)])
    assert a ** (-1) * a == 1
    assert a ** (-2) == (a * a).inverse()


def test_norm_and_trace(K2):
    a = K2.element([Fraction(1), Fraction(1)])
    assert norm(a) == -1
    assert trace(a) == 2
    assert norm(K2.gen()) == -2
    assert norm(K2.from_rational(Fraction(3))) == 9


def test_norm_multiplicative(K3):
    a = K3.element([Fraction(1), Fraction(2), Fraction(0)])
    b = K3.element([Fraction(0), Fraction(1), Fraction(1)])
    assert norm(a * b) == norm(a) * norm(b)


def test_char_poly_of_generator(K3):
    assert char_poly(K3.gen()) == (Fraction(-1), Fraction(-1), Fraction(0), Fraction(1))


def test_min_poly_of_rational(K2):
    # min poly of 3 is x - 3, even though char poly is (x-3)^2
    assert min_poly_of(K2.from_rational(3)) == (Fraction(-3), Fraction(1))


def test_min_poly_of_sqrt2_shift(K2):
    a = K2.one() + K2.gen()  # 1 + sqrt(2), min poly x^2 - 2x - 1
    assert min_poly_of(a) == (Fraction(-1), Fraction(-2), Fraction(1))


def test_is_algebraic_integer(K2):
    assert is_algebraic_integer(K2.gen())
    assert is_algebraic_integer(K2.element([Fraction(3), Fraction(2)]))
    assert not is_algebraic_integer(K2.from_rational(Fraction(1, 2)))
    assert not is_algebraic_integer(K2.element([Fraction(1, 2), Fraction(1, 2)]))


def test_integral_basis_quadratic():
    # d = 5 = 1 mod 4: basis is (1, (1 + sqrt 5)/2)
    K5 = field_create([-5, 0, 1])
    basis = K5.integral_basis()
    assert basis[0] == 1
    assert basis[1] == K5.element([Fraction(1, 2), Fraction(1, 2)])
    assert all(is_algebraic_integer(w) for w in basis)


def test_integral_basis_power_basis(K2):
    assert K2.integral_basis() == [K2.one(), K2.gen()]


def test_is_root_of_unity(K2):
    assert is_root_of_unity(K2.one()) == 1
    assert is_root_of_unity(-K2.one()) == 2
    assert is_root_of_unity(K2.gen()) is None
    assert is_root_of_unity(K2.from_rational(3)) is None
    with pytest.raises(DivisionByZero):
        is_root_of_unity(K2.zero())


def test_is_root_of_unity_gaussian():
    Ki = field_create([1, 0, 1])  # Q(i)
    assert is_root_of_unity(Ki.gen()) == 4


def test_torsion_units_real(K2):
    order, elts = torsion_units(K2)
    assert order == 2
    assert set(elts) == {K2.one(), -K2.one()}


def test_torsion_units_gaussian():
    Ki = field_create([1, 0, 1])
    order, elts = torsion_units(Ki)
    assert order == 4
    assert len(elts) == 4
    g = elts[1]
    assert g ** 4 == 1 and g ** 2 != 1


@pytest.mark.parametrize(
    "min_poly, order",
    [([1, 0, 1], 4), ([1, 1, 1], 6), ([1, 1, 1, 1, 1], 10)],
    ids=["Q(i)", "Q(zeta_3)", "Q(zeta_5)"],
)
def test_torsion_orders_of_cyclotomic_fields(min_poly, order):
    assert torsion_units(field_create(min_poly))[0] == order


def test_torsion_units_of_a_cubic_field_factor_nothing(monkeypatch):
    # euler_phi(n) divides 3 only for n = 1, 2: no cyclotomic factorization
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return factor_over_field(*args, **kwargs)

    monkeypatch.setattr(numberfield, "factor_over_field", counting)
    assert torsion_units(field_create([-2, 0, 0, 1]))[0] == 2
    assert calls == []


def test_factor_over_field_splits_min_poly(K2):
    # x^2 - 2 factors as (x - sqrt2)(x + sqrt2) over K2
    p = [K2.from_rational(-2), K2.zero(), K2.one()]
    factors = factor_over_field(p, K2)
    assert len(factors) == 2
    assert all(len(f) == 2 for f in factors)
    roots = sorted(((-f[0] / f[1]).coeffs for f in factors))
    assert roots == [(Fraction(0), Fraction(-1)), (Fraction(0), Fraction(1))]


def test_factor_over_field_irreducible_stays(K2):
    # x^2 - 3 stays irreducible over Q(sqrt 2)
    p = [K2.from_rational(-3), K2.zero(), K2.one()]
    factors = factor_over_field(p, K2)
    assert len(factors) == 1


def test_factor_over_field_lost_factor_raises(K2, monkeypatch):
    # (x - 1)(x - 2)(x^2 - 2): the shifted norm has four rational factors
    p = [K2.from_rational(c) for c in (-4, 6, 0, -3, 1)]
    factor = numberfield._rational_factors
    monkeypatch.setattr(numberfield, "_rational_factors", lambda c: factor(c)[1:])
    with pytest.raises(InvariantViolated):
        factor_over_field(p, K2)


def test_splitting_container_quadratic(K2):
    sc = splitting_container(K2)
    assert sc.ambient == K2
    assert len(sc.roots) == 2
    a = K2.element([Fraction(1), Fraction(1)])
    imgs = sc.conjugates(a)
    assert imgs[0] == a  # identity embedding first
    assert imgs[1] == K2.element([Fraction(1), Fraction(-1)])


def test_splitting_container_cubic(K3):
    sc = splitting_container(K3)
    assert sc.ambient.degree == 6
    a = K3.gen() + 1
    prod = sc.ambient.one()
    for img in sc.conjugates(a):
        prod = prod * img
    assert prod.is_rational()
    assert prod.as_rational() == norm(a)


def test_preimage_roundtrip(K3):
    sc = splitting_container(K3)
    a = K3.element([Fraction(2), Fraction(-1), Fraction(3)])
    for i in range(3):
        assert sc.preimage(sc.embed(a, i), i) == a


def test_preimage_rejects_outside_image(K2):
    sc = splitting_container(K2)
    # sqrt(2) is not the identity image of any rational
    K1 = field_create([0, 1])
    with pytest.raises(ValueError):
        sc.embed(K1.one(), 0)


coeff_st = st.integers(min_value=-8, max_value=8).map(Fraction)


@settings(max_examples=40, deadline=None)
@given(st.tuples(coeff_st, coeff_st), st.tuples(coeff_st, coeff_st))
def test_norm_multiplicative_random(ca, cb):
    K = field_create([-2, 0, 1])
    a, b = K.element(list(ca)), K.element(list(cb))
    assert norm(a * b) == norm(a) * norm(b)
    assert trace(a + b) == trace(a) + trace(b)


@settings(max_examples=30, deadline=None)
@given(st.tuples(coeff_st, coeff_st))
def test_conjugate_product_is_norm_random(coeffs):
    K = field_create([-2, 0, 1])
    a = K.element(list(coeffs))
    sc = splitting_container(K)
    prod = sc.ambient.one()
    for img in sc.conjugates(a):
        prod = prod * img
    assert prod.is_rational() and prod.as_rational() == norm(a)
