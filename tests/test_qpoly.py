"""Univariate polynomial helpers over Q and over a number field."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from normrec import qpoly
from normrec.numberfield import field_create


def F(*vals):
    return tuple(Fraction(v) for v in vals)


def test_trim_strips_leading_zeros():
    assert qpoly.trim(F(1, 2, 0, 0)) == F(1, 2)
    assert qpoly.trim(F(0, 0)) == ()


def test_degree():
    assert qpoly.degree(F(1, 0, 1)) == 2
    assert qpoly.degree(()) == -1


def test_mul_and_divmod_roundtrip():
    a = F(1, 2, 3)
    b = F(-1, 1)
    prod = qpoly.mul(a, b)
    q, r = qpoly.divmod_poly(prod, b)
    assert q == a and r == ()


def test_divmod_with_remainder():
    # x^2 + 1 = (x + 1)(x - 1) + 2
    q, r = qpoly.divmod_poly(F(1, 0, 1), F(1, 1))
    assert q == F(-1, 1)
    assert r == F(2)


def test_gcd_of_common_factor():
    # gcd((x-1)(x-2), (x-1)(x-3)) = x - 1 up to normalization
    a = qpoly.mul(F(-1, 1), F(-2, 1))
    b = qpoly.mul(F(-1, 1), F(-3, 1))
    g = qpoly.monic(qpoly.gcd(a, b))
    assert g == F(-1, 1)


def test_compose():
    # p(x) = x^2, q(x) = x + 1 -> p(q) = x^2 + 2x + 1
    assert qpoly.compose(F(0, 0, 1), F(1, 1)) == F(1, 2, 1)


def test_is_squarefree():
    assert qpoly.is_squarefree(F(-1, 0, 1))
    assert not qpoly.is_squarefree(qpoly.mul(F(-1, 1), F(-1, 1)))


def test_int_roots_quadratic():
    # x^2 - 5x + 6 = (x-2)(x-3)
    assert sorted(qpoly.int_roots([6, -5, 1], bound=10)) == [2, 3]


def test_int_roots_respects_bound():
    assert qpoly.int_roots([6, -5, 1], bound=2) == [2]


def test_int_roots_no_roots():
    assert qpoly.int_roots([1, 0, 1], bound=100) == []


def test_int_roots_cubic():
    # (x-1)(x+2)(x-4) = x^3 - 3x^2 - 6x + 8
    assert sorted(qpoly.int_roots([8, -6, -3, 1], bound=10)) == [-2, 1, 4]


small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=1, max_value=5),
)
small_polys = st.lists(small_fractions, min_size=0, max_size=5).map(
    lambda cs: qpoly.trim(tuple(cs))
)


@given(small_polys, small_polys)
def test_mul_commutes(a, b):
    assert qpoly.mul(a, b) == qpoly.mul(b, a)


@given(small_polys, small_polys)
def test_division_identity(a, b):
    if qpoly.degree(b) < 0:
        return
    q, r = qpoly.divmod_poly(a, b)
    assert qpoly.add(qpoly.mul(q, b), r) == a
    assert qpoly.degree(r) < qpoly.degree(b)


@given(small_polys)
def test_deriv_degree_drop(a):
    if qpoly.degree(a) >= 1:
        assert qpoly.degree(qpoly.deriv(a)) <= qpoly.degree(a) - 1


# the same routines over number field coefficients, in Q(2^(1/3))

K3 = field_create([-2, 0, 0, 1])
field_elts = st.lists(st.integers(-4, 4), min_size=3, max_size=3).map(K3.element)
field_polys = st.lists(field_elts, min_size=0, max_size=4).map(qpoly.trim)


@settings(max_examples=40, deadline=None)
@given(field_polys, field_polys)
def test_field_division_identity(a, b):
    if not b:
        return
    q, r = qpoly.divmod_poly(a, b)
    assert qpoly.add(qpoly.mul(q, b), r) == a
    assert qpoly.degree(r) < qpoly.degree(b)


@settings(max_examples=40, deadline=None)
@given(field_polys, field_polys, field_polys)
def test_field_gcd_is_monic_common_divisor(c, u, v):
    a, b = qpoly.mul(c, u), qpoly.mul(c, v)
    if not a and not b:
        return
    g = qpoly.gcd(a, b)
    assert g[-1] == 1
    assert qpoly.mod(a, g) == () and qpoly.mod(b, g) == ()
    if a and b:
        assert qpoly.degree(g) >= qpoly.degree(c)


@settings(max_examples=40, deadline=None)
@given(field_polys, field_elts)
def test_field_compose_shift_roundtrip(p, c):
    one = K3.one()
    shifted = qpoly.compose(p, (c, one))
    assert qpoly.compose(shifted, (-c, one)) == p
