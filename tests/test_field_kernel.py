"""Differential tests of the integer-numerator field kernel.

Every operation of NumberFieldElement is checked against plain qpoly
arithmetic on the Fraction coordinates: products against
qpoly.mod(qpoly.mul(a, b), f), inverses against qpoly.xgcd_mod. The fields
have degree 1 to 8, including the ambient fields of degree 6 and 8 that
split x^3 - 2 and x^4 - 2, and the operands have numerators of hundreds of
bits over mixed denominators.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from hypothesis import given, settings, strategies as st

from normrec import qpoly
from normrec.numberfield import field_create, splitting_container


@lru_cache(maxsize=None)
def _field(min_poly):
    return field_create(list(min_poly))


@lru_cache(maxsize=None)
def _ambient(min_poly):
    return splitting_container(field_create(list(min_poly))).ambient


def _eisenstein(draw, d):
    """A random monic integer polynomial of degree d, irreducible by
    Eisenstein's criterion at 2."""
    low = [2 * draw(st.integers(-20, 20)) for _ in range(d - 1)]
    c0 = 2 * (2 * draw(st.integers(-20, 20)) + 1)
    return (c0, *low, 1)


@st.composite
def fields(draw):
    kind = draw(st.sampled_from(["eisenstein", "ambient6", "ambient8"]))
    if kind == "ambient6":
        return _ambient((-2, 0, 0, 1))
    if kind == "ambient8":
        return _ambient((-2, 0, 0, 0, 1))
    return _field(_eisenstein(draw, draw(st.integers(1, 8))))


numerators = st.one_of(st.integers(-9, 9), st.integers(-(2**400), 2**400))
denominators = st.one_of(st.integers(1, 12), st.integers(1, 2**200))


def elements(K, nonzero=False):
    coords = st.lists(
        st.builds(Fraction, numerators, denominators),
        min_size=K.degree,
        max_size=K.degree,
    )
    if nonzero:
        coords = coords.filter(any)
    return coords.map(K.element)


rationals = st.one_of(
    st.integers(-(2**100), 2**100),
    st.builds(Fraction, numerators, st.integers(1, 2**100)),
)


def _ref(e):
    return qpoly.trim(e.coeffs)


def _fq(K):
    return qpoly.from_ints(K.min_poly)


def _check(e, ref):
    """e is canonical and its coordinates equal the qpoly reference."""
    K = e.field
    assert e.den >= 1
    assert gcd(e.den, *e.num) == 1
    assert len(e.num) == K.degree
    assert e.coeffs == tuple(ref) + (Fraction(0),) * (K.degree - len(ref))
    again = K.element(e.coeffs)
    assert again == e
    assert hash(again) == hash(e)


def _ref_pow(a, n, f):
    base = qpoly.xgcd_mod(_ref(a), f) if n < 0 else _ref(a)
    out = qpoly.ONE
    for _ in range(abs(n)):
        out = qpoly.mod(qpoly.mul(out, base), f)
    return out


KERNEL = settings(max_examples=60, deadline=None)


@KERNEL
@given(st.data())
def test_ring_operations_match_qpoly(data):
    K = data.draw(fields())
    a, b = data.draw(elements(K)), data.draw(elements(K))
    f = _fq(K)
    _check(a * b, qpoly.mod(qpoly.mul(_ref(a), _ref(b)), f))
    _check(a + b, qpoly.add(_ref(a), _ref(b)))
    _check(a - b, qpoly.sub(_ref(a), _ref(b)))
    _check(-a, qpoly.neg(_ref(a)))
    assert a * b == b * a and hash(a * b) == hash(b * a)
    assert (a + b) - b == a


@KERNEL
@given(st.data())
def test_rational_scalars_match_qpoly(data):
    K = data.draw(fields())
    a = data.draw(elements(K))
    q = data.draw(rationals)
    _check(a * q, qpoly.scale(_ref(a), q))
    _check(q * a, qpoly.scale(_ref(a), q))
    _check(a + q, qpoly.add(_ref(a), qpoly.trim((Fraction(q),))))
    _check(a - q, qpoly.sub(_ref(a), qpoly.trim((Fraction(q),))))
    if q:
        _check(a / q, qpoly.scale(_ref(a), 1 / Fraction(q)))
    assert a * q == a * K.from_rational(q)
    assert K.from_rational(q) == q
    _check(K.from_rational(q), qpoly.trim((Fraction(q),)))


@KERNEL
@given(st.data())
def test_inverse_and_division_match_qpoly(data):
    K = data.draw(fields())
    a = data.draw(elements(K, nonzero=True))
    b = data.draw(elements(K))
    f = _fq(K)
    inv = qpoly.xgcd_mod(_ref(a), f)
    _check(a.inverse(), inv)
    _check(b / a, qpoly.mod(qpoly.mul(_ref(b), inv), f))
    _check(Fraction(-3, 7) / a, qpoly.scale(inv, Fraction(-3, 7)))
    assert a * a.inverse() == K.one()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_powers_match_qpoly(data):
    K = data.draw(fields())
    a = data.draw(elements(K, nonzero=True))
    n = data.draw(st.integers(-4, 5))
    _check(a**n, _ref_pow(a, n, _fq(K)))
