"""Fundamental units, unit systems, exact decomposition."""

import random
from fractions import Fraction

import pytest

from normrec import units
from normrec.errors import InvariantViolated, NotAUnit, NotSquarefree
from normrec.numberfield import field_create, norm
from normrec.units import (
    UnitSystem,
    auto_unit_system,
    fundamental_unit_real_quadratic,
    is_unit,
    unit_decompose,
    verify_unit_system,
)


def test_fundamental_unit_d2():
    eps = fundamental_unit_real_quadratic(2)
    assert eps.coeffs == (Fraction(1), Fraction(1))  # 1 + sqrt(2)
    assert norm(eps) == -1


def test_fundamental_unit_check_survives_optimized_mode(monkeypatch):
    # a typed error, not a bare assert that python -O would strip
    monkeypatch.setattr(units, "is_algebraic_integer", lambda a: False)
    with pytest.raises(InvariantViolated):
        fundamental_unit_real_quadratic(2)


def test_fundamental_unit_d3():
    eps = fundamental_unit_real_quadratic(3)
    assert eps.coeffs == (Fraction(2), Fraction(1))  # 2 + sqrt(3)
    assert norm(eps) == 1


def test_fundamental_unit_d5():
    # (1 + sqrt 5)/2, the golden ratio
    eps = fundamental_unit_real_quadratic(5)
    assert eps.coeffs == (Fraction(1, 2), Fraction(1, 2))
    assert norm(eps) == -1


def test_fundamental_unit_rejects_nonsquarefree():
    with pytest.raises(NotSquarefree):
        fundamental_unit_real_quadratic(8)
    with pytest.raises(NotSquarefree):
        fundamental_unit_real_quadratic(1)


def test_is_unit():
    K = field_create([-2, 0, 1])
    assert is_unit(K.element([Fraction(1), Fraction(1)]))
    assert is_unit(K.element([Fraction(3), Fraction(2)]))
    assert not is_unit(K.gen())  # norm -2
    assert not is_unit(K.from_rational(Fraction(1, 2)))
    assert not is_unit(K.zero())


def test_unit_decompose_exact():
    K = field_create([-2, 0, 1])
    sys = auto_unit_system(K)
    eps = sys.fundamental_units[0]
    u = -(eps ** 3)
    dec = unit_decompose(u, sys)
    assert dec.exponents == (3,)
    assert dec.zeta == -1
    assert dec.reassemble(sys) == u


def test_unit_decompose_rejects_nonunit():
    K = field_create([-2, 0, 1])
    sys = auto_unit_system(K)
    with pytest.raises(NotAUnit):
        unit_decompose(K.gen(), sys)


def test_unit_decompose_roundtrip_random():
    K = field_create([-2, 0, 1])
    sys = auto_unit_system(K)
    eps = sys.fundamental_units[0]
    rng = random.Random(7)
    for _ in range(20):
        w = rng.randint(-10, 10)
        sign = rng.choice([1, -1])
        u = eps ** w * sign
        dec = unit_decompose(u, sys)
        assert dec.exponents == (w,)
        assert dec.zeta == sign
        assert dec.reassemble(sys) == u


def test_verify_unit_system_accepts_fundamental():
    K = field_create([-2, 0, 1])
    report = verify_unit_system(auto_unit_system(K))
    assert report.valid and not report.non_fundamental


def test_verify_unit_system_flags_power():
    K = field_create([-2, 0, 1])
    eps2 = K.element([Fraction(3), Fraction(2)])  # (1 + sqrt 2)^2
    report = verify_unit_system(UnitSystem(K, [eps2]))
    assert report.valid
    assert report.non_fundamental


def test_verify_unit_system_rejects_nonunit():
    K = field_create([-2, 0, 1])
    report = verify_unit_system(UnitSystem(K, [K.gen()]))
    assert not report.valid
    assert report.failures and report.failures[0][0] == "NotAUnit"

