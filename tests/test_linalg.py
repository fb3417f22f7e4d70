"""Exact linear algebra over Fraction and number field entries."""

from fractions import Fraction
from functools import lru_cache

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from normrec import linalg
from normrec.numberfield import (
    field_create,
    is_algebraic_integer,
    min_poly_of,
    splitting_container,
)

Z = Fraction(0)
U = Fraction(1)


def fmat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_det_2x2():
    assert linalg.det(fmat([[1, 2], [3, 4]]), Z) == -2


def test_det_singular():
    assert linalg.det(fmat([[1, 2], [2, 4]]), Z) == 0


def test_inverse_identity_product():
    m = fmat([[2, 1], [1, 1]])
    inv = linalg.inverse(m, Z, U)
    prod = [
        [sum(m[i][k] * inv[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert prod == fmat([[1, 0], [0, 1]])


def test_solve_unique():
    sol = linalg.solve(fmat([[1, 1], [1, -1]]), [Fraction(3), Fraction(1)], Z, U)
    assert sol == [Fraction(2), Fraction(1)]


def test_solve_inconsistent_returns_none():
    assert linalg.solve(fmat([[1, 1], [1, 1]]), [Fraction(1), Fraction(2)], Z, U) is None


def test_solve_underdetermined_zeroes_free_vars():
    sol = linalg.solve(fmat([[1, 1]]), [Fraction(5)], Z, U)
    assert sol is not None
    assert sol[0] + sol[1] == 5


def test_rank():
    assert linalg.rank(fmat([[1, 2], [2, 4], [0, 1]]), Z) == 2
    assert linalg.rank(fmat([[0, 0]]), Z) == 0


def test_nullspace():
    ns = linalg.nullspace_rational(fmat([[1, 2]]))
    assert len(ns) == 1
    v = ns[0]
    assert v[0] + 2 * v[1] == 0 and any(x != 0 for x in v)


def test_charpoly_companion():
    # companion of x^2 - x - 1 (Fibonacci)
    m = fmat([[0, 1], [1, 1]])
    assert linalg.charpoly(m) == (Fraction(-1), Fraction(-1), Fraction(1))


def test_charpoly_diagonal():
    m = fmat([[2, 0], [0, 3]])
    # (x-2)(x-3) = x^2 - 5x + 6
    assert linalg.charpoly(m) == (Fraction(6), Fraction(-5), Fraction(1))


entries = st.integers(min_value=-9, max_value=9).map(Fraction)


@given(st.lists(st.lists(entries, min_size=3, max_size=3), min_size=3, max_size=3))
def test_inverse_roundtrip_random(rows):
    if linalg.det(rows, Z) == 0:
        return
    inv = linalg.inverse(rows, Z, U)
    prod = [
        [sum(rows[i][k] * inv[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]
    expected = [[U if i == j else Z for j in range(3)] for i in range(3)]
    assert prod == expected


@given(st.lists(st.lists(entries, min_size=2, max_size=2), min_size=2, max_size=4))
def test_nullspace_vectors_annihilate(rows):
    for v in linalg.nullspace_rational(rows):
        for row in rows:
            assert sum(r * x for r, x in zip(row, v)) == 0


# the same routines over NumberFieldElement entries: the degree-6 ambient
# field that splits x^3 - 2


@lru_cache(maxsize=None)
def _ambient6():
    return splitting_container(field_create([-2, 0, 0, 1])).ambient


@st.composite
def ambient_systems(draw):
    """(n x n matrix, right-hand side) over the degree-6 ambient field; when
    asked, one row is a combination of the others, so the matrix is singular."""
    K = _ambient6()
    n = draw(st.integers(1, 3))
    coords = st.lists(st.integers(-3, 3), min_size=K.degree, max_size=K.degree)
    elt = coords.map(K.element)
    rows = [[draw(elt) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        c = draw(elt)
        rows[-1] = [c * a + b for a, b in zip(rows[0], rows[-2])]
    return rows, [draw(elt) for _ in range(n)]


def _mat_vec(mat, x, zero):
    out = []
    for row in mat:
        acc = zero
        for a, b in zip(row, x):
            acc = acc + a * b
        out.append(acc)
    return out


@settings(max_examples=30, deadline=None)
@given(ambient_systems())
def test_field_elimination_over_ambient6(system):
    mat, rhs = system
    K = _ambient6()
    zero, one = K.zero(), K.one()
    n = len(mat)
    d, r = linalg.det(mat, zero), linalg.rank(mat, zero)
    assert (d == 0) == (r < n)
    sol = linalg.solve(mat, rhs, zero, one)
    if sol is not None:
        assert _mat_vec(mat, sol, zero) == rhs
    if d == 0:
        with pytest.raises(ZeroDivisionError):
            linalg.inverse(mat, zero, one)
        return
    assert sol is not None
    inv = linalg.inverse(mat, zero, one)
    cols = list(zip(*inv))
    prod = [_mat_vec(mat, col, zero) for col in cols]
    assert prod == [[one if i == j else zero for i in range(n)] for j in range(n)]


# frequent zeros force row swaps
small_rationals = st.one_of(
    st.just(Z), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.lists(
        st.lists(small_rationals, min_size=n, max_size=n), min_size=n, max_size=n
    )
))
def test_charpoly_and_det_match_sympy(rows):
    m = sp.Matrix(rows)
    expected = m.charpoly(sp.Symbol("x")).all_coeffs()
    assert linalg.charpoly(rows) == tuple(
        Fraction(int(c.p), int(c.q)) for c in reversed(expected)
    )
    d = m.det()
    assert linalg.det(rows, Z) == Fraction(int(d.p), int(d.q))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(-5, 0, 1), (-2, 0, 0, 1), (1, -1, 0, 1), (-3, 0, 0, 0, 1)]),
    st.data(),
)
def test_is_algebraic_integer_matches_min_poly(min_poly, data):
    # the char poly is integral exactly when the min poly is (Gauss's lemma)
    K = field_create(list(min_poly))
    coords = data.draw(
        st.lists(
            st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3])),
            min_size=K.degree,
            max_size=K.degree,
        )
    )
    a = K.element(coords)
    assert is_algebraic_integer(a) == all(
        c.denominator == 1 for c in min_poly_of(a)
    )
