"""Multi-recurrence evaluation, restriction, reduction, zero decisions."""

import random
from fractions import Fraction

import pytest

from normrec.errors import ShapeMismatch
from normrec.multirec import (
    MultiProgression,
    MultiRecurrence,
    ShiftedSublattice,
    is_zero_on_progression,
    mr_reduce,
    sml_zero_structure,
)
from normrec.numberfield import field_create


@pytest.fixture(scope="module")
def Q():
    return field_create([0, 1])


@pytest.fixture(scope="module")
def K2():
    return field_create([-2, 0, 1])


def simple(field, nvars, terms):
    return MultiRecurrence.simple(field, nvars, terms)


def test_evaluate_single_exponential(Q):
    g = simple(Q, 1, [(3, (2,))])  # 3 * 2^k
    assert [g.evaluate((k,)).as_rational() for k in range(5)] == [3, 6, 12, 24, 48]


def test_evaluate_two_vars(Q):
    g = simple(Q, 2, [(1, (2, 3))])  # 2^k1 * 3^k2
    assert g.evaluate((2, 1)).as_rational() == 12


def test_merging_identical_bases(Q):
    g = simple(Q, 1, [(1, (2,)), (2, (2,))])
    assert len(g.terms) == 1
    assert g.evaluate((3,)).as_rational() == 24


def test_zero_terms_dropped(Q):
    g = simple(Q, 1, [(1, (2,)), (-1, (2,))])
    assert g.is_zero()


def test_zero_base_rejected(Q):
    with pytest.raises(ValueError):
        simple(Q, 1, [(1, (0,))])


def test_restrict_sublattice(Q):
    # H(h) = 2^h restricted along h = 2k + 1 becomes 2 * 4^k
    h = simple(Q, 1, [(1, (2,))])
    g = h.restrict_sublattice(ShiftedSublattice(((2,),), (1,)))
    assert g.terms[0][1][0] == 4
    assert g.evaluate((3,)).as_rational() == 2 ** 7


def test_restrict_sublattice_two_to_one(Q):
    # H(h1, h2) = 2^h1 3^h2 along (h1, h2) = (k, k) becomes 6^k
    h = simple(Q, 2, [(1, (2, 3))])
    g = h.restrict_sublattice(ShiftedSublattice(((1, 1),), (0, 0)))
    assert g.vars == 1
    assert g.evaluate((2,)).as_rational() == 36


def test_restrict_progression(Q):
    g = simple(Q, 1, [(1, (-1,))])
    r = g.restrict_progression(MultiProgression((1,), (2,)))
    # (-1)^(1+2n) = -1 identically
    assert len(r.terms) == 1
    assert r.evaluate((5,)).as_rational() == -1


def test_restriction_commutes_with_evaluation(K2):
    rng = random.Random(3)
    eps = K2.element([Fraction(1), Fraction(1)])
    g = MultiRecurrence(K2, 2, [(K2.from_rational(2), (eps, eps ** 2)), (K2.one(), (K2.from_rational(3), K2.one()))])
    lat = ShiftedSublattice(((2, 0),), (1, 3))
    r = g.restrict_sublattice(lat)
    for _ in range(10):
        k = (rng.randint(0, 6),)
        assert r.evaluate(k) == g.evaluate(lat.apply(k))


def test_shape_mismatch(Q):
    g = simple(Q, 2, [(1, (2, 3))])
    with pytest.raises(ShapeMismatch):
        g.evaluate((1,))


def test_progression_requires_positive_steps():
    with pytest.raises(ValueError):
        MultiProgression((0,), (0,))


def test_is_zero_on_progression(Q):
    # (-1)^k - 1 vanishes exactly on even k
    g = simple(Q, 1, [(1, (-1,)), (-1, (1,))])
    assert is_zero_on_progression(g, MultiProgression((0,), (2,))) is True
    assert is_zero_on_progression(g, MultiProgression((0,), (1,))) is False


def test_mr_reduce_folds_proportional_terms(Q):
    # along even k, (-1)^k is proportional to 1^k with ratio 1 at offset 0
    g = simple(Q, 1, [(1, (-1,)), (1, (1,))])
    prog = MultiProgression((0,), (2,))
    reduced = mr_reduce(g, prog)
    assert len(reduced.terms) == 1
    assert reduced.evaluate((0,)).as_rational() == 2
    assert is_zero_on_progression(g - reduced, prog)
    assert not is_zero_on_progression(g - reduced, MultiProgression((1,), (2,)))


def test_mr_reduce_folds_only_when_every_step_power_is_one(Q):
    # the ratio (2, 1/2) of 4^k1 2^-k2 to 2^k1 has product 1 over the steps
    # (1, 1), but the two terms are not proportional along the progression
    g = simple(Q, 2, [(1, (2, 1)), (1, (4, Fraction(1, 2)))])
    prog = MultiProgression((0, 0), (1, 1))
    reduced = mr_reduce(g, prog)
    assert reduced == g
    assert reduced.evaluate((1, 0)).as_rational() == 6


def test_mr_reduce_keeps_independent_terms(Q):
    g = simple(Q, 1, [(1, (2,)), (1, (3,))])
    reduced = mr_reduce(g, MultiProgression((0,), (1,)))
    assert reduced == g


def test_sml_parity_progression(Q):
    g = simple(Q, 1, [(1, (-1,)), (1, (1,))])  # (-1)^k + 1
    zs = sml_zero_structure(g, 50)
    assert zs.progressions == [(1, 2)]
    assert zs.sporadic == []


def test_sml_sporadic_zero(Q):
    g = simple(Q, 1, [(1, (2,)), (-8, (1,))])  # 2^k - 8
    zs = sml_zero_structure(g, 50)
    assert zs.sporadic == [3]
    assert zs.progressions == []


def test_sml_zero_recurrence(Q):
    g = simple(Q, 1, [])
    zs = sml_zero_structure(g, 20)
    assert zs.progressions == [(0, 1)]
    assert zs.sporadic == []


def test_sml_requires_one_variable(Q):
    g = simple(Q, 2, [(1, (2, 3))])
    with pytest.raises(ShapeMismatch):
        sml_zero_structure(g, 10)


def test_recurrence_algebra(Q):
    a = simple(Q, 1, [(1, (2,))])
    b = simple(Q, 1, [(5, (3,))])
    s = a + b
    assert s.evaluate((2,)).as_rational() == 4 + 45
    assert (s - b) == a
    assert (a - a).is_zero()
