"""Coincidence detection, lattice fitting, certificates, reports."""

import dataclasses
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from normrec import intersect
from normrec.errors import InvariantViolated, ShapeMismatch
from normrec.intersect import (
    ExceptionCertificate,
    FinitenessReport,
    Hit,
    IntersectConfig,
    detect_exception,
    detect_reduced_exception,
    find_coincidences,
    fit_affine_lattice,
    result_document,
    sample_verify,
)
from normrec.multirec import MultiProgression, MultiRecurrence, ShiftedSublattice
from normrec.normform import NormFormProblem, build_component_recurrences
from normrec.numberfield import field_create, norm
from normrec.units import UnitSystem, auto_unit_system


@pytest.fixture(scope="module")
def K2():
    return field_create([-2, 0, 1])


@pytest.fixture(scope="module")
def pell(K2):
    """Pell problem with the fundamental unit 1 + sqrt(2)."""
    return NormFormProblem(
        K2, [K2.one(), K2.gen()], 1, unit_system=auto_unit_system(K2)
    )


@pytest.fixture(scope="module")
def pell_eps0(K2):
    """Pell problem with the norm-one unit 3 + 2 sqrt(2) as the system."""
    eps = K2.element([Fraction(3), Fraction(2)])
    return NormFormProblem(K2, [K2.one(), K2.gen()], 1, unit_system=UnitSystem(K2, [eps]))


def odd_power_recurrence(K2):
    """G(k) = x-coordinate of (3 + 2 sqrt 2)^(2k+1), i.e. H(2k+1)."""
    e1 = K2.element([Fraction(3), Fraction(2)])
    e2 = K2.element([Fraction(3), Fraction(-2)])
    half = K2.from_rational(Fraction(1, 2))
    return MultiRecurrence(K2, 1, [(half * e1, (e1 * e1,)), (half * e2, (e2 * e2,))])


def parity_perturbation(K2, c=1):
    """((-1)^k - 1) * c: vanishes exactly on even k."""
    return MultiRecurrence.simple(K2, 1, [(c, (-1,)), (-c, (1,))])


def test_find_coincidences_power_of_two(pell, K2):
    g = MultiRecurrence.simple(K2, 1, [(1, (2,))])
    hits = find_coincidences(pell, 1, g, 30, 12)
    assert len(hits) == 1
    assert hits[0].x_value == 1 and hits[0].k == (0,) and hits[0].h == (0,)


def test_find_coincidences_constructed(pell_eps0, K2):
    hits = find_coincidences(pell_eps0, 1, odd_power_recurrence(K2), 5, 12)
    assert [h.k for h in hits] == [(k,) for k in range(6)]
    assert [h.x_value for h in hits][:3] == [3, 99, 3363]
    # hit soundness: the reconstructed vector solves the equation
    for h in hits:
        assert pell_eps0.norm_of_vector(h.full_vector) == 1
        assert h.full_vector[0] == h.x_value


def test_find_coincidences_none(pell, K2):
    g = MultiRecurrence.simple(K2, 1, [(5, (7,))])
    assert find_coincidences(pell, 1, g, 20, 12) == []


def test_find_coincidences_integer_base_hypothesis(pell, K2):
    from normrec.errors import NonIntegerBase

    half = Fraction(1, 2)
    g2 = MultiRecurrence.simple(K2, 2, [(1, (half, 2))])
    with pytest.raises(NonIntegerBase):
        find_coincidences(pell, 1, g2, 5, 5)
    # the s = 1 carve-out: no integrality check, and (1/2)^0 = 1 still hits
    g1 = MultiRecurrence.simple(K2, 1, [(1, (half,))])
    hits = find_coincidences(pell, 1, g1, 5, 5)
    assert [h.x_value for h in hits] == [1]


def _reference_join(problem, g, k_box, h_box, crs):
    """Component 1 of a power-basis problem: H(h) evaluated in the ambient
    field, first h per value, then G(k) looked up in that table."""
    table = {}
    for idx, cr in enumerate(crs):
        for h in product(range(h_box + 1), repeat=cr.recurrence.vars):
            if not cr.h_valid(h):
                continue
            val = cr.recurrence.evaluate(h)
            if not val.is_rational() or val.as_rational().denominator != 1:
                continue
            element = cr.mu * cr.unit_for(h)
            if any(c.denominator != 1 for c in element.coeffs) or norm(element) != problem.m:
                continue
            vec = tuple(int(c) for c in element.coeffs)
            assert vec[0] == val.as_rational()
            table.setdefault(vec[0], (h, idx, vec))
    hits = []
    for k in product(range(k_box + 1), repeat=g.vars):
        val = g.evaluate(k)
        if val.is_rational() and val.as_rational() in table:
            h, idx, vec = table[val.as_rational()]
            hits.append(Hit(int(val.as_rational()), k, h, idx, vec))
    return hits


def _power_basis_problem(min_poly, units):
    K = field_create(min_poly)
    basis = [K.one()]
    for _ in range(K.degree - 1):
        basis.append(basis[-1] * K.gen())
    system = UnitSystem(K, [K.element([Fraction(c) for c in u]) for u in units])
    return K, NormFormProblem(K, basis, 1, unit_system=system)


@pytest.mark.parametrize(
    "min_poly, units, k_box, h_box, rep_bound, a_row, b",
    [
        ([-2, 0, 0, 1], [[-1, 1, 0]], 8, 20, 2, (2,), (1,)),
        ([-2, 0, 0, 1], [[-1, 1, 0]], 8, 20, 2, (3,), (1,)),
        ([-2, 0, 0, 1], [[-1, 1, 0]], 8, 20, 2, None, None),
        ([-2, 0, 0, 0, 1], [[-1, 1, 0, 0], [-1, 0, 1, 0]], 6, 8, 1, (2, 1), (0, 1)),
        ([-2, 0, 0, 0, 1], [[-1, 1, 0, 0], [-1, 0, 1, 0]], 6, 8, 1, None, None),
    ],
    ids=["cubic-a2", "cubic-a3", "cubic-control", "quartic-planted", "quartic-control"],
)
def test_find_coincidences_matches_ambient_reference(
    min_poly, units, k_box, h_box, rep_bound, a_row, b
):
    K, problem = _power_basis_problem(min_poly, units)
    crs = build_component_recurrences(problem, 1, coeff_bound=rep_bound)
    if a_row is None:
        g = MultiRecurrence.simple(K, 1, [(2, (3,))])
    else:
        g = crs[0].recurrence.restrict_sublattice(ShiftedSublattice((a_row,), b))
    hits = find_coincidences(problem, 1, g, k_box, h_box, component_recurrences=crs)
    assert hits == _reference_join(problem, g, k_box, h_box, crs)
    assert hits or a_row is None


def test_find_coincidences_checks_h_at_hits(pell_eps0, K2):
    crs = build_component_recurrences(pell_eps0, 1)
    g = odd_power_recurrence(K2)
    assert find_coincidences(pell_eps0, 1, g, 3, 12, component_recurrences=crs)
    one = MultiRecurrence.simple(crs[0].recurrence.field, 1, [(1, (1,))])
    off_by_one = dataclasses.replace(crs[0], recurrence=crs[0].recurrence + one)
    with pytest.raises(InvariantViolated):
        find_coincidences(pell_eps0, 1, g, 3, 12, component_recurrences=[off_by_one])


def _hit(k, h):
    return Hit(x_value=0, k=k, h=h, recurrence_index=0, full_vector=())


def test_fit_affine_lattice_line():
    lat = fit_affine_lattice([_hit((0,), (1,)), _hit((1,), (3,)), _hit((2,), (5,))])
    assert lat.a_matrix == ((2,),) and lat.b_vector == (1,)


def test_fit_affine_lattice_constant():
    lat = fit_affine_lattice([_hit((0,), (4,)), _hit((1,), (4,)), _hit((5,), (4,))])
    assert lat.a_matrix == ((0,),) and lat.b_vector == (4,)


def test_fit_affine_lattice_inconsistent():
    assert fit_affine_lattice([_hit((0,), (0,)), _hit((1,), (1,)), _hit((2,), (3,))]) is None


@st.composite
def planted_lattices(draw):
    """A planted integer (A, b) with s <= 3 and r <= 2, and witnesses
    h = k A + b whose k are random, one point, or on one affine line."""
    s = draw(st.integers(1, 3))
    r = draw(st.integers(1, 2))
    small = st.integers(-6, 6)
    a_mat = tuple(tuple(draw(small) for _ in range(r)) for _ in range(s))
    b_vec = tuple(draw(small) for _ in range(r))
    shape = draw(st.sampled_from(["random", "single", "collinear"]))
    if shape == "single":
        ks = [tuple(draw(small) for _ in range(s))]
    elif shape == "collinear":
        start = [draw(small) for _ in range(s)]
        direction = [draw(small) for _ in range(s)]
        ts = draw(st.lists(small, min_size=2, max_size=6))
        ks = [tuple(x + t * d for x, d in zip(start, direction)) for t in ts]
    else:
        ks = draw(st.lists(st.tuples(*[small] * s), min_size=2, max_size=8))
    lattice = ShiftedSublattice(a_mat, b_vec)
    return lattice, shape, [_hit(k, lattice.apply(k)) for k in ks]


@settings(max_examples=200, deadline=None)
@given(planted_lattices())
def test_fit_affine_lattice_recovers_planted_lattice(case):
    lattice, shape, hits = case
    s = len(lattice.a_matrix)
    full_rank = sympy.Matrix([list(hit.k) + [1] for hit in hits]).rank() == s + 1
    fitted = fit_affine_lattice(hits)
    if full_rank:
        assert fitted == lattice
    else:
        assert fitted is None
    if shape == "single" or (shape == "collinear" and s >= 2):
        assert not full_rank


def test_detect_exception_constructed(pell_eps0, K2):
    cfg = IntersectConfig(k_box=12, h_box=40)
    res = detect_exception(pell_eps0, 1, odd_power_recurrence(K2), cfg)
    assert isinstance(res, ExceptionCertificate)
    assert res.lattice.a_matrix == ((2,),)
    assert res.lattice.b_vector == (1,)
    assert res.g0.is_zero()
    assert all(res.verification.values())
    ok, _ = sample_verify(pell_eps0, odd_power_recurrence(K2), res, 20)
    assert ok


def test_detect_exception_finiteness(pell, K2):
    cfg = IntersectConfig(k_box=30, h_box=12)
    g = MultiRecurrence.simple(K2, 1, [(1, (2,))])
    res = detect_exception(pell, 1, g, cfg)
    assert isinstance(res, FinitenessReport)
    assert [h.x_value for h in res.hits] == [1]


def test_detect_exception_perturbed(pell_eps0, K2):
    cfg = IntersectConfig(k_box=14, h_box=70)
    g = odd_power_recurrence(K2) + parity_perturbation(K2)
    res = detect_exception(pell_eps0, 1, g, cfg)
    assert isinstance(res, ExceptionCertificate)
    assert not res.g0.is_zero()
    assert res.progression.offsets == (0,) and res.progression.steps == (2,)
    ok, _ = sample_verify(pell_eps0, g, res, 30)
    assert ok


def test_detect_exception_refines_progression_by_torsion(pell_eps0, K2):
    """G(k1, k2) = x-coordinate of (-eps)^(k1 + k2), eps = 3 + 2 sqrt 2:
    the G bases are -1 times the H bases, so the witness progression (steps
    1) must be refined to even k1 and k2 before the identity holds."""
    eps = K2.element([Fraction(3), Fraction(2)])
    eps_c = K2.element([Fraction(3), Fraction(-2)])
    half = K2.from_rational(Fraction(1, 2))
    g = MultiRecurrence(K2, 2, [(half, (-eps, -eps)), (half, (-eps_c, -eps_c))])
    res = detect_exception(pell_eps0, 1, g, IntersectConfig(k_box=6, h_box=14))
    assert isinstance(res, ExceptionCertificate)
    assert res.lattice.a_matrix == ((1,), (1,)) and res.lattice.b_vector == (0,)
    assert res.progression.offsets == (0, 0) and res.progression.steps == (2, 2)
    assert all(res.verification.values())


def test_torsion_quotient_without_order_is_a_fault(pell_eps0, K2, monkeypatch):
    """After a full-rank fit and the pairing every quotient zeta is a root of
    unity, so an order of None is an arithmetic fault, not a demotion."""
    monkeypatch.setattr(intersect, "is_root_of_unity", lambda z: None)
    cfg = IntersectConfig(k_box=6, h_box=14)
    with pytest.raises(InvariantViolated):
        detect_exception(pell_eps0, 1, odd_power_recurrence(K2), cfg)


@pytest.mark.parametrize("threshold", [0, 1])
def test_detect_exception_without_hits_reports_finite(pell_eps0, K2, threshold):
    g = MultiRecurrence.simple(K2, 1, [(2, (7,))])
    cfg = IntersectConfig(k_box=5, h_box=5, structure_threshold=threshold)
    res = detect_exception(pell_eps0, 1, g, cfg)
    assert isinstance(res, FinitenessReport)
    assert res.classification == "finite-within-box"
    assert res.hits == [] and res.notes == []


def test_single_witness_demotes_at_lattice_fit(K2, pell_eps0):
    """One witness fixes no lattice, so detection demotes at the fit, before
    any pairing: for a one-term G against a one-term H (the system's only
    unit is -1, so H folds to (-1)^h), and for the single hit k = 0 of
    G = 2^k against the two-term Pell H (tests/data/pell_pow2.json at
    threshold 1)."""
    minus_one = NormFormProblem(
        K2, [K2.one(), K2.gen()], 1, unit_system=UnitSystem(K2, [K2.from_rational(-1)])
    )
    cases = [
        (minus_one, [(1, (-1,))], IntersectConfig(k_box=0, h_box=3, structure_threshold=1)),
        (pell_eps0, [(1, (2,))], IntersectConfig(k_box=30, h_box=12, structure_threshold=1)),
    ]
    for problem, terms, cfg in cases:
        res = detect_exception(problem, 1, MultiRecurrence.simple(K2, 1, terms), cfg)
        assert isinstance(res, FinitenessReport)
        assert [(h.k, h.h) for h in res.hits] == [((0,), (0,))]
        assert res.notes == [
            "structure step failed: lattice-fit (the witnesses fix no unique integer lattice)"
        ]


def test_detect_reduced_exception(pell_eps0, K2):
    cfg = IntersectConfig(k_box=12, h_box=40)
    res = detect_reduced_exception(pell_eps0, 1, odd_power_recurrence(K2), cfg)
    assert isinstance(res, ExceptionCertificate)
    assert res.reduced
    assert res.g0.is_zero()
    assert res.progression.steps == (1,)


def test_detect_reduced_exception_perturbed(pell_eps0, K2):
    cfg = IntersectConfig(k_box=14, h_box=70)
    g = odd_power_recurrence(K2) + parity_perturbation(K2)
    res = detect_reduced_exception(pell_eps0, 1, g, cfg)
    assert isinstance(res, ExceptionCertificate)
    assert res.reduced and res.g0.is_zero()
    assert res.progression.offsets == (0,) and res.progression.steps == (2,)


@pytest.mark.parametrize("perturb, samplings", [(False, 1), (True, 1)])
def test_detect_reduced_exception_samples_g0_free_certificate_once(
    pell_eps0, K2, monkeypatch, perturb, samplings
):
    calls = []
    real = intersect.sample_verify
    monkeypatch.setattr(intersect, "sample_verify", lambda *a: calls.append(a) or real(*a))
    g = odd_power_recurrence(K2)
    if perturb:
        g = g + parity_perturbation(K2)
    res = detect_reduced_exception(pell_eps0, 1, g, IntersectConfig(k_box=14, h_box=70))
    assert res.reduced and len(calls) == samplings
    assert res.verification["point-sampling"] and res.verification["reduced-identity"]


def test_detect_reduced_exception_reuses_the_certificate(pell_eps0, K2):
    """The reduced certificate keeps the progression on which G0 = 0 was
    decided, with the same lattice and witnesses."""
    cfg = IntersectConfig(k_box=14, h_box=70)
    g = odd_power_recurrence(K2) + parity_perturbation(K2)
    full = detect_exception(pell_eps0, 1, g, cfg)
    res = detect_reduced_exception(pell_eps0, 1, g, cfg)
    assert res.progression == full.progression
    assert res.lattice == full.lattice
    assert res.witnesses == full.witnesses
    assert res.verification == dict(full.verification, **{"reduced-identity": True})


def test_sample_verify_requires_g0_to_vanish(pell_eps0, K2):
    """With the real lattice and G0 of the perturbed plant, G = H|_sharp + G0
    holds at every k. On the progression of all k, G0 = (-1)^k - 1 is -2 at
    odd k, where G differs from H|_sharp, so the sampling must reject it;
    on the even k it accepts."""
    g = odd_power_recurrence(K2) + parity_perturbation(K2)
    cr = build_component_recurrences(pell_eps0, 1)[0]
    lattice = ShiftedSublattice(((2,),), (1,))
    cert = ExceptionCertificate(
        component_recurrence=cr,
        lattice=lattice,
        progression=MultiProgression((0,), (1,)),
        g0=g - cr.recurrence.restrict_sublattice(lattice),
        reduced=False,
        witnesses=[],
    )
    ok, detail = sample_verify(pell_eps0, g, cert, 10)
    assert not ok and detail == "mismatch at k=(1,)"
    even = dataclasses.replace(cert, progression=MultiProgression((0,), (2,)))
    assert sample_verify(pell_eps0, g, even, 10) == (True, "")


def test_sample_verify_leaves_the_diagonal(pell_eps0, K2):
    """G = H|_sharp + G0 with A = ((1,), (1,)) and G0 = 2^k1 - 2^k2, which
    vanishes on the diagonal k1 = k2 only, so sampling the diagonal alone
    would accept it. In graded order the second point is k = (0, 1)."""
    cr = build_component_recurrences(pell_eps0, 1)[0]
    lattice = ShiftedSublattice(((1,), (1,)), (0,))
    g0 = MultiRecurrence.simple(K2, 2, [(1, (2, 1)), (-1, (1, 2))])
    assert all(g0.evaluate((t, t)).is_zero() for t in range(50))
    cert = ExceptionCertificate(
        component_recurrence=cr,
        lattice=lattice,
        progression=MultiProgression((0, 0), (1, 1)),
        g0=g0,
        reduced=False,
        witnesses=[],
    )
    g = cr.recurrence.restrict_sublattice(lattice) + g0
    assert sample_verify(pell_eps0, g, cert, 50) == (False, "mismatch at k=(0, 1)")


def test_detect_reduced_exception_constant(pell, K2):
    g = MultiRecurrence.simple(K2, 1, [(4, (1,))])
    res = detect_reduced_exception(pell, 1, g, IntersectConfig(k_box=30, h_box=12))
    assert isinstance(res, FinitenessReport)
    assert res.hits == []


def test_detect_reduced_requires_s1(pell, K2):
    g = MultiRecurrence.simple(K2, 2, [(1, (2, 3))])
    with pytest.raises(ShapeMismatch):
        detect_reduced_exception(pell, 1, g, IntersectConfig())


def test_nonunit_base_demotes(pell, K2):
    # G matches H at 5+ points only if structure exists; 3^k never does, but
    # a recurrence agreeing on few points must demote, not certify
    g = MultiRecurrence.simple(K2, 1, [(7, (3,))])
    res = detect_exception(pell, 1, g, IntersectConfig(k_box=20, h_box=12))
    assert isinstance(res, FinitenessReport)


def test_result_document_certificate(pell_eps0, K2):
    cfg = IntersectConfig(k_box=12, h_box=40)
    g = odd_power_recurrence(K2)
    res = detect_reduced_exception(pell_eps0, 1, g, cfg)
    doc = result_document(pell_eps0, g, res)
    assert doc["classification"] == "reduced-exception"
    assert doc["a_matrix"] == [[2]] and doc["b_vector"] == [1]
    assert doc["reduced"] is True
    assert all(doc["verification"].values())
    # exact strings only, no floats anywhere
    assert not _contains_float(doc)


def test_result_document_report(pell, K2):
    g = MultiRecurrence.simple(K2, 1, [(1, (2,))])
    res = detect_exception(pell, 1, g, IntersectConfig(k_box=30, h_box=12))
    doc = result_document(pell, g, res)
    assert doc["classification"] == "finite-within-box"
    assert doc["hits"] == [{"x": "1", "k": [0], "h": [0]}]
    assert not _contains_float(doc)


def _contains_float(obj):
    if isinstance(obj, float):
        return True
    if isinstance(obj, dict):
        return any(_contains_float(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return any(_contains_float(v) for v in obj)
    return False
