"""Coincidence detection between norm-form solution components and a given
simple multi-recurrence, with finiteness reports or symbolically verified
exception certificates as outcomes.

The pipeline: witness collection (G(k) joined against H(h) tabulated in
K), the exact fit of the shifted sublattice h = k A + b through the
witnesses, proportional-term reduction of G and H, pairing of their terms
by the quotients zeta = G base / H bases^A (zeta^delta = 1 at every witness
difference), refinement of the progression by the orders of those zeta,
one symbolic decision that G0 = G - H|_sharp vanishes on it, and one
sampling of G = H|_sharp and G0 = 0 at its points. The reduced
certificate for s = 1 is that certificate with G0 = 0, since both facts
are already decided on its progression. Any unverifiable step demotes the
outcome to a report; certificates are never guessed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import count, islice, product
from math import gcd, lcm

from . import linalg
from .errors import InvariantViolated, NonIntegerBase, ShapeMismatch
from .multirec import (
    MultiProgression,
    MultiRecurrence,
    ShiftedSublattice,
    is_zero_on_progression,
    mr_reduce,
)
from .normform import ComponentRecurrence, NormFormProblem, _exponents, build_component_recurrences
from .numberfield import is_algebraic_integer, is_root_of_unity, norm


@dataclass
class IntersectConfig:
    k_box: int = 30
    h_box: int = 12
    structure_threshold: int = 5
    rep_coeff_bound: int = 5
    sample_points: int = 50


@dataclass(frozen=True)
class Hit:
    x_value: int
    k: tuple
    h: tuple
    recurrence_index: int
    full_vector: tuple


@dataclass
class FinitenessReport:
    hits: list
    k_box: int
    h_box: int
    classification: str = "finite-within-box"
    notes: list = dc_field(default_factory=list)


@dataclass
class ExceptionCertificate:
    component_recurrence: ComponentRecurrence
    lattice: ShiftedSublattice
    progression: MultiProgression
    g0: MultiRecurrence
    reduced: bool
    witnesses: list
    verification: dict = dc_field(default_factory=dict)

    @property
    def classification(self):
        return "reduced-exception" if self.reduced else "exception"


def _coerce_recurrence(recurrence: MultiRecurrence, problem: NormFormProblem):
    """Re-express a recurrence over the splitting ambient field."""
    sc = problem.splitting()
    amb = sc.ambient
    if recurrence.field == amb:
        return recurrence

    if recurrence.field.degree == 1:
        def conv(e):
            return amb.from_rational(e.as_rational())
    elif recurrence.field == problem.field:
        def conv(e):
            return sc.embed(e, 0)
    else:
        raise ValueError("recurrence is not defined over the problem field")

    terms = [(conv(c), tuple(conv(b) for b in base)) for c, base in recurrence.terms]
    return MultiRecurrence(amb, recurrence.vars, terms)


def _solution_vector(problem: NormFormProblem, element):
    """Coordinates of element in the alpha-module, or None."""
    d = problem.field.degree
    mat = [[a.coeffs[i] for a in problem.alphas] for i in range(d)]
    sol = linalg.solve(mat, list(element.coeffs), Fraction(0), Fraction(1))
    if sol is None or any(x.denominator != 1 for x in sol):
        return None
    return tuple(int(x) for x in sol)


def find_coincidences(
    problem: NormFormProblem,
    component: int,
    recurrence: MultiRecurrence,
    k_box: int,
    h_box: int,
    component_recurrences=None,
):
    """Exhaustive tabulation join of H(h) and G(k) over the given boxes.

    H is tabulated in K: mu * eps^h of norm m with integer alpha-module
    coordinates is keyed on its component coordinate, which is H(h); the
    first h per value is kept. At each distinct (index, h) that G hits,
    H(h) is also evaluated in the ambient field and must equal G(k).
    Without component_recurrences, H comes from build_component_recurrences
    at its default representative bound.
    """
    if recurrence.vars >= 2:
        # integrality hypothesis on the bases; waived for s = 1
        for _, base in recurrence.terms:
            for b in base:
                if not is_algebraic_integer(b):
                    raise NonIntegerBase(f"base entry {b} is not an algebraic integer")
    g_amb = _coerce_recurrence(recurrence, problem)
    if component_recurrences is None:
        component_recurrences = build_component_recurrences(problem, component)
    # value -> (h, recurrence index, solution vector)
    value_table = {}
    for idx, cr in enumerate(component_recurrences):
        for h in product(range(0, h_box + 1), repeat=cr.recurrence.vars):
            if not cr.h_valid(h):
                continue
            element = cr.mu * cr.unit_for(h)
            vec = _solution_vector(problem, element)
            if vec is None or norm(element) != problem.m:
                continue
            value_table.setdefault(vec[component - 1], (h, idx, vec))
    hits = []
    checked = set()
    for k in product(range(0, k_box + 1), repeat=g_amb.vars):
        val = g_amb.evaluate(k)
        if not val.is_rational():
            continue
        q = val.as_rational()
        if q.denominator != 1 or int(q) not in value_table:
            continue
        h, idx, vec = value_table[int(q)]
        if (idx, h) not in checked:
            if component_recurrences[idx].recurrence.evaluate(h) != val:
                raise InvariantViolated("H value differs from its solution coordinate")
            checked.add((idx, h))
        hits.append(
            Hit(x_value=int(q), k=k, h=h, recurrence_index=idx, full_vector=vec)
        )
    return hits


def fit_affine_lattice(hits):
    """The integer (A, b) with h = k A + b for every hit, or None when no
    such lattice exists or the rows [k | 1] leave it ambiguous (column rank
    below s + 1, as for a single hit or collinear k)."""
    if not hits:
        return None
    s = len(hits[0].k)
    r = len(hits[0].h)
    rows = [[Fraction(x) for x in hit.k] + [Fraction(1)] for hit in hits]
    if linalg.rank(rows, Fraction(0)) != s + 1:
        return None
    a_cols = []
    for v in range(r):
        rhs = [Fraction(hit.h[v]) for hit in hits]
        sol = linalg.solve(rows, rhs, Fraction(0), Fraction(1))
        if sol is None or any(x.denominator != 1 for x in sol):
            return None
        a_cols.append([int(x) for x in sol])
    a_mat = tuple(tuple(a_cols[v][i] for v in range(r)) for i in range(s))
    b_vec = tuple(a_cols[v][s] for v in range(r))
    return ShiftedSublattice(a_mat, b_vec)


def _witness_progression(witness_ks):
    base = tuple(min(k[i] for k in witness_ks) for i in range(len(witness_ks[0])))
    steps = []
    for i in range(len(base)):
        g = 0
        for k in witness_ks:
            g = gcd(g, k[i] - base[i])
        steps.append(g if g >= 1 else 1)
    return MultiProgression(base, tuple(steps))


def _term_power(base, expo):
    out = base[0].field.one() if base else None
    for b, e in zip(base, expo):
        out = out * b ** int(e)
    return out


def _pair_quotients(h_red, g_red, a_matrix, deltas):
    """For each H_red term, in order, the single unused G_red term whose
    quotients zeta_nu = g_base[nu] / h_base^(row nu of A) satisfy
    zeta^delta = 1 at every witness difference delta; returns the zeta of
    each pair, or None when the term counts differ or a term has no such
    partner or several (ambiguity means a surviving B/C relation).

    With h = k A + b at every witness, zeta^delta = 1 is exactly the
    constancy of H_base^h / G_base^k across the witnesses.
    """
    if len(h_red.terms) != len(g_red.terms):
        return None
    one = g_red.field.one()
    used_g = set()
    zetas = []
    for _, h_base in h_red.terms:
        h_pows = [_term_power(h_base, row) for row in a_matrix]
        found = None
        for j, (_, g_base) in enumerate(g_red.terms):
            if j in used_g:
                continue
            zeta = [g / hp for g, hp in zip(g_base, h_pows)]
            if all(_term_power(zeta, delta) == one for delta in deltas):
                if found is not None:
                    return None
                found = j, zeta
        if found is None:
            return None
        used_g.add(found[0])
        zetas.append(found[1])
    return zetas


def detect_exception(
    problem: NormFormProblem,
    component: int,
    recurrence: MultiRecurrence,
    config: IntersectConfig = None,
):
    """Full structural detection: exception certificate or finiteness report."""
    config = config or IntersectConfig()
    component_recurrences = build_component_recurrences(
        problem, component, coeff_bound=config.rep_coeff_bound
    )
    try:
        hits = find_coincidences(
            problem,
            component,
            recurrence,
            config.k_box,
            config.h_box,
            component_recurrences=component_recurrences,
        )
    except NonIntegerBase as exc:
        return FinitenessReport(
            [], config.k_box, config.h_box,
            classification="hypothesis-violation: non-integer base",
            notes=[str(exc)],
        )

    def demote(step, detail=""):
        note = f"structure step failed: {step}"
        if detail:
            note += f" ({detail})"
        return FinitenessReport(
            hits, config.k_box, config.h_box, notes=[note]
        )

    if not hits or len(hits) < config.structure_threshold:
        return FinitenessReport(hits, config.k_box, config.h_box)
    # work with the majority component recurrence
    counts = {}
    for hit in hits:
        counts[hit.recurrence_index] = counts.get(hit.recurrence_index, 0) + 1
    main_idx = max(counts, key=lambda i: (counts[i], -i))
    witnesses = [h for h in hits if h.recurrence_index == main_idx]
    if len(witnesses) < config.structure_threshold:
        return demote("witness-selection", "no single recurrence has enough hits")
    cr = component_recurrences[main_idx]
    sublattice = fit_affine_lattice(witnesses)
    if sublattice is None:
        return demote("lattice-fit", "the witnesses fix no unique integer lattice")
    g_amb = _coerce_recurrence(recurrence, problem)
    prog = _witness_progression([w.k for w in witnesses])
    h_red = mr_reduce(cr.recurrence, _witness_progression([w.h for w in witnesses]))
    k0 = witnesses[0].k
    deltas = [tuple(x - y for x, y in zip(w.k, k0)) for w in witnesses[1:]]
    zetas = _pair_quotients(h_red, mr_reduce(g_amb, prog), sublattice.a_matrix, deltas)
    if zetas is None:
        return demote("exponential-pairing", "no perfect matching of exponential parts")
    # each paired G base is zeta times the H bases raised to its row of A;
    # refine the progression so every zeta is 1 on it. The differences span
    # a rank-s lattice on which every zeta^delta = 1, so each zeta is a root
    # of unity
    steps = list(prog.steps)
    for zeta in zetas:
        for nu, z in enumerate(zeta):
            order = is_root_of_unity(z)
            if order is None:
                raise InvariantViolated("paired G base over H bases^A is no root of unity")
            steps[nu] = lcm(steps[nu], order)
    prog_refined = MultiProgression(k0, tuple(steps))
    g0 = g_amb - cr.recurrence.restrict_sublattice(sublattice)
    ok_g0 = is_zero_on_progression(g0, prog_refined)
    verification = {"g0-vanishes-on-progression": ok_g0}
    if not ok_g0:
        return demote("g0-vanishing", "G0 does not vanish identically on progression")
    cert = ExceptionCertificate(
        component_recurrence=cr,
        lattice=sublattice,
        progression=prog_refined,
        g0=g0,
        reduced=False,
        witnesses=witnesses,
        verification=verification,
    )
    ok_sample, detail = sample_verify(problem, g_amb, cert, config.sample_points)
    cert.verification["point-sampling"] = ok_sample
    if not ok_sample:
        return demote("point-sampling", detail)
    return cert


def detect_reduced_exception(
    problem: NormFormProblem,
    component: int,
    recurrence: MultiRecurrence,
    config: IntersectConfig = None,
):
    """Detection for s = 1 with the stricter certificate shape G = H|_sharp
    on the progression. detect_exception has decided that G0 vanishes on
    its progression and sampled G = H|_sharp and G0 = 0 at its points, so
    its certificate with G0 = 0 is the reduced one: same lattice,
    progression and witnesses, nothing decided or sampled again."""
    if recurrence.vars != 1:
        raise ShapeMismatch("reduced detection requires s = 1")
    cert = detect_exception(problem, component, recurrence, config)
    if isinstance(cert, FinitenessReport):
        return cert
    cert.g0 = MultiRecurrence(cert.g0.field, 1, [])
    cert.reduced = True
    cert.verification["reduced-identity"] = True
    return cert


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _element_doc(e):
    return [_frac_str(c) for c in e.coeffs]


def recurrence_document(rec: MultiRecurrence):
    """Each constant is written as the single monomial of exponent 0."""
    terms = [
        {
            "coeff": [{"exps": [0] * rec.vars, "value": _element_doc(c)}],
            "base": [_element_doc(b) for b in base],
        }
        for c, base in rec.terms
    ]
    return {
        "vars": rec.vars,
        "field": [_frac_str(Fraction(c)) for c in rec.field.min_poly],
        "terms": terms,
    }


def problem_hash(problem: NormFormProblem) -> str:
    import hashlib
    import json

    doc = {
        "field": [str(c) for c in problem.field.min_poly],
        "alphas": [_element_doc(a) for a in problem.alphas],
        "m": problem.m,
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def result_document(problem, recurrence, result):
    """JSON-compatible document for a certificate or report; all numbers are
    exact integer/rational strings."""
    doc = {
        "problem": problem_hash(problem),
        "g": recurrence_document(recurrence),
        "classification": result.classification,
    }
    if isinstance(result, FinitenessReport):
        doc["hits"] = [
            {"x": str(h.x_value), "k": list(h.k), "h": list(h.h)}
            for h in result.hits
        ]
        doc["boxes"] = {"k_box": result.k_box, "h_box": result.h_box}
        doc["notes"] = list(result.notes)
        return doc
    cert = result
    doc["h"] = recurrence_document(cert.component_recurrence.recurrence)
    doc["a_matrix"] = [list(row) for row in cert.lattice.a_matrix]
    doc["b_vector"] = list(cert.lattice.b_vector)
    doc["progression"] = {
        "offsets": list(cert.progression.offsets),
        "steps": list(cert.progression.steps),
    }
    doc["g0"] = recurrence_document(cert.g0)
    doc["reduced"] = cert.reduced
    doc["witnesses"] = [
        {"x": str(h.x_value), "k": list(h.k), "h": list(h.h)}
        for h in cert.witnesses
    ]
    doc["verification"] = {k: bool(v) for k, v in cert.verification.items()}
    return doc


def sample_verify(problem, recurrence, cert: ExceptionCertificate, points: int = 50):
    """Exact pointwise check of G(k) = H(kA+b) and G0(k) = 0 at the first
    points points of the progression, taken in graded order: by the sum of
    the progression coordinates, then lex. For s = 1 they are 0..points-1."""
    g_amb = _coerce_recurrence(recurrence, problem)
    h_rec = cert.component_recurrence.recurrence
    graded = (t for total in count() for t in _exponents(total, g_amb.vars))
    for t in islice(graded, points):
        k = cert.progression.point(t)
        h = cert.lattice.apply(k)
        if g_amb.evaluate(k) != h_rec.evaluate(h) or not cert.g0.evaluate(k).is_zero():
            return False, f"mismatch at k={k}"
    return True, ""
