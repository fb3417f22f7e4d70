"""The benchmark's workloads: seeded instances, how each one runs normrec,
and how its output is checked against the oracle.

A workload is an endless stream of cycles. A cycle is a fixed list of
instance kinds, some with parameters fixed by their slot, and the seed
draws the rest (see ``CYCLES``). Runs measure whole cycles, so the mix of
slow and fast instances is the same in every run and the run-to-run spread
comes from the program rather than from the draw.

normrec is always reached through its module attributes
(``intersect.detect_exception``, not a name imported from it), so that the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

from normrec import cli, intersect, multirec, normform, numberfield, uniteq, units

import oracle

SQRT2 = [-2, 0, 1]
CUBIC = [-2, 0, 0, 1]  # Q(2^(1/3))
QUARTIC = [-2, 0, 0, 0, 1]  # Q(2^(1/4))
EPS = (3, 2)  # 3 + 2 sqrt 2, the unit system of the Q(sqrt 2) instances
SAMPLE_POINTS = intersect.IntersectConfig().sample_points

README_PELL = {
    "field": [-2, 0, 1],
    "alphas": [[1, 0], [0, 1]],
    "m": 1,
    "units": [[3, 2]],
    "component": 1,
    "recurrence": {
        "vars": 1,
        "terms": [
            {"coeff": ["3/2", "1"], "base": [["17", "12"]]},
            {"coeff": ["3/2", "-1"], "base": [["17", "-12"]]},
        ],
    },
    "search": {"k_box": 12, "h_box": 40},
}

DEMOTION_PREFIX = "structure step failed: "


# ---------------------------------------------------------------------------
# normalised outputs
# ---------------------------------------------------------------------------


def _step(notes):
    for note in notes:
        if note.startswith(DEMOTION_PREFIX):
            return note[len(DEMOTION_PREFIX):].split(" ", 1)[0]
    return None


def result_out(res):
    """Plain data from a certificate or a finiteness report."""
    if isinstance(res, intersect.ExceptionCertificate):
        return {
            "certificate": True,
            "A": [list(row) for row in res.lattice.a_matrix],
            "b": list(res.lattice.b_vector),
            "offsets": list(res.progression.offsets),
            "steps": list(res.progression.steps),
            "verification": dict(res.verification),
            "hits": [_hit(w) for w in res.witnesses],
        }
    return {
        "certificate": False,
        "hits": [_hit(h) for h in res.hits],
        "step": _step(res.notes),
    }


def _hit(hit):
    return {"k": list(hit.k), "h": list(hit.h), "x": hit.x_value,
            "full_vector": list(hit.full_vector)}


def document_out(doc):
    """Plain data from an ``intersect`` result document."""
    hits = doc.get("witnesses", doc.get("hits", []))
    hits = [{"k": h["k"], "h": h["h"], "x": int(h["x"])} for h in hits]
    if doc["classification"] in ("exception", "reduced-exception"):
        return {
            "certificate": True,
            "A": doc["a_matrix"],
            "b": doc["b_vector"],
            "offsets": doc["progression"]["offsets"],
            "steps": doc["progression"]["steps"],
            "verification": doc["verification"],
            "hits": hits,
        }
    return {"certificate": False, "hits": hits, "step": _step(doc["notes"])}


def check_intersection(out, family, g, s, k_box, h_box, planted):
    """A report must carry exactly the oracle's hits; a certificate must
    carry valid witnesses, only passed checks and the planted lattice."""
    if not out["certificate"]:
        return oracle.check_hits(family, g, k_box, h_box, s, 1, out["hits"], complete=True)
    errors = oracle.check_hits(family, g, k_box, h_box, s, 1, out["hits"], complete=False)
    if not all(out["verification"].values()):
        errors.append(f"certificate carries a failed check: {out['verification']}")
    if planted is None:
        errors.append("certificate on a negative control")
    else:
        errors += oracle.check_certificate(family, g, out, planted, 1, SAMPLE_POINTS)
    return errors


class Kind:
    """One kind of instance: ``draw`` makes its parameters from the seed's
    generator, ``run`` calls normrec and returns plain data, ``check``
    returns the oracle's objections to that data, and ``planted`` gives the
    (A, b) a certificate must carry, or None when nothing is planted."""

    def planted(self, p):
        return None


# ---------------------------------------------------------------------------
# quad-certify: the certificate path over Q(sqrt 2)
# ---------------------------------------------------------------------------


def _pell_problem():
    K = numberfield.field_create(SQRT2)
    eps = K.element(list(EPS))
    return K, normform.NormFormProblem(
        K, [K.one(), K.gen()], 1, unit_system=units.UnitSystem(K, [eps])
    )


# the oracle's solutions x = coordinates of (3 + 2 sqrt 2)^h; it caches its
# tables, so one copy serves every instance
QUAD_FAMILY = oracle.UnitFamily(SQRT2, [list(EPS)])


def _quad_g(terms):
    def g(k):
        p, q = oracle.quad_value(2, terms, k)
        return p if q == 0 else None
    return g


def _planted_quad_terms(a_row, b):
    """H|_sharp for H = x-coordinate of eps^h: 1/2 eps^b prod (eps^a_i)^k_i
    plus the conjugate term, as pairs over Q(sqrt 2)."""
    terms = []
    for sign in (1, -1):
        eps = (Fraction(EPS[0]), Fraction(sign * EPS[1]))
        coeff = oracle.quad_mul(2, (Fraction(1, 2), Fraction(0)), oracle.quad_pow(2, eps, b))
        terms.append((coeff, tuple(oracle.quad_pow(2, eps, a) for a in a_row)))
    return terms


class PlantedS1(Kind):
    """Criterion-4 style: G = H|_{h = ak+b}, optionally plus c(-1)^k - c."""

    k_box, h_box = 10, 44

    def __init__(self, perturb):
        self.perturb = perturb

    def draw(self, rng, a):
        return {"a": a, "b": rng.randint(0, 4), "c": rng.randint(2, 3) if self.perturb else 0}

    def planted(self, p):
        return ((p["a"],),), (p["b"],)

    def run(self, p):
        K, problem = _pell_problem()
        eps1, eps2 = K.element(list(EPS)), K.element([EPS[0], -EPS[1]])
        half = K.from_rational(Fraction(1, 2))
        a, b = p["a"], p["b"]
        g = multirec.MultiRecurrence(
            K, 1, [(half * eps1**b, (eps1**a,)), (half * eps2**b, (eps2**a,))]
        )
        if p["c"]:
            g = g + multirec.MultiRecurrence.simple(K, 1, [(p["c"], (-1,)), (-p["c"], (1,))])
        cfg = intersect.IntersectConfig(k_box=self.k_box, h_box=self.h_box)
        return result_out(intersect.detect_reduced_exception(problem, 1, g, cfg))

    def check(self, p, out):
        terms = _planted_quad_terms((p["a"],), p["b"])
        if p["c"]:
            terms += [((p["c"], 0), ((-1, 0),)), ((-p["c"], 0), ((1, 0),))]
        return check_intersection(
            out, QUAD_FAMILY, _quad_g(terms), 1, self.k_box, self.h_box, self.planted(p)
        )


class PlantedS2(Kind):
    """Two-variable planted exception G(k1, k2) = H(a1 k1 + a2 k2 + b),
    through the general (non-reduced) detection."""

    k_box, h_box = 6, 27

    def draw(self, rng, a):
        return {"a": list(a), "b": rng.randint(0, 3)}

    def planted(self, p):
        return ((p["a"][0],), (p["a"][1],)), (p["b"],)

    def run(self, p):
        K, problem = _pell_problem()
        eps1, eps2 = K.element(list(EPS)), K.element([EPS[0], -EPS[1]])
        half = K.from_rational(Fraction(1, 2))
        (a1, a2), b = p["a"], p["b"]
        g = multirec.MultiRecurrence(
            K, 2,
            [(half * eps1**b, (eps1**a1, eps1**a2)), (half * eps2**b, (eps2**a1, eps2**a2))],
        )
        cfg = intersect.IntersectConfig(k_box=self.k_box, h_box=self.h_box)
        return result_out(intersect.detect_exception(problem, 1, g, cfg))

    def check(self, p, out):
        terms = _planted_quad_terms(p["a"], p["b"])
        return check_intersection(
            out, QUAD_FAMILY, _quad_g(terms), 2, self.k_box, self.h_box, self.planted(p)
        )


class ReadmeCli(Kind):
    """The README's Pell example through ``normrec intersect``, in-process.
    Its G is the x-coordinate of eps^(2k+1), so the planted lattice is
    A = 2, b = 1."""

    def __init__(self, workdir):
        self.path = workdir / "readme_pell.json"
        self.path.write_text(json.dumps(README_PELL))

    def draw(self, rng):
        return {}

    def planted(self, p):
        return ((2,),), (1,)

    def run(self, p):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["intersect", str(self.path)])
        if code != 0:
            raise RuntimeError(f"normrec intersect exited with {code}")
        return document_out(json.loads(buf.getvalue()))

    def check(self, p, out):
        terms = [
            ((Fraction(3, 2), Fraction(sign)), ((Fraction(17), Fraction(12 * sign)),))
            for sign in (1, -1)
        ]
        search = README_PELL["search"]
        return check_intersection(
            out, QUAD_FAMILY, _quad_g(terms), 1,
            search["k_box"], search["h_box"], self.planted(p),
        )


# ---------------------------------------------------------------------------
# higher-degree: tabulation and join in ambient fields of degree 6 and 8
# ---------------------------------------------------------------------------


class HigherDegree(Kind):
    """One of the two fields, with either a planted G = H|_sharp or a
    negative control c r^k with rational r."""

    FIELDS = {
        # min poly, fundamental units, k_box, h_box, rep_coeff_bound
        "cubic": (CUBIC, [[-1, 1, 0]], 8, 20, 2),
        "quartic": (QUARTIC, [[-1, 1, 0, 0], [-1, 0, 1, 0]], 6, 8, 1),
    }

    def __init__(self, field, plant):
        self.field, self.plant = field, plant
        self.min_poly, self.units, self.k_box, self.h_box, self.rep_bound = self.FIELDS[field]
        self.family = oracle.UnitFamily(self.min_poly, self.units)

    def draw(self, rng, a=None, b=(0, 1, 2)):
        """Controls draw c r^k. Cubic plants h = a k + b with b drawn from
        the given choices. Quartic plants h = (a k + b1, a2 k + b2): the
        exponent of theta - 1, whose norm is -1, stays even, and a step of
        2 has offset 0, so that k = 0..4 all land inside the h box."""
        if not self.plant:
            return {"c": rng.randint(1, 3), "r": rng.choice([2, 3, 5])}
        if self.field == "cubic":
            return {"a": [a], "b": [rng.choice(b)]}
        a2 = rng.randint(1, 2)
        b1 = rng.choice([0, 2]) if a == 0 else 0
        b2 = rng.randint(0, 1) if a2 == 1 else 0
        return {"a": [a, a2], "b": [b1, b2]}

    def planted(self, p):
        return ((tuple(p["a"]),), tuple(p["b"])) if self.plant else None

    def run(self, p):
        K = numberfield.field_create(self.min_poly)
        th = K.gen()
        basis = [K.one()]
        for _ in range(K.degree - 1):
            basis.append(basis[-1] * th)
        system = units.UnitSystem(K, [K.element(u) for u in self.units])
        problem = normform.NormFormProblem(K, basis, 1, unit_system=system)
        if self.plant:
            crs = normform.build_component_recurrences(problem, 1, coeff_bound=self.rep_bound)
            lattice = multirec.ShiftedSublattice(*self.planted(p))
            g = crs[0].recurrence.restrict_sublattice(lattice)
        else:
            g = multirec.MultiRecurrence.simple(K, 1, [(p["c"], (p["r"],))])
        cfg = intersect.IntersectConfig(
            k_box=self.k_box, h_box=self.h_box, rep_coeff_bound=self.rep_bound
        )
        return result_out(intersect.detect_exception(problem, 1, g, cfg))

    def check(self, p, out):
        family = self.family
        if self.plant:
            (a_row,), b = self.planted(p)

            def g(k):
                return family.coords(tuple(a * k[0] + bv for a, bv in zip(a_row, b)))[0]
        else:
            def g(k):
                return Fraction(p["c"]) * Fraction(p["r"]) ** k[0]
        return check_intersection(
            out, family, g, 1, self.k_box, self.h_box, self.planted(p)
        )


# ---------------------------------------------------------------------------
# box-solvers: the exhaustive solvers
# ---------------------------------------------------------------------------


class PellBox(Kind):
    box = 10**5

    def draw(self, rng):
        return {"d": rng.choice([2, 3, 5, 6, 7, 10, 11, 13]), "m": rng.choice([1, -1, 2, -2, 3, 4])}

    def run(self, p):
        K = numberfield.field_create([-p["d"], 0, 1])
        problem = normform.NormFormProblem(K, [K.one(), K.gen()], p["m"])
        return [list(x) for x in normform.solve_bruteforce(problem, self.box)]

    def check(self, p, out):
        return oracle.check_solutions(oracle.pell_solutions(p["d"], p["m"], self.box), out)


class CubicBox(Kind):
    """The norm form of Q(2^(1/3)) on the power basis; solving for the last
    coordinate goes through qpoly.int_roots."""

    box = 24

    def draw(self, rng):
        return {"m": rng.choice([1, 2, 3, 4, 5, 6])}

    def run(self, p):
        K = numberfield.field_create(CUBIC)
        th = K.gen()
        problem = normform.NormFormProblem(K, [K.one(), th, th * th], p["m"])
        return [list(x) for x in normform.solve_bruteforce(problem, self.box)]

    def check(self, p, out):
        return oracle.check_solutions(oracle.norm_form_solutions(CUBIC, p["m"], self.box), out)


class UnitEquation(Kind):
    """Criterion-7 style: a_1 y_1 + ... + a_n y_n = 1 over Q with three
    generator vectors and exponents in [-4, 4]."""

    POOL = [-3, -2, -1, 1, 2, 3, 5]
    expo_bound = 4

    def draw(self, rng, n):
        return {
            "a": [rng.choice(self.POOL) for _ in range(n)],
            "gens": [[rng.choice(self.POOL) for _ in range(n)] for _ in range(3)],
        }

    def run(self, p):
        Q = numberfield.field_create([0, 1])
        a = [Q.from_rational(x) for x in p["a"]]
        gens = [[Q.from_rational(x) for x in g] for g in p["gens"]]
        sols = uniteq.solve_unit_equation(a, uniteq.GroupSpec(len(a), gens), self.expo_bound)
        return [
            {"y": [y.as_rational() for y in s.y], "exponents": list(s.exponents),
             "subsets": [list(t) for t in s.vanishing_subsets]}
            for s in sols
        ]

    def check(self, p, out):
        return oracle.check_unit_equation(p["a"], p["gens"], self.expo_bound, out)


class ZeroStructure(Kind):
    """sml_zero_structure over Q: either zeros on the odd progression
    (c1((-1)^k + 1) + c2((-2)^k + 2^k)) or one sporadic zero (r^k - r^k0)."""

    bound = 3000

    def __init__(self, parity):
        self.parity = parity

    def draw(self, rng):
        if self.parity:
            return {"c1": rng.randint(1, 5), "c2": rng.randint(1, 5)}
        return {"r": rng.choice([2, 3]), "k0": rng.randint(5, 40)}

    def terms(self, p):
        if self.parity:
            return [(p["c1"], -1), (p["c1"], 1), (p["c2"], -2), (p["c2"], 2)]
        return [(1, p["r"]), (-p["r"] ** p["k0"], 1)]

    def run(self, p):
        Q = numberfield.field_create([0, 1])
        g = multirec.MultiRecurrence.simple(Q, 1, [(c, (r,)) for c, r in self.terms(p)])
        zs = multirec.sml_zero_structure(g, self.bound)
        return {"progressions": [list(x) for x in zs.progressions], "sporadic": list(zs.sporadic)}

    def check(self, p, out):
        if self.parity:
            return oracle.check_zero_structure(self.terms(p), self.bound, out, [(1, 2)], [])
        return oracle.check_zero_structure(self.terms(p), self.bound, out, [], [p["k0"]])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


KINDS = {
    "planted-s1": lambda workdir: PlantedS1(perturb=False),
    "planted-s1-perturbed": lambda workdir: PlantedS1(perturb=True),
    "planted-s2": lambda workdir: PlantedS2(),
    "readme-cli": ReadmeCli,
    "cubic-planted": lambda workdir: HigherDegree("cubic", plant=True),
    "cubic-control": lambda workdir: HigherDegree("cubic", plant=False),
    "quartic-planted": lambda workdir: HigherDegree("quartic", plant=True),
    "quartic-control": lambda workdir: HigherDegree("quartic", plant=False),
    "pell": lambda workdir: PellBox(),
    "cubic-norm": lambda workdir: CubicBox(),
    "uniteq": lambda workdir: UnitEquation(),
    "sml-parity": lambda workdir: ZeroStructure(parity=True),
    "sml-sporadic": lambda workdir: ZeroStructure(parity=False),
}

# One cycle per workload: (kind, parameters fixed by the slot); the seed
# draws the rest. The timed phase runs whole cycles, so every run has the
# same mix of kinds and of the fixed parameters, and the latency quantiles
# fall inside groups of like instances rather than between them.
CYCLES = {
    # sorted by latency, the unperturbed s = 1 plants and the README run
    # come first, and both quantiles fall among the perturbed and s = 2 ones
    "quad-certify": [("planted-s1", {"a": a}) for a in (1, 2, 3, 4)]
    + [("planted-s1-perturbed", {"a": a}) for a in (1, 2, 3, 4)]
    + [("planted-s2", {"a": a}) for a in ((1, 1), (1, 2), (2, 1), (2, 2))]
    + [("readme-cli", {})],
    # a = 3, b = 1 is the one cubic lattice the detection certifies at
    # present; a slot of its own keeps the certificate path's share of the
    # run the same whatever the seed draws for b elsewhere. Eight of the
    # sixteen instances are planted; sorted by latency, the cheap cubic
    # controls come first, then the cubic plants around the median, and the
    # quartic controls around the 75th percentile.
    "higher-degree": [("cubic-control", {})] * 6
    + [("cubic-planted", {"a": a}) for a in (1, 2, 2)]
    + [("cubic-planted", {"a": 3, "b": (0, 2)})] * 2
    + [("cubic-planted", {"a": 3, "b": (1,)})]
    + [("quartic-control", {})] * 2
    + [("quartic-planted", {"a": 0}), ("quartic-planted", {"a": 2})],
    # Pell brute force is two thirds of the cycle and sorts above all but one
    # of the other instances, so both latency quantiles fall among the Pell
    # instances
    "box-solvers": [("pell", {})] * 10
    + [("cubic-norm", {})]
    + [("uniteq", {"n": n}) for n in (2, 3)]
    + [("sml-parity", {}), ("sml-sporadic", {})],
}


class Workload:
    def __init__(self, name, workdir):
        self.name = name
        self.slots = CYCLES[name]
        self.kinds = {kind: KINDS[kind](workdir) for kind, _ in self.slots}

    def cycles(self, seed):
        """Endless stream of cycles, each a list of (kind, params)."""
        rng = random.Random(f"{self.name}/{seed}")
        while True:
            yield [(kind, self.kinds[kind].draw(rng, **fixed)) for kind, fixed in self.slots]

    def warm_up(self, seed):
        """One instance of each kind, drawn apart from the measured stream."""
        rng = random.Random(f"{self.name}/{seed}/warm-up")
        first = {}
        for kind, fixed in self.slots:
            first.setdefault(kind, fixed)
        return [(kind, self.kinds[kind].draw(rng, **fixed)) for kind, fixed in first.items()]
