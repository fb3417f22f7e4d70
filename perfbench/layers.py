"""Per-layer metrics from a traced run.

Names ending in ``_s`` are inclusive times of the outermost calls (callees
included); names ending in ``_self_s`` are self times, a span's duration
minus its wrapped children's. Counts and times are per pass over the
workload's cycle; the traced passes replay the same cycle, so the counts
are exact. Every metric is reported on every workload, also where its
layer is never called (it reads 0 there).
"""

from __future__ import annotations

from itertools import product

# the demotion steps named by normrec.intersect's "structure step failed"
# notes; any other step counts under "other"
DEMOTION_STEPS = (
    "witness-selection", "linear-dependency-fit", "lift-construction",
    "reduction", "exponential-pairing", "unit-quotient-test",
    "embedding-recovery", "base-pullback", "unit-decomposition",
    "lattice-consistency", "lattice-fit", "progression-identity",
    "g0-vanishing", "certificate-identity", "point-sampling",
    "g0-refinement", "reduced-verification", "reduced-point-sampling",
)


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _add(tracer, key, value):
    tracer.observed[key] = tracer.observed.get(key, 0) + value


def _norm_representatives(tracer, args, kwargs, result, exc):
    problem, bound = _arg(args, kwargs, 0, "problem"), _arg(args, kwargs, 1, "coeff_bound")
    _add(tracer, "rep_candidates", (2 * bound + 1) ** problem.field.degree - 1)
    if result is not None:
        _add(tracer, "representatives_found", len(result.representatives))


def _solve_bruteforce(tracer, args, kwargs, result, exc):
    problem, box = _arg(args, kwargs, 0, "problem"), _arg(args, kwargs, 1, "box")
    _add(tracer, "prefixes", (2 * box + 1) ** max(problem.n - 1, 1))


def _solve_unit_equation(tracer, args, kwargs, result, exc):
    grp, bound = _arg(args, kwargs, 1, "grp"), _arg(args, kwargs, 2, "expo_bound")
    _add(tracer, "exponent_tuples", (2 * bound + 1) ** len(grp.generators))


def _find_coincidences(tracer, args, kwargs, result, exc):
    problem = _arg(args, kwargs, 0, "problem")
    recurrence = _arg(args, kwargs, 2, "recurrence")
    k_box, h_box = _arg(args, kwargs, 3, "k_box"), _arg(args, kwargs, 4, "h_box")
    crs = _arg(args, kwargs, 5, "component_recurrences")
    _add(tracer, "g_points", (k_box + 1) ** recurrence.vars)
    if crs is None:
        entries = (h_box + 1) ** problem.unit_system.rank
    else:
        entries = sum(
            cr.h_valid(h)
            for cr in crs
            for h in product(range(h_box + 1), repeat=cr.recurrence.vars)
        )
    _add(tracer, "h_table_entries", entries)
    if result is not None:
        _add(tracer, "hits", len(result))


def _unit_decompose(tracer, args, kwargs, result, exc):
    _add(tracer, "unit_decompose_ok", exc is None)


OBSERVERS = {
    "normform.norm_representatives": _norm_representatives,
    "normform.solve_bruteforce": _solve_bruteforce,
    "uniteq.solve_unit_equation": _solve_unit_equation,
    "intersect.find_coincidences": _find_coincidences,
    "units.unit_decompose": _unit_decompose,
}


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(totals, observed, outcomes, passes):
    """{name: (value, unit)} for one pass; outcomes are the outputs of the
    intersection instances of all traced passes."""
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}

    def get(name):
        return totals.get(name, zero)

    def per_pass(x):
        x /= passes
        return int(x) if float(x).is_integer() else x

    m = {}

    def count(name, value):
        m[name] = (per_pass(value), "count")

    def secs(name, value):
        m[name] = (value / passes, "s")

    for op in ("mul", "pow", "inverse"):
        count(f"numberfield.{op}_calls", get(f"numberfield.{op}")["calls"])
        secs(f"numberfield.{op}_s", get(f"numberfield.{op}")["incl_s"])
    for fn in ("splitting_container", "torsion_units", "factor_over_field"):
        count(f"numberfield.{fn}_calls", get(f"numberfield.{fn}")["calls"])
        secs(f"numberfield.{fn}_self_s", get(f"numberfield.{fn}")["self_s"])

    ud = get("units.unit_decompose")
    secs("units.unit_decompose_s", ud["incl_s"])
    count("units.unit_decompose_calls", ud["calls"])
    m["units.unit_decompose_ok_ratio"] = (
        _ratio(observed.get("unit_decompose_ok", 0), ud["calls"]), "ratio"
    )

    secs("multirec.evaluate_s", get("multirec.evaluate")["incl_s"])
    count("multirec.evaluate_calls", get("multirec.evaluate")["calls"])
    for fn in ("restrict_sublattice", "mr_reduce", "is_zero_on_progression", "sml_zero_structure"):
        secs(f"multirec.{fn}_s", get(f"multirec.{fn}")["incl_s"])

    secs("normform.norm_representatives_s", get("normform.norm_representatives")["incl_s"])
    count("normform.rep_candidates", observed.get("rep_candidates", 0))
    count("normform.representatives_found", observed.get("representatives_found", 0))
    secs("normform.build_component_recurrences_s",
         get("normform.build_component_recurrences")["incl_s"])
    bf = get("normform.solve_bruteforce")["incl_s"]
    secs("normform.solve_bruteforce_s", bf)
    m["normform.bruteforce_prefixes_per_s"] = (_ratio(observed.get("prefixes", 0), bf), "1/s")

    secs("qpoly.int_roots_s", get("qpoly.int_roots")["incl_s"])
    count("qpoly.int_roots_calls", get("qpoly.int_roots")["calls"])

    ue = get("uniteq.solve_unit_equation")["incl_s"]
    secs("uniteq.solve_unit_equation_s", ue)
    m["uniteq.exponent_tuples_per_s"] = (_ratio(observed.get("exponent_tuples", 0), ue), "1/s")

    count("linalg.solve_calls", get("linalg.solve")["calls"])

    secs("intersect.find_coincidences_self_s", get("intersect.find_coincidences")["self_s"])
    for key in ("h_table_entries", "g_points", "hits"):
        count(f"intersect.{key}", observed.get(key, 0))
    m["intersect.hit_ratio"] = (
        _ratio(observed.get("hits", 0), observed.get("g_points", 0)), "ratio"
    )
    secs("intersect.sample_verify_s", get("intersect.sample_verify")["incl_s"])
    secs("intersect.fit_linear_dependencies_s",
         get("intersect.fit_linear_dependencies")["incl_s"])
    secs("intersect.detect_self_s",
         get("intersect.detect_exception")["self_s"]
         + get("intersect.detect_reduced_exception")["self_s"])

    steps = dict.fromkeys(DEMOTION_STEPS + ("other",), 0)
    certificates = 0
    for out in outcomes:
        if out["certificate"]:
            certificates += 1
        elif out["step"] is not None:
            steps[out["step"] if out["step"] in steps else "other"] += 1
    count("intersect.certificates", certificates)
    for step, n in steps.items():
        count(f"intersect.demotions.{step}", n)

    secs("cli.main_self_s", sum(
        rec["self_s"] for name, rec in totals.items() if name.startswith("cli.")
    ))
    return m
