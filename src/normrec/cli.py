"""Command line front end: declarative JSON problem files, one subcommand
per pipeline stage, machine readable output documents.

Exit codes: 0 success (any classification), 2 input error, 3 capability
error (degree caps, non-simple recurrences, dimension caps).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import (
    DegreeCapExceeded,
    DimensionCapExceeded,
    NonSimpleUnsupported,
    NormrecError,
)
from .intersect import (
    IntersectConfig,
    detect_exception,
    detect_reduced_exception,
    recurrence_document,
    result_document,
    _element_doc,
)
from .multirec import MultiRecurrence, sml_zero_structure
from .normform import NormFormProblem, build_component_recurrences, solve_bruteforce
from .numberfield import field_create
from .uniteq import GroupSpec, ess_bound, solve_unit_equation
from .units import UnitSystem, auto_unit_system, is_unit


class ProblemFileError(Exception):
    """Input file error with a field-path location."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


def _parse_rational(value, path):
    try:
        if isinstance(value, bool):
            raise ValueError
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise ProblemFileError(path, f"expected an integer or rational string, got {value!r}")


def _parse_element(field, value, path):
    """Scalar -> rational element; list -> coefficient vector in the power basis."""
    if isinstance(value, (int, str)):
        return field.from_rational(_parse_rational(value, path))
    if isinstance(value, list):
        if len(value) > field.degree:
            raise ProblemFileError(path, f"coefficient vector longer than degree {field.degree}")
        coeffs = [_parse_rational(c, f"{path}[{i}]") for i, c in enumerate(value)]
        coeffs += [Fraction(0)] * (field.degree - len(coeffs))
        return field.element(coeffs)
    raise ProblemFileError(path, "expected a scalar or a coefficient vector")


def _parse_field(doc, path="field"):
    raw = doc.get("field")
    if raw is None:
        raise ProblemFileError(path, "missing")
    if not isinstance(raw, list) or len(raw) < 2:
        raise ProblemFileError(path, "minimal polynomial needs at least degree 1")
    coeffs = [_parse_rational(c, f"{path}[{i}]") for i, c in enumerate(raw)]
    if any(c.denominator != 1 for c in coeffs):
        raise ProblemFileError(path, "minimal polynomial must have integer coefficients")
    try:
        return field_create([int(c) for c in coeffs])
    except NormrecError as exc:
        raise ProblemFileError(path, str(exc)) from exc


def _parse_recurrence(field, doc, path="recurrence"):
    raw = doc.get("recurrence")
    if raw is None:
        raise ProblemFileError(path, "missing")
    if not isinstance(raw, dict) or "vars" not in raw or "terms" not in raw:
        raise ProblemFileError(path, "needs integer 'vars' and a 'terms' list")
    nvars = _positive_int(raw["vars"], f"{path}.vars")
    raw_terms = raw["terms"]
    if not isinstance(raw_terms, list):
        raise ProblemFileError(f"{path}.terms", "expected a list")
    terms = []
    for i, t in enumerate(raw_terms):
        tpath = f"{path}.terms[{i}]"
        if not isinstance(t, dict):
            raise ProblemFileError(tpath, "expected an object")
        if "base" not in t:
            raise ProblemFileError(tpath, "missing base")
        if not isinstance(t["base"], list):
            raise ProblemFileError(f"{tpath}.base", "expected a list")
        base = tuple(
            _parse_element(field, b, f"{tpath}.base[{j}]")
            for j, b in enumerate(t["base"])
        )
        if len(base) != nvars:
            raise ProblemFileError(tpath, f"base has {len(base)} entries, expected {nvars}")
        raw_coeff = t.get("coeff", 1)
        if isinstance(raw_coeff, dict):
            coeff = _parse_monomials(
                field, raw_coeff.get("monomials", []), nvars, f"{tpath}.coeff.monomials"
            )
        else:
            coeff = _parse_element(field, raw_coeff, f"{tpath}.coeff")
        terms.append((coeff, base))
    try:
        return MultiRecurrence(field, nvars, terms)
    except (ValueError, NormrecError) as exc:
        raise ProblemFileError(path, str(exc)) from exc


def _parse_monomials(field, raw, nvars, path):
    """The constant of a coefficient written as monomials; a nonzero
    monomial of positive degree is a polynomial coefficient, unsupported."""
    if not isinstance(raw, list):
        raise ProblemFileError(path, "expected a list")
    seen = set()
    constant = field.zero()
    for j, m in enumerate(raw):
        if not isinstance(m, dict) or "exps" not in m or "value" not in m:
            raise ProblemFileError(f"{path}[{j}]", "expected an object with 'exps' and 'value'")
        exps = m["exps"]
        if not isinstance(exps, list) or len(exps) != nvars:
            raise ProblemFileError(f"{path}[{j}].exps", f"expected a list of {nvars} exponents")
        exps = tuple(_nonnegative_int(e, f"{path}[{j}].exps[{i}]") for i, e in enumerate(exps))
        if exps in seen:
            raise ProblemFileError(f"{path}[{j}].exps", f"repeats the exponents {list(exps)}")
        seen.add(exps)
        value = _parse_element(field, m["value"], f"{path}[{j}]")
        if not any(exps):
            constant = value
        elif not value.is_zero():
            raise NonSimpleUnsupported(
                f"{path}[{j}]: polynomial coefficients are not supported, only constants"
            )
    return constant


def _parse_problem(doc):
    field = _parse_field(doc)
    raw_alphas = doc.get("alphas")
    if not isinstance(raw_alphas, list) or not raw_alphas:
        raise ProblemFileError("alphas", "need a nonempty list of coefficient vectors")
    alphas = [
        _parse_element(field, a, f"alphas[{i}]") for i, a in enumerate(raw_alphas)
    ]
    if "m" not in doc:
        raise ProblemFileError("m", "missing")
    m = _parse_rational(doc["m"], "m")
    if m.denominator != 1:
        raise ProblemFileError("m", "target norm must be an integer")
    if m == 0:
        raise ProblemFileError("m", "target norm must be nonzero")
    unit_system = None
    if doc.get("units"):
        if not isinstance(doc["units"], list):
            raise ProblemFileError("units", "expected a list of coefficient vectors")
        units = []
        for i, u in enumerate(doc["units"]):
            unit = _parse_element(field, u, f"units[{i}]")
            if not is_unit(unit):
                raise ProblemFileError(f"units[{i}]", f"{u!r} is not a unit")
            units.append(unit)
        unit_system = UnitSystem(field, units)
    elif doc.get("auto_units_quadratic"):
        try:
            unit_system = auto_unit_system(field)
        except NormrecError as exc:
            raise ProblemFileError("auto_units_quadratic", str(exc)) from exc
    search = _search_section(doc)
    max_degree = _positive_int(
        search.get("max_splitting_degree", 24), "search.max_splitting_degree"
    )
    try:
        problem = NormFormProblem(
            field,
            alphas,
            int(m),
            unit_system=unit_system,
            max_splitting_degree=max_degree,
        )
    except ValueError as exc:
        raise ProblemFileError("alphas", str(exc)) from exc
    return problem


def _search_section(doc):
    search = doc.get("search", {})
    if not isinstance(search, dict):
        raise ProblemFileError("search", "expected an object")
    return search


def _nonnegative_int(value, path):
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ProblemFileError(path, f"expected a nonnegative integer, got {value!r}")
    return value


def _positive_int(value, path):
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ProblemFileError(path, f"expected a positive integer, got {value!r}")
    return value


def _parse_config(doc):
    search = _search_section(doc)
    cfg = IntersectConfig()
    for key in ("k_box", "h_box", "structure_threshold"):
        if key in search:
            setattr(cfg, key, _nonnegative_int(search[key], f"search.{key}"))
    return cfg


def _load(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ProblemFileError(path, str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path}:{exc.lineno}", exc.msg) from exc
    if not isinstance(doc, dict):
        raise ProblemFileError(path, "expected a JSON object")
    return doc


def _emit(doc, out=None):
    out = out or sys.stdout
    json.dump(doc, out, indent=2, sort_keys=True)
    out.write("\n")


def cmd_solve(args):
    doc = _load(args.file)
    problem = _parse_problem(doc)
    try:
        sols = solve_bruteforce(problem, args.box)
    except ValueError as exc:
        raise ProblemFileError("--box", str(exc)) from exc
    _emit(
        {
            "command": "solve",
            "m": str(problem.m),
            "box": args.box,
            "count": len(sols),
            "solutions": [list(x) for x in sols],
        }
    )
    return 0


def cmd_recurrences(args):
    doc = _load(args.file)
    problem = _parse_problem(doc)
    if problem.unit_system is None:
        raise ProblemFileError("units", "component recurrences need a unit system")
    if not 1 <= args.component <= problem.n:
        raise ProblemFileError(
            "--component", f"must be in 1..{problem.n}, got {args.component}"
        )
    crs = build_component_recurrences(problem, args.component)
    _emit(
        {
            "command": "recurrences",
            "component": args.component,
            "recurrences": [
                {
                    "mu": _element_doc(cr.mu),
                    "torsion_power": cr.torsion_power,
                    "parity_mask": list(cr.parity_mask),
                    "parity": cr.parity,
                    "embedding_indices": list(cr.embedding_indices),
                    "recurrence": recurrence_document(cr.recurrence),
                }
                for cr in crs
            ],
        }
    )
    return 0


def cmd_intersect(args):
    doc = _load(args.file)
    problem = _parse_problem(doc)
    if problem.unit_system is None:
        raise ProblemFileError("units", "intersection needs a unit system")
    recurrence = _parse_recurrence(problem.field, doc)
    cfg = _parse_config(doc)
    component = doc.get("component", 1)
    if (
        not isinstance(component, int)
        or isinstance(component, bool)
        or not 1 <= component <= problem.n
    ):
        raise ProblemFileError(
            "component", f"must be an integer in 1..{problem.n}, got {component!r}"
        )
    if recurrence.vars == 1:
        result = detect_reduced_exception(problem, component, recurrence, cfg)
    else:
        result = detect_exception(problem, component, recurrence, cfg)
    out = result_document(problem, recurrence, result)
    out["command"] = "intersect"
    _emit(out)
    return 0


def cmd_essbound(args):
    try:
        e = ess_bound(args.n, args.r)
    except ValueError as exc:
        raise ProblemFileError("--n/--r", str(exc)) from exc
    _emit({"command": "essbound", "n": args.n, "r": args.r, "E": str(e), "bound": f"exp({e})"})
    return 0


def cmd_smlzeros(args):
    doc = _load(args.file)
    field = _parse_field(doc)
    recurrence = _parse_recurrence(field, doc)
    if recurrence.vars != 1:
        raise ProblemFileError(
            "recurrence.vars", f"zero structure needs one variable, got {recurrence.vars}"
        )
    zs = sml_zero_structure(recurrence, _nonnegative_int(args.bound, "--bound"))
    _emit(
        {
            "command": "smlzeros",
            "bound": args.bound,
            "sporadic": zs.sporadic,
            "progressions": [{"offset": c, "step": d} for c, d in zs.progressions],
        }
    )
    return 0


def cmd_uniteq(args):
    doc = _load(args.file)
    field = _parse_field(doc)
    raw_a = doc.get("a")
    if not isinstance(raw_a, list) or not raw_a:
        raise ProblemFileError("a", "need a nonempty coefficient list")
    a = [_parse_element(field, v, f"a[{i}]") for i, v in enumerate(raw_a)]
    raw_gens = doc.get("generators", [])
    if not isinstance(raw_gens, list):
        raise ProblemFileError("generators", "expected a list of generator vectors")
    gens = []
    for i, g in enumerate(raw_gens):
        if not isinstance(g, list):
            raise ProblemFileError(f"generators[{i}]", "expected a list of field elements")
        gens.append(
            [_parse_element(field, v, f"generators[{i}][{j}]") for j, v in enumerate(g)]
        )
    try:
        grp = GroupSpec(len(a), gens)
    except ValueError as exc:
        raise ProblemFileError("generators", str(exc)) from exc
    # an explicit --expo-bound wins over the file's search.expo_bound
    search = _search_section(doc)
    if args.expo_bound is not None:
        bound = _nonnegative_int(args.expo_bound, "--expo-bound")
    else:
        bound = _nonnegative_int(search.get("expo_bound", 3), "search.expo_bound")
    try:
        sols = solve_unit_equation(a, grp, bound)
    except ValueError as exc:
        raise ProblemFileError("a", str(exc)) from exc
    _emit(
        {
            "command": "uniteq",
            "expo_bound": bound,
            "solutions": [
                {
                    "y": [_element_doc(y) for y in s.y],
                    "exponents": list(s.exponents),
                    "degenerate": s.degenerate,
                    "vanishing_subsets": [list(t) for t in s.vanishing_subsets],
                }
                for s in sols
            ],
        }
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="normrec",
        description="Exact analysis of norm form solution components against multi-recurrences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="brute force the norm form equation in a box")
    p.add_argument("file")
    p.add_argument("--box", type=int, default=100)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("recurrences", help="list the component recurrences")
    p.add_argument("file")
    p.add_argument("--component", type=int, default=1)
    p.set_defaults(func=cmd_recurrences)

    p = sub.add_parser("intersect", help="detect exception structure or report finiteness")
    p.add_argument("file")
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("essbound", help="exact exponent of the non-degenerate solution bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_essbound)

    p = sub.add_parser("smlzeros", help="zero structure of a one-variable recurrence")
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=100)
    p.set_defaults(func=cmd_smlzeros)

    p = sub.add_parser("uniteq", help="solve a generalized unit equation in a box")
    p.add_argument("file")
    p.add_argument(
        "--expo-bound", type=int, default=None,
        help="exponent box; overrides the file's search.expo_bound (default 3)",
    )
    p.set_defaults(func=cmd_uniteq)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProblemFileError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (DegreeCapExceeded, NonSimpleUnsupported, DimensionCapExceeded) as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
