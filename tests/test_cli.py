"""CLI subcommands, problem file parsing, exit codes, serialization."""

import json
from pathlib import Path

import pytest

from normrec.cli import main

PELL_FILE = {
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
    "search": {"k_box": 10, "h_box": 30},
}


# (id, one recurrence term, the path its input error names)
MALFORMED_TERMS = [
    ("monomial-without-exps", {"coeff": {"monomials": [{"value": 1}]}, "base": [2]},
     "recurrence.terms[0].coeff.monomials[0]"),
    ("repeated-exps",
     {"coeff": {"monomials": [{"exps": [0], "value": 2}, {"exps": [0], "value": -1}]},
      "base": [-1]},
     "recurrence.terms[0].coeff.monomials[1].exps"),
    ("exps-not-integers", {"coeff": {"monomials": [{"exps": ["x"], "value": 1}]}, "base": [2]},
     "recurrence.terms[0].coeff.monomials[0].exps[0]"),
    ("monomials-not-a-list", {"coeff": {"monomials": 5}, "base": [2]},
     "recurrence.terms[0].coeff.monomials"),
    ("base-not-a-list", {"coeff": 1, "base": 5}, "recurrence.terms[0].base"),
]

# (id, a recurrence.vars that is not a positive integer)
BAD_VARS = [
    ("vars-negative", -1), ("vars-zero", 0), ("vars-float", 1.5),
    ("vars-string", "1"), ("vars-bool", True),
]

DATA = Path(__file__).parent / "data"


@pytest.fixture
def pell_file(tmp_path):
    p = tmp_path / "pell.json"
    p.write_text(json.dumps(PELL_FILE))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_solve(pell_file, capsys):
    code, doc = run(capsys, ["solve", pell_file, "--box", "100"])
    assert code == 0
    assert doc["count"] == 14
    assert [3, 2] in doc["solutions"] and [1, 0] in doc["solutions"]


def test_solve_empty(tmp_path, capsys):
    doc = dict(PELL_FILE, m=5)
    p = tmp_path / "m5.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, ["solve", str(p), "--box", "50"])
    assert code == 0 and out["solutions"] == []


def test_solve_malformed_file(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"field": [-2, 0')
    assert main(["solve", str(p)]) == 2
    capsys.readouterr()


def test_solve_missing_m(tmp_path, capsys):
    doc = {k: v for k, v in PELL_FILE.items() if k != "m"}
    p = tmp_path / "nom.json"
    p.write_text(json.dumps(doc))
    assert main(["solve", str(p)]) == 2
    capsys.readouterr()


def test_recurrences_tau_values(pell_file, capsys):
    code, doc = run(capsys, ["recurrences", pell_file, "--component", "1"])
    assert code == 0
    rec = doc["recurrences"][0]["recurrence"]
    taus = sorted(m["value"] for t in rec["terms"] for m in t["coeff"])
    assert taus == [["1/2", "0"], ["1/2", "0"]]


def test_recurrences_component_two(pell_file, capsys):
    code, doc = run(capsys, ["recurrences", pell_file, "--component", "2"])
    assert code == 0
    rec = doc["recurrences"][0]["recurrence"]
    taus = sorted(m["value"] for t in rec["terms"] for m in t["coeff"])
    # +-1/(2 sqrt 2) = +-sqrt(2)/4
    assert taus == [["0", "-1/4"], ["0", "1/4"]]


def test_recurrences_out_of_range(pell_file, capsys):
    assert main(["recurrences", pell_file, "--component", "3"]) == 2
    capsys.readouterr()


def test_intersect_certificate(pell_file, capsys):
    code, doc = run(capsys, ["intersect", pell_file])
    assert code == 0
    assert doc["classification"] == "reduced-exception"
    assert doc["a_matrix"] == [[2]] and doc["b_vector"] == [1]


def test_intersect_finite(tmp_path, capsys):
    doc = dict(
        PELL_FILE,
        recurrence={"vars": 1, "terms": [{"coeff": 1, "base": [2]}]},
        search={"k_box": 30, "h_box": 12},
    )
    p = tmp_path / "pow2.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, ["intersect", str(p)])
    assert code == 0
    assert out["classification"] == "finite-within-box"
    assert out["hits"] == [{"x": "1", "k": [0], "h": [0]}]


@pytest.mark.parametrize("threshold", [0, 1])
def test_intersect_without_hits_any_threshold(tmp_path, capsys, threshold):
    doc = dict(
        PELL_FILE,
        recurrence={"vars": 1, "terms": [{"coeff": 2, "base": [7]}]},
        search={"k_box": 5, "h_box": 5, "structure_threshold": threshold},
    )
    p = tmp_path / "pow7.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, ["intersect", str(p)])
    assert code == 0
    assert out["classification"] == "finite-within-box"
    assert out["hits"] == [] and out["notes"] == []


def test_intersect_hypothesis_violation(tmp_path, capsys):
    doc = dict(
        PELL_FILE,
        recurrence={
            "vars": 2,
            "terms": [{"coeff": 1, "base": ["1/2", 2]}],
        },
        search={"k_box": 5, "h_box": 5},
    )
    p = tmp_path / "nonint.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, ["intersect", str(p)])
    assert code == 0
    assert out["classification"].startswith("hypothesis-violation")


def test_essbound(capsys):
    code, doc = run(capsys, ["essbound", "--n", "2", "--r", "1"])
    assert code == 0 and doc["E"] == "5971968"
    code, doc = run(capsys, ["essbound", "--n", "1", "--r", "0"])
    assert code == 0 and doc["E"] == "216"


def test_essbound_invalid(capsys):
    assert main(["essbound", "--n", "0", "--r", "1"]) == 2
    capsys.readouterr()


def test_smlzeros(tmp_path, capsys):
    doc = {
        "field": [0, 1],
        "recurrence": {
            "vars": 1,
            "terms": [{"coeff": 1, "base": [-1]}, {"coeff": 1, "base": [1]}],
        },
    }
    p = tmp_path / "sml.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, ["smlzeros", str(p), "--bound", "50"])
    assert code == 0
    assert out["progressions"] == [{"offset": 1, "step": 2}]
    assert out["sporadic"] == []


def test_smlzeros_nonsimple_exit3(tmp_path, capsys):
    doc = {
        "field": [0, 1],
        "recurrence": {
            "vars": 1,
            "terms": [
                {
                    "coeff": {"monomials": [{"exps": [1], "value": 1}]},
                    "base": [2],
                }
            ],
        },
    }
    p = tmp_path / "nonsimple.json"
    p.write_text(json.dumps(doc))
    assert main(["smlzeros", str(p)]) == 3
    capsys.readouterr()


def test_intersect_nonsimple_exit3(tmp_path, capsys):
    """A polynomial coefficient, here k + 1, is a capability error; a
    zero-valued monomial of positive degree is dropped instead."""
    coeff = {"monomials": [{"exps": [0], "value": 1}, {"exps": [1], "value": 1}]}
    doc = dict(PELL_FILE, recurrence={"vars": 1, "terms": [{"coeff": coeff, "base": [2]}]})
    p = tmp_path / "nonsimple.json"
    p.write_text(json.dumps(doc))
    assert main(["intersect", str(p)]) == 3
    assert capsys.readouterr().err.startswith(
        "capability error: recurrence.terms[0].coeff.monomials[1]: "
    )
    coeff["monomials"][1]["value"] = 0
    p.write_text(json.dumps(doc))
    code, out = run(capsys, ["intersect", str(p)])
    assert code == 0 and out["hits"] == [{"x": "1", "k": [0], "h": [0]}]


@pytest.mark.parametrize(
    "recurrence, extra, path",
    [({"vars": 1, "terms": [term]}, [], path) for _, term, path in MALFORMED_TERMS]
    + [
        ({"vars": 2, "terms": [{"coeff": 1, "base": [2, 3]}]}, [], "recurrence.vars"),
        ({"vars": 1, "terms": [{"coeff": 1, "base": [2]}]}, ["--bound", "-3"], "--bound"),
    ],
    ids=[name for name, _, _ in MALFORMED_TERMS] + ["two-variables", "negative-bound"],
)
def test_smlzeros_input_errors_name_their_path(tmp_path, capsys, recurrence, extra, path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"field": [0, 1], "recurrence": recurrence}))
    assert main(["smlzeros", str(p), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {path}: ")


def test_uniteq(tmp_path, capsys):
    doc = {
        "field": [0, 1],
        "a": [1, 1],
        "generators": [[2, 2]],
        "search": {"expo_bound": 3},
    }
    p = tmp_path / "ueq.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, ["uniteq", str(p)])
    assert code == 0
    assert len(out["solutions"]) == 1
    assert out["solutions"][0]["y"] == [["1/2"], ["1/2"]]
    assert out["solutions"][0]["degenerate"] is False


@pytest.mark.parametrize(
    "search, extra, bound, count",
    [
        ({"expo_bound": 0}, ["--expo-bound", "3"], 3, 1),
        ({"expo_bound": 3}, ["--expo-bound", "0"], 0, 0),
        ({"expo_bound": 0}, [], 0, 0),
        ({}, ["--expo-bound", "2"], 2, 1),
        ({}, [], 3, 1),
    ],
    ids=["flag-over-file", "flag-zero-over-file", "file", "flag", "default"],
)
def test_uniteq_bound_precedence(tmp_path, capsys, search, extra, bound, count):
    """An explicit --expo-bound wins, then the file's search.expo_bound, then 3."""
    doc = {"field": [0, 1], "a": [1, 1], "generators": [[2, 2]], "search": search}
    p = tmp_path / "ueq.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, ["uniteq", str(p), *extra])
    assert code == 0
    assert out["expo_bound"] == bound and len(out["solutions"]) == count


@pytest.mark.parametrize(
    "change, extra, path",
    [
        ({"search": 5}, [], "search"),
        ({"search": {"expo_bound": "x"}}, [], "search.expo_bound"),
        ({"search": {"expo_bound": 2.7}}, [], "search.expo_bound"),
        ({"search": {"expo_bound": True}}, [], "search.expo_bound"),
        ({"search": {"expo_bound": -1}}, [], "search.expo_bound"),
        ({}, ["--expo-bound", "-1"], "--expo-bound"),
        ({"generators": 5}, [], "generators"),
        ({"generators": [5]}, [], "generators[0]"),
    ],
    ids=["search-not-object", "bound-string", "bound-float", "bound-bool",
         "bound-negative", "flag-negative", "generators-not-a-list",
         "generator-not-a-list"],
)
def test_uniteq_input_errors_name_their_path(tmp_path, capsys, change, extra, path):
    doc = dict({"field": [0, 1], "a": [1, 1], "generators": [[2, 2]]}, **change)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["uniteq", str(p), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {path}: ")


@pytest.mark.parametrize("command", ["intersect", "recurrences", "solve", "smlzeros", "uniteq"])
@pytest.mark.parametrize("top", [[PELL_FILE], 5], ids=["list", "scalar"])
def test_top_level_not_an_object_exit_2(tmp_path, capsys, command, top):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(top))
    assert main([command, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {p}: expected a JSON object\n"


# (expected document, command line after the input file, input file)
GOLDEN = [
    ("readme_pell", ["intersect"], "readme_pell"),
    ("pell_pow2", ["intersect"], "pell_pow2"),
    ("planted_s2", ["intersect"], "planted_s2"),
    ("cbrt2_power.solve", ["solve", "--box", "24"], "cbrt2_power"),
    ("readme_pell.recurrences", ["recurrences"], "readme_pell"),
    ("qrt2_power.recurrences", ["recurrences"], "qrt2_power"),
    ("sqrt5_m11.recurrences", ["recurrences"], "sqrt5_m11"),
]


@pytest.mark.parametrize(
    "name, argv, source", GOLDEN, ids=[name for name, _, _ in GOLDEN]
)
def test_intersect_golden_documents(capsys, name, argv, source):
    """reduced-exception, finite-within-box with a hit, an s = 2 exception,
    the cubic brute force and the component recurrences over Q(sqrt 2),
    Q(2^(1/4)) and Q(sqrt 5) (two classes of norm 11 with half-integral
    representatives): the whole output document, byte for byte."""
    command, *options = argv
    assert main([command, str(DATA / f"{source}.json"), *options]) == 0
    assert capsys.readouterr().out == (DATA / f"{name}.expected.json").read_text()


def test_output_deterministic(pell_file, capsys):
    main(["intersect", pell_file])
    first = capsys.readouterr().out
    main(["intersect", pell_file])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize(
    "change, path",
    [
        ({"component": 5}, "component"),
        ({"component": "1"}, "component"),
        ({"recurrence": {"vars": 1, "terms": [5]}}, "recurrence.terms[0]"),
        ({"search": {"k_box": -1, "h_box": 30}}, "search.k_box"),
        ({"search": {"k_box": 10, "h_box": -1}}, "search.h_box"),
        ({"search": 5}, "search"),
    ]
    + [({"recurrence": {"vars": 1, "terms": [term]}}, path) for _, term, path in MALFORMED_TERMS]
    + [({"recurrence": {"vars": v, "terms": []}}, "recurrence.vars") for _, v in BAD_VARS],
    ids=["component-out-of-range", "component-string", "term-not-object",
         "negative-k-box", "negative-h-box", "search-not-object"]
    + [name for name, _, _ in MALFORMED_TERMS]
    + [name for name, _ in BAD_VARS],
)
def test_intersect_input_errors_exit_2(tmp_path, capsys, change, path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(dict(PELL_FILE, **change)))
    assert main(["intersect", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {path}: ")


@pytest.mark.parametrize(
    "change, path",
    [
        ({"units": 5}, "units"),
        ({"units": [[2, 0]]}, "units[0]"),
        ({"units": [[3, 2], ["1/2", 0]]}, "units[1]"),
        ({"search": {"max_splitting_degree": "x"}}, "search.max_splitting_degree"),
        ({"search": {"max_splitting_degree": 0}}, "search.max_splitting_degree"),
        ({"search": {"max_splitting_degree": 2.5}}, "search.max_splitting_degree"),
        ({"m": 0}, "m"),
    ],
    ids=["units-not-a-list", "not-a-unit", "second-not-a-unit", "max-degree-string", "max-degree-zero",
         "max-degree-float", "m-zero"],
)
def test_problem_input_errors_name_their_path(tmp_path, capsys, change, path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(dict(PELL_FILE, **change)))
    for argv in (["intersect", str(p)], ["solve", str(p)]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"input error: {path}: ")


def test_solve_negative_box_exit_2(pell_file, capsys):
    assert main(["solve", pell_file, "--box", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: --box: ")
