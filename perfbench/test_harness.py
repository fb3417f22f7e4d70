"""Self-test of the benchmark harness: the oracle must reproduce known
values and must reject wrong output. Run with

    PYTHONPATH=src python -m pytest perfbench/test_harness.py
"""

import copy
from fractions import Fraction
from pathlib import Path

import oracle

PELL_X = [1, 3, 17, 99, 577, 3363, 19601, 114243, 665857]


def test_oracle_reproduces_pell_x_values():
    # 1 + sqrt 2 has norm -1, so only even powers solve x^2 - 2y^2 = 1
    family = oracle.UnitFamily([-2, 0, 1], [[1, 1]])
    xs = sorted(x for x in family.table(16, 1) if x <= 10**6)
    assert xs == PELL_X
    brute = sorted({x for x, _ in oracle.pell_solutions(2, 1, 10**5) if x > 0})
    assert brute == [x for x in PELL_X if x <= 10**5]


def _readme_case():
    """G(k) = x-coordinate of (3 + 2 sqrt 2)^(2k+1), the README example."""
    family = oracle.UnitFamily([-2, 0, 1], [[3, 2]])

    def g(k):
        return family.coords((2 * k[0] + 1,))[0]

    hits = []
    for k in range(6):
        h = 2 * k + 1
        hits.append({"k": [k], "h": [h], "x": int(g((k,))),
                     "full_vector": [int(c) for c in family.coords((h,))]})
    return family, g, hits


def test_oracle_accepts_the_right_hit_set():
    family, g, hits = _readme_case()
    assert oracle.check_hits(family, g, 5, 12, 1, 1, hits, complete=True) == []


def test_oracle_rejects_wrong_hit_sets():
    family, g, hits = _readme_case()
    wrong_x = copy.deepcopy(hits)
    wrong_x[2]["x"] += 2
    wrong_h = copy.deepcopy(hits)
    wrong_h[3]["h"] = [wrong_h[3]["h"][0] + 1]
    wrong_vector = copy.deepcopy(hits)
    wrong_vector[1]["full_vector"][1] = -wrong_vector[1]["full_vector"][1]
    bogus = hits + [{"k": [5], "h": [0], "x": 1}]
    for bad in (hits[:-1], wrong_x, wrong_h, wrong_vector, bogus):
        assert oracle.check_hits(family, g, 5, 12, 1, 1, bad, complete=True)


def test_oracle_rejects_a_wrong_certificate():
    family, g, _ = _readme_case()
    cert = {"A": [[2]], "b": [1], "offsets": [0], "steps": [1]}
    planted = (((2,),), (1,))
    assert oracle.check_certificate(family, g, cert, planted, 1, 50) == []
    assert oracle.check_certificate(family, g, dict(cert, b=[3]), planted, 1, 50)
    assert oracle.check_certificate(
        family, lambda k: g(k) + (k[0] == 52), cert, planted, 1, 50
    )


def test_oracle_box_solvers():
    assert oracle.norm_form_poly([-2, 0, 0, 1], [[1], [0, 1], [0, 0, 1]]) == {
        (3, 0, 0): 1, (0, 3, 0): 2, (0, 0, 3): 4, (1, 1, 1): -6,
    }
    cubic_units = oracle.norm_form_solutions([-2, 0, 0, 1], 1, 2)
    assert (1, 1, 1) in cubic_units and (-1, 1, 0) in cubic_units
    assert oracle.check_zero_structure(
        [(1, -1), (1, 1)], 50, {"progressions": [[1, 2]], "sporadic": []}, [(1, 2)], []
    ) == []
    assert oracle.check_zero_structure(
        [(1, 2), (-8, 1)], 50, {"progressions": [], "sporadic": [4]}, [], [3]
    )
    assert oracle.unit_equation_solutions([Fraction(2), Fraction(-1)], [[2, 3]], 1) == [
        ((1, 1), (0,), []), ((2, 3), (1,), []),
    ]


def test_workload_output_is_checked(tmp_path: Path):
    import workloads

    wl = workloads.Workload("quad-certify", tmp_path)
    kind = wl.kinds["readme-cli"]
    out = kind.run({})
    assert out["certificate"] and kind.check({}, out) == []
    tampered = copy.deepcopy(out)
    tampered["b"] = [3]
    assert kind.check({}, tampered)
