"""Field-kernel microbenchmarks on seeded elements.

Multiplication and inverse of ``NumberFieldElement`` at degree 2 and in the
ambient fields of degree 6 and 8 that the higher-degree workload computes
in (the splitting fields of 2^(1/3) and 2^(1/4)), and multiplication at
degree 2 on powers of 3 + 2 sqrt 2 with coefficients of hundreds of bits
(``d2_big``), as on the certificate path. Each figure is the median over
``REPEATS`` timed passes, after one untimed pass, in microseconds per
operation.
"""

from __future__ import annotations

import random
import statistics
import time

from normrec import numberfield

OPERANDS = 16
REPEATS = 7


def _elements(K, rng):
    out = []
    while len(out) < OPERANDS:
        e = K.element([rng.randint(-9, 9) for _ in range(K.degree)])
        if not e.is_zero():
            out.append(e)
    return out


def _us_per_op(op, operands):
    for args in operands:
        op(*args)
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for args in operands:
            op(*args)
        samples.append((time.perf_counter() - start) / len(operands))
    return statistics.median(samples) * 1e6


def run(seed):
    rng = random.Random(f"microbench/{seed}")
    fields = {
        "d2": numberfield.field_create([-2, 0, 1]),
        "d6": numberfield.splitting_container(numberfield.field_create([-2, 0, 0, 1])).ambient,
        "d8": numberfield.splitting_container(numberfield.field_create([-2, 0, 0, 0, 1])).ambient,
    }
    eps = fields["d2"].element([3, 2])
    big = [eps ** rng.randint(120, 180) for _ in range(OPERANDS)]
    operands = {label: _elements(K, rng) for label, K in fields.items()}
    operands["d2_big"] = big

    def mul(a, b):
        return a * b

    out = {}
    for label, elts in operands.items():
        pairs = list(zip(elts, elts[1:] + elts[:1]))
        out[f"numberfield.mul_us.{label}"] = _us_per_op(mul, pairs)
    for label in ("d2", "d6", "d8"):
        out[f"numberfield.inverse_us.{label}"] = _us_per_op(
            numberfield.NumberFieldElement.inverse, [(e,) for e in operands[label]]
        )
    return out
