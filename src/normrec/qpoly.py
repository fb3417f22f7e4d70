"""Exact univariate polynomial arithmetic over Q or a number field.

Polynomials are tuples of coefficients, lowest degree first, with no
trailing zeros (the zero polynomial is the empty tuple). The coefficients
are Fractions or the elements of one NumberField: anything with + - * /
and == 0 works, and every zero a routine needs comes from its operands.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvariantViolated

Poly = tuple  # tuple of Fractions or of NumberFieldElements

ZERO = ()
ONE = (Fraction(1),)


def trim(coeffs) -> Poly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def from_ints(coeffs) -> Poly:
    return trim(Fraction(c) for c in coeffs)


def degree(p: Poly) -> int:
    """Degree of p; -1 for the zero polynomial."""
    return len(p) - 1


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return trim(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ZERO
    out = [p[0] * 0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def scale(p: Poly, c) -> Poly:
    if c == 0:
        return ZERO
    return tuple(a * c for a in p)


def divmod_poly(p: Poly, q: Poly):
    """Exact division with remainder; q must be nonzero."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    dq = degree(q)
    inv_lead = 1 / q[-1]
    quo = []  # highest degree first
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i] * inv_lead
        quo.append(c)
        if c == 0:
            continue
        for j in range(dq + 1):
            rem[i - dq + j] -= c * q[j]
    return trim(reversed(quo)), trim(rem)


def mod(p: Poly, q: Poly) -> Poly:
    return divmod_poly(p, q)[1]


def monic(p: Poly) -> Poly:
    if not p:
        return p
    inv_lead = 1 / p[-1]
    return tuple(c * inv_lead for c in p)


def gcd(p: Poly, q: Poly) -> Poly:
    while q:
        p, q = q, mod(p, q)
    return monic(p)


def xgcd_mod(a: Poly, m: Poly) -> Poly:
    """Inverse of a modulo m, assuming gcd(a, m) = 1."""
    r0, r1 = m, mod(a, m)
    t0, t1 = ZERO, ONE
    while r1:
        q, r = divmod_poly(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, sub(t0, mul(q, t1))
    if degree(r0) != 0:
        raise ZeroDivisionError("element is not invertible modulo m")
    return scale(t0, 1 / r0[0])


def deriv(p: Poly) -> Poly:
    return trim(i * p[i] for i in range(1, len(p)))


def evaluate(p: Poly, x):
    acc = x * 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def compose(p: Poly, q: Poly) -> Poly:
    """p(q(x))."""
    acc = ZERO
    for c in reversed(p):
        acc = add(mul(acc, q), (c,) if c != 0 else ())
    return acc


def is_squarefree(p: Poly) -> bool:
    return degree(gcd(p, deriv(p))) == 0


def int_roots(p, bound=None):
    """Integer roots of an integer-coefficient polynomial, |root| <= bound.

    Fast paths for degree <= 2; otherwise scans divisor candidates of the
    trailing coefficient.
    """
    from math import isqrt

    p = trim(Fraction(c) for c in p)
    if not p:
        raise ValueError("zero polynomial has every root")
    roots = set()
    # pull out x = 0 roots
    k = 0
    while k < len(p) and p[k] == 0:
        k += 1
    if k > 0:
        roots.add(0)
        p = p[k:]
    d = degree(p)
    if d == 0:
        pass
    elif d == 1:
        b, a = p[0], p[1]
        r = -b / a
        if r.denominator == 1:
            roots.add(int(r))
    elif d == 2:
        c, b, a = p[0], p[1], p[2]
        disc = b * b - 4 * a * c
        if disc >= 0 and disc.denominator == 1:
            s = isqrt(int(disc))
            if s * s == int(disc):
                for sign in (1, -1):
                    r = (-b + sign * s) / (2 * a)
                    if r.denominator == 1:
                        roots.add(int(r))
    else:
        c0 = p[0]
        if c0 == 0:
            raise InvariantViolated("x = 0 roots were not divided out")
        n = abs(int(c0 * c0.denominator))  # integer multiple of the constant term
        divs = set()
        i = 1
        while i * i <= n:
            if n % i == 0:
                divs.add(i)
                divs.add(n // i)
            i += 1
        for t in divs:
            for cand in (t, -t):
                if bound is not None and abs(cand) > bound:
                    continue
                if evaluate(p, Fraction(cand)) == 0:
                    roots.add(cand)
    if bound is not None:
        roots = {r for r in roots if abs(r) <= bound}
    return sorted(roots)
