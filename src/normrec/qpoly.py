"""Exact univariate polynomial arithmetic over Q or a number field.

Polynomials are tuples of coefficients, lowest degree first, with no
trailing zeros (the zero polynomial is the empty tuple). The coefficients
are Fractions or the elements of one NumberField: anything with + - * /
and == 0 works, and every zero a routine needs comes from its operands.
``int_roots`` is the exception: it takes integer coefficients and works on
plain ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import index

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


def compose(p: Poly, q: Poly) -> Poly:
    """p(q(x))."""
    acc = ZERO
    for c in reversed(p):
        acc = add(mul(acc, q), (c,) if c != 0 else ())
    return acc


def is_squarefree(p: Poly) -> bool:
    return degree(gcd(p, deriv(p))) == 0


def _quadratic_roots(a, b, disc):
    """Integer roots of a*x^2 + b*x + c (integers, a != 0), ascending, given
    its discriminant disc = b^2 - 4ac."""
    if disc < 0:
        return []
    s = isqrt(disc)
    if s * s != disc:
        return []
    two_a = 2 * a
    return sorted({(e - b) // two_a for e in (s, -s) if (e - b) % two_a == 0})


def int_roots(p, bound=None):
    """Integer roots of an integer-coefficient polynomial, ascending: those
    with |root| <= bound, or all of them when bound is None.

    After the x = 0 roots are divided out, degrees 1 and 2 are solved in
    closed form. From degree 3 on, a root t divides the constant term c0
    and obeys the Cauchy bound |t| <= 1 + max_{i<d} |c_i| // |c_d|. The
    candidates up to the smaller of that bound and ``bound`` are read off
    a divisor scan, which stops at sqrt|c0| (pairing t with |c0| // t) when
    that comes first, and each is checked by integer Horner evaluation.
    """
    p = trim(index(c) for c in p)
    if not p:
        raise ValueError("zero polynomial has every root")
    k = 0
    while p[k] == 0:
        k += 1
    roots = {0} if k else set()
    p = p[k:]
    d = len(p) - 1
    if d == 1:
        if p[0] % p[1] == 0:
            roots.add(-p[0] // p[1])
    elif d == 2:
        c, b, a = p
        roots.update(_quadratic_roots(a, b, b * b - 4 * a * c))
    elif d >= 3:
        limit = 1 + max(abs(c) for c in p[:-1]) // abs(p[-1])
        if bound is not None:
            limit = min(limit, bound)
        c0 = abs(p[0])
        r = isqrt(c0)
        if limit <= r:
            cands = [t for t in range(1, limit + 1) if c0 % t == 0]
        else:
            cands = {u for t in range(1, r + 1) if c0 % t == 0 for u in (t, c0 // t) if u <= limit}
        for t in cands:
            for x in (t, -t):
                acc = 0
                for c in reversed(p):
                    acc = acc * x + c
                if acc == 0:
                    roots.add(x)
    if bound is not None:
        roots = {x for x in roots if abs(x) <= bound}
    return sorted(roots)
