"""Exact linear algebra: one Gauss-Jordan echelon routine over any field,
plus fraction-free integer kernels.

The field routines work over any field whose elements support +, -, *, /
and == 0 (Fraction or NumberFieldElement). ``det``, ``inverse``, ``solve``,
``rank`` and ``nullspace_rational`` all read the reduced row echelon form
computed by ``_echelon`` (Cohen, GTM 138, section 2.2). ``bareiss_solve``
is the fraction-free integer solve behind field inverses and norms, and
``charpoly`` runs Faddeev-LeVerrier on integers. Sizes stay small at desk
scale.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _echelon(m, one):
    """Reduce the rows of m in place to reduced row echelon form; ``one``
    is the field's unit, which inverts the pivots (so that an integer
    matrix is reduced over Q).

    Returns (pivots, det): the pivot column of each nonzero row, and the
    product of the pivots signed by the row swaps, which is the
    determinant when m is square and nonsingular.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    det = 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            det = -det
        p = m[r][c]
        det = det * p
        # the pivot row is zero left of c, and so is every row below it
        inv_p = one / p
        prow = m[r] = m[r][:c] + [x * inv_p for x in m[r][c:]]
        for i in range(rows):
            f = m[i][c]
            if i != r and f != 0:
                row = m[i]
                row[c:] = [a - f * b for a, b in zip(row[c:], prow[c:])]
        pivots.append(c)
    return pivots, det


def det(mat, zero):
    """Determinant of a square matrix."""
    n = len(mat)
    if n == 0:
        raise ValueError("empty matrix")
    pivots, d = _echelon([list(row) for row in mat], zero + 1)
    return d if len(pivots) == n else zero


def inverse(mat, zero, one):
    n = len(mat)
    m = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(mat)]
    pivots, _ = _echelon(m, one)
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in m]


def solve(mat, rhs, zero, one):
    """Solve mat * x = rhs exactly; returns None if inconsistent.

    mat is rows x cols (possibly non-square); returns one solution with
    free variables set to zero.
    """
    rows, cols = len(mat), len(mat[0]) if mat else 0
    m = [list(mat[i]) + [rhs[i]] for i in range(rows)]
    pivots, _ = _echelon(m, one)
    if pivots and pivots[-1] == cols:  # a pivot in the rhs column
        return None
    x = [zero] * cols
    for i, c in enumerate(pivots):
        x[c] = m[i][cols]
    return x


def bareiss_solve(mat, rhs):
    """Fraction-free Gauss-Jordan elimination on a square integer system.

    Returns (det, y) with det = det(mat) and mat * y = det * rhs, y an
    integer vector; (0, None) when mat is singular. After step k every
    entry is a (k+1)-minor of [mat | rhs] (Bareiss 1968), so each division
    by the previous pivot is exact.
    """
    n = len(mat)
    m = [list(row) + [b] for row, b in zip(mat, rhs)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot_row = m[k]
        p = pivot_row[k]
        for i, row in enumerate(m):
            if i != k:
                c = row[k]
                for j in range(k + 1, n + 1):
                    row[j] = (p * row[j] - c * pivot_row[j]) // prev
        prev = p
    return sign * prev, [sign * row[n] for row in m]


def rank(mat, zero):
    return len(_echelon([list(row) for row in mat], zero + 1)[0])


def nullspace_rational(mat):
    """Basis of the rational nullspace of an integer/rational matrix.

    Returns a list of Fraction vectors, one per free column fc: 1 at fc,
    0 at every other free column, minus the reduced column fc at the pivots.
    """
    m = [[Fraction(x) for x in row] for row in mat]
    cols = len(m[0]) if m else 0
    pivots, _ = _echelon(m, Fraction(1))
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


def charpoly(mat):
    """Characteristic polynomial of a square rational matrix, monic, as
    Fractions lowest degree first.

    With mat = B / D for an integer matrix B, runs Faddeev-LeVerrier on B
    in integers (every M_k is an integer polynomial in B, and k divides the
    trace exactly), then divides the coefficient of x^(n-k) by D^k.
    """
    n = len(mat)
    rat = [[Fraction(x) for x in row] for row in mat]
    den = lcm(*(x.denominator for row in rat for x in row))
    b = [[x.numerator * (den // x.denominator) for x in row] for row in rat]
    coeffs = [1]  # c_n = 1 (leading), then c_(n-1), ..., c_0 of B
    m_k = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        bm = [[sum(x * y for x, y in zip(row, col)) for col in zip(*m_k)] for row in b]
        c = -sum(bm[i][i] for i in range(n)) // k
        coeffs.append(c)
        for i in range(n):
            bm[i][i] += c
        m_k = bm
    return tuple(Fraction(c, den**k) for k, c in reversed(list(enumerate(coeffs))))
