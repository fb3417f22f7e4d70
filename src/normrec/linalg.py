"""Generic exact linear algebra via Gaussian elimination.

Works over any field whose elements support +, -, *, / and == comparison
(Fraction or NumberFieldElement). All routines are allocation-happy but
exact; sizes stay small at desk scale.
"""

from __future__ import annotations

from fractions import Fraction


def _clone(mat):
    return [list(row) for row in mat]


def det(mat, zero):
    """Determinant by fraction-free-ish elimination with exact division."""
    n = len(mat)
    if n == 0:
        raise ValueError("empty matrix")
    m = _clone(mat)
    sign = 1
    result = None
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != zero), None)
        if piv is None:
            return zero
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        for r in range(col + 1, n):
            if m[r][col] != zero:
                f = m[r][col] / m[col][col]
                for c in range(col, n):
                    m[r][c] = m[r][c] - f * m[col][c]
    result = m[0][0]
    for i in range(1, n):
        result = result * m[i][i]
    if sign < 0:
        result = -result
    return result


def inverse(mat, zero, one):
    n = len(mat)
    m = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != zero), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        m[col], m[piv] = m[piv], m[col]
        inv_piv = one / m[col][col]
        m[col] = [x * inv_piv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != zero:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [row[n:] for row in m]


def solve(mat, rhs, zero, one):
    """Solve mat * x = rhs exactly; returns None if inconsistent.

    mat is rows x cols (possibly non-square); returns one solution with
    free variables set to zero.
    """
    rows, cols = len(mat), len(mat[0]) if mat else 0
    m = [list(mat[i]) + [rhs[i]] for i in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != zero), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv_piv = one / m[r][c]
        m[r] = [x * inv_piv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != zero:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if m[i][cols] != zero:
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
    rows = len(mat)
    if rows == 0:
        return 0
    cols = len(mat[0])
    m = _clone(mat)
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != zero), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            if m[i][c] != zero:
                f = m[i][c] / m[r][c]
                for j in range(c, cols):
                    m[i][j] = m[i][j] - f * m[r][j]
        r += 1
        if r == rows:
            break
    return r


def nullspace_rational(mat):
    """Basis of the rational nullspace of an integer/rational matrix.

    Returns a list of Fraction vectors. Dedicated to Fraction entries.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    m = [[Fraction(x) for x in row] for row in mat]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


def charpoly(mat):
    """Characteristic polynomial of a square Fraction matrix.

    Faddeev-LeVerrier; returns coefficients lowest degree first, monic.
    """
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    ident = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    coeffs = [Fraction(1)]  # c_n = 1 (leading)
    m_k = [row[:] for row in ident]
    for k in range(1, n + 1):
        am = [
            [sum(a[i][t] * m_k[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs.append(c)
        m_k = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return tuple(reversed(coeffs))
