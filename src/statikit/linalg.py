"""Exact integer and rational linear algebra on plain tuples.

Everything here works over Python ints and fractions.Fraction; no floats.
"""

from fractions import Fraction
from math import gcd


def vec_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitive(v):
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = vec_gcd(v)
    if g == 0:
        return tuple(v)
    return tuple(x // g for x in v)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vscale(c, a):
    return tuple(c * x for x in a)


def vneg(a):
    return tuple(-x for x in a)


def is_zero(v):
    return all(x == 0 for x in v)


def lex_positive(v):
    """Canonical sign for a hyperplane normal: first nonzero entry positive."""
    for x in v:
        if x > 0:
            return tuple(v)
        if x < 0:
            return vneg(v)
    return tuple(v)


def _echelon(rows):
    """Row echelon form over Fraction. Returns (rows, pivot column list)."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pr = m[r]
        inv = Fraction(1) / pr[c]
        m[r] = [x * inv for x in pr]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows):
    """Rank of an integer matrix by fraction-free elimination on primitive rows."""
    m = [primitive(r) for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p = m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            if f:
                m[i] = primitive(tuple(p[c] * x - f * y for x, y in zip(m[i], p)))
        r += 1
        if r == len(m):
            break
    return r


def det(rows):
    """Exact determinant of a square integer/rational matrix (Fraction Gaussian elimination)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [[Fraction(x) for x in r] for r in rows]
    sign = 1
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    return out


def smith_invariant_factors(rows):
    """Invariant factors of an integer matrix.

    Deterministic pivoting: smallest nonzero absolute value, ties by
    position. Returns the positive diagonal entries d_1 | d_2 | ... of the
    Smith normal form (zeros dropped).
    """
    m = [list(map(int, r)) for r in rows]
    if not m or not m[0]:
        return []
    rows_n, cols_n = len(m), len(m[0])
    t = 0
    size = min(rows_n, cols_n)
    while t < size:
        pivot = None
        best = None
        for i in range(t, rows_n):
            for j in range(t, cols_n):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[t], m[pi] = m[pi], m[t]
        for row in m:
            row[t], row[pj] = row[pj], row[t]
        # clear row and column t; restart the sweep whenever a remainder
        # smaller than the pivot appears
        while True:
            restart = False
            for i in range(t + 1, rows_n):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    for j in range(t, cols_n):
                        m[i][j] -= q * m[t][j]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, cols_n):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    for i in range(t, rows_n):
                        m[i][j] -= q * m[i][t]
                    if m[t][j]:
                        for i in range(rows_n):
                            m[i][t], m[i][j] = m[i][j], m[i][t]
                        restart = True
                        break
            if not restart:
                break
        t += 1
    diag = [abs(m[i][i]) for i in range(min(rows_n, cols_n)) if m[i][i] != 0]
    # enforce divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[j] % diag[i] != 0:
                    g = gcd(diag[i], diag[j])
                    l = diag[i] * diag[j] // g
                    diag[i], diag[j] = g, l
                    changed = True
    diag.sort()
    return diag


def inverse_unimodular(rows):
    """Exact inverse of a square integer matrix with det = +-1."""
    n = len(rows)
    aug = [[Fraction(rows[i][j]) for j in range(n)] + [Fraction(1 if k == i else 0) for k in range(n)] for i in range(n)]
    ech, pivots = _echelon(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    inv = []
    for i in range(n):
        row = ech[i][n:]
        for x in row:
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular")
        inv.append(tuple(int(x) for x in row))
    return inv
