"""Exact integer linear algebra on plain tuples.

Everything here works over Python ints; no fractions, no floats.
"""

from math import gcd


def primitive(v):
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = gcd(*v)
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


def _bareiss(rows):
    """Fraction-free Gauss-Jordan elimination of an integer matrix (Bareiss 1968).

    Each step divides exactly by the previous pivot (Sylvester's identity),
    so every entry stays an integer, and once all pivots are found every
    pivot entry equals the last pivot. Returns the reduced rows and the
    pivot columns.
    """
    m = list(rows)
    pivots = []
    prev = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
        pr = m[r]
        piv = pr[c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(piv * x - f * y) // prev for x, y in zip(row, pr)]
        prev = piv
        pivots.append(c)
    return m, pivots


def rank(rows):
    """Rank of an integer matrix."""
    return len(_bareiss(rows)[1])


def smith_invariant_factors(rows):
    """Invariant factors of an integer matrix.

    Unit pivots go first, on a sparse row map: a row with a +-1 entry clears
    that entry's column from every other row, and then row and column leave
    with an invariant factor 1, since clearing the rest of the row takes
    column operations that touch no other row. The shortest such row goes
    first, to keep fill-in low. The core left without a unit entry takes
    dense pivoting: smallest nonzero absolute value, ties by position.
    Returns the positive diagonal entries d_1 | d_2 | ... of the Smith
    normal form (zeros dropped).
    """
    sparse = [{j: x for j, x in enumerate(map(int, r)) if x} for r in rows]
    units = 0
    while True:
        pick = None
        for i, r in enumerate(sparse):
            if pick is None or len(r) < len(sparse[pick[0]]):
                j = next((j for j, x in r.items() if x in (1, -1)), None)
                if j is not None:
                    pick = i, j
        if pick is None:
            break
        i, j = pick
        pivot_row = sparse.pop(i)
        sign = pivot_row.pop(j)
        for r in sparse:
            f = r.pop(j, 0) * sign
            if f:
                for k, x in pivot_row.items():
                    y = r.get(k, 0) - f * x
                    if y:
                        r[k] = y
                    else:
                        del r[k]
        units += 1
    # zero rows and columns add no invariant factor
    cols = sorted({j for r in sparse for j in r})
    m = [[r.get(j, 0) for j in cols] for r in sparse if r]
    if not m:
        return [1] * units
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
    return [1] * units + diag


def inverse_unimodular(rows):
    """Exact inverse of a square integer matrix with det = +-1.

    Eliminating [A | I] leaves [D*I | D*A^-1] with D = +-det(A), so the
    inverse is D times the right-hand block.
    """
    n = len(rows)
    m, pivots = _bareiss([list(r) + [int(k == i) for k in range(n)] for i, r in enumerate(rows)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    d = m[-1][n - 1]
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return [tuple(d * x for x in row[n:]) for row in m]
