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

    One pivot loop on a sparse row map. A fresh pivot p is a +-1 in the
    shortest row that has one, else the least entry of the shortest row.
    Row operations reduce p's column modulo p; once that column is clear,
    column operations, which touch no other row, reduce p's row, so a unit
    pivot clears its row outright. A remainder is smaller than |p|, so the
    least one is the next pivot, and a pivot left alone in its row and
    column is a diagonal entry. Returns the positive diagonal entries
    d_1 | d_2 | ... of the Smith normal form (zeros dropped).
    """
    live = [{j: x for j, x in enumerate(map(int, row)) if x} for row in rows]
    units = 0
    diag = []
    pick = None
    # a zero row stays, and adds no factor
    while any(live):
        if pick is None:
            for r in live:
                if pick is None or len(r) < len(pick[0]):
                    j = next((j for j, x in r.items() if x in (1, -1)), None)
                    if j is not None:
                        pick = r, j
            if pick is None:
                short = min((r for r in live if r), key=len)
                pick = short, min(short, key=lambda j: abs(short[j]))
        row, j = pick
        pick = None
        p = row.pop(j)
        for r in live:
            x = r.pop(j, 0)
            if x:
                # a fresh non-unit pivot may exceed x, and then x stays
                q = x // p
                if q:
                    for k, y in row.items():
                        z = r.get(k, 0) - q * y
                        if z:
                            r[k] = z
                        else:
                            del r[k]
                    x -= q * p
                if x:
                    r[j] = x
                    if pick is None or abs(x) < abs(pick[0][j]):
                        pick = r, j
        if pick is None and p not in (1, -1):
            for k in list(row):
                y = row[k] % p
                if y:
                    row[k] = y
                    if pick is None or abs(y) < abs(row[pick[1]]):
                        pick = row, k
                else:
                    del row[k]
        if pick is None:
            # the pivot is alone in its row and column
            if p in (1, -1):
                units += 1
            else:
                diag.append(abs(p))
            # an equal row may leave in its place, which leaves the same rows
            live.remove(row)
        else:
            row[j] = p
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
