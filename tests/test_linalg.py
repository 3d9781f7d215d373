"""Exact linear algebra: the one fraction-free elimination behind rank and
unimodular inverse, and the Smith form, checked against sympy and against
the two-stage Smith form it replaced.
"""

import random
from math import gcd

import pytest
import sympy

from statikit.linalg import _bareiss, inverse_unimodular, rank, smith_invariant_factors
from conftest import oracle_laplacian, oracle_snf_diagonal


def random_matrix(rng, nrows, ncols):
    """Entries -4..4; about a third of the matrices get a dependent row."""
    m = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.35:
        i, j, k = (rng.randrange(nrows) for _ in range(3))
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
    return m


def random_unimodular(rng, n, sign):
    """A product of elementary matrices (row additions and swaps) with determinant `sign`."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    d = 1
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
            d = -d
        else:
            k = rng.choice([-2, -1, 1, 2])
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    if d != sign:
        m[0] = [-x for x in m[0]]
    return m


def matmul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def reference_smith_invariant_factors(rows):
    """The two-stage Smith form the pivot loop replaced: unit pivots peeled
    on a sparse row map, then dense smallest-entry pivoting with restart
    sweeps on the core that is left, then a gcd/lcm divisibility pass."""
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
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[j] % diag[i] != 0:
                    g = gcd(diag[i], diag[j])
                    diag[i], diag[j] = g, diag[i] * diag[j] // g
                    changed = True
    diag.sort()
    return [1] * units + diag


def reduced_multigraph_laplacian(rng, n):
    """The Laplacian of a random recursive tree plus n // 2 random edges, each
    edge doubled or tripled at random, without the row and column of vertex 0."""
    edges = [(v, rng.randint(0, v - 1)) for v in range(1, n)]
    while len(edges) < n - 1 + n // 2:
        u, v = rng.randint(0, n - 1), rng.randint(0, n - 1)
        if u != v:
            edges.append((u, v))
    edges = [e for e in edges for _ in range(rng.choice((1, 1, 2, 3)))]
    return [row[1:] for row in oracle_laplacian(n, edges)[1:]]


class TestRankAndDet:
    def test_against_sympy(self):
        rng = random.Random(5)
        dependent = 0
        for _ in range(600):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            m = random_matrix(rng, nrows, ncols)
            r = sympy.Matrix(m).rank()
            assert rank(m) == r, m
            dependent += r < min(nrows, ncols)
            if nrows == ncols == r:
                # the last pivot, which scales the unimodular inverse, is +-det
                reduced, pivots = _bareiss(m)
                assert abs(reduced[-1][pivots[-1]]) == abs(sympy.Matrix(m).det()), m
        assert dependent > 50

    def test_zero_and_swaps(self):
        assert rank([[0, 0], [0, 0]]) == 0
        assert rank([[1, 2], [2, 4]]) == 1
        for swap in ([[0, 1], [1, 0]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]]):
            assert inverse_unimodular(swap) == [tuple(row) for row in swap]


class TestInverseUnimodular:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_inverse_of_random_unimodular(self, sign):
        rng = random.Random(17 + sign)
        for _ in range(120):
            n = rng.randint(1, 6)
            a = random_unimodular(rng, n, sign)
            assert sympy.Matrix(a).det() == sign
            inv = inverse_unimodular(a)
            assert all(isinstance(x, int) for row in inv for x in row)
            identity = [[int(i == j) for j in range(n)] for i in range(n)]
            assert matmul(a, inv) == identity, a
            assert matmul(inv, a) == identity, a

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            inverse_unimodular([[1, 2], [2, 4]])
        with pytest.raises(ValueError, match="singular"):
            inverse_unimodular([[0, 0], [0, 1]])

    @pytest.mark.parametrize("m", [[[2, 0], [0, 1]], [[0, 1], [2, 0]], [[1, 1, 0], [1, -1, 0], [0, 0, 1]]])
    def test_determinant_two_rejected(self, m):
        assert abs(sympy.Matrix(m).det()) == 2
        with pytest.raises(ValueError, match="not unimodular"):
            inverse_unimodular(m)


class TestSmithForm:
    def test_matches_sympy_snf_oracle(self):
        """Square and non-square matrices, some with zero rows, and matrices
        with no unit entry, where every fresh pivot is a least entry and
        most steps leave remainders."""
        rng = random.Random(17)
        cases = [[[2, 4], [6, 8]], [[0, 0, 0]], [[6, 0], [0, 4], [0, 0]]]
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            if rng.random() < 0.3:
                m.insert(rng.randint(0, len(m)), [0] * len(m[0]))
            cases.append(m)
        for _ in range(30):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            cases.append([[rng.choice((0, 2, -2, 3, -3, 4, 6, -6)) for _ in range(ncols)] for _ in range(nrows)])
        for m in cases:
            assert smith_invariant_factors(m) == oracle_snf_diagonal(m), m

    def test_empty(self):
        assert smith_invariant_factors([]) == []
        assert smith_invariant_factors([[], []]) == []

    def test_matches_the_two_stage_reference(self):
        """The pivot loop gives the factors of the peel-then-dense-core Smith
        form it replaced on reduced Laplacians of connected multigraphs on
        20-40 vertices (the `jacobian` inputs, whose fill-in left that form
        dense cores of up to 11 x 11), on 2 x 2 to 4 x 4 matrices of primitive
        rays (the `Cone.is_smooth` inputs), and on matrices with no unit
        entry, non-square ones and ones with zero rows. [[2, 3]] carries a
        remainder from the column phase, [[2], [3]] one from the row phase."""
        rng = random.Random(34)
        cases = [[[2, 3]], [[2], [3]], [[0, 0], [2, 3], [0, 0]], [[4, 6, 9]]]
        cases += [reduced_multigraph_laplacian(rng, rng.randint(20, 40)) for _ in range(12)]
        for _ in range(300):
            n = rng.randint(2, 4)
            rays = []
            while len(rays) < n:
                ray = [rng.randint(-3, 15) for _ in range(n)]
                if any(ray):
                    rays.append([x // gcd(*ray) for x in ray])
            cases.append(rays)
        for _ in range(300):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            m = [[rng.choice((0, 0, 2, -2, 3, -3, 4, 6, -9, 10, 15)) for _ in range(ncols)] for _ in range(nrows)]
            m.insert(rng.randint(0, nrows), [0] * ncols)
            cases.append(m)
        # each Laplacian has two factors above 1 or more, so units never finish it
        assert all(sum(f > 1 for f in reference_smith_invariant_factors(m)) >= 2 for m in cases[4:16])
        for m in cases:
            assert smith_invariant_factors(m) == reference_smith_invariant_factors(m), m
