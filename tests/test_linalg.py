"""Exact linear algebra: the one fraction-free elimination behind rank and
unimodular inverse, and the Smith form, checked against sympy.
"""

import random

import pytest
import sympy

from statikit.linalg import _bareiss, inverse_unimodular, rank, smith_invariant_factors
from conftest import oracle_snf_diagonal


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
        with no unit entry, where nothing is peeled and the dense pivoting
        does all the work."""
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
