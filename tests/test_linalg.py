"""Exact linear algebra: the one fraction-free elimination behind rank,
determinant and unimodular inverse, checked against sympy, and the slice
volumes of the coverage checks, checked against the rational formula.
"""

import random
from fractions import Fraction

import pytest
import sympy

from statikit import Cone, PLStratification
from statikit.linalg import det, inverse_unimodular, rank
from statikit.polyhedral import _cross_section_volume, orthant


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
            if nrows == ncols:
                assert det(m) == sympy.Matrix(m).det(), m
        assert dependent > 50

    def test_zero_and_swaps(self):
        assert rank([[0, 0], [0, 0]]) == 0
        assert det([[0, 1], [1, 0]]) == -1
        assert det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
        assert det([[1, 2], [2, 4]]) == 0


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
        assert abs(det(m)) == 2
        with pytest.raises(ValueError, match="not unimodular"):
            inverse_unimodular(m)


def fraction_slice_volume(rays):
    """The slice volume of a simplicial cone from its points on {sum(x) = 1}."""
    n = len(rays)
    pts = [tuple(Fraction(x, sum(r)) for x in r) for r in rays]
    m = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]] + [[Fraction(1)] * n]
    d = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            d = -d
        d *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    fact = 1
    for i in range(2, n):
        fact *= i
    return abs(d) / fact


def random_full_cone(rng, dim, nrays):
    while True:
        rays = [tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(nrays)]
        rays = [r for r in rays if any(r)]
        if rays and rank(rays) == dim:
            return Cone(dim, rays)


class TestSliceVolume:
    def test_simplicial_matches_fraction_formula(self):
        rng = random.Random(11)
        for _ in range(200):
            dim = rng.randint(2, 4)
            c = random_full_cone(rng, dim, dim)
            assert _cross_section_volume(c) == fraction_slice_volume(c.rays), c

    def test_additive_over_a_cut(self):
        """Cutting a cone by a hyperplane splits its slice volume exactly;
        the pieces and the cone are mostly not simplicial."""
        rng = random.Random(23)
        for _ in range(40):
            dim = rng.randint(2, 4)
            c = random_full_cone(rng, dim, rng.randint(dim + 1, dim + 3))
            a = tuple(rng.randint(-3, 3) for _ in range(dim))
            pieces = [c.cut([a]), c.cut([tuple(-x for x in a)])]
            assert _cross_section_volume(c) == sum(map(_cross_section_volume, pieces)), (c, a)

    def test_orthant_and_lower_dimension(self):
        assert _cross_section_volume(orthant(1)) == 1
        assert _cross_section_volume(orthant(3)) == fraction_slice_volume(orthant(3).rays)
        assert _cross_section_volume(Cone(3, [(1, 0, 0), (0, 1, 0)])) == 0

    def test_pyramid_over_non_simplicial_facets(self):
        """The pulling triangulation ends on a 4-dimensional cone whose
        pyramids over the first ray have non-simplicial facets."""
        rays = [(0, 0, 1, 1), (0, 1, 0, 0), (1, 0, 0, 0), (1, 0, 0, 1), (1, 2, 0, 2)]
        c = Cone(4, rays)
        assert len(c.rays) == 5 and c.dim == 4
        assert 0 < _cross_section_volume(c) < _cross_section_volume(orthant(4))
        with pytest.raises(ValueError, match="do not cover"):
            PLStratification(orthant(4), [(c, "t")])
