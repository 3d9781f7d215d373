"""Module computations against sympy's own module Groebner bases (``sympy.polys.agca``).

Nothing here runs on statikit's Groebner engine except the function under
test: Tor verdicts, presentation kernels and the colon by a polynomial. The
Koszul complex is built in this file, its cycles come from sympy's
``syzygy_module()`` and its boundaries from sympy's ``contains()``.
sympy rejects a zero generator, so zero generators are dropped, and a zero
column of a map counts as a unit syzygy. The presentations come from fixed
seeds and shapes.
"""

import random
from itertools import combinations

import sympy
from sympy import QQ

from statikit import ModulePresentation, ModuleVector, Poly, Submodule, is_log_flat, is_static, log_tor_dim_at_most, orthant_chart

# (seed, number of presentations, variables, max rows, max columns, max terms per entry)
CORPORA = [(1901, 40, 2, 2, 3, 3), (1902, 15, 3, 2, 2, 2)]


def random_presentation(rng, nvars, max_rows, max_cols, max_terms):
    rows = rng.randint(1, max_rows)
    cols = rng.randint(1, max_cols)
    entries = [
        [
            {tuple(rng.randint(0, 2) for _ in range(nvars)): rng.choice([1, -1, 2]) for _ in range(rng.randint(0, max_terms))}
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    return ModulePresentation(orthant_chart(nvars), [[Poly(nvars, t) for t in row] for row in entries])


def presentations():
    for seed, count, nvars, max_rows, max_cols, max_terms in CORPORA:
        rng = random.Random(seed)
        for _ in range(count):
            yield random_presentation(rng, nvars, max_rows, max_cols, max_terms)


class SympyModules:
    """Free modules over QQ[x_1..x_n] in sympy, with vectors as lists of expressions."""

    def __init__(self, nvars):
        self.xs = sympy.symbols(f"x1:{nvars + 1}")
        self.ring = QQ.old_poly_ring(*self.xs)

    def expr(self, poly):
        return sum((sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x**k for x, k in zip(self.xs, e))) for e, c in poly.terms), sympy.Integer(0))

    def columns(self, presentation):
        return [[self.expr(row[j]) for row in presentation.rows] for j in range(presentation.ncols)]

    def syzygies(self, vectors, rank):
        """Generators of the relations among `vectors` (lists of length rank), as lists."""
        nonzero = [j for j, v in enumerate(vectors) if any(v)]
        out = [[int(i == j) for i in range(len(vectors))] for j, v in enumerate(vectors) if not any(v)]
        if nonzero:
            module = self.ring.free_module(rank).submodule(*[vectors[j] for j in nonzero])
            for s in module.syzygy_module().gens:
                full = [0] * len(vectors)
                for j, c in zip(nonzero, s):
                    full[j] = self.ring.to_sympy(c)
                out.append(full)
        return out

    def submodule(self, vectors, rank):
        return self.ring.free_module(rank).submodule(*[v for v in vectors if any(v)])

    def vector(self, mv):
        """A statikit ModuleVector as a list of expressions."""
        return [self.expr(Poly(mv.torus_rank, {e: c for (e, comp), c in mv.terms if comp == r})) for r in range(mv.rank)]

    def same_module(self, ours, theirs, rank):
        """Whether two generator lists span the same submodule, by containment both ways."""
        ours_module, theirs_module = self.submodule(ours, rank), self.submodule(theirs, rank)
        return all(theirs_module.contains(v) for v in ours if any(v)) and all(ours_module.contains(v) for v in theirs if any(v))


def koszul_vanishes(sm, presentation, seq, degree):
    """Whether H_degree(x_seq; coker A) vanishes, by sympy."""
    l = presentation.nrows
    a_cols = sm.columns(presentation)
    xs = [sm.xs[v] for v in seq]
    wedges = {p: list(combinations(range(len(seq)), p)) for p in (degree - 1, degree, degree + 1)}

    def differential(p):
        """Columns of the Koszul map in wedge degree p, one per (wedge, row) pair."""
        index = {w: i for i, w in enumerate(wedges[p - 1])}
        cols = []
        for w in wedges[p]:
            for c in range(l):
                col = [0] * (l * len(wedges[p - 1]))
                for q, t in enumerate(w):
                    col[index[w[:q] + w[q + 1:]] * l + c] += (-1) ** q * xs[t]
                cols.append(col)
        return cols

    def relations(p):
        """The columns of A, once in each wedge slot of degree p."""
        return [[a[i - s * l] if s * l <= i < (s + 1) * l else 0 for i in range(l * len(wedges[p]))] for s in range(len(wedges[p])) for a in a_cols]

    rank = l * len(wedges[degree])
    if not rank:
        return True
    d = differential(degree)
    cycles = [s[: len(d)] for s in sm.syzygies(d + relations(degree - 1), l * len(wedges[degree - 1]))]
    boundaries = sm.submodule(differential(degree + 1) + relations(degree), rank)
    return all(boundaries.contains(z) for z in cycles if any(z))


def test_tor_verdicts_match_sympy_koszul_homology():
    verdicts = nonvanishing = 0
    for p in presentations():
        sm = SympyModules(p.chart.nvars)
        n = p.chart.nvars
        holds = {}
        for degree in (1, 2):
            _, reports = log_tor_dim_at_most(p, degree - 1)
            expected = []
            for rep in reports:
                seq = tuple(v for v in range(n) if v not in rep.face)
                expected.append(koszul_vanishes(sm, p, seq, degree))
                assert rep.vanishes == expected[-1], (p.rows, seq, degree)
            holds[degree] = all(expected)
            verdicts += len(expected)
            nonvanishing += expected.count(False)
        # these two stop at the first failing face and read the verdicts alone
        assert is_log_flat(p) == holds[1], p.rows
        assert is_static(p) == holds[2], p.rows
    assert verdicts == 40 * 2 * 4 + 15 * 2 * 8
    assert nonvanishing >= 50


def test_kernel_matches_sympy_syzygy_module():
    for p in presentations():
        sm = SympyModules(p.chart.nvars)
        ours = [sm.vector(g) for g in p.kernel().generators]
        assert sm.same_module(ours, sm.syzygies(sm.columns(p), p.nrows), p.ncols), p.rows


def test_colon_matches_sympy():
    """(N : g) for N the column module of each presentation, against the
    relations of g e_1, ..., g e_l and N's generators in sympy."""
    for i, p in enumerate(presentations()):
        n, l = p.chart.nvars, p.nrows
        sm = SympyModules(n)
        g = Poly(n, [{(1,) + (0,) * (n - 1): 1}, {(1,) * n: 1, (0, 1) + (0,) * (n - 2): -1}][i % 2])
        columns = Submodule(n, l, [ModuleVector(n, l, c) for c in p.columns()])
        ours = [sm.vector(v) for v in columns.colon(g).generators]
        scaled = [[sm.expr(g) if r == s else 0 for r in range(l)] for s in range(l)]
        theirs = [z[:l] for z in sm.syzygies(scaled + sm.columns(p), l)]
        assert sm.same_module(ours, theirs, l), p.rows
