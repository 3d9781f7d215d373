"""Shared builders and independent oracles for the test suite.

Oracles here deliberately avoid the library's own code paths: membership by
brute-force conic combinations, faces by supporting-hyperplane search, Smith
normal form and determinants through sympy, polynomial arithmetic by a
test-local term-dict implementation.
"""

import itertools
from fractions import Fraction

import pytest
import sympy

from statikit import ModuleVector, Poly


def poly(nvars, terms):
    return Poly(nvars, terms)


def vec(n, m, terms):
    return ModuleVector(n, m, terms)


# ---------------------------------------------------------------------------
# exact linear algebra oracles (sympy-backed)


def sympy_solve_nonneg(cols, target):
    """Solve sum(l_i * col_i) = target with l_i >= 0, or return None."""
    a = sympy.Matrix([[c[i] for c in cols] for i in range(len(target))])
    b = sympy.Matrix(len(target), 1, list(target))
    try:
        sol, params = a.gauss_jordan_solve(b)
    except ValueError:
        return None
    if params.shape[0]:
        # substitute zero for the free parameters
        sol = sol.subs({p: 0 for p in params})
    if a * sol != b:
        return None
    vals = [sympy.Rational(x) for x in sol]
    if any(v < 0 for v in vals):
        return None
    return vals


def oracle_cone_contains(rays, x):
    """Brute-force membership of x in cone(rays) via conic Caratheodory."""
    x = tuple(x)
    if all(v == 0 for v in x):
        return True
    n = len(x)
    rays = [tuple(r) for r in rays]
    for size in range(1, min(len(rays), n) + 1):
        for subset in itertools.combinations(rays, size):
            m = sympy.Matrix([[r[i] for r in subset] for i in range(n)])
            if m.rank() < size:
                continue
            if sympy_solve_nonneg(list(subset), x) is not None:
                return True
    return False


def oracle_faces_count(cone, search_bound=12):
    """Count faces by enumerating ray subsets and searching for a
    supporting hyperplane on a small integer grid (sound for the small
    low-dimensional cones used in tests)."""
    rays = [tuple(r) for r in cone.rays]
    n = cone.ambient_dim
    found = set()
    found.add(tuple(sorted(rays)))  # the cone itself
    for size in range(0, len(rays)):
        for subset in itertools.combinations(range(len(rays)), size):
            inside = [rays[i] for i in subset]
            outside = [rays[i] for i in range(len(rays)) if i not in subset]
            # want phi with phi.r = 0 on subset, phi.r > 0 outside
            ok_phi = None
            for phi in itertools.product(range(-search_bound, search_bound + 1), repeat=n):
                if all(sum(a * b for a, b in zip(phi, r)) == 0 for r in inside) and all(
                    sum(a * b for a, b in zip(phi, r)) > 0 for r in outside
                ):
                    ok_phi = phi
                    break
            if ok_phi is not None:
                found.add(tuple(sorted(inside)))
    return len(found)


def oracle_snf_diagonal(rows):
    from sympy.matrices.normalforms import smith_normal_form

    m = sympy.Matrix(rows)
    d = smith_normal_form(m)
    out = []
    for i in range(min(d.shape)):
        v = abs(int(d[i, i]))
        if v:
            out.append(v)
    return sorted(out)


def oracle_laplacian(n, edges):
    """Graph Laplacian summed edge by edge, in either orientation."""
    l = [[0] * n for _ in range(n)]
    for u, v in edges:
        l[u][u] += 1
        l[v][v] += 1
        l[u][v] -= 1
        l[v][u] -= 1
    return l


def oracle_spanning_trees(graph):
    """Matrix-tree theorem via a sympy determinant of the reduced Laplacian."""
    if graph.n == 1:
        return 1
    l = oracle_laplacian(graph.n, graph.edges)
    return int(sympy.Matrix([row[1:] for row in l[1:]]).det())


# ---------------------------------------------------------------------------
# test-local polynomial arithmetic (independent of the library internals)


def tmul(p, q):
    """Multiply two term dicts {exp: coeff}."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {e: c for e, c in out.items() if c}


def tadd(*ps):
    out = {}
    for p in ps:
        for e, c in p.items():
            out[e] = out.get(e, Fraction(0)) + Fraction(c)
    return {e: c for e, c in out.items() if c}


def apply_matrix_to_vector(rows, vector_terms, ncols):
    """Image of a module vector under a polynomial matrix, as a term dict
    per output row. rows: list of rows of term dicts."""
    l = len(rows)
    out = [dict() for _ in range(l)]
    comps = {}
    for (exp, comp), c in vector_terms:
        comps.setdefault(comp, {})[exp] = c
    for j, p in comps.items():
        for i in range(l):
            out[i] = tadd(out[i], tmul(rows[i][j], p))
    return out


@pytest.fixture
def quadrant():
    from statikit import orthant

    return orthant(2)


@pytest.fixture
def octant():
    from statikit import orthant

    return orthant(3)
