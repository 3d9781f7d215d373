import itertools
import random
import signal

import pytest
import sympy

from statikit import (
    Graph,
    firing_script,
    is_chip_firing_equivalent,
    jacobian_group,
    laplacian,
    reduced_divisor,
)
from statikit.chipfiring import _distances, _reduce_with_script
from conftest import oracle_laplacian, oracle_snf_diagonal, oracle_spanning_trees


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def deep_graph(rng, n, min_depth):
    """A random recursive tree plus n // 2 random edges, redrawn until some
    vertex lies at distance ``min_depth`` or more from vertex 0."""
    while True:
        edges = [(v, rng.randint(0, v - 1)) for v in range(1, n)]
        while len(edges) < n - 1 + n // 2:
            u, v = rng.randint(0, n - 1), rng.randint(0, n - 1)
            if u != v:
                edges.append((u, v))
        dist = [0] + [None] * (n - 1)
        queue = [0]
        for u in queue:
            for a, b in edges:
                for x, y in ((a, b), (b, a)):
                    if x == u and dist[y] is None:
                        dist[y] = dist[u] + 1
                        queue.append(y)
        if max(dist) >= min_depth:
            return Graph(n, edges)


def random_connected_graph(rng, max_v=6, max_extra=4):
    n = rng.randint(2, max_v)
    edges = []
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        edges.append((order[i], order[rng.randint(0, i - 1)]))
    for _ in range(rng.randint(0, max_extra)):
        u, v = rng.randint(0, n - 1), rng.randint(0, n - 1)
        if u != v:
            edges.append((u, v))
    return Graph(n, edges)


class TestGraph:
    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            Graph(4, [(0, 1), (2, 3)])

    def test_multi_edges_allowed(self):
        g = Graph(2, [(0, 1), (0, 1), (1, 0)])
        assert g.multiplicity(0, 1) == 3


class TestLaplacian:
    def test_triangle(self):
        assert laplacian(cycle(3)) == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]

    def test_single_vertex(self):
        assert laplacian(Graph(1, [])) == [[0]]

    def test_parallel_edges(self):
        assert laplacian(Graph(2, [(0, 1)] * 3)) == [[3, -3], [-3, 3]]

    def test_matches_edge_list_laplacian_on_multigraphs(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(2, 9)
            edges = [(v, rng.randint(0, v - 1)) for v in range(1, n)]
            for _ in range(rng.randint(0, 2 * n)):
                u, v = rng.sample(range(n), 2)
                # parallel edges, given in one orientation or in both
                edges += [(u, v), (v, u)][: rng.randint(1, 2)] * rng.randint(1, 2)
            rng.shuffle(edges)
            assert laplacian(Graph(n, edges)) == oracle_laplacian(n, edges)

    def test_row_sums_zero_and_symmetric(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_connected_graph(rng)
            l = laplacian(g)
            assert all(sum(row) == 0 for row in l)
            assert all(l[i][j] == l[j][i] for i in range(g.n) for j in range(g.n))


class TestJacobian:
    def test_cycles(self):
        for n in range(3, 9):
            assert jacobian_group(cycle(n)) == [n]

    def test_trees_trivial(self):
        assert jacobian_group(Graph(4, [(0, 1), (1, 2), (1, 3)])) == []
        assert jacobian_group(Graph(1, [])) == []

    def test_banana(self):
        assert jacobian_group(Graph(2, [(0, 1)] * 5)) == [5]

    def test_matches_sympy_snf_oracle(self):
        """Small random graphs, and 20-40-vertex multigraphs whose edges are
        doubled or tripled at random. Those have at least two invariant
        factors above 1, so unit pivots, which only give factors 1, never
        finish the Smith form and non-unit pivots must run. sympy's Smith
        form takes minutes on about one such matrix in twenty (its entries
        grow); the twelve drawn from seed 12 take 0.1 s."""
        rng = random.Random(9)
        graphs = [random_connected_graph(rng) for _ in range(15)]
        rng = random.Random(12)
        for _ in range(12):
            g = deep_graph(rng, rng.randint(20, 40), 2)
            graphs.append(Graph(g.n, [e for e in g.edges for _ in range(rng.choice((1, 1, 2, 3)))]))
        for g in graphs:
            l = laplacian(g)
            reduced = [row[1:] for row in l[1:]]
            expected = [d for d in oracle_snf_diagonal(reduced) if d > 1]
            assert jacobian_group(g) == sorted(expected)
            if g.n >= 20:
                assert len(expected) >= 2

    def test_order_equals_spanning_tree_count(self):
        graphs = [
            cycle(3), cycle(5), cycle(7),
            Graph(2, [(0, 1)] * 4),
            Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
            Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]),
            Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]),
            Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3)]),
            Graph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]),
        ]
        for g in graphs:
            order = 1
            for f in jacobian_group(g):
                order *= f
            assert order == oracle_spanning_trees(g)


class TestReducedDivisor:
    def test_already_reduced(self):
        assert reduced_divisor(cycle(3), [3, 0, 0]) == [3, 0, 0]

    def test_zero_divisor(self):
        rng = random.Random(2)
        for _ in range(5):
            g = random_connected_graph(rng)
            assert reduced_divisor(g, [0] * g.n) == [0] * g.n

    def test_class_preserving_and_idempotent(self):
        rng = random.Random(3)
        for _ in range(25):
            g = random_connected_graph(rng)
            d = [rng.randint(-4, 6) for _ in range(g.n)]
            r = reduced_divisor(g, d)
            assert sum(r) == sum(d)
            assert is_chip_firing_equivalent(g, d, r)
            assert reduced_divisor(g, r) == r

    def test_uniqueness_by_small_script_search(self):
        """Brute-force oracle: no other divisor reachable by a small firing
        script is also reduced with the same base."""
        g = cycle(3)
        d = [0, 0, 3]
        r = reduced_divisor(g, d)
        l = oracle_laplacian(g.n, g.edges)
        reduced_forms = set()
        for script in itertools.product(range(-3, 4), repeat=3):
            cand = [d[v] - sum(l[v][u] * script[u] for u in range(3)) for v in range(3)]
            if all(c >= 0 for c in cand[1:]):
                burnt = {0}
                while True:
                    new = [v for v in range(3) if v not in burnt and -sum(l[v][u] for u in burnt) > cand[v]]
                    if not new:
                        break
                    burnt.update(new)
                if len(burnt) == 3:
                    reduced_forms.add(tuple(cand))
        assert reduced_forms == {tuple(r)}

    def test_reduced_on_random_graphs_by_burn_oracle(self):
        """Dhar's criterion, written independently: a divisor nonnegative off
        the base is reduced iff burning from the base burns every vertex.
        The class is checked by solving the reduced Laplacian system over Q.
        Edge counts come from ``g.edges`` alone. The 20-30-vertex graphs of
        depth 4 or more run stage one over several distance levels."""
        rng = random.Random(31)
        cases = []
        for i in range(36):
            g = random_connected_graph(rng, max_v=8, max_extra=6) if i < 30 else deep_graph(rng, rng.randint(20, 30), 4)
            cases.append((g, [rng.randint(-6, 12) for _ in range(g.n)]))
        for g, d in cases:
            r = reduced_divisor(g, d)
            assert all(x >= 0 for x in r[1:])
            l = oracle_laplacian(g.n, g.edges)
            burnt = {0}
            while True:
                new = [v for v in range(g.n) if v not in burnt and -sum(l[v][u] for u in burnt) > r[v]]
                if not new:
                    break
                burnt.update(new)
            assert len(burnt) == g.n
            assert sum(r) == sum(d)
            if g.n > 1:
                script = sympy.Matrix([row[1:] for row in l[1:]]).LUsolve(
                    sympy.Matrix([a - b for a, b in zip(d[1:], r[1:])])
                )
                assert all(x.is_integer for x in script)


def whole_set_reduce_with_script(graph, divisor, base):
    """An earlier `_reduce_with_script`: its stage one fires each distance
    sublevel, the base included, as often as the neediest vertex of the level
    above needs, and every firing, in both stages, moves chips vertex by
    vertex along every edge, inside moves included. The oracle for the
    reduced divisor, and for the script up to a constant."""
    n = graph.n
    nbrs = graph._nbrs
    d = list(divisor)
    script = [0] * n
    dist = _distances(graph, base)

    def fire(vertices, times):
        for u in vertices:
            script[u] += times
            for v, m in nbrs[u].items():
                d[u] -= times * m
                d[v] += times * m

    for level in range(max(dist), 0, -1):
        need = 0
        for v in range(n):
            if dist[v] == level and d[v] < 0:
                inbound = sum(m for u, m in nbrs[v].items() if dist[u] < level)
                need = max(need, (-d[v] + inbound - 1) // inbound)
        fire([v for v in range(n) if dist[v] < level], need)

    while True:
        heat = [0] * n
        burnt = [False] * n
        burnt[base] = True
        stack = [base]
        while stack:
            for v, m in nbrs[stack.pop()].items():
                if not burnt[v]:
                    heat[v] += m
                    if heat[v] > d[v]:
                        burnt[v] = True
                        stack.append(v)
        unburnt = [v for v in range(n) if not burnt[v]]
        if not unburnt:
            break
        fire(unburnt, min(d[v] // heat[v] for v in unburnt if heat[v]))

    return d, script


def assert_same_reduction(graph, divisor, base):
    """The reduction matches ``whole_set_reduce_with_script``: the same
    reduced divisor, and a script that differs from the oracle's by one
    constant (only the oracle fires the base) and replays to it."""
    n = graph.n
    reduced, script = _reduce_with_script(graph, divisor, base)
    want, want_script = whole_set_reduce_with_script(graph, divisor, base)
    assert reduced == want, (graph, divisor, base)
    shift = want_script[base] - script[base]
    assert [a - b for a, b in zip(want_script, script)] == [shift] * n
    l = oracle_laplacian(n, graph.edges)
    assert [divisor[v] - sum(l[v][u] * script[u] for u in range(n)) for v in range(n)] == reduced


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def ladder(n):
    """Two paths of n // 2 vertices joined rung by rung; vertex 0 is a corner."""
    h = n // 2
    rails = [(i, i + 1) for i in range(h - 1)] + [(h + i, h + i + 1) for i in range(h - 1)]
    return Graph(2 * h, rails + [(i, h + i) for i in range(h)])


def far_divisor(graph, chips):
    """``chips`` on the last vertex farthest from vertex 0, none elsewhere."""
    dist = _distances(graph, 0)
    d = [0] * graph.n
    d[max(range(graph.n), key=lambda v: (dist[v], v))] = chips
    return d


def reduce_within(seconds, graph, divisor):
    """``_reduce_with_script`` from vertex 0, failing once it has run for
    ``seconds`` instead of waiting for it."""

    def expire(signum, frame):
        raise AssertionError(f"reduction ran over {seconds} s: {graph}")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return _reduce_with_script(graph, divisor, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestBoundaryFiring:
    def test_matches_whole_set_firing(self):
        """The reduction agrees with firing along every edge of the fired
        sets on deep 20-40-vertex graphs and on small random multigraphs,
        from several bases."""
        rng = random.Random(53)
        graphs = [deep_graph(rng, rng.randint(20, 40), rng.randint(3, 6)) for _ in range(12)]
        graphs += [random_connected_graph(rng, max_v=9, max_extra=10) for _ in range(40)]
        for g in graphs:
            for base in {0, rng.randrange(g.n)}:
                for _ in range(3):
                    assert_same_reduction(g, [rng.randint(-8, 12) for _ in range(g.n)], base)


class TestReductionRobustness:
    """Stage one must not let debt diffuse: borrowing until no debt is left
    takes a number of sweeps that grows with the debt."""

    def test_far_debt_and_surplus_on_sparse_shapes(self):
        """30-40-vertex paths, cycles and trees with up to 10**12 chips of
        debt or surplus at the far end, where the old whole-level firing
        takes the same time at every magnitude. Each reduction takes at most
        2 ms on a 2-core box; local borrowing run until no debt is left
        takes 0.12 s on the 40-vertex path at -10**6 and 0.34 s at -10**12."""
        rng = random.Random(29)
        graphs = []
        for n in (30, 40):
            graphs += [path(n), cycle(n), Graph(n, [(v, rng.randint(0, v - 1)) for v in range(1, n)])]
        for g in graphs:
            for chips in (10**3, -(10**3), 10**6, -(10**6), 10**12, -(10**12)):
                d = far_divisor(g, chips)
                reduce_within(0.1, g, d)
                assert_same_reduction(g, d, 0)

    def test_ladders(self):
        """Ladders with a small far debt or a larger far surplus. Dhar
        burning is slow on ladders whatever stage one does: the 40-vertex
        ladder with a far debt of 2 takes 1.2 s, and 3.1 s by the oracle."""
        for n, charges in ((30, (-5, 5, 1000)), (40, (3, 500))):
            g = ladder(n)
            for chips in charges:
                d = far_divisor(g, chips)
                reduce_within(1.0, g, d)
                assert_same_reduction(g, d, 0)

    def test_random_multigraphs_from_random_bases(self):
        """Multigraphs with edges of multiplicity 1-3 and divisors of
        magnitude up to 1,000, uniform or all debt on one vertex."""
        rng = random.Random(61)
        for _ in range(40):
            g = random_connected_graph(rng, max_v=16, max_extra=12)
            g = Graph(g.n, [e for e in g.edges for _ in range(rng.randint(1, 3))])
            base = rng.randrange(g.n)
            for magnitude in (10, 1000):
                assert_same_reduction(g, [rng.randint(-magnitude, magnitude) for _ in range(g.n)], base)
                d = [0] * g.n
                d[rng.randrange(g.n)] = -magnitude
                assert_same_reduction(g, d, base)


class TestEquivalence:
    def test_reflexive(self):
        g = cycle(4)
        assert is_chip_firing_equivalent(g, [1, 2, 0, -1], [1, 2, 0, -1])

    def test_single_firing_move(self):
        g = cycle(4)
        l = laplacian(g)
        d = [2, 0, 1, -1]
        d2 = [d[v] - l[v][2] for v in range(4)]
        assert is_chip_firing_equivalent(g, d, d2)

    def test_distinct_classes_on_triangle(self):
        assert not is_chip_firing_equivalent(cycle(3), [1, 0, 0], [0, 1, 0])

    def test_equivalence_relation_on_samples(self):
        rng = random.Random(8)
        g = random_connected_graph(rng)
        divisors = [[rng.randint(-3, 4) for _ in range(g.n)] for _ in range(6)]
        for a in divisors:
            assert is_chip_firing_equivalent(g, a, a)
            for b in divisors:
                ab = is_chip_firing_equivalent(g, a, b)
                assert ab == is_chip_firing_equivalent(g, b, a)
                for c in divisors:
                    if ab and is_chip_firing_equivalent(g, b, c):
                        assert is_chip_firing_equivalent(g, a, c)

    def test_equal_degree_necessary(self):
        g = cycle(3)
        assert not is_chip_firing_equivalent(g, [1, 0, 0], [2, 0, 0])


class TestFiringScript:
    def test_zero_script(self):
        g = cycle(4)
        assert firing_script(g, [1, 0, 2, -1], [1, 0, 2, -1]) == [0, 0, 0, 0]

    def test_single_vertex_script(self):
        g = cycle(3)
        l = laplacian(g)
        d = [4, -2, 1]
        d2 = [d[v] - l[v][1] for v in range(3)]
        s = firing_script(g, d, d2)
        assert s is not None
        assert [d[v] - sum(l[v][u] * s[u] for u in range(3)) for v in range(3)] == d2
        assert min(s) == 0

    def test_inequivalent_returns_none(self):
        assert firing_script(cycle(3), [1, 0, 0], [0, 1, 0]) is None

    def test_script_iff_equivalent_on_samples(self):
        rng = random.Random(77)
        for _ in range(200):
            g = random_connected_graph(rng)
            l = laplacian(g)
            d1 = [rng.randint(-4, 5) for _ in range(g.n)]
            if rng.random() < 0.5:
                script = [rng.randint(-3, 3) for _ in range(g.n)]
                d2 = [d1[v] - sum(l[v][u] * script[u] for u in range(g.n)) for v in range(g.n)]
            else:
                d2 = [rng.randint(-4, 5) for _ in range(g.n)]
            eq = is_chip_firing_equivalent(g, d1, d2)
            s = firing_script(g, d1, d2)
            assert (s is not None) == eq
            if s is not None:
                assert [d1[v] - sum(l[v][u] * s[u] for u in range(g.n)) for v in range(g.n)] == d2
                assert min(s) == 0

    def test_firing_everything_once_is_identity(self):
        rng = random.Random(12)
        for _ in range(10):
            g = random_connected_graph(rng)
            l = laplacian(g)
            d = [rng.randint(-2, 4) for _ in range(g.n)]
            ones = [1] * g.n
            assert [d[v] - sum(l[v][u] * ones[u] for u in range(g.n)) for v in range(g.n)] == d
