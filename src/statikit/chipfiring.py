"""Chip firing on finite multigraphs: Laplacians, Jacobians, reduced divisors.

Divisors are integer chip vectors indexed by vertices; two divisors are
equivalent when they differ by an integer combination of Laplacian columns.
Canonical representatives are base-reduced divisors computed with Dhar's
burning algorithm.
"""

from collections import deque

from .linalg import smith_invariant_factors


class Graph:
    """Connected loop-free multigraph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n, edges):
        self.n = int(n)
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        norm = []
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError("loops are not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError("edge endpoint out of range")
            norm.append((min(u, v), max(u, v)))
        self.edges = tuple(sorted(norm))
        adj = [[0] * self.n for _ in range(self.n)]
        for u, v in self.edges:
            adj[u][v] += 1
            adj[v][u] += 1
        self._adj = adj
        if not self._connected():
            raise ValueError("graph must be connected")

    def _connected(self):
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in range(self.n):
                if self._adj[u][v] and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen) == self.n

    def multiplicity(self, u, v):
        return self._adj[u][v]

    def degree(self, v):
        return sum(self._adj[v])

    def key(self):
        return (self.n, self.edges)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.key() == other.key()

    def __repr__(self):
        return f"Graph(n={self.n}, edges={list(self.edges)})"


def laplacian(graph):
    """L = degree diagonal minus adjacency with multiplicity."""
    n = graph.n
    out = [[0] * n for _ in range(n)]
    for v in range(n):
        out[v][v] = graph.degree(v)
        for u in range(n):
            if u != v:
                out[v][u] = -graph.multiplicity(v, u)
    return out


def _check_divisor(graph, divisor):
    d = [int(x) for x in divisor]
    if len(d) != graph.n:
        raise ValueError("divisor length differs from the vertex count")
    return d


def _apply_script(graph, divisor, script):
    L = laplacian(graph)
    return [divisor[v] - sum(L[v][u] * script[u] for u in range(graph.n)) for v in range(graph.n)]


def jacobian_group(graph):
    """Invariant factors (> 1) of the degree-zero divisor class group."""
    if graph.n == 1:
        return []
    L = laplacian(graph)
    reduced = [row[1:] for row in L[1:]]
    return [f for f in smith_invariant_factors(reduced) if f > 1]


def _reduce_with_script(graph, divisor, base):
    """Base-reduced representative together with the firing script used.

    Stage one pushes all debt onto the base by firing distance sublevels,
    stage two runs Dhar's burning algorithm until the divisor survives,
    firing each unburnt set as many times as stays legal.
    """
    n = graph.n
    L = laplacian(graph)
    d = list(divisor)
    script = [0] * n

    # distance levels from the base
    dist = [-1] * n
    dist[base] = 0
    queue = deque([base])
    while queue:
        u = queue.popleft()
        for v in range(n):
            if graph.multiplicity(u, v) and dist[v] == -1:
                dist[v] = dist[u] + 1
                queue.append(v)
    maxdist = max(dist)

    def fire(vertices, times):
        """d -= times * L * 1_vertices."""
        for u in vertices:
            script[u] += times
            for v in range(n):
                d[v] -= times * L[v][u]

    for level in range(maxdist, 0, -1):
        below = {v for v in range(n) if dist[v] < level}
        need = 0
        for v in range(n):
            if dist[v] == level and d[v] < 0:
                inbound = -sum(L[v][u] for u in below)
                need = max(need, (-d[v] + inbound - 1) // inbound)
        fire(below, need)

    # Dhar burning from the base
    while True:
        burnt = {base}
        frontier = True
        while frontier:
            frontier = False
            for v in range(n):
                if v in burnt:
                    continue
                incoming = -sum(L[v][u] for u in burnt)
                if incoming > d[v]:
                    burnt.add(v)
                    frontier = True
        if len(burnt) == n:
            break
        # every unburnt v has out[v] <= d[v] edges into the burnt set, so the
        # unburnt set can fire as often as its poorest boundary vertex allows
        unburnt = [v for v in range(n) if v not in burnt]
        out = {v: -sum(L[v][u] for u in burnt) for v in unburnt}
        fire(unburnt, min(d[v] // out[v] for v in unburnt if out[v] > 0))

    return d, script


def reduced_divisor(graph, divisor, base=0):
    """The unique base-reduced divisor equivalent to the given one."""
    d = _check_divisor(graph, divisor)
    if not 0 <= int(base) < graph.n:
        raise ValueError("base vertex out of range")
    reduced, _ = _reduce_with_script(graph, d, int(base))
    return reduced


def is_chip_firing_equivalent(graph, d1, d2):
    """Equality of divisor classes via equal base-reduced representatives."""
    a = _check_divisor(graph, d1)
    b = _check_divisor(graph, d2)
    if sum(a) != sum(b):
        return False
    return reduced_divisor(graph, a) == reduced_divisor(graph, b)


def firing_script(graph, d1, d2):
    """An integer script s with d1 - L s = d2, or None if inequivalent.

    Scripts are normalized so their minimum entry is zero and are replayed
    before being returned.
    """
    a = _check_divisor(graph, d1)
    b = _check_divisor(graph, d2)
    if sum(a) != sum(b):
        return None
    ra, sa = _reduce_with_script(graph, a, 0)
    rb, sb = _reduce_with_script(graph, b, 0)
    if ra != rb:
        return None
    script = [x - y for x, y in zip(sa, sb)]
    low = min(script)
    script = [x - low for x in script]
    if _apply_script(graph, a, script) != b:
        raise AssertionError("firing script failed replay")
    return script
