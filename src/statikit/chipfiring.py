"""Chip firing on finite multigraphs: Laplacians, Jacobians, reduced divisors.

Divisors are integer chip vectors indexed by vertices; two divisors are
equivalent when they differ by an integer combination of Laplacian columns.
Canonical representatives are base-reduced divisors computed with Dhar's
burning algorithm.
"""

from .linalg import smith_invariant_factors


class Graph:
    """Connected loop-free multigraph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "_nbrs")

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
        # one {neighbour: multiplicity} map per vertex
        self._nbrs = [{} for _ in range(self.n)]
        for u, v in self.edges:
            self._nbrs[u][v] = self._nbrs[u].get(v, 0) + 1
            self._nbrs[v][u] = self._nbrs[v].get(u, 0) + 1
        if -1 in _distances(self, 0):
            raise ValueError("graph must be connected")

    def multiplicity(self, u, v):
        return self._nbrs[u].get(v, 0)

    def degree(self, v):
        return sum(self._nbrs[v].values())

    def key(self):
        return (self.n, self.edges)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.key() == other.key()

    def __repr__(self):
        return f"Graph(n={self.n}, edges={list(self.edges)})"


def _distances(graph, source):
    """Breadth-first distances from ``source``; -1 marks unreachable vertices."""
    dist = [-1] * graph.n
    dist[source] = 0
    queue = [source]
    for u in queue:
        for v in graph._nbrs[u]:
            if dist[v] == -1:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def laplacian(graph):
    """L = degree diagonal minus adjacency with multiplicity."""
    out = [[0] * graph.n for _ in range(graph.n)]
    for v, nbrs in enumerate(graph._nbrs):
        out[v][v] = sum(nbrs.values())
        for u, m in nbrs.items():
            out[v][u] = -m
    return out


def _check_divisor(graph, divisor):
    d = [int(x) for x in divisor]
    if len(d) != graph.n:
        raise ValueError("divisor length differs from the vertex count")
    return d


def _apply_script(graph, divisor, script):
    """divisor - L script: v sends script[v] - script[u] chips along each edge uv."""
    return [
        divisor[v] - sum(m * (script[v] - script[u]) for u, m in nbrs.items())
        for v, nbrs in enumerate(graph._nbrs)
    ]


def jacobian_group(graph):
    """Invariant factors (> 1) of the degree-zero divisor class group."""
    if graph.n == 1:
        return []
    L = laplacian(graph)
    reduced = [row[1:] for row in L[1:]]
    return [f for f in smith_invariant_factors(reduced) if f > 1]


def _reduce_with_script(graph, divisor, base):
    """Base-reduced representative together with the firing script used.

    Three stages, none of which fires the base:

    - Local borrowing: at most n sweeps, farthest vertex first. In each
      sweep every vertex but the base that is in debt borrows
      ceil(debt / degree) times from all its neighbours, so debt cancels
      against nearby chips.
    - Per-component borrowing: level by level from the farthest in, each
      connected component of the vertices at that distance or more that
      holds a debtor at that level borrows from the level below, as often
      as its neediest debtor there requires. A component never borrows more
      often than its whole level would need, and afterwards only the base
      can be in debt.
    - Dhar's burning algorithm from the base until the divisor survives,
      firing each unburnt set as many times as stays legal.
    """
    n = graph.n
    nbrs = graph._nbrs
    d = list(divisor)
    script = [0] * n
    dist = _distances(graph, base)

    def borrow(vertices, times):
        """Each of ``vertices`` borrows ``times`` times, taking one chip along
        each of its edges per borrow: d += times * L * 1_vertices. Moves
        inside the set cancel."""
        for v in vertices:
            script[v] -= times
            for u, m in nbrs[v].items():
                d[u] -= times * m
                d[v] += times * m

    # local borrowing, farthest vertex first
    degree = [sum(nb.values()) for nb in nbrs]
    order = sorted((v for v in range(n) if v != base), key=lambda v: -dist[v])
    for _ in range(n):
        debtors = 0
        for v in order:
            if d[v] < 0:
                borrow((v,), (degree[v] - 1 - d[v]) // degree[v])
                debtors += 1
        if not debtors:
            break

    # per-component borrowing: every edge that leaves a component of
    # {dist >= level} goes down to level - 1; the nearer vertices start out
    # seen, so the walk stays inside {dist >= level}
    for level in range(max(dist), 0, -1):
        seen = [x < level for x in dist]
        for v in range(n):
            if seen[v] or dist[v] != level or d[v] >= 0:
                continue
            component = [v]
            seen[v] = True
            for x in component:
                for u in nbrs[x]:
                    if not seen[u]:
                        seen[u] = True
                        component.append(u)
            need = 0
            for x in component:
                if dist[x] == level and d[x] < 0:
                    inbound = sum(m for u, m in nbrs[x].items() if dist[u] < level)
                    need = max(need, (inbound - 1 - d[x]) // inbound)
            borrow(component, need)

    # Dhar burning from the base: each burnt vertex heats its neighbours by
    # its edge counts, and a vertex burns once its heat exceeds its chips
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
        # every unburnt v has heat[v] <= d[v] edges into the burnt set, so the
        # unburnt set can fire as often as its poorest boundary vertex allows;
        # chips cross only those heat[v] edges
        times = min(d[v] // heat[v] for v in unburnt if heat[v])
        for v in unburnt:
            script[v] += times
            if heat[v]:
                d[v] -= times * heat[v]
                for u, m in nbrs[v].items():
                    if burnt[u]:
                        d[u] += times * m

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
