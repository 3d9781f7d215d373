"""Seeded job generators for the benchmark workloads.

A job is a dict with the CLI subcommand ``cmd``, the argument ``arg`` that
the CLI receives (an inline JSON document or a fixture path) and ``meta``,
which only the output checks read. Equal seeds give equal jobs.

The presentation shapes are the acceptance tests' own (criteria 4 and 5),
with the shape of each matrix taken from a balanced schedule instead of
independent draws: every seed gets the same number of matrices of each
shape, so seeds differ only in the entries, and the corpus costs about the
same (within 3% over five seeds) for every seed.
"""

import json
import random

EXAMPLE2 = "tests/fixtures/example2.json"

COEFFS = (1, -1, 2, -2)
C4_SHAPES = [(rows, cols) for rows in (1, 2) for cols in (1, 2)]
C5_SHAPES = [(nvars, rows, cols) for nvars in (2, 2, 3) for rows in (1, 2) for cols in (1, 2, 3)]
N_STATIFY = 252
N_CHECK = 504

N_GRAPHS = 120
SIZES = list(range(20, 41))
# Depths from vertex 0 of the criterion-7-style graphs on 20-40 vertices, in
# about the shares the generator draws them (8.7%, 48.6%, 35.3% and 6.5% for
# depths 3 to 6 over 20,000 draws; depths 2, 7, 8 and 9 together 0.9%).
DEPTHS = [3] + [4] * 6 + [5] * 4 + [6]
SCRIPT_RANGE = 3


def _orthant(n):
    rays = [[str(int(i == j)) for j in range(n)] for i in range(n)]
    return {"ambient_dim": str(n), "rays": rays}


def _poly(terms):
    return [{"coeff": str(c), "exp": [str(x) for x in e]} for e, c in terms.items()]


def _schedule(rng, shapes, count):
    """``count`` items cycling through ``shapes``, in a seeded order."""
    reps = -(-count // len(shapes))
    out = (shapes * reps)[:count]
    rng.shuffle(out)
    return out


def _c4_entry(rng):
    """Criterion 4: 0-2 terms in 2 variables, total degree at most 3."""
    terms = {}
    for _ in range(rng.randint(0, 2)):
        while True:
            e = (rng.randint(0, 3), rng.randint(0, 3))
            if sum(e) <= 3:
                break
        terms[e] = rng.choice(COEFFS)
    return _poly(terms)


def _c5_entry(rng, nvars):
    """Criterion 5: a monomial with exponents 0-3, or zero one time in five."""
    if rng.random() < 0.2:
        return []
    e = tuple(rng.randint(0, 3) for _ in range(nvars))
    return _poly({e: rng.choice(COEFFS)})


def _job(cmd, doc, **meta):
    return {"cmd": cmd, "arg": json.dumps(doc), "meta": meta}


def example2_jobs(seed):
    """The fixed Example 2 statification; the seed does not change it."""
    return [{"cmd": "statify", "arg": EXAMPLE2, "meta": {}}]


def presentation_jobs(seed):
    """``statify`` and ``verify-theorem`` against the one-cone orthant fan on
    criterion-4 shapes, then ``check-static`` on criterion-5 shapes."""
    rng = random.Random(seed)
    fan = {"ambient_dim": "2", "support": _orthant(2), "cones": [_orthant(2)]}
    jobs = []
    for rows, cols in _schedule(rng, C4_SHAPES, N_STATIFY):
        doc = {"chart": _orthant(2), "matrix": [[_c4_entry(rng) for _ in range(cols)] for _ in range(rows)]}
        jobs.append(_job("statify", doc))
        jobs.append(_job("verify-theorem", {"presentation": doc, "fan": fan}))
    for nvars, rows, cols in _schedule(rng, C5_SHAPES, N_CHECK):
        doc = {"chart": _orthant(nvars), "matrix": [[_c5_entry(rng, nvars) for _ in range(cols)] for _ in range(rows)]}
        jobs.append(_job("check-static", doc))
    return jobs


def laplacian(n, edges):
    lap = [[0] * n for _ in range(n)]
    for u, v in edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    return lap


def fire(lap, divisor, script):
    """d - L s, the divisor left after firing each vertex v script[v] times."""
    return [d - sum(a * s for a, s in zip(row, script)) for d, row in zip(divisor, lap)]


def _depth(n, edges):
    """The largest distance from vertex 0, the base of every reduction."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = {0: 0}
    queue = [0]
    for u in queue:
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return max(dist.values())


def _graph(rng, n, depth):
    """A random recursive tree plus n // 2 random edges (the shape of the
    criterion-7 test graphs), redrawn until its depth from vertex 0 is ``depth``."""
    while True:
        edges = [(v, rng.randint(0, v - 1)) for v in range(1, n)]
        while len(edges) < n - 1 + n // 2:
            u, v = rng.randint(0, n - 1), rng.randint(0, n - 1)
            if u != v:
                edges.append((u, v))
        if _depth(n, edges) == depth:
            return edges


def chipfiring_jobs(seed):
    """Connected multigraphs on 20-40 vertices, sizes and depths balanced.

    The depth from vertex 0 sets how long Dhar burning runs, and single
    graphs of depth 5 or 6 take over a second. So that every seed gets the
    same number of graphs of each size and of each depth, sizes and depths
    follow balanced schedules (``SIZES``, and ``DEPTHS`` in the generator's
    own shares), and each graph is redrawn until it has its depth. Each graph
    gets one divisor pair of equal degree. Every second pair is equivalent by
    construction (d2 = d1 - L s for a random script s with entries in -3..3,
    as in criterion 7); the others are random and almost surely inequivalent.
    Each graph runs ``jacobian``, ``chip-equiv`` and ``firing-script``, in
    that order.
    """
    rng = random.Random(seed)
    sizes = _schedule(rng, SIZES, N_GRAPHS)
    depths = _schedule(rng, DEPTHS, N_GRAPHS)
    jobs = []
    for i, (n, depth) in enumerate(zip(sizes, depths)):
        edges = _graph(rng, n, depth)
        lap = laplacian(n, edges)
        d1 = [rng.randint(-4, 5) for _ in range(n)]
        constructed = i % 2 == 0
        if constructed:
            d2 = fire(lap, d1, [rng.randint(-SCRIPT_RANGE, SCRIPT_RANGE) for _ in range(n)])
        else:
            d2 = [rng.randint(-4, 5) for _ in range(n)]
            d2[0] += sum(d1) - sum(d2)
        graph = {"vertices": str(n), "edges": [[str(u), str(v)] for u, v in edges]}
        pair = {"graph": graph, "d1": [str(x) for x in d1], "d2": [str(x) for x in d2]}
        meta = {"n": n, "edges": edges, "d1": d1, "d2": d2, "constructed": constructed}
        jobs.append(_job("jacobian", graph, **meta))
        jobs.append(_job("chip-equiv", pair, **meta))
        jobs.append(_job("firing-script", pair, **meta))
    return jobs


WORKLOADS = {
    "example2": example2_jobs,
    "presentations": presentation_jobs,
    "chipfiring": chipfiring_jobs,
}
