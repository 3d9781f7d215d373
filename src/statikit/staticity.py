"""Staticity and log Tor dimension of modules on smooth affine toric charts.

A chart is a full-dimensional smooth pointed cone; its coordinate ring is the
polynomial ring on the dual basis and every coordinate is a boundary
variable. Tor against the quotient by a face's complementary variables is
decided from one free resolution of the module per presentation: by balance
of Tor it is the homology of the resolution with those variables set to
zero. Koszul homology computes the same Tor and is run only on a face where
it does not vanish, to give the witness. Both read homology through one
test, the first cycle generator that is not a boundary; degree 0 is no
special case, its cycles being the syzygies of zero columns.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from .errors import NonSmoothChartError
from .groebner import (
    ModuleVector,
    Poly,
    Submodule,
    base_key,
    buchberger,
    matrix_columns,
    normal_form,
    reducer_index,
    syzygy_generators,
)
from .polyhedral import Cone, orthant


class SmoothChart:
    """Affine chart of a full-dimensional smooth pointed cone.

    Chart variable j is the monomial dual to ``variable_rays[j]``; rays are
    ordered descending-lexicographically so the standard orthant gets the
    identity assignment. All chart variables are boundary variables.
    """

    __slots__ = ("cone", "nvars", "variable_rays")

    def __init__(self, cone):
        if not isinstance(cone, Cone):
            raise TypeError("chart expects a Cone")
        if not cone.is_pointed() or cone.dim != cone.ambient_dim or not cone.is_smooth():
            raise NonSmoothChartError(
                "chart cone must be smooth, pointed, and full dimensional; "
                "resolve with stratification_to_smooth_fan first"
            )
        self.cone = cone
        self.nvars = cone.ambient_dim
        self.variable_rays = tuple(sorted(cone.rays, reverse=True))

    def key(self):
        return self.cone.key()

    def __eq__(self, other):
        return isinstance(other, SmoothChart) and self.key() == other.key()

    def __repr__(self):
        return f"SmoothChart(rays={list(map(list, self.variable_rays))})"


def orthant_chart(n):
    return SmoothChart(orthant(n))


class ModulePresentation:
    """Coherent module on a chart, presented as the cokernel of a matrix."""

    __slots__ = ("chart", "rows", "nrows", "ncols", "_resolution")

    def __init__(self, chart, rows):
        self.chart = chart
        checked = []
        width = None
        for row in rows:
            r = []
            for p in row:
                if not isinstance(p, Poly):
                    p = Poly(chart.nvars, p)
                if p.nvars != chart.nvars:
                    raise ValueError("entry variable count differs from the chart")
                if not p.is_polynomial():
                    raise ValueError("presentation entries must be polynomial")
                r.append(p)
            if width is None:
                width = len(r)
            elif len(r) != width:
                raise ValueError("ragged presentation matrix")
            checked.append(tuple(r))
        if not checked:
            raise ValueError("presentation needs at least one row")
        self.rows = tuple(checked)
        self.nrows = len(self.rows)
        self.ncols = width
        self._resolution = None

    def columns(self):
        """Column vectors of the matrix as rank-nrows dict vectors."""
        return matrix_columns(self.rows)

    def kernel(self):
        """Syzygies of the presentation matrix (a Submodule of rank ncols): the columns of d_2."""
        n = self.chart.nvars
        cols, _ = self.resolution(2)[1]
        return Submodule(n, self.ncols, [ModuleVector(n, self.ncols, s) for s in cols])

    def resolution(self, length):
        """The first `length` maps d_1 = A, d_2, ... of a free resolution of coker(A).

        Each map is (columns, rank of its target); d_(i+1) has the syzygy
        generators of d_i as columns. Built lazily, one `syzygy_generators`
        call per map, and kept.
        """
        if self._resolution is None:
            self._resolution = [(self.columns(), self.nrows)]
        maps = self._resolution
        while len(maps) < length:
            cols, target = maps[-1]
            maps.append((syzygy_generators(cols, target, self.chart.nvars), len(cols)))
        return maps[:length]

    def key(self):
        return (self.chart.key(), tuple(tuple(p.key() for p in r) for r in self.rows))

    def __eq__(self, other):
        return isinstance(other, ModulePresentation) and self.key() == other.key()

    def __repr__(self):
        return f"ModulePresentation({self.nrows}x{self.ncols} on {self.chart!r})"


class TorReport(namedtuple("TorReport", "face degree vanishes witness", defaults=(None,))):
    """Vanishing record for one face of the chart monoid.

    ``face`` lists the variables spanning the face; the Koszul sequence is
    its complement. ``witness`` is a nonzero homology class generator
    (wedge labels plus a vector over the free cover) when vanishes is False.
    """

    __slots__ = ()


def _koszul_map(seq, p, n, l):
    """The Koszul differential wedge^p R^s (x) R^l -> wedge^(p-1) R^s (x) R^l of `seq`.

    Returns (columns, rank of the target). Basis vector (w, i) of either
    side is component (index of w) * l + i, the wedges w running over the
    subsets of positions in `seq` in lexicographic order; at p = 0 the map
    is l zero columns into R^0.
    """
    prev_index = {w: i for i, w in enumerate(combinations(range(len(seq)), p - 1))} if p else {}
    cols = []
    for w in combinations(range(len(seq)), p):
        for inner in range(l):
            col = {}
            for q in range(p):
                exp = tuple(1 if t == seq[w[q]] else 0 for t in range(n))
                col[(exp, prev_index[w[:q] + w[q + 1:]] * l + inner)] = Fraction(-1) ** q
            cols.append(col)
    return cols, l * len(prev_index)


def _broadcast(cols, l, wedge_count):
    """One copy of the presentation columns per wedge slot."""
    out = []
    for w in range(wedge_count):
        for col in cols:
            out.append({(e, w * l + c): v for (e, c), v in col.items()})
    return out


def _nonboundary(cols, target, relations, boundaries, n):
    """The first cycle generator that is not a boundary, or None.

    Cycles are the syzygies of `cols + relations` in R^target cut to their
    first len(cols) entries. The relations are tracked, not passed as
    `modulo`: that gives the same cycle module but other generators, and the
    one returned is the first that is not a boundary. `boundaries` may be
    lazy: it is read, and its basis built, only when there is a cycle.
    """
    k = len(cols)
    cycles = [{t: c for t, c in z.items() if t[1] < k} for z in syzygy_generators(cols + relations, target, n)]
    cycles = [z for z in cycles if z]
    if not cycles:
        return None
    basis = reducer_index(buchberger(boundaries, base_key))
    return next((z for z in cycles if normal_form(z, basis, base_key)), None)


def koszul_tor(presentation, seq, degree):
    """Koszul homology of the variable sequence `seq` with module coefficients.

    Reports whether H_degree vanishes; equivalently Tor in that degree
    against the quotient by the face complementary to `seq`.
    """
    chart = presentation.chart
    n = chart.nvars
    seq = tuple(sorted(set(int(v) for v in seq)))
    for v in seq:
        if not 0 <= v < n:
            raise ValueError("sequence variable out of range")
    face = tuple(v for v in range(n) if v not in seq)
    if degree < 0:
        raise ValueError("homological degree must be nonnegative")
    if degree > len(seq):
        return TorReport(face=face, degree=degree, vanishes=True)
    l = presentation.nrows
    acols = presentation.columns()
    d_cols, rank_prev = _koszul_map(seq, degree, n, l)
    next_cols, rank = _koszul_map(seq, degree + 1, n, l)
    relations = _broadcast(acols, l, rank_prev // l)
    boundaries = next_cols + _broadcast(acols, l, rank // l)
    z = _nonboundary(d_cols, rank_prev, relations, boundaries, n)
    if z is None:
        return TorReport(face=face, degree=degree, vanishes=True)
    witness = {
        "wedge_basis": [tuple(seq[i] for i in w) for w in combinations(range(len(seq)), degree)],
        "vector": ModuleVector(n, rank, z),
    }
    return TorReport(face=face, degree=degree, vanishes=False, witness=witness)


def _restrict(col, seq):
    """The column with the variables of `seq` set to zero."""
    return {t: c for t, c in col.items() if not any(t[0][v] for v in seq)}


def _tor_vanishes(presentation, seq, degree):
    """Whether Tor_degree(M, R/(x_seq)) vanishes, read off the free resolution.

    It is the homology of the resolution with the variables of `seq` set to
    zero. R is free over the polynomial ring in the other variables, which
    is all the restricted maps involve, so kernel and image may be taken
    over R.
    """
    (cols, target), (next_cols, _) = presentation.resolution(degree + 1)[degree - 1:]
    restricted = [_restrict(c, seq) for c in cols]
    boundaries = (_restrict(c, seq) for c in next_cols)
    return _nonboundary(restricted, target, [], boundaries, presentation.chart.nvars) is None


def _face_verdicts(presentation, d):
    """(face, sequence, vanishes) of Tor in degree d+1, lazily, in canonical face order.

    A degree above the length of the sequence vanishes with no work.
    """
    if d < 0:
        raise ValueError("log Tor dimension bound must be nonnegative")
    n = presentation.chart.nvars
    for size in range(n + 1):
        for face in combinations(range(n), size):
            seq = tuple(v for v in range(n) if v not in face)
            yield face, seq, d + 1 > len(seq) or _tor_vanishes(presentation, seq, d + 1)


def log_tor_dim_at_most(presentation, d):
    """Chart criterion: Tor in degree d+1 must vanish against every face.

    Returns (holds, reports) where reports has one entry per face subset,
    in canonical face order; a failing face's report is Koszul homology's,
    witness included.
    """
    reports = [
        TorReport(face=face, degree=d + 1, vanishes=True) if vanishes else koszul_tor(presentation, seq, d + 1)
        for face, seq, vanishes in _face_verdicts(presentation, d)
    ]
    return all(rep.vanishes for rep in reports), reports


def is_static(presentation):
    return all(v for _, _, v in _face_verdicts(presentation, 1))


def is_log_flat(presentation):
    return all(v for _, _, v in _face_verdicts(presentation, 0))


def is_regular_sequence_on(kernel, seq):
    """Whether the variable sequence is regular on the quotient by `kernel`.

    `kernel` is a Submodule of R^m (for a presentation, its syzygy module);
    the quotient R^m/kernel is the image module of the presentation. At each
    stage the test is the colon identity (K' : x) = K' with K' the kernel
    enlarged by the previously consumed variables.
    """
    m = kernel.rank
    n = kernel.torus_rank
    if m == 0:
        return True
    gens = [g.as_dict() for g in kernel.generators]
    consumed = []
    for v in seq:
        v = int(v)
        if not 0 <= v < n:
            raise ValueError("sequence variable out of range")
        stage = list(gens)
        for u in consumed:
            exp = tuple(1 if t == u else 0 for t in range(n))
            for i in range(m):
                stage.append({(exp, i): Fraction(1)})
        current = Submodule(n, m, [ModuleVector(n, m, g) for g in stage])
        x = Poly(n, {tuple(1 if t == v else 0 for t in range(n)): 1})
        colon = current.colon(x)
        if colon.reduced_groebner_basis().key() != current.reduced_groebner_basis().key():
            return False
        consumed.append(v)
    return True
