"""Groebner machinery for submodules of free modules over Laurent polynomial rings.

Internal representation: a module vector is a dict mapping (exponent tuple,
component index) to a nonzero Fraction. Inside `buchberger` the coefficients
are integers instead, each basis element a primitive integer vector, and
only the reduced basis it returns is made monic over the rationals. A basis
is reduced against through its `reducer_index`, built once per basis (and
grown with it inside `buchberger`), never once per normal form.
Exponents may be negative in user facing Laurent vectors; all Groebner
computations run on polynomial (nonnegative) data, with Laurent questions
reduced to polynomial ones by unit-monomial translation and saturation by
the product of the variables.

Initial forms take the minimum of the weight pairing; internally weights are
negated so the usual max-convention basis machinery applies, and arbitrary
(including zero) weights are made global by homogenizing with one auxiliary
variable.
"""

from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations
from math import gcd, lcm
from operator import add, le, sub

from .errors import UnsupportedSupportError, ZeroVectorError
from .linalg import dot, lex_positive, primitive, rank
from .polyhedral import Cone, Fan, PLStratification, _arrangement_fan, _tag_key


# ---------------------------------------------------------------------------
# term orders


def base_key(term):
    """Graded reverse lexicographic, component index as final tiebreak, as one flat tuple."""
    exp, comp = term
    return (sum(exp), *[-e for e in reversed(exp)], -comp)


def weight_key(w):
    """Weight-first key; w pairs with the exponent, minimum convention.

    The returned key is max-compatible: the leading term minimizes the
    pairing. Safe only on homogeneous data (the order is not global).
    """
    n = len(w)

    def key(term):
        exp, comp = term
        return (-dot(w, exp[:n]),) + base_key(term)

    return key


def elim_key(split):
    """Block order making components below `split` dominate; used for syzygies."""

    def key(term):
        exp, comp = term
        return (1 if comp < split else 0, sum(exp), *[-e for e in reversed(exp)], -comp)

    return key


# ---------------------------------------------------------------------------
# raw vector arithmetic (dicts keyed by (exp, comp))


def vec_axpy(target, coeff, shift, vec):
    """target += coeff * x^shift * vec, in place; zero terms are dropped."""
    for (exp, comp), c in vec.items():
        key = (tuple(map(add, shift, exp)), comp)
        old = target.get(key)
        new = coeff * c if old is None else old + coeff * c
        if new:
            target[key] = new
        elif old is not None:
            del target[key]


def leading_term(vec, key):
    return max(vec, key=key)


def _divides(e1, e2):
    return all(map(le, e1, e2))


class _TermKeys(dict):
    """term -> order key, each computed on its first lookup."""

    __slots__ = ("key",)

    def __init__(self, key):
        super().__init__()
        self.key = key

    def __missing__(self, term):
        k = self[term] = self.key(term)
        return k


def _primitive(vec):
    """vec divided by the gcd of its integer coefficients."""
    content = gcd(*vec.values())
    if content == 1:
        return vec
    return {t: c // content for t, c in vec.items()}


def reducer_index(basis):
    """The reducers of marked (vector, leading term) pairs, indexed once per basis.

    Maps each component to the list of (leading exponent, vector, leading
    coefficient) of the elements led there, in basis order.
    """
    index = {}
    for g, lt in basis:
        index.setdefault(lt[1], []).append((lt[0], g, g[lt]))
    return index


def normal_form(vec, reducers, key):
    """Full normal form of vec against a `reducer_index`, up to a nonzero factor.

    Each step reduces the work's leading term by the first reducer in its
    component whose leading exponent divides it. Fraction free: where that
    leading coefficient b is not 1, the work and the remainder are first
    scaled by b / gcd(a, b) for the coefficient a being reduced, so integer
    input stays integer. The basis must therefore be integer or monic;
    callers read only whether the result is zero, except `reduce_basis`,
    which rescales it.
    """
    keys = key if isinstance(key, _TermKeys) else _TermKeys(key)
    order = keys.__getitem__
    work = dict(vec)
    remainder = {}
    while work:
        t = max(work, key=order)
        exp, comp = t
        for lexp, g, b in reducers.get(comp, ()):
            if all(map(le, lexp, exp)):
                break
        else:
            remainder[t] = work.pop(t)
            continue
        a = work[t]
        if b == 1:
            c = a
        else:
            d = gcd(a, b)
            m, c = b // d, a // d
            if m < 0:
                m, c = -m, -c
            if m != 1:
                for u in work:
                    work[u] *= m
                for u in remainder:
                    remainder[u] *= m
        vec_axpy(work, -c, tuple(map(sub, exp, lexp)), g)
    return remainder


def _spair(f, lf, g, lg, top):
    """(b/d) x^(top - lf) f - (a/d) x^(top - lg) g, for the lcm exponent top,
    leading coefficients a, b and d = gcd(a, b)."""
    a, b = f[lf], g[lg]
    d = gcd(a, b)
    out = {}
    vec_axpy(out, b // d, tuple(map(sub, top, lf[0])), f)
    vec_axpy(out, -(a // d), tuple(map(sub, top, lg[0])), g)
    return out


def buchberger(vectors, key):
    """Reduced Groebner basis, as marked pairs, of the module the vectors generate.

    Buchberger's algorithm with full normal forms, forming no S-pair that is
    provably useless:

    - pairs are kept per leading-term component, since elements led in
      different components have no S-pair;
    - Buchberger's chain criterion skips (i, j) when some k has
      lt_k | lcm(i, j) and the pairs (i, k) and (j, k) are treated; a
      skipped pair counts as treated. It holds for module vectors, unlike
      the product criterion, which is not used;
    - normal selection by sugar: the pair of least sugar comes first, and
      among those the one with the smallest lcm under the term order
      (Giovini et al., "One sugar cube, please", 1991). The sugar of an
      input is its degree and that of a pair the degree its S-vector would
      have if the inputs were homogenized. Selecting by the lcm alone takes
      high-degree pairs first under weight keys and can blow up.

    The basis is kept as primitive integer vectors: each input is cleared
    of denominators and divided by its content, S-vectors and reduction are
    fraction free, and each new element is made primitive. Each term's
    order key is computed once per run. The reduced basis is unique, so
    none of this changes the result. The reducer index grows with the
    basis, so no normal form rebuilds it. For weight keys the input must be
    homogeneous, otherwise reduction may not terminate.
    """
    keys = _TermKeys(key)
    order = keys.__getitem__
    basis = []
    sugars = []
    reducers = {}  # the basis's `reducer_index`
    peers = {}  # component -> indices of the basis elements led there
    queue = []  # heap of (sugar, key of the lcm term, j, i, lcm exponent) with j < i
    pending = set()  # the (j, i) in the queue

    def add(g, sugar):
        lt = leading_term(g, order)
        i = len(basis)
        basis.append((g, lt))
        sugars.append(sugar)
        exp, comp = lt
        reducers.setdefault(comp, []).append((exp, g, g[lt]))
        for j in peers.setdefault(comp, []):
            top = tuple(map(max, basis[j][1][0], exp))
            pair_sugar = sum(top) + max(sugars[j] - sum(basis[j][1][0]), sugar - sum(exp))
            heappush(queue, (pair_sugar, keys[(top, comp)], j, i, top))
            pending.add((j, i))
        peers[comp].append(i)

    def treated(a, b):
        return (min(a, b), max(a, b)) not in pending

    for v in vectors:
        if v:
            scale = lcm(*(c.denominator for c in v.values()))
            add(_primitive({t: c.numerator * (scale // c.denominator) for t, c in v.items()}), max(sum(exp) for exp, _ in v))
    while queue:
        sugar, _, j, i, top = heappop(queue)
        pending.discard((j, i))
        comp = basis[i][1][1]
        if any(
            k != i and k != j and _divides(basis[k][1][0], top) and treated(i, k) and treated(j, k)
            for k in peers[comp]
        ):
            continue
        r = normal_form(_spair(*basis[j], *basis[i], top), reducers, keys)
        if r:
            add(_primitive(r), sugar)
    return reduce_basis(basis, keys)


def reduce_basis(basis, keys):
    """The unique reduced basis of a marked integer basis: minimal, tail reduced, monic, sorted.

    `keys` is the run's term-key memo. A minimal basis keeps its leading
    terms under tail reduction, so the marks carry over. The output
    coefficients are Fractions.

    Minimality is one pass in order of the leading exponent's total degree,
    which puts every divisor first (a term order need not: weight keys are
    not global); of equal leading terms the earlier element is kept. Each
    element is then reduced against one index of the minimal basis with
    that element left out: under a weight key its own leading term may
    divide one of its tail terms.
    """
    kept = {}  # component -> leading exponents kept so far
    keep = set()
    for i in sorted(range(len(basis)), key=lambda i: sum(basis[i][1][0])):
        exp, comp = basis[i][1]
        lower = kept.setdefault(comp, [])
        if not any(_divides(e, exp) for e in lower):
            lower.append(exp)
            keep.add(i)
    minimal = [pair for i, pair in enumerate(basis) if i in keep]
    reducers = reducer_index(minimal)
    out = []
    for g, lt in minimal:
        row = reducers[lt[1]]
        reducers[lt[1]] = [entry for entry in row if entry[1] is not g]
        r = normal_form(g, reducers, keys)
        reducers[lt[1]] = row
        lc = r[lt]
        out.append(({t: Fraction(c, lc) for t, c in r.items()}, lt))
    out.sort(key=lambda pair: keys[pair[1]], reverse=True)
    return out


def syzygy_generators(vectors, ambient_rank, nvars, modulo=()):
    """Generators of the syzygies of `vectors` in R^ambient_rank modulo `modulo`.

    These are the coefficient vectors a with sum_j a_j vectors[j] in the
    span of `modulo`. Each input gets a tracking unit vector appended, the
    `modulo` vectors none; under an elimination order on
    R^(ambient_rank + len(vectors)) the basis elements led by a tracking term
    are supported on the tracking block, and their tracking parts are the
    syzygies.
    """
    if not vectors:
        return []
    if len(vectors) == 1 and not modulo and any(vectors[0].values()):
        return []  # over a domain, a nonzero vector has no syzygies
    zero = tuple(0 for _ in range(nvars))
    aug = [dict(v) | {(zero, ambient_rank + j): Fraction(1)} for j, v in enumerate(vectors)]
    gb = buchberger(aug + list(modulo), elim_key(ambient_rank))
    return [{(exp, comp - ambient_rank): c for (exp, comp), c in g.items()} for g, lt in gb if lt[1] >= ambient_rank]


def matrix_columns(rows):
    """Columns of a matrix of Poly entries as dict vectors, one component per row."""
    return [{(e, i): c for i, row in enumerate(rows) for e, c in row[j].terms} for j in range(len(rows[0]))]


# ---------------------------------------------------------------------------
# public value types


def _canonical_terms(d):
    return tuple(sorted(((t, c) for t, c in d.items() if c), key=lambda tc: base_key(tc[0]), reverse=True))


class Poly:
    """Scalar polynomial (or Laurent polynomial) in n variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms):
        self.nvars = int(nvars)
        clean = {}
        for exp, c in dict(terms).items():
            exp = tuple(int(x) for x in exp)
            if len(exp) != self.nvars:
                raise ValueError("exponent length mismatch")
            c = Fraction(c)
            if c:
                clean[exp] = clean.get(exp, Fraction(0)) + c
        self.terms = tuple(sorted(((e, c) for e, c in clean.items() if c), key=lambda ec: base_key((ec[0], 0)), reverse=True))

    def as_dict(self):
        return dict(self.terms)

    def is_zero(self):
        return not self.terms

    def is_polynomial(self):
        return all(all(x >= 0 for x in e) for e, _ in self.terms)

    def substitute_monomials(self, exponent_matrix, nvars_out):
        """Map variable j to the monomial with exponent column j."""
        out = {}
        for e, c in self.terms:
            new = tuple(sum(exponent_matrix[i][j] * e[j] for j in range(self.nvars)) for i in range(nvars_out))
            out[new] = out.get(new, Fraction(0)) + c
        return Poly(nvars_out, out)

    def key(self):
        return (self.nvars, self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.terms:
            mono = "*".join(f"x{i + 1}^{p}" for i, p in enumerate(e) if p)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


class ModuleVector:
    """Element of a free module over the Laurent polynomial ring."""

    __slots__ = ("torus_rank", "rank", "terms")

    def __init__(self, torus_rank, rank, terms):
        self.torus_rank = int(torus_rank)
        self.rank = int(rank)
        clean = {}
        for (exp, comp), c in dict(terms).items():
            exp = tuple(int(x) for x in exp)
            comp = int(comp)
            if len(exp) != self.torus_rank:
                raise ValueError("exponent length mismatch")
            if not 0 <= comp < self.rank:
                raise ValueError("component out of range")
            c = Fraction(c)
            if c:
                clean[(exp, comp)] = clean.get((exp, comp), Fraction(0)) + c
        self.terms = _canonical_terms(clean)

    def as_dict(self):
        return dict(self.terms)

    def is_zero(self):
        return not self.terms

    def is_polynomial(self):
        return all(all(x >= 0 for x in e) for (e, _), _ in self.terms)

    def scaled(self, coeff, shift=None):
        shift = tuple(shift) if shift is not None else tuple(0 for _ in range(self.torus_rank))
        out = {}
        vec_axpy(out, Fraction(coeff), shift, self.as_dict())
        return ModuleVector(self.torus_rank, self.rank, out)

    def key(self):
        return (self.torus_rank, self.rank, self.terms)

    def __eq__(self, other):
        return isinstance(other, ModuleVector) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (e, comp), c in self.terms:
            mono = "*".join(f"x{i + 1}^{p}" for i, p in enumerate(e) if p)
            body = f"{c}" + (f"*{mono}" if mono else "")
            bits.append(f"({body})e{comp + 1}")
        return " + ".join(bits)


def initial_form(f, w):
    """Terms of f whose pairing with w attains the minimum."""
    if f.is_zero():
        raise ZeroVectorError("initial form of the zero vector is undefined")
    w = tuple(Fraction(x) for x in w)
    if len(w) != f.torus_rank:
        raise ValueError("weight length mismatch")
    return ModuleVector(f.torus_rank, f.rank, _initial_part(f.as_dict(), w))


def _normalize_generator(vec):
    """Translate a Laurent generator by a unit monomial into polynomial form.

    Generators that are already polynomial are kept verbatim so that
    polynomial submodule semantics (colon, membership) are preserved.
    """
    if vec.is_polynomial():
        return vec
    n = vec.torus_rank
    mins = [min(e[i] for (e, _c2), _ in vec.terms) for i in range(n)]
    shift = tuple(-m for m in mins)
    return vec.scaled(1, shift)


class Submodule:
    """Finitely generated submodule of a free module, polynomial generators."""

    __slots__ = ("torus_rank", "rank", "generators", "_gb", "_reducers")

    def __init__(self, torus_rank, rank, generators):
        self.torus_rank = int(torus_rank)
        self.rank = int(rank)
        gens = []
        for g in generators:
            if not isinstance(g, ModuleVector):
                g = ModuleVector(torus_rank, rank, g)
            if g.torus_rank != self.torus_rank or g.rank != self.rank:
                raise ValueError("generator shape mismatch")
            if g.is_zero():
                continue
            gens.append(_normalize_generator(g))
        self.generators = tuple(sorted(gens, key=lambda v: base_key(leading_term(v.as_dict(), base_key)), reverse=True))
        self._gb = None
        self._reducers = None

    def _basis(self):
        """The reduced Groebner basis under base_key, as marked pairs."""
        if self._gb is None:
            self._gb = buchberger([g.as_dict() for g in self.generators], base_key)
        return self._gb

    def reduced_groebner_basis(self):
        elements = [(ModuleVector(self.torus_rank, self.rank, g), lt) for g, lt in self._basis()]
        return MarkedGB(self.torus_rank, self.rank, elements)

    def contains(self, f):
        """Membership of a polynomial vector via vanishing normal form."""
        if not isinstance(f, ModuleVector):
            f = ModuleVector(self.torus_rank, self.rank, f)
        if f.is_zero():
            return True
        if self._reducers is None:
            self._reducers = reducer_index(self._basis())
        return not normal_form(f.as_dict(), self._reducers, base_key)

    def colon(self, g):
        """The submodule (self : g) = {v : g*v in self} for a scalar poly g."""
        if not isinstance(g, Poly):
            g = Poly(self.torus_rank, g)
        if g.is_zero():
            raise ValueError("colon by the zero polynomial")
        cols = [{(e, i): c for e, c in g.terms} for i in range(self.rank)]
        gens = [gen.as_dict() for gen in self.generators]
        syz = syzygy_generators(cols, self.rank, self.torus_rank, modulo=gens)
        return Submodule(self.torus_rank, self.rank, [ModuleVector(self.torus_rank, self.rank, v) for v in syz])

    def saturate_monomials(self):
        """Saturation with respect to the product of all torus variables.

        A module lies inside its colon, so the colon equals it once each of
        the colon's generators reduces to zero against it.
        """
        n = self.torus_rank
        f = Poly(n, {tuple(1 for _ in range(n)): 1})
        current = self
        while True:
            nxt = current.colon(f)
            if all(current.contains(g) for g in nxt.generators):
                return current
            current = nxt

    def key(self):
        return (self.torus_rank, self.rank, tuple(g.key() for g in self.generators))

    def __eq__(self, other):
        return isinstance(other, Submodule) and self.key() == other.key()

    def __repr__(self):
        return f"Submodule(rank={self.rank}, gens={len(self.generators)})"


class MarkedGB:
    """A reduced Groebner basis with marked leading terms; canonical tag."""

    __slots__ = ("torus_rank", "rank", "elements")

    def __init__(self, torus_rank, rank, elements):
        self.torus_rank = int(torus_rank)
        self.rank = int(rank)
        self.elements = tuple(elements)

    @classmethod
    def from_vectors(cls, torus_rank, rank, vectors):
        """Mark each ModuleVector at its leading term under base_key."""
        return cls(torus_rank, rank, [(mv, leading_term(mv.as_dict(), base_key)) for mv in vectors])

    @property
    def vectors(self):
        return tuple(mv for mv, _ in self.elements)

    def as_submodule(self):
        return Submodule(self.torus_rank, self.rank, self.vectors)

    def key(self):
        return (self.torus_rank, self.rank, tuple((mv.key(), lt) for mv, lt in self.elements))

    def __eq__(self, other):
        return isinstance(other, MarkedGB) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "MarkedGB[" + "; ".join(repr(mv) for mv in self.vectors) + "]"


def reduced_gb(module):
    """The unique reduced Groebner basis under the canonical order."""
    return module.reduced_groebner_basis()


def module_membership(module, f):
    return module.contains(f)


def colon_module(module, g):
    return module.colon(g)


# ---------------------------------------------------------------------------
# initial modules via homogenization


def _homogenize(vec_dict, n):
    """Append one balancing variable making every term the same total degree."""
    if not vec_dict:
        return {}
    degs = {t: sum(t[0]) for t in vec_dict}
    top = max(degs.values())
    return {(t[0] + (top - degs[t],), t[1]): c for t, c in vec_dict.items()}


def _initial_part(vec_dict, w):
    """Terms minimizing <w, exp>, cut to the first len(w) exponents.

    On homogenized vectors the cut drops the balancing variable.
    """
    n = len(w)
    vals = {t: dot(w, t[0][:n]) for t in vec_dict}
    low = min(vals.values())
    return {(t[0][:n], t[1]): c for t, c in vec_dict.items() if vals[t] == low}


def _laurent_canonical(torus_rank, rank, dict_vectors):
    """Canonical MarkedGB of the Laurent span: saturate, then reduce."""
    mod = Submodule(torus_rank, rank, [ModuleVector(torus_rank, rank, v) for v in dict_vectors])
    return mod.saturate_monomials().reduced_groebner_basis()


def initial_module(module, w):
    """Canonical reduced basis of the initial module of a submodule.

    Computed through homogenization and a weight-refined order rather than
    generator-wise initial forms, so it is correct for non-generic weights.
    """
    w = tuple(Fraction(x) for x in w)
    if len(w) != module.torus_rank:
        raise ValueError("weight length mismatch")
    if not module.generators:
        return MarkedGB(module.torus_rank, module.rank, [])
    hom = [_homogenize(g, module.torus_rank) for g, _ in module._basis()]
    ins = [_initial_part(g, w) for g, _ in buchberger(hom, weight_key(w))]
    return _laurent_canonical(module.torus_rank, module.rank, ins)


# ---------------------------------------------------------------------------
# the Groebner stratification


def _check_support(support, n):
    if support.ambient_dim != n:
        raise UnsupportedSupportError("support dimension differs from the torus rank")
    if not support.is_pointed():
        raise UnsupportedSupportError("support must be pointed")
    if support.dim != n:
        raise UnsupportedSupportError("support must be full dimensional")
    if any(any(x < 0 for x in r) for r in support.rays):
        raise UnsupportedSupportError("support must lie in the nonnegative orthant")


class GroebnerStratification:
    """PL stratification of a support cone by initial-module tags."""

    __slots__ = ("module", "support", "stratification")

    def __init__(self, module, support, stratification):
        self.module = module
        self.support = support
        self.stratification = stratification

    @property
    def cells(self):
        return self.stratification.cells

    def strata(self):
        return self.stratification.strata()

    def closed_cell_fan(self):
        return Fan(self.support, [c for c, _ in self.cells])

    def __repr__(self):
        return f"GroebnerStratification(cells={len(self.cells)}, strata={len(self.strata())})"


def _glue(ambient_dim, ci, cj):
    """(wall, union) when two cells of equal dimension meet in a common facet
    and their union is convex with that facet as its wall; otherwise None.

    Only facet incidences are read. The cells span one space when cj's rays
    satisfy ci's span equations. If ci's facet on h = 0 has the ray set W of
    a facet of cj and cj lies in h <= 0, the cells meet in cone(W), the
    wall; cells of a stratification have disjoint relative interiors, so two
    that share a facet lie on its two sides. The union is convex exactly
    when cj lies in ci's other facet halfspaces: a segment from ci to cj
    then crosses h = 0 inside cone(W). Its facet normals are both cells' but
    h and cj's normal on W, and its extreme rays are the cells' rays at
    which the span equations and the tight facet normals have rank n - 1.
    """
    if any(dot(s, r) for s in ci.span_normals for r in cj.rays):
        return None
    walls = dict(zip(cj._facet_rays(), cj.facet_normals))
    h, w = next(((h, w) for h, w in zip(ci.facet_normals, ci._facet_rays()) if w in walls), (None, None))
    if h is None or any(dot(h, r) > 0 for r in cj.rays):
        return None
    rest = [f for f in ci.facet_normals if f != h]
    if any(dot(f, r) < 0 for f in rest for r in cj.rays):
        return None
    facets = tuple(sorted(set(rest + [f for f in cj.facet_normals if f != walls[w]])))
    rays = sorted(set(ci.rays + cj.rays))
    union = Cone._of_extreme_rays(ambient_dim, tuple(
        r for r in rays if rank(list(ci.span_normals) + [f for f in facets if dot(f, r) == 0]) == ambient_dim - 1
    ))
    if not ci.span_normals:
        # primitive facet normals are unique only for a full-dimensional cone
        union._dual = ((), facets)
    return Cone._of_extreme_rays(ambient_dim, tuple(r for r in ci.rays if r in w)), union


def _merge_cells(ambient_dim, cells):
    """Greedy convex merging of equal-tag cells glued along equal-tag walls.

    The relative interiors of the cells partition the support. Two cells
    glue only across a facet of both, so each live cell is paired only with
    the later cells of its dimension and tag that share the ray set of one
    of its facets. Pairs are scanned in order of their cell keys, from the
    first after every merge, and the first that glues along a live wall of
    the same tag merges. Whether two cells glue depends on them alone, so
    each pair is tested once.
    """
    tag_ids = {}
    live = {}  # key -> (cone, tag, (dimension, tag id), facet ray sets)
    peers = {}  # ((dimension, tag id), facet ray set) -> keys of the live cells with that facet

    def put(cone, tag, group):
        facets = cone._facet_rays()
        live[cone.key()] = (cone, tag, group, facets)
        for f in facets:
            peers.setdefault((group, f), set()).add(cone.key())

    for c, t in cells:
        put(c, t, (c.dim, tag_ids.setdefault(_tag_key(t), len(tag_ids))))
    glued = {}
    while True:
        pairs = ((ki, kj) for ki in sorted(live) for kj in sorted({k for f in live[ki][3] for k in peers[live[ki][2], f] if k > ki}))
        for pair in pairs:
            (ci, ti, group, _), cj = live[pair[0]], live[pair[1]][0]
            if pair not in glued:
                glued[pair] = _glue(ambient_dim, ci, cj)
            if glued[pair] is None:
                continue
            w, union = glued[pair]
            wall = live.get(w.key())
            if wall is None or wall[2][1] != group[1]:
                continue
            for k in (*pair, w.key()):
                _, _, g, facets = live.pop(k)
                for f in facets:
                    peers[g, f].discard(k)
            put(union, ti, group)
            break
        else:
            return [live[k][:2] for k in sorted(live)]


def groebner_stratification(module, support):
    """Stratify the support by the initial module of a Laurent submodule.

    Wall normals are read off marked-exponent differences of reduced bases;
    the candidate hyperplane arrangement is re-certified cone by cone and
    refined until every cone sits inside its sample's Groebner cone, then
    equal-tag cells are merged back into convex pieces.
    """
    n = module.torus_rank
    _check_support(support, n)
    if not module.generators:
        tag = MarkedGB(n, module.rank, [])
        cells = [(c, tag) for c in support.faces()]
        return GroebnerStratification(module, support, PLStratification(support, cells, _validated=True))

    hom = [_homogenize(g, n) for g, _ in module._basis()]

    normals = set()
    for g in hom:
        exps = [t[0][:n] for t in g]
        for a, b in combinations(exps, 2):
            d = primitive(tuple(x - y for x, y in zip(a, b)))
            if any(d):
                normals.add(lex_positive(d))

    memo = {}

    def sample_gb(v):
        if v not in memo:
            memo[v] = buchberger(hom, weight_key(v))
        return memo[v]

    # Leading terms minimize the weight, so <v, b - a> >= 0 at a cone's sample
    # v (the sum of its rays) for each term b of an element led by a. A ray
    # making b - a negative puts that hyperplane through the cone, which no
    # hyperplane of the arrangement does, so every normal found is new, and
    # the cones of the last round all sit in their samples' Groebner cones.
    while True:
        fan = _arrangement_fan(support, sorted(normals))
        fresh = set()
        for cone in fan.cones:
            for g, lt in sample_gb(cone.interior_point()):
                a = lt[0][:n]
                for t in g:
                    nvec = tuple(x - y for x, y in zip(t[0][:n], a))
                    if any(dot(r, nvec) < 0 for r in cone.rays):
                        fresh.add(lex_positive(primitive(nvec)))
        if not fresh:
            break
        normals |= fresh

    cells = []
    tag_cache = {}
    for cone in fan.cones:
        v = cone.interior_point()
        ins = tuple(sorted(_canonical_terms(_initial_part(g, v)) for g, _ in sample_gb(v)))
        if ins not in tag_cache:
            tag_cache[ins] = _laurent_canonical(n, module.rank, [dict(t) for t in ins])
        cells.append((cone, tag_cache[ins]))

    merged = _merge_cells(n, cells)
    strat = PLStratification(support, merged, _validated=True)
    return GroebnerStratification(module, support, strat)


# ---------------------------------------------------------------------------
# syzygies of a polynomial matrix


def syzygies(rows, torus_rank):
    """Kernel generators of the module map defined by an l x k matrix.

    `rows` is a list of rows of Poly entries (polynomial, no negative
    exponents); the result is a Submodule of the rank-k free module.
    """
    if not rows:
        raise ValueError("matrix needs at least one row")
    l = len(rows)
    k = len(rows[0])
    for row in rows:
        if len(row) != k:
            raise ValueError("ragged matrix")
        for p in row:
            if not p.is_polynomial():
                raise ValueError("matrix entries must be polynomial")
    if k == 0:
        return Submodule(torus_rank, 0, [])
    syz = syzygy_generators(matrix_columns(rows), l, torus_rank)
    gens = [ModuleVector(torus_rank, k, s) for s in syz]
    return Submodule(torus_rank, k, gens)
