"""Groebner machinery for submodules of free modules over Laurent polynomial rings.

Internal representation: a module vector is a dict mapping (exponent tuple,
component index) to a nonzero Fraction. Exponents may be negative in user
facing Laurent vectors; all Groebner computations run on polynomial
(nonnegative) data, with Laurent questions reduced to polynomial ones by
unit-monomial translation and saturation by the product of the variables.

Initial forms take the minimum of the weight pairing; internally weights are
negated so the usual max-convention basis machinery applies, and arbitrary
(including zero) weights are made global by homogenizing with one auxiliary
variable.
"""

from fractions import Fraction
from itertools import combinations

from .errors import UnsupportedSupportError, ZeroVectorError
from .linalg import dot, lex_positive, primitive, vneg
from .polyhedral import Cone, Fan, PLStratification, _arrangement_fan, _tag_key


# ---------------------------------------------------------------------------
# term orders


def grevlex_key(exp):
    return (sum(exp), tuple(-e for e in reversed(exp)))


def base_key(term):
    """Graded reverse lexicographic, component index as final tiebreak."""
    exp, comp = term
    return grevlex_key(exp) + (-comp,)


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
        return (1 if comp < split else 0,) + base_key(term)

    return key


# ---------------------------------------------------------------------------
# raw vector arithmetic (dicts keyed by (exp, comp))


def vec_axpy(target, coeff, shift, vec):
    """target += coeff * x^shift * vec, in place."""
    for (exp, comp), c in vec.items():
        key = (tuple(a + b for a, b in zip(shift, exp)), comp)
        new = target.get(key, Fraction(0)) + coeff * c
        if new:
            target[key] = new
        else:
            target.pop(key, None)


def leading_term(vec, key):
    return max(vec, key=key)


def _divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def normal_form(vec, basis, key):
    """Full normal form of vec against (vector, leading-term) pairs."""
    work = dict(vec)
    remainder = {}
    while work:
        t = max(work, key=key)
        exp, comp = t
        hit = None
        for g, lt in basis:
            lexp, lcomp = lt
            if lcomp == comp and _divides(lexp, exp):
                hit = (g, lt)
                break
        if hit is None:
            remainder[t] = work.pop(t)
            continue
        g, (lexp, lcomp) = hit
        coeff = work[t] / g[(lexp, lcomp)]
        shift = tuple(a - b for a, b in zip(exp, lexp))
        vec_axpy(work, -coeff, shift, g)
    return remainder


def _spair(f, lf, g, lg):
    (ef, cf), (eg, cg) = lf, lg
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    out = {}
    vec_axpy(out, Fraction(1) / f[lf], tuple(a - b for a, b in zip(lcm, ef)), f)
    vec_axpy(out, Fraction(-1) / g[lg], tuple(a - b for a, b in zip(lcm, eg)), g)
    return out


def buchberger(vectors, key):
    """Groebner basis of the module generated by the given vectors.

    Plain Buchberger with full normal forms. For weight keys the input must
    be homogeneous, otherwise reduction may not terminate.
    """
    basis = []
    for v in vectors:
        if v:
            v = dict(v)
            basis.append((v, leading_term(v, key)))
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        i, j = pairs.pop(0)
        (f, lf), (g, lg) = basis[i], basis[j]
        if lf[1] != lg[1]:
            continue
        s = _spair(f, lf, g, lg)
        r = normal_form(s, basis, key)
        if r:
            basis.append((r, leading_term(r, key)))
            pairs.extend((len(basis) - 1, t) for t in range(len(basis) - 1))
    return reduce_basis([g for g, _ in basis], key)


def reduce_basis(vectors, key):
    """The unique reduced basis: minimal, tail reduced, monic, sorted."""
    vecs = [dict(v) for v in vectors if v]
    lts = [leading_term(v, key) for v in vecs]
    keep = []
    for i, lt in enumerate(lts):
        exp, comp = lt
        shadowed = False
        for j, other in enumerate(lts):
            if i == j:
                continue
            oexp, ocomp = other
            if ocomp == comp and _divides(oexp, exp):
                if other != lt or j < i:
                    shadowed = True
                    break
        if not shadowed:
            keep.append(i)
    vecs = [vecs[i] for i in keep]
    out = []
    for i, v in enumerate(vecs):
        rest = [(u, leading_term(u, key)) for j, u in enumerate(vecs) if j != i]
        r = normal_form(v, rest, key)
        if r:
            lt = leading_term(r, key)
            lc = r[lt]
            out.append(({t: c / lc for t, c in r.items()}, lt))
    out.sort(key=lambda pair: key(pair[1]), reverse=True)
    return [g for g, _ in out]


def syzygy_generators(vectors, ambient_rank, nvars):
    """Generators of the syzygy module of the given vectors in R^ambient_rank.

    Works by an elimination order on R^(ambient_rank + len(vectors)) with a
    tracking unit vector appended to each input; basis elements supported
    entirely on the tracking block are the syzygies.
    """
    k = len(vectors)
    if k == 0:
        return []
    zero = tuple(0 for _ in range(nvars))
    aug = []
    for j, v in enumerate(vectors):
        new = dict(v)
        new[(zero, ambient_rank + j)] = Fraction(1)
        aug.append(new)
    gb = buchberger(aug, elim_key(ambient_rank))
    out = []
    for g in gb:
        lt = leading_term(g, elim_key(ambient_rank))
        if lt[1] < ambient_rank:
            continue
        out.append({(exp, comp - ambient_rank): c for (exp, comp), c in g.items()})
    return out


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
        self.terms = tuple(sorted(((e, c) for e, c in clean.items() if c), key=lambda ec: grevlex_key(ec[0]), reverse=True))

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
    vals = {t: dot(w, t[0][0:f.torus_rank]) for t, _ in f.terms}
    d0 = min(vals[t] for t, _ in f.terms)
    kept = {t: c for t, c in f.terms if vals[t] == d0}
    return ModuleVector(f.torus_rank, f.rank, kept)


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

    __slots__ = ("torus_rank", "rank", "generators", "_gb")

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

    def _basis(self):
        if self._gb is None:
            self._gb = buchberger([g.as_dict() for g in self.generators], base_key)
        return self._gb

    def reduced_groebner_basis(self):
        return MarkedGB.from_vectors(self.torus_rank, self.rank, self._basis())

    def contains(self, f):
        """Membership of a polynomial vector via vanishing normal form."""
        if not isinstance(f, ModuleVector):
            f = ModuleVector(self.torus_rank, self.rank, f)
        if f.is_zero():
            return True
        basis = [(g, leading_term(g, base_key)) for g in self._basis()]
        return not normal_form(f.as_dict(), basis, base_key)

    def colon(self, g):
        """The submodule (self : g) = {v : g*v in self} for a scalar poly g."""
        if not isinstance(g, Poly):
            g = Poly(self.torus_rank, g)
        if g.is_zero():
            raise ValueError("colon by the zero polynomial")
        gdict = g.as_dict()
        cols = []
        for i in range(self.rank):
            cols.append({(e, i): c for e, c in gdict.items()})
        cols.extend(gen.as_dict() for gen in self.generators)
        syz = syzygy_generators(cols, self.rank, self.torus_rank)
        out = []
        for s in syz:
            v = {(e, c): co for (e, c), co in s.items() if c < self.rank}
            if v:
                out.append(v)
        return Submodule(self.torus_rank, self.rank, [ModuleVector(self.torus_rank, self.rank, v) for v in out])

    def saturate_monomials(self):
        """Saturation with respect to the product of all torus variables."""
        n = self.torus_rank
        f = Poly(n, {tuple(1 for _ in range(n)): 1})
        current = self
        while True:
            nxt = current.colon(f)
            if nxt.reduced_groebner_basis().key() == current.reduced_groebner_basis().key():
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
    def from_vectors(cls, torus_rank, rank, dict_vectors):
        elements = []
        for v in dict_vectors:
            mv = ModuleVector(torus_rank, rank, v)
            elements.append((mv, leading_term(v, base_key)))
        return cls(torus_rank, rank, elements)

    @property
    def vectors(self):
        return tuple(mv for mv, _ in self.elements)

    def as_submodule(self):
        return Submodule(self.torus_rank, self.rank, self.vectors)

    def is_zero_module(self):
        return not self.elements

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


def _dehomogenize(vec_dict):
    return {(t[0][:-1], t[1]): c for t, c in vec_dict.items()}


def _weight_initial_part(vec_dict, w):
    """Terms maximizing the negated pairing, i.e. minimizing <w, exp>."""
    n = len(w)
    vals = {t: -dot(w, t[0][:n]) for t in vec_dict}
    top = max(vals.values())
    return {t: c for t, c in vec_dict.items() if vals[t] == top}


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
    base = module._basis()
    hom = [_homogenize(g, module.torus_rank) for g in base]
    gb = buchberger(hom, weight_key(w))
    ins = [_dehomogenize(_weight_initial_part(g, w)) for g in gb]
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


def _merge_cells(ambient_dim, cells):
    """Greedy convex merging of equal-tag cells glued along equal-tag walls."""
    cells = sorted(cells, key=lambda ct: ct[0].key())
    changed = True
    while changed:
        changed = False
        for i in range(len(cells)):
            ci, ti = cells[i]
            merged_done = False
            for j in range(i + 1, len(cells)):
                cj, tj = cells[j]
                if ci.dim != cj.dim:
                    continue
                if _tag_key(ti) != _tag_key(tj):
                    continue
                w = ci.intersection(cj)
                if w.dim != ci.dim - 1:
                    continue
                face_keys_i = {f.key() for f in ci.faces()}
                face_keys_j = {f.key() for f in cj.faces()}
                if w.key() not in face_keys_i or w.key() not in face_keys_j:
                    continue
                wall = next(((c, t) for c, t in cells if c.key() == w.key()), None)
                if wall is None or _tag_key(wall[1]) != _tag_key(ti):
                    continue
                h = next((a for a in ci.facet_normals if all(dot(a, r) == 0 for r in w.rays)), None)
                if h is None:
                    continue
                union = Cone(ambient_dim, ci.rays + cj.rays)
                if union.dim != ci.dim:
                    continue
                plus = union.cut([h])
                minus = union.cut([vneg(h)])
                if not (ci.contains_cone(plus) and cj.contains_cone(minus)):
                    continue
                new_cells = [ct for k, ct in enumerate(cells) if k not in (i, j) and ct[0].key() != w.key()]
                new_cells.append((union, ti))
                cells = sorted(new_cells, key=lambda ct: ct[0].key())
                changed = True
                merged_done = True
                break
            if merged_done:
                break
    return cells


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

    base = module._basis()
    hom = [_homogenize(g, n) for g in base]

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

    while True:
        fan = _arrangement_fan(support, sorted(normals))
        new_normals = set()
        celldata = []
        for cone in fan.cones:
            v = cone.interior_point()
            gb = sample_gb(v)
            violated = False
            for g in gb:
                lt = leading_term(g, weight_key(v))
                a = lt[0][:n]
                for t in g:
                    b = t[0][:n]
                    nvec = tuple(x - y for x, y in zip(b, a))
                    if not any(nvec):
                        continue
                    if any(dot(r, nvec) < 0 for r in cone.rays):
                        violated = True
                        new_normals.add(lex_positive(primitive(nvec)))
            if not violated:
                celldata.append((cone, v, gb))
        fresh = new_normals - normals
        if fresh:
            normals |= fresh
            continue
        break

    cells = []
    tag_cache = {}
    for cone, v, gb in celldata:
        ins = tuple(sorted(_canonical_terms(_dehomogenize(_weight_initial_part(g, v))) for g in gb))
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
    cols = []
    for j in range(k):
        col = {}
        for i in range(l):
            for e, c in rows[i][j].terms:
                col[(e, i)] = col.get((e, i), Fraction(0)) + c
        cols.append({t: c for t, c in col.items() if c})
    syz = syzygy_generators(cols, l, torus_rank)
    gens = [ModuleVector(torus_rank, k, s) for s in syz]
    return Submodule(torus_rank, k, gens)
