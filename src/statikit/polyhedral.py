"""Exact rational polyhedral cones, fans, and piecewise-linear stratifications.

All cones are given by primitive integer rays and live in a fixed ambient
lattice Z^n. Dual (inequality) descriptions are computed with the double
description method over exact integers; no floating point is used anywhere.
"""

from itertools import chain

from .errors import (
    NotPointedError,
    RayOutsideSupportError,
    SupportMismatchError,
    UnsupportedSupportError,
)
from .linalg import (
    dot,
    is_zero,
    lex_positive,
    primitive,
    rank,
    smith_invariant_factors,
    vneg,
    vscale,
    vsub,
)


def double_description(ambient_dim, normals):
    """Generators of the cone {x : <a, x> >= 0 for a in normals}.

    Returns (lineality_basis, extreme_rays), both tuples of primitive
    integer vectors; the extreme rays are taken modulo the lineality space.
    Every ray carries the exact set of constraints tight at it, and a (+, -)
    pair is combined only if the constraints tight at both have rank
    n - dim(lineality) - 2, the algebraic adjacency test (Fukuda and Prodon,
    "Double description method revisited"). The rays therefore stay extreme
    after every constraint and need no minimisation.
    """
    normals = [tuple(a) for a in normals if not is_zero(a)]
    lin = [tuple(1 if j == i else 0 for j in range(ambient_dim)) for i in range(ambient_dim)]
    rays = []  # list of (vector, frozenset of the indices of the constraints tight at it)

    for idx, a in enumerate(normals):
        lvals = [dot(a, l) for l in lin]
        i0 = next((i for i, v in enumerate(lvals) if v != 0), None)
        if i0 is not None:
            # the lineality space loses the direction l0, which becomes a
            # ray; the other generators are projected onto a^perp along l0
            l0, v0 = lin[i0], lvals[i0]
            if v0 < 0:
                l0, v0 = vneg(l0), -v0
            lin = [primitive(vsub(vscale(v0, l), vscale(v, l0))) for i, (l, v) in enumerate(zip(lin, lvals)) if i != i0]
            rays = [(primitive(vsub(vscale(v0, r), vscale(dot(a, r), l0))), z | {idx}) for r, z in rays]
            rays.append((primitive(l0), frozenset(range(idx))))
        else:
            need = ambient_dim - len(lin) - 2
            pos, neg, kept = [], [], []
            for r, z in rays:
                rv = dot(a, r)
                if rv > 0:
                    pos.append((r, z, rv))
                    kept.append((r, z))
                elif rv < 0:
                    neg.append((r, z, rv))
                else:
                    kept.append((r, z | {idx}))
            for rp, zp, vp in pos:
                for rm, zm, vm in neg:
                    common = zp & zm
                    if len(common) >= need and rank([normals[j] for j in common]) == need:
                        kept.append((primitive(vsub(vscale(vp, rm), vscale(vm, rp))), common | {idx}))
            rays = kept
    return tuple(sorted(lin)), tuple(sorted(r for r, _ in rays))


def _in_dual(dual, x):
    """Whether x satisfies a (span equations, facet inequalities) description."""
    eqs, facets = dual
    return all(dot(s, x) == 0 for s in eqs) and all(dot(f, x) >= 0 for f in facets)


class Cone:
    """Rational polyhedral cone spanned by finitely many primitive rays.

    Stores the canonical extreme-ray description; inequality and span data
    are derived on first use and cached. Instances are immutable.
    """

    __slots__ = ("ambient_dim", "rays", "_dual", "_faces")

    def __init__(self, ambient_dim, rays=()):
        self.ambient_dim = int(ambient_dim)
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
        cleaned = []
        for r in rays:
            r = tuple(int(x) for x in r)
            if len(r) != self.ambient_dim:
                raise ValueError("ray has wrong dimension")
            if not is_zero(r):
                cleaned.append(primitive(r))
        # greedy: drop the first ray that lies in the cone of the others,
        # then go on; for a non-pointed cone the result depends on the order.
        # Linearly independent rays are all extreme: none would be dropped
        kept = list(dict.fromkeys(cleaned))
        if rank(kept) < len(kept):
            i = 0
            while i < len(kept):
                if _in_dual(double_description(self.ambient_dim, kept[:i] + kept[i + 1:]), kept[i]):
                    kept.pop(i)
                else:
                    i += 1
        self.rays = tuple(sorted(kept))
        self._dual = None
        self._faces = None

    @classmethod
    def _of_extreme_rays(cls, ambient_dim, rays):
        """The cone of sorted primitive rays known to be its extreme rays."""
        cone = cls.__new__(cls)
        cone.ambient_dim = ambient_dim
        cone.rays = rays
        cone._dual = None
        cone._faces = None
        return cone

    # -- derived descriptions -------------------------------------------------

    def _dual_description(self):
        if self._dual is None:
            self._dual = double_description(self.ambient_dim, self.rays)
        return self._dual

    @property
    def span_normals(self):
        """Integral equations cutting out the linear span of the cone."""
        return self._dual_description()[0]

    @property
    def facet_normals(self):
        """Facet inequalities, one representative per facet (mod span)."""
        return self._dual_description()[1]

    @property
    def dim(self):
        return self.ambient_dim - len(self.span_normals)

    def is_pointed(self):
        return rank(self.span_normals + self.facet_normals) == self.ambient_dim

    # -- predicates ------------------------------------------------------------

    @property
    def inequalities(self):
        """The facet normals and both signs of the span normals."""
        return self.facet_normals + self.span_normals + tuple(vneg(s) for s in self.span_normals)

    def contains(self, x):
        return _in_dual(self._dual_description(), tuple(x))

    def relint_contains(self, x):
        x = tuple(x)
        return all(dot(s, x) == 0 for s in self.span_normals) and all(
            dot(f, x) > 0 for f in self.facet_normals
        )

    def contains_cone(self, other):
        return all(self.contains(r) for r in other.rays)

    def interior_point(self):
        """A deterministic lattice point in the relative interior."""
        p = [0] * self.ambient_dim
        for r in self.rays:
            for i, x in enumerate(r):
                p[i] += x
        return tuple(p)

    def is_smooth(self):
        """Whether the rays extend to a basis of the ambient lattice."""
        if not self.is_pointed():
            raise NotPointedError("smoothness is only defined for pointed cones")
        if len(self.rays) != self.dim:
            return False
        factors = smith_invariant_factors([list(r) for r in self.rays])
        return all(f == 1 for f in factors)

    # -- constructions ----------------------------------------------------------

    def faces(self):
        """All faces, including {0} and the cone itself, in canonical order.

        Every face of a pointed cone is the intersection of the facets
        containing it, so the ray sets of the faces are the closure of the
        full ray set under intersection with each facet's ray set (Kaibel and
        Pfetsch, "Computing the face lattice of a polytope from its
        vertex-facet incidences"). The rays of the cone on a face are the
        extreme rays of that face, and the top face is the cone itself.
        """
        if self._faces is None:
            if not self.is_pointed():
                raise NotPointedError("face enumeration requires a pointed cone")
            facets = self._facet_rays()
            found = {frozenset(self.rays)}
            todo = list(found)
            while todo:
                face = todo.pop()
                for facet in facets:
                    meet = face & facet
                    if meet not in found:
                        found.add(meet)
                        todo.append(meet)
            keys = sorted(tuple(r for r in self.rays if r in face) for face in found)
            self._faces = tuple(self if k == self.rays else Cone._of_extreme_rays(self.ambient_dim, k) for k in keys)
        return self._faces

    def _facet_rays(self):
        """The set of rays on each facet, in the order of the facet normals."""
        return [frozenset(r for r in self.rays if dot(a, r) == 0) for a in self.facet_normals]

    def cut(self, normals):
        """The part of the cone where <a, x> >= 0 for every a in normals.

        The result must be pointed, as it is whenever the cone is.
        """
        lin, rays = double_description(self.ambient_dim, list(normals) + list(self.inequalities))
        if lin:
            raise NotPointedError("a cut of a cone must be pointed")
        return Cone._of_extreme_rays(self.ambient_dim, rays)

    def intersection(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return self.cut(other.inequalities)

    # -- plumbing ----------------------------------------------------------------

    def key(self):
        return (self.ambient_dim, self.rays)

    def __eq__(self, other):
        return isinstance(other, Cone) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Cone(dim={self.ambient_dim}, rays={list(map(list, self.rays))})"


def orthant(n):
    """The nonnegative orthant cone in Z^n."""
    return Cone(n, [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)])


class Fan:
    """A finite fan: cones closed under faces with pairwise face intersections."""

    __slots__ = ("ambient_dim", "support", "cones", "max_cones")

    def __init__(self, support, cones):
        self.support = support
        self.ambient_dim = support.ambient_dim
        closed = {}
        # a fan cone inside another is a face of it, and every fan cone is a
        # face of a given cone: the maximal cones are no proper face of one
        proper = set()
        for c in cones:
            if c.ambient_dim != self.ambient_dim:
                raise ValueError("cone dimension mismatch")
            for f in c.faces():
                closed[f.rays] = f
                if f.rays != c.rays:
                    proper.add(f.rays)
        if not closed:
            closed[()] = Cone(self.ambient_dim, [])
        self.cones = tuple(closed[k] for k in sorted(closed))
        self.max_cones = tuple(c for c in self.cones if c.rays not in proper)
        # every cone is a face of a maximal one
        for c in self.max_cones:
            if not self.support.contains_cone(c):
                raise ValueError("fan cone outside the declared support")

    @property
    def ray_set(self):
        return {r for c in self.max_cones for r in c.rays}

    def key(self):
        return (self.support.key(), tuple(c.key() for c in self.cones))

    def __eq__(self, other):
        return isinstance(other, Fan) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Fan(support={self.support!r}, n_cones={len(self.cones)})"

    def is_smooth(self):
        return all(c.is_smooth() for c in self.max_cones)

    def as_stratification(self):
        """One cell per cone, tagged by the cone itself."""
        cells = [(c, c.key()) for c in self.cones]
        return PLStratification(self.support, cells, _validated=True)

    def validate(self):
        """Re-check the fan exactly; raises ValueError on failure.

        A set of cones closed under faces is a fan exactly when the relative
        interiors of its cones are pairwise disjoint (De Loera, Rambau and
        Santos, "Triangulations", 2.1): a point of relint(a & b) lies in the
        relative interior of one face of a and one face of b, which are then
        equal and contain a & b. So the fan is checked as a partition of its
        support, like a stratification. Every face of a maximal cone C is C
        cut by the facet hyperplanes that contain it, so the hyperplanes of
        the maximal cones suffice: each cone of their arrangement lies in
        the relative interior of exactly one face of C, or outside C. The
        arrangement cuts the support, so a support that is not pointed is
        rejected first.
        """
        if not self.support.is_pointed():
            raise UnsupportedSupportError("support must be pointed")
        hits = _partition_misfit(_cell_arrangement(self.support, self.max_cones), self.cones)
        if hits is not None:
            raise ValueError("intersection of fan cones is not a common face" if hits else "fan does not cover its support")
        return True


def star_subdivision(fan, point):
    """Star subdivision of a fan at a primitive lattice point of its support.

    Every maximal cone containing the point is replaced by the cones that
    the point spans with the faces missing it. At a ray of the fan this
    triangulates the non-simplicial cones through the ray; when every cone
    through it is simplicial the result is an equal fan.
    """
    r = primitive(tuple(int(x) for x in point))
    if is_zero(r):
        raise ValueError("cannot subdivide at the origin")
    if not fan.support.contains(r):
        raise RayOutsideSupportError(f"{r} is outside the fan support")
    return Fan(fan.support, _star(fan.max_cones, r))


def _star(max_cones, r):
    """The maximal cones of a star subdivision at r, sorted like a fan's.

    A cone through r gives way to r joined with each of its facets that
    misses r, since every face missing r lies in such a facet. r lies in the
    cone but not in the facet, and span(facet) meets the cone in the facet,
    so r is outside span(facet): the rays of the facet and r are all extreme.
    """
    out = []
    for c in max_cones:
        if c.contains(r):
            out.extend(
                Cone._of_extreme_rays(c.ambient_dim, tuple(sorted(f | {r})))
                for a, f in zip(c.facet_normals, c._facet_rays())
                if dot(a, r)
            )
        else:
            out.append(c)
    return tuple(sorted(out, key=Cone.key))


class PLStratification:
    """A support cone partitioned into relative interiors of tagged cones.

    cells is a tuple of (Cone, tag) pairs. The relative interiors of the
    cell cones partition the support; a stratum is the union of all cells
    sharing a tag.
    """

    __slots__ = ("ambient_dim", "support", "cells")

    def __init__(self, support, cells, _validated=False):
        self.support = support
        self.ambient_dim = support.ambient_dim
        cells = [(c, t) for c, t in cells]
        if not _validated:
            cells = self._complete_and_check(cells)
        self.cells = tuple(sorted(cells, key=lambda ct: ct[0].key()))

    def _complete_and_check(self, cells):
        for c, _ in cells:
            if c.ambient_dim != self.ambient_dim:
                raise ValueError("cell dimension mismatch")
            if not self.support.contains_cone(c):
                raise ValueError("cell outside the support")
        covered = {c.key() for c, _ in cells}
        if len(covered) != len(cells):
            raise ValueError("duplicate cell cone")
        missing = {}
        for c, _ in cells:
            for f in c.faces():
                if f.key() not in covered and not any(cc.relint_contains(f.interior_point()) for cc, _ in cells):
                    missing[f.key()] = f
        if missing:
            if len({_tag_key(t) for _, t in cells}) != 1:
                raise ValueError(
                    "stratification does not cover the support and tags are "
                    "not uniform; supply the missing cells explicitly"
                )
            cells = cells + [(f, cells[0][1]) for f in missing.values()]
        # a face of one cell may be tiled by smaller cells, so every cell cuts
        cones = [c for c, _ in cells]
        hits = _partition_misfit(_cell_arrangement(self.support, cones), cones)
        if hits is not None:
            raise ValueError("cell interiors overlap" if hits else "cells do not cover the support")
        return cells

    def cell_containing(self, point):
        """The unique cell whose relative interior contains the point."""
        for c, t in self.cells:
            if c.relint_contains(point):
                return c, t
        return None

    def strata(self):
        """Cells grouped by tag, in order of first appearance."""
        out = []
        index = {}
        for c, t in self.cells:
            k = _tag_key(t)
            if k not in index:
                index[k] = len(out)
                out.append((t, [c]))
            else:
                out[index[k]][1].append(c)
        return out

    def key(self):
        return (self.support.key(), tuple((c.key(), _tag_key(t)) for c, t in self.cells))

    def __eq__(self, other):
        return isinstance(other, PLStratification) and self.key() == other.key()

    def __repr__(self):
        return f"PLStratification(n_cells={len(self.cells)}, n_strata={len(self.strata())})"


def _tag_key(tag):
    if hasattr(tag, "key"):
        return tag.key()
    return tag


def refines(fan, stratification):
    """Whether every stratum is a union of relative interiors of fan cones.

    Equivalent test: the relative interior of each fan cone stays inside a
    single cell, witnessed by the cone's interior sample point.
    """
    if fan.ambient_dim != stratification.ambient_dim:
        raise SupportMismatchError("ambient dimension mismatch")
    if fan.support.key() != stratification.support.key():
        raise SupportMismatchError("fan and stratification have different supports")
    for c in fan.cones:
        hit = stratification.cell_containing(c.interior_point())
        if hit is None:
            return False
        cell_cone, _ = hit
        if not cell_cone.contains_cone(c):
            return False
    return True


def fan_refines(fine, coarse):
    """Fan-to-fan refinement via the one-cell-per-cone stratification."""
    return refines(fine, coarse.as_stratification())


def common_refinement(a, b):
    """The fan of pairwise intersections of two fans with equal support."""
    if a.ambient_dim != b.ambient_dim or a.support.key() != b.support.key():
        raise SupportMismatchError("fans must share ambient dimension and support")
    pieces = []
    for s in a.max_cones:
        for t in b.max_cones:
            pieces.append(s.intersection(t))
    return Fan(a.support, pieces)


def _hilbert_points(cone):
    """The Hilbert basis of a pointed cone in the orthant, by (coordinate sum, lex).

    Walks the lattice points of the box [0, sum of the rays], which holds the
    generator zonotope, in that order. A cone point p is irreducible when no
    basis element h <= p found so far leaves p - h in the cone: a proper
    summand has a smaller coordinate sum, so it has already been walked.
    """
    if not cone.is_pointed():
        raise NotPointedError("Hilbert basis requires a pointed cone")
    if any(any(x < 0 for x in r) for r in cone.rays):
        raise UnsupportedSupportError("Hilbert basis computed only inside the orthant")
    n = cone.ambient_dim
    box = [sum(r[i] for r in cone.rays) for i in range(n)]
    room = [sum(box[i:]) for i in range(n)] + [0]

    def points(i, s):
        # the points of coordinates i.. summing to s, lex ascending
        if i == n - 1:
            yield (s,)
            return
        for v in range(max(0, s - room[i + 1]), min(box[i], s) + 1):
            for tail in points(i + 1, s - v):
                yield (v,) + tail

    basis = []
    for s in range(1, room[0] + 1):
        for p in points(0, s):
            if cone.contains(p) and not any(
                all(a <= b for a, b in zip(h, p)) and cone.contains(vsub(p, h)) for h in basis
            ):
                basis.append(p)
                yield p


def hilbert_basis(cone):
    """Hilbert basis of a pointed cone contained in the nonnegative orthant.

    The irreducible lattice points of the cone, found by one walk over the
    box the generators span, in order of coordinate sum; returned sorted.
    """
    return tuple(sorted(_hilbert_points(cone)))


def _arrangement_fan(support, hyperplane_normals):
    """Fan obtained by slicing the support with the given hyperplanes."""
    pieces = [support]
    for h in hyperplane_normals:
        new_pieces = []
        for c in pieces:
            vals = [dot(h, r) for r in c.rays]
            if all(v >= 0 for v in vals) or all(v <= 0 for v in vals):
                parts = [c]
            else:
                parts = [half for half in (c.cut([h]), c.cut([vneg(h)])) if half.dim == c.dim]
            new_pieces.extend(parts)
        pieces = new_pieces
    return Fan(support, pieces)


def _cell_arrangement(support, cones):
    """The support cut by every facet and span hyperplane of the cones."""
    return _arrangement_fan(support, sorted({lex_positive(h) for c in cones for h in c.facet_normals + c.span_normals}))


def _partition_misfit(arrangement, cones):
    """None if the relative interiors of the cones partition the support.

    The arrangement must cut the support finely enough that the relative
    interior of each of its cones lies inside or outside each cone's, so
    its interior point decides it. Otherwise returns how many cones (0, or
    2 and more) hold that point for the first arrangement cone not held by
    exactly one.
    """
    for k in arrangement.cones:
        hits = sum(c.relint_contains(k.interior_point()) for c in cones)
        if hits != 1:
            return hits
    return None


def stratification_to_smooth_fan(stratification):
    """A smooth fan on the support refining the stratification.

    The relative interiors of the cells must partition the support, as
    they do for every Groebner stratification. Then the cell closures form
    a fan refining the stratification exactly when closing them under
    faces adds no cone; otherwise the start is the full hyperplane
    arrangement spanned by the cells' facets. Non-smooth cones are then
    resolved by star subdivisions at Hilbert basis elements of smallest
    coordinate sum (ties lexicographic); a non-simplicial cone whose Hilbert
    basis adds no ray is subdivided at its first ray that changes the fan.
    The subdivisions run on the sorted maximal cones, each cone is tested
    for smoothness once, and one fan is built at the end.
    """
    support = stratification.support
    closures = [c for c, _ in stratification.cells]
    fan = Fan(support, closures)
    if len(fan.cones) != len(closures):
        fan = _cell_arrangement(support, closures)
        if not refines(fan, stratification):
            raise ValueError("arrangement fan fails to refine the stratification")

    max_cones = fan.max_cones
    smooth = set()  # the ray sets of the cones found smooth
    while True:
        bad = next((c for c in max_cones if c.rays not in smooth and not c.is_smooth()), None)
        if bad is None:
            return fan if max_cones is fan.max_cones else Fan(support, max_cones)
        # the cones before bad, in the order of their rays, were found smooth
        smooth.update(c.rays for c in max_cones if c.rays < bad.rays)
        # a fan ray in bad is a ray of bad, so a Hilbert point that is not
        # always changes the fan; else triangulate at a ray, but every ray
        # is tried, since at the apex of a pyramid over a non-simplicial
        # base the pyramid comes back (from dimension 4)
        for p in chain((h for h in _hilbert_points(bad) if h not in bad.rays), bad.rays):
            candidate = _star(max_cones, p)
            if candidate != max_cones:
                max_cones = candidate
                break
        else:
            raise ValueError("unable to subdivide non-smooth cone")
