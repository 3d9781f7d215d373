import random
from fractions import Fraction
from itertools import combinations
from math import factorial, prod

import pytest
import sympy

from statikit import (
    Cone,
    Fan,
    ModulePresentation,
    NotPointedError,
    PLStratification,
    Poly,
    RayOutsideSupportError,
    SupportMismatchError,
    UnsupportedSupportError,
    common_refinement,
    fan_refines,
    groebner_stratification,
    hilbert_basis,
    orthant,
    orthant_chart,
    refines,
    star_subdivision,
    stratification_to_smooth_fan,
)
from statikit import polyhedral
from statikit.linalg import primitive, rank
from statikit.polyhedral import _arrangement_fan, _cell_arrangement, _hilbert_points, _in_dual, double_description
from conftest import oracle_cone_contains, oracle_faces_count


def rays_of(c):
    return sorted(list(r) for r in c.rays)


def subset_faces(cone):
    """Face ray sets in canonical order, from every subset of the facets."""
    out = set()
    for size in range(len(cone.facet_normals) + 1):
        for subset in combinations(cone.facet_normals, size):
            out.add(tuple(r for r in cone.rays if all(sum(a * b for a, b in zip(f, r)) == 0 for f in subset)))
    return sorted(out)


def zonotope_hilbert_basis(cone):
    """Every cone point of the box [0, sum of the rays], less the sums of two."""
    n = cone.ambient_dim
    box = [sum(r[i] for r in cone.rays) for i in range(n)]
    points = []

    def walk(i, current):
        if i == n:
            p = tuple(current)
            if any(p) and cone.contains(p):
                points.append(p)
            return
        for v in range(box[i] + 1):
            walk(i + 1, current + [v])

    walk(0, [])
    point_set = set(points)
    basis = []
    for p in points:
        diffs = (tuple(a - b for a, b in zip(p, q)) for q in point_set if q != p)
        if not any(all(x >= 0 for x in d) and (d in point_set or cone.contains(d)) for d in diffs):
            basis.append(p)
    return tuple(sorted(basis))


def slice_volume(cone):
    """Volume of the slice {sum(x) = 1} of a full-dimensional cone whose rays
    have positive coordinate sums, by a pulling triangulation: the first ray
    coned over the triangulated facets that miss it."""
    n = cone.ambient_dim
    if cone.dim < n:
        return Fraction(0)

    def triangulate(c):
        if len(c.rays) == c.dim:
            return [c.rays]
        r0 = c.rays[0]
        return [s + (r0,) for f in c.faces() if f.dim == c.dim - 1 and r0 not in f.rays for s in triangulate(f)]

    return sum(
        (Fraction(n * abs(sympy.Matrix(rays).det()), factorial(n - 1) * prod(map(sum, rays))) for rays in triangulate(cone)),
        Fraction(0),
    )


def pairwise_fan_defect(fan):
    """"overlap", "gap" or None, from every pairwise intersection and the
    slice volumes of the full-dimensional cones against the support's."""
    keys = {c.key() for c in fan.cones}
    for a, b in combinations(fan.cones, 2):
        w = a.intersection(b)
        if w.key() not in keys or w not in a.faces() or w not in b.faces():
            return "overlap"
    full = [c for c in fan.cones if c.dim == fan.ambient_dim]
    if sum(map(slice_volume, full)) != slice_volume(fan.support):
        return "gap"
    return None


def box_points(cone):
    """The number of lattice points of the box [0, sum of the rays]."""
    return prod(1 + sum(r[i] for r in cone.rays) for i in range(cone.ambient_dim))


def random_pointed_cones(rng, count, lo, hi):
    """Seeded random pointed cones in dimensions 2-4 with at least one ray,
    entries in lo..hi."""
    cones = []
    while len(cones) < count:
        dim = rng.choice((2, 3, 4))
        rays = [tuple(rng.randint(lo, hi) for _ in range(dim)) for _ in range(rng.randint(1, dim + 3))]
        c = Cone(dim, rays)
        if c.rays and c.is_pointed():
            cones.append(c)
    return cones


class TestFaces:
    def test_quadrant_faces(self, quadrant):
        faces = quadrant.faces()
        assert [rays_of(f) for f in faces] == [[], [[0, 1]], [[0, 1], [1, 0]], [[1, 0]]]

    def test_ray_faces(self):
        r = Cone(2, [(1, 1)])
        assert [rays_of(f) for f in r.faces()] == [[], [[1, 1]]]

    def test_nonsmooth_cone_faces_match_bruteforce(self):
        c = Cone(2, [(1, 0), (1, 2)])
        assert len(c.faces()) == 4
        assert oracle_faces_count(c) == 4

    def test_face_counts_match_bruteforce_oracle(self):
        cones = [
            Cone(2, [(1, 0), (0, 1)]),
            Cone(2, [(2, 1), (1, 3)]),
            Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
            Cone(3, [(1, 0, 0), (0, 1, 0), (1, 1, 2)]),
            Cone(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]),
        ]
        for c in cones:
            assert len(c.faces()) == oracle_faces_count(c)

    def test_faces_match_facet_subset_enumeration(self):
        """The incidence closure gives the faces, in the same order, that
        intersecting every subset of the facets gives."""
        cones = random_pointed_cones(random.Random(27), 320, -3, 3)
        assert {c.ambient_dim for c in cones} == {2, 3, 4}
        assert max(len(c.facet_normals) for c in cones) >= 6
        for c in cones:
            assert [f.rays for f in c.faces()] == subset_faces(c), c

    def test_many_facets(self):
        """A cone over a 40-gon: 82 faces, found without a subset search."""
        c = Cone(3, [(i, i * i, 400) for i in range(1, 41)])
        faces = c.faces()
        assert len(faces) == 82
        assert [len(f.rays) for f in faces].count(2) == 40

    def test_not_pointed_rejected(self):
        c = Cone(2, [(1, 0), (-1, 0)])
        with pytest.raises(NotPointedError):
            c.faces()
        with pytest.raises(NotPointedError):
            c.is_smooth()


class TestSmoothness:
    def test_quadrant_smooth(self, quadrant):
        assert quadrant.is_smooth()

    def test_index_two_cone_not_smooth(self):
        assert not Cone(2, [(1, 0), (1, 2)]).is_smooth()

    def test_primitive_ray_smooth(self):
        # gcd(2,3)=1, so the ray extends to a basis
        assert Cone(2, [(2, 3)]).is_smooth()

    def test_zero_cone_smooth(self):
        assert Cone(2, []).is_smooth()


class TestMembershipCrossCheck:
    def test_ray_and_inequality_descriptions_agree(self):
        rng = random.Random(20240817)
        cones = [
            Cone(2, [(1, 0), (1, 2)]),
            Cone(2, [(2, 1), (1, 3)]),
            Cone(3, [(1, 0, 0), (0, 1, 0), (1, 1, 2)]),
            Cone(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]),
        ]
        for c in cones:
            for _ in range(25):
                x = tuple(rng.randint(-4, 6) for _ in range(c.ambient_dim))
                assert c.contains(x) == oracle_cone_contains(c.rays, x)


class TestStarSubdivision:
    def test_quadrant_at_diagonal(self, quadrant):
        fan = Fan(quadrant, [quadrant])
        sub = star_subdivision(fan, (1, 1))
        assert sorted(rays_of(c) for c in sub.max_cones) == [
            [[0, 1], [1, 1]],
            [[1, 0], [1, 1]],
        ]

    def test_octant_at_diagonal(self, octant):
        fan = Fan(octant, [octant])
        sub = star_subdivision(fan, (1, 1, 1))
        expected = [
            [[0, 0, 1], [0, 1, 0], [1, 1, 1]],
            [[0, 0, 1], [1, 0, 0], [1, 1, 1]],
            [[0, 1, 0], [1, 0, 0], [1, 1, 1]],
        ]
        assert sorted(rays_of(c) for c in sub.max_cones) == expected

    def test_existing_ray_is_identity(self, quadrant):
        fan = Fan(quadrant, [quadrant])
        assert star_subdivision(fan, (1, 0)) == fan

    def test_outside_support_rejected(self, quadrant):
        fan = Fan(quadrant, [quadrant])
        with pytest.raises(RayOutsideSupportError):
            star_subdivision(fan, (-1, 1))

    def test_output_is_valid_fan_and_refines_input(self, quadrant, octant):
        for support, point in [(quadrant, (3, 1)), (quadrant, (1, 1)), (octant, (1, 2, 1))]:
            fan = Fan(support, [support])
            sub = star_subdivision(fan, point)
            assert sub.validate()
            assert fan_refines(sub, fan)
            assert not fan_refines(fan, sub)


class TestCommonRefinement:
    def test_idempotent(self, quadrant):
        fan = star_subdivision(Fan(quadrant, [quadrant]), (1, 1))
        assert common_refinement(fan, fan) == fan

    def test_refinement_absorbs(self, quadrant):
        fan = Fan(quadrant, [quadrant])
        sub = star_subdivision(fan, (1, 1))
        assert common_refinement(fan, sub) == sub

    def test_two_stars(self, quadrant):
        fan = Fan(quadrant, [quadrant])
        a = star_subdivision(fan, (2, 1))
        b = star_subdivision(fan, (1, 2))
        cr = common_refinement(a, b)
        assert sorted(cr.ray_set) == [(0, 1), (1, 0), (1, 2), (2, 1)]
        assert fan_refines(cr, a) and fan_refines(cr, b)
        assert common_refinement(b, a) == cr

    def test_support_mismatch(self, quadrant, octant):
        with pytest.raises(SupportMismatchError):
            common_refinement(Fan(quadrant, [quadrant]), Fan(octant, [octant]))


class TestRefines:
    def _example1_stratification(self, quadrant):
        a = Cone(2, [(1, 0), (1, 1)])
        b = Cone(2, [(1, 1), (0, 1)])
        cells = [
            (a, "lead1"),
            (b, "lead2"),
            (Cone(2, [(1, 0)]), "lead1"),
            (Cone(2, [(0, 1)]), "lead2"),
            (Cone(2, [(1, 1)]), "wall"),
            (Cone(2, []), "wall"),
        ]
        return PLStratification(quadrant, cells)

    def test_star_subdivision_refines(self, quadrant):
        s = self._example1_stratification(quadrant)
        fan = star_subdivision(Fan(quadrant, [quadrant]), (1, 1))
        assert refines(fan, s)

    def test_undivided_quadrant_does_not_refine(self, quadrant):
        s = self._example1_stratification(quadrant)
        assert not refines(Fan(quadrant, [quadrant]), s)

    def test_one_cell_stratification_always_refined(self, quadrant):
        s = PLStratification(quadrant, [(quadrant, "all")])
        for fan in [
            Fan(quadrant, [quadrant]),
            star_subdivision(Fan(quadrant, [quadrant]), (2, 5)),
        ]:
            assert refines(fan, s)

    def test_support_mismatch(self, quadrant, octant):
        s = PLStratification(quadrant, [(quadrant, "all")])
        with pytest.raises(SupportMismatchError):
            refines(Fan(octant, [octant]), s)


class TestStratificationToSmoothFan:
    def test_example1_cells_give_star_subdivision(self, quadrant):
        a = Cone(2, [(1, 0), (1, 1)])
        b = Cone(2, [(1, 1), (0, 1)])
        cells = [
            (a, "t1"),
            (b, "t2"),
            (Cone(2, [(1, 0)]), "t1"),
            (Cone(2, [(0, 1)]), "t2"),
            (Cone(2, [(1, 1)]), "tw"),
            (Cone(2, []), "tw"),
        ]
        s = PLStratification(quadrant, cells)
        fan = stratification_to_smooth_fan(s)
        assert fan == star_subdivision(Fan(quadrant, [quadrant]), (1, 1))

    def test_one_cell_gives_support_fan(self, quadrant):
        s = PLStratification(quadrant, [(quadrant, "all")])
        assert stratification_to_smooth_fan(s) == Fan(quadrant, [quadrant])

    def test_octant_diagonal_cells(self, octant):
        maxes = [
            Cone(3, [(0, 1, 0), (0, 0, 1), (1, 1, 1)]),
            Cone(3, [(1, 0, 0), (0, 0, 1), (1, 1, 1)]),
            Cone(3, [(1, 0, 0), (0, 1, 0), (1, 1, 1)]),
        ]
        cells = [(c, f"c{i}") for i, c in enumerate(maxes)]
        seen = {c.key() for c, _ in cells}
        for c in maxes:
            for f in c.faces():
                if f.key() not in seen:
                    seen.add(f.key())
                    cells.append((f, "lower:" + repr(sorted(f.rays))))
        s = PLStratification(octant, cells)
        fan = stratification_to_smooth_fan(s)
        assert fan == star_subdivision(Fan(octant, [octant]), (1, 1, 1))

    def test_output_always_smooth_and_refining(self, quadrant):
        # a wall through (2,3) forces a resolution with new rays
        a = Cone(2, [(1, 0), (2, 3)])
        b = Cone(2, [(2, 3), (0, 1)])
        cells = [(a, "lo"), (b, "hi"), (Cone(2, [(1, 0)]), "lo"), (Cone(2, [(0, 1)]), "hi"), (Cone(2, [(2, 3)]), "w"), (Cone(2, []), "w")]
        s = PLStratification(quadrant, cells)
        fan = stratification_to_smooth_fan(s)
        assert all(c.is_smooth() for c in fan.max_cones)
        assert refines(fan, s)
        assert fan.validate()
        # deterministic
        assert stratification_to_smooth_fan(s) == fan

    @staticmethod
    def _wall_on_undivided_floor(octant):
        """A wall x = y ending on the floor z = 0, which it does not divide."""
        e1, e2, e3, w = (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)
        cells = [
            (Cone(3, [e1, w, e3]), "A"),
            (Cone(3, [w, e2, e3]), "B"),
            (Cone(3, [w, e3]), "W"),
            (Cone(3, [e1, e2]), "F"),
            (Cone(3, [e1, e3]), "A"),
            (Cone(3, [e2, e3]), "B"),
            (Cone(3, [e1]), "F"),
            (Cone(3, [e2]), "F"),
            (Cone(3, [e3]), "W"),
            (Cone(3, []), "O"),
        ]
        return PLStratification(octant, cells)

    @staticmethod
    def _square_pyramid():
        """One cell: the cone over the unit square, its own Hilbert basis."""
        c = Cone(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
        return PLStratification(c, [(c, "all")])

    def test_arrangement_fallback_when_face_closing_adds_cones(self, octant):
        s = self._wall_on_undivided_floor(octant)
        closures = [c for c, _ in s.cells]
        assert len(Fan(octant, closures).cones) > len(closures)
        fan = stratification_to_smooth_fan(s)
        assert [c.rays for c in fan.max_cones] == [
            ((0, 0, 1), (0, 1, 0), (1, 1, 0)),
            ((0, 0, 1), (1, 0, 0), (1, 1, 0)),
        ]
        assert refines(fan, s)

    def test_triangulates_cone_generated_by_its_hilbert_basis(self):
        s = self._square_pyramid()
        assert hilbert_basis(s.support) == s.support.rays
        fan = stratification_to_smooth_fan(s)
        assert [c.rays for c in fan.max_cones] == [
            ((0, 0, 1), (0, 1, 1), (1, 1, 1)),
            ((0, 0, 1), (1, 0, 1), (1, 1, 1)),
        ]
        assert refines(fan, s)

    def test_face_closed_iff_closures_form_refining_fan(self, octant):
        """Face-closing the cell closures adds no cone exactly when those
        closures form a valid fan that refines the stratification."""
        rng = random.Random(17)
        strats = [self._wall_on_undivided_floor(octant), self._square_pyramid()] + random_kernel_stratifications(rng, 6)
        for s in strats:
            closures = [c for c, _ in s.cells]
            fan = Fan(s.support, closures)
            try:
                fan.validate()
                valid_and_refining = refines(fan, s)
            except ValueError:
                valid_and_refining = False
            assert (len(fan.cones) == len(closures)) == valid_and_refining


def reference_star_subdivision(fan, point):
    """Reference star subdivision: a shortcut returns the fan at a ray
    through simplicial cones only, and `Cone` re-proves the rays of every
    new cone extreme."""
    r = primitive(tuple(int(x) for x in point))
    if r in fan.ray_set and all(len(c.rays) == c.dim for c in fan.max_cones if c.contains(r)):
        return fan
    new_max = []
    for c in fan.max_cones:
        if c.contains(r):
            new_max.extend(Cone(fan.ambient_dim, f.rays + (r,)) for f in c.faces() if not f.contains(r))
        else:
            new_max.append(c)
    return Fan(fan.support, new_max)


def reference_smooth_fan(stratification):
    """Reference smoothing in two branches: subdivide at the first new
    Hilbert point, or else triangulate at the first ray that changes the fan."""
    support = stratification.support
    closures = [c for c, _ in stratification.cells]
    fan = Fan(support, closures)
    if len(fan.cones) != len(closures):
        fan = _cell_arrangement(support, closures)
    while True:
        bad = None
        for c in fan.max_cones:
            if not c.is_smooth():
                bad = c
                break
        if bad is None:
            return fan
        existing = fan.ray_set
        pick = next((h for h in _hilbert_points(bad) if h not in existing), None)
        if pick is not None:
            fan = reference_star_subdivision(fan, pick)
            continue
        for r in bad.rays:
            candidate = reference_star_subdivision(fan, r)
            if candidate.key() != fan.key():
                fan = candidate
                break
        else:
            raise ValueError("unable to subdivide non-smooth cone")


def random_kernel_stratifications(rng, count):
    """Groebner stratifications of the syzygies of a row of two binomials."""
    strats = []
    for _ in range(count):
        nvars = rng.choice([2, 3])
        row = [Poly(nvars, {tuple(rng.randint(0, 2) for _ in range(nvars)): rng.choice([1, -1]) for _ in range(2)})
               for _ in range(2)]
        m = ModulePresentation(orthant_chart(nvars), [row])
        strats.append(groebner_stratification(m.kernel(), m.chart.cone).stratification)
    return strats


def random_support_points(rng, cone, count):
    """Nonzero combinations of the cone's rays with weights 0-2."""
    points = []
    while len(points) < count:
        weights = [rng.randint(0, 2) for _ in cone.rays]
        p = tuple(sum(w * r[i] for w, r in zip(weights, cone.rays)) for i in range(cone.ambient_dim))
        if any(p):
            points.append(p)
    return points


class TestSmoothingDifferential:
    """The one candidate loop and the stellar subdivision that skips the
    extremeness proofs give the fans of the two-branch reference above."""

    PYRAMID4 = Cone(4, [(0, 0, 1, 1), (0, 1, 0, 0), (1, 0, 0, 0), (1, 0, 0, 1), (1, 2, 0, 2)])

    def test_matches_reference(self):
        rng = random.Random(30)
        cones = [c for c in random_pointed_cones(rng, 400, 0, 4) if box_points(c) <= 3000][:80]
        assert {c.ambient_dim for c in cones} == {2, 3, 4}
        assert sum(not c.is_smooth() for c in cones) > 30
        strats = [PLStratification(c, [(c, "all")]) for c in cones + [self.PYRAMID4]]
        strats += random_kernel_stratifications(rng, 8) + [TestStratificationToSmoothFan._square_pyramid()]
        for s in strats:
            fan = stratification_to_smooth_fan(s)
            assert fan.key() == reference_smooth_fan(s).key(), s
            for start in (Fan(s.support, [s.support]), fan):
                for p in random_support_points(rng, s.support, 3) + sorted(start.ray_set):
                    assert star_subdivision(start, p).key() == reference_star_subdivision(start, p).key(), (s, p)

    def test_det_2198_cone(self):
        """The one-cell stratification of a 3-ray cone of |det| = 2198."""
        c = Cone(3, [(1, 0, 13), (6, 13, 1), (14, 1, 7)])
        s = PLStratification(c, [(c, "all")])
        fan = stratification_to_smooth_fan(s)
        assert len(fan.max_cones) == 424
        assert fan.is_smooth() and refines(fan, s)


def containment_max_cones(fan):
    """Maximal cones by definition: the fan cones inside no other fan cone."""
    return tuple(
        c for c in fan.cones
        if not any(o.key() != c.key() and o.contains_cone(c) for o in fan.cones)
    )


class TestMaxCones:
    def test_match_containment_definition(self):
        """Differential test on fans built by star subdivision, common
        refinement and smoothing of random Groebner stratifications."""
        rng = random.Random(41)
        fans = []
        for _ in range(8):
            nvars = rng.choice([2, 3])
            row = [Poly(nvars, {tuple(rng.randint(0, 2) for _ in range(nvars)): rng.choice([1, -1]) for _ in range(2)})
                   for _ in range(2)]
            m = ModulePresentation(orthant_chart(nvars), [row])
            s = groebner_stratification(m.kernel(), m.chart.cone).stratification
            smooth = stratification_to_smooth_fan(s)
            star = star_subdivision(smooth, tuple(rng.randint(1, 3) for _ in range(nvars)))
            other = star_subdivision(Fan(s.support, [s.support]), tuple(rng.randint(1, 3) for _ in range(nvars)))
            fans += [smooth, star, other, common_refinement(star, other)]
        assert any(len(f.max_cones) > 2 for f in fans)
        for fan in fans:
            assert fan.max_cones == containment_max_cones(fan)


class TestHilbertBasis:
    def test_smooth_cone_basis_is_rays(self, quadrant):
        assert hilbert_basis(quadrant) == ((0, 1), (1, 0))

    def test_index_two_cone(self):
        c = Cone(2, [(1, 0), (1, 2)])
        assert hilbert_basis(c) == ((1, 0), (1, 1), (1, 2))

    def test_walk_matches_zonotope_enumeration(self):
        """Basis and smoothing pick (the least (sum, lex) basis element not
        yet a ray) against the irreducibility test over the whole box."""
        rng = random.Random(8)
        cones = [c for c in random_pointed_cones(rng, 400, 0, 3) if box_points(c) <= 600][:150]
        assert {c.ambient_dim for c in cones} == {2, 3, 4}
        picked = 0
        for c in cones:
            basis = zonotope_hilbert_basis(c)
            assert hilbert_basis(c) == basis, c
            walked = list(_hilbert_points(c))
            assert walked == sorted(basis, key=lambda p: (sum(p), p))
            existing = set(c.rays) | set(rng.sample(basis, rng.randint(0, len(basis))))
            pick = min((h for h in basis if h not in existing), key=lambda p: (sum(p), p), default=None)
            assert next((h for h in _hilbert_points(c) if h not in existing), None) == pick
            picked += pick is not None
        assert picked > 30

    def test_rejects_cones_outside_the_orthant(self):
        with pytest.raises(UnsupportedSupportError):
            hilbert_basis(Cone(2, [(1, 0), (-1, 2)]))
        with pytest.raises(NotPointedError):
            hilbert_basis(Cone(2, [(1, 0), (-1, 0)]))


class TestStratificationValidation:
    def test_overlapping_cells_rejected(self, quadrant):
        a = Cone(2, [(1, 0), (1, 1)])
        with pytest.raises(ValueError):
            PLStratification(quadrant, [(quadrant, "x"), (a, "y")])

    def test_ambiguous_missing_faces_rejected(self, quadrant):
        a = Cone(2, [(1, 0), (1, 1)])
        b = Cone(2, [(1, 1), (0, 1)])
        with pytest.raises(ValueError):
            PLStratification(quadrant, [(a, "t1"), (b, "t2")])

    def test_gap_rejected(self, quadrant):
        a = Cone(2, [(1, 0), (1, 1)])
        cells = [(a, "t")]
        with pytest.raises(ValueError):
            PLStratification(quadrant, cells)

    @staticmethod
    def _split_wall_cells():
        """The octant halved by x = y, its wall cut in two at (1, 1, 1)."""
        e1, e2, e3, d, m = (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)
        cones = [[e1, d, e3], [e2, d, e3], [d, m], [m, e3], [m], [e1, d], [e1, e3], [e2, d], [e2, e3], [e1], [e2], [e3], [d], []]
        return [(Cone(3, rays), f"c{i}") for i, rays in enumerate(cones)]

    def test_face_tiled_by_smaller_cells_accepted(self, octant):
        cells = self._split_wall_cells()
        assert len(PLStratification(octant, cells).cells) == len(cells)

    def test_pyramid_over_non_simplicial_facets_does_not_cover(self):
        """A non-simplicial cone of Z^4 whose pyramids over its first ray
        are not simplicial."""
        c = Cone(4, [(0, 0, 1, 1), (0, 1, 0, 0), (1, 0, 0, 0), (1, 0, 0, 1), (1, 2, 0, 2)])
        assert len(c.rays) == 5 and c.dim == 4
        with pytest.raises(ValueError, match="do not cover"):
            PLStratification(orthant(4), [(c, "t")])

    def test_gap_in_a_tiled_face_rejected(self, octant):
        cells = self._split_wall_cells()
        for drop in (2, 4):
            with pytest.raises(ValueError, match="not cover the support"):
                PLStratification(octant, cells[:drop] + cells[drop + 1:])
        with pytest.raises(ValueError, match="cell interiors overlap"):
            PLStratification(octant, cells + [(Cone(3, [(1, 1, 0), (0, 0, 1)]), "wall")])


class TestVolumes:
    def test_fan_coverage_detects_gap(self, quadrant):
        a = Cone(2, [(1, 0), (1, 1)])
        with pytest.raises(ValueError):
            Fan(quadrant, [a]).validate()


class TestFanValidate:
    def test_gap_in_a_lower_dimensional_support(self):
        support = Cone(3, [(1, 0, 0), (0, 1, 0)])
        with pytest.raises(ValueError, match="fan does not cover its support"):
            Fan(support, [Cone(3, [(1, 0, 0), (1, 1, 0)])]).validate()

    def test_non_pointed_support_rejected(self):
        axes = [(1, 0), (0, 1), (-1, 0), (0, -1)]
        quadrants = [Cone(2, [axes[i], axes[(i + 1) % 4]]) for i in range(4)]
        with pytest.raises(UnsupportedSupportError, match="support must be pointed"):
            Fan(Cone(2, axes), quadrants).validate()

    def test_support_with_a_ray_of_negative_coordinate_sum(self):
        support = Cone(2, [(1, 0), (-1, 1)])
        assert Fan(support, [Cone(2, [(1, 0), (0, 1)]), Cone(2, [(0, 1), (-1, 1)])]).validate()

    def test_matches_pairwise_and_slice_volume_reference(self):
        """Seeded fans: hyperplane arrangements of the quadrant or octant,
        some star-subdivided, kept, less one maximal cone, or with one random
        cone added; the verdict and the kind of defect match the reference."""
        rng = random.Random(3)
        seen = {None: 0, "gap": 0, "overlap": 0}
        for _ in range(300):
            n = rng.choice((2, 3))
            normals, count = [], rng.randint(1, 3)
            while len(normals) < count:
                h = tuple(rng.randint(-2, 2) for _ in range(n))
                if any(h):
                    normals.append(h)
            fan = _arrangement_fan(orthant(n), normals)
            if rng.random() < 0.5:
                fan = star_subdivision(fan, tuple(rng.randint(1, 3) for _ in range(n)))
            cones = list(fan.max_cones)
            move = rng.choice(("keep", "drop", "add"))
            if move == "drop":
                cones.pop(rng.randrange(len(cones)))
            elif move == "add":
                rays = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, n + 1))]
                cones.append(Cone(n, [r for r in rays if any(r)] or [(1,) * n]))
            fan = Fan(fan.support, cones)
            expected = pairwise_fan_defect(fan)
            seen[expected] += 1
            if expected is None:
                assert fan.validate()
            else:
                message = "not a common face" if expected == "overlap" else "does not cover"
                with pytest.raises(ValueError, match=message):
                    fan.validate()
        assert min(seen.values()) > 50, seen


class TestDualDescriptionConsistency:
    def test_cut_keeps_extreme_rays(self):
        """The rays double description gives a cut are the ones `Cone` keeps."""
        rng = random.Random(55)
        for c in random_pointed_cones(rng, 150, -2, 3):
            normals = [tuple(rng.randint(-2, 2) for _ in range(c.ambient_dim)) for _ in range(rng.randint(1, 3))]
            cut = c.cut(normals)
            assert cut.rays == Cone(c.ambient_dim, cut.rays).rays, (c, normals)

    def test_randomized_cones_roundtrip(self):
        rng = random.Random(1234)
        for trial in range(60):
            dim = rng.choice([2, 3, 3, 4])
            nrays = rng.randint(1, dim + 2)
            # the first trials stay in the orthant; the rest draw signed
            # entries, so lineality and non-pointed cones occur
            lo = 0 if trial < 20 else -3
            rays = []
            for _ in range(nrays):
                r = tuple(rng.randint(lo, 3) for _ in range(dim))
                if any(r):
                    rays.append(r)
            if rays and trial >= 20:
                # duplicates and positive multiples of input rays
                for _ in range(rng.randint(0, 2)):
                    r = rng.choice(rays)
                    rays.insert(rng.randint(0, len(rays)), tuple(rng.choice([1, 2, 3]) * x for x in r))
            if not rays:
                continue
            c = Cone(dim, rays)
            # every generating ray satisfies the derived inequalities
            for r in rays:
                assert c.contains(r), (trial, rays, r)
            # canonicalization is idempotent
            c2 = Cone(dim, c.rays)
            assert c2.rays == c.rays
            # the kept rays are irredundant and generate every input ray
            for i, k in enumerate(c.rays):
                assert not oracle_cone_contains(c.rays[:i] + c.rays[i + 1:], k), (trial, rays, k)
            for r in rays:
                assert oracle_cone_contains(c.rays, r), (trial, rays, r)
            # inequality description agrees with the brute-force oracle; on
            # signed inputs it runs on the kept rays, which generate the same
            # cone (checked above) and keep the oracle fast
            gens = rays if lo == 0 else c.rays
            for _ in range(12 if lo == 0 else 4):
                x = tuple(rng.randint(-3, 4) for _ in range(dim))
                assert c.contains(x) == oracle_cone_contains(gens, x), (trial, rays, x)


def reference_cone_rays(ambient_dim, rays):
    """`Cone(ambient_dim, rays).rays` by the greedy leave-one-out loop run on
    every ray set, linearly independent ones included."""
    kept = list(dict.fromkeys(primitive(tuple(r)) for r in rays if any(r)))
    i = 0
    while i < len(kept):
        if _in_dual(double_description(ambient_dim, kept[:i] + kept[i + 1:]), kept[i]):
            kept.pop(i)
        else:
            i += 1
    return tuple(sorted(kept))


def random_ray_sets(rng, count):
    """Seeded ray sets in dimensions 1-4, zero rays, positive multiples and
    negatives of drawn rays mixed in."""
    sets = []
    for _ in range(count):
        dim = rng.randint(1, 4)
        rays = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(0, dim + 2))]
        for _ in range(rng.randint(0, 2) if rays else 0):
            r = rng.choice(rays)
            rays.append(tuple(rng.choice([0, 2, -1]) * x for x in r))
        rng.shuffle(rays)
        sets.append((dim, rays))
    return sets


class TestConeConstruction:
    UNIT = {n: [tuple(int(i == j) for j in range(n)) for i in range(n)] for n in range(1, 5)}
    FIXED = [
        (1, [(1,), (-1,)]),
        (2, [(1, 0), (-1, 0)]),
        (2, [(1, 0), (-1, 0), (0, 1)]),
        (2, [(1, 0), (0, 1), (-1, -1)]),
        (3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 2, 0), (0, 0, 0)]),
        (4, UNIT[4] + [(-1, 0, 0, 0)]),
    ]

    def test_matches_leave_one_out_reference(self):
        rng = random.Random(31)
        sets = self.FIXED + [(n, self.UNIT[n]) for n in self.UNIT] + random_ray_sets(rng, 300)
        independent = 0
        for dim, rays in sets:
            kept = list(dict.fromkeys(primitive(r) for r in rays if any(r)))
            independent += rank(kept) == len(kept)
            assert Cone(dim, rays).rays == reference_cone_rays(dim, rays), (dim, rays)
        assert 50 < independent < len(sets) - 50

    def test_independent_rays_need_no_double_description(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return double_description(*args)

        monkeypatch.setattr(polyhedral, "double_description", counted)
        rng = random.Random(32)
        for dim, rays in random_ray_sets(rng, 200):
            if rank(rays) == len(rays):
                Cone(dim, rays)
        Cone(3, [(1, 0, 13), (6, 13, 1), (14, 1, 7)])
        assert calls == []
        Cone(2, [(1, 0), (0, 1), (1, 1)])
        assert len(calls) == 3
