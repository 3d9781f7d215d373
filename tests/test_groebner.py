import heapq
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from statikit import (
    Cone,
    Fan,
    ModulePresentation,
    ModuleVector,
    PLStratification,
    Poly,
    Submodule,
    UnsupportedSupportError,
    ZeroVectorError,
    colon_module,
    groebner_stratification,
    initial_form,
    initial_module,
    module_membership,
    orthant,
    orthant_chart,
    reduced_gb,
    star_subdivision,
    syzygies,
)
from statikit.jsonio import presentation_from_json
from statikit import groebner, polyhedral
from statikit.linalg import dot, vneg
from statikit.polyhedral import _tag_key
from statikit.groebner import _TermKeys, _divides, _homogenize, _primitive, base_key, elim_key, leading_term, vec_axpy, weight_key
from conftest import apply_matrix_to_vector


def mv2(terms):
    return ModuleVector(2, 2, terms)


G1 = Submodule(2, 2, [mv2({((0, 2), 0): 1, ((2, 0), 1): -1})])  # <y^2 e1 - x^2 e2>


def canonical(module):
    return reduced_gb(module).key()


def laurent_tag(n, m, vectors):
    """Canonical Laurent form of the span of the given vectors."""
    return Submodule(n, m, vectors).saturate_monomials().reduced_groebner_basis()


class TestInitialForm:
    def setup_method(self):
        self.f = mv2({((0, 2), 0): 1, ((2, 0), 1): -1})

    def test_zero_weight_keeps_everything(self):
        assert initial_form(self.f, (0, 0)) == self.f

    def test_weight_10_picks_first_component_term(self):
        assert initial_form(self.f, (1, 0)) == mv2({((0, 2), 0): 1})

    def test_diagonal_weight_is_a_tie(self):
        assert initial_form(self.f, (1, 1)) == self.f

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            initial_form(mv2({}), (1, 0))

    def test_idempotence_on_samples(self):
        rng = random.Random(7)
        for _ in range(60):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                e = (rng.randint(-3, 3), rng.randint(-3, 3))
                terms[(e, rng.randint(0, 1))] = rng.randint(1, 4)
            f = mv2(terms)
            w = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            once = initial_form(f, w)
            assert initial_form(once, w) == once

    def test_monomial_equivariance(self):
        rng = random.Random(11)
        for _ in range(40):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                e = (rng.randint(-2, 3), rng.randint(-2, 3))
                terms[(e, rng.randint(0, 1))] = rng.randint(1, 3)
            f = mv2(terms)
            shift = (rng.randint(-2, 2), rng.randint(-2, 2))
            w = (rng.randint(-3, 3), rng.randint(-3, 3))
            assert initial_form(f.scaled(1, shift), w) == initial_form(f, w).scaled(1, shift)


class TestReducedGB:
    def test_single_generator_already_reduced(self):
        gb = reduced_gb(G1)
        assert len(gb.vectors) == 1
        # monic under the canonical order: leading coefficient one
        v = gb.vectors[0]
        assert dict(v.terms)[((2, 0), 1)] == 1

    def test_redundant_generator_eliminated(self):
        m = Submodule(2, 1, [
            ModuleVector(2, 1, {((1, 0), 0): 1}),
            ModuleVector(2, 1, {((0, 1), 0): 1}),
            ModuleVector(2, 1, {((1, 0), 0): 1, ((0, 1), 0): 1}),
        ])
        gb = reduced_gb(m)
        assert [v.terms for v in gb.vectors] == [
            ((((1, 0), 0), Fraction(1)),),
            ((((0, 1), 0), Fraction(1)),),
        ]

    def test_monomial_pair_s_pair_reduces_to_zero(self):
        m = Submodule(2, 1, [
            ModuleVector(2, 1, {((2, 0), 0): 1}),
            ModuleVector(2, 1, {((1, 1), 0): 1}),
        ])
        gb = reduced_gb(m)
        assert len(gb.vectors) == 2

    def test_idempotent(self):
        m = Submodule(2, 2, [
            mv2({((0, 2), 0): 1, ((2, 0), 1): -1}),
            mv2({((1, 2), 0): 2, ((0, 0), 1): 1}),
        ])
        gb = reduced_gb(m)
        again = reduced_gb(gb.as_submodule())
        assert gb.key() == again.key()


# ---------------------------------------------------------------------------
# Plain Buchberger, the oracle for groebner.buchberger: every pair is formed,
# in the order the basis grows, and reduced in full.


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
    """Reduced Groebner basis, as marked pairs, of the module the vectors generate.

    Plain Buchberger with full normal forms. For weight keys the input must
    be homogeneous, otherwise reduction may not terminate.
    """
    basis = [(dict(v), leading_term(v, key)) for v in vectors if v]
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
    return reduce_basis(basis, key)


def reduce_basis(basis, key):
    """The unique reduced basis of a marked basis: minimal, tail reduced, monic, sorted.

    A minimal basis keeps its leading terms under tail reduction, so the
    marks carry over.
    """

    def shadowed(i, lt):
        return any(
            j != i and other[1] == lt[1] and _divides(other[0], lt[0]) and (other != lt or j < i)
            for j, (_, other) in enumerate(basis)
        )

    minimal = [pair for i, pair in enumerate(basis) if not shadowed(i, pair[1])]
    out = []
    for i, (g, lt) in enumerate(minimal):
        r = normal_form(g, minimal[:i] + minimal[i + 1:], key)
        lc = r[lt]
        out.append(({t: c / lc for t, c in r.items()}, lt))
    out.sort(key=lambda pair: key(pair[1]), reverse=True)
    return out


def random_vector(rng, nvars, rank, max_terms, max_exp):
    coeffs = (1, -1, 2, -3, Fraction(1, 2))
    return {
        (tuple(rng.randint(0, max_exp) for _ in range(nvars)), rng.randrange(rank)): Fraction(rng.choice(coeffs))
        for _ in range(rng.randint(1, max_terms))
    }


class TestBuchbergerDifferential:
    def test_ideals_match_sympy_grevlex(self):
        """Random ideals in 2-3 variables against sympy's reduced grevlex basis."""
        rng = random.Random(2024)
        for trial in range(80):
            nvars = rng.choice((2, 3))
            gens = sympy.symbols(f"x0:{nvars}")
            vectors = [random_vector(rng, nvars, 1, 3, 3) for _ in range(rng.randint(1, 4))]
            ours = {frozenset((exp, c) for (exp, _), c in g.items()) for g, _ in groebner.buchberger(vectors, base_key)}
            exprs = [
                sum(sympy.Rational(c.numerator, c.denominator) * sympy.prod(x**e for x, e in zip(gens, exp)) for (exp, _), c in v.items())
                for v in vectors
            ]
            theirs = set()
            for g in sympy.groebner(exprs, *gens, order="grevlex").exprs:
                p = sympy.Poly(g, *gens, domain="QQ")
                monic = p.quo_ground(p.LC(order="grevlex"))
                theirs.add(frozenset((exp, Fraction(int(c.p), int(c.q))) for exp, c in monic.terms()))
            assert ours == theirs, (trial, vectors)

    @pytest.mark.parametrize("order", ["base", "elim", "weight"])
    def test_modules_match_plain_buchberger(self, order):
        """Random homogenized modules of rank 2-3 against plain Buchberger."""
        rng = random.Random(f"modules-{order}")
        for trial in range(60):
            nvars, rank = rng.choice((2, 3)), rng.choice((2, 3))
            vectors = [_homogenize(random_vector(rng, nvars, rank, 3, 2), nvars) for _ in range(rng.randint(2, 4))]
            if order == "base":
                key = base_key
            elif order == "elim":
                key = elim_key(rng.randint(1, rank - 1))
            else:
                key = weight_key(tuple(rng.randint(-2, 2) for _ in range(nvars)))
            assert groebner.buchberger(vectors, key) == buchberger(vectors, key), (trial, vectors)


def random_integer_vector(rng, nvars, rank, max_terms, max_exp):
    return {
        (tuple(rng.randint(0, max_exp) for _ in range(nvars)), rng.randrange(rank)): rng.choice((-1, 1)) * rng.randint(1, 12)
        for _ in range(rng.randint(1, max_terms))
    }


def primitive_part(vec):
    content = math.gcd(*vec.values())
    return {t: c // content for t, c in vec.items()}


def as_fractions(vec):
    return {t: Fraction(c) for t, c in vec.items()}


class TestIntegerKernel:
    """groebner.normal_form and groebner.buchberger compute on primitive
    integer vectors and reduce fraction free."""

    @pytest.mark.parametrize("order", ["base", "elim"])
    def test_normal_form_is_a_multiple_of_the_fraction_remainder(self, order):
        """Random integer vectors against non-monic primitive marked bases:
        the remainder vanishes exactly when the Fraction oracle's does, and
        otherwise is a nonzero rational multiple of it."""
        rng = random.Random(f"normal-form-{order}")
        zero = scaled = 0
        for trial in range(150):
            nvars, rank = rng.choice((2, 3)), rng.choice((1, 2))
            key = base_key if order == "base" else elim_key(1)
            basis = []
            for _ in range(rng.randint(1, 4)):
                g = primitive_part(random_integer_vector(rng, nvars, rank, 3, 2))
                basis.append((g, leading_term(g, key)))
            if rng.random() < 0.4:
                # a combination of shifted basis elements, so that some remainders vanish
                vec = {}
                for g, _ in rng.sample(basis, rng.randint(1, len(basis))):
                    shift = tuple(rng.randint(0, 2) for _ in range(nvars))
                    vec_axpy(vec, rng.choice((-1, 1)) * rng.randint(1, 12), shift, g)
            else:
                vec = random_integer_vector(rng, nvars, rank, 5, 4)
            if not vec:
                continue
            ours = groebner.normal_form(vec, groebner.reducer_index(basis), key)
            theirs = normal_form(as_fractions(vec), [(as_fractions(g), lt) for g, lt in basis], key)
            assert all(type(c) is int for c in ours.values()), (trial, vec, basis)
            assert ours.keys() == theirs.keys(), (trial, vec, basis)
            if not ours:
                zero += 1
                continue
            ratios = {Fraction(c) / theirs[t] for t, c in ours.items()}
            assert len(ratios) == 1, (trial, vec, basis)
            if ratios != {1}:
                scaled += 1
        assert zero >= 20 and scaled >= 20, (zero, scaled)

    def test_buchberger_returns_monic_fractions(self):
        rng = random.Random("monic")
        for trial in range(40):
            nvars, rank = rng.choice((2, 3)), rng.choice((1, 2))
            vectors = [_homogenize(random_vector(rng, nvars, rank, 3, 2), nvars) for _ in range(rng.randint(1, 3))]
            vectors += [as_fractions(random_integer_vector(rng, nvars + 1, rank, 2, 2))]
            key = weight_key(tuple(rng.randint(-2, 2) for _ in range(nvars))) if rng.random() < 0.5 else base_key
            gb = groebner.buchberger(vectors, key)
            assert gb, (trial, vectors)
            for g, lt in gb:
                assert all(type(c) is Fraction for c in g.values()), (trial, vectors)
                assert g[lt] == 1 and lt == leading_term(g, key), (trial, vectors)

    @pytest.mark.parametrize("order", ["base", "elim", "weight"])
    def test_large_coefficients_match_plain_buchberger(self, order, monkeypatch):
        """Coefficients from +-1 to +-12, halves and thirds, against plain
        Buchberger; inside the kernel every reducer is a primitive integer
        vector, and some lead with a coefficient other than +-1."""
        seen = {"calls": 0, "non_unit": 0}
        kernel = groebner.normal_form

        def spy(vec, reducers, key):
            seen["calls"] += 1
            entries = [entry for row in reducers.values() for entry in row]
            for _, g, b in entries:
                assert all(type(c) is int for c in g.values()), g
                assert math.gcd(*g.values()) == 1, g
            seen["non_unit"] += any(abs(b) != 1 for _, _, b in entries)
            return kernel(vec, reducers, key)

        monkeypatch.setattr(groebner, "normal_form", spy)
        rng = random.Random(f"large-{order}")
        coeffs = [s * c for s in (1, -1) for c in range(1, 13)] + [Fraction(s, d) for s in (1, -1, 5) for d in (2, 3)]
        for trial in range(40):
            nvars, rank = rng.choice((2, 3)), rng.choice((1, 2, 3))
            vectors = []
            for _ in range(rng.randint(2, 4)):
                vec = {
                    (tuple(rng.randint(0, 2) for _ in range(nvars)), rng.randrange(rank)): Fraction(rng.choice(coeffs))
                    for _ in range(rng.randint(1, 3))
                }
                vectors.append(_homogenize(vec, nvars))
            if order == "base":
                key = base_key
            elif order == "elim":
                key = elim_key(rng.randint(1, max(1, rank - 1)))
            else:
                key = weight_key(tuple(rng.randint(-2, 2) for _ in range(nvars)))
            assert groebner.buchberger(vectors, key) == buchberger(vectors, key), (trial, vectors)
        assert seen["calls"] and seen["non_unit"] >= seen["calls"] // 2, seen


# ---------------------------------------------------------------------------
# The unindexed kernel, as it was before each basis got one reducer index:
# every normal form regrouped its basis by component, tail reduction built
# one for each leave-one-out slice, every syzygy computation ran Buchberger,
# and saturation compared reduced bases. The indexed kernel must agree with
# it exactly.


def reference_normal_form(vec, basis, key):
    keys = key if isinstance(key, _TermKeys) else _TermKeys(key)
    order = keys.__getitem__
    reducers = {}
    for g, lt in basis:
        reducers.setdefault(lt[1], []).append((lt[0], g, g[lt]))
    work = dict(vec)
    remainder = {}
    while work:
        t = max(work, key=order)
        exp, comp = t
        for lexp, g, b in reducers.get(comp, ()):
            if _divides(lexp, exp):
                break
        else:
            remainder[t] = work.pop(t)
            continue
        a = work[t]
        if b == 1:
            c = a
        else:
            d = math.gcd(a, b)
            m, c = b // d, a // d
            if m < 0:
                m, c = -m, -c
            if m != 1:
                for u in work:
                    work[u] *= m
                for u in remainder:
                    remainder[u] *= m
        vec_axpy(work, -c, tuple(x - y for x, y in zip(exp, lexp)), g)
    return remainder


def reference_buchberger(vectors, key):
    keys = _TermKeys(key)
    order = keys.__getitem__
    basis, sugars, peers, queue, pending = [], [], {}, [], set()

    def add(g, sugar):
        lt = leading_term(g, order)
        i = len(basis)
        basis.append((g, lt))
        sugars.append(sugar)
        exp, comp = lt
        for j in peers.setdefault(comp, []):
            top = tuple(map(max, basis[j][1][0], exp))
            pair_sugar = sum(top) + max(sugars[j] - sum(basis[j][1][0]), sugar - sum(exp))
            heapq.heappush(queue, (pair_sugar, keys[(top, comp)], j, i, top))
            pending.add((j, i))
        peers[comp].append(i)

    def treated(a, b):
        return (min(a, b), max(a, b)) not in pending

    for v in vectors:
        if v:
            scale = math.lcm(*(c.denominator for c in v.values()))
            add(_primitive({t: c.numerator * (scale // c.denominator) for t, c in v.items()}), max(sum(exp) for exp, _ in v))
    while queue:
        sugar, _, j, i, top = heapq.heappop(queue)
        pending.discard((j, i))
        comp = basis[i][1][1]
        if any(
            k != i and k != j and _divides(basis[k][1][0], top) and treated(i, k) and treated(j, k)
            for k in peers[comp]
        ):
            continue
        r = reference_normal_form(groebner._spair(*basis[j], *basis[i], top), basis, keys)
        if r:
            add(_primitive(r), sugar)
    return reference_reduce_basis(basis, keys)


def reference_reduce_basis(basis, keys):
    kept = {}
    keep = set()
    for i in sorted(range(len(basis)), key=lambda i: sum(basis[i][1][0])):
        exp, comp = basis[i][1]
        lower = kept.setdefault(comp, [])
        if not any(_divides(e, exp) for e in lower):
            lower.append(exp)
            keep.add(i)
    minimal = [pair for i, pair in enumerate(basis) if i in keep]
    out = []
    for i, (g, lt) in enumerate(minimal):
        r = reference_normal_form(g, minimal[:i] + minimal[i + 1:], keys)
        lc = r[lt]
        out.append(({t: Fraction(c, lc) for t, c in r.items()}, lt))
    out.sort(key=lambda pair: keys[pair[1]], reverse=True)
    return out


def reference_syzygy_generators(vectors, ambient_rank, nvars, modulo=()):
    if not vectors:
        return []
    zero = tuple(0 for _ in range(nvars))
    aug = [dict(v) | {(zero, ambient_rank + j): Fraction(1)} for j, v in enumerate(vectors)]
    gb = reference_buchberger(aug + list(modulo), elim_key(ambient_rank))
    return [{(exp, comp - ambient_rank): c for (exp, comp), c in g.items()} for g, lt in gb if lt[1] >= ambient_rank]


def own_tail_divisible(g, lt):
    """Whether g's leading exponent divides the exponent of another term led in its component."""
    return any(t != lt and t[1] == lt[1] and _divides(lt[0], t[0]) for t in g)


class TestIndexedKernel:
    @pytest.mark.parametrize("order", ["base", "elim", "weight"])
    def test_buchberger_matches_the_unindexed_kernel(self, order):
        """Seeded homogenized modules of rank 1-3 give the same marked bases, term for term."""
        rng = random.Random(f"indexed-{order}")
        coeffs = [1, -1, 2, -3, 5, 12, Fraction(1, 2), Fraction(-5, 3)]
        for trial in range(50):
            nvars, rank = rng.choice((2, 3)), rng.choice((1, 2, 3))
            vectors = []
            for _ in range(rng.randint(1, 4)):
                vec = {
                    (tuple(rng.randint(0, 2) for _ in range(nvars)), rng.randrange(rank)): Fraction(rng.choice(coeffs))
                    for _ in range(rng.randint(1, 3))
                }
                vectors.append(_homogenize(vec, nvars))
            if order == "base":
                key = base_key
            elif order == "elim":
                key = elim_key(rng.randint(1, max(1, rank - 1)))
            else:
                key = weight_key(tuple(rng.randint(-2, 2) for _ in range(nvars)))
            assert groebner.buchberger(vectors, key) == reference_buchberger(vectors, key), (trial, vectors)

    def test_weight_keys_on_inhomogeneous_vectors(self):
        """The inputs of `test_buchberger_returns_monic_fractions`, drawn
        from the same seed: a weight key is not a global order there, and
        some element's leading exponent divides one of its own tail terms,
        so tail reduction must leave the element itself out. (Weight keys
        need not terminate on inhomogeneous input; these inputs do.)"""
        rng = random.Random("monic")
        self_divisible = 0
        for trial in range(40):
            nvars, rank = rng.choice((2, 3)), rng.choice((1, 2))
            vectors = [_homogenize(random_vector(rng, nvars, rank, 3, 2), nvars) for _ in range(rng.randint(1, 3))]
            vectors += [as_fractions(random_integer_vector(rng, nvars + 1, rank, 2, 2))]
            key = weight_key(tuple(rng.randint(-2, 2) for _ in range(nvars))) if rng.random() < 0.5 else base_key
            ours = groebner.buchberger(vectors, key)
            assert ours == reference_buchberger(vectors, key), (trial, vectors)
            self_divisible += any(own_tail_divisible(g, lt) for g, lt in ours)
        assert self_divisible >= 2, self_divisible

    @pytest.mark.parametrize("order", ["base", "elim"])
    def test_normal_form_matches_the_unindexed_kernel(self, order):
        rng = random.Random(f"indexed-normal-form-{order}")
        key = base_key if order == "base" else elim_key(1)
        for trial in range(150):
            nvars, rank = rng.choice((2, 3)), rng.choice((1, 2))
            basis = []
            for _ in range(rng.randint(1, 4)):
                g = primitive_part(random_integer_vector(rng, nvars, rank, 3, 2))
                basis.append((g, leading_term(g, key)))
            vec = random_integer_vector(rng, nvars, rank, 5, 4)
            assert groebner.normal_form(vec, groebner.reducer_index(basis), key) == reference_normal_form(vec, basis, key), trial

    def test_one_vector_has_no_syzygies_without_buchberger(self, monkeypatch):
        """A nonzero vector has no syzygies, and none are computed; a zero
        vector gives e_1 and, with a `modulo`, the elimination runs as before."""
        rng = random.Random("one-vector")
        cases = []
        for _ in range(30):
            nvars = rng.choice((2, 3))
            v = random_vector(rng, nvars, 2, 3, 2)
            modulo = [random_vector(rng, nvars, 2, 3, 2) for _ in range(rng.randint(1, 3))]
            cases.append((nvars, v, modulo, reference_syzygy_generators([v], 2, nvars, modulo)))
            assert reference_syzygy_generators([v], 2, nvars) == []
        calls = []
        kernel = groebner.buchberger
        monkeypatch.setattr(groebner, "buchberger", lambda *args: calls.append(args) or kernel(*args))
        for nvars, v, _, _ in cases:
            assert groebner.syzygy_generators([v], 2, nvars) == []
        assert calls == []
        assert groebner.syzygy_generators([{}], 2, 2) == [{((0, 0), 0): Fraction(1)}]
        for nvars, v, modulo, want in cases:
            assert groebner.syzygy_generators([v], 2, nvars, modulo) == want, (v, modulo)
        assert len(calls) == 1 + len(cases) and sum(bool(want) for *_, want in cases) >= 20

    def test_saturation_stops_where_the_reduced_bases_agree(self):
        """Along each colon chain, the colon's generators all reduce to zero
        against the module exactly when the two reduced bases are equal."""
        rng = random.Random("saturation")
        steps = 0
        for trial in range(40):
            nvars, rank = rng.choice((2, 3)), rng.choice((1, 2))
            f = Poly(nvars, {tuple(1 for _ in range(nvars)): 1})
            gens = []
            for _ in range(rng.randint(1, 3)):
                vec = random_vector(rng, nvars, rank, 2, 2)
                shift = tuple(rng.randint(0, 2) for _ in range(nvars))
                gens.append(ModuleVector(nvars, rank, {(tuple(map(sum, zip(e, shift))), c): a for (e, c), a in vec.items()}))
            current = Submodule(nvars, rank, gens)
            saturated = current.saturate_monomials()
            while True:
                nxt = current.colon(f)
                equal = nxt.reduced_groebner_basis().key() == current.reduced_groebner_basis().key()
                assert all(current.contains(g) for g in nxt.generators) == equal, (trial, gens)
                if equal:
                    break
                current = nxt
                steps += 1
            assert saturated.reduced_groebner_basis() == current.reduced_groebner_basis(), (trial, gens)
        assert steps >= 20, steps


class TestInitialModule:
    def test_generic_weight(self):
        # weight (2,1): the y^2 e1 term wins; unit-normalized to e1
        got = initial_module(G1, (2, 1))
        assert got == laurent_tag(2, 2, [mv2({((0, 2), 0): 1})])

    def test_wall_weight_keeps_binomial(self):
        got = initial_module(G1, (1, 1))
        assert got == laurent_tag(2, 2, [mv2({((0, 2), 0): 1, ((2, 0), 1): -1})])

    def test_three_component_weights(self):
        g = ModuleVector(3, 3, {((0, 1, 0), 0): 1, ((0, 0, 1), 1): 1, ((1, 0, 0), 2): 1})
        got = initial_module(Submodule(3, 3, [g]), (1, 2, 3))
        assert got == laurent_tag(3, 3, [ModuleVector(3, 3, {((1, 0, 0), 2): 1})])

    def test_brute_force_oracle_principal_module(self):
        """For a principal module every initial form is a monomial multiple
        of the generator's initial form; check both inclusions on monomial
        multiples of degree at most four."""
        g = mv2({((0, 2), 0): 1, ((2, 0), 1): -1})
        for w in [(2, 1), (1, 1), (1, 3), (0, 1)]:
            tag = initial_module(G1, w)
            tag_mod = tag.as_submodule()
            ing = initial_form(g, w)
            for a in range(5):
                for b in range(5 - a):
                    multiple = initial_form(g.scaled(1, (a, b)), w)
                    # in_w(x^s g) = x^s in_w(g)
                    assert multiple == ing.scaled(1, (a, b))
                    assert module_membership(tag_mod, multiple)

    def test_rational_weights_accepted(self):
        got = initial_module(G1, (Fraction(1, 2), Fraction(1, 2)))
        assert got == initial_module(G1, (1, 1))

    def test_generator_wise_initials_are_not_enough(self):
        """<y^2 e1 - x^2 e2, x^2 e2> contains y^2 e1, so the true initial
        module at (1,10) is the full rank-two module even though both
        generators' initial forms only hit the second component."""
        g1 = mv2({((0, 2), 0): 1, ((2, 0), 1): -1})
        g2 = mv2({((2, 0), 1): 1})
        m = Submodule(2, 2, [g1, g2])
        got = initial_module(m, (1, 10))
        assert got == laurent_tag(2, 2, [
            mv2({((0, 0), 0): 1}),
            mv2({((0, 0), 1): 1}),
        ])
        naive = [initial_form(g1, (1, 10)), initial_form(g2, (1, 10))]
        assert all(comp == 1 for f in naive for (_, comp), _ in f.terms)


class TestSyzygies:
    def test_koszul_pair(self):
        rows = [[Poly(2, {(2, 0): 1}), Poly(2, {(0, 2): 1})]]
        k = syzygies(rows, 2)
        expected = Submodule(2, 2, [mv2({((0, 2), 0): 1, ((2, 0), 1): -1})])
        assert canonical(k) == canonical(expected)

    def test_identity_matrix_has_zero_kernel(self):
        one = Poly(2, {(0, 0): 1})
        zero = Poly(2, {})
        k = syzygies([[one, zero], [zero, one]], 2)
        assert not k.generators

    def test_returned_generators_are_honest_syzygies(self):
        """Every generator maps to zero under the matrix (test-local
        polynomial arithmetic), for the three-column example."""
        rows = [[
            Poly(3, {(3, 0, 1): 1, (1, 2, 1): -1}),
            Poly(3, {(1, 3, 0): 1, (1, 1, 2): -1}),
            Poly(3, {(0, 1, 3): 1, (2, 1, 1): -1}),
        ]]
        k = syzygies(rows, 3)
        raw = [[dict(p.terms) for p in row] for row in rows]
        assert k.generators
        for g in k.generators:
            image = apply_matrix_to_vector(raw, g.terms, 3)
            assert all(not row for row in image)
        # the special vector (y, z, x) is among the kernel generators
        special = ModuleVector(3, 3, {((0, 1, 0), 0): 1, ((0, 0, 1), 1): 1, ((1, 0, 0), 2): 1})
        assert module_membership(k, special)
        # and the kernel is strictly larger: it has rank two, witnessed by a
        # generator with vanishing third coordinate
        flat = [g for g in k.generators if all(comp != 2 for (_, comp), _ in g.terms)]
        assert flat, "kernel of a nonzero map O^3 -> O must have rank two"

    def test_zero_column_contributes_unit_vector(self):
        rows = [[Poly(2, {(1, 0): 1}), Poly(2, {})]]
        k = syzygies(rows, 2)
        assert module_membership(k, ModuleVector(2, 2, {(((0, 0)), 1): 1}))


class TestColonMembership:
    def test_colon_by_own_variable(self):
        k = Submodule(2, 1, [ModuleVector(2, 1, {((1, 0), 0): 1})])
        got = colon_module(k, Poly(2, {(1, 0): 1}))
        assert canonical(got) == canonical(Submodule(2, 1, [ModuleVector(2, 1, {((0, 0), 0): 1})]))

    def test_membership_of_generator(self):
        g = mv2({((0, 2), 0): 1, ((2, 0), 1): -1})
        assert module_membership(Submodule(2, 2, [g]), g)
        assert not module_membership(Submodule(2, 2, [g]), mv2({((0, 2), 0): 1}))

    def test_colon_by_nonzerodivisor(self):
        k = Submodule(2, 1, [ModuleVector(2, 1, {((2, 0), 0): 1})])
        got = colon_module(k, Poly(2, {(0, 1): 1}))
        assert canonical(got) == canonical(k)

    def test_colon_matches_syzygies_of_the_stacked_matrix(self):
        """(M : g) is the kernel of [g*I | generators of M] projected onto
        its first rank coordinates, on random small submodules."""
        rng = random.Random(5)
        zero = Poly(2, {})

        def terms(count):
            return {(rng.randint(0, 2), rng.randint(0, 2)): rng.choice((1, -1, 2)) for _ in range(count)}

        grew = 0
        for _ in range(30):
            rank = rng.randint(1, 2)
            gens = [
                ModuleVector(2, rank, {(e, rng.randrange(rank)): c for e, c in terms(rng.randint(1, 2)).items()})
                for _ in range(rng.randint(1, 3))
            ]
            module = Submodule(2, rank, gens)
            g = Poly(2, terms(rng.randint(1, 2)))
            rows = [
                [g if j == i else zero for j in range(rank)]
                + [Poly(2, {e: c for (e, comp), c in v.terms if comp == i}) for v in module.generators]
                for i in range(rank)
            ]
            projected = [
                ModuleVector(2, rank, {(e, comp): c for (e, comp), c in s.terms if comp < rank})
                for s in syzygies(rows, 2).generators
            ]
            expected = Submodule(2, rank, projected)
            assert canonical(colon_module(module, g)) == canonical(expected)
            grew += canonical(expected) != canonical(module)
        assert grew >= 5


class TestStratification:
    def test_example_binomial_kernel(self, quadrant):
        strat = groebner_stratification(G1, quadrant)
        assert len(strat.strata()) == 3
        assert strat.closed_cell_fan() == star_subdivision(Fan(quadrant, [quadrant]), (1, 1))
        by_cone = {c.rays: t for c, t in strat.cells}
        t_low = by_cone[((1, 0), (1, 1))]
        t_high = by_cone[((0, 1), (1, 1))]
        t_wall = by_cone[((1, 1),)]
        assert t_low == laurent_tag(2, 2, [mv2({((0, 2), 0): 1})])
        assert t_high == laurent_tag(2, 2, [mv2({((2, 0), 1): 1})])
        assert t_wall == laurent_tag(2, 2, [mv2({((0, 2), 0): 1, ((2, 0), 1): -1})])
        # boundary rays carry their chamber's tag, the origin the wall's
        assert by_cone[((1, 0),)] == t_low
        assert by_cone[((0, 1),)] == t_high
        assert by_cone[()] == t_wall

    def test_octant_principal_module(self, octant):
        g = ModuleVector(3, 3, {((0, 1, 0), 0): 1, ((0, 0, 1), 1): 1, ((1, 0, 0), 2): 1})
        strat = groebner_stratification(Submodule(3, 3, [g]), octant)
        assert strat.closed_cell_fan() == star_subdivision(Fan(octant, [octant]), (1, 1, 1))
        assert len(strat.strata()) == 7

    def test_monomial_module_single_stratum(self, quadrant):
        m = Submodule(2, 1, [ModuleVector(2, 1, {((1, 0), 0): 1})])
        strat = groebner_stratification(m, quadrant)
        assert len(strat.strata()) == 1
        assert strat.closed_cell_fan() == Fan(quadrant, [quadrant])

    def test_cells_reproduce_tags_at_interior_samples(self, quadrant):
        rng = random.Random(3)
        m = Submodule(2, 2, [
            mv2({((0, 2), 0): 1, ((2, 0), 1): -1}),
            mv2({((1, 1), 0): 1, ((0, 0), 1): 2}),
        ])
        strat = groebner_stratification(m, quadrant)
        for cone, tag in strat.cells:
            if not cone.rays:
                assert initial_module(m, (0, 0)) == tag
                continue
            for _ in range(10):
                coeffs = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in cone.rays]
                w = tuple(sum(c * r[i] for c, r in zip(coeffs, cone.rays)) for i in range(2))
                assert initial_module(m, w) == tag

    def test_partition_revalidates(self, quadrant):
        from statikit import PLStratification

        strat = groebner_stratification(G1, quadrant)
        rebuilt = PLStratification(quadrant, list(strat.cells))
        assert rebuilt.key() == strat.stratification.key()

    def test_unsupported_supports_rejected(self):
        half = Cone(2, [(1, 0), (-1, 1), (0, 1)])
        with pytest.raises(UnsupportedSupportError):
            groebner_stratification(G1, half)
        lower = Cone(2, [(1, 1)])
        with pytest.raises(UnsupportedSupportError):
            groebner_stratification(G1, lower)

    def test_normalization_invariance(self, quadrant):
        shifted = Submodule(2, 2, [mv2({((-1, 1), 0): 1, ((1, -1), 1): -1})])
        plain = Submodule(2, 2, [mv2({((0, 2), 0): 1, ((2, 0), 1): -1})])
        a = groebner_stratification(shifted, quadrant)
        b = groebner_stratification(plain, quadrant)
        assert [c.key() for c, _ in a.cells] == [c.key() for c, _ in b.cells]


def random_kernel(rng, nvars):
    """The syzygies of a random matrix of up to 2 x 3 entries with exponents
    0-2, up to 3 terms an entry in 2 variables and up to 2 in 3."""
    most = 3 if nvars == 2 else 2

    def entry():
        return Poly(nvars, {tuple(rng.randint(0, 2) for _ in range(nvars)): rng.choice([1, -1, 2]) for _ in range(rng.randint(1, most))})

    cols = rng.randint(1, 3)
    rows = [[entry() for _ in range(cols)] for _ in range(rng.randint(1, 2))]
    return ModulePresentation(orthant_chart(nvars), rows).kernel()


class TestStratificationPointwise:
    """Each cell's tag is the initial module at positive integer combinations
    of the cell's rays, and the cells, checked again without `_validated`,
    partition the support."""

    @staticmethod
    def check(module, support, rng, samples=3):
        strat = groebner_stratification(module, support)
        rebuilt = PLStratification(support, list(strat.cells))
        assert rebuilt.key() == strat.stratification.key()
        n = support.ambient_dim
        for cone, tag in strat.cells:
            for _ in range(samples if cone.rays else 1):
                coeffs = [rng.randint(1, 4) for _ in cone.rays]
                w = tuple(sum(c * r[i] for c, r in zip(coeffs, cone.rays)) for i in range(n))
                assert initial_module(module, w) == tag, (cone, w)
        return len(strat.cells)

    def test_random_kernels(self):
        rng = random.Random(0)
        cells = [self.check(random_kernel(rng, nvars), orthant(nvars), rng) for nvars in [2] * 20 + [3] * 19]
        assert sum(c > 1 for c in cells) >= 20

    def test_slowest_seeded_kernel(self):
        """Draw #75 of 60 kernels in 2 variables, then 60 in 3, from Random(0):
        the slowest of them to stratify. Its merge made 74,351 `_glue` tests
        while every merge rescanned all pairs of a group (8.2 s on a 2-core
        box), and 3,078 when pairs must share a facet (1.4 s)."""
        rng = random.Random(0)
        kernel = [random_kernel(rng, nvars) for nvars in [2] * 60 + [3] * 16][75]
        start = time.perf_counter()
        assert self.check(kernel, orthant(3), rng) == 54
        assert time.perf_counter() - start < 30

    def test_example_2_kernel(self):
        doc = json.loads((Path(__file__).parent / "fixtures" / "example2.json").read_text())
        p = presentation_from_json(doc)
        assert self.check(p.kernel(), p.chart.cone, random.Random(2)) == 20


def test_example_2_statify_makes_312_buchberger_calls(monkeypatch, capsys):
    """The number of Groebner bases one `statify` of Example 2 builds is
    deterministic: 397 before each basis was indexed once and the bases that
    nothing reads were dropped."""
    from statikit import staticity
    from statikit.cli import main

    calls = []
    kernel = groebner.buchberger

    def counted(*args):
        calls.append(None)
        return kernel(*args)

    monkeypatch.setattr(groebner, "buchberger", counted)
    monkeypatch.setattr(staticity, "buchberger", counted)
    assert main(["statify", str(Path(__file__).parent / "fixtures" / "example2.json")]) == 0
    assert json.loads(capsys.readouterr().out)["all_static"] is True
    assert len(calls) == 312


def test_example_2_statify_makes_174_double_descriptions_and_47_glue_tests(monkeypatch, capsys):
    """Gluing two cells reads their facet incidences and runs no double
    description, and only cells that share a facet are tested: 562 double
    descriptions and 69 `_glue` tests before. Smoothing builds one fan at
    the end and cuts each cone through a subdivision point at its facets
    only: 315 double descriptions before."""
    from statikit.cli import main

    calls = {"double_description": 0, "_glue": 0}

    def counting(module, name):
        kernel = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(module, name, counted)

    counting(polyhedral, "double_description")
    counting(groebner, "_glue")
    assert main(["statify", str(Path(__file__).parent / "fixtures" / "example2.json")]) == 0
    assert json.loads(capsys.readouterr().out)["all_static"] is True
    assert calls == {"double_description": 174, "_glue": 47}


def reference_glue(ambient_dim, ci, cj):
    """`_glue` by an intersection, a leave-one-out `Cone` and two cuts, as it
    was before it read facet incidences."""
    if len(set(ci.rays) & set(cj.rays)) < ci.dim - 1:
        return None
    w = ci.intersection(cj)
    if w.dim != ci.dim - 1 or w not in ci.faces() or w not in cj.faces():
        return None
    h = next((a for a in ci.facet_normals if all(dot(a, r) == 0 for r in w.rays)), None)
    if h is None:
        return None
    union = Cone(ambient_dim, ci.rays + cj.rays)
    if union.dim != ci.dim or not (ci.contains_cone(union.cut([h])) and cj.contains_cone(union.cut([vneg(h)]))):
        return None
    return w, union


def reference_merge_cells(ambient_dim, cells):
    """`_merge_cells` as it was when it tested every pair of a group."""
    tag_ids = {}
    cells = [(c, t, (c.dim, tag_ids.setdefault(_tag_key(t), len(tag_ids)))) for c, t in sorted(cells, key=lambda ct: ct[0].key())]
    glued = {}
    while True:
        peers = {}
        for k, (_, _, group) in enumerate(cells):
            peers.setdefault(group, []).append(k)
        for i, j in ((i, j) for i, (_, _, group) in enumerate(cells) for j in peers[group] if j > i):
            (ci, ti, group), cj = cells[i], cells[j][0]
            pair = (ci.key(), cj.key())
            if pair not in glued:
                glued[pair] = reference_glue(ambient_dim, ci, cj)
            if glued[pair] is None:
                continue
            w, union = glued[pair]
            wall = next((g for c, _, g in cells if c.key() == w.key()), None)
            if wall is None or wall[1] != group[1]:
                continue
            cells = [cell for k, cell in enumerate(cells) if k not in (i, j) and cell[0].key() != w.key()]
            cells = sorted(cells + [(union, ti, group)], key=lambda cell: cell[0].key())
            break
        else:
            return [(c, t) for c, t, _ in cells]


class TestMergeDifferential:
    """The facet-incidence merge against the double-description one it
    replaced, on the cells of seeded random kernels."""

    @staticmethod
    def glue_summary(glued):
        if glued is None:
            return None
        w, union = glued
        return w.key(), union.key(), union.span_normals, union.facet_normals

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_reference(self, seed, monkeypatch):
        merges, tests = [], []
        merge, glue = groebner._merge_cells, groebner._glue

        def recorded_merge(n, cells):
            merged = merge(n, cells)
            merges.append((n, cells, merged))
            return merged

        def recorded_glue(n, ci, cj):
            glued = glue(n, ci, cj)
            tests.append((n, ci, cj, glued))
            return glued

        monkeypatch.setattr(groebner, "_merge_cells", recorded_merge)
        monkeypatch.setattr(groebner, "_glue", recorded_glue)
        rng = random.Random(seed)
        for nvars in [2] * 20 + [3] * 12:
            groebner_stratification(random_kernel(rng, nvars), orthant(nvars))
        for n, cells, merged in merges:
            expected = reference_merge_cells(n, cells)
            assert [(c.key(), _tag_key(t)) for c, t in merged] == [(c.key(), _tag_key(t)) for c, t in sorted(expected, key=lambda ct: ct[0].key())]
        kinds = {None: 0, "full": 0, "lower": 0}
        for n, ci, cj, glued in tests:
            assert self.glue_summary(glued) == self.glue_summary(reference_glue(n, ci, cj)), (ci, cj)
            kinds[None if glued is None else "full" if ci.dim == n else "lower"] += 1
        assert sum(len(cells) > len(merged) for _, cells, merged in merges) >= 5
        assert min(kinds.values()) >= 100, kinds
