import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from statikit import (
    Cone,
    ModulePresentation,
    ModuleVector,
    NonSmoothChartError,
    Poly,
    SmoothChart,
    Submodule,
    is_log_flat,
    is_regular_sequence_on,
    is_static,
    koszul_tor,
    log_tor_dim_at_most,
    module_membership,
    orthant_chart,
)


def p2(terms):
    return Poly(2, terms)


def present(entries, chart=None, nvars=2):
    chart = chart or orthant_chart(nvars)
    return ModulePresentation(chart, [[Poly(nvars, t) for t in row] for row in entries])


X2Y2 = present([[{(2, 0): 1}, {(0, 2): 1}]])
XY = present([[{(1, 0): 1}, {(0, 1): 1}]])
X_ONLY = present([[{(1, 0): 1}]])
FREE = present([[]])


class TestKoszulTor:
    def test_complete_intersection_has_nonzero_tor2(self):
        rep = koszul_tor(X2Y2, (0, 1), 2)
        assert not rep.vanishes
        assert rep.face == ()
        assert rep.witness is not None

    def test_projective_dimension_one_tor2_vanishes(self):
        assert koszul_tor(X_ONLY, (0, 1), 2).vanishes

    def test_free_module_flat(self):
        for seq in [(0,), (1,), (0, 1)]:
            for i in (1, 2):
                assert koszul_tor(FREE, seq, i).vanishes

    def test_empty_sequence_positive_degrees_vanish(self):
        assert koszul_tor(X2Y2, (), 1).vanishes
        assert koszul_tor(X2Y2, (), 2).vanishes

    def test_degree_zero_detects_nonzero_quotient(self):
        rep = koszul_tor(X2Y2, (0, 1), 0)
        assert not rep.vanishes

    def test_degree_beyond_length_vanishes(self):
        assert koszul_tor(X2Y2, (0,), 2).vanishes

    def test_non_smooth_chart_rejected(self):
        with pytest.raises(NonSmoothChartError):
            SmoothChart(Cone(2, [(1, 0), (1, 2)]))

    def test_witness_is_cycle_not_boundary(self):
        """Replay the witness: in the kernel of the differential modulo the
        presentation image, outside the boundary submodule."""
        from statikit.staticity import _broadcast, _koszul_column, _wedge_basis
        from statikit.groebner import Submodule as Sub

        m = X2Y2
        rep = koszul_tor(m, (0, 1), 2)
        assert not rep.vanishes
        z = rep.witness["vector"]
        seq = (0, 1)
        l = m.nrows
        w2 = _wedge_basis(seq, 2)
        w1 = _wedge_basis(seq, 1)
        w3 = _wedge_basis(seq, 3)
        d_cols = [
            _koszul_column(seq, w2, w1, 2, l, wi, i)
            for wi in range(len(w2))
            for i in range(l)
        ]
        # d(z) must land in the broadcast image of the presentation
        image = Sub(2, l * len(w1), [
            ModuleVector(2, l * len(w1), col) for col in _broadcast(m.columns(), l, len(w1))
        ])
        dz = {}
        for (exp, comp), c in z.terms:
            for t, cc in d_cols[comp].items():
                key = (tuple(a + b for a, b in zip(exp, t[0])), t[1])
                dz[key] = dz.get(key, Fraction(0)) + c * cc
        dz = {k: v for k, v in dz.items() if v}
        assert module_membership(image, ModuleVector(2, l * len(w1), dz))
        # z is not a boundary
        boundary = Sub(2, l * len(w2), [
            ModuleVector(2, l * len(w2), col)
            for col in [
                _koszul_column(seq, w3, w2, 2, l, wi, i)
                for wi in range(len(w3))
                for i in range(l)
            ] + _broadcast(m.columns(), l, len(w2))
        ])
        assert not module_membership(boundary, z)


class TestLogTorDim:
    def test_skyscraper_not_static(self):
        holds, reports = log_tor_dim_at_most(XY, 1)
        assert not holds
        assert len(reports) == 4
        bad = [r for r in reports if not r.vanishes]
        assert bad and all(r.witness is not None for r in bad)

    def test_divisor_static_not_log_flat(self):
        assert is_static(X_ONLY)
        assert not is_log_flat(X_ONLY)

    def test_free_log_flat(self):
        assert is_log_flat(FREE)
        assert is_static(FREE)

    def test_report_count_is_power_of_two(self):
        _, reports = log_tor_dim_at_most(X2Y2, 1)
        assert len(reports) == 4
        faces = [r.face for r in reports]
        assert faces == sorted(faces, key=lambda f: (len(f), f))

    def test_monotonicity_in_d(self):
        rng = random.Random(23)
        for _ in range(15):
            rows = []
            for _ in range(rng.randint(1, 2)):
                row = []
                for _ in range(rng.randint(1, 2)):
                    e = (rng.randint(0, 2), rng.randint(0, 2))
                    row.append({e: rng.choice([1, -1, 2])})
                rows.append(row)
            width = max(len(r) for r in rows)
            rows = [r + [{}] * (width - len(r)) for r in rows]
            m = present(rows)
            verdicts = [log_tor_dim_at_most(m, d)[0] for d in range(4)]
            for a, b in zip(verdicts, verdicts[1:]):
                assert (not a) or b


class TestRegularSequence:
    def test_binomial_kernel_fails(self):
        k = Submodule(2, 2, [ModuleVector(2, 2, {((0, 2), 0): 1, ((2, 0), 1): -1})])
        assert not is_regular_sequence_on(k, (0, 1))

    def test_free_quotient_passes(self):
        k = Submodule(2, 2, [ModuleVector(2, 2, {((0, 0), 0): 1})])
        assert is_regular_sequence_on(k, (0, 1))

    def test_empty_kernel_vacuous(self):
        k = Submodule(2, 1, [])
        assert is_regular_sequence_on(k, (0, 1))

    def test_blowup_chart_kernel_passes(self):
        k = Submodule(2, 2, [ModuleVector(2, 2, {((0, 0), 0): 1, ((2, 0), 1): -1})])
        assert is_regular_sequence_on(k, (0, 1))


def random_multigraded_presentation(rng, nvars, max_rows=2, max_cols=3, max_deg=3):
    rows = rng.randint(1, max_rows)
    cols = rng.randint(1, max_cols)
    entries = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if rng.random() < 0.25:
                row.append({})
            else:
                e = tuple(rng.randint(0, max_deg) for _ in range(nvars))
                row.append({e: rng.choice([1, -1, 2, -2])})
        entries.append(row)
    return present(entries, nvars=nvars, chart=orthant_chart(nvars))


class TestCrossCriterion:
    def test_chart_criterion_agrees_with_regular_sequence(self):
        rng = random.Random(101)
        disagreements = []
        for i in range(60):
            nvars = rng.choice([2, 2, 3])
            m = random_multigraded_presentation(rng, nvars)
            lhs = is_static(m)
            rhs = is_regular_sequence_on(m.kernel(), tuple(range(nvars)))
            if lhs != rhs:
                disagreements.append((i, m, lhs, rhs))
        assert not disagreements, f"criteria disagree on: {disagreements}"


class TestKoszulRigidity:
    def test_h1_vanishing_forces_all_higher(self):
        rng = random.Random(303)
        checked = 0
        for _ in range(100):
            nvars = rng.choice([2, 3])
            m = random_multigraded_presentation(rng, nvars, max_deg=3)
            seq = tuple(range(nvars))
            if koszul_tor(m, seq, 1).vanishes:
                checked += 1
                for i in range(2, nvars + 1):
                    assert koszul_tor(m, seq, i).vanishes
        assert checked >= 10


class TestDimensionShift:
    def test_tor_shift_between_module_and_cover_kernel(self):
        """Tor_{i+1}(coker A) = Tor_i(image module) for i >= 1, with the
        image module presented by the syzygies of A."""
        rng = random.Random(404)
        for _ in range(40):
            nvars = rng.choice([2, 3])
            m = random_multigraded_presentation(rng, nvars, max_rows=2, max_cols=2, max_deg=2)
            k = m.kernel()
            if k.rank == 0:
                continue
            kernel_presentation = ModulePresentation(
                m.chart,
                [
                    [
                        Poly(nvars, {e: c for (e, comp), c in g.terms if comp == i})
                        for g in k.generators
                    ]
                    for i in range(k.rank)
                ],
            ) if k.generators else ModulePresentation(m.chart, [[] for _ in range(k.rank)])
            seq = tuple(range(nvars))
            for i in (1, 2):
                up = koszul_tor(m, seq, i + 1).vanishes
                down = koszul_tor(kernel_presentation, seq, i).vanishes
                assert up == down


@st.composite
def presentations(draw):
    """Presentations in 2-3 variables with up to 3 rows and 0-3 columns; some rows are zero."""
    nvars = draw(st.integers(2, 3))
    cols = draw(st.integers(0, 3))
    entry = st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * nvars), st.sampled_from([1, -1, 2]), max_size=2
    )
    zero_row = [{}] * cols
    rows = draw(st.lists(st.one_of(st.just(zero_row), st.lists(entry, min_size=cols, max_size=cols)), min_size=1, max_size=3))
    return present(rows, nvars=nvars)


class TestResolutionVerdict:
    """The free-resolution verdict against Koszul homology on every face."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(presentations())
    @example(present([[], []]))
    # a zero row over x^2: a resolution built with the source rank as the
    # ambient rank reads it as log flat
    @example(present([[{}], [{(2, 0): 1}]]))
    @example(present([[{(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}]], nvars=3))
    @example(present([[{(1, 0): 1}, {(0, 1): 1}], [{}, {}]]))
    def test_verdicts_and_reports_match_koszul(self, m):
        from statikit.staticity import _face_verdicts

        for d in range(3):
            verdicts = list(_face_verdicts(m, d))
            koszul = [koszul_tor(m, seq, d + 1) for _, seq, _ in verdicts]
            assert [v for _, _, v in verdicts] == [rep.vanishes for rep in koszul]
            assert log_tor_dim_at_most(m, d)[1] == koszul
        assert is_static(m) == log_tor_dim_at_most(m, 1)[0]
        assert is_log_flat(m) == log_tor_dim_at_most(m, 0)[0]

    def test_resolution_is_built_once_to_the_length_asked(self):
        m = present([[{(1, 0): 1}, {(0, 1): 1}]])
        first = m.resolution(2)
        maps = m.resolution(3)
        assert len(first) == 2 and len(maps) == 3
        assert all(a is b for a, b in zip(first, maps))
        assert maps[0] == (m.columns(), 1)
        assert len(maps[1][0]) == 1 and maps[1][1] == 2
