"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
per criterion. Criterion 2 pins expected values that are mathematically
unattainable (see the criterion's test docstring); it is asserted exactly as
stated and fails honestly.
"""

import json
import random
import time
from pathlib import Path

from statikit import (
    Fan,
    Graph,
    ModulePresentation,
    ModuleVector,
    Poly,
    Submodule,
    compute_statification,
    firing_script,
    is_chip_firing_equivalent,
    is_regular_sequence_on,
    is_static,
    jacobian_group,
    koszul_tor,
    laplacian,
    orthant_chart,
    reduced_gb,
    star_subdivision,
    verify_theorem_instance,
)
from statikit.cli import main as cli_main
from conftest import oracle_spanning_trees

FIXTURES = Path(__file__).parent / "fixtures"


def verdict(number, label, passed, detail=""):
    state = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number} ({label}): {state}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return passed


def present(entries, nvars=2):
    return ModulePresentation(orthant_chart(nvars), [[Poly(nvars, t) for t in row] for row in entries])


def test_criterion_1_example_1_reproduction(quadrant):
    """statify on coker(x^2, y^2): kernel <(y^2, -x^2)>, output fan the star
    subdivision of the quadrant at (1,1), both charts static, under 1 s."""
    m = present([[{(2, 0): 1}, {(0, 2): 1}]])
    t0 = time.monotonic()
    cert = compute_statification(m)
    elapsed = time.monotonic() - t0

    expected_kernel = Submodule(2, 2, [ModuleVector(2, 2, {((0, 2), 0): 1, ((2, 0), 1): -1})])
    kernel_ok = reduced_gb(cert.kernel).key() == reduced_gb(expected_kernel).key()
    fan_ok = cert.fan == star_subdivision(Fan(quadrant, [quadrant]), (1, 1))
    charts_ok = cert.all_static and len(cert.charts) == 2
    time_ok = elapsed < 1.0
    ok = kernel_ok and fan_ok and charts_ok and time_ok
    verdict(1, "Example-1 reproduction", ok, f"{elapsed:.2f}s")
    assert kernel_ok and fan_ok and charts_ok and time_ok


def test_criterion_2_example_2_reproduction(octant):
    """statify on coker(x^3 z - x y^2 z, x y^3 - x y z^2, y z^3 - x^2 y z):
    asserted exactly as stated (kernel <(y,z,x)>, fan the star subdivision at
    (1,1,1), three static charts, under 10 s).

    These expected values reproduce a non-exact complex (the kernel of a
    nonzero map O^3 -> O has rank two, so it is not generated by (y,z,x),
    and the honest stratification is strictly finer than the blowup fan;
    both independent sides of the staticity criterion confirm this). The
    criterion is asserted faithfully and fails; the mathematically sound
    core of the example, the stratification of <(y,z,x)> itself, is covered
    by the supplement test below and by the groebner suite.
    """
    m = present(
        [[
            {(3, 0, 1): 1, (1, 2, 1): -1},
            {(1, 3, 0): 1, (1, 1, 2): -1},
            {(0, 1, 3): 1, (2, 1, 1): -1},
        ]],
        nvars=3,
    )
    t0 = time.monotonic()
    cert = compute_statification(m)
    elapsed = time.monotonic() - t0

    expected_kernel = Submodule(3, 3, [
        ModuleVector(3, 3, {((0, 1, 0), 0): 1, ((0, 0, 1), 1): 1, ((1, 0, 0), 2): 1})
    ])
    kernel_ok = reduced_gb(cert.kernel).key() == reduced_gb(expected_kernel).key()
    fan_ok = cert.fan == star_subdivision(Fan(octant, [octant]), (1, 1, 1))
    charts_ok = cert.all_static and len(cert.charts) == 3
    time_ok = elapsed < 10.0
    ok = kernel_ok and fan_ok and charts_ok and time_ok
    verdict(
        2,
        "Example-2 reproduction",
        ok,
        f"kernel={kernel_ok} fan={fan_ok} charts={charts_ok} {elapsed:.1f}s; "
        "stated values reproduce a non-exact complex, see test docstring",
    )
    assert ok, (
        "criterion 2 encodes a defective expected value: the displayed "
        "four-term sequence is not exact (Euler characteristic -1), the true "
        "kernel has a second generator (y^3 - y z^2)e1 + (y^2 z - x^2 z)e2, "
        "and the pullback to the blowup charts is provably not static"
    )


def test_criterion_2_supplement_underlying_stratification(octant):
    """The sound computation underlying the Example-2 expected values: the
    Groebner stratification of the module <(y, z, x)> coincides with the fan
    of the origin blowup of affine three-space, and the honest statification
    of the cokernel certifies every chart pullback static."""
    from statikit import groebner_stratification, stratification_to_smooth_fan

    g = ModuleVector(3, 3, {((0, 1, 0), 0): 1, ((0, 0, 1), 1): 1, ((1, 0, 0), 2): 1})
    strat = groebner_stratification(Submodule(3, 3, [g]), octant)
    expected = star_subdivision(Fan(octant, [octant]), (1, 1, 1))
    fan_ok = strat.closed_cell_fan() == expected
    smooth_ok = stratification_to_smooth_fan(strat.stratification) == expected

    m = present(
        [[
            {(3, 0, 1): 1, (1, 2, 1): -1},
            {(1, 3, 0): 1, (1, 1, 2): -1},
            {(0, 1, 3): 1, (2, 1, 1): -1},
        ]],
        nvars=3,
    )
    cert = compute_statification(m)
    honest_ok = cert.all_static and all(cert.replay().values())
    ok = fan_ok and smooth_ok and honest_ok
    verdict(2, "Example-2 supplement (underlying stratification + honest statify)", ok)
    assert ok


def test_criterion_3_orbit_closure_staticity_table():
    """On the plane chart: coker(x,y) not static; coker(x) static but not
    log flat; the free module log flat."""
    skyscraper = present([[{(1, 0): 1}, {(0, 1): 1}]])
    divisor = present([[{(1, 0): 1}]])
    free = present([[]])
    from statikit import is_log_flat

    results = {
        "skyscraper_not_static": not is_static(skyscraper),
        "divisor_static": is_static(divisor),
        "divisor_not_log_flat": not is_log_flat(divisor),
        "free_log_flat": is_log_flat(free),
    }
    ok = all(results.values())
    verdict(3, "orbit-closure staticity table", ok, str({k: v for k, v in results.items() if not v}))
    assert ok


def _random_presentation(rng):
    rows = rng.randint(1, 2)
    cols = rng.randint(1, 2)
    entries = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            terms = {}
            for _ in range(rng.randint(0, 2)):
                while True:
                    e = (rng.randint(0, 3), rng.randint(0, 3))
                    if sum(e) <= 3:
                        break
                terms[e] = rng.choice([1, -1, 2, -2])
            row.append(terms)
        entries.append(row)
    return present(entries)


def test_criterion_4_theorem_property_suite(quadrant):
    """On fifty randomized presentations and at least three fans each (the
    computed statification, one coarsening, one extra refinement), the two
    independently computed sides of verify_theorem_instance agree always."""
    rng = random.Random(20250810)
    base = Fan(quadrant, [quadrant])
    disagreements = []
    checked = 0
    for i in range(50):
        m = _random_presentation(rng)
        cert = compute_statification(m)
        fans = [cert.fan, base]
        first = cert.fan.max_cones[0]
        fans.append(star_subdivision(cert.fan, tuple(sum(c) for c in zip(*first.rays))))
        for fan in fans:
            check = verify_theorem_instance(m, fan)
            checked += 1
            if not check.agrees:
                disagreements.append((i, [[str(p) for p in r] for r in m.rows], len(fan.max_cones)))
    ok = not disagreements and checked >= 150
    verdict(4, "theorem biconditional property suite", ok, f"{checked} fan checks")
    assert ok, disagreements


def _random_multigraded(rng, nvars):
    rows = rng.randint(1, 2)
    cols = rng.randint(1, 3)
    entries = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if rng.random() < 0.2:
                row.append({})
            else:
                e = tuple(rng.randint(0, 3) for _ in range(nvars))
                row.append({e: rng.choice([1, -1, 2, -2])})
        entries.append(row)
    return present(entries, nvars=nvars)


def test_criterion_5_cross_criterion_agreement():
    """Chart-criterion staticity equals the regular-sequence test on the
    presentation kernel for at least one hundred random multigraded
    instances; disagreements are reported verbatim."""
    rng = random.Random(5150)
    disagreements = []
    for i in range(100):
        nvars = rng.choice([2, 2, 3])
        m = _random_multigraded(rng, nvars)
        chart_side = is_static(m)
        regseq_side = is_regular_sequence_on(m.kernel(), tuple(range(nvars)))
        if chart_side != regseq_side:
            disagreements.append(
                {
                    "instance": i,
                    "matrix": [[str(p) for p in row] for row in m.rows],
                    "chart_criterion": chart_side,
                    "regular_sequence": regseq_side,
                }
            )
    ok = not disagreements
    verdict(5, "criterion cross-check (100 multigraded instances)", ok, f"{len(disagreements)} disagreements")
    assert ok, json.dumps(disagreements, indent=2)


def test_criterion_6_koszul_vs_resolution_shift():
    """Koszul vanishing in degree i+1 for a module matches degree-i
    vanishing for its cover kernel (dimension shift) on one hundred random
    modules with at most three variables."""
    rng = random.Random(6001)
    failures = []
    count = 0
    while count < 100:
        nvars = rng.choice([2, 3])
        rows_n = rng.randint(1, 2)
        cols_n = rng.randint(1, 2)
        entries = []
        for _ in range(rows_n):
            row = []
            for _ in range(cols_n):
                terms = {}
                for _ in range(rng.randint(0, 2)):
                    e = tuple(rng.randint(0, 2) for _ in range(nvars))
                    terms[e] = rng.choice([1, -1, 2])
                row.append(terms)
            entries.append(row)
        m = present(entries, nvars=nvars)
        k = m.kernel()
        if k.rank == 0:
            continue
        count += 1
        kernel_presentation = ModulePresentation(
            m.chart,
            [
                [Poly(nvars, {e: c for (e, comp), c in g.terms if comp == i}) for g in k.generators]
                for i in range(k.rank)
            ]
            if k.generators
            else [[] for _ in range(k.rank)],
        )
        seq = tuple(range(nvars))
        for i in (1, 2):
            up = koszul_tor(m, seq, i + 1).vanishes
            down = koszul_tor(kernel_presentation, seq, i).vanishes
            if up != down:
                failures.append((count, i, [[str(p) for p in r] for r in m.rows]))
    ok = not failures
    verdict(6, "Koszul vs resolution dimension shift (100 modules)", ok, f"{len(failures)} failures")
    assert ok, failures


def _fixture_graph_corpus():
    rng = random.Random(7007)
    graphs = [
        Graph(3, [(0, 1), (1, 2), (2, 0)]),
        Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]),
        Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0)]),
        Graph(2, [(0, 1)] * 4),
        Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)]),
        Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]),
        Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 3), (0, 2)]),
        Graph(5, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]),
    ]
    for _ in range(6):
        n = rng.randint(3, 7)
        edges = [(i, rng.randint(0, i - 1)) for i in range(1, n)]
        for _ in range(rng.randint(1, 4)):
            u, v = rng.randint(0, n - 1), rng.randint(0, n - 1)
            if u != v:
                edges.append((u, v))
        graphs.append(Graph(n, edges))
    return graphs


def test_criterion_7_chip_firing_suite():
    """Cycles have cyclic Jacobians; Jacobian order equals the spanning-tree
    count on every corpus graph with at most seven vertices; scripts exist
    exactly for equivalent pairs on one thousand random triples and always
    replay; total under thirty seconds."""
    t0 = time.monotonic()
    cyclic_ok = all(jacobian_group(Graph(n, [(i, (i + 1) % n) for i in range(n)])) == [n] for n in range(3, 9))

    tree_ok = True
    for g in _fixture_graph_corpus():
        assert g.n <= 7
        order = 1
        for f in jacobian_group(g):
            order *= f
        if order != oracle_spanning_trees(g):
            tree_ok = False

    rng = random.Random(424242)
    script_ok = True
    for _ in range(1000):
        n = rng.randint(2, 6)
        edges = [(i, rng.randint(0, i - 1)) for i in range(1, n)]
        for _ in range(rng.randint(0, 3)):
            u, v = rng.randint(0, n - 1), rng.randint(0, n - 1)
            if u != v:
                edges.append((u, v))
        g = Graph(n, edges)
        l = laplacian(g)
        d1 = [rng.randint(-4, 5) for _ in range(n)]
        if rng.random() < 0.5:
            s = [rng.randint(-3, 3) for _ in range(n)]
            d2 = [d1[v] - sum(l[v][u] * s[u] for u in range(n)) for v in range(n)]
        else:
            d2 = [rng.randint(-4, 5) for _ in range(n)]
        eq = is_chip_firing_equivalent(g, d1, d2)
        script = firing_script(g, d1, d2)
        if (script is not None) != eq:
            script_ok = False
        if script is not None:
            replay = [d1[v] - sum(l[v][u] * script[u] for u in range(n)) for v in range(n)]
            if replay != d2:
                script_ok = False
    elapsed = time.monotonic() - t0
    ok = cyclic_ok and tree_ok and script_ok and elapsed < 30.0
    verdict(7, "chip-firing suite", ok, f"{elapsed:.1f}s")
    assert ok


def _run_fixture_suite(tmp_path, tag):
    jobs = [
        ("statify", "example1.json"),
        ("statify", "example2.json"),
        ("check-static", "skyscraper.json"),
        ("check-static", "divisor.json"),
        ("check-static", "free.json"),
        ("tor-dim", "tordim_divisor_d0.json"),
        ("stratify", "stratify_binomial.json"),
        ("verify-theorem", "verify_example1_blowup.json"),
        ("verify-theorem", "verify_example1_coarse.json"),
        ("jacobian", "cycle5.json"),
        ("chip-equiv", "chip_equiv_true.json"),
        ("chip-equiv", "chip_equiv_false.json"),
        ("firing-script", "firing_script_c3.json"),
    ]
    outputs = {}
    for cmd, name in jobs:
        out = tmp_path / f"{tag}_{cmd}_{name}"
        code = cli_main([cmd, str(FIXTURES / name), "--output", str(out)])
        outputs[(cmd, name)] = (code, out.read_bytes())
    return outputs


def _golden_outputs():
    golden = FIXTURES / "golden"
    codes = json.loads((golden / "exit_codes.json").read_text())
    return {
        tuple(stem.split("_", 1)): (code, (golden / stem).read_bytes())
        for stem, code in codes.items()
    }


def test_criterion_8_deterministic_cli(tmp_path):
    """Two consecutive runs of the full CLI fixture suite produce
    byte-identical outputs and identical exit codes, and the first run
    matches the recorded golden outputs byte for byte."""
    first = _run_fixture_suite(tmp_path, "a")
    second = _run_fixture_suite(tmp_path, "b")
    diffs = [k for k in first if first[k] != second[k]]
    golden = _golden_outputs()
    drift = [k for k in golden if first.get(k) != golden[k]]
    ok = not diffs and not drift and first.keys() == second.keys() == golden.keys()
    verdict(8, "byte-identical CLI outputs", ok, f"{len(first)} jobs")
    assert ok, (diffs, drift)
