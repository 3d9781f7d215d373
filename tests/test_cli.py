import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from statikit.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
ORTHANT = {"ambient_dim": "2", "rays": [["1", "0"], ["0", "1"]]}
X = [{"coeff": "1", "exp": ["1", "0"]}]
ORTHANT4 = {"ambient_dim": "4", "rays": [[str(int(i == j)) for j in range(4)] for i in range(4)]}
# a non-simplicial cone of Z^4 whose pyramids over its first ray are not simplicial
PYRAMID4 = [["0", "0", "1", "1"], ["0", "1", "0", "0"], ["1", "0", "0", "0"], ["1", "0", "0", "1"], ["1", "2", "0", "2"]]
ORTHANT3 = {"ambient_dim": "3", "rays": [[str(int(i == j)) for j in range(3)] for i in range(3)]}
# a cone over an 18-gon: 2^18 subsets of its facets, 38 faces
POLYGON18 = [[str(i), str(i * i), "400"] for i in range(1, 19)]
# one fixture per subcommand (statify has two), with the schema it must satisfy
SCHEMA_FIXTURES = [
    ("statify", "example1.json"),
    ("statify", "example2.json"),
    ("check-static", "skyscraper.json"),
    ("tor-dim", "tordim_divisor_d0.json"),
    ("verify-theorem", "verify_example1_blowup.json"),
    ("jacobian", "cycle5.json"),
    ("chip-equiv", "chip_equiv_true.json"),
    ("firing-script", "firing_script_c3.json"),
    ("stratify", "stratify_binomial.json"),
]

# the help of an 80-column terminal, recorded from the CLI as it was before the
# usage string was formatted once at import
USAGE = """usage: statikit [-h] [--output OUTPUT] [--schema] [--audit] [--fail-fast]
                {stratify,statify,check-static,tor-dim,verify-theorem,jacobian,chip-equiv,firing-script}
                [input]
"""
HELP = USAGE + """
Exact Groebner stratifications, staticity certificates, and chip firing.

positional arguments:
  {stratify,statify,check-static,tor-dim,verify-theorem,jacobian,chip-equiv,firing-script}
  input                 input path, '-' for stdin, or inline JSON

options:
  -h, --help            show this help message and exit
  --output OUTPUT       write the JSON result to this path
  --schema              print the input schema and exit
  --audit               statify: run the second-resolution audit
  --fail-fast           statify: stop at the first non-static chart
"""


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture(name):
    return str(FIXTURES / name)


class TestExitCodes:
    def test_statify_example1_succeeds(self, capsys):
        code, out, _ = run_cli(["statify", fixture("example1.json")], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["format"] == "statikit-cert/1"
        assert doc["all_static"] is True
        assert sorted(tuple(map(int, r)) for c in doc["fan"]["cones"] for r in c["rays"]) is not None

    def test_check_static_negative_is_exit_one(self, capsys):
        code, out, _ = run_cli(["check-static", fixture("skyscraper.json")], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["static"] is False

    def test_check_static_divisor(self, capsys):
        code, out, _ = run_cli(["check-static", fixture("divisor.json")], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["static"] is True and doc["log_flat"] is False

    def test_tor_dim_negative(self, capsys):
        code, out, _ = run_cli(["tor-dim", fixture("tordim_divisor_d0.json")], capsys)
        assert code == 1
        assert json.loads(out)["holds"] is False

    def test_tor_dim_huge_bound_does_no_work(self, capsys, monkeypatch):
        """A bound above the variable count vanishes on every face, with no
        resolution built and no Koszul complex."""
        from statikit import staticity

        def no_work(*args):
            raise AssertionError("a Tor degree above the variable count needs no computation")

        monkeypatch.setattr(staticity.ModulePresentation, "resolution", no_work)
        monkeypatch.setattr(staticity, "koszul_tor", no_work)
        doc = json.loads((FIXTURES / "tordim_divisor_d0.json").read_text())
        doc["d"] = str(10**6)
        code, out, _ = run_cli(["tor-dim", json.dumps(doc)], capsys)
        payload = json.loads(out)
        assert code == 0 and payload["holds"] is True and payload["d"] == "1000000"
        assert len(payload["reports"]) == 4 and all(r["vanishes"] for r in payload["reports"])

    def test_jacobian_cycle5(self, capsys):
        code, out, _ = run_cli(["jacobian", fixture("cycle5.json")], capsys)
        assert code == 0
        assert json.loads(out) == {"invariant_factors": ["5"]}

    def test_chip_equiv_outcomes(self, capsys):
        code, out, _ = run_cli(["chip-equiv", fixture("chip_equiv_true.json")], capsys)
        assert code == 0 and json.loads(out)["equivalent"] is True
        code, out, _ = run_cli(["chip-equiv", fixture("chip_equiv_false.json")], capsys)
        assert code == 1 and json.loads(out)["equivalent"] is False

    def test_chip_equiv_unequal_degree(self, capsys):
        """Divisors of different degree are inequivalent, and both still
        come back reduced."""
        triangle = {"vertices": "3", "edges": [["0", "1"], ["0", "2"], ["1", "2"]]}
        pair = {"graph": triangle, "d1": ["0", "2", "0"], "d2": ["0", "0", "-1"]}
        code, out, _ = run_cli(["chip-equiv", json.dumps(pair)], capsys)
        assert code == 1
        assert json.loads(out) == {"equivalent": False, "reduced_d1": ["1", "0", "1"], "reduced_d2": ["-2", "1", "0"]}

    def test_firing_script(self, capsys):
        code, out, _ = run_cli(["firing-script", fixture("firing_script_c3.json")], capsys)
        assert code == 0
        assert json.loads(out)["script"] is not None

    def test_verify_theorem(self, capsys):
        code, out, _ = run_cli(["verify-theorem", fixture("verify_example1_blowup.json")], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["agrees"] is True and doc["all_static"] is True
        code, out, _ = run_cli(["verify-theorem", fixture("verify_example1_coarse.json")], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["agrees"] is True and doc["all_static"] is False

    def test_stratify(self, capsys):
        code, out, _ = run_cli(["stratify", fixture("stratify_binomial.json")], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["strata"] == "3"
        assert len(doc["cells"]) == 6


class TestInputErrors:
    def test_malformed_json_is_exit_two(self, capsys):
        code, _, err = run_cli(["jacobian", '{"vertices": '], capsys)
        assert code == 2
        assert "line" in err and "column" in err

    def test_schema_violation_points_at_path(self, capsys):
        code, _, err = run_cli(["jacobian", '{"vertices": "2", "edges": [["0"]]}'], capsys)
        assert code == 2
        assert "edges" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["jacobian", "no_such_file.json"], capsys)
        assert code == 2

    def test_domain_error_is_exit_two(self, capsys):
        code, _, err = run_cli(["jacobian", '{"vertices": "3", "edges": [["0","1"]]}'], capsys)
        assert code == 2  # disconnected graph

    @pytest.mark.parametrize(
        "cmd, doc, where",
        [
            ("check-static", {"chart": ORTHANT, "matrix": [[X, X], [X]]}, "presentation: ragged"),
            ("statify", {"chart": ORTHANT, "matrix": [[X, X], [X]]}, "presentation: ragged"),
            ("check-static", {"chart": ORTHANT, "matrix": [[[{"coeff": "1", "exp": ["1", "0", "0"]}]]]}, "presentation.matrix[0][0]"),
            ("check-static", {"chart": {"ambient_dim": "2", "rays": [["1", "0", "0"], ["0", "1"]]}, "matrix": [[X]]}, "presentation.chart"),
            (
                "verify-theorem",
                {
                    "presentation": {"chart": ORTHANT, "matrix": [[X]]},
                    "fan": {"support": ORTHANT, "cones": [{"rays": [["1", "0"], ["-1", "1"]]}]},
                },
                "fan: fan cone outside",
            ),
            ("tor-dim", {"presentation": {"chart": ORTHANT, "matrix": [[X]]}, "d": "-1"}, "d: "),
            (
                "verify-theorem",
                {
                    "presentation": {"chart": ORTHANT, "matrix": [[X]]},
                    "fan": {"support": ORTHANT, "cones": [{"rays": [["1", "0"], ["1", "1"]]}]},
                },
                "fan: fan does not cover its support",
            ),
            (
                "verify-theorem",
                {
                    "presentation": {"chart": ORTHANT4, "matrix": [[[{"coeff": "1", "exp": ["1", "0", "0", "0"]}]]]},
                    "fan": {"support": ORTHANT4, "cones": [{"rays": PYRAMID4}]},
                },
                "fan: fan does not cover its support",
            ),
            (
                "verify-theorem",
                {
                    "presentation": {"chart": ORTHANT3, "matrix": [[[{"coeff": "1", "exp": ["1", "0", "0"]}]]]},
                    "fan": {"support": ORTHANT3, "cones": [{"rays": POLYGON18}]},
                },
                "fan: fan does not cover its support",
            ),
            (
                "verify-theorem",
                {
                    "presentation": {"chart": ORTHANT, "matrix": [[X]]},
                    "fan": {"support": ORTHANT, "cones": [{"rays": [["1", "0"], ["1", "2"]]}, {"rays": [["2", "1"], ["0", "1"]]}]},
                },
                "fan: intersection of fan cones is not a common face",
            ),
            (
                "verify-theorem",
                {
                    "presentation": {"chart": ORTHANT, "matrix": [[X]]},
                    "fan": {"ambient_dim": "3", "support": ORTHANT, "cones": [{"rays": ORTHANT["rays"]}]},
                },
                "fan: ambient_dim 3 differs from the support's 2",
            ),
        ],
    )
    def test_schema_valid_but_malformed_is_exit_two(self, capsys, cmd, doc, where):
        code, out, err = run_cli([cmd, json.dumps(doc)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: INVALID_INPUT: {where}"), err

    def test_non_pointed_fan_support_is_exit_two(self, capsys):
        """The complete fan of Z^2: four quadrants on the whole plane."""
        axes = [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]]
        quadrants = [{"rays": [axes[i], axes[(i + 1) % 4]]} for i in range(4)]
        doc = {
            "presentation": {"chart": ORTHANT, "matrix": [[X]]},
            "fan": {"support": {"rays": axes}, "cones": quadrants},
        }
        code, out, err = run_cli(["verify-theorem", json.dumps(doc)], capsys)
        assert code == 2 and out == ""
        assert err == "error: UNSUPPORTED_SUPPORT: support must be pointed\n"

    def test_inline_json_accepted(self, capsys):
        code, out, _ = run_cli(["jacobian", '{"vertices": "2", "edges": [["0","1"],["0","1"]]}'], capsys)
        assert code == 0
        assert json.loads(out)["invariant_factors"] == ["2"]


class TestSchemas:
    def test_schema_flag_prints_valid_schema(self, capsys):
        """--schema prints SCHEMAS[cmd] in the bytes json.dumps gives it."""
        import jsonschema
        from statikit.cli import SCHEMAS

        for cmd in ["stratify", "statify", "check-static", "tor-dim", "verify-theorem", "jacobian", "chip-equiv", "firing-script"]:
            code, out, _ = run_cli([cmd, "--schema"], capsys)
            assert code == 0
            assert out == json.dumps(SCHEMAS[cmd], sort_keys=True, indent=2) + "\n", cmd
            doc = json.loads(out)
            assert doc.get("type") in ("object", "array")
            jsonschema.validators.validator_for(doc).check_schema(doc)

    def test_fixtures_validate_against_schemas(self, capsys):
        import jsonschema

        from statikit.cli import SCHEMAS

        for cmd, name in SCHEMA_FIXTURES:
            data = json.loads((FIXTURES / name).read_text())
            jsonschema.validate(data, SCHEMAS[cmd])

    def test_walker_agrees_with_jsonschema_on_mutants(self):
        """The CLI's schema walker accepts a mutated fixture exactly when
        jsonschema does, and on a single violation reports best_match's path
        and message."""
        import jsonschema

        from statikit.cli import SCHEMAS, schema_violation

        def nodes(doc, path=()):
            yield path, doc
            children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
            for key, child in children:
                yield from nodes(child, path + (key,))

        def mutate(doc, rng):
            """Apply one random mutation in place; the root is never replaced."""
            found = list(nodes(doc))
            kind = rng.choice(["drop", "swap", "pattern", "edge", "matrix"])
            if kind == "drop":
                targets = [node for _, node in found if isinstance(node, dict) and node]
                if targets:
                    node = rng.choice(targets)
                    del node[rng.choice(sorted(node))]
                return
            if kind in ("swap", "pattern"):
                targets = [path for path, node in found if isinstance(node, str)]
                values = [7, ["1"], []] if kind == "swap" else ["", "x", "1/2", "1.5", "--1", " 1", "1\n"]
            elif kind == "edge":
                targets = [path for path, _ in found if len(path) >= 2 and path[-2] == "edges"]
                values = [[], ["0", "1", "0"]]
            else:
                targets = [path for path, _ in found if path and path[-1] == "matrix"]
                values = [[]]
            if targets:
                path = rng.choice(targets)
                parent = doc
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = rng.choice(values)

        rng = random.Random(20261018)
        singles = 0
        for cmd, name in SCHEMA_FIXTURES:
            schema = SCHEMAS[cmd]
            validator = jsonschema.validators.validator_for(schema)(schema)
            text = (FIXTURES / name).read_text()
            for _ in range(60):
                doc = json.loads(text)
                for _ in range(rng.choice([1, 1, 2, 3])):
                    mutate(doc, rng)
                errors = list(validator.iter_errors(doc))
                violation = schema_violation(schema, doc)
                assert (violation is None) == (not errors), (cmd, doc)
                if len(errors) == 1:
                    best = jsonschema.exceptions.best_match(errors)
                    path = "$" + "".join(f"[{p!r}]" for p in best.absolute_path)
                    assert violation == (path, best.message)
                    singles += 1
        assert singles >= 150


class TestFlags:
    def test_audit_mode_records_second_resolution(self, capsys):
        code, out, _ = run_cli(["statify", fixture("example1.json"), "--audit"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["audit"] is not None
        assert doc["audit"]["fan_refines_second"] is True

    def test_fail_fast_accepted(self, capsys):
        code, out, _ = run_cli(["statify", fixture("example1.json"), "--fail-fast"], capsys)
        assert code == 0
        assert json.loads(out)["all_static"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["statify", "--audit", "INPUT"],
            ["--audit", "statify", "INPUT"],
            ["statify", "--fail-fast", "--audit", "INPUT"],
        ],
    )
    def test_options_anywhere_around_the_input(self, argv, capsys):
        argv = [fixture("example1.json") if a == "INPUT" else a for a in argv]
        code, out, _ = run_cli(argv, capsys)
        expected_code, expected, _ = run_cli(["statify", fixture("example1.json"), "--audit"], capsys)
        assert (code, out) == (expected_code, expected) == (0, expected)

    def test_rational_coefficients_roundtrip(self, capsys):
        job = {
            "chart": {"ambient_dim": "2", "rays": [["0", "1"], ["1", "0"]]},
            "matrix": [[[{"coeff": "1/2", "exp": ["1", "0"]}, {"coeff": "-3/4", "exp": ["0", "2"]}]]],
        }
        code, out, _ = run_cli(["check-static", json.dumps(job)], capsys)
        assert code in (0, 1)
        json.loads(out)


class TestOutputFile:
    def test_output_written_to_path(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(["jacobian", fixture("cycle5.json"), "--output", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text()) == {"invariant_factors": ["5"]}


class TestConsoleScript:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "statikit.cli", "jacobian", fixture("cycle5.json")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"invariant_factors": ["5"]}


class TestRoundTrips:
    def test_certificate_roundtrip_and_replay(self, capsys):
        from statikit import jsonio

        code, out, _ = run_cli(["statify", fixture("example1.json")], capsys)
        assert code == 0
        cert = jsonio.certificate_from_json(json.loads(out))
        assert all(cert.replay().values())

    def test_certificate_reemits_identically(self, capsys):
        from statikit import jsonio

        code, out, _ = run_cli(["statify", fixture("example1.json")], capsys)
        obj = json.loads(out)
        cert = jsonio.certificate_from_json(obj)
        # the blowup charts: x -> z0, y -> z0 z1 and x -> z0 z1, y -> z0
        assert [rep.substitution for rep in cert.charts] == [[(1, 1), (0, 1)], [(1, 1), (1, 0)]]
        assert jsonio.dumps(jsonio.certificate_to_json(cert, obj["input_sha256"])) == out
        code, out, _ = run_cli(["statify", fixture("example1.json"), "--audit"], capsys)
        obj = json.loads(out)
        assert obj["audit"] is not None
        cert = jsonio.certificate_from_json(obj)
        assert jsonio.dumps(jsonio.certificate_to_json(cert, obj["input_sha256"])) == out

    def test_replay_rejects_tampered_charts(self, capsys):
        from statikit import jsonio

        code, out, _ = run_cli(["statify", fixture("example1.json")], capsys)
        obj = json.loads(out)
        wrong_substitution = json.loads(out)
        wrong_substitution["charts"][0]["substitution"] = [["5", "0"], ["0", "7"]]
        wrong_presentation = json.loads(out)
        wrong_presentation["charts"][0]["presentation"] = obj["charts"][1]["presentation"]
        flipped_report = json.loads(out)
        flipped_report["charts"][0]["reports"][0]["vanishes"] = False
        assert jsonio.certificate_from_json(obj).replay()["charts_match"] is True
        for doc in (wrong_substitution, wrong_presentation, flipped_report):
            assert jsonio.certificate_from_json(doc).replay()["charts_match"] is False

    def test_failing_chart_keeps_its_witness(self):
        """A certificate of the coarse one-cone fan for coker(x, y): its chart is
        not static, and parsing keeps the witnesses, so it re-emits byte for byte
        and replays; an edited witness does not replay."""
        from statikit import jsonio
        from statikit.polyhedral import Fan
        from statikit.staticity import log_tor_dim_at_most
        from statikit.statify import ChartReport, StatificationCertificate, compute_statification

        pres = jsonio.presentation_from_json(json.loads((FIXTURES / "skyscraper.json").read_text()))
        honest = compute_statification(pres)
        cone = pres.chart.cone
        holds, reports = log_tor_dim_at_most(pres, 1)
        chart = ChartReport(cone=cone, substitution=[(1, 0), (0, 1)], presentation=pres, static=holds, reports=tuple(reports))
        cert = StatificationCertificate(pres, honest.kernel, honest.stratification, Fan(cone, [cone]), [chart])
        out = jsonio.dumps(jsonio.certificate_to_json(cert, "0" * 64))
        obj = json.loads(out)
        failing = [rep for rep in obj["charts"][0]["reports"] if "witness" in rep]
        assert obj["all_static"] is False and failing

        parsed = jsonio.certificate_from_json(obj)
        assert parsed.charts[0].reports == chart.reports
        assert jsonio.dumps(jsonio.certificate_to_json(parsed, "0" * 64)) == out
        # every bit replays as built; the failing chart rules out the refinement
        bits = {"kernel_matches": True, "stratification_matches": True, "fan_refines": False, "charts_match": True}
        assert parsed.replay() == cert.replay() == bits
        failing[0]["witness"]["vector"][0]["coeff"] = "7"
        assert jsonio.certificate_from_json(obj).replay()["charts_match"] is False

    def test_fail_fast_statify_of_a_non_static_input_replays(self, capsys):
        from statikit import is_static, jsonio
        from statikit.statify import compute_statification

        pres = jsonio.presentation_from_json(json.loads((FIXTURES / "skyscraper.json").read_text()))
        assert not is_static(pres)
        cert = compute_statification(pres, fail_fast=True)
        assert cert.all_static and all(cert.replay().values())
        code, out, _ = run_cli(["statify", fixture("skyscraper.json"), "--fail-fast"], capsys)
        assert code == 0
        assert all(jsonio.certificate_from_json(json.loads(out)).replay().values())

    def test_presentation_roundtrip(self):
        from statikit import jsonio

        data = json.loads((FIXTURES / "example1.json").read_text())
        pres = jsonio.presentation_from_json(data)
        assert jsonio.presentation_to_json(pres) == data

    def test_stratification_roundtrip(self, capsys):
        from statikit import jsonio

        code, out, _ = run_cli(["stratify", fixture("stratify_binomial.json")], capsys)
        doc = json.loads(out)
        strat = jsonio.stratification_from_json(doc)
        assert jsonio.stratification_to_json(strat) == doc

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("ambient_dim", "7", "certificate.stratification: ambient_dim 7 differs from the support's 2"),
            ("strata", "99", "certificate.stratification: strata 99 differs from the 3 distinct cell tags"),
        ],
    )
    def test_stratification_fields_must_match_the_cells(self, capsys, field, value, message):
        """A certificate's stratification with a wrong ambient_dim or strata
        count is invalid input, not a stratification that re-emits other bytes."""
        from statikit import jsonio
        from statikit.errors import InvalidInputError

        code, out, _ = run_cli(["statify", fixture("example1.json")], capsys)
        obj = json.loads(out)
        assert obj["stratification"]["ambient_dim"] == "2" and obj["stratification"]["strata"] == "3"
        obj["stratification"][field] = value
        with pytest.raises(InvalidInputError) as err:
            jsonio.certificate_from_json(obj)
        assert str(err.value) == message


class TestHelpText:
    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    def test_help_is_the_same_at_every_terminal_width(self, columns, monkeypatch, capsys):
        # in process the usage was formatted at import, under another width
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out == HELP
        with pytest.raises(SystemExit) as stop:
            main(["statify", "x", "--bogus"])
        assert stop.value.code == 2
        assert capsys.readouterr().err == USAGE + "statikit: error: unrecognized arguments: --bogus\n"

    @pytest.mark.parametrize("columns", ["40", "200"])
    def test_help_of_a_fresh_process(self, columns):
        proc = subprocess.run(
            [sys.executable, "-m", "statikit.cli", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "COLUMNS": columns},
        )
        assert (proc.returncode, proc.stdout) == (0, HELP)
