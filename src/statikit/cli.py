"""Batch command-line front end over the JSON interchange formats.

Exit codes: 0 success, 1 mathematical negative (not static, not equivalent,
criterion violated), 2 malformed or schema-invalid input. Output is
canonical JSON; identical inputs produce byte-identical outputs.
"""

import argparse
import functools
import json
import re
import sys

from . import jsonio
from .chipfiring import (
    firing_script,
    jacobian_group,
    reduced_divisor,
)
from .errors import InvalidInputError, StatikitError
from .groebner import groebner_stratification
from .staticity import is_log_flat, log_tor_dim_at_most
from .statify import compute_statification, input_digest, verify_theorem_instance

INT_STR = {"type": "string", "pattern": "^-?[0-9]+$"}
FRAC_STR = {"type": "string", "pattern": "^-?[0-9]+(/[0-9]+)?$"}
POINT = {"type": "array", "items": INT_STR}
CONE = {
    "type": "object",
    "properties": {"rays": {"type": "array", "items": POINT}, "ambient_dim": INT_STR},
    "required": ["rays"],
}
FAN = {
    "type": "object",
    "properties": {"ambient_dim": INT_STR, "support": CONE, "cones": {"type": "array", "items": CONE}},
    "required": ["support", "cones"],
}
POLY = {
    "type": "array",
    "items": {
        "type": "object",
        "properties": {"coeff": FRAC_STR, "exp": POINT},
        "required": ["coeff", "exp"],
    },
}
VECTOR = {
    "type": "array",
    "items": {
        "type": "object",
        "properties": {"coeff": FRAC_STR, "exp": POINT, "comp": INT_STR},
        "required": ["coeff", "exp", "comp"],
    },
}
SUBMODULE = {
    "type": "object",
    "properties": {
        "torus_rank": INT_STR,
        "rank": INT_STR,
        "generators": {"type": "array", "items": VECTOR},
    },
    "required": ["torus_rank", "rank", "generators"],
}
PRESENTATION = {
    "type": "object",
    "properties": {
        "chart": CONE,
        "matrix": {"type": "array", "items": {"type": "array", "items": POLY}, "minItems": 1},
    },
    "required": ["chart", "matrix"],
}
GRAPH = {
    "type": "object",
    "properties": {
        "vertices": INT_STR,
        "edges": {"type": "array", "items": {"type": "array", "items": INT_STR, "minItems": 2, "maxItems": 2}},
    },
    "required": ["vertices", "edges"],
}
DIVISOR = {"type": "array", "items": INT_STR}
DIVISOR_PAIR = {
    "type": "object",
    "properties": {"graph": GRAPH, "d1": DIVISOR, "d2": DIVISOR},
    "required": ["graph", "d1", "d2"],
}

SCHEMAS = {
    "stratify": {
        "type": "object",
        "properties": {"submodule": SUBMODULE, "support": CONE},
        "required": ["submodule", "support"],
    },
    "statify": PRESENTATION,
    "check-static": PRESENTATION,
    "tor-dim": {
        "type": "object",
        "properties": {"presentation": PRESENTATION, "d": INT_STR},
        "required": ["presentation", "d"],
    },
    "verify-theorem": {
        "type": "object",
        "properties": {"presentation": PRESENTATION, "fan": FAN},
        "required": ["presentation", "fan"],
    },
    "jacobian": GRAPH,
    "chip-equiv": DIVISOR_PAIR,
    "firing-script": DIVISOR_PAIR,
}


_TYPES = {"object": dict, "array": list, "string": str}
_regex = functools.lru_cache(maxsize=None)(re.compile)


def schema_violation(schema, value):
    """The first violation of schema by value in document order, as a
    (path, message) pair, or None.

    Covers the keywords SCHEMAS uses, with jsonschema's messages.
    """
    found = _violation(schema, value)
    if found is None:
        return None
    keys, message = found
    return "$" + "".join(f"[{key!r}]" for key in reversed(keys)), message


def _violation(schema, value):
    """The first violation as (keys from it up to value, message), or None;
    the path is spelled out only for the violation that is reported."""
    kind = schema["type"]
    if not isinstance(value, _TYPES[kind]):
        return [], f"{value!r} is not of type {kind!r}"
    if kind == "string":
        pattern = schema.get("pattern")
        if pattern is None or _regex(pattern).search(value):
            return None
        return [], f"{value!r} does not match {pattern!r}"
    if kind == "array":
        if len(value) < schema.get("minItems", 0):
            return [], f"{value!r} " + ("should be non-empty" if schema["minItems"] == 1 else "is too short")
        if len(value) > schema.get("maxItems", len(value)):
            return [], f"{value!r} is too long"
        items = schema.get("items")
        children = enumerate(value) if items else ()
    else:
        for key in schema.get("required", ()):
            if key not in value:
                return [], f"{key!r} is a required property"
        properties = schema.get("properties", {})
        children = value.items()
    for key, item in children:
        sub = items if kind == "array" else properties.get(key)
        found = sub and _violation(sub, item)
        if found:
            found[0].append(key)
            return found
    return None


def _read_input(source):
    if source == "-":
        return sys.stdin.read()
    if source.lstrip().startswith(("{", "[")):
        return source
    with open(source, "r", encoding="utf-8") as fh:
        return fh.read()


def _run_stratify(data, args):
    module = jsonio.submodule_from_json(data["submodule"])
    support = jsonio.cone_from_json(data["support"], module.torus_rank, "support")
    strat = groebner_stratification(module, support)
    return 0, jsonio.stratification_to_json(strat)


def _run_statify(data, args):
    presentation = jsonio.presentation_from_json(data)
    cert = compute_statification(presentation, audit=args.audit, fail_fast=args.fail_fast)
    payload = jsonio.certificate_to_json(cert, input_digest(data))
    return (0 if cert.all_static else 1), payload


def _run_check_static(data, args):
    presentation = jsonio.presentation_from_json(data)
    static, reports = log_tor_dim_at_most(presentation, 1)
    log_flat = is_log_flat(presentation)
    payload = {
        "static": static,
        "log_flat": log_flat,
        "reports": [jsonio.tor_report_to_json(r) for r in reports],
    }
    return (0 if static else 1), payload


def _run_tor_dim(data, args):
    presentation = jsonio.presentation_from_json(data["presentation"])
    d = int(data["d"])
    if d < 0:
        raise InvalidInputError(f"d: log Tor dimension bound must be nonnegative, got {d}")
    holds, reports = log_tor_dim_at_most(presentation, d)
    payload = {
        "d": str(d),
        "holds": holds,
        "reports": [jsonio.tor_report_to_json(r) for r in reports],
    }
    return (0 if holds else 1), payload


def _run_verify_theorem(data, args):
    presentation = jsonio.presentation_from_json(data["presentation"])
    fan = jsonio.fan_from_json(data["fan"])
    check = verify_theorem_instance(presentation, fan)
    payload = {
        "fan_refines_stratification": check.fan_refines_stratification,
        "all_static": check.all_static,
        "agrees": check.agrees,
        "charts": [
            {"cone": jsonio.cone_to_json(cone), "static": static}
            for cone, static in check.charts
        ],
    }
    return (0 if check.agrees else 1), payload


def _run_jacobian(data, args):
    graph = jsonio.graph_from_json(data)
    factors = jacobian_group(graph)
    return 0, {"invariant_factors": [str(f) for f in factors]}


def _run_chip_equiv(data, args):
    graph = jsonio.graph_from_json(data["graph"])
    d1 = jsonio.divisor_from_json(data["d1"], graph.n, "d1")
    d2 = jsonio.divisor_from_json(data["d2"], graph.n, "d2")
    r1 = reduced_divisor(graph, d1)
    r2 = reduced_divisor(graph, d2)
    # Firing keeps the degree, so divisors of unequal degree reduce apart.
    eq = r1 == r2
    payload = {
        "equivalent": eq,
        "reduced_d1": [str(x) for x in r1],
        "reduced_d2": [str(x) for x in r2],
    }
    return (0 if eq else 1), payload


def _run_firing_script(data, args):
    graph = jsonio.graph_from_json(data["graph"])
    d1 = jsonio.divisor_from_json(data["d1"], graph.n, "d1")
    d2 = jsonio.divisor_from_json(data["d2"], graph.n, "d2")
    script = firing_script(graph, d1, d2)
    payload = {"script": None if script is None else [str(x) for x in script]}
    return (0 if script is not None else 1), payload


RUNNERS = {
    "stratify": _run_stratify,
    "statify": _run_statify,
    "check-static": _run_check_static,
    "tor-dim": _run_tor_dim,
    "verify-theorem": _run_verify_theorem,
    "jacobian": _run_jacobian,
    "chip-equiv": _run_chip_equiv,
    "firing-script": _run_firing_script,
}


# A fixed width (the default on an 80-column terminal) keeps the help the same
# on every terminal, so the usage string can be formatted once, below.
PARSER = argparse.ArgumentParser(
    prog="statikit",
    description="Exact Groebner stratifications, staticity certificates, and chip firing.",
    formatter_class=lambda prog: argparse.HelpFormatter(prog, width=78),
)
PARSER.add_argument("command", choices=RUNNERS)
PARSER.add_argument("input", nargs="?", help="input path, '-' for stdin, or inline JSON")
PARSER.add_argument("--output", help="write the JSON result to this path")
PARSER.add_argument("--schema", action="store_true", help="print the input schema and exit")
PARSER.add_argument("--audit", action="store_true", help="statify: run the second-resolution audit")
PARSER.add_argument("--fail-fast", action="store_true", help="statify: stop at the first non-static chart")
# parse_intermixed_args formats the usage on every call while it is unset
PARSER.usage = PARSER.format_usage().removeprefix("usage: ")


def main(argv=None):
    args = PARSER.parse_intermixed_args(argv)
    if args.schema:
        sys.stdout.write(jsonio.dumps(SCHEMAS[args.command]))
        return 0
    if args.input is None:
        sys.stderr.write("error: an input document is required (or use --schema)\n")
        return 2
    try:
        text = _read_input(args.input)
    except OSError as exc:
        sys.stderr.write(f"error: cannot read input: {exc}\n")
        return 2
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"error: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}\n")
        return 2
    violation = schema_violation(SCHEMAS[args.command], data)
    if violation is not None:
        path, message = violation
        sys.stderr.write(f"error: schema violation at {path}: {message}\n")
        return 2
    try:
        code, payload = RUNNERS[args.command](data, args)
    except StatikitError as exc:
        sys.stderr.write(f"error: {exc.code}: {exc}\n")
        return 2
    out = jsonio.dumps(payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
