"""JSON interchange for all public value types.

Every numeric leaf is a decimal string so arbitrary-precision integers
survive any JSON parser; booleans stay booleans. Serialization is canonical:
dictionaries are emitted with sorted keys and values in canonical order, so
equal values produce byte-identical documents.
"""

from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .chipfiring import Graph
from .errors import InvalidInputError
from .groebner import (
    GroebnerStratification,
    MarkedGB,
    ModuleVector,
    Poly,
    Submodule,
)
from .polyhedral import Cone, Fan, PLStratification
from .staticity import ModulePresentation, SmoothChart, TorReport
from .statify import ChartReport, StatificationCertificate


def _int_str(x):
    return str(int(x))


def _parse_int(s, where):
    try:
        return int(s)
    except (TypeError, ValueError):
        raise InvalidInputError(f"expected an integer string at {where}, got {s!r}")


def _build(where, factory, *args):
    """Call a constructor, reporting a ValueError as invalid input at where."""
    try:
        return factory(*args)
    except ValueError as exc:
        raise InvalidInputError(f"{where}: {exc}")


def _frac_str(x):
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _parse_frac(s, where):
    try:
        return Fraction(s)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InvalidInputError(f"expected a rational string at {where}, got {s!r}")


# -- cones, fans, stratifications ------------------------------------------------


def cone_to_json(cone):
    return {"rays": [[_int_str(x) for x in r] for r in cone.rays], "ambient_dim": _int_str(cone.ambient_dim)}


def cone_from_json(obj, ambient_dim=None, where="cone"):
    if not isinstance(obj, dict) or "rays" not in obj:
        raise InvalidInputError(f"{where}: expected an object with a 'rays' field")
    rays = [[_parse_int(x, where) for x in r] for r in obj["rays"]]
    if "ambient_dim" in obj:
        ambient_dim = _parse_int(obj["ambient_dim"], where)
    if ambient_dim is None:
        if not rays:
            raise InvalidInputError(f"{where}: ambient_dim required for the zero cone")
        ambient_dim = len(rays[0])
    return _build(where, Cone, ambient_dim, rays)


def fan_to_json(fan):
    return {
        "ambient_dim": _int_str(fan.ambient_dim),
        "support": cone_to_json(fan.support),
        "cones": [cone_to_json(c) for c in fan.cones],
    }


def fan_from_json(obj, where="fan"):
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{where}: expected an object")
    ambient = _parse_int(obj.get("ambient_dim"), where) if "ambient_dim" in obj else None
    support = cone_from_json(obj["support"], ambient, where + ".support")
    if ambient is not None and ambient != support.ambient_dim:
        raise InvalidInputError(f"{where}: ambient_dim {ambient} differs from the support's {support.ambient_dim}")
    cones = [cone_from_json(c, support.ambient_dim, where + ".cones") for c in obj.get("cones", [])]
    fan = _build(where, Fan, support, cones)
    _build(where, fan.validate)
    return fan


# -- polynomials, vectors, submodules ---------------------------------------------


def poly_to_json(p):
    return [{"coeff": _frac_str(c), "exp": [_int_str(x) for x in e]} for e, c in p.terms]


def poly_from_json(obj, nvars, where="poly"):
    if not isinstance(obj, list):
        raise InvalidInputError(f"{where}: expected a term list")
    terms = {}
    for i, t in enumerate(obj):
        exp = tuple(_parse_int(x, f"{where}[{i}].exp") for x in t["exp"])
        c = _parse_frac(t["coeff"], f"{where}[{i}].coeff")
        terms[exp] = terms.get(exp, Fraction(0)) + c
    return _build(where, Poly, nvars, terms)


def vector_to_json(v):
    out = []
    for (e, comp), c in v.terms:
        out.append({
            "coeff": _frac_str(c),
            "exp": [_int_str(x) for x in e],
            "comp": _int_str(comp + 1),
        })
    return out


def vector_from_json(obj, torus_rank, rank, where="vector"):
    if not isinstance(obj, list):
        raise InvalidInputError(f"{where}: expected a term list")
    terms = {}
    for i, t in enumerate(obj):
        exp = tuple(_parse_int(x, f"{where}[{i}].exp") for x in t["exp"])
        comp = _parse_int(t["comp"], f"{where}[{i}].comp") - 1
        c = _parse_frac(t["coeff"], f"{where}[{i}].coeff")
        terms[(exp, comp)] = terms.get((exp, comp), Fraction(0)) + c
    return _build(where, ModuleVector, torus_rank, rank, terms)


def submodule_to_json(m):
    return {
        "torus_rank": _int_str(m.torus_rank),
        "rank": _int_str(m.rank),
        "generators": [vector_to_json(g) for g in m.generators],
    }


def submodule_from_json(obj, where="submodule"):
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{where}: expected an object")
    torus = _parse_int(obj["torus_rank"], where)
    rank = _parse_int(obj["rank"], where)
    gens = [vector_from_json(g, torus, rank, f"{where}.generators[{i}]") for i, g in enumerate(obj.get("generators", []))]
    return _build(where, Submodule, torus, rank, gens)


def stratification_to_json(strat):
    """GroebnerStratification to canonical cell JSON."""
    cells = []
    for cone, tag in strat.cells:
        cells.append({
            "cone": cone_to_json(cone),
            "initial_module": [vector_to_json(v) for v in tag.vectors],
        })
    return {
        "ambient_dim": _int_str(strat.support.ambient_dim),
        "support": cone_to_json(strat.support),
        "torus_rank": _int_str(strat.module.torus_rank),
        "rank": _int_str(strat.module.rank),
        "kernel": submodule_to_json(strat.module),
        "cells": cells,
        "strata": _int_str(len(strat.strata())),
    }


def stratification_from_json(obj, where="stratification"):
    torus = _parse_int(obj["torus_rank"], where)
    rank = _parse_int(obj["rank"], where)
    support = cone_from_json(obj["support"], None, where + ".support")
    ambient = _parse_int(obj["ambient_dim"], where) if "ambient_dim" in obj else support.ambient_dim
    if ambient != support.ambient_dim:
        raise InvalidInputError(f"{where}: ambient_dim {ambient} differs from the support's {support.ambient_dim}")
    module = submodule_from_json(obj["kernel"], where + ".kernel")
    cells = []
    for i, cell in enumerate(obj["cells"]):
        cone = cone_from_json(cell["cone"], support.ambient_dim, f"{where}.cells[{i}].cone")
        vectors = [
            vector_from_json(v, torus, rank, f"{where}.cells[{i}].initial_module[{j}]")
            for j, v in enumerate(cell["initial_module"])
        ]
        cells.append((cone, MarkedGB.from_vectors(torus, rank, vectors)))
    strat = PLStratification(support, cells, _validated=True)
    tags = len(strat.strata())
    strata = _parse_int(obj["strata"], where) if "strata" in obj else tags
    if strata != tags:
        raise InvalidInputError(f"{where}: strata {strata} differs from the {tags} distinct cell tags")
    return GroebnerStratification(module, support, strat)


# -- charts, presentations, reports -----------------------------------------------


def presentation_to_json(p):
    return {
        "chart": cone_to_json(p.chart.cone),
        "matrix": [[poly_to_json(entry) for entry in row] for row in p.rows],
    }


def presentation_from_json(obj, where="presentation"):
    if not isinstance(obj, dict) or "chart" not in obj or "matrix" not in obj:
        raise InvalidInputError(f"{where}: expected an object with 'chart' and 'matrix'")
    cone = cone_from_json(obj["chart"], None, where + ".chart")
    chart = SmoothChart(cone)
    rows = []
    for i, row in enumerate(obj["matrix"]):
        rows.append([poly_from_json(p, chart.nvars, f"{where}.matrix[{i}][{j}]") for j, p in enumerate(row)])
    return _build(where, ModulePresentation, chart, rows)


def tor_report_to_json(rep):
    out = {
        "face": [_int_str(v) for v in rep.face],
        "degree": _int_str(rep.degree),
        "vanishes": rep.vanishes,
    }
    if rep.witness is not None:
        out["witness"] = {
            "wedge_basis": [[_int_str(v) for v in w] for w in rep.witness["wedge_basis"]],
            "vector": vector_to_json(rep.witness["vector"]),
        }
    return out


def tor_report_from_json(obj, presentation, where="report"):
    """A TorReport on the chart of `presentation`, witness included."""
    witness = obj.get("witness")
    if witness is not None:
        wedges = [tuple(_parse_int(v, where + ".witness.wedge_basis") for v in w) for w in witness["wedge_basis"]]
        rank = presentation.nrows * len(wedges)
        vector = vector_from_json(witness["vector"], presentation.chart.nvars, rank, where + ".witness.vector")
        witness = {"wedge_basis": wedges, "vector": vector}
    face = tuple(_parse_int(v, where + ".face") for v in obj["face"])
    return TorReport(face=face, degree=_parse_int(obj["degree"], where + ".degree"), vanishes=obj["vanishes"], witness=witness)


# -- graphs -----------------------------------------------------------------------


def graph_from_json(obj, where="graph"):
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise InvalidInputError(f"{where}: expected an object with 'vertices' and 'edges'")
    n = _parse_int(obj["vertices"], where)
    edges = [(_parse_int(u, where + ".edges"), _parse_int(v, where + ".edges")) for u, v in obj.get("edges", [])]
    return _build(where, Graph, n, edges)


def divisor_from_json(obj, n, where="divisor"):
    if not isinstance(obj, list) or len(obj) != n:
        raise InvalidInputError(f"{where}: expected an integer array of length {n}")
    return [_parse_int(x, where) for x in obj]


# -- certificates ------------------------------------------------------------------

CERT_FORMAT = "statikit-cert/1"


def certificate_to_json(cert, input_sha256):
    charts = []
    for rep in cert.charts:
        charts.append({
            "cone": cone_to_json(rep.cone),
            "substitution": [[_int_str(x) for x in row] for row in rep.substitution],
            "presentation": presentation_to_json(rep.presentation),
            "static": rep.static,
            "reports": [tor_report_to_json(r) for r in rep.reports],
        })
    audit = None
    if cert.audit is not None:
        audit = {
            "second_kernel": submodule_to_json(cert.audit["second_kernel"]),
            "fan_refines_second": cert.audit["fan_refines_second"],
        }
    return {
        "format": CERT_FORMAT,
        "input_sha256": input_sha256,
        "presentation": presentation_to_json(cert.presentation),
        "kernel": submodule_to_json(cert.kernel),
        "stratification": stratification_to_json(cert.stratification),
        "fan": fan_to_json(cert.fan),
        "charts": charts,
        "all_static": cert.all_static,
        "audit": audit,
    }


def certificate_from_json(obj, where="certificate"):
    if obj.get("format") != CERT_FORMAT:
        raise InvalidInputError(f"{where}: unknown certificate format {obj.get('format')!r}")
    presentation = presentation_from_json(obj["presentation"], where + ".presentation")
    kernel = submodule_from_json(obj["kernel"], where + ".kernel")
    strat = stratification_from_json(obj["stratification"], where + ".stratification")
    fan = fan_from_json(obj["fan"], where + ".fan")
    charts = []
    for i, ch in enumerate(obj["charts"]):
        cone = cone_from_json(ch["cone"], fan.ambient_dim, f"{where}.charts[{i}].cone")
        subst = [tuple(_parse_int(x, f"{where}.charts[{i}].substitution") for x in row) for row in ch["substitution"]]
        pres = presentation_from_json(ch["presentation"], f"{where}.charts[{i}].presentation")
        reports = [tor_report_from_json(rep, pres, f"{where}.charts[{i}].reports[{j}]") for j, rep in enumerate(ch["reports"])]
        charts.append(ChartReport(cone=cone, substitution=subst, presentation=pres, static=ch["static"], reports=tuple(reports)))
    audit = obj.get("audit")
    if audit is not None:
        audit = {
            "second_kernel": submodule_from_json(audit["second_kernel"], where + ".audit.second_kernel"),
            "fan_refines_second": audit["fan_refines_second"],
        }
    return StatificationCertificate(presentation, kernel, strat, fan, charts, audit)


# -- the canonical emitter ---------------------------------------------------------


def dumps(obj):
    """Canonical JSON text: sorted keys, two-space indent, ASCII, trailing newline.

    The bytes are those of ``json.dumps(obj, sort_keys=True, indent=2) + "\n"``,
    without the pure-Python generators that ``indent`` selects there: strings
    go straight to json's C string encoder. Only str, bool, None, int, dicts
    with str keys, lists and tuples are emitted; anything else, a float
    included, is a TypeError.
    """
    out = []
    _emit("", obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _emit(head, obj, out, nl):
    """Append head and the text of obj, whose lines start with nl.

    head is joined to obj's first fragment, so the separator, the key and an
    atom or opening bracket make one fragment: few fragments are alive at once.
    """
    if isinstance(obj, str):
        out.append(head + encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        out.append(head + ("null" if obj is None else "true" if obj else "false"))
    elif isinstance(obj, int):
        out.append(head + int.__repr__(obj))
    elif isinstance(obj, dict):
        inner = nl + "  "
        sep = head + "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            _emit(sep + encode_basestring_ascii(key) + ": ", value, out, inner)
            sep = "," + inner
        out.append(nl + "}" if obj else head + "{}")
    elif isinstance(obj, (list, tuple)):
        inner = nl + "  "
        sep = head + "[" + inner
        for value in obj:
            _emit(sep, value, out, inner)
            sep = "," + inner
        out.append(nl + "]" if obj else head + "[]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
