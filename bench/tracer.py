"""Outside-in tracer: wraps statikit's public functions from the benchmark.

A public module-level function of a layer module is the span
``<module>.<function>``. ``install`` wraps the functions whose spans it is
asked for; wrapping every public function, down to the term-order keys
called a million times, cost about 35% on Example 2. A wrapper replaces the
function in every layer namespace that bound it, because ``staticity``,
``statify`` and ``polyhedral`` import their kernels by name and a missed
binding would silently undercount. These spans group several functions or
name a stage:

- ``jsonio.parse``: the CLI's ``json.loads`` and every ``jsonio.*_from_json``;
- ``jsonio.emit``: every ``jsonio.*_to_json`` and ``jsonio.dumps``;
- ``cli.schema_validate``: the CLI's ``jsonschema.validate``;
- ``statify.kernel``, ``statify.stratify``, ``statify.smooth_fan``,
  ``statify.tor``: the statification stages, i.e. ``ModulePresentation.kernel``
  and the ``statify`` bindings of ``groebner_stratification``,
  ``stratification_to_smooth_fan`` and ``log_tor_dim_at_most``.

A span nested directly in a span of the same name is folded into it, so a
group counts its outermost calls. Self time is a span's duration minus the
durations of its child spans.
"""

import importlib
import inspect
import json
from time import perf_counter

import jsonschema

LAYERS = ("cli", "jsonio", "statify", "staticity", "groebner", "polyhedral", "linalg", "chipfiring")

STAGES = {
    "groebner_stratification": "statify.stratify",
    "stratification_to_smooth_fan": "statify.smooth_fan",
    "log_tor_dim_at_most": "statify.tor",
}


class _Proxy:
    """A module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, module, **overrides):
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Span statistics and work counters, recorded only while ``active``."""

    def __init__(self):
        self.active = False
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.counts = {}
        self._stack = []  # open spans as [name, child_s]

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def wrap(self, name, fn, on_result=None):
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat = self.spans.setdefault(name, [0, 0.0, 0.0])
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def snapshot(self):
        return {"spans": {k: list(v) for k, v in sorted(self.spans.items())}, "counts": dict(sorted(self.counts.items()))}


def _span_name(layer, attr):
    if layer == "jsonio":
        if attr.endswith("_from_json"):
            return "jsonio.parse"
        if attr.endswith("_to_json") or attr == "dumps":
            return "jsonio.emit"
    return f"{layer}.{attr}"


def install(tracer, names):
    """Wrap, in place, the public functions whose span is in ``names``; the
    stage spans and the CLI's ``json.loads`` and ``jsonschema.validate`` are
    wrapped always."""
    modules = {layer: importlib.import_module(f"statikit.{layer}") for layer in LAYERS}
    namespaces = list(modules.values()) + [importlib.import_module("statikit")]

    hooks = {
        "groebner.normal_form": lambda r: None if r else tracer.count("groebner.normal_form.zero"),
        "groebner.groebner_stratification": lambda r: tracer.count("groebner.cells", len(r.cells)),
        "statify.smooth_fan": lambda fan: tracer.count("statify.charts", len(fan.max_cones)),
    }
    wrappers = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                name = _span_name(layer, attr)
                if name in names:
                    wrappers[obj] = tracer.wrap(name, obj, hooks.get(name))
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(ns, attr, wrappers[obj])

    statify = modules["statify"]
    for attr, stage in STAGES.items():
        setattr(statify, attr, tracer.wrap(stage, getattr(statify, attr), hooks.get(stage)))
    presentation = modules["staticity"].ModulePresentation
    presentation.kernel = tracer.wrap("statify.kernel", presentation.kernel)

    cli = modules["cli"]
    cli.json = _Proxy(json, loads=tracer.wrap("jsonio.parse", json.loads))
    cli.jsonschema = _Proxy(jsonschema, validate=tracer.wrap("cli.schema_validate", jsonschema.validate))
