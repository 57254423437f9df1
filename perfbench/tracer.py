"""Per-layer self time, measured from outside the package.

The tracer wraps public names where callers look them up: every module of
``boostlink`` that binds a layer's public function gets its own wrapper
(``boostlink.cli.diffracted_reduced_type1``, the lorentz names inside
``photon`` and ``states``, ...), public classes of the object layers get
their methods and constructors wrapped on the class, and
``numpy.linalg.eigvalsh`` is wrapped on ``numpy.linalg``.  Private helpers
are never touched, so the metrics survive refactors that delete them; their
time lands in the public caller's self time.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of the spans it directly encloses.  Spans are folded into
per-key totals in memory as they close.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from types import FunctionType, ModuleType

import numpy

LAYERS = ("cli", "lorentz", "photon", "states", "quantum", "diffraction", "purification")

# layers whose public classes are small value objects built per point: wrap
# every public method and the constructor
OBJECT_LAYERS = ("lorentz", "photon", "states")

# (layer, public name) -> span key; other public functions use the layer name
KEYS = {
    ("cli", "build_parser"): "cli.parse",
    ("cli", "render_rows"): "cli.render",
    ("quantum", "DensityMatrix.__init__"): "quantum.validate",
    ("quantum", "trace_distance"): "quantum.measures",
    ("quantum", "negativity"): "quantum.measures",
    ("quantum", "purity"): "quantum.measures",
    ("quantum", "fidelity_to_pure"): "quantum.measures",
    ("quantum", "partial_trace"): "quantum.measures",
    ("diffraction", "diffracted_reduced_type1"): "diffraction.kernel",
    ("diffraction", "make_grid"): "diffraction.grid",
    ("diffraction", "normalized_weights"): "diffraction.weights",
    ("purification", "purify_round"): "purification.round",
}

EIGENSOLVE_KEY = "quantum.eigensolve"


def _node_evals(call: inspect.BoundArguments, result) -> dict:
    return {"diffraction.node_evals": 2 * call.arguments["grid"].theta.size}


def _rows(call: inspect.BoundArguments, result) -> dict:
    return {"cli.rows": len(call.arguments["rows"])}


def _capped_runs(call: inspect.BoundArguments, result) -> dict:
    return {"purification.capped_runs": int(len(result.rounds) - 1 >= call.arguments["max_rounds"])}


# span key or public name -> work counter, fed the call's bound arguments
COUNTERS = {
    "diffraction.kernel": _node_evals,
    "cli.render": _rows,
    "photons_required": _capped_runs,
}


class Tracer:
    """Installs span wrappers on ``boostlink`` and accumulates self time
    (seconds), call counts and work counts per key until ``remove``."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._open: list[float] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    # -- span accounting -------------------------------------------------

    def _span(self, fn, key, counter=None):
        open_spans = self._open
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter
        signature = inspect.signature(fn) if counter is not None else None

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = open_spans.pop()
                self_s[key] += duration - children
                calls[key] += 1
                if open_spans:
                    open_spans[-1] += duration
            if counter is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                self.counts.update(counter(call, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def _replace(self, owner, name, wrapped):
        self._undo.append((owner, name, inspect.getattr_static(owner, name)))
        setattr(owner, name, wrapped)

    # -- installation ----------------------------------------------------

    def install(self, package: str = "boostlink"):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if isinstance(mod, ModuleType) and (name == package or name.startswith(package + "."))
        }
        targets: dict[int, tuple[str, object]] = {}  # id(function) -> (key, counter)
        for layer in LAYERS:
            mod = modules.get(f"{package}.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, FunctionType):
                    key = KEYS.get((layer, name), layer)
                    targets[id(obj)] = (key, COUNTERS.get(key) or COUNTERS.get(name))
                elif isinstance(obj, type):
                    self._wrap_class(layer, obj)
        # rebind each public function in every module that imported it
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and id(obj) in targets:
                    key, counter = targets[id(obj)]
                    self._replace(mod, name, self._span(obj, key, counter))
        self._replace(numpy.linalg, "eigvalsh", self._span(numpy.linalg.eigvalsh, EIGENSOLVE_KEY))

    def _wrap_class(self, layer: str, cls: type):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            key = KEYS.get((layer, f"{cls.__name__}.{name}"))
            if key is None:
                if layer not in OBJECT_LAYERS:
                    continue
                key = layer
            if isinstance(raw, (classmethod, staticmethod)):
                self._replace(cls, name, type(raw)(self._span(raw.__func__, key)))
            elif isinstance(raw, FunctionType):
                self._replace(cls, name, self._span(raw, key))

    def remove(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
