"""Per-layer tracing for the benchmark, installed from outside the program.

Every public function and public method of each ``tropdisk`` module is
replaced, for the length of one traced pass, by a wrapper that records a span
(layer, start, end, parent span).  Spans are kept in flat in-memory arrays and
written out when the benchmark ends; a layer's self time is the sum over its
spans of the span's duration minus the part covered by its child spans.

Modules bind each other's functions with ``from .geometry import det2``, so a
wrapper is installed in every ``tropdisk`` namespace that holds the original
object, not only in the module that defines it.  Methods are wrapped on their
class, which every caller shares.

Three hooks only count and record no span: ``Vec`` and ``fractions.Fraction``
constructions (the exact kernel's allocation rate) and ``DiskGraph``
constructions (the search's candidate graphs).
"""

from __future__ import annotations

import fractions
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

# layer name -> module whose public functions and methods belong to it
LAYER_MODULES = {
    "geometry": "tropdisk.geometry",
    "diagram": "tropdisk.diagram",
    "lagrangian": "tropdisk.lagrangian",
    "enumerate": "tropdisk.enumerate",
    "multiplicity": "tropdisk.multiplicity",
    "classify": "tropdisk.classify",
    "diskgraph": "tropdisk.diskgraph",
    "fixtures": "tropdisk.fixtures",
    "cli": "tropdisk.cli",
}

# (module, qualified name) -> layer, overriding the module's own layer
LAYER_OVERRIDES = {
    ("tropdisk.enumerate", "rigidity_dimension"): "enumerate.rigidity",
    # the search's lookups against the Lagrangian graph
    ("tropdisk.enumerate", "_Tracer._lambda_hit"): "lagrangian",
    ("tropdisk.enumerate", "_Tracer._leg_clear"): "lagrangian",
}

LAYERS = tuple(LAYER_MODULES) + ("enumerate.rigidity",)

# warnings that enumerate_disks emits for a unique graph it does not count
DROP_PREFIXES = ("dropped ", "graph with ")


def _namespaces():
    """Every loaded ``tropdisk`` module, each of which may bind a wrapped name."""
    return [m for n, m in sys.modules.items() if n == "tropdisk" or n.startswith("tropdisk.")]


class Tracer:
    """Records spans and counts while installed; restores everything on removal."""

    def __init__(self):
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.layer = array("B")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self._restore = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {}
        for layer, modname in LAYER_MODULES.items():
            try:
                modules[layer] = importlib.import_module(modname)
            except ImportError:
                continue  # a layer that no longer exists reports zeros
        namespaces = _namespaces()
        for layer, module in modules.items():
            modname = module.__name__
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    own_layer = LAYER_OVERRIDES.get((modname, name), layer)
                    self._wrap_function(namespaces, obj, self._span(own_layer, obj))
                elif inspect.isclass(obj):
                    self._wrap_class(modname, layer, obj)
        self._install_counters(namespaces)

    def remove(self) -> None:
        for restore in reversed(self._restore):
            restore()
        self._restore.clear()

    def _wrap_function(self, namespaces, original, wrapper) -> None:
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, name, wrapper)
                    self._restore.append(lambda ns=ns, n=name: setattr(ns, n, original))

    def _wrap_class(self, modname, default_layer, cls) -> None:
        for name, raw in list(vars(cls).items()):
            qualname = f"{cls.__name__}.{name}"
            layer = LAYER_OVERRIDES.get((modname, qualname))
            if layer is None:
                if name.startswith("_") or cls.__name__.startswith("_"):
                    continue
                layer = default_layer
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._span(layer, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._span(layer, raw)
            else:
                continue
            setattr(cls, name, wrapped)
            self._restore.append(lambda c=cls, n=name, r=raw: setattr(c, n, r))

    def _span(self, layer_name, fn):
        layer_id = self.layer_ids[layer_name]
        layers, parents, starts, ends = self.layer, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            layers.append(layer_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _install_counters(self, namespaces) -> None:
        counts = self.counts
        self._count_calls(fractions.Fraction, "__new__", "geometry.fraction_new")
        geometry = sys.modules.get("tropdisk.geometry")
        if geometry is not None:
            self._count_calls(geometry.Vec, "__init__", "geometry.vec_new")
        diskgraph = sys.modules.get("tropdisk.diskgraph")
        if diskgraph is not None:
            self._count_calls(diskgraph.DiskGraph, "__post_init__", "enumerate.candidates")
        enumerate_mod = sys.modules.get("tropdisk.enumerate")
        if enumerate_mod is None:
            return
        # enumerate_disks is already span-wrapped in every namespace; wrap it
        # once more there to read the counted and dropped graphs off its result
        spanned = enumerate_mod.enumerate_disks

        def enumerate_disks(*args, **kwargs):
            result = spanned(*args, **kwargs)
            counts["enumerate.counted"] += len(result.graphs)
            counts["enumerate.dropped"] += sum(
                1 for w in result.warnings if w.startswith(DROP_PREFIXES))
            return result

        self._wrap_function(namespaces, spanned, enumerate_disks)

    def _count_calls(self, cls, name, key) -> None:
        raw = vars(cls)[name]
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(cls, name, staticmethod(counted) if static else counted)
        self._restore.append(lambda: setattr(cls, name, raw))

    # -- results --------------------------------------------------------------

    def self_times(self):
        """(calls per layer, self seconds per layer) over all recorded spans."""
        n = len(self.start)
        covered = array("d", bytes(8 * n))
        starts, ends, parents = self.start, self.end, self.parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        for i in range(n):
            layer = self.layer[i]
            calls[layer] += 1
            self_s[layer] += ends[i] - starts[i] - covered[i]
        return (dict(zip(LAYERS, calls)), dict(zip(LAYERS, self_s)))

    def metrics(self):
        calls, self_s = self.self_times()
        c = self.counts
        candidates = c["enumerate.candidates"]
        counted = c["enumerate.counted"]
        unique = counted + c["enumerate.dropped"]
        out = {}
        for layer in LAYERS:
            if layer != "cli":
                out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_s"] = (self_s[layer], "s")
        out["geometry.vec_new"] = (c["geometry.vec_new"], "count")
        out["geometry.fraction_new"] = (c["geometry.fraction_new"], "count")
        out["enumerate.candidates"] = (candidates, "count")
        out["enumerate.unique"] = (unique, "count")
        out["enumerate.counted"] = (counted, "count")
        out["enumerate.dedup_ratio"] = (unique / candidates if candidates else 0.0, "ratio")
        out["enumerate.rigid_ratio"] = (counted / unique if unique else 0.0, "ratio")
        return out

    def write(self, path) -> None:
        """Write every span: a JSON header line, then the raw column arrays."""
        header = {"layers": list(LAYERS), "spans": len(self.start),
                  "columns": [["layer", "B"], ["parent", "i"],
                              ["start", "d"], ["end", "d"]],
                  "byteorder": sys.byteorder, "clock": "time.perf_counter"}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for column in (self.layer, self.parent, self.start, self.end):
                column.tofile(fh)
