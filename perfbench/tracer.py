"""Layer spans and work counters recorded from outside the library.

``Tracer.install`` replaces every public function of the chordenum layer
modules at every module-level name that binds it, ``from ... import``
bindings included, plus a few named methods.  A call that enters a layer
from another layer (or from the benchmark) opens a span with a name,
start, end, parent span and request id; a call that stays inside its
layer is only counted, so that per-cell helpers do not flood the trace.
Counters are computed from arguments and return values.  ``uninstall``
puts every original object back.

Self time of a span is its duration minus the time covered by its child
spans; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

PACKAGE = "chordenum"
LAYERS = ("labelled", "symmetry", "reflection", "series", "oracle", "diagram", "octahedron", "cli")
ROOT = "bench"

# Private names and methods that are wrapped as well, with the layer they
# belong to.  ``_emit`` is where every command writes its output.
EXTRA_FUNCTIONS = {"cli": ("_emit",)}
METHODS = {
    "series": {"TruncatedSeries": ("__mul__", "__rmul__", "exp")},
    "octahedron": {"HamCycle": ("canonical",)},
}

# Per-cell kernels, left unwrapped at the binding in their own module (the
# only place they are called from).  A wrapper there costs about 0.8 us per
# table cell, a quarter of a rows-200 pass; the cells are counted from the
# return values of the column builders instead.
KERNELS = {"symmetry.predicted_cell"}

# Functions whose inclusive time is kept even for calls inside their layer.
TIMED = {
    "diagram.classify_pairing",
    "diagram.canonical_pairing_code",
    "oracle.full_sweep",
    "octahedron.count_cycles",
    "octahedron.cycle_to_diagram",
    "octahedron.HamCycle.canonical",
    "series.TruncatedSeries.__mul__",
    "cli.render_sequence",
    "cli._emit",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


class _Frame:
    __slots__ = ("span_id", "layer", "start", "child")

    def __init__(self, span_id, layer, start):
        self.span_id = span_id
        self.layer = layer
        self.start = start
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.spans = []  # (span id, parent id, request id, layer, name, start, end)
        self.calls = {}  # qualified function name -> calls
        self.inclusive = {}  # qualified function name -> seconds, TIMED only
        self.layer_calls = {layer: 0 for layer in (ROOT,) + LAYERS}
        self.layer_self = {layer: 0.0 for layer in (ROOT,) + LAYERS}
        self.counters = {
            "symmetry.column_builds": 0,
            "symmetry.cells_built": 0,
            "reflection.mirror_builds": 0,
            "reflection.mirror_cells": 0,
            "oracle.matchings": 0,
            "octahedron.cycles": 0,
        }
        self.columns = set()  # distinct (family, d, m_max)
        self._stack = [_Frame(0, None, 0.0)]
        self._next_id = 1
        self._request = None
        self._saved = []  # (owner, attribute name, original object)
        self._observers = {
            "symmetry.loopless_sector_counts": self._loopless_column,
            "symmetry.simple_sector_counts": self._simple_column,
            "reflection.build_mirror_tables": self._mirror,
            "oracle.full_sweep": self._sweep,
            "octahedron.count_cycles": self._cycles,
        }

    # -- counters from arguments and return values --------------------

    def _column(self, family, args, kwargs, cells):
        d, m_max = _arg(args, kwargs, 0, "d"), _arg(args, kwargs, 1, "m_max")
        self.counters["symmetry.column_builds"] += 1
        self.counters["symmetry.cells_built"] += cells
        self.columns.add((family, d, m_max))

    def _loopless_column(self, args, kwargs, result):
        self._column("loopless", args, kwargs, len(result))

    def _simple_column(self, args, kwargs, result):
        cells = len(result.by_diameter) if result.by_diameter is not None else len(result.totals)
        self._column("simple", args, kwargs, cells)

    def _mirror(self, args, kwargs, result):
        self.counters["reflection.mirror_builds"] += 1
        self.counters["reflection.mirror_cells"] += len(result.counts) + len(result.end_chord)

    def _sweep(self, args, kwargs, result):
        n = _arg(args, kwargs, 0, "n")
        self.counters["oracle.matchings"] += _double_factorial(2 * n - 1)

    def _cycles(self, args, kwargs, result):
        self.counters["octahedron.cycles"] += result[0]

    # -- spans ---------------------------------------------------------

    def _enter(self, layer, name):
        frame = _Frame(self._next_id, layer, perf_counter())
        self._next_id += 1
        self.layer_calls[layer] += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame, name):
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1]
        duration = end - frame.start
        self.layer_self[frame.layer] += duration - frame.child
        parent.child += duration
        self.spans.append(
            (frame.span_id, parent.span_id, self._request, frame.layer, name, frame.start, end)
        )

    def begin_request(self, request_id):
        self._request = request_id
        return self._enter(ROOT, "request")

    def end_request(self, frame):
        self._exit(frame, "request")
        self._request = None

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn, layer, name):
        timed = name in TIMED
        observe = self._observers.get(name)
        stack = self._stack
        calls = self.calls
        inclusive = self.inclusive
        calls[name] = 0
        if timed:
            inclusive[name] = 0.0

        if inspect.isgeneratorfunction(fn):
            # The work of a generator happens as it is resumed, so each
            # resumption from another layer is a span of this layer.
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                iterator = fn(*args, **kwargs)
                while True:
                    frame = self._enter(layer, name) if stack[-1].layer != layer else None
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        if frame is not None:
                            self._exit(frame, name)
                    yield item

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if stack[-1].layer == layer and not timed and observe is None:
                    return fn(*args, **kwargs)
                frame = self._enter(layer, name) if stack[-1].layer != layer else None
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if timed:
                        inclusive[name] += perf_counter() - start
                    if frame is not None:
                        self._exit(frame, name)
                if observe is not None:
                    observe(args, kwargs, result)
                return result

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    def _set(self, owner, attribute, value):
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self):
        """Wrap every public layer function at every module-level binding."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [sys.modules[PACKAGE]] + [
            sys.modules[name] for name in sorted(sys.modules) if name.startswith(PACKAGE + ".")
        ]
        layer_modules = {f"{PACKAGE}.{layer}": layer for layer in LAYERS}
        wrappers = {}  # id(original) -> wrapper, so one function gets one wrapper
        for module in modules:
            for attribute, value in list(vars(module).items()):
                if not inspect.isfunction(value):
                    continue
                layer = layer_modules.get(value.__module__)
                if layer is None or value.__qualname__ != value.__name__ or not value.__name__.isidentifier():
                    continue
                if value.__name__.startswith("_") and value.__name__ not in EXTRA_FUNCTIONS.get(layer, ()):
                    continue
                name = f"{layer}.{value.__name__}"
                if name in KERNELS and module.__name__ == value.__module__:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, layer, name)
                self._set(module, attribute, wrappers[id(value)])
        for layer, classes in METHODS.items():
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for class_name, methods in classes.items():
                cls = getattr(module, class_name)
                for method in methods:
                    raw = cls.__dict__[method]
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    if id(fn) not in wrappers:
                        qualified = f"{layer}.{class_name}.{fn.__name__}"
                        wrappers[id(fn)] = self._wrap(fn, layer, qualified)
                    wrapper = wrappers[id(fn)]
                    self._set(cls, method, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
        return self

    def uninstall(self):
        """Put every original object back, in reverse order of wrapping."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    # -- results -------------------------------------------------------

    def summary(self) -> dict:
        return {
            "layer_calls": dict(self.layer_calls),
            "layer_self": dict(self.layer_self),
            "calls": dict(self.calls),
            "inclusive": dict(self.inclusive),
            "counters": dict(self.counters),
            "column_distinct": len(self.columns),
        }

    def write_spans(self, path):
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def wrapped_names() -> list[str]:
    """Module-level names and class attributes that still hold a wrapper."""
    found = []
    for name in sorted(sys.modules):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for attribute, value in vars(sys.modules[name]).items():
            if hasattr(value, "__perfbench_wrapped__"):
                found.append(f"{name}.{attribute}")
            if inspect.isclass(value):
                for method, raw in vars(value).items():
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    if hasattr(fn, "__perfbench_wrapped__"):
                        found.append(f"{name}.{attribute}.{method}")
    return found
