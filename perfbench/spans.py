"""Spans recorded from outside the program.

`Tracer.instrument` wraps every public function of the given layer
modules, and any extra callables, and `Tracer.active()` binds the
wrappers into every namespace that holds the originals, so calls made
inside the package go through them too.  Each call records one span:
its name, parent, start and end (perf_counter_ns) and whether it raised.
Spans stay in parallel integer arrays until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from array import array
from collections import defaultdict


def _attributed(exc) -> bool:
    """True when exc, or an exception it was raised from or while
    handling, already has its failing span."""
    seen = set()
    while exc is not None and id(exc) not in seen:
        if hasattr(exc, "_perfbench_span"):
            return True
        seen.add(id(exc))
        exc = exc.__cause__ or exc.__context__
    return False


class Tracer:
    def __init__(self):
        self.names: list[str] = []          # name id -> "layer.function"
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")            # span id -> parent span id or -1
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.failed = array("b")            # 1 where the span raised first
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._bindings: list[tuple[dict, str, object, object]] = []
        self._wrappers: dict[object, object] = {}

    # -- recording -----------------------------------------------------

    def wrap(self, layer: str, fn, count=None):
        """Return a wrapper of `fn` that records a span named
        "layer.<fn name>".  `count(tracer, args, kwargs, result)` may add
        to the counters after a successful call."""
        label = f"{layer}.{fn.__name__}"
        name_id = self._name_ids.setdefault(label, len(self.names))
        if name_id == len(self.names):
            self.names.append(label)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.parent.append(stack[-1] if stack else -1)
            self.name.append(name_id)
            self.failed.append(0)
            self.end.append(0)
            stack.append(sid)
            self.start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # attribute a failure once, to the innermost span that
                # raised it, also when a caller re-raises it as another
                # exception
                if not _attributed(exc):
                    self.failed[sid] = 1
                    exc._perfbench_span = sid
                raise
            finally:
                self.end[sid] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return wrapper

    def open_labels(self) -> set[str]:
        """Names of the spans open at this moment."""
        return {self.names[self.name[s]] for s in self._stack}

    # -- installing ----------------------------------------------------

    def instrument(self, layers, namespaces, extra=(), counters=None):
        """Prepare wrappers and find every binding to replace.

        layers: {layer name: module}; every public function defined in
        the module becomes a span of that layer.  extra: (owner, attr,
        layer) triples for callables defined elsewhere, such as
        scipy.linalg.expm.  namespaces: dicts whose bindings to the
        originals are replaced while the tracer is active.  counters:
        {"layer.function": count callback}.
        """
        counters = counters or {}
        for layer, mod in layers.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    self._wrappers[obj] = self.wrap(
                        layer, obj, counters.get(f"{layer}.{attr}"))
        namespaces = list(namespaces)
        for owner, attr, layer in extra:
            fn = getattr(owner, attr)
            self._wrappers[fn] = self.wrap(layer, fn,
                                           counters.get(f"{layer}.{attr}"))
            namespaces.append(vars(owner))
        seen = set()
        for ns in namespaces:
            if id(ns) in seen:
                continue
            seen.add(id(ns))
            for attr, obj in list(ns.items()):
                try:
                    wrapped = self._wrappers.get(obj)
                except TypeError:       # unhashable value
                    continue
                if wrapped is not None:
                    self._bindings.append((ns, attr, obj, wrapped))

    @contextlib.contextmanager
    def active(self):
        """Bind the wrappers for the duration of the block."""
        for ns, attr, _, wrapped in self._bindings:
            ns[attr] = wrapped
        try:
            yield self
        finally:
            for ns, attr, original, _ in self._bindings:
                ns[attr] = original

    # -- reading -------------------------------------------------------

    def aggregate(self):
        """Per-name totals: calls, inclusive ns, self ns, failures.

        Self time is a span's duration minus the durations of its
        direct children, which nest inside it on one thread.
        """
        child = [0] * len(self.start)
        for sid, par in enumerate(self.parent):
            if par >= 0:
                child[par] += self.end[sid] - self.start[sid]
        out = {label: {"calls": 0, "incl_ns": 0, "self_ns": 0, "failed": 0}
               for label in self.names}
        for sid, name_id in enumerate(self.name):
            row = out[self.names[name_id]]
            dur = self.end[sid] - self.start[sid]
            row["calls"] += 1
            row["incl_ns"] += dur
            row["self_ns"] += dur - child[sid]
            row["failed"] += self.failed[sid]
        return out

    def root_ns(self) -> int:
        """Total duration of spans with no parent."""
        return sum(self.end[s] - self.start[s]
                   for s, par in enumerate(self.parent) if par < 0)

    def write(self, path) -> None:
        """Write one JSON line per span."""
        with open(path, "w") as fh:
            for sid in range(len(self.start)):
                fh.write(json.dumps({
                    "id": sid, "parent": self.parent[sid],
                    "name": self.names[self.name[sid]],
                    "start_ns": self.start[sid], "end_ns": self.end[sid],
                    "failed": self.failed[sid]}) + "\n")
