"""Spans around calls into the library, recorded from outside the library.

A traced run replaces every public function of the layer modules (and the
public methods of the classes they define) with a wrapper that records one
span: name, start, end, parent and whether the call raised. The library's
own modules bind imported functions by name (``from .gpr import fit``), so
the wrapper is installed under every name that refers to the original
function, in every library module and in the benchmark's own modules.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from contextlib import contextmanager, nullcontext
from time import perf_counter

import numpy as np

LAYERS = ("synthgen", "recordings", "preprocess", "evaluate", "gpr", "streaming", "cli")

# Span fields, in order.
NAME, START, END, PARENT, ERROR = range(5)


class NullTracer:
    """Stands in for a tracer in untraced runs."""

    def span(self, name):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, False])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, error: bool) -> None:
        span = self.spans[idx]
        span[END] = perf_counter()
        span[ERROR] = error
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        error = True
        try:
            yield
            error = False
        finally:
            self._close(idx, error)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            error = True
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                self._close(idx, error)

        return traced

    @contextmanager
    def instrument(self, extra_modules=()):
        """Install span wrappers for the duration of the block."""
        wrappers: dict[int, object] = {}
        patched: list[tuple[object, str, object]] = []
        for layer in LAYERS:
            module = sys.modules[f"myotorque.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = self.wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            patched.append((obj, attr, member))
                            setattr(obj, attr, self.wrap(f"{layer}.{name}.{attr}", member))
        namespaces = [
            m for n, m in list(sys.modules.items())
            if n == "myotorque" or n.startswith("myotorque.")
        ] + list(extra_modules)
        for module in namespaces:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    patched.append((module, name, obj))
                    setattr(module, name, wrappers[id(obj)])
        try:
            yield self
        finally:
            for owner, name, original in reversed(patched):
                setattr(owner, name, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class SpanView:
    """Queries over recorded spans.

    Spans are opened in index order, so the descendants of span k are the
    spans after k that opened before k closed.
    """

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.start = np.array([s[START] for s in spans])
        self.duration = np.array([s[END] - s[START] for s in spans])
        child_time = np.zeros(len(spans))
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += self.duration[i]
        self.self_time = self.duration - child_time

    def segment(self, name: str) -> int:
        """Index of the last top-level span with this name."""
        found = [i for i, s in enumerate(self.spans) if s[NAME] == name and s[PARENT] < 0]
        if not found:
            raise KeyError(f"no top-level span {name!r}")
        return found[-1]

    def select(self, name: str, within: int | None = None, parent: str | None = None,
               ok_only: bool = False) -> list[int]:
        lo, hi = 0, len(self.spans)
        if within is not None:
            lo = within + 1
            hi = int(np.searchsorted(self.start, self.spans[within][END], side="left"))
        out = []
        for i in range(lo, hi):
            s = self.spans[i]
            if s[NAME] != name or (ok_only and s[ERROR]):
                continue
            if parent is not None and (s[PARENT] < 0 or self.spans[s[PARENT]][NAME] != parent):
                continue
            out.append(i)
        return out

    def durations(self, name: str, **kw) -> np.ndarray:
        idx = self.select(name, **kw)
        if not idx:
            raise KeyError(f"no span {name!r} matching {kw}")
        return self.duration[idx]

    def layer_self_time(self, layer: str) -> float:
        prefix = layer + "."
        return float(sum(
            self.self_time[i] for i, s in enumerate(self.spans) if s[NAME].startswith(prefix)
        ))
