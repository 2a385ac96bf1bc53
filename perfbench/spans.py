"""Spans around kinereco's public functions, recorded from outside the program.

``Tracer.install()`` replaces every module attribute that binds a public
function of a kinereco module with one timing wrapper (so ``cwt`` is traced
whether it is reached through ``kinereco.wavelet``, ``kinereco.kinematics`` or
``kinereco.cli``); ``uninstall()`` puts the originals back.  Spans are kept in
memory and summarised or written out when the run ends.

A span opened on a thread with no open span (the CLI's reconstruct thread
pool) is parented to the stage span the benchmark opened around the CLI call.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field

#: The layers are kinereco's modules; ``errors`` holds no functions worth a span.
LAYERS = ("core", "ingest", "detect", "wavelet", "kinematics", "evaluate",
          "synth", "cli")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    error: bool = False
    #: Small facts a computed count needs (sizes, paths), taken after the call.
    note: object = None


@dataclass
class Tracer:
    """Records spans; one instance per benchmark run."""

    #: name -> callable(bound_arguments, result) giving the span's note.
    observers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    _ids: itertools.count = field(default_factory=itertools.count)
    _local: threading.local = field(default_factory=threading.local)
    _root: int | None = None
    _patched: list = field(default_factory=list)

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else self._root
        # next() on itertools.count and list.append are single C calls, so
        # worker threads cannot interleave inside them.
        span = Span(next(self._ids), parent, name, time.perf_counter())
        stack.append(span)
        return span

    def close(self, span: Span, error: bool = False) -> None:
        span.end = time.perf_counter()
        span.error = error
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def stage(self, name: str):
        """Span around one CLI call, the root of its thread pool's spans."""
        span = self.open(name)
        self._root = span.id
        error = True
        try:
            yield span
            error = False
        finally:
            self._root = None
            self.close(span, error=error)

    # -- patching ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        observe = self.observers.get(name)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span, error=True)
                raise
            self.close(span)
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.note = observe(bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of every layer, wherever it is bound."""
        modules = {layer: sys.modules[f"kinereco.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__
                        and attr != "main"):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        holders = list(modules.values()) + [sys.modules["kinereco"]]
        for module in holders:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched.clear()

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list) -> dict[int, float]:
    """Span duration minus the union of its child spans' intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def tail_percentile(durations: list[float], min_tail: int = 10):
    """The highest of p90/p95/p99/p99.9 with at least ``min_tail`` samples
    above it, as (label, value); None when even p90 lacks that tail."""
    best = None
    for label, tail_per_mille in (("p90", 100), ("p95", 50), ("p99", 10),
                                  ("p99.9", 1)):
        if len(durations) * tail_per_mille >= min_tail * 1000:
            best = (label, quantile(durations, 1.0 - tail_per_mille / 1000))
    return best


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default rule)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
