"""Span tracer that wraps the public functions of every `qunit_bell` module.

The library is treated as a black box: nothing inside it is edited.  Each
public callable defined in a layer module (`bases`, `functional`, `linalg`,
...) is replaced, in every `qunit_bell` module that binds it, by a wrapper
that records one span per call.  Modules import each other with
`from .x import f`, so rebinding only the defining module would miss calls
made through the importer's own name.

A span holds its name (`<layer>.<function>`), its parent span, start and end
times, its self time (duration minus the time covered by its child spans in
the same thread), the process CPU time it took and, when memory tracking is
on, the peak `tracemalloc` allocation above the level at entry.

Names that a refactor removes are simply not wrapped; `Tracer.absent()` reports a
name that no longer exists as absent instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import pkgutil
import threading
import time
import tracemalloc
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    op: int
    start: float
    end: float
    self_s: float
    cpu_s: float
    peak_bytes: int


@dataclass(slots=True)
class _Frame:
    id: int
    parent: _Frame | None
    name: str
    start: float
    cpu0: float
    child_s: float = 0.0
    mem_base: int = 0
    child_peak: int = 0


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    cpu_s: float = 0.0
    peak_bytes: int = 0


def layer_modules(package_name: str = "qunit_bell") -> dict:
    """Import and return every non-private submodule of the package by short name."""
    package = importlib.import_module(package_name)
    modules = {}
    for info in pkgutil.iter_modules(package.__path__):
        if not info.name.startswith("_"):
            modules[info.name] = importlib.import_module(f"{package_name}.{info.name}")
    return modules


def public_callables(modules: dict) -> dict:
    """Map id(callable) -> (callable, "<layer>.<name>") for public names each layer defines."""
    found = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and callable(obj)
                and not inspect.isclass(obj)
                and getattr(obj, "__module__", None) == module.__name__
            ):
                found[id(obj)] = (obj, f"{layer}.{attr}")
    return found


class Tracer:
    """Installs wrappers, collects spans in memory, and restores the library."""

    def __init__(self, memory: bool = False, only: set[str] | None = None, package_name: str = "qunit_bell"):
        self.memory = memory
        self.only = only  # wrap just these names; None wraps every public callable
        self.package_name = package_name
        self.spans: list[Span] = []
        self.wrapped: set[str] = set()
        self.op = -1  # index of the workload op in progress; spans of one op share it
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = layer_modules(self.package_name)
        originals = public_callables(modules)
        self.wrapped = {name for _, name in originals.values()}
        if self.only is not None:
            originals = {k: v for k, v in originals.items() if v[1] in self.only}
        wrappers = {key: (func, self._wrap(func, name)) for key, (func, name) in originals.items()}
        package = importlib.import_module(self.package_name)
        for module in [package, *modules.values()]:
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, obj))
        if self.memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.memory and tracemalloc.is_tracing():
            tracemalloc.stop()
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, func, name: str):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return traced

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> _Frame:
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = _Frame(next(self._ids), parent, name, 0.0, 0.0)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                # The parent's peak so far would be lost by reset_peak below.
                parent.child_peak = max(parent.child_peak, peak)
            frame.mem_base = current
            tracemalloc.reset_peak()
        stack.append(frame)
        frame.cpu0 = time.process_time()
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        cpu = time.process_time() - frame.cpu0
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        peak = 0
        if self.memory:
            reached = max(tracemalloc.get_traced_memory()[1], frame.child_peak)
            peak = max(reached - frame.mem_base, 0)
            if frame.parent is not None:
                frame.parent.child_peak = max(frame.parent.child_peak, reached)
        if frame.parent is not None:
            frame.parent.child_s += duration
        self.spans.append(
            Span(
                id=frame.id,
                parent=frame.parent.id if frame.parent is not None else None,
                name=frame.name,
                op=self.op,
                start=frame.start,
                end=end,
                self_s=duration - frame.child_s,
                cpu_s=cpu,
                peak_bytes=peak,
            )
        )

    def totals(self) -> dict[str, LayerTotals]:
        """Per-name call count, total, self and CPU seconds, and largest peak."""
        result: dict[str, LayerTotals] = {}
        for span in self.spans:
            t = result.setdefault(span.name, LayerTotals())
            t.calls += 1
            t.total_s += span.end - span.start
            t.self_s += span.self_s
            t.cpu_s += span.cpu_s
            t.peak_bytes = max(t.peak_bytes, span.peak_bytes)
        return result

    def calls_from_layer(self, name: str, layer: str) -> int:
        """Calls of `name` whose parent span belongs to `layer`."""
        names = {span.id: span.name for span in self.spans}
        prefix = layer + "."
        return sum(
            1
            for span in self.spans
            if span.name == name and names.get(span.parent, "").startswith(prefix)
        )

    def absent(self, names) -> list[str]:
        """Requested names that the library does not define (any more)."""
        return sorted(n for n in names if n not in self.wrapped)
