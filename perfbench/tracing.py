"""Span tracing of the entrymean package, recorded from outside the package.

While a :class:`Tracer` is installed, every module-level binding of a public
package function is replaced by a wrapper that records one span per call:
name, start, end, parent span and thread. Wrapping bindings rather than
definitions matters because ``estimators`` and ``experiment`` import names
directly (``from .recovery import impute_from_structure``) while ``cli`` calls
through the module; one wrapper per function serves every binding. The
originals are restored on exit, so only the traced passes pay for it.

Spans stay in memory; :func:`write_spans` writes them once, at the end.
"""
from __future__ import annotations

import csv
import itertools
import threading
import time
import types
from typing import Callable, NamedTuple

PACKAGE = "entrymean"


class Span(NamedTuple):
    id: int
    parent: int  # 0 for a span with no enclosing span
    thread: int
    name: str  # "<module>.<function>" of the defining module
    start: float
    end: float
    note: object  # summary of the return value, from the tracer's note hooks
    error: str | None  # exception class name when the call raised


class Tracer:
    """Installs span-recording wrappers on the given modules.

    ``notes`` maps a span name to ``hook(args, kwargs, result)``, whose value
    is stored on the span so counts can be read from return values.

    A span opened on a thread with no open span of its own (a worker of the
    experiment's thread pool) takes as parent the innermost span open on the
    thread that created the tracer, so pool work nests under the call that
    started the pool.
    """

    def __init__(self, modules, notes: dict[str, Callable] | None = None):
        self.modules = list(modules)
        self.notes = notes or {}
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack = self._stack()
        self._saved: list[tuple[types.ModuleType, str, Callable]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        try:
            return self._owner_stack[-1]
        except IndexError:
            return 0

    def _wrap(self, fn: Callable, name: str) -> Callable:
        note_hook = self.notes.get(name)
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            span_id = next(self._ids)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans.append(
                    Span(span_id, parent, threading.get_ident(), name, start, end, None,
                         type(exc).__name__)
                )
                raise
            end = clock()
            stack.pop()
            note = note_hook(args, kwargs, result) if note_hook else None
            spans.append(Span(span_id, parent, threading.get_ident(), name, start, end, note, None))
            return result

        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        wrappers: dict[Callable, Callable] = {}
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(value, types.FunctionType)
                    or not value.__module__.startswith(PACKAGE + ".")
                ):
                    continue
                if value not in wrappers:
                    layer = value.__module__[len(PACKAGE) + 1 :]
                    wrappers[value] = self._wrap(value, f"{layer}.{value.__name__}")
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[value])
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        taken = self.spans[:]
        del self.spans[:]
        return taken


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover.

    Children on different threads can overlap, so the covered part is the
    length of the union of the children's intervals, clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent:
            children.setdefault(s.parent, []).append((s.start, s.end))
    own = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        own[s.id] = (s.end - s.start) - covered
    return own


def write_spans(passes: list[list[Span]], origin: float, path) -> None:
    """Write every span as CSV, times in seconds from ``origin``."""
    threads: dict[int, int] = {}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pass", "id", "parent", "thread", "name", "start_s", "end_s", "note", "error"])
        for index, spans in enumerate(passes):
            for s in sorted(spans, key=lambda s: s.id):
                writer.writerow(
                    [
                        index,
                        s.id,
                        s.parent,
                        threads.setdefault(s.thread, len(threads)),
                        s.name,
                        f"{s.start - origin:.9f}",
                        f"{s.end - origin:.9f}",
                        "" if s.note is None else s.note,
                        s.error or "",
                    ]
                )
