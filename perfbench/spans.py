"""Spans and counts recorded around calls into the package, for traced runs.

A span is (name, thread, start, end, parent). The first part of a span's
name is its layer ("encoder.encode" belongs to "encoder"). A span's self
time is its duration minus the part of it covered by its child spans and
minus the leaf calls made directly under it. Leaf calls (one box conversion,
one IoU) are too many to keep one by one, so they are summed per name
instead, with their time charged to the innermost open span of their thread.

Child spans opened by pool threads overlap each other. Their parent counts
the covered interval once, so the sum of all self times exceeds the traced
wall time by exactly that overlap, which `report` returns beside it.

Nothing here is active unless the benchmark installs it with `Patches`, so
untraced runs call the package's functions unwrapped.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

_clock = time.perf_counter_ns


class Span:
    __slots__ = ("name", "thread", "start", "end", "parent", "leaf_ns")

    def __init__(self, name: str, thread: int, parent: Span | None):
        self.name = name
        self.thread = thread
        self.parent = parent
        self.leaf_ns = 0
        self.start = _clock()
        self.end = 0

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Spans and counters in memory; written out once, at the end of a run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._tallies: list[defaultdict] = []
        self._lock = threading.Lock()
        self._main_stack: list[Span] = self._stack()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tally(self) -> defaultdict:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = self._local.tally = defaultdict(float)
            with self._lock:
                self._tallies.append(tally)
        return tally

    def open(self, name: str) -> Span:
        stack = self._stack()
        # A pool thread's first span hangs under whatever the main thread has open.
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span(name, threading.get_ident(), parent)
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = _clock()
        self._stack().pop()

    def leaf(self, name: str, elapsed_ns: int) -> None:
        """One call summed under `name`, charged to this thread's open span."""
        stack = self._stack()
        if stack:
            stack[-1].leaf_ns += elapsed_ns
        tally = self._tally()
        tally[name + "_calls"] += 1
        tally[name + "_ns"] += elapsed_ns

    def count(self, name: str, amount: float = 1) -> None:
        self._tally()[name] += amount

    def counts(self) -> dict[str, float]:
        total: defaultdict = defaultdict(float)
        with self._lock:
            for tally in self._tallies:
                for key, value in tally.items():
                    total[key] += value
        return dict(total)

    def report(self) -> dict[str, dict[str, float]]:
        """Self time per span name, the parallel overlap, and the counts (ns)."""
        children: defaultdict = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)].append(span)
        self_ns: defaultdict = defaultdict(int)
        total_ns: defaultdict = defaultdict(int)
        overlap = 0
        for span in self.spans:
            kids = children[id(span)]
            covered = _union(kids)
            overlap += sum(k.duration for k in kids) - covered
            self_ns[span.name] += span.duration - covered - span.leaf_ns
            total_ns[span.name] += span.duration
        return {"self_ns": dict(self_ns), "total_ns": dict(total_ns),
                "overlap_ns": overlap, "counts": self.counts()}

    def write(self, path: Path) -> None:
        """All spans, with parents as indices, plus the counts, as JSON."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        origin = min((s.start for s in self.spans), default=0)
        threads = {t: i for i, t in enumerate(dict.fromkeys(s.thread for s in self.spans))}
        payload = {
            "spans": [
                {
                    "name": s.name,
                    "thread": threads[s.thread],
                    "start_ns": s.start - origin,
                    "end_ns": s.end - origin,
                    "parent": None if s.parent is None else index[id(s.parent)],
                    "leaf_ns": s.leaf_ns,
                }
                for s in self.spans
            ],
            "counts": self.counts(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def _union(spans: list[Span]) -> int:
    """Length of the union of the spans' intervals."""
    covered, reach = 0, None
    for s in sorted(spans, key=lambda s: s.start):
        if reach is None or s.start >= reach:
            covered += s.duration
            reach = s.end
        elif s.end > reach:
            covered += s.end - reach
            reach = s.end
    return covered


# on_exit(tracer, args, kwargs, result) records counts after the call returns.
OnExit = Callable[[Tracer, tuple, dict, object], None]


def span_wrapper(tracer: Tracer, name: str, fn: Callable, on_exit: OnExit | None = None) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if on_exit is not None:
            on_exit(tracer, args, kwargs, result)
        return result
    return wrapped


def leaf_wrapper(tracer: Tracer, name: str, fn: Callable, on_exit: OnExit | None = None) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leaf(name, _clock() - start)
        if on_exit is not None:
            on_exit(tracer, args, kwargs, result)
        return result
    return wrapped


def count_wrapper(tracer: Tracer, fn: Callable, on_exit: OnExit) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        on_exit(tracer, args, kwargs, result)
        return result
    return wrapped


class Patches:
    """Replace module attributes with wrappers for the length of a `with`."""

    def __init__(self, replacements: list[tuple[object, str, Callable]]):
        self._replacements = replacements
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Patches:
        for module, attr, wrapped in self._replacements:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
