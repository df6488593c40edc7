"""In-memory span recording around library calls, from outside the program.

A Tracer rebinds chosen functions to timing wrappers in every module that
holds a reference to them, so both call styles in catlab are seen: `cli`
calls through module objects (`spectral.eigendecompose`), while
`experiments` imported the functions by name. Each span records name,
start, end, parent span and thread, plus the calling thread's CPU time:
on a thread pool a wall span alone would count waits for the interpreter
lock as busy time.

Spans stay in memory; the benchmark writes them out when it ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, Iterable


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float
    cpu: float

    @property
    def wall(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return asdict(self)


# counter(counts, args, kwargs, result) adds exact counts for one call.
CounterFn = Callable[[Counter, tuple, dict, object], None]


class Tracer:
    """Records spans for wrapped functions while installed.

    A span opened on a thread with no open span of its own (a pool
    worker) takes as parent the innermost open span of the thread that
    installed the tracer: the call that submitted the work.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._owner = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, counter: CounterFn | None = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._owner_stack[-1] if self._owner_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            cpu0 = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu1 = time.thread_time()
                stack.pop()
                self.spans.append(
                    Span(span_id, name, parent, threading.get_ident(), start, end, cpu1 - cpu0)
                )
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(
        self,
        targets: Iterable[tuple[object, str, str, CounterFn | None]],
        modules: Iterable[object],
    ) -> None:
        """Wrap each (module, attribute, span name, counter) target.

        The wrapper replaces the original object under every name that
        refers to it in `modules`, which is where callers look it up.
        """
        self._owner = threading.get_ident()
        modules = list(modules)
        for module, attr, name, counter in targets:
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()


@dataclass(frozen=True)
class SelfTime:
    wall: float
    cpu: float


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> dict[int, SelfTime]:
    """Self time of every span.

    Self wall time is the span's duration minus the part of its interval
    that child spans (on any thread) cover. Self CPU time is the span's
    thread CPU time minus that of its children on the same thread; a
    child on another thread burns another thread's CPU.
    """
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        kids = children.get(span.id, [])
        covered = _covered([(k.start, k.end) for k in kids], span.start, span.end)
        same_thread_cpu = sum(k.cpu for k in kids if k.thread == span.thread)
        result[span.id] = SelfTime(wall=span.wall - covered, cpu=span.cpu - same_thread_cpu)
    return result
