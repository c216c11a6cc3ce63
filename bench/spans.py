"""In-memory span recorder that times calls into fracdrift from outside.

The recorder never edits the package's source.  It replaces a function by a
timing wrapper in *every* fracdrift module namespace that binds the same
object, because ``harness``, ``chaos``, ``simulate`` and ``cli`` bind names
with ``from .x import y`` and patching only the defining module would miss
those calls.  Methods are wrapped on their class.

Each span records its name, start, end, parent span and thread.  Work a
thread pool runs is attributed to the span that submitted it: the pool
classes the package binds are replaced by a subclass whose tasks open a
``harness.pool_task`` span whose parent is the submitting span.

A listed function that the package no longer defines is reported as absent
instead of raising, so a refactor that renames a layer shows up as missing
numbers rather than a crashed benchmark.
"""

from __future__ import annotations

import functools
import threading
import time
import tracemalloc
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

POOL_TASK = "harness.pool_task"


@dataclass(frozen=True)
class Target:
    """One function to time: ``qualname`` inside module ``module``.

    ``counts(args, result)`` returns a dict of counts stored on the span;
    ``memory`` records the tracemalloc peak of the call.
    """

    module: str
    qualname: str
    span: str
    counts: Callable | None = None
    memory: bool = False


class Recorder:
    """Keeps spans in memory; :meth:`dump` returns them when the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.installed: set[str] = set()   # span names with a wrapped function
        self.absent: list[str] = []        # targets the package no longer has
        self._local = threading.local()
        self._lock = threading.Lock()
        self._mem_open: dict[int, list[int]] = {}  # span id -> [base, peak]
        self._mem_thread: int | None = None
        self._mem_paused_by: int | None = None
        self._mem_offset = 0

    # -- span stack -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """Innermost open span of this thread, else the span that started
        this thread's pool task."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "origin", None)

    def begin(self, name: str, memory: bool = False) -> int:
        span = {"name": name, "start": time.monotonic(), "end": None,
                "parent": self.current(), "thread": threading.get_ident()}
        with self._lock:
            sid = len(self.spans)
            self.spans.append(span)
        self._stack().append(sid)
        self._mem_enter(sid, memory)
        return sid

    def end(self, sid: int) -> None:
        self._mem_exit(sid)
        self.spans[sid]["end"] = time.monotonic()
        self._stack().pop()

    # -- tracemalloc peaks -------------------------------------------------
    #
    # tracemalloc slows Python-heavy code several times over, so it runs
    # only inside memory spans and is stopped while such a span calls another
    # wrapped function (the lag-table quadrature inside ``block_covariance``,
    # say).  A peak therefore covers the dense work of the span itself.
    # Bytes live when tracing stops are carried in ``_mem_offset``; frees of
    # them after tracing restarts go unseen, so a peak can only be too high.

    def _mem_note_peak(self) -> None:
        peak = self._mem_offset + tracemalloc.get_traced_memory()[1]
        for entry in self._mem_open.values():
            entry[1] = max(entry[1], peak)

    def _mem_enter(self, sid: int, memory: bool) -> None:
        with self._lock:
            if self._mem_paused_by is not None:
                return
            if self._mem_open and threading.get_ident() != self._mem_thread:
                return
            if memory:
                if self._mem_open:
                    self._mem_note_peak()
                    tracemalloc.reset_peak()
                else:
                    tracemalloc.start()
                    self._mem_offset = 0
                    self._mem_thread = threading.get_ident()
                base = self._mem_offset + tracemalloc.get_traced_memory()[0]
                self._mem_open[sid] = [base, base]
            elif self._mem_open:
                self._mem_note_peak()
                self._mem_offset += tracemalloc.get_traced_memory()[0]
                tracemalloc.stop()
                self._mem_paused_by = sid

    def _mem_exit(self, sid: int) -> None:
        with self._lock:
            if sid == self._mem_paused_by:
                tracemalloc.start()
                self._mem_paused_by = None
            elif sid in self._mem_open:
                self._mem_note_peak()
                base, peak = self._mem_open.pop(sid)
                self.spans[sid]["peak_mb"] = (peak - base) / 2**20
                if not self._mem_open:
                    tracemalloc.stop()

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, target: Target):
        rec = self
        cached = hasattr(fn, "cache_info")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            misses = fn.cache_info().misses if cached else 0
            sid = rec.begin(target.span, target.memory)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end(sid)
            span = rec.spans[sid]
            if cached:
                span["miss"] = fn.cache_info().misses > misses
            if target.counts is not None:
                try:
                    span["counts"] = target.counts(args, result)
                except (AttributeError, TypeError, IndexError, KeyError, ValueError):
                    span["counts"] = None
            return result

        if cached:  # keep the lru_cache interface the package's own code uses
            wrapper.cache_info, wrapper.cache_clear = fn.cache_info, fn.cache_clear
        return wrapper

    def pool_class(self):
        rec = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                origin = rec.current()
                workers = self._max_workers

                def task(*a, **k):
                    rec._local.origin = origin
                    sid = rec.begin(POOL_TASK)
                    rec.spans[sid]["workers"] = workers
                    try:
                        return fn(*a, **k)
                    finally:
                        rec.end(sid)
                        rec._local.origin = None

                return super().submit(task, *args, **kwargs)

        return TracedPool

    def install(self, targets, modules: dict) -> None:
        """Wrap every target found in ``modules`` (name -> module object)."""
        namespaces = list(modules.values())
        for target in targets:
            owner = modules.get(target.module)
            *path, attr = target.qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{target.module}.{target.qualname}")
                continue
            self.installed.add(target.span)
            wrapped = self.wrap(fn, target)
            if path:
                setattr(owner, attr, wrapped)
                continue
            for ns in namespaces:
                for key in [k for k, v in vars(ns).items() if v is fn]:
                    setattr(ns, key, wrapped)
        pool = self.pool_class()
        for ns in namespaces:
            for key in [k for k, v in vars(ns).items() if v is ThreadPoolExecutor]:
                setattr(ns, key, pool)

    def dump(self) -> dict:
        return {"spans": self.spans, "installed": sorted(self.installed),
                "absent": self.absent}


# --------------------------------------------------------------------------
# Span arithmetic.
# --------------------------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Self time of each span: its duration minus the part of it covered by
    its children.

    Children on the span's own thread are nested calls.  Children on other
    threads are pool tasks the span started and waits for; overlapping tasks
    cover the waiting once, so a parent's self time is never negative and the
    workers' own time stays with the tasks, one thread each.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = union_length(
            (max(spans[c]["start"], s["start"]), min(spans[c]["end"], s["end"]))
            for c in children[i]
        )
        out.append(s["end"] - s["start"] - covered)
    return out


def outermost(spans: list[dict], names) -> list[int]:
    """Spans named in ``names`` that have no ancestor named in ``names``,
    so nested calls of one group are not counted twice."""
    names = set(names)
    out = []
    for i, s in enumerate(spans):
        if s["name"] not in names:
            continue
        p = s["parent"]
        while p is not None and spans[p]["name"] not in names:
            p = spans[p]["parent"]
        if p is None:
            out.append(i)
    return out
