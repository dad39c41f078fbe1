"""Span recorder for the end-to-end benchmark — taken *from outside*.

The benchmark may not edit ``src/``, so layer boundaries are traced by
wrapping public callables in place: class methods are patched on the
class, module functions in every loaded ``repro.*`` module that imported
them by name (and in module-level registries such as
``FLAT_AGGREGATORS`` that hold them as dict values).  Every patch is
remembered and :meth:`Recorder.uninstall` restores the exact original
object, so a traced run leaves the library untouched.

A span is ``(name, start, end, parent)`` on one thread; spans nest
strictly per thread (a thread-local stack), so a span's **self time** is
its duration minus its direct children's durations.  Spans are kept in
memory and only written out (JSONL) by :meth:`Recorder.dump` after the
run.  All spans under one root share that root's id as their
``request`` id.

Nothing here draws from a seeded rng or reorders work: the traced run
must reproduce the untraced run's fingerprint.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

__all__ = ["Span", "Recorder", "self_times", "group_stats"]


@dataclass
class Span:
    """One recorded call.  ``parent`` indexes the same thread's span
    list (``-1`` for a root); ``n`` is the boundary's work count (models
    scored, batches trained, ids requested ...), 0 when not counted."""

    name: str
    start: float
    end: float
    parent: int
    n: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ThreadLog:
    __slots__ = ("thread", "spans", "stack")

    def __init__(self, thread: str):
        self.thread = thread
        self.spans: list[Span] = []
        self.stack: list[int] = []


class Recorder:
    """Owns the patches and the per-thread span logs of one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.enabled = False
        self._clock = clock
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._logs_lock = threading.Lock()
        # (holder, key, original, is_item): holder.key / holder[key].
        self._patches: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------- spans
    @property
    def tracing(self) -> bool:
        """True while wrappers are installed."""
        return bool(self._patches)

    def start(self) -> None:
        """Begin recording (a no-op unless wrappers are installed, so
        untraced runs pay nothing for the benchmark's own spans)."""
        self.enabled = self.tracing

    def stop(self) -> None:
        self.enabled = False

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.current_thread().name)
            self._local.log = log
            with self._logs_lock:
                self._logs.append(log)
        return log

    def _open(self, name: str) -> tuple[_ThreadLog, Span]:
        log = self._log()
        stack = log.stack
        span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
        stack.append(len(log.spans))
        log.spans.append(span)
        span.start = self._clock()
        return log, span

    def _close(self, log: _ThreadLog, span: Span) -> None:
        span.end = self._clock()
        log.stack.pop()

    def wrap(self, fn: Callable, name: str, count: Callable | None = None) -> Callable:
        """``fn`` with a span around every call made while enabled.

        ``count(args, kwargs, result)`` (optional) returns the span's
        work count, evaluated after the call, outside the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            log, span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(log, span)
            if count is not None:
                span.n = count(args, kwargs, result)
            return result

        return traced

    def span(self, name: str):
        """Context manager for the benchmark's own calls into a layer."""
        return _SpanContext(self, name)

    def threads(self) -> dict[str, list[Span]]:
        """Spans per thread name (threads sharing a name are merged
        with parent indices rebased)."""
        merged: dict[str, list[Span]] = defaultdict(list)
        for log in self._logs:
            base = len(merged[log.thread])
            for span in log.spans:
                parent = span.parent if span.parent < 0 else span.parent + base
                merged[log.thread].append(
                    Span(span.name, span.start, span.end, parent, span.n)
                )
        return dict(merged)

    def dump(self, path) -> int:
        """Write every span as one JSON line; returns the span count."""
        written = 0
        with open(path, "w", encoding="utf-8") as out:
            for thread, spans in self.threads().items():
                request = _request_ids(spans)
                for index, span in enumerate(spans):
                    out.write(
                        json.dumps(
                            {
                                "thread": thread,
                                "id": index,
                                "parent": span.parent,
                                "request": request[index],
                                "name": span.name,
                                "start": span.start,
                                "end": span.end,
                                "n": span.n,
                            }
                        )
                    )
                    out.write("\n")
                    written += 1
        return written

    # ----------------------------------------------------------- patches
    def _set(self, holder, key: str, value, *, is_item: bool = False) -> None:
        original = holder[key] if is_item else holder.__dict__[key]
        self._patches.append((holder, key, original, is_item))
        if is_item:
            holder[key] = value
        else:
            setattr(holder, key, value)

    def patch_method(self, cls: type, attr: str, name: str, count=None) -> None:
        """Wrap ``cls.attr`` (plain, class or static method) on the class
        that defines it."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            value = classmethod(self.wrap(raw.__func__, name, count))
        elif isinstance(raw, staticmethod):
            value = staticmethod(self.wrap(raw.__func__, name, count))
        else:
            value = self.wrap(raw, name, count)
        self._set(cls, attr, value)

    def patch_function(
        self, fn: Callable, name: str, count=None, *, package: str = "repro"
    ) -> int:
        """Wrap module function ``fn`` everywhere ``package`` refers to it:
        module attributes (by-name imports) and module-level dict values
        (registries).  Returns the number of references replaced."""
        wrapped = self.wrap(fn, name, count)
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == package or module_name.startswith(package + ".")
            ):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, key, wrapped)
                    replaced += 1
                elif type(value) is dict:
                    for item_key, item in list(value.items()):
                        if item is fn:
                            self._set(value, item_key, wrapped, is_item=True)
                            replaced += 1
        return replaced

    def uninstall(self) -> None:
        """Restore every patched reference to the original object."""
        self.enabled = False
        while self._patches:
            holder, key, original, is_item = self._patches.pop()
            if is_item:
                holder[key] = original
            else:
                setattr(holder, key, original)

    @property
    def patched(self) -> list[tuple[object, str, object, bool]]:
        return list(self._patches)


class _SpanContext:
    __slots__ = ("_recorder", "_name", "_opened")

    def __init__(self, recorder: Recorder, name: str):
        self._recorder = recorder
        self._name = name
        self._opened = None

    def __enter__(self):
        if self._recorder.enabled:
            self._opened = self._recorder._open(self._name)
        return self

    def __exit__(self, *exc_info):
        if self._opened is not None:
            self._recorder._close(*self._opened)
        return False


# --------------------------------------------------------------- analysis
def _request_ids(spans: list[Span]) -> list[int]:
    """Root ancestor of every span (parents precede children)."""
    request: list[int] = []
    for index, span in enumerate(spans):
        request.append(index if span.parent < 0 else request[span.parent])
    return request


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the direct children's durations."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def group_stats(
    spans: list[Span], groups: dict[str, tuple[str, ...]]
) -> dict[str, dict[str, float]]:
    """Aggregate one thread's spans per group (``groups`` maps a group
    to the span names of one layer boundary reached through several
    callables; a name belongs to one group).

    ``calls`` counts entries into the group — a member nested directly
    or transitively inside another member is the same piece of work
    (``accuracy`` inside an unfused ``accuracy_many``) and not a new
    call; ``self_s`` sums every member's self time; ``n`` sums the work
    counts; ``max_ms`` is the longest single member.
    """
    group_of = {name: group for group, names in groups.items() for name in names}
    stats = {
        group: {"calls": 0, "self_s": 0.0, "n": 0.0, "max_ms": 0.0}
        for group in groups
    }
    own = self_times(spans)
    # Per span: the groups that have a member among its ancestors.
    above: list[frozenset] = []
    for index, span in enumerate(spans):
        ancestors = frozenset()
        if span.parent >= 0:
            ancestors = above[span.parent]
            parent_group = group_of.get(spans[span.parent].name)
            if parent_group is not None and parent_group not in ancestors:
                ancestors = ancestors | {parent_group}
        above.append(ancestors)
        group = group_of.get(span.name)
        if group is None:
            continue
        total = stats[group]
        if group not in ancestors:
            total["calls"] += 1
        total["self_s"] += own[index]
        total["n"] += span.n
        total["max_ms"] = max(total["max_ms"], span.duration * 1000.0)
    return stats
