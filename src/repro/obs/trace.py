"""Hierarchical span tracer for the desynchronization flow.

A *span* is one timed section of work -- an engine stage, a grouping
pass, a single STA propagation -- opened as a context manager::

    from repro.obs import trace

    with trace.span("grouping", instances=1200) as sp:
        ...
        sp.set("regions", 7)

Spans nest: each thread keeps its own span stack, so a span opened
while another is active on the same thread becomes its child, while
spans opened on another thread (a service worker running its job)
become roots of their thread's subtree.  Finished spans accumulate on
the tracer and are exported by :mod:`repro.obs.export` as Chrome
trace-event JSON (chrome://tracing, Perfetto) or a plain-text summary.

The module-level :func:`span` records into the tracer of the current
:class:`repro.obs.context.Context`.  Tracing is **disabled by default**
and designed to be near-zero-cost in that state: a span on a disabled
tracer is a shared no-op that allocates nothing, so instrumented hot
paths pay one thread-local read and one ``if``.

The run journal (:class:`repro.engine.journal.RunJournal`) records
each stage boundary once, as a ``stage_end`` line; spans are kept here
and exported, never copied into it.

**Bounded retention** suits a long-lived daemon: ``Tracer(max_spans=N)``
keeps only the newest N finished spans (a ring buffer) and counts the
rest in :attr:`Tracer.dropped`, so a job's tracer cannot grow memory
without bound.  The default (``max_spans=None``) keeps every span.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Union


class Span:
    """One timed, attributed section of work (a context manager)."""

    __slots__ = (
        "name",
        "attrs",
        "start",
        "end",
        "parent",
        "depth",
        "thread_id",
        "thread_name",
        "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0
        self.parent: Optional["Span"] = None
        self.depth = 0
        self.thread_id = 0
        self.thread_name = ""

    @property
    def duration(self) -> float:
        """Wall time in seconds (0.0 while the span is still open)."""
        return max(0.0, self.end - self.start)

    @property
    def path(self) -> str:
        """Slash-joined ancestry, e.g. ``stage:group/grouping``."""
        if self.parent is None:
            return self.name
        return f"{self.parent.path}/{self.name}"

    def set(self, key: str, value: Any) -> "Span":
        """Attach one key/value attribute; returns the span."""
        self.attrs[key] = value
        return self

    def __enter__(self) -> "Span":
        thread = threading.current_thread()
        self.thread_id = thread.ident or 0
        self.thread_name = thread.name
        stack = self._tracer._thread_stack()
        if stack:
            self.parent = stack[-1]
            self.depth = self.parent.depth + 1
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        self.end = time.perf_counter()
        if exc is not None:
            self.attrs["error"] = f"{exc_type.__name__}: {exc}"
        stack = self._tracer._thread_stack()
        if stack and stack[-1] is self:
            stack.pop()
        self._tracer._finish(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration:.6f}s, depth={self.depth})"


class _NullSpan:
    """Shared no-op span handed out by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> None:
        return None

    def set(self, _key: str, _value: Any) -> "_NullSpan":
        return self


#: the singleton every disabled ``span()`` call returns
NULL_SPAN = _NullSpan()


class Tracer:
    """Thread-safe collector of hierarchical spans.

    ``max_spans`` bounds finished-span retention: beyond it the oldest
    spans are dropped (and counted in :attr:`dropped`) so a long-lived
    daemon's per-job tracers stay flat in memory.  ``trace_id`` tags
    the tracer (and every exported trace event) with the identity of
    the work it belongs to -- the service daemon uses the job's trace
    ID here so spans, journal lines and HTTP tickets correlate.
    """

    def __init__(
        self,
        enabled: bool = True,
        max_spans: Optional[int] = None,
        trace_id: Optional[str] = None,
    ):
        self.enabled = enabled
        self.trace_id = trace_id
        #: perf_counter -> wall-clock epoch offset, for absolute export
        self.epoch = time.time() - time.perf_counter()
        self._lock = threading.Lock()
        self.max_spans = max_spans
        self.dropped = 0
        self._finished: Union[List[Span], Deque[Span]]
        if max_spans is None:
            self._finished = []
        else:
            self._finished = deque(maxlen=max(1, int(max_spans)))
        self._local = threading.local()

    # -- recording -----------------------------------------------------
    def span(self, name: str, **attrs: Any):
        """Open a new span (context manager); no-op when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    def _thread_stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _finish(self, span: Span) -> None:
        with self._lock:
            if (
                self.max_spans is not None
                and len(self._finished) == self._finished.maxlen  # type: ignore[union-attr]
            ):
                self.dropped += 1
            self._finished.append(span)

    # -- inspection ----------------------------------------------------
    def finished(self) -> List[Span]:
        """Snapshot of finished spans, in completion order."""
        with self._lock:
            return list(self._finished)

    def roots(self) -> List[Span]:
        return [span for span in self.finished() if span.parent is None]

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)


def span(name: str, **attrs: Any):
    """Open a span on the current context's tracer."""
    tracer = _context.current().tracer
    if not tracer.enabled:
        return NULL_SPAN
    return Span(tracer, name, attrs)


def enabled() -> bool:
    return _context.current().tracer.enabled


# imported last: the context module builds its defaults from the
# classes above
from . import context as _context  # noqa: E402
