"""One observability context per run: tracer, metrics registry, profiler.

A :class:`Context` bundles what one run records into -- a CLI
conversion or one service job -- and :func:`use` installs it for the
current thread::

    from repro.obs import Context, MetricsRegistry, Tracer, use

    with use(Context(tracer=Tracer(), registry=MetricsRegistry())):
        ...run the flow...

The module-level helpers every layer calls -- ``trace.span``,
``metrics.counter``/``gauge``/``histogram``, ``prof.add_counters`` /
``peak_counters`` -- record into :func:`current`.  A thread that
entered no context records into :data:`DISABLED`, whose collectors are
all off, so an uninstrumented run pays one thread-local read and one
``if`` per call.

Contexts are per thread: a service daemon runs concurrent jobs, each
on its own worker thread in its own context, without one job seeing
another's spans or counters.  The flow engine runs every stage on the
thread that called it, so a run's stages record into that thread's
context.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator, NamedTuple, Optional

from .metrics import MetricsRegistry
from .prof import Profiler
from .trace import Tracer


class Context(NamedTuple):
    """The tracer, metrics registry and profiler of one run (immutable).

    Each field defaults to a disabled instance shared by every
    context, so ``Context(tracer=t)`` traces without counting or
    profiling.  A ``NamedTuple`` rather than a frozen dataclass: its
    class is built in a fraction of the time, which every ``drdesync``
    start-up pays.
    """

    tracer: Tracer = Tracer(enabled=False)
    registry: MetricsRegistry = MetricsRegistry(enabled=False)
    profiler: Profiler = Profiler(enabled=False)

    @property
    def trace_id(self) -> Optional[str]:
        """The run's trace ID, as its tracer carries it."""
        return self.tracer.trace_id


#: what a thread that entered no context records into: nothing
DISABLED = Context()


class _Local(threading.local):
    # a thread that never entered a context reads the class attribute
    context = DISABLED


_local = _Local()


def current() -> Context:
    """The context this thread records into."""
    return _local.context


@contextlib.contextmanager
def use(context: Context) -> Iterator[Context]:
    """Record into ``context`` on this thread until the block exits.

    Other threads are unaffected; nested blocks restore the enclosing
    context on exit.
    """
    previous = _local.context
    _local.context = context
    try:
        yield context
    finally:
        _local.context = previous
