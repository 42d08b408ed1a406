"""The cyclic collector's policy for one front-end unit of work.

A unit of work -- one ``drdesync`` conversion, one daemon job, one
:class:`~repro.flow.incremental.IncrementalSession` call -- builds
netlists that outlive it or sits on a heap of netlists that do.  At
the interpreter's default thresholds the collector rescans that heap
over and over and frees almost nothing.  Inside
:func:`collector_scope` the heap found at entry is frozen out of every
collection and generation 0 collects only every
:data:`GC_GEN0_THRESHOLD` allocations; between units the interpreter's
thresholds apply again, so what the work dropped is still returned.

Scopes nest and overlap across threads: one process-wide depth count,
under a lock, applies the policy at the first entry and restores the
state found there at the last exit.  A freeze the caller made stays,
and the collector's enabled flag is never touched.
"""

from __future__ import annotations

import contextlib
import gc
import threading
from typing import Iterator, Optional, Tuple

#: the collector's generation-0 threshold inside a scope (the
#: interpreter default is 700)
GC_GEN0_THRESHOLD = 200_000

_lock = threading.Lock()
_depth = 0
#: at the first entry: the thresholds found and whether it froze
_entered: Optional[Tuple[Tuple[int, ...], bool]] = None


@contextlib.contextmanager
def collector_scope() -> Iterator[None]:
    """Run the body under the unit-of-work collector policy.

    The first entry records ``gc.get_threshold()``, freezes the heap
    unless something is frozen already, and raises the generation-0
    threshold; the last exit restores the thresholds and unfreezes
    only what it froze, after an exception too.
    """
    global _depth, _entered
    with _lock:
        if _depth == 0:
            thresholds = gc.get_threshold()
            froze = gc.get_freeze_count() == 0
            if froze:
                gc.freeze()
            gc.set_threshold(GC_GEN0_THRESHOLD, *thresholds[1:])
            _entered = (thresholds, froze)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                thresholds, froze = _entered
                _entered = None
                gc.set_threshold(*thresholds)
                if froze:
                    gc.unfreeze()
