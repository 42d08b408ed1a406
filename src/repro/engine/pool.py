"""Process-pool fan-out for CPU-bound, order-preserving map work.

The :class:`~repro.engine.executor.FlowEngine` runs its stages one at
a time on the calling thread: stage bodies are CPU-bound Python, which
the GIL would serialise on threads anyway.  Real parallelism comes from
inside a stage, where thousands of identical work items (Monte-Carlo
chip sampling, per-chip simulations, STA corners) are independent:
:func:`parallel_map` fans such items out over a
``concurrent.futures.ProcessPoolExecutor``.

Guarantees:

- **order-preserving** -- results come back in item order, so callers
  that derive per-item determinism from the item itself (e.g. per-chip
  seeds) get bit-identical output with any worker count, including the
  serial fallback;
- **graceful degradation** -- ``jobs <= 1``, tiny workloads, platforms
  without ``fork``, or a pool failure (unpicklable payloads, broken
  workers) all fall back to a plain serial loop in the calling process;
- **attributable failures** -- an exception raised by ``fn`` surfaces
  as a :class:`PoolItemError` naming the originating item index (with
  the original exception chained and on ``.original``), identically on
  the serial and the pool path;
- **bounded memory** -- ``max_pending`` caps how many items are in
  flight at once, so a producer feeding a huge iterable through the
  pool (the service queue's backpressure case) never materialises every
  pending future at the same time.

``fn`` must be a module-level function (it crosses the process
boundary by pickle).
"""

from __future__ import annotations

import collections
import concurrent.futures
import multiprocessing
import pickle
from concurrent.futures.process import BrokenProcessPool
import os
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from ..obs import metrics

T = TypeVar("T")
R = TypeVar("R")

#: below this many items the pool start-up cost outweighs the fan-out
_MIN_POOL_ITEMS = 4


class PoolItemError(RuntimeError):
    """An item's ``fn`` call failed; names the originating index."""

    def __init__(self, index: int, original: BaseException):
        super().__init__(
            f"parallel_map item {index} failed: "
            f"{type(original).__name__}: {original}"
        )
        self.index = index
        self.original = original


def default_jobs() -> int:
    """Worker count used when ``jobs`` is ``None`` (the CPU count)."""
    return os.cpu_count() or 1


def _serial_map(fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
    results: List[R] = []
    for index, item in enumerate(items):
        try:
            results.append(fn(item))
        except Exception as exc:
            raise PoolItemError(index, exc) from exc
    return results


def _call_indexed(task: Tuple[Callable[[T], R], int, T]):
    """Worker shim: run one item, report failure as a value.

    Exceptions come back as ``(False, (index, exc))`` instead of
    propagating, so the parent can raise a :class:`PoolItemError` that
    names the item -- and so one bad item cannot be confused with a
    pool infrastructure failure.
    """
    fn, index, item = task
    try:
        return True, fn(item)
    except Exception as exc:
        return False, (index, exc)


def _raise_item_error(index: int, exc: BaseException) -> None:
    raise PoolItemError(index, exc) from exc


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: Optional[int] = None,
    chunksize: Optional[int] = None,
    max_pending: Optional[int] = None,
) -> List[R]:
    """Map ``fn`` over ``items`` on a process pool, preserving order.

    ``jobs=None`` uses every CPU; ``jobs<=1`` runs serially in-process.
    ``max_pending`` bounds the number of in-flight items (backpressure);
    ``None`` submits everything up front via ``pool.map``.  The serial
    path and both pool paths produce identical result lists, and a
    failing item raises the same :class:`PoolItemError` on all of them.
    """
    work = list(items)
    if jobs is None:
        jobs = default_jobs()
    if jobs <= 1 or len(work) < _MIN_POOL_ITEMS:
        return _serial_map(fn, work)
    try:
        # fork keeps start-up cheap and inherits loaded modules; on
        # platforms without it (Windows) stay serial rather than pay
        # spawn's re-import cost for every worker
        context = multiprocessing.get_context("fork")
    except ValueError:
        return _serial_map(fn, work)
    workers = min(jobs, len(work))
    tasks = [(fn, index, item) for index, item in enumerate(work)]
    try:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        ) as pool:
            if max_pending is None:
                if chunksize is None:
                    chunksize = max(1, len(work) // (workers * 4))
                outcomes = list(
                    pool.map(_call_indexed, tasks, chunksize=chunksize)
                )
            else:
                outcomes = _windowed_map(
                    pool, tasks, max(workers, int(max_pending))
                )
        results: List[R] = []
        for ok, payload in outcomes:
            if not ok:
                _raise_item_error(*payload)
            results.append(payload)
        metrics.counter("engine.pool.items").inc(len(work))
        metrics.counter("engine.pool.runs").inc()
        return results
    except PoolItemError:
        raise
    except (
        BrokenProcessPool,
        pickle.PicklingError,
        OSError,
        TypeError,
        AttributeError,
    ):
        # pool could not be created or the payload could not cross the
        # process boundary: degrade to the serial loop (same results)
        metrics.counter("engine.pool.fallbacks").inc()
        return _serial_map(fn, work)


def _windowed_map(pool, tasks, window: int):
    """Submit at most ``window`` tasks at a time, collecting in order."""
    outcomes = []
    pending: "collections.deque" = collections.deque()
    for task in tasks:
        if len(pending) >= window:
            outcomes.append(pending.popleft().result())
        pending.append(pool.submit(_call_indexed, task))
    while pending:
        outcomes.append(pending.popleft().result())
    return outcomes
