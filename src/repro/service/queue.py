"""Priority job queue with a bounded worker pool.

The queue is the scheduling half of the service: it accepts callables
(the daemon binds each one to a flow run), orders them by priority
(FIFO within a priority level), and executes them on a fixed pool of
worker threads, each job to completion on its worker, so at most
``workers`` flows ever run at once.  Per-job it supports cancellation
(queued jobs settle ``cancelled``; a running Python flow cannot be
interrupted, so a cancel request on a running job is recorded and
reported) and crash isolation -- a raising job settles ``failed`` with
the error text while the worker moves on.  There is no server-side
deadline: it could only report a failure early while the flow kept
running; a client bounds its own wait instead
(:meth:`repro.service.client.ServiceClient.wait`).

``max_pending`` is the backpressure knob: submissions beyond that many
queued jobs raise :class:`QueueFull` instead of growing without bound.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional


class JobState(Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


class QueueFull(RuntimeError):
    """Submission rejected: the queue is at its ``max_pending`` bound."""


class QueueClosed(RuntimeError):
    """Submission rejected: the queue is draining or shut down."""


@dataclass
class Job:
    """One unit of queued work and its lifecycle record."""

    id: str
    fn: Callable[[], Any]
    priority: int = 0
    #: caller-owned bag (the daemon parks spec/key/payload here)
    meta: Dict[str, Any] = field(default_factory=dict)
    state: JobState = JobState.QUEUED
    result: Any = None
    error: Optional[str] = None
    cancel_requested: bool = False
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    @property
    def wall_time(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at


class JobQueue:
    """Thread-safe priority queue executing jobs on worker threads."""

    def __init__(
        self,
        workers: int = 2,
        max_pending: Optional[int] = None,
        on_settle: Optional[Callable[[Job], None]] = None,
    ):
        self.workers = max(1, int(workers))
        self.max_pending = max_pending
        self.on_settle = on_settle
        # re-entrant: on_settle hooks fire under the lock and may call
        # back into counts()/get()
        self._lock = threading.RLock()
        self._settled = threading.Condition(self._lock)
        self._available = threading.Condition(self._lock)
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._jobs: Dict[str, Job] = {}
        self._accepting = True
        self._stopping = False
        self._running = 0
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"jobq-worker-{i}", daemon=True
            )
            for i in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission ----------------------------------------------------
    def submit(
        self,
        fn: Callable[[], Any],
        job_id: str,
        priority: int = 0,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Job:
        """Enqueue ``fn``; highest ``priority`` runs first."""
        with self._lock:
            if not self._accepting:
                raise QueueClosed("queue is draining; not accepting jobs")
            if job_id in self._jobs:
                raise ValueError(f"duplicate job id {job_id!r}")
            if (
                self.max_pending is not None
                and self.queued_count_locked() >= self.max_pending
            ):
                raise QueueFull(
                    f"queue holds {self.max_pending} pending jobs"
                )
            job = Job(
                id=job_id,
                fn=fn,
                priority=priority,
                meta=dict(meta or {}),
            )
            self._jobs[job_id] = job
            heapq.heappush(self._heap, (-priority, next(self._seq), job))
            self._available.notify()
            return job

    def queued_count_locked(self) -> int:
        return sum(
            1 for j in self._jobs.values() if j.state is JobState.QUEUED
        )

    # -- inspection ----------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.submitted_at)

    def counts(self) -> Dict[str, int]:
        """Jobs per state plus the queue depth, one consistent snapshot."""
        out = {state.value: 0 for state in JobState}
        with self._lock:
            for job in self._jobs.values():
                out[job.state.value] += 1
        out["depth"] = out[JobState.QUEUED.value]
        return out

    # -- control -------------------------------------------------------
    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; flags (but cannot stop) a running one."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            job.cancel_requested = True
            if job.state is JobState.QUEUED:
                self._settle_locked(job, JobState.CANCELLED, error="cancelled")
                return True
            return False

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until the job settles (or ``timeout`` elapses)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            while not job.state.terminal:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                self._settled.wait(remaining)
            return job

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting jobs; wait for queued+running work to finish.

        Returns True when everything settled within ``timeout``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            self._accepting = False
            while self._heap or self._running:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._settled.wait(remaining)
            return True

    def shutdown(self, timeout: Optional[float] = None) -> bool:
        """Drain, then stop the worker threads."""
        drained = self.drain(timeout)
        with self._lock:
            self._stopping = True
            self._available.notify_all()
        for thread in self._threads:
            thread.join(timeout=1.0)
        return drained

    @property
    def accepting(self) -> bool:
        with self._lock:
            return self._accepting

    # -- execution -----------------------------------------------------
    def _worker(self) -> None:
        while True:
            with self._lock:
                while not self._heap and not self._stopping:
                    self._available.wait()
                if self._stopping and not self._heap:
                    return
                _neg, _seq, job = heapq.heappop(self._heap)
                if job.state is not JobState.QUEUED:
                    continue  # cancelled while queued
                job.state = JobState.RUNNING
                job.started_at = time.time()
                self._running += 1
            try:
                self._execute(job)
            finally:
                with self._lock:
                    self._running -= 1
                    # drain() watches both the heap and the running
                    # count; the settle notification fired before the
                    # count dropped, so wake it again
                    self._settled.notify_all()

    def _execute(self, job: Job) -> None:
        """Run one job to completion on this worker and settle it."""
        try:
            result = job.fn()
        except Exception as exc:  # crash isolation
            self._settle(
                job,
                JobState.FAILED,
                error=f"{type(exc).__name__}: {exc}",
            )
            return
        self._settle(job, JobState.DONE, result=result)

    def _settle(
        self, job: Job, state: JobState, result: Any = None,
        error: Optional[str] = None,
    ) -> None:
        with self._lock:
            self._settle_locked(job, state, result=result, error=error)

    def _settle_locked(
        self, job: Job, state: JobState, result: Any = None,
        error: Optional[str] = None,
    ) -> None:
        if job.state.terminal:
            return  # settle once: on_settle sees each job exactly once
        job.state = state
        job.result = result
        job.error = error
        job.finished_at = time.time()
        self._settled.notify_all()
        if self.on_settle is not None:
            try:
                self.on_settle(job)
            except Exception:
                pass
