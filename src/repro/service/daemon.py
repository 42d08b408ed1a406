"""The desync-as-a-service daemon: jobs in, flow results out.

One :class:`ServiceDaemon` owns

- a :class:`~repro.service.queue.JobQueue` of worker threads, each
  executing one desynchronization flow per job on its own
  :class:`~repro.engine.executor.FlowEngine`;
- ONE shared :class:`~repro.engine.cache.ArtifactCache` threaded
  through every per-job engine, so identical stage work is done once
  across all jobs ever submitted (the cross-job cache-sharing model --
  size-capped and advisory-locked, see DESIGN.md);
- per-job JSONL journals (``<run_dir>/jobs/<id>.jsonl``, append mode)
  plus a daemon-level journal of submissions and settlements;
- a metrics registry re-exported over ``/metrics`` (JSON, or the
  Prometheus text exposition): jobs by state, queue depth, cache hit
  rate, per-stage latency histograms;
- per-job trace correlation: every job runs in its own
  :class:`~repro.obs.context.Context` -- the daemon's registry, a trace
  ID and span tracer (ring bounded, exported over
  ``GET /jobs/<id>/trace``), plus a profiler for ``profile`` jobs --
  entered on the worker thread and retained in one LRU bounded by
  ``max_traces``.

Lifecycle: jobs that raise are settled ``failed`` without touching the
daemon (crash isolation); :meth:`drain` stops intake and waits for
in-flight flows; :meth:`close` drains and stops the workers.
"""

from __future__ import annotations

import logging
import os
import threading
import uuid
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from ..engine.cache import ArtifactCache
from ..engine.executor import FlowEngine
from ..engine.journal import RunJournal
from ..obs.context import Context, use
from ..obs.export import profile_document, trace_document
from ..obs.metrics import MetricsRegistry
from ..obs.prof import Profiler
from ..obs.trace import Tracer
from .jobs import JobSpec, execute_job, job_key, result_payload
from .queue import Job, JobQueue, JobState, QueueClosed, QueueFull

log = logging.getLogger("repro.service")

#: wall-seconds buckets for per-stage flow latency (imports are ~ms,
#: ladder characterisation can run to minutes on big libraries)
STAGE_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1, 2, 5, 15, 60, 300,
)

#: live eco sessions kept per daemon, LRU (a session pins four
#: netlists -- the input copy, two timed snapshots and the result --
#: plus warm STA graphs; an evicted session is rebuilt from its job
#: chain on demand)
ECO_SESSIONS = 4

#: per-stage profiles a ``profile`` job's profiler retains
MAX_PROFILE_STAGES = 512

#: ``# HELP`` strings for the daemon's own metric families
_METRIC_HELP = {
    "service.jobs.submitted": "jobs accepted by the daemon",
    "service.jobs.deduped": "submissions answered by an existing job",
    "service.jobs.done": "jobs settled successfully",
    "service.jobs.failed": "jobs settled with an error",
    "service.jobs.cancelled": "jobs cancelled while queued",
    "service.jobs.eco": "incremental (eco) jobs executed",
    "flow.incr.reused": "incremental re-flow: stages reused, by stage",
    "flow.incr.recomputed": "incremental re-flow: stages recomputed, by stage",
    "service.queue.depth": "jobs currently queued",
    "service.jobs.active": "jobs queued or running",
    "service.cache.hit_rate": "shared artifact cache hit rate",
    "repro.jobs": "jobs by lifecycle state",
    "service.job.latency_s": "end-to-end job wall time (seconds)",
    "service.queue.wait_s": "submit-to-start queue wait (seconds)",
    "service.stage_runs": "per-stage executions by cache disposition",
    "service.trace.spans_dropped": "spans dropped by per-job ring buffers",
    "service.profiles.captured": "jobs run with --profile capture",
}


class ServiceDaemon:
    """Long-running desynchronization service over the stage engine."""

    def __init__(
        self,
        run_dir: str = ".repro_service",
        cache_dir: Optional[str] = None,
        workers: int = 2,
        max_pending: Optional[int] = 256,
        cache_max_bytes: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        max_trace_spans: int = 5000,
        max_traces: int = 256,
    ):
        self.run_dir = os.path.abspath(run_dir)
        os.makedirs(self.run_dir, exist_ok=True)
        self.cache = ArtifactCache(
            cache_dir or os.path.join(self.run_dir, "cache"),
            max_bytes=cache_max_bytes,
        )
        self.registry = (
            registry if registry is not None else MetricsRegistry()
        )
        for name, help_text in _METRIC_HELP.items():
            self.registry.describe(name, help_text)
        # pre-create the settle counters so /metrics exposes them at 0
        # from the start: a scraper's rate() over a counter that is
        # never incremented then reads 0 instead of a missing series
        for state in ("done", "failed", "cancelled"):
            self.registry.counter(f"service.jobs.{state}")
        self.journal = RunJournal(
            os.path.join(self.run_dir, "daemon.jsonl"), append=True
        )
        self._lock = threading.Lock()
        self._by_key: Dict[str, str] = {}
        self._libraries: Dict[str, Any] = {}
        self._closed = False
        # eco support: live IncrementalSession per completed job, LRU
        # bounded by ECO_SESSIONS
        self._sessions: "OrderedDict[str, Any]" = OrderedDict()
        # per-job observability: job id -> the job's Context, newest
        # last; one LRU bounded by ``max_traces`` so a daemon fielding
        # jobs forever stays flat in memory
        self._job_observers: "OrderedDict[str, Context]" = OrderedDict()
        self._max_traces = max(1, int(max_traces))
        self._max_trace_spans = max_trace_spans
        self._evicted_traces = 0
        self.queue = JobQueue(
            workers=workers,
            max_pending=max_pending,
            on_settle=self._on_settle,
        )
        self.journal.record(
            "daemon_start",
            run_dir=self.run_dir,
            workers=workers,
            cache_dir=self.cache.directory,
            cache_max_bytes=cache_max_bytes,
        )

    # -- library + journal plumbing ------------------------------------
    def _library(self, name: str):
        """One library object per variant, shared by every job.

        Sharing the instance keeps ``library_fingerprint`` memoised and
        the in-process ladder/STA memos warm across jobs.
        """
        with self._lock:
            library = self._libraries.get(name)
            if library is None:
                from ..liberty.core9 import core9_hs, core9_ll

                library = core9_hs() if name == "hs" else core9_ll()
                self._libraries[name] = library
            return library

    def job_journal_path(self, job_id: str) -> str:
        return os.path.join(self.run_dir, "jobs", f"{job_id}.jsonl")

    def _library_name(self, spec: JobSpec) -> str:
        """Eco jobs inherit their library from the root of the chain."""
        seen = set()
        while spec.parent is not None and spec.parent not in seen:
            seen.add(spec.parent)
            job = self.queue.get(spec.parent)
            if job is None:
                break
            spec = job.meta["spec"]
        return spec.library

    # -- submission ----------------------------------------------------
    def submit(
        self, spec: JobSpec, reuse: bool = True
    ) -> Tuple[Job, bool]:
        """Queue one desynchronization job.

        Returns ``(job, deduped)``: with ``reuse`` (the default), a
        submission whose job key matches a queued, running or completed
        job is answered with that job instead of flowing again.
        ``reuse=False`` forces a fresh run -- which still shares every
        stage artifact through the daemon cache.
        """
        spec.validate()
        if spec.parent is not None and self.queue.get(spec.parent) is None:
            from .jobs import JobError

            raise JobError(f"unknown parent job {spec.parent!r}")
        library = self._library(self._library_name(spec))
        key = job_key(spec, library)
        with self._lock:
            if self._closed:
                raise QueueClosed("daemon is shut down")
            if reuse:
                existing_id = self._by_key.get(key)
                existing = (
                    self.queue.get(existing_id) if existing_id else None
                )
                if existing is not None and existing.state in (
                    JobState.QUEUED,
                    JobState.RUNNING,
                    JobState.DONE,
                ):
                    self.registry.counter("service.jobs.deduped").inc()
                    self.journal.record(
                        "job_deduped", job=existing.id, key=key[:12]
                    )
                    return existing, True
            job_id = uuid.uuid4().hex[:12]
            self._by_key[key] = job_id

        trace_id = uuid.uuid4().hex[:16]
        try:
            job = self.queue.submit(
                lambda: self._run_job(job_id, spec, library, trace_id),
                job_id=job_id,
                priority=spec.priority,
                meta={"spec": spec, "key": key, "trace_id": trace_id},
            )
        except (QueueFull, QueueClosed):
            with self._lock:
                if self._by_key.get(key) == job_id:
                    del self._by_key[key]
            raise
        self.registry.counter("service.jobs.submitted").inc()
        self._observe_queue()
        self.journal.record(
            "job_submitted",
            job=job_id,
            key=key[:12],
            trace_id=trace_id,
            design=spec.design or "verilog",
            library=spec.library,
            priority=spec.priority,
        )
        log.info(
            "job %s submitted (design=%s, key=%s)",
            job_id,
            spec.design or "verilog",
            key[:12],
        )
        return job, False

    # -- execution -----------------------------------------------------
    def _run_job(self, job_id: str, spec: JobSpec, library, trace_id: str):
        """Worker body: one flow run on a per-job engine + journal.

        The job's :class:`~repro.obs.context.Context` -- this daemon's
        registry, the job's tracer and its optional profiler -- is
        entered *for this worker thread only*, so concurrent jobs never
        see each other's spans and two daemons in one process never
        count each other's jobs.  The per-job journal carries the trace
        ID on every line; the tracer mirrors its spans into the same
        journal.
        """
        journal = RunJournal(
            self.job_journal_path(job_id), append=True, trace_id=trace_id
        )
        tracer = Tracer(
            journal=journal,
            max_spans=self._max_trace_spans,
            trace_id=trace_id,
        )
        observers: Dict[str, Any] = {
            "tracer": tracer, "registry": self.registry,
        }
        if spec.profile:
            observers["profiler"] = Profiler(
                enabled=True,
                max_profiles=MAX_PROFILE_STAGES,
                profile_id=trace_id,
            )
            self.registry.counter("service.profiles.captured").inc()
        context = Context(**observers)
        self._retain(job_id, context)
        try:
            with use(context):
                if spec.parent is not None:
                    payload = self._run_eco_job(job_id, spec)
                else:
                    payload = self._run_flow_job(spec, library, journal)
            payload["trace_id"] = trace_id
            return payload
        finally:
            if tracer.dropped:
                self.registry.counter(
                    "service.trace.spans_dropped"
                ).inc(tracer.dropped)
            journal.close()

    def _run_flow_job(
        self, spec: JobSpec, library, journal: RunJournal
    ) -> Dict[str, Any]:
        """One full flow on a per-job engine sharing the daemon cache."""
        engine = FlowEngine(cache=self.cache, journal=journal)
        result = execute_job(spec, library, engine)
        run = engine.results[-1]
        for record in run.records.values():
            self.registry.histogram(
                f"service.stage.{record.name}",
                buckets=STAGE_SECONDS_BUCKETS,
            ).observe(record.duration)
            self.registry.counter(
                "service.stage_runs",
                labels={"stage": record.name, "cache": record.cache},
            ).inc()
        payload = result_payload(result, include_verilog=True)
        payload["stages"] = {
            "total": len(run.records),
            "cached": len(run.cached_stages()),
        }
        payload["flow_wall_time"] = round(run.wall_time, 6)
        return payload

    # -- eco jobs ------------------------------------------------------
    def _run_eco_job(self, job_id: str, spec: JobSpec) -> Dict[str, Any]:
        """Incremental re-flow of a parent job's result.

        The edits land on the parent's live
        :class:`~repro.flow.incremental.IncrementalSession`; after a
        successful apply the session is re-keyed to this job (its state
        now reflects the child result), so eco jobs chain.  A failed
        apply drops the session -- the next reference rebuilds it from
        the job chain, which is always possible because every spec in
        the chain is retained.
        """
        from ..flow.incremental import NetlistEdit

        edits = [NetlistEdit.from_dict(record) for record in spec.edits]
        session = self._session_for(spec.parent)
        outcome = session.apply(edits)
        self._checkin_session(job_id, session)
        self.registry.counter("service.jobs.eco").inc()
        payload = result_payload(outcome.result, include_verilog=True)
        payload["mode"] = outcome.mode
        payload["eco"] = {
            "parent": spec.parent,
            "path": outcome.path,
            "reused": dict(outcome.reused),
            "region_status": dict(outcome.region_status),
        }
        return payload

    def _session_for(self, job_id: str):
        """Exclusive checkout of the session holding ``job_id``'s state.

        Popped from the LRU under the lock so two concurrent eco jobs
        never mutate one session; rebuilt (root flow + edit replay)
        when evicted or never materialised.
        """
        from ..flow.incremental import IncrementalSession, NetlistEdit
        from .jobs import JobError, resolve_module

        with self._lock:
            session = self._sessions.pop(job_id, None)
        if session is not None:
            return session
        job = self.queue.get(job_id)
        if job is None:
            raise JobError(f"unknown parent job {job_id!r}")
        if job.state is not JobState.DONE:
            raise JobError(
                f"parent job {job_id} is {job.state.value}, not done"
            )
        spec: JobSpec = job.meta["spec"]
        if spec.parent is not None:
            session = self._session_for(spec.parent)
            session.apply(
                [NetlistEdit.from_dict(record) for record in spec.edits]
            )
            return session
        library = self._library(spec.library)
        session = IncrementalSession(library, spec.options)
        session.start(resolve_module(spec, library))
        return session

    def _checkin_session(self, job_id: str, session) -> None:
        with self._lock:
            self._sessions[job_id] = session
            self._sessions.move_to_end(job_id)
            while len(self._sessions) > ECO_SESSIONS:
                self._sessions.popitem(last=False)

    def _on_settle(self, job: Job) -> None:
        self.registry.counter(f"service.jobs.{job.state.value}").inc()
        if job.wall_time is not None:
            self.registry.histogram(
                "service.job.latency_s", buckets=STAGE_SECONDS_BUCKETS
            ).observe(job.wall_time)
        if job.started_at is not None:
            self.registry.histogram(
                "service.queue.wait_s", buckets=STAGE_SECONDS_BUCKETS
            ).observe(max(0.0, job.started_at - job.submitted_at))
        self._observe_queue()
        self.journal.record(
            "job_settled",
            job=job.id,
            state=job.state.value,
            trace_id=job.meta.get("trace_id"),
            error=job.error,
            wall_time=round(job.wall_time, 6) if job.wall_time else None,
        )
        if job.state is JobState.FAILED:
            log.warning("job %s failed: %s", job.id, job.error)
        else:
            log.info("job %s settled: %s", job.id, job.state.value)

    def _observe_queue(self) -> None:
        counts = self.queue.counts()
        self.registry.gauge("service.queue.depth").set(counts["depth"])
        self.registry.gauge("service.jobs.active").set(
            counts["running"] + counts["queued"]
        )
        # labelled per-state gauges, the Prometheus-native shape:
        # repro_jobs{state="queued"} etc.
        for state in JobState:
            self.registry.gauge(
                "repro.jobs", labels={"state": state.value}
            ).set(counts[state.value])

    # -- per-job context retention --------------------------------------
    def _retain(self, job_id: str, context: Context) -> None:
        with self._lock:
            self._job_observers[job_id] = context
            while len(self._job_observers) > self._max_traces:
                self._job_observers.popitem(last=False)
                self._evicted_traces += 1

    def _retained(self, job_id: str) -> Optional[Context]:
        with self._lock:
            return self._job_observers.get(job_id)

    def trace_retention(self) -> Dict[str, int]:
        """Occupancy of the per-job LRU: jobs, spans and evictions."""
        with self._lock:
            tracers = [
                context.tracer for context in self._job_observers.values()
            ]
            evicted = self._evicted_traces
        return {
            "jobs": len(tracers),
            "spans": sum(len(tracer) for tracer in tracers),
            "evicted": evicted,
        }

    # -- inspection ----------------------------------------------------
    def job_status(self, job_id: str) -> Dict[str, Any]:
        job = self.queue.get(job_id)
        if job is None:
            raise KeyError(job_id)
        spec: JobSpec = job.meta["spec"]
        status: Dict[str, Any] = {
            "id": job.id,
            "state": job.state.value,
            "key": job.meta["key"],
            "trace_id": job.meta.get("trace_id"),
            "design": spec.design or "verilog",
            "library": spec.library,
            "priority": job.priority,
            "cancel_requested": job.cancel_requested,
            "submitted_at": job.submitted_at,
            "started_at": job.started_at,
            "finished_at": job.finished_at,
            "wall_time": job.wall_time,
            "error": job.error,
        }
        # bounded-retention honesty: how many spans the job's ring
        # buffer clipped, and whether a profile is retained to fetch
        context = self._retained(job_id)
        if context is not None and context.tracer.dropped:
            status["trace_dropped"] = context.tracer.dropped
        status["profiled"] = (
            context is not None and context.profiler.enabled
        )
        if job.state is JobState.DONE and isinstance(job.result, dict):
            status["stages"] = job.result.get("stages")
        return status

    def job_result(
        self, job_id: str, include_verilog: bool = False
    ) -> Dict[str, Any]:
        job = self.queue.wait(job_id, timeout=0)
        if not job.state.terminal:
            raise LookupError(f"job {job_id} is {job.state.value}")
        if job.state is not JobState.DONE:
            raise LookupError(
                f"job {job_id} {job.state.value}: {job.error or 'no result'}"
            )
        payload = dict(job.result)
        if not include_verilog:
            payload.pop("verilog", None)
        return payload

    def list_jobs(self) -> List[Dict[str, Any]]:
        return [self.job_status(job.id) for job in self.queue.jobs()]

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The ``/metrics`` document: service, cache and registry state."""
        counts = self.queue.counts()
        cache_stats = self.cache.stats.as_dict()
        self.registry.gauge("service.cache.hit_rate").set(
            cache_stats["hit_rate"]
        )
        return {
            "service": {
                "jobs": counts,
                "accepting": self.queue.accepting,
                "cache": cache_stats,
                "run_dir": self.run_dir,
            },
            "metrics": self.registry.snapshot(),
        }

    def health(self) -> Dict[str, Any]:
        return {
            "status": "draining" if not self.queue.accepting else "ok",
            "jobs": self.queue.counts(),
        }

    def job_trace(self, job_id: str) -> Dict[str, Any]:
        """One job's spans as a Perfetto-loadable trace document.

        Raises ``KeyError`` for an unknown job and ``LookupError`` when
        no trace is retained (job still queued, or the tracer aged out
        of the bounded LRU).
        """
        job = self.queue.get(job_id)
        if job is None:
            raise KeyError(job_id)
        context = self._retained(job_id)
        if context is None:
            raise LookupError(
                f"no trace retained for job {job_id} "
                "(job not started, or trace evicted)"
            )
        document = trace_document(context.tracer)
        document["otherData"].update(
            job=job_id,
            state=job.state.value,
            design=job.meta["spec"].design or "verilog",
        )
        return document

    def job_profile(self, job_id: str) -> Dict[str, Any]:
        """One job's captured profile: hot tables plus speedscope.

        Raises ``KeyError`` for an unknown job and ``LookupError`` when
        no profile is retained (job not submitted with ``profile``, or
        the profiler aged out of the bounded LRU).
        """
        job = self.queue.get(job_id)
        if job is None:
            raise KeyError(job_id)
        context = self._retained(job_id)
        if context is None or not context.profiler.enabled:
            raise LookupError(
                f"no profile retained for job {job_id} (submit with "
                "profile=true, or the profile was evicted)"
            )
        document = profile_document(context.profiler, name=f"job {job_id}")
        document.update(
            job=job_id,
            state=job.state.value,
            design=job.meta["spec"].design or "verilog",
            trace_id=job.meta.get("trace_id"),
        )
        return document

    # -- lifecycle -----------------------------------------------------
    def cancel(self, job_id: str) -> bool:
        return self.queue.cancel(job_id)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown step 1: finish what is queued, take no more."""
        self.journal.record("daemon_drain")
        log.info("draining: waiting for in-flight jobs")
        return self.queue.drain(timeout)

    def close(self, timeout: Optional[float] = None) -> bool:
        """Drain, stop workers and close the daemon journal."""
        with self._lock:
            if self._closed:
                return True
            self._closed = True
        drained = self.queue.shutdown(timeout)
        self.journal.record("daemon_stop", drained=drained)
        self.journal.close()
        return drained

    def __enter__(self) -> "ServiceDaemon":
        return self

    def __exit__(self, *exc) -> None:
        self.close(timeout=10.0)
