"""Flow execution: serial and thread-pool executors plus the engine.

The :class:`FlowEngine` schedules a :class:`~repro.engine.graph.FlowGraph`:

- **keys** -- each stage gets a content-addressed key chaining the
  graph name, stage name/version, its params and the fingerprints of
  its inputs (root inputs content-hashed, derived inputs identified by
  the producing stage's key, Merkle style);
- **cache** -- with an :class:`~repro.engine.cache.ArtifactCache`
  attached, a key match loads the stage's artifacts from disk instead
  of running it (status ``cached``);
- **parallelism** -- ``jobs > 1`` runs independent stages on a
  ``concurrent.futures`` thread pool; ``jobs == 1`` is the
  deterministic serial fallback executing stages in topological
  insertion order on the calling thread;
- **robustness** -- per-stage timeout and retry policy, and graceful
  degradation: a failed stage is recorded (journal + result) and its
  dependents are skipped, but every artifact produced by the healthy
  part of the graph is still returned.  A cache entry whose sidecar no
  longer loads is evicted and the graph runs once more.

An initial artifact may be a :class:`~repro.engine.cache.DeferredArtifact`:
its own fingerprint keys the run, and it is computed only if a stage
that reads it runs.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..netlist.core import Module
from ..obs import metrics, prof, trace
from .cache import (
    ArtifactCache,
    CacheEntryError,
    DeferredArtifact,
    LazyArtifact,
    key_hasher,
    stable_hash,
)
from .graph import FlowGraph, Stage
from .journal import RunJournal


#: handles an :class:`ArtifactMap` resolves on first keyed access
_PENDING = (LazyArtifact, DeferredArtifact)


class ArtifactMap(dict):
    """Artifact store that materialises lazy cache loads on access.

    Cache hits park :class:`~repro.engine.cache.LazyArtifact` handles
    here, and a caller may pass a
    :class:`~repro.engine.cache.DeferredArtifact` as an initial
    artifact; the first ``[]``/``get`` for such a key loads the value
    and replaces the handle, so artifacts nothing reads are never
    deserialised or computed.  ``items()``/``values()`` expose raw
    handles -- use keyed access.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._lazy_lock = threading.Lock()

    def __getitem__(self, key):
        value = super().__getitem__(key)
        if isinstance(value, _PENDING):
            with self._lazy_lock:
                value = super().__getitem__(key)
                if isinstance(value, _PENDING):
                    value = value.load()
                    super().__setitem__(key, value)
        return value

    def get(self, key, default=None):
        try:
            return self[key]
        except KeyError:
            return default


class StageStatus(Enum):
    OK = "ok"
    CACHED = "cached"
    FAILED = "failed"
    TIMEOUT = "timeout"
    SKIPPED = "skipped"


class FlowError(RuntimeError):
    """Raised when a flow run is asked to surface a stage failure."""


@dataclass
class StageRecord:
    """What happened to one stage during one run."""

    name: str
    status: StageStatus
    duration: float = 0.0
    #: CPU seconds of the thread that ran the stage body (0 on a hit)
    cpu: float = 0.0
    attempts: int = 0
    key: Optional[str] = None
    cache: str = "off"  # "hit" | "miss" | "off"
    error: Optional[BaseException] = None
    error_text: Optional[str] = None
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status in (StageStatus.OK, StageStatus.CACHED)


@dataclass
class FlowResult:
    """Artifacts plus per-stage records for one engine run."""

    name: str
    artifacts: Dict[str, Any] = field(default_factory=dict)
    records: Dict[str, StageRecord] = field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return all(record.ok for record in self.records.values())

    def failed_stages(self) -> List[StageRecord]:
        return [
            r
            for r in self.records.values()
            if r.status in (StageStatus.FAILED, StageStatus.TIMEOUT)
        ]

    def cached_stages(self) -> List[str]:
        return [
            name
            for name, r in self.records.items()
            if r.status is StageStatus.CACHED
        ]

    def raise_first_failure(self, allow: Iterable[str] = ()) -> None:
        """Re-raise the first stage failure not listed in ``allow``.

        Skipped stages downstream of an allowed failure are tolerated
        too -- that is the graceful-degradation contract.
        """
        allowed = set(allow)
        for record in self.records.values():
            if record.status is StageStatus.SKIPPED:
                continue
            if record.ok or record.name in allowed:
                continue
            if record.error is not None:
                raise record.error
            raise FlowError(
                f"stage {record.name!r} {record.status.value}: "
                f"{record.error_text or 'no detail'}"
            )

    def summary(self) -> Dict[str, Any]:
        counts: Dict[str, int] = {}
        for record in self.records.values():
            counts[record.status.value] = counts.get(record.status.value, 0) + 1
        return {
            "flow": self.name,
            "stages": len(self.records),
            "wall_time": round(self.wall_time, 6),
            **counts,
        }


def _module_metrics(outputs: Dict[str, Any]) -> Dict[str, Any]:
    """Cell/net counts for every netlist artifact a stage produced."""
    metrics: Dict[str, Any] = {}
    for key, value in outputs.items():
        if isinstance(value, Module):
            metrics[key] = {
                "cells": len(value.instances),
                "nets": len(value.nets),
            }
    return metrics


class SerialExecutor:
    """Deterministic in-thread execution in topological order.

    Timeouts cannot interrupt a running stage without threads; the
    serial executor enforces them *post hoc* -- a stage that overran
    its budget is recorded as timed out and its result discarded.
    """

    jobs = 1

    def run(self, engine: "FlowEngine", state: "_RunState") -> None:
        for stage in state.order:
            state.process_stage_inline(stage)


class ThreadExecutor:
    """``concurrent.futures`` thread pool over the ready frontier."""

    def __init__(self, jobs: int):
        self.jobs = max(2, int(jobs))

    def run(self, engine: "FlowEngine", state: "_RunState") -> None:
        pending: Dict[concurrent.futures.Future, Tuple[Stage, float, Optional[float]]] = {}
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=self.jobs
        ) as pool:
            while True:
                # launch everything ready; cache hits resolve inline and
                # may unlock more stages, hence the inner loop
                launched = True
                while launched:
                    launched = False
                    for stage in state.take_ready():
                        disposition = state.begin_stage(stage)
                        if disposition == "run":
                            start = time.perf_counter()
                            deadline = (
                                start + stage.timeout
                                if stage.timeout is not None
                                else None
                            )
                            future = pool.submit(
                                state.attempt_stage, stage
                            )
                            pending[future] = (stage, start, deadline)
                        launched = True
                if not pending:
                    break
                timeout = None
                now = time.perf_counter()
                deadlines = [d for (_s, _t, d) in pending.values() if d]
                if deadlines:
                    timeout = max(0.0, min(deadlines) - now)
                done, _ = concurrent.futures.wait(
                    pending,
                    timeout=timeout,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                now = time.perf_counter()
                for future in done:
                    stage, start, _deadline = pending.pop(future)
                    state.finish_stage(stage, future, now - start)
                for future, (stage, start, deadline) in list(pending.items()):
                    if deadline is not None and now >= deadline:
                        # the worker thread cannot be killed; abandon it
                        pending.pop(future)
                        future.cancel()
                        state.record_timeout(stage, now - start)


class _RunState:
    """Mutable bookkeeping shared between engine and executor."""

    def __init__(
        self,
        engine: "FlowEngine",
        graph: FlowGraph,
        initial: Dict[str, Any],
        label: str,
        roots: Optional[Dict[str, str]] = None,
    ):
        self.engine = engine
        self.graph = graph
        self.label = label
        # the effective tracer/profiler at run entry (a service job's
        # scoped per-job instances, or the process singletons); pool
        # threads re-activate the scope so parallel stages trace and
        # profile into the right job
        self.tracer = trace.get_tracer()
        self.profiler = prof.get_profiler()
        self.order = graph.topological_order()
        self.artifacts: ArtifactMap = ArtifactMap(initial)
        self.records: Dict[str, StageRecord] = {}
        self.fingerprints: Dict[str, str] = {}
        self.lock = threading.Lock()
        self._scheduled: Set[str] = set()
        self._pending_key: Dict[str, Optional[str]] = {}
        use_cache = engine.cache is not None and engine.cache.enabled
        # a re-run reuses the first run's root fingerprints: stages may
        # have rewritten the initial module in place since
        self.roots = roots or {
            name: _root_fingerprint(name, value, use_cache)
            for name, value in initial.items()
        }
        self.fingerprints.update(self.roots)

    # -- scheduling ----------------------------------------------------
    def take_ready(self) -> List[Stage]:
        """Stages whose dependencies are all settled, in topo order."""
        ready: List[Stage] = []
        with self.lock:
            for stage in self.order:
                if stage.name in self._scheduled:
                    continue
                deps = self.graph.dependencies(stage)
                if all(d in self.records for d in deps):
                    self._scheduled.add(stage.name)
                    ready.append(stage)
        return ready

    def _deps_failed(self, stage: Stage) -> Optional[str]:
        for dep in sorted(self.graph.dependencies(stage)):
            record = self.records.get(dep)
            if record is not None and not record.ok:
                return dep
        return None

    def stage_key(self, stage: Stage) -> str:
        hasher = key_hasher()
        hasher.update(f"{self.graph.name}|{stage.name}|{stage.version}".encode())
        hasher.update(stable_hash(stage.params).encode())
        for artifact in sorted(stage.inputs):
            hasher.update(artifact.encode())
            hasher.update(self.fingerprints[artifact].encode())
        return hasher.hexdigest()

    # -- lifecycle -----------------------------------------------------
    def begin_stage(self, stage: Stage) -> str:
        """Resolve skip/cache-hit inline; return "run" to execute."""
        blocker = self._deps_failed(stage)
        if blocker is not None:
            self._settle(
                stage,
                StageRecord(
                    stage.name,
                    StageStatus.SKIPPED,
                    error_text=f"dependency {blocker!r} did not complete",
                ),
                outputs=None,
            )
            return "done"

        cache = self.engine.cache
        use_cache = cache is not None and cache.enabled and stage.cacheable
        key = self.stage_key(stage) if use_cache else None
        self._register_outputs(stage, key)
        if use_cache:
            with trace.span(
                "cache:" + stage.name, stage=stage.name, graph=self.graph.name
            ) as cache_span:
                cached = cache.get_lazy(key)
                cache_span.set("hit", cached is not None)
            if cached is not None:
                metrics.counter("engine.cache.hits").inc()
                # deferred sidecars stay unloaded unless consumed, so
                # module metrics only cover the inline artifacts here
                record = StageRecord(
                    stage.name,
                    StageStatus.CACHED,
                    key=key,
                    cache="hit",
                    attempts=0,
                    metrics=_module_metrics(cached),
                )
                self._settle(stage, record, outputs=cached)
                return "done"
        self._pending_key[stage.name] = key
        return "run"

    def _register_outputs(self, stage: Stage, key: Optional[str]) -> None:
        fingerprint_base = key or f"raw:{self.graph.name}:{stage.name}"
        with self.lock:
            for artifact in stage.outputs:
                self.fingerprints[artifact] = f"{fingerprint_base}#{artifact}"

    def attempt_stage(
        self, stage: Stage
    ) -> Tuple[Dict[str, Any], int, float]:
        """Run the stage with its retry policy on the calling thread;
        returns (outputs, tries, thread CPU seconds)."""
        attempts = 0
        retries = max(stage.retries, self.engine.default_retries)
        profiler = self.profiler
        cpu_start = time.thread_time()
        with trace.scoped(self.tracer):
            while True:
                attempts += 1
                try:
                    with self.lock:
                        inputs = {k: self.artifacts[k] for k in stage.inputs}
                    # the stage span roots the trace subtree for everything
                    # the stage function does: in-stage instrumentation
                    # (grouping, DDG, STA, ...) nests under it, so engine
                    # timings and fine-grained spans share one trace tree
                    with trace.span(
                        "stage:" + stage.name,
                        stage=stage.name,
                        graph=self.graph.name,
                        attempt=attempts,
                    ):
                        if profiler.enabled:
                            # scoped so kernel counter hooks on this
                            # thread attribute to this stage's profile
                            with prof.scoped(profiler), profiler.stage(
                                stage.name,
                                self.graph.name,
                                attempt=attempts,
                            ):
                                outputs = stage.call(inputs)
                        else:
                            outputs = stage.call(inputs)
                    return outputs, attempts, time.thread_time() - cpu_start
                except Exception as exc:
                    metrics.counter("engine.stage.errors").inc()
                    if attempts > retries:
                        exc.__engine_attempts__ = attempts  # type: ignore[attr-defined]
                        exc.__engine_cpu__ = (  # type: ignore[attr-defined]
                            time.thread_time() - cpu_start
                        )
                        raise

    def process_stage_inline(self, stage: Stage) -> None:
        """Serial path: begin, run on the calling thread, settle."""
        if self.begin_stage(stage) != "run":
            return
        start = time.perf_counter()
        try:
            outputs, attempts, cpu = self.attempt_stage(stage)
        except Exception as exc:
            self._record_failure(stage, exc, time.perf_counter() - start)
            return
        duration = time.perf_counter() - start
        if stage.timeout is not None and duration > stage.timeout:
            self.record_timeout(stage, duration)
            return
        self._record_success(stage, outputs, attempts, duration, cpu)

    def finish_stage(
        self,
        stage: Stage,
        future: "concurrent.futures.Future",
        duration: float,
    ) -> None:
        """Thread path: settle a completed future."""
        exc = future.exception()
        if exc is not None:
            self._record_failure(stage, exc, duration)
            return
        outputs, attempts, cpu = future.result()
        self._record_success(stage, outputs, attempts, duration, cpu)

    # -- terminal states -----------------------------------------------
    def _record_success(
        self,
        stage: Stage,
        outputs: Dict[str, Any],
        attempts: int,
        duration: float,
        cpu: float,
    ) -> None:
        key = self._pending_key.get(stage.name)
        cache = self.engine.cache
        use_cache = cache is not None and cache.enabled and stage.cacheable
        if use_cache and key is not None:
            metrics.counter("engine.cache.misses").inc()
            cache.put(key, outputs)
        record = StageRecord(
            stage.name,
            StageStatus.OK,
            duration=duration,
            cpu=cpu,
            attempts=attempts,
            key=key,
            cache="miss" if use_cache else "off",
            metrics=_module_metrics(outputs),
        )
        self._settle(stage, record, outputs=outputs)

    def _record_failure(
        self, stage: Stage, exc: BaseException, duration: float
    ) -> None:
        attempts = getattr(exc, "__engine_attempts__", 1)
        record = StageRecord(
            stage.name,
            StageStatus.FAILED,
            duration=duration,
            cpu=getattr(exc, "__engine_cpu__", 0.0),
            attempts=attempts,
            key=self._pending_key.get(stage.name),
            cache="off" if self.engine.cache is None else "miss",
            error=exc,
            error_text=f"{type(exc).__name__}: {exc}",
        )
        self._settle(stage, record, outputs=None)

    def record_timeout(self, stage: Stage, duration: float) -> None:
        record = StageRecord(
            stage.name,
            StageStatus.TIMEOUT,
            duration=duration,
            attempts=1,
            key=self._pending_key.get(stage.name),
            error_text=(
                f"stage exceeded its {stage.timeout:.3f}s timeout "
                f"after {duration:.3f}s"
            ),
        )
        self._settle(stage, record, outputs=None)

    def _settle(
        self,
        stage: Stage,
        record: StageRecord,
        outputs: Optional[Dict[str, Any]],
    ) -> None:
        with self.lock:
            if outputs:
                self.artifacts.update(outputs)
            self.records[stage.name] = record
        journal = self.engine.journal
        if journal is not None:
            journal.record(
                "stage_end",
                run=self.label,
                stage=stage.name,
                status=record.status.value,
                duration=round(record.duration, 6),
                cpu=round(record.cpu, 6),
                attempts=record.attempts,
                cache=record.cache,
                key=record.key[:12] if record.key else None,
                error=record.error_text,
                metrics=record.metrics or None,
            )


def _root_fingerprint(name: str, value: Any, use_cache: bool) -> str:
    if not use_cache:
        return f"raw:{name}"
    if isinstance(value, DeferredArtifact):
        return value.fingerprint
    return stable_hash(value)


def _damaged_entry(
    state: _RunState, load: Sequence[str]
) -> Optional[CacheEntryError]:
    """The first unloadable cache entry a run hit, loading ``load``."""
    for record in state.records.values():
        if isinstance(record.error, CacheEntryError):
            return record.error
    try:
        for name in load:
            state.artifacts.get(name)
    except CacheEntryError as exc:
        return exc
    return None


class FlowEngine:
    """The orchestrator binding cache, journal and an executor."""

    def __init__(
        self,
        cache: Optional[ArtifactCache] = None,
        journal: Optional[RunJournal] = None,
        jobs: int = 1,
        default_retries: int = 0,
    ):
        self.cache = cache
        self.journal = journal
        self.jobs = max(1, int(jobs))
        self.default_retries = max(0, int(default_retries))
        self.results: List[FlowResult] = []

    def _executor(self):
        if self.jobs <= 1:
            return SerialExecutor()
        return ThreadExecutor(self.jobs)

    def run(
        self,
        graph: FlowGraph,
        initial: Optional[Dict[str, Any]] = None,
        label: Optional[str] = None,
        load: Sequence[str] = (),
    ) -> FlowResult:
        """Execute ``graph`` from the ``initial`` artifacts.

        An initial artifact given as a
        :class:`~repro.engine.cache.DeferredArtifact` is keyed by its
        fingerprint and computed only when a stage reading it runs.
        ``load`` names artifacts the caller is about to read; they are
        loaded before this returns.  When a cache entry's sidecar cannot
        be loaded -- by a stage reading its inputs, or by ``load`` --
        the entry is evicted and the graph runs once more, which
        recomputes what the entry held; a second damaged entry costs a
        second re-run, and so on, each entry at most once.
        """
        initial = initial or {}
        label = label or graph.name
        graph.validate(initial)
        result, state = self._run_once(graph, initial, label)
        evicted: Set[str] = set()
        while self.cache is not None:
            damaged = _damaged_entry(state, load)
            if damaged is None or damaged.key in evicted:
                break
            evicted.add(damaged.key)
            self.cache.evict(damaged.key)
            if self.journal is not None:
                self.journal.record(
                    "cache_evict", run=label, key=damaged.key[:12],
                    error=str(damaged),
                )
            result, state = self._run_once(
                graph, initial, label, roots=state.roots
            )
        self.results.append(result)
        return result

    def _run_once(
        self,
        graph: FlowGraph,
        initial: Dict[str, Any],
        label: str,
        roots: Optional[Dict[str, str]] = None,
    ) -> Tuple[FlowResult, _RunState]:
        if self.journal is not None:
            self.journal.record(
                "run_start",
                run=label,
                graph=graph.name,
                stages=len(graph),
                jobs=self.jobs,
                cache="on"
                if (self.cache is not None and self.cache.enabled)
                else "off",
            )
        start = time.perf_counter()
        state = _RunState(self, graph, initial, label, roots)
        with trace.span(
            "run:" + label, graph=graph.name, jobs=self.jobs
        ) as run_span:
            self._executor().run(self, state)
        wall = time.perf_counter() - start
        run_span.set("stages", len(state.records))
        metrics.counter("engine.runs").inc()
        result = FlowResult(
            name=label,
            artifacts=state.artifacts,
            records=state.records,
            wall_time=wall,
        )
        if self.journal is not None:
            cached = len(result.cached_stages())
            failed = len(result.failed_stages())
            self.journal.record(
                "run_end",
                run=label,
                duration=round(wall, 6),
                stages=len(result.records),
                cached=cached,
                failed=failed,
                cache_stats=self.cache.stats.as_dict()
                if self.cache is not None
                else None,
            )
        return result, state

    def run_many(
        self,
        runs: Sequence[Tuple[FlowGraph, Dict[str, Any]]],
        labels: Optional[Sequence[str]] = None,
    ) -> List[FlowResult]:
        """Execute several independent graphs as one batch.

        With ``jobs > 1`` the batch fans out across a pool (each graph
        still schedules its own stages with the engine's settings);
        serial engines fall back to deterministic sequential order.
        """
        labels = list(labels) if labels is not None else [g.name for g, _ in runs]
        if self.jobs <= 1 or len(runs) <= 1:
            return [
                self.run(graph, initial, label)
                for (graph, initial), label in zip(runs, labels)
            ]
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=min(self.jobs, len(runs))
        ) as pool:
            futures = [
                pool.submit(self.run, graph, initial, label)
                for (graph, initial), label in zip(runs, labels)
            ]
            return [future.result() for future in futures]
