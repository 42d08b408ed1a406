"""Flow execution: the engine that runs a stage graph.

The :class:`FlowEngine` runs a :class:`~repro.engine.graph.FlowGraph`:

- **keys** -- each stage gets a content-addressed key chaining the
  graph name, stage name/version, its params and the fingerprints of
  its inputs (root inputs content-hashed, derived inputs identified by
  the producing stage's key, Merkle style);
- **cache** -- with an :class:`~repro.engine.cache.ArtifactCache`
  attached, a key match loads the stage's artifacts from disk instead
  of running it (status ``cached``);
- **order** -- stages run one at a time on the calling thread, in
  the graph's topological order (insertion order breaks ties); stage
  bodies are CPU-bound Python, so threads would only take turns;
- **robustness** -- graceful degradation: a failed stage is recorded
  (journal + result) and its dependents are skipped, but every
  artifact produced by the healthy part of the graph is still
  returned.  A cache entry whose sidecar no longer loads is evicted
  and the graph runs once more.

An initial artifact may be a :class:`~repro.engine.cache.DeferredArtifact`:
its own fingerprint keys the run, and it is computed only if a stage
that reads it runs.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..netlist.core import Module
from ..obs import metrics, trace
from ..obs.context import current
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

    def __getitem__(self, key):
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
    #: seconds ``ArtifactCache.put`` took to store the outputs (0 on a
    #: hit and when the cache is off)
    put: float = 0.0
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
            r for r in self.records.values() if r.status is StageStatus.FAILED
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


class _RunState:
    """Bookkeeping of one pass over a graph."""

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
        self.artifacts: ArtifactMap = ArtifactMap(initial)
        self.records: Dict[str, StageRecord] = {}
        self.fingerprints: Dict[str, str] = {}
        use_cache = engine.cache is not None
        # a re-run reuses the first run's root fingerprints: stages may
        # have rewritten the initial module in place since
        self.roots = roots or {
            name: _root_fingerprint(name, value, use_cache)
            for name, value in initial.items()
        }
        self.fingerprints.update(self.roots)

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

    def run_stage(self, stage: Stage) -> None:
        """Skip ``stage``, answer it from the cache, or run its body on
        the calling thread; then record it."""
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
            return

        cache = self.engine.cache
        use_cache = cache is not None
        key = self.stage_key(stage) if use_cache else None
        fingerprint_base = key or f"raw:{self.graph.name}:{stage.name}"
        for artifact in stage.outputs:
            self.fingerprints[artifact] = f"{fingerprint_base}#{artifact}"
        # the disposition is decided at the lookup: a stage that then
        # fails still missed, and one that was never looked up is "off"
        disposition = "off"
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
                    metrics=_module_metrics(cached),
                )
                self._settle(stage, record, outputs=cached)
                return
            metrics.counter("engine.cache.misses").inc()
            disposition = "miss"

        profiler = current().profiler
        start = time.perf_counter()
        cpu_start = time.thread_time()
        try:
            # the stage span roots the trace subtree for everything the
            # stage function does: in-stage instrumentation (grouping,
            # DDG, STA, ...) nests under it, so engine timings and
            # fine-grained spans share one trace tree.  Span, profile
            # and journal duration all start before the inputs load, so
            # each charges a deferred input or sidecar load to the stage
            with trace.span(
                "stage:" + stage.name, stage=stage.name, graph=self.graph.name
            ), (
                profiler.stage(stage.name, self.graph.name)
                if profiler.enabled
                else contextlib.nullcontext()
            ):
                outputs = stage.call(
                    {k: self.artifacts[k] for k in stage.inputs}
                )
        except Exception as exc:
            metrics.counter("engine.stage.errors").inc()
            record = StageRecord(
                stage.name,
                StageStatus.FAILED,
                duration=time.perf_counter() - start,
                cpu=time.thread_time() - cpu_start,
                key=key,
                cache=disposition,
                error=exc,
                error_text=f"{type(exc).__name__}: {exc}",
            )
            self._settle(stage, record, outputs=None)
            return
        cpu = time.thread_time() - cpu_start
        duration = time.perf_counter() - start
        put = 0.0
        if use_cache:
            put_start = time.perf_counter()
            cache.put(key, outputs)
            put = time.perf_counter() - put_start
        record = StageRecord(
            stage.name,
            StageStatus.OK,
            duration=duration,
            cpu=cpu,
            put=put,
            key=key,
            cache=disposition,
            metrics=_module_metrics(outputs),
        )
        self._settle(stage, record, outputs=outputs)

    def _settle(
        self,
        stage: Stage,
        record: StageRecord,
        outputs: Optional[Dict[str, Any]],
    ) -> None:
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
                put=round(record.put, 6),
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
    """The orchestrator binding cache and journal to graph runs."""

    def __init__(
        self,
        cache: Optional[ArtifactCache] = None,
        journal: Optional[RunJournal] = None,
    ):
        self.cache = cache
        self.journal = journal
        #: one result per run; only the last keeps its artifacts, so a
        #: reused engine does not pin every netlist it has converted
        self.results: List[FlowResult] = []

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
        if self.results:
            self.results[-1] = replace(self.results[-1], artifacts={})
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
                cache="on" if self.cache is not None else "off",
            )
        start = time.perf_counter()
        state = _RunState(self, graph, initial, label, roots)
        with trace.span("run:" + label, graph=graph.name) as run_span:
            for stage in graph.topological_order():
                state.run_stage(stage)
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
