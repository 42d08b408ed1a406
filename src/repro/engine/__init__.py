"""repro.engine -- cached, parallel, observable flow orchestration.

The engine models an implementation flow as a DAG of pure-ish stages
exchanging named artifacts, and executes it with content-addressed
caching, optional thread-pool parallelism, a structured JSONL run
journal and per-stage robustness (timeout, retry, graceful
degradation).  ``Drdesync``, the ``repro.flow`` implementation flows,
the CLI and the benchmark harness all run on it.

Typical use::

    from repro.engine import ArtifactCache, FlowEngine, RunJournal

    engine = FlowEngine(
        cache=ArtifactCache(".repro_cache"),
        journal=RunJournal("run.jsonl"),
        jobs=4,
    )
    tool = Drdesync(library, engine=engine)
    result = tool.run(module)          # warm reruns resume from cache
"""

from .cache import (
    CACHE_SCHEMA,
    ArtifactCache,
    CacheStats,
    DeferredArtifact,
    HashError,
    LazyArtifact,
    stable_hash,
)
from .executor import (
    ArtifactMap,
    FlowEngine,
    FlowError,
    FlowResult,
    SerialExecutor,
    StageRecord,
    StageStatus,
    ThreadExecutor,
)
from .graph import FlowGraph, FlowGraphError, Stage
from .journal import RunJournal, read_journal
from .pool import PoolItemError, default_jobs, parallel_map
from .report import engine_stats, render_report, write_engine_stats
from .stages import (
    DESYNC_ARTIFACTS,
    desync_stages,
    generation_stage,
    library_fingerprint,
)

__all__ = [
    "CACHE_SCHEMA",
    "ArtifactCache",
    "ArtifactMap",
    "CacheStats",
    "DeferredArtifact",
    "LazyArtifact",
    "DESYNC_ARTIFACTS",
    "FlowEngine",
    "FlowError",
    "FlowGraph",
    "FlowGraphError",
    "FlowResult",
    "HashError",
    "PoolItemError",
    "RunJournal",
    "SerialExecutor",
    "Stage",
    "StageRecord",
    "StageStatus",
    "ThreadExecutor",
    "default_jobs",
    "desync_stages",
    "engine_stats",
    "generation_stage",
    "parallel_map",
    "library_fingerprint",
    "read_journal",
    "render_report",
    "stable_hash",
    "write_engine_stats",
]
