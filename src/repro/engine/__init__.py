"""repro.engine -- cached, observable flow orchestration.

The engine models an implementation flow as a DAG of pure-ish stages
exchanging named artifacts, and runs its stages one at a time on the
calling thread with content-addressed caching, a structured JSONL run
journal and graceful degradation (a failed stage skips only its
dependents).  ``Drdesync``, the ``repro.flow`` implementation flows,
the CLI and the benchmark harness all run on it.

Typical use::

    from repro.engine import ArtifactCache, FlowEngine, RunJournal

    engine = FlowEngine(
        cache=ArtifactCache(".repro_cache"),
        journal=RunJournal("run.jsonl"),
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
    StageRecord,
    StageStatus,
)
from .graph import FlowGraph, FlowGraphError, Stage
from .journal import RunJournal, read_journal
from .report import engine_stats, write_engine_stats
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
    "RunJournal",
    "Stage",
    "StageRecord",
    "StageStatus",
    "desync_stages",
    "engine_stats",
    "generation_stage",
    "library_fingerprint",
    "read_journal",
    "stable_hash",
    "write_engine_stats",
]
