"""Tests for the :mod:`repro.engine` flow-orchestration subsystem.

Covers the cache-key semantics the engine promises (any option field,
library variant or netlist edit invalidates exactly the affected
stages), the cache disposition of every stage record, graceful
degradation of a failing P&R stage, and the JSONL run journal.
"""

import dataclasses
import enum
import hashlib
import re

import pytest

from repro.desync import DesyncOptions, Drdesync
from repro.designs import figure22_circuit, pipeline3
from repro.engine import (
    ArtifactCache,
    FlowEngine,
    FlowGraph,
    FlowGraphError,
    RunJournal,
    Stage,
    StageStatus,
    read_journal,
    engine_stats,
    stable_hash,
)
from repro.liberty import core9_hs, core9_ll
from repro.obs import Context, MetricsRegistry, use

DESYNC_STAGES = (
    "import", "group", "ffsub", "ddg", "delays", "network", "constraints"
)


@pytest.fixture(scope="module")
def lib():
    return core9_hs()


def make_engine(tmp_path, journal=None):
    return FlowEngine(
        cache=ArtifactCache(str(tmp_path / "cache")), journal=journal
    )


def run_desync(lib, engine, module, options=None):
    tool = Drdesync(lib, engine=engine)
    return tool.run(module, options or DesyncOptions())


def cache_states(engine):
    """stage name -> 'hit' | 'miss' | 'off' for the engine's last run."""
    run = engine.results[-1]
    return {name: record.cache for name, record in run.records.items()}


# ---------------------------------------------------------------------------
# stable_hash


def test_stable_hash_dict_order_invariant():
    assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})
    assert stable_hash({"a": 1}) != stable_hash({"a": 2})


def test_stable_hash_module_clone_equal(lib):
    module = pipeline3(lib)
    assert stable_hash(module) == stable_hash(module.clone())


def test_stable_hash_module_mutation_differs(lib):
    module = pipeline3(lib)
    before = stable_hash(module)
    instance = next(iter(module.instances.values()))
    instance.cell = "BUFX2" if instance.cell != "BUFX2" else "BUFX1"
    assert stable_hash(module) != before


# ---------------------------------------------------------------------------
# cache semantics


def test_identical_rerun_hits_every_stage(lib, tmp_path):
    engine = make_engine(tmp_path)
    module = pipeline3(lib)
    first = run_desync(lib, engine, module.clone())
    assert set(cache_states(engine).values()) == {"miss"}

    second = run_desync(lib, engine, module.clone())
    states = cache_states(engine)
    assert set(states) == set(DESYNC_STAGES)
    assert set(states.values()) == {"hit"}
    assert second.summary() == first.summary()
    assert second.export_verilog() == first.export_verilog()


def test_option_change_invalidates_only_affected_stages(lib, tmp_path):
    engine = make_engine(tmp_path)
    module = pipeline3(lib)
    run_desync(lib, engine, module.clone(), DesyncOptions(delay_margin=0.10))
    run_desync(lib, engine, module.clone(), DesyncOptions(delay_margin=0.25))
    states = cache_states(engine)
    # delay_margin only parameterises the network and constraint stages
    assert states["network"] == "miss"
    assert states["constraints"] == "miss"
    for name in ("import", "group", "ffsub", "ddg", "delays"):
        assert states[name] == "hit", f"{name} should not depend on margin"


def test_grouping_change_invalidates_downstream(lib, tmp_path):
    engine = make_engine(tmp_path)
    module = figure22_circuit(lib)
    run_desync(lib, engine, module.clone(), DesyncOptions(grouping="auto"))
    run_desync(lib, engine, module.clone(), DesyncOptions(grouping="single"))
    states = cache_states(engine)
    assert states["import"] == "hit"
    assert states["delays"] == "hit"  # ladder depends on library only
    for name in ("group", "ffsub", "ddg", "network", "constraints"):
        assert states[name] == "miss"


def test_library_variant_invalidates(lib, tmp_path):
    engine = make_engine(tmp_path)
    module = pipeline3(lib)
    run_desync(lib, engine, module.clone())
    run_desync(core9_ll(), engine, pipeline3(core9_ll()).clone())
    states = cache_states(engine)
    assert states["import"] == "miss"
    assert states["delays"] == "miss"


def test_library_fingerprint_follows_added_cells():
    """A library fingerprinted before ``Drdesync`` adds the controller
    cells fingerprints as a fresh library given the same cells."""
    from repro.engine import library_fingerprint

    early = core9_hs()
    stale = library_fingerprint(early)
    Drdesync(early)
    fresh = core9_hs()
    Drdesync(fresh)
    assert sorted(early.cells) == sorted(fresh.cells)
    assert library_fingerprint(early) != stale
    assert library_fingerprint(early) == library_fingerprint(fresh)


def test_netlist_edit_invalidates_from_import(lib, tmp_path):
    engine = make_engine(tmp_path)
    module = pipeline3(lib)
    run_desync(lib, engine, module.clone())

    edited = module.clone()
    instance = next(
        i for i in edited.instances.values() if i.cell == "XOR2X1"
    )
    instance.cell = "XOR2X2"  # one gate resized
    run_desync(lib, engine, edited)
    states = cache_states(engine)
    assert states["import"] == "miss"
    assert states["group"] == "miss"
    assert states["delays"] == "hit"  # ladder characterisation unaffected


def test_no_cache_engine_records_off(lib, tmp_path):
    engine = FlowEngine()  # no cache at all
    run_desync(lib, engine, pipeline3(lib))
    assert set(cache_states(engine).values()) == {"off"}


# ---------------------------------------------------------------------------
# stage runs


def test_failed_stage_keeps_partial_artifacts():
    def boom(_):
        raise RuntimeError("backend fell over")

    graph = FlowGraph("partial")
    graph.add(Stage("ok", lambda _: 1, outputs=("a",)))
    graph.add(Stage("boom", boom, inputs=("a",), outputs=("b",)))
    result = FlowEngine().run(graph)
    assert result.artifacts["a"] == 1
    assert "b" not in result.artifacts
    assert result.records["boom"].status is StageStatus.FAILED
    assert "backend fell over" in result.records["boom"].error_text
    # tolerated failure: caller may allow it explicitly
    result.raise_first_failure(allow=("boom",))
    with pytest.raises(RuntimeError):
        result.raise_first_failure()


@pytest.mark.parametrize(
    "cached, disposition",
    [(False, "off"), (True, "miss")],
    ids=["disabled-cache", "missed"],
)
def test_failed_stage_reports_the_lookup_it_made(
    tmp_path, cached, disposition
):
    """A failed stage's ``cache`` field says whether the cache was
    consulted (an engine without a cache never looks), and the run's
    registry counts every miss the cache counts."""

    def boom(_):
        raise RuntimeError("stage fell over")

    graph = FlowGraph("disposition")
    graph.add(Stage("boom", boom, outputs=("b",)))
    cache = ArtifactCache(str(tmp_path / "cache")) if cached else None
    registry = MetricsRegistry()
    with use(Context(registry=registry)):
        result = FlowEngine(cache=cache).run(graph)
    record = result.records["boom"]
    assert record.status is StageStatus.FAILED
    assert record.cache == disposition
    misses = registry.snapshot()["counters"].get("engine.cache.misses", 0)
    cache_misses = cache.stats.misses if cache is not None else 0
    assert misses == cache_misses == (1 if disposition == "miss" else 0)


def test_span_profile_and_journal_cover_the_input_load(tmp_path):
    """A deferred input is computed inside the stage that reads it, and
    the stage's span, its profile and its journal duration all start
    before the inputs load: the three records cover one interval."""
    import time

    from repro.engine import DeferredArtifact
    from repro.obs import Profiler, Tracer

    def generate():
        time.sleep(0.05)
        return 1

    graph = FlowGraph("interval")
    graph.add(Stage(
        "import", lambda a: a["module.input"] + 1,
        inputs=("module.input",), outputs=("module.imported",),
    ))
    journal = RunJournal()
    tracer, profiler = Tracer(), Profiler(enabled=True, memory=False)
    with use(Context(tracer=tracer, profiler=profiler)):
        FlowEngine(
            cache=ArtifactCache(str(tmp_path / "cache")), journal=journal
        ).run(graph, initial={"module.input": DeferredArtifact(generate, "g")})
    [span] = [s for s in tracer.finished() if s.name == "stage:import"]
    [profile] = profiler.profiles()
    [end] = journal.select("stage_end", stage="import")
    assert span.duration >= 0.05
    assert profile.wall_s >= 0.05
    assert end["duration"] >= 0.05


def test_pnr_failure_degrades_gracefully(lib, tmp_path, monkeypatch):
    from repro.flow import implementation as impl

    def failing_backend(*args, **kwargs):
        raise RuntimeError("P&R blew up")

    monkeypatch.setattr(impl, "run_backend", failing_backend)
    journal = RunJournal(str(tmp_path / "run.jsonl"))
    engine = FlowEngine(journal=journal)
    result = impl.implement_synchronous(
        figure22_circuit(lib), lib, engine=engine
    )
    journal.close()
    # post-synthesis report survives, layout is marked failed
    assert result.post_synthesis.cells > 0
    assert result.post_layout is None
    assert "pnr" in result.failures
    assert "P&R blew up" in result.failures["pnr"]
    events = read_journal(str(tmp_path / "run.jsonl"))
    failed = [
        e for e in events
        if e["event"] == "stage_end" and e["status"] == "failed"
    ]
    assert any(e["stage"].endswith("pnr") for e in failed)


# ---------------------------------------------------------------------------
# graph validation


def test_graph_rejects_duplicate_producer():
    graph = FlowGraph("dup")
    graph.add(Stage("a", lambda _: 1, outputs=("x",)))
    with pytest.raises(FlowGraphError):
        graph.add(Stage("b", lambda _: 2, outputs=("x",)))


def test_graph_rejects_cycles():
    graph = FlowGraph("cycle")
    graph.add(Stage("a", lambda d: 1, inputs=("y",), outputs=("x",)))
    graph.add(Stage("b", lambda d: 2, inputs=("x",), outputs=("y",)))
    with pytest.raises(FlowGraphError):
        graph.validate({})


def test_graph_requires_initial_artifacts():
    graph = FlowGraph("init")
    graph.add(Stage("a", lambda d: 1, inputs=("seed",), outputs=("x",)))
    with pytest.raises(FlowGraphError):
        FlowEngine().run(graph, initial={})


# ---------------------------------------------------------------------------
# journal and stats


def test_journal_round_trip(lib, tmp_path):
    path = str(tmp_path / "run.jsonl")
    journal = RunJournal(path)
    engine = FlowEngine(journal=journal)
    run_desync(lib, engine, pipeline3(lib))
    journal.close()
    events = read_journal(path)
    kinds = [e["event"] for e in events]
    assert kinds[0] == "run_start" and kinds[-1] == "run_end"
    stages = [e["stage"] for e in events if e["event"] == "stage_end"]
    assert set(stages) == set(DESYNC_STAGES)
    assert all("ts" in e for e in events)


def test_engine_stats(lib, tmp_path):
    engine = make_engine(tmp_path)
    run_desync(lib, engine, pipeline3(lib))
    stats = engine_stats(engine.results, engine.cache)
    assert stats["runs"] == 1
    assert set(stats["stages"]) == set(DESYNC_STAGES)
    assert stats["cache"]["misses"] == len(DESYNC_STAGES)


def test_stage_cpu_time_in_records_journal_and_report(lib, tmp_path):
    """Each stage record and ``stage_end`` event carries the CPU seconds
    of the thread that ran the stage body, and the seconds the cache
    took to store its outputs; a cache hit ran and stored nothing, and
    a run without a cache stores nothing."""
    journal = RunJournal()
    engine = make_engine(tmp_path, journal=journal)
    run_desync(lib, engine, pipeline3(lib))
    cold = engine.results[-1]
    assert all(record.cpu >= 0.0 for record in cold.records.values())
    assert sum(record.cpu for record in cold.records.values()) > 0.0
    assert all(record.put > 0.0 for record in cold.records.values())
    run_desync(lib, engine, pipeline3(lib))
    warm = engine.results[-1]
    assert all(record.cpu == 0.0 for record in warm.records.values())
    assert all(record.put == 0.0 for record in warm.records.values())
    ends = journal.select("stage_end")
    assert len(ends) == 2 * len(DESYNC_STAGES)
    assert all(event["cpu"] >= 0.0 for event in ends)
    assert all(event["cpu"] == 0.0 for event in ends if event["cache"] == "hit")
    assert all(
        (event["put"] > 0.0) == (event["cache"] == "miss") for event in ends
    )
    uncached = RunJournal()
    run_desync(lib, FlowEngine(journal=uncached), pipeline3(lib))
    ends = uncached.select("stage_end")
    assert ends and all(event["put"] == 0.0 for event in ends)


def test_reused_engine_keeps_only_the_last_runs_artifacts(lib):
    """A reused ``Drdesync`` pins no netlist of an earlier run: the
    engine keeps every run's records but only the last one's
    artifacts."""
    import gc
    import weakref

    tool = Drdesync(lib)
    refs = []
    for _ in range(5):
        module = pipeline3(lib)
        refs.append(weakref.ref(module))
        tool.run(module)
    del module
    gc.collect()
    assert [ref() is None for ref in refs] == [True] * 4 + [False]
    results = tool.engine.results
    assert len(results) == 5
    assert all(not result.artifacts for result in results[:-1])
    assert all(set(result.records) == set(DESYNC_STAGES) for result in results)
    assert engine_stats(results)["runs"] == 5


# ---------------------------------------------------------------------------
# damaged and stale cache entries


#: (CACHE_SCHEMA, digest of the layouts of every class the cached flows
#: pickle); see test_layout_stamp_covers_every_pickled_class
RECORDED_LAYOUTS = ("3", "a6ba06f7bf8fd867")


def _hint_text(hint) -> str:
    """An annotation as text, alike on every supported Python."""
    hint = getattr(hint, "__forward_arg__", hint)
    if isinstance(hint, type):
        return hint.__qualname__
    return re.sub(r"ForwardRef\('([^']*)'[^)]*\)", r"\1", str(hint))


def _layout_of(cls, attributes) -> str:
    """One pickled class's layout: its bases and its typed fields.

    ``attributes`` are what was seen pickled: for a plain class its
    instance attributes, for a class with its own ``__reduce__`` the
    reconstructor and the format constant that opens the state it
    emits (see the collector in
    ``test_layout_stamp_covers_every_pickled_class``).
    """
    if issubclass(cls, enum.Enum):
        fields = [repr(member.value) for member in cls]
    elif dataclasses.is_dataclass(cls):
        fields = [
            f"{fld.name}:{_hint_text(fld.type)}"
            for fld in dataclasses.fields(cls)
        ]
    elif "_fields" in vars(cls) or "__slots__" in vars(cls):
        names = vars(cls).get("_fields") or cls.__slots__
        hints = vars(cls).get("__annotations__", {})
        fields = [f"{name}:{_hint_text(hints.get(name, ''))}" for name in names]
    else:
        fields = sorted(attributes)
    bases = "<".join(base.__qualname__ for base in cls.__mro__)
    return f"{cls.__module__}.{bases}({','.join(fields)})"


def test_layout_stamp_covers_every_pickled_class(lib, tmp_path, monkeypatch):
    """The cache keys carry no class layout: a change to the layout of
    any repro class a cache entry pickles must come with a
    ``CACHE_SCHEMA`` bump, so entries written before it are never read.
    The classes are those pickled by the CLI conversion graph,
    ``implement_desynchronized`` and a scan ``implement_comparison``."""
    import io
    import pickle

    from repro.cli import main as cli_main
    from repro.engine.cache import CACHE_SCHEMA
    from repro.flow import implement_desynchronized
    from repro.flow.implementation import implement_comparison
    from repro.netlist import Netlist, save_verilog

    seen = {}

    class Collector(pickle.Pickler):
        def reducer_override(self, obj):
            attributes = seen.setdefault(type(obj), set())
            if "__reduce__" in vars(type(obj)):
                # stamped by what it emits, not by its attributes: a
                # new layout of its state must come with a new format
                rebuild, state = obj.__reduce__()[:2]
                attributes.add(
                    f"{rebuild.__module__}.{rebuild.__qualname__}"
                    f"/{state[0]}"
                )
            elif hasattr(obj, "__dict__"):
                attributes.update(vars(obj))
            return NotImplemented

    put = ArtifactCache.put

    def spy(self, key, value):
        Collector(io.BytesIO(), pickle.HIGHEST_PROTOCOL).dump(value)
        return put(self, key, value)

    monkeypatch.setattr(ArtifactCache, "put", spy)
    netlist = Netlist()
    netlist.add_module(figure22_circuit(lib))
    design = tmp_path / "fig22.v"
    save_verilog(netlist, str(design))
    assert cli_main([
        str(design), "-o", str(tmp_path / "out.v"), "--blif",
        str(tmp_path / "out.blif"), "--cache-dir", str(tmp_path / "cli"),
        "--quiet",
    ]) == 0
    implement_desynchronized(
        figure22_circuit(lib), lib, engine=make_engine(tmp_path / "desync")
    )
    implement_comparison(
        "fig22", figure22_circuit(lib), figure22_circuit(lib), lib,
        with_scan=True, engine=make_engine(tmp_path / "compare"),
    )
    layouts = sorted(
        _layout_of(cls, attributes)
        for cls, attributes in seen.items()
        if cls.__module__.startswith("repro.")
    )
    assert layouts
    digest = hashlib.sha256("\n".join(layouts).encode()).hexdigest()[:16]
    assert (CACHE_SCHEMA, digest) == RECORDED_LAYOUTS, (
        "the layout of a class the cache pickles changed: bump "
        "CACHE_SCHEMA in repro/engine/cache.py and record "
        f"({CACHE_SCHEMA!r}, {digest!r}) as RECORDED_LAYOUTS, its new "
        "value after the bump\n" + "\n".join(layouts)
    )


def test_schema_bump_misses_every_stage(lib, tmp_path, monkeypatch):
    """A ``CACHE_SCHEMA`` bump moves every key: no stage hits an entry
    written before it, and none of those entries is even read."""
    from repro.engine import cache as cache_mod

    run_desync(lib, make_engine(tmp_path), pipeline3(lib))
    monkeypatch.setattr(cache_mod, "CACHE_SCHEMA", "bumped")
    engine = make_engine(tmp_path)
    run_desync(lib, engine, pipeline3(lib))
    assert set(cache_states(engine).values()) == {"miss"}
    assert engine.cache.stats.rejected == 0
    engine = make_engine(tmp_path)
    run_desync(lib, engine, pipeline3(lib))
    assert set(cache_states(engine).values()) == {"hit"}


def test_unusable_manifests_are_rejected_misses(tmp_path):
    import pickle

    from repro.engine.cache import MANIFEST_FORMAT

    cache = ArtifactCache(str(tmp_path / "cache"))
    keys = [f"{n:02d}" + "a" * 62 for n in range(4)]
    for key in keys:
        assert cache.put(key, {"x": [key]})
    old_format, torn, bad_blob, _good = (cache._path(key) for key in keys)
    with open(old_format, "rb") as handle:
        manifest = pickle.load(handle)
    assert manifest["format"] == MANIFEST_FORMAT
    # a manifest as written before the format moved to 3
    manifest.update(format=2, layout="0" * 16)
    with open(old_format, "wb") as handle:
        pickle.dump(manifest, handle)
    with open(torn, "r+b") as handle:
        handle.truncate(10)
    with open(bad_blob, "rb") as handle:
        manifest = pickle.load(handle)
    # an inline artifact naming a class that no longer exists
    manifest["inline"]["x"] = b"\x80\x04cnosuchmodule_xyz\nT\n."
    with open(bad_blob, "wb") as handle:
        pickle.dump(manifest, handle)

    found = [cache.get(key) for key in keys]
    assert found == [None, None, None, {"x": [keys[3]]}]
    assert cache.get("ff" + "f" * 62) is None  # absent: a plain miss
    assert (cache.stats.hits, cache.stats.misses) == (1, 4)
    assert cache.stats.rejected == 3


def test_damaged_sidecar_raises_typed_error_and_evicts(tmp_path, monkeypatch):
    from repro.engine import cache as cache_mod
    from repro.engine.cache import CacheEntryError

    monkeypatch.setattr(cache_mod, "INLINE_LIMIT", 0)
    cache = ArtifactCache(str(tmp_path / "cache"))
    key, other = "ab" + "1" * 62, "ab" + "2" * 62
    assert cache.put(key, {"big": list(range(100)), "more": "x"})
    assert cache.put(other, {"big": 1})
    lazy = cache.get_lazy(key)["big"]
    with open(lazy.path, "r+b") as handle:
        handle.truncate(5)
    with pytest.raises(CacheEntryError) as caught:
        lazy.load()
    assert caught.value.key == key
    assert cache.evict(key) == 3  # the manifest and both sidecars
    assert cache.get(key) is None
    assert cache.get(other) == {"big": 1}
    assert cache.stats.evictions == 1


def test_sidecar_loads_with_the_collector_paused(lib, tmp_path):
    """Unpickling a netlist sidecar frees nothing, so it runs without
    cyclic collections; the enabled flag it found is restored after a
    good load and after a torn one."""
    import gc

    from repro.designs import dlx_core
    from repro.engine.cache import CacheEntryError, LazyArtifact

    module = dlx_core(lib, registers=8, multiplier=False, width=16)
    cache = ArtifactCache(str(tmp_path / "cache"))
    key = "cd" + "3" * 62
    assert cache.put(key, {"module": module})

    def sidecar():
        lazy = cache.get_lazy(key)["module"]
        assert isinstance(lazy, LazyArtifact)
        return lazy

    collections = []

    def spy(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    gc.enable()
    gc.set_threshold(700, 10, 10)  # the interpreter default
    gc.callbacks.append(spy)
    try:
        loaded = sidecar().load()
        assert collections == []
        assert gc.isenabled()
        assert len(loaded.instances) == len(module.instances)

        gc.disable()
        sidecar().load()
        assert not gc.isenabled(), "the load switched the collector on"
        gc.enable()

        torn = sidecar()
        with open(torn.path, "r+b") as handle:
            handle.truncate(20)
        with pytest.raises(CacheEntryError):
            torn.load()
        assert gc.isenabled()
    finally:
        gc.callbacks.remove(spy)
        gc.set_threshold(*thresholds)
        (gc.enable if enabled else gc.disable)()


def test_engine_reruns_past_damaged_sidecars(lib, tmp_path, monkeypatch):
    """Every sidecar truncated: each is evicted and recomputed once."""
    from repro.engine import cache as cache_mod
    from repro.netlist import write_verilog, Netlist

    def convert(engine):
        module = pipeline3(lib)
        result = run_desync(lib, engine, module)
        netlist = Netlist()
        netlist.add_module(result.module)
        return write_verilog(netlist), result.export_sdc()

    monkeypatch.setattr(cache_mod, "INLINE_LIMIT", 0)
    reference = convert(FlowEngine())
    assert convert(make_engine(tmp_path)) == reference
    sidecars = [
        path for path in (tmp_path / "cache").rglob("*.pkl")
        if "." in path.stem
    ]
    assert sidecars
    for path in sidecars:
        path.write_bytes(path.read_bytes()[:20])
    journal = RunJournal()
    engine = FlowEngine(
        cache=ArtifactCache(str(tmp_path / "cache")), journal=journal
    )
    assert convert(engine) == reference
    evicted = journal.select("cache_evict")
    assert evicted and len(evicted) == engine.cache.stats.evictions
    assert len({event["key"] for event in evicted}) == len(evicted)
    assert len(engine.results) == 1 and engine.results[0].ok


def test_flows_rerun_past_damaged_sidecars(lib, tmp_path, monkeypatch):
    """The implementation flows load what their results read inside the
    engine, so torn sidecars only their results read (P&R's layout and
    reports) are recomputed as well."""
    from repro.engine import cache as cache_mod
    from repro.flow.implementation import implement_comparison
    from repro.netlist import write_verilog, Netlist

    def compare(engine):
        sync, desync, table = implement_comparison(
            "fig22", figure22_circuit(lib), figure22_circuit(lib), lib,
            engine=engine,
        )
        netlists = []
        for impl in (sync, desync):
            netlist = Netlist()
            netlist.add_module(impl.module)
            netlists.append(write_verilog(netlist))
        return netlists, desync.desync.export_sdc(), table.as_dict()

    monkeypatch.setattr(cache_mod, "INLINE_LIMIT", 0)
    reference = compare(FlowEngine())
    assert compare(make_engine(tmp_path)) == reference
    sidecars = list((tmp_path / "cache").rglob("*.*.pkl"))
    assert sidecars
    for path in sidecars:
        path.write_bytes(path.read_bytes()[:20])
    journal = RunJournal()
    engine = FlowEngine(
        cache=ArtifactCache(str(tmp_path / "cache")), journal=journal
    )
    assert compare(engine) == reference
    assert journal.select("cache_evict")
    assert len(engine.results) == 1 and engine.results[0].ok
