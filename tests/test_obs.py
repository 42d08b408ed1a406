"""Tests for :mod:`repro.obs` -- tracing, metrics, exporters, logging --
plus the journal robustness fixes that ride along with it."""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import build_argument_parser, main as cli_main, resolve_log_level
from repro.designs import figure22_circuit
from repro.engine.executor import FlowEngine
from repro.engine.graph import FlowGraph, Stage
from repro.engine.journal import RunJournal, read_journal
from repro.engine.report import engine_stats
from repro.liberty import core9_hs
from repro.netlist import Netlist, save_verilog
from repro.obs import (
    NULL_SPAN,
    Context,
    Histogram,
    MetricsRegistry,
    Tracer,
    aggregate_spans,
    chrome_trace_events,
    current,
    metrics,
    phase_times,
    summary_report,
    trace,
    use,
    write_chrome_trace,
    write_metrics,
)


@pytest.fixture(scope="module")
def lib():
    return core9_hs()


# -- tracer ------------------------------------------------------------


def test_nested_spans_parent_depth_path():
    tracer = Tracer()
    with tracer.span("outer", kind="test") as outer:
        with tracer.span("inner") as inner:
            inner.set("k", 1)
    assert inner.parent is outer
    assert inner.depth == 1 and outer.depth == 0
    assert inner.path == "outer/inner"
    assert inner.attrs == {"k": 1}
    assert outer.duration >= inner.duration >= 0.0
    # completion order: inner finishes first
    assert [s.name for s in tracer.finished()] == ["inner", "outer"]
    assert tracer.roots() == [outer]


def test_disabled_tracer_is_noop():
    tracer = Tracer(enabled=False)
    span = tracer.span("anything", x=1)
    assert span is NULL_SPAN
    with span as s:
        s.set("ignored", True)
    assert len(tracer) == 0


def test_module_level_span_uses_active_tracer():
    # a thread that entered no context traces nothing
    assert not trace.enabled()
    assert trace.span("ignored") is NULL_SPAN

    tracer = Tracer()
    with use(Context(tracer=tracer)):
        with trace.span("a"):
            with trace.span("b"):
                pass
    assert [s.name for s in tracer.finished()] == ["b", "a"]
    assert trace.span("after-exit") is NULL_SPAN
    assert len(tracer) == 2  # old tracer untouched


def test_span_records_exceptions_and_unwinds():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("boom"):
            raise ValueError("no")
    (span,) = tracer.finished()
    assert span.attrs["error"] == "ValueError: no"
    # the stack unwound: a new span is a root again
    with tracer.span("next"):
        pass
    assert tracer.finished()[-1].depth == 0


def test_spans_across_threads_are_thread_local():
    tracer = Tracer()
    context = Context(tracer=tracer)

    def work(i):
        # a context is per thread: each worker enters the run's own
        with use(context), trace.span(f"job{i}"):
            with trace.span("inner"):
                return threading.get_ident()

    with tracer.span("main-root"):
        with ThreadPoolExecutor(max_workers=2) as pool:
            idents = list(pool.map(work, range(4)))

    jobs = [s for s in tracer.finished() if s.name.startswith("job")]
    inners = [s for s in tracer.finished() if s.name == "inner"]
    assert len(jobs) == 4 and len(inners) == 4
    # worker spans do NOT adopt the main thread's open span as parent
    assert all(s.parent is None for s in jobs)
    assert all(s.parent in jobs for s in inners)
    assert {s.thread_id for s in jobs} == set(idents)


def test_tracer_mirrors_spans_into_journal():
    journal = RunJournal()
    tracer = Tracer(journal=journal)
    with tracer.span("stage:x", graph="g"):
        pass
    events = [e for e in journal.events if e["event"] == "span"]
    assert len(events) == 1
    assert events[0]["name"] == "stage:x"
    assert events[0]["path"] == "stage:x"
    assert events[0]["attrs"] == {"graph": "g"}


# -- metrics -----------------------------------------------------------


def test_counter_and_gauge():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.counter("c").inc(4)
    registry.gauge("g").set(2.5)
    snap = registry.snapshot()
    assert snap["counters"]["c"] == 5
    assert snap["gauges"]["g"] == 2.5


def test_histogram_bucket_edges_are_inclusive():
    h = Histogram("h", buckets=(1, 2, 5))
    for value in (0, 1, 1.5, 2, 3, 5, 6, 100):
        h.observe(value)
    snap = h.snapshot()
    # inclusive upper bounds: 1 -> "<=1", 2 -> "<=2", 5 -> "<=5"
    assert snap["buckets"] == {"<=1": 2, "<=2": 2, "<=5": 2, ">5": 2}
    assert snap["count"] == 8
    assert snap["min"] == 0 and snap["max"] == 100
    assert snap["sum"] == pytest.approx(118.5)
    assert snap["mean"] == pytest.approx(118.5 / 8)


def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ValueError):
        Histogram("bad", buckets=(5, 1))


def test_registry_get_or_create_and_kind_mismatch():
    registry = MetricsRegistry()
    assert registry.counter("x") is registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")
    with pytest.raises(TypeError):
        registry.histogram("x")


def test_disabled_registry_returns_null_instruments():
    assert not metrics.enabled()
    metrics.counter("nope").inc()
    metrics.gauge("nope").set(1)
    metrics.histogram("nope").observe(1)
    assert len(current().registry) == 0

    registry = MetricsRegistry()
    with use(Context(registry=registry)):
        metrics.counter("yes").inc()
    assert registry.snapshot()["counters"]["yes"] == 1
    metrics.counter("nope").inc()
    assert len(registry) == 1  # old registry untouched


# -- exporters ---------------------------------------------------------


def test_chrome_trace_event_schema(tmp_path):
    tracer = Tracer()
    with tracer.span("outer", module="dlx"):
        with tracer.span("inner"):
            pass
    path = tmp_path / "trace.json"
    document = write_chrome_trace(str(path), tracer)
    on_disk = json.loads(path.read_text())
    assert on_disk == document
    events = document["traceEvents"]
    x = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    assert len(x) == 2 and len(meta) == 1
    outer = next(e for e in x if e["name"] == "outer")
    inner = next(e for e in x if e["name"] == "inner")
    for event in x:
        assert event["cat"] == "repro"
        assert isinstance(event["ts"], float) and isinstance(event["dur"], float)
        assert event["pid"] > 0 and event["tid"] > 0
    # microsecond nesting: inner inside outer on the same tid
    assert inner["tid"] == outer["tid"]
    assert outer["ts"] <= inner["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 0.001
    assert outer["args"] == {"module": "dlx"}
    assert meta[0]["name"] == "thread_name"


def test_chrome_trace_args_are_json_safe():
    tracer = Tracer()
    with tracer.span("s", obj=object(), n=3, flag=True, none=None):
        pass
    (event,) = [e for e in chrome_trace_events(tracer) if e["ph"] == "X"]
    assert event["args"]["n"] == 3
    assert event["args"]["flag"] is True
    assert event["args"]["none"] is None
    assert isinstance(event["args"]["obj"], str)
    json.dumps(event)  # must not raise


def test_aggregate_and_summary_report():
    tracer = Tracer()
    for _ in range(3):
        with tracer.span("stage:a"):
            with tracer.span("sub"):
                pass
    agg = aggregate_spans(tracer)
    assert agg["stage:a"]["count"] == 3
    assert agg["stage:a/sub"]["count"] == 3
    assert agg["stage:a/sub"]["depth"] == 1
    # self time excludes the child's share
    assert agg["stage:a"]["self_s"] <= agg["stage:a"]["total_s"]
    report = summary_report(tracer)
    assert "stage:a" in report and "sub" in report
    assert summary_report(Tracer()) == "(no spans recorded)"


def test_phase_times_from_tracer_and_file(tmp_path):
    tracer = Tracer()
    with tracer.span("stage:group"):
        pass
    with tracer.span("stage:ddg"):
        pass
    with tracer.span("not-a-stage"):
        pass
    live = phase_times(tracer)
    assert set(live) == {"group", "ddg"}
    path = tmp_path / "t.json"
    write_chrome_trace(str(path), tracer)
    from_file = phase_times(trace_file=str(path))
    assert set(from_file) == {"group", "ddg"}
    for stage in live:
        assert from_file[stage] == pytest.approx(live[stage], abs=1e-4)


def test_write_metrics_with_extra(tmp_path):
    registry = MetricsRegistry()
    registry.counter("c").inc(2)
    path = tmp_path / "m.json"
    write_metrics(str(path), registry, extra={"design": "dlx"})
    snap = json.loads(path.read_text())
    assert snap["counters"]["c"] == 2
    assert snap["design"] == "dlx"


# -- engine integration ------------------------------------------------


def _two_stage_graph():
    graph = FlowGraph("obs-test")
    graph.add_stages(
        [
            Stage(
                name="double",
                func=lambda a: a["x"] * 2,
                inputs=("x",),
                outputs=("y",),
            ),
            Stage(
                name="square",
                func=lambda a: a["y"] ** 2,
                inputs=("y",),
                outputs=("z",),
            ),
        ]
    )
    return graph


def test_engine_stages_become_spans():
    tracer, registry = Tracer(), MetricsRegistry()
    engine = FlowEngine()
    with use(Context(tracer=tracer, registry=registry)):
        result = engine.run(_two_stage_graph(), initial={"x": 3}, label="obs")
    assert result.artifacts["z"] == 36
    names = [s.name for s in tracer.finished()]
    assert "stage:double" in names and "stage:square" in names
    run_span = next(s for s in tracer.finished() if s.name == "run:obs")
    assert run_span.attrs["stages"] == 2
    # serial stages nest under the run span
    stage_span = next(s for s in tracer.finished() if s.name == "stage:double")
    assert stage_span.parent is run_span
    assert registry.snapshot()["counters"]["engine.runs"] == 1


def test_engine_parallel_run_traces_worker_threads(lib):
    """Every stage body runs on the thread that called the engine, so
    a whole conversion traces and counts into that thread's context."""
    tracer, registry = Tracer(), MetricsRegistry()
    from repro.desync.tool import Drdesync

    tool = Drdesync(lib, engine=FlowEngine())
    with use(Context(tracer=tracer, registry=registry)):
        tool.run(figure22_circuit(lib))
    stage_spans = [
        s for s in tracer.finished() if s.name.startswith("stage:")
    ]
    assert len(stage_spans) >= 5
    main = threading.get_ident()
    assert all(s.thread_id == main for s in stage_spans)
    assert all(s.parent.name.startswith("run:") for s in stage_spans)
    assert registry.snapshot()["counters"]["desync.ffsub.replaced"] > 0
    # in-stage instrumentation nests under its engine stage
    grouping = next(s for s in tracer.finished() if s.name == "grouping")
    assert grouping.parent is not None
    assert grouping.parent.name == "stage:group"
    assert grouping.parent.thread_id == grouping.thread_id


def test_engine_cache_metrics(tmp_path):
    from repro.engine.cache import ArtifactCache

    registry = MetricsRegistry()
    cache = ArtifactCache(str(tmp_path / "cache"))
    engine = FlowEngine(cache=cache)
    with use(Context(registry=registry)):
        engine.run(_two_stage_graph(), initial={"x": 3}, label="cold")
        engine.run(_two_stage_graph(), initial={"x": 3}, label="warm")
    counters = registry.snapshot()["counters"]
    assert counters["engine.cache.misses"] == 2
    assert counters["engine.cache.hits"] == 2


def test_engine_stats_include_trace_and_metrics():
    tracer, registry = Tracer(), MetricsRegistry()
    engine = FlowEngine()
    with use(Context(tracer=tracer, registry=registry)):
        result = engine.run(
            _two_stage_graph(), initial={"x": 2}, label="stats"
        )
    stats = engine_stats([result], tracer=tracer, registry=registry)
    assert "run:stats" in stats["trace"]
    assert stats["trace"]["run:stats/stage:double"]["count"] == 1
    assert stats["metrics"]["counters"]["engine.runs"] == 1


# -- journal robustness (satellites) -----------------------------------


def test_journal_record_after_close_keeps_memory_events(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = RunJournal(str(path))
    journal.record("before", n=1)
    journal.close()
    journal.record("after", n=2)  # must not raise
    assert [e["event"] for e in journal.events] == ["before", "after"]
    assert [e["event"] for e in read_journal(str(path))] == ["before"]
    journal.close()  # idempotent


def test_read_journal_tolerates_truncated_tail(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = RunJournal(str(path))
    journal.record("one")
    journal.record("two")
    journal.close()
    text = path.read_text()
    path.write_text(text + '{"event": "tru')  # simulated crash mid-write
    events = read_journal(str(path))
    assert [e["event"] for e in events] == ["one", "two"]


# -- CLI ---------------------------------------------------------------


def test_resolve_log_level_precedence():
    parser = build_argument_parser()
    assert resolve_log_level(parser.parse_args(["x.v"])) == "info"
    assert resolve_log_level(parser.parse_args(["x.v", "--quiet"])) == "warning"
    assert resolve_log_level(parser.parse_args(["x.v", "-v"])) == "debug"
    assert (
        resolve_log_level(
            parser.parse_args(["x.v", "-v", "--log-level", "error"])
        )
        == "error"
    )


def test_cli_trace_and_metrics_end_to_end(lib, tmp_path):
    netlist = Netlist()
    netlist.add_module(figure22_circuit(lib))
    src = tmp_path / "design.v"
    save_verilog(netlist, str(src))
    trace_file = tmp_path / "trace.json"
    metrics_file = tmp_path / "metrics.json"
    journal_file = tmp_path / "run.jsonl"
    code = cli_main(
        [
            str(src),
            "-o", str(tmp_path / "out.v"),
            "--no-cache",
            "--quiet",
            "--journal", str(journal_file),
            "--trace", str(trace_file),
            "--metrics", str(metrics_file),
        ]
    )
    assert code == 0
    # the CLI's context ended with its run
    assert not trace.enabled() and not metrics.enabled()

    document = json.loads(trace_file.read_text())
    names = {
        e["name"] for e in document["traceEvents"] if e["ph"] == "X"
    }
    assert {"stage:group", "stage:network", "grouping"} <= names
    assert phase_times(trace_file=str(trace_file))["group"] > 0

    snapshot = json.loads(metrics_file.read_text())
    assert snapshot["gauges"]["desync.grouping.regions"] >= 1
    assert snapshot["counters"]["desync.ffsub.replaced"] > 0
    assert snapshot["histograms"]["desync.region.size"]["count"] >= 1
    assert "desync.summary.cells" in snapshot["gauges"]

    # spans were mirrored into the run journal
    events = read_journal(str(journal_file))
    assert any(e["event"] == "span" for e in events)


def test_cli_quiet_suppresses_summary(lib, tmp_path, capsys):
    netlist = Netlist()
    netlist.add_module(figure22_circuit(lib))
    src = tmp_path / "design.v"
    save_verilog(netlist, str(src))
    assert cli_main([str(src), "--no-cache", "--quiet"]) == 0
    assert "desynchronized" not in capsys.readouterr().out
    assert cli_main([str(src), "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "desynchronized" in out and "engine:" in out
