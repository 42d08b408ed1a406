"""Tests for the service's per-job telemetry.

Covers bounded tracer retention with a dropped-span counter,
thread-scoped tracer activation (per-job trace isolation across
concurrent daemon jobs), trace-ID stamping on run journals / flow
reports / exported trace events, the Prometheus text exposition,
``GET /jobs/<id>/trace`` with Perfetto validation, and the daemon soak
guarantee that the per-job trace LRU keeps memory flat over many jobs.
"""

import json
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine import RunJournal, read_journal
from repro.obs import Context, current, trace, use
from repro.obs.export import prometheus_text, trace_document
from repro.obs.metrics import MetricsRegistry, render_name, split_name
from repro.service import (
    JobSpec,
    ServiceClient,
    ServiceClientError,
    ServiceDaemon,
    make_server,
)


# ---------------------------------------------------------------------------
# Tracer: bounded retention + thread-scoped activation
# ---------------------------------------------------------------------------

def test_tracer_default_retention_is_unbounded():
    tracer = trace.Tracer()
    for i in range(100):
        with tracer.span(f"s{i}"):
            pass
    assert len(tracer) == 100
    assert tracer.dropped == 0


def test_tracer_max_spans_rings_and_counts_drops():
    tracer = trace.Tracer(max_spans=10)
    for i in range(25):
        with tracer.span(f"s{i}"):
            pass
    assert len(tracer) == 10
    assert tracer.dropped == 15
    # the newest spans survive, the oldest were dropped
    names = [span.name for span in tracer.finished()]
    assert names == [f"s{i}" for i in range(15, 25)]


def test_trace_document_default_output_unchanged_by_new_fields():
    """A plain tracer's export carries no trace_id / dropped noise."""
    tracer = trace.Tracer()
    with tracer.span("work"):
        pass
    document = trace_document(tracer)
    assert document["otherData"] == {"producer": "repro.obs"}
    events = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert "args" not in events[0]  # no attrs, no trace_id -> no args


def test_trace_document_carries_trace_id_and_drop_count():
    tracer = trace.Tracer(max_spans=2, trace_id="abc123")
    for i in range(5):
        with tracer.span(f"s{i}"):
            pass
    document = trace_document(tracer)
    assert document["otherData"]["trace_id"] == "abc123"
    assert document["otherData"]["dropped_spans"] == 3
    for event in document["traceEvents"]:
        if event["ph"] == "X":
            assert event["args"]["trace_id"] == "abc123"
    # a tracer with no spans yet still exports itself, not a default
    empty = trace_document(trace.Tracer(trace_id="fresh"))
    assert empty["otherData"]["trace_id"] == "fresh"


def test_scoped_tracer_overrides_global_for_current_thread_only():
    seen = {}

    def worker(name):
        tracer = trace.Tracer(trace_id=name)
        with use(Context(tracer=tracer)):
            with trace.span("inner"):
                time.sleep(0.01)
        seen[name] = [span.name for span in tracer.finished()]

    threads = [
        threading.Thread(target=worker, args=(f"job{i}",)) for i in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    # each thread's spans landed in its own tracer, exactly once
    assert all(names == ["inner"] for names in seen.values())
    # this thread entered no context: its default tracer is disabled
    assert trace.span("outside") is trace.NULL_SPAN


def test_contexts_nest_and_restore():
    outer = Context(tracer=trace.Tracer(trace_id="outer"))
    inner = Context(tracer=trace.Tracer(trace_id="inner"))
    assert current().trace_id is None
    with use(outer):
        assert current() is outer
        with use(inner):
            assert current().trace_id == "inner"
        assert current() is outer
    assert current().trace_id is None


# ---------------------------------------------------------------------------
# RunJournal: trace-ID stamping + no interleaved lines
# ---------------------------------------------------------------------------

def test_journal_stamps_trace_id_on_every_entry(tmp_path):
    path = str(tmp_path / "j.jsonl")
    journal = RunJournal(path, trace_id="feedface")
    journal.record("one", value=1)
    journal.record("two", value=2)
    journal.close()
    events = read_journal(path)
    assert [e["trace_id"] for e in events] == ["feedface", "feedface"]
    # and in memory too
    assert all(e["trace_id"] == "feedface" for e in journal.events)


def test_journal_without_trace_id_is_unchanged(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with RunJournal(path) as journal:
        journal.record("evt")
    assert "trace_id" not in read_journal(path)[0]


def test_journal_concurrent_writers_never_interleave(tmp_path):
    """Many threads hammering one journal: every line parses whole."""
    path = str(tmp_path / "j.jsonl")
    journal = RunJournal(path, trace_id="cafe01")
    per_thread = 200

    def writer(tid):
        for i in range(per_thread):
            journal.record("spam", tid=tid, i=i, pad="x" * 64)

    threads = [
        threading.Thread(target=writer, args=(t,)) for t in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    journal.close()
    with open(path) as handle:
        lines = [line for line in handle if line.strip()]
    assert len(lines) == 8 * per_thread
    for line in lines:
        entry = json.loads(line)  # raises on a torn line
        assert entry["trace_id"] == "cafe01"


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------

def test_metrics_label_rendering_round_trips():
    name = render_name("repro.jobs", {"state": "queued", "zone": "a"})
    assert name == 'repro.jobs{state="queued",zone="a"}'
    assert split_name(name) == ("repro.jobs", 'state="queued",zone="a"')
    assert split_name("plain") == ("plain", None)


def test_prometheus_text_help_type_and_labels():
    registry = MetricsRegistry()
    registry.describe("service.jobs.done", "jobs settled successfully")
    registry.counter("service.jobs.done").inc(3)
    registry.gauge("repro.jobs", labels={"state": "queued"}).set(2)
    registry.gauge("repro.jobs", labels={"state": "running"}).set(1)
    text = prometheus_text(registry)
    assert "# HELP service_jobs_done jobs settled successfully" in text
    assert "# TYPE service_jobs_done counter" in text
    assert "service_jobs_done 3" in text
    assert 'repro_jobs{state="queued"} 2' in text
    assert 'repro_jobs{state="running"} 1' in text
    # one family header even with two labelled series
    assert text.count("# TYPE repro_jobs gauge") == 1


def test_prometheus_histogram_exposition_is_cumulative():
    registry = MetricsRegistry()
    hist = registry.histogram("lat", buckets=[1.0, 2.0])
    for value in (0.5, 1.5, 1.5, 99.0):
        hist.observe(value)
    text = prometheus_text(registry)
    assert 'lat_bucket{le="1"} 1' in text
    assert 'lat_bucket{le="2"} 3' in text
    assert 'lat_bucket{le="+Inf"} 4' in text
    assert text.count("+Inf") == 1  # no duplicate overflow line
    assert "lat_count 4" in text
    assert "# TYPE lat histogram" in text


def test_prometheus_labelled_histogram_merges_le_label():
    registry = MetricsRegistry()
    registry.histogram(
        "dur", buckets=[1.0], labels={"stage": "sta"}
    ).observe(0.5)
    text = prometheus_text(registry)
    assert 'dur_bucket{stage="sta",le="1"} 1' in text
    assert 'dur_sum{stage="sta"}' in text
    assert 'dur_count{stage="sta"} 1' in text


# ---------------------------------------------------------------------------
# Daemon integration: trace isolation, HTTP surfaces, soak
# ---------------------------------------------------------------------------

@pytest.fixture()
def daemon(tmp_path):
    daemon = ServiceDaemon(run_dir=str(tmp_path / "svc"), workers=2)
    yield daemon
    daemon.close(timeout=30.0)


def _validate_perfetto(document):
    """Schema + nesting checks on a Chrome trace-event document."""
    assert set(document) >= {"traceEvents", "displayTimeUnit", "otherData"}
    complete = [e for e in document["traceEvents"] if e.get("ph") == "X"]
    assert complete, "no complete events in trace"
    by_tid = {}
    for event in complete:
        assert set(event) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
        assert event["ts"] >= 0 and event["dur"] >= 0
        by_tid.setdefault(event["tid"], []).append(event)
    # per thread, spans must nest: sorted by (ts, -dur), each event's
    # interval is contained in any still-open ancestor's interval
    for events in by_tid.values():
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for event in events:
            end = event["ts"] + event["dur"]
            while stack and event["ts"] >= stack[-1] - 1e-3:
                stack.pop()
            if stack:
                assert end <= stack[-1] + 1e-3, "overlapping sibling spans"
            stack.append(end)
    return complete


def test_concurrent_jobs_do_not_cross_contaminate(daemon):
    job_a, _ = daemon.submit(JobSpec(design="counter", params={"width": 4}))
    job_b, _ = daemon.submit(JobSpec(design="pipeline3"))
    daemon.queue.wait(job_a.id, timeout=120.0)
    daemon.queue.wait(job_b.id, timeout=120.0)

    status_a = daemon.job_status(job_a.id)
    status_b = daemon.job_status(job_b.id)
    assert status_a["state"] == "done" and status_b["state"] == "done"
    assert status_a["trace_id"] != status_b["trace_id"]

    # result payloads carry their own trace IDs
    assert daemon.job_result(job_a.id)["trace_id"] == status_a["trace_id"]
    assert daemon.job_result(job_b.id)["trace_id"] == status_b["trace_id"]

    # each per-job journal is stamped with exactly its own trace ID
    for job, status in ((job_a, status_a), (job_b, status_b)):
        events = read_journal(daemon.job_journal_path(job.id))
        ids = {e.get("trace_id") for e in events}
        assert ids == {status["trace_id"]}

    # each tracer's spans mention only its own design's stages
    for job, status in ((job_a, status_a), (job_b, status_b)):
        document = daemon.job_trace(job.id)
        assert document["otherData"]["trace_id"] == status["trace_id"]
        for event in document["traceEvents"]:
            if event.get("ph") == "X":
                assert event["args"]["trace_id"] == status["trace_id"]


def test_job_trace_matches_journal_stage_set(daemon):
    job, _ = daemon.submit(JobSpec(design="counter", params={"width": 4}))
    daemon.queue.wait(job.id, timeout=120.0)
    document = daemon.job_trace(job.id)
    complete = _validate_perfetto(document)
    # cold run: every stage executes, so ``stage:`` spans alone cover
    # the journal's stage set (warm runs would add ``cache:`` hits)
    trace_stages = {
        e["name"][len("stage:"):]
        for e in complete
        if e["name"].startswith("stage:")
    }
    journal_stages = {
        e["stage"]
        for e in read_journal(daemon.job_journal_path(job.id))
        if e["event"] == "stage_end"
    }
    assert trace_stages == journal_stages
    assert trace_stages  # the flow has stages


def test_job_trace_errors(daemon):
    with pytest.raises(KeyError):
        daemon.job_trace("ffffffffffff")


def test_dropped_spans_surface_in_status_metrics_and_trace(tmp_path):
    with ServiceDaemon(
        run_dir=str(tmp_path / "svc"), workers=1, max_trace_spans=2
    ) as daemon:
        job, _ = daemon.submit(JobSpec(design="counter", params={"width": 4}))
        daemon.queue.wait(job.id, timeout=120.0)
        dropped = daemon.job_status(job.id)["trace_dropped"]
        assert dropped > 0
        counters = daemon.registry.snapshot()["counters"]
        assert counters["service.trace.spans_dropped"] == dropped
        document = daemon.job_trace(job.id)
        assert document["otherData"]["dropped_spans"] == dropped


def test_http_trace_round_trip(daemon):
    server = make_server(daemon).start_background()
    try:
        client = ServiceClient(server.url)
        ticket = client.submit({"design": "counter", "params": {"width": 4}})
        client.wait(ticket["id"], timeout=120.0)

        document = client.trace(ticket["id"])
        complete = _validate_perfetto(document)
        assert document["otherData"]["job"] == ticket["id"]
        assert any(e["name"].startswith("stage:") for e in complete)

        assert set(client.health()) == {"status", "jobs"}
        with pytest.raises(ServiceClientError) as err:
            client.trace("ffffffffffff")
        assert err.value.status == 404
        # the time-series and dashboard routes are gone
        for path in ("/timeseries", "/dashboard"):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + path, timeout=10)
            err.value.close()
            assert err.value.code == 404
    finally:
        server.stop()


def test_soak_many_jobs_keep_telemetry_memory_flat(tmp_path):
    """>=50 sequential jobs: the per-job trace LRU stays bounded."""
    daemon = ServiceDaemon(
        run_dir=str(tmp_path / "svc"),
        workers=1,
        max_traces=16,
        max_trace_spans=200,
    )
    try:
        span_counts = []
        jobs = []
        for i in range(50):
            job, _ = daemon.submit(
                JobSpec(design="counter", params={"width": 4}), reuse=False
            )
            settled = daemon.queue.wait(job.id, timeout=120.0)
            assert settled.state.value == "done"
            jobs.append(job)
            span_counts.append(daemon.trace_retention()["spans"])
        # the LRU holds exactly max_traces jobs; every older one was
        # evicted and counted, oldest first
        retention = daemon.trace_retention()
        assert retention["jobs"] == 16
        assert retention["evicted"] == 50 - 16
        with pytest.raises(LookupError):
            daemon.job_trace(jobs[0].id)
        newest = daemon.job_trace(jobs[-1].id)
        assert newest["otherData"]["trace_id"] == (
            daemon.job_status(jobs[-1].id)["trace_id"]
        )
        # retained spans plateau instead of growing linearly with jobs:
        # once 16 tracers are live, each new job evicts one, so the
        # count stops rising (warm jobs record fewer spans than cold)
        assert span_counts[-1] <= 16 * 200
        assert max(span_counts[-10:]) <= max(span_counts[:20])
    finally:
        daemon.close(timeout=30.0)


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

def test_serve_parser_accepts_telemetry_flags():
    from repro.service.cli import build_service_parser

    parser = build_service_parser()
    args = parser.parse_args(["serve", "--max-trace-spans", "999"])
    assert args.max_trace_spans == 999
    # the time-series, SLO and on/off switches are gone
    for removed in (
        ["--slo", "x"],
        ["--timeseries-interval", "0.5"],
        ["--timeseries-capacity", "1200"],
        ["--no-telemetry"],
    ):
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", *removed])


def test_trace_verb_parses():
    from repro.cli import SERVICE_COMMANDS as MAIN_COMMANDS
    from repro.service.cli import SERVICE_COMMANDS, build_service_parser

    assert "trace" in SERVICE_COMMANDS
    assert "trace" in MAIN_COMMANDS  # the main CLI routes the verb too
    args = build_service_parser().parse_args(
        ["trace", "abc123", "--out", "t.json"]
    )
    assert args.command == "trace"
    assert args.job_id == "abc123"
    assert args.out == "t.json"
