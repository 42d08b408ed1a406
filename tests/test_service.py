"""Tests for the desync-as-a-service subsystem (repro.service).

Covers the satellite contracts too: the job queue's ordering /
cancellation semantics, job-key dedupe with cross-job cache
sharing, the HTTP round trip through ``service.client``, graceful
drain, failure isolation, request-body validation, the service CLI
verbs end to end against a ``serve`` subprocess, ``ArtifactCache``
eviction + locking, and the ``RunJournal`` parent-directory fix.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.cli import main as cli_main
from repro.engine import ArtifactCache, RunJournal, read_journal
from repro.obs import MetricsRegistry
from repro.service import (
    JobError,
    JobQueue,
    JobSpec,
    JobState,
    QueueClosed,
    QueueFull,
    ServiceClient,
    ServiceClientError,
    ServiceDaemon,
    job_key,
    make_server,
    options_from_dict,
    options_to_dict,
)
from repro.service.jobs import resolve_module


@pytest.fixture(scope="module")
def hs_library():
    from repro.liberty import core9_hs

    return core9_hs()


# ---------------------------------------------------------------------------
# JobQueue semantics
# ---------------------------------------------------------------------------

def test_queue_runs_jobs_and_reports_states():
    queue = JobQueue(workers=2)
    job = queue.submit(lambda: 41 + 1, job_id="a")
    settled = queue.wait("a", timeout=5.0)
    assert settled is job
    assert job.state is JobState.DONE
    assert job.result == 42
    assert job.wall_time is not None
    queue.shutdown(timeout=5.0)


def test_queue_priority_ordering():
    """With one worker blocked, later-but-higher-priority jobs run first."""
    queue = JobQueue(workers=1)
    release = threading.Event()
    order = []

    queue.submit(lambda: release.wait(5.0), job_id="blocker")
    time.sleep(0.05)  # let the worker pick up the blocker
    for name, priority in (("low", 0), ("high", 10), ("mid", 5)):
        queue.submit(
            lambda n=name: order.append(n), job_id=name, priority=priority
        )
    release.set()
    for name in ("low", "high", "mid"):
        queue.wait(name, timeout=5.0)
    assert order == ["high", "mid", "low"]
    queue.shutdown(timeout=5.0)


def test_queue_cancellation_of_queued_job():
    queue = JobQueue(workers=1)
    release = threading.Event()
    queue.submit(lambda: release.wait(5.0), job_id="blocker")
    time.sleep(0.05)
    ran = []
    queue.submit(lambda: ran.append(1), job_id="victim")
    assert queue.cancel("victim") is True
    release.set()
    job = queue.wait("victim", timeout=5.0)
    assert job.state is JobState.CANCELLED
    queue.shutdown(timeout=5.0)
    assert ran == []  # the cancelled body never executed


def test_queue_cancel_running_job_only_flags_it():
    queue = JobQueue(workers=1)
    release = threading.Event()
    queue.submit(lambda: release.wait(5.0), job_id="running")
    time.sleep(0.05)
    assert queue.cancel("running") is False
    job = queue.get("running")
    assert job.cancel_requested and job.state is JobState.RUNNING
    release.set()
    assert queue.wait("running", timeout=5.0).state is JobState.DONE
    queue.shutdown(timeout=5.0)


def test_queue_crash_isolation():
    queue = JobQueue(workers=1)

    def boom():
        raise ValueError("poison")

    queue.submit(boom, job_id="bad")
    job = queue.wait("bad", timeout=5.0)
    assert job.state is JobState.FAILED
    assert "poison" in job.error
    queue.submit(lambda: "alive", job_id="good")
    assert queue.wait("good", timeout=5.0).result == "alive"
    queue.shutdown(timeout=5.0)


def test_queue_max_pending_backpressure():
    queue = JobQueue(workers=1, max_pending=2)
    release = threading.Event()
    queue.submit(lambda: release.wait(5.0), job_id="blocker")
    time.sleep(0.05)
    queue.submit(lambda: None, job_id="q1")
    queue.submit(lambda: None, job_id="q2")
    with pytest.raises(QueueFull):
        queue.submit(lambda: None, job_id="q3")
    release.set()
    queue.shutdown(timeout=5.0)


def test_queue_drain_rejects_new_work():
    queue = JobQueue(workers=1)
    queue.submit(lambda: time.sleep(0.1), job_id="inflight")
    assert queue.drain(timeout=5.0) is True
    assert queue.get("inflight").state is JobState.DONE
    with pytest.raises(QueueClosed):
        queue.submit(lambda: None, job_id="late")
    queue.shutdown(timeout=5.0)


# ---------------------------------------------------------------------------
# Job specs and keys
# ---------------------------------------------------------------------------

def small_spec(**over):
    kwargs = dict(design="counter", params={"width": 4})
    kwargs.update(over)
    return JobSpec(**kwargs)


def test_job_spec_round_trips_through_json():
    spec = small_spec(
        priority=3,
        options=options_from_dict({"grouping": "single"}),
    )
    payload = json.loads(json.dumps(spec.to_dict()))
    back = JobSpec.from_dict(payload)
    assert back.design == "counter"
    assert back.params == {"width": 4}
    assert back.options.grouping == "single"
    assert back.priority == 3


def test_job_spec_validation():
    with pytest.raises(JobError):
        JobSpec().validate()  # neither design nor verilog
    with pytest.raises(JobError):
        JobSpec(design="nope").validate()
    with pytest.raises(JobError):
        JobSpec(design="counter", verilog="module m; endmodule").validate()
    with pytest.raises(JobError):
        JobSpec.from_dict({"design": "counter", "bogus": 1})
    # jobs run to completion: there is no server-side deadline
    with pytest.raises(JobError):
        JobSpec.from_dict({"design": "counter", "timeout": 1.0})


def test_options_dict_round_trip_only_serialises_non_defaults():
    options = options_from_dict({"delay_margin": 0.25})
    assert options_to_dict(options) == {"delay_margin": 0.25}
    assert options_to_dict(options_from_dict({})) == {}


def test_job_key_ignores_scheduling_knobs(hs_library):
    base = job_key(small_spec(), hs_library)
    assert job_key(small_spec(priority=9), hs_library) == base
    assert job_key(small_spec(params={"width": 5}), hs_library) != base
    assert (
        job_key(
            small_spec(options=options_from_dict({"delay_margin": 0.3})),
            hs_library,
        )
        != base
    )


def test_resolve_module_from_verilog(hs_library):
    from repro.designs import counter
    from repro.netlist.verilog import write_module

    source = write_module(counter(hs_library, width=4))
    module = resolve_module(JobSpec(verilog=source), hs_library)
    assert module.name == "counter"


# ---------------------------------------------------------------------------
# Daemon: dedupe, cache sharing, drain, failure isolation
# ---------------------------------------------------------------------------

@pytest.fixture
def daemon(tmp_path):
    with ServiceDaemon(run_dir=str(tmp_path / "svc"), workers=2) as svc:
        yield svc


def test_daemon_runs_a_job_and_journals_it(daemon):
    job, deduped = daemon.submit(small_spec())
    assert deduped is False
    daemon.queue.wait(job.id, timeout=120.0)
    assert job.state is JobState.DONE
    result = daemon.job_result(job.id)
    assert result["summary"]["regions"] >= 1
    assert "verilog" not in result  # stripped unless asked for
    assert "sdc" in result
    # the per-job journal landed under <run_dir>/jobs/ (append mode,
    # parent directory auto-created -- the RunJournal fix)
    events = read_journal(daemon.job_journal_path(job.id))
    assert any(e["event"] == "run_end" for e in events)


def test_daemon_dedupes_identical_submissions(daemon):
    job1, d1 = daemon.submit(small_spec())
    job2, d2 = daemon.submit(small_spec())
    assert (d1, d2) == (False, True)
    assert job1.id == job2.id
    daemon.queue.wait(job1.id, timeout=120.0)
    # identical spec, different scheduling knobs: still the same job
    job3, d3 = daemon.submit(small_spec(priority=5))
    assert d3 and job3.id == job1.id


def test_daemon_forced_rerun_is_served_from_shared_cache(daemon):
    job1, _ = daemon.submit(small_spec())
    daemon.queue.wait(job1.id, timeout=120.0)
    assert job1.state is JobState.DONE
    job2, deduped = daemon.submit(small_spec(), reuse=False)
    assert deduped is False and job2.id != job1.id
    daemon.queue.wait(job2.id, timeout=120.0)
    stages = daemon.job_result(job2.id)["stages"]
    assert stages["cached"] == stages["total"]  # one flow run, replayed
    assert daemon.cache.stats.hits >= stages["total"]


def test_daemon_failure_isolation(daemon):
    poison, _ = daemon.submit(
        JobSpec(design="dlx", params={"bogus": 1})
    )
    daemon.queue.wait(poison.id, timeout=120.0)
    assert poison.state is JobState.FAILED
    assert "bogus" in poison.error
    with pytest.raises(LookupError):
        daemon.job_result(poison.id)
    ok, _ = daemon.submit(small_spec())
    daemon.queue.wait(ok.id, timeout=120.0)
    assert ok.state is JobState.DONE


def test_daemon_graceful_drain(tmp_path):
    daemon = ServiceDaemon(run_dir=str(tmp_path / "svc"), workers=1)
    try:
        job, _ = daemon.submit(small_spec())
        assert daemon.drain(timeout=120.0) is True
        assert job.state is JobState.DONE
        with pytest.raises(QueueClosed):
            daemon.submit(small_spec(params={"width": 6}))
        assert daemon.health()["status"] == "draining"
    finally:
        daemon.close(timeout=10.0)
    events = read_journal(os.path.join(daemon.run_dir, "daemon.jsonl"))
    assert [e["event"] for e in events][-1] == "daemon_stop"


def test_daemon_metrics_snapshot(daemon):
    job, _ = daemon.submit(small_spec())
    daemon.queue.wait(job.id, timeout=120.0)
    snapshot = daemon.metrics_snapshot()
    assert snapshot["service"]["jobs"]["done"] == 1
    counters = snapshot["metrics"]["counters"]
    assert counters["service.jobs.submitted"] == 1
    assert counters["service.jobs.done"] == 1
    stage_histograms = [
        name
        for name in snapshot["metrics"]["histograms"]
        if name.startswith("service.stage.")
    ]
    assert "service.stage.network" in stage_histograms


def _flow_counters(daemon):
    """The engine's run and cache counters in a daemon's registry."""
    counters = daemon.registry.snapshot()["counters"]
    return {
        name: value
        for name, value in counters.items()
        if name == "engine.runs" or name.startswith("engine.cache.")
    }


def _run_to_done(daemon, **submit):
    job, _ = daemon.submit(small_spec(), **submit)
    assert daemon.queue.wait(job.id, timeout=120.0).state is JobState.DONE
    return daemon.job_result(job.id)["stages"]


def test_overlapping_daemons_count_only_their_own_jobs(tmp_path):
    registry = MetricsRegistry()
    first = ServiceDaemon(run_dir=str(tmp_path / "a"), workers=1)
    second = ServiceDaemon(
        run_dir=str(tmp_path / "b"), workers=1, registry=registry
    )
    try:
        # a caller's registry is used even while it is still empty
        assert second.registry is registry
        # both open: each daemon's registry holds its own cold run only
        stages = _run_to_done(first)
        cold = {"engine.runs": 1, "engine.cache.misses": stages["total"]}
        assert _flow_counters(first) == cold
        assert _flow_counters(second) == {}
        assert _run_to_done(second) == stages
        assert _flow_counters(second) == cold
        assert _flow_counters(first) == cold

        # closing one daemon leaves the other one counting
        first.close(timeout=30.0)
        warm = _run_to_done(second, reuse=False)
        assert warm["cached"] == warm["total"]
        assert _flow_counters(second) == {
            "engine.runs": 2,
            "engine.cache.misses": stages["total"],
            "engine.cache.hits": warm["total"],
        }
        assert _flow_counters(first) == cold
    finally:
        first.close(timeout=30.0)
        second.close(timeout=30.0)


# ---------------------------------------------------------------------------
# HTTP round trip via service.client
# ---------------------------------------------------------------------------

@pytest.fixture
def service(tmp_path):
    daemon = ServiceDaemon(run_dir=str(tmp_path / "svc"), workers=2)
    server = make_server(daemon).start_background()
    client = ServiceClient(server.url)
    yield daemon, server, client
    server.stop()
    daemon.close(timeout=10.0)


def test_http_submit_status_result_round_trip(service):
    _daemon, _server, client = service
    assert client.health()["status"] == "ok"
    ticket = client.submit(small_spec())
    status = client.wait(ticket["id"], timeout=120.0)
    assert status["state"] == "done"
    result = client.result(ticket["id"], include_verilog=True)
    assert result["summary"]["flip_flops_replaced"] == 4
    assert "module counter" in result["verilog"]
    # second identical submission dedupes over the wire
    again = client.submit(small_spec())
    assert again["deduped"] is True and again["id"] == ticket["id"]
    listing = client.jobs()["jobs"]
    assert [j["id"] for j in listing] == [ticket["id"]]


def test_http_error_mapping(service):
    _daemon, _server, client = service
    with pytest.raises(ServiceClientError) as excinfo:
        client.status("feedfacecafe")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceClientError) as excinfo:
        client.submit({"design": "not-a-design"})
    assert excinfo.value.status == 400
    ticket = client.submit(small_spec())
    client.wait(ticket["id"], timeout=120.0)
    poison = client.submit({"design": "dlx", "params": {"bogus": 1}})
    assert client.wait(poison["id"], timeout=120.0)["state"] == "failed"
    with pytest.raises(ServiceClientError) as excinfo:
        client.result(poison["id"])
    assert excinfo.value.status == 409


def test_http_metrics_and_prometheus(service):
    _daemon, _server, client = service
    ticket = client.submit(small_spec())
    client.wait(ticket["id"], timeout=120.0)
    snapshot = client.metrics()
    assert snapshot["service"]["jobs"]["done"] == 1
    import urllib.request

    text = (
        urllib.request.urlopen(
            _server.url + "/metrics?format=prometheus", timeout=10
        )
        .read()
        .decode()
    )
    assert "service_jobs_done 1" in text
    assert "service_stage_network_count" in text


def test_http_shutdown_drains(service):
    daemon, server, client = service
    ticket = client.submit(small_spec())
    client.wait(ticket["id"], timeout=120.0)
    client.shutdown()
    deadline = time.monotonic() + 10.0
    while daemon.queue.accepting and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not daemon.queue.accepting


@pytest.mark.parametrize(
    "length, body",
    [("abc", ""), ("-1", ""), ("5", "nope!")],
    ids=["non-integer-length", "negative-length", "bad-json"],
)
def test_http_rejects_malformed_bodies(service, length, body):
    _daemon, server, _client = service
    host, port = server.server_address[:2]
    # raw socket: urllib would refuse to send these headers
    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.sendall(
            f"POST /jobs HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {length}\r\n\r\n{body}".encode()
        )
        status_line = sock.makefile("rb").readline()
    assert status_line.split()[1] == b"400", status_line


# ---------------------------------------------------------------------------
# Service CLI verbs against a ``serve`` subprocess
# ---------------------------------------------------------------------------

def _start_serve(tmp_path):
    """Launch ``repro serve --port 0``; returns (process, url)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    log_path = tmp_path / "serve.log"
    with open(log_path, "w") as log:
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--run-dir", str(tmp_path / "svc"), "--workers", "1",
            ],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
        )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline and process.poll() is None:
        match = re.search(r"serving on (http://\S+)", log_path.read_text())
        if match:
            return process, match.group(1)
        time.sleep(0.05)
    _stop_serve(process)
    raise AssertionError(f"serve did not start:\n{log_path.read_text()}")


def _stop_serve(process):
    if process.poll() is None:
        process.kill()
    process.wait(timeout=10.0)


def test_service_cli_end_to_end(tmp_path, capsys):
    process, url = _start_serve(tmp_path)
    try:
        assert cli_main([
            "submit", "counter", "--param", "width=4", "--profile",
            "--wait", "--url", url,
        ]) == 0
        capsys.readouterr()

        assert cli_main(["status", "--url", url]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert set(listing["health"]) == {"status", "jobs"}
        [job] = listing["jobs"]
        assert job["state"] == "done" and job["profiled"] is True

        trace_out = tmp_path / "trace.json"
        assert cli_main([
            "trace", job["id"], "--out", str(trace_out), "--url", url,
        ]) == 0
        document = json.loads(trace_out.read_text())
        assert document["otherData"]["job"] == job["id"]
        assert document["otherData"]["trace_id"] == job["trace_id"]

        profile_out = tmp_path / "profile.json"
        assert cli_main([
            "profile", job["id"], "--out", str(profile_out), "--url", url,
        ]) == 0
        assert json.loads(profile_out.read_text())["stage_count"] > 0

        capsys.readouterr()
        assert cli_main(["cancel", job["id"], "--url", url]) == 0
        assert json.loads(capsys.readouterr().out)["cancelled"] is False

        assert cli_main(["shutdown", "--url", url]) == 0
        assert process.wait(timeout=60.0) == 0
    finally:
        _stop_serve(process)
    # the removed telemetry flags are usage errors now
    assert cli_main(["serve", "--slo", "x"]) == 1


def test_serve_drains_on_sigterm(tmp_path):
    process, _url = _start_serve(tmp_path)
    try:
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60.0) == 0
    finally:
        _stop_serve(process)
    events = read_journal(str(tmp_path / "svc" / "daemon.jsonl"))
    assert events[-1]["event"] == "daemon_stop"


# ---------------------------------------------------------------------------
# ArtifactCache satellite: eviction + advisory lock
# ---------------------------------------------------------------------------

def test_cache_lru_eviction_under_max_bytes(tmp_path):
    blob = os.urandom(1500)  # below INLINE_LIMIT: single manifest file
    probe = ArtifactCache(str(tmp_path / "probe"))
    probe.put("00" + "e" * 62, {"blob": blob})
    per_entry = probe.size_bytes()
    # room for four entries but not five
    cache = ArtifactCache(
        str(tmp_path / "cache"), max_bytes=int(per_entry * 4.5)
    )
    for index in range(4):
        assert cache.put(f"{index:02d}{'e' * 62}", {"blob": blob})
        time.sleep(0.02)  # distinct mtimes
    assert cache.stats.evictions == 0
    # keep entry 0 warm so eviction (triggered by storing 4) drops 1
    assert cache.get(f"00{'e' * 62}") is not None
    time.sleep(0.02)
    assert cache.put(f"04{'e' * 62}", {"blob": blob})
    assert cache.stats.evictions >= 1
    assert cache.size_bytes() <= int(per_entry * 4.5)
    assert cache.get(f"01{'e' * 62}") is None  # the cold entry went
    assert cache.get(f"00{'e' * 62}") is not None  # the warm one stayed
    assert cache.get(f"04{'e' * 62}") is not None  # newest protected


def test_cache_eviction_removes_sidecars_with_manifest(tmp_path):
    cache = ArtifactCache(str(tmp_path / "cache"), max_bytes=100_000)
    big = os.urandom(60_000)  # above INLINE_LIMIT: manifest + sidecar
    cache.put("aa" + "a" * 62, {"big": big})
    time.sleep(0.02)
    cache.put("bb" + "b" * 62, {"big": big})
    assert cache.get("aa" + "a" * 62) is None
    assert cache.get("bb" + "b" * 62)["big"] == big
    # no orphan sidecar files survive the eviction
    leftovers = [
        name
        for _root, _dirs, files in os.walk(cache.directory)
        for name in files
        if name.startswith("aa")
    ]
    assert leftovers == []


def test_cache_advisory_lock_file_created(tmp_path):
    cache = ArtifactCache(str(tmp_path / "cache"))
    cache.put("cc" + "c" * 62, {"x": 1})
    assert os.path.exists(os.path.join(cache.directory, ".lock"))
    assert cache.get("cc" + "c" * 62) == {"x": 1}
    cache.clear()
    assert len(cache) == 0


def test_cache_unbounded_never_evicts(tmp_path):
    cache = ArtifactCache(str(tmp_path / "cache"))
    for index in range(5):
        cache.put(f"{index:02d}" + "f" * 62, {"v": index})
    assert cache.stats.evictions == 0
    assert len(cache) == 5


# ---------------------------------------------------------------------------
# RunJournal satellite: parent directory creation
# ---------------------------------------------------------------------------

def test_journal_creates_parent_directories(tmp_path):
    path = tmp_path / "deep" / "nested" / "jobs" / "j1.jsonl"
    journal = RunJournal(str(path), append=True)
    journal.record("hello", n=1)
    journal.close()
    assert read_journal(str(path))[0]["event"] == "hello"
    # append mode really appends across reopens
    journal2 = RunJournal(str(path), append=True)
    journal2.record("again", n=2)
    journal2.close()
    assert [e["event"] for e in read_journal(str(path))] == ["hello", "again"]
