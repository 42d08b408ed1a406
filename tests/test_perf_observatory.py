"""Tests for the performance observatory (PR 10).

Covers the tentpole and its satellites: the opt-in per-stage profiler
(disabled no-op, capture, thread-scoped attribution, bounded
retention), engine integration, the speedscope / collapsed-stack
exporters, sim-kernel introspection counters, the ``repro-bench/v1``
schema with machine metadata, the regression check (baseline-ratio
arithmetic, floors/ceilings), and the profiled-service-job HTTP round
trip.
"""

import json
import re
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.desync import build_cmuller, ensure_controller_cells
from repro.engine import FlowEngine, FlowGraph
from repro.engine.graph import Stage
from repro.liberty import GateChooser, core9_hs
from repro.netlist import Module, Netlist, PortDirection, save_verilog
from repro.obs import bench as obs_bench
from repro.obs import Context, current, prof, trace, use
from repro.obs.export import (
    SPEEDSCOPE_SCHEMA,
    collapsed_stacks,
    profile_document,
    profile_report,
    speedscope_document,
    summary_report,
    write_profile,
)
from repro.obs.prof import Profiler
from repro.service import (
    JobSpec,
    ServiceClient,
    ServiceClientError,
    ServiceDaemon,
    make_server,
)
from repro.sim import Simulator


def _busy(n=4000):
    """Deterministic CPU work with a recognisable call graph."""
    return sum(_square(i) for i in range(n))


def _square(i):
    return i * i


# ---------------------------------------------------------------------------
# Profiler: disabled no-op, capture, retention, thread scoping
# ---------------------------------------------------------------------------

def test_disabled_profiler_is_noop():
    profiler = Profiler(enabled=False)
    with profiler.stage("work") as record:
        assert record is None
        _busy(100)
    assert len(profiler) == 0
    assert profiler.overhead_estimate() == {
        "machinery_s": 0.0,
        "profiled_wall_s": 0.0,
        "fraction": 0.0,
    }


def test_default_module_profiler_is_disabled():
    assert prof.enabled() is False
    with current().profiler.stage("anything") as record:
        assert record is None


def test_enabled_profiler_captures_hot_table_and_memory():
    profiler = Profiler(enabled=True)
    with profiler.stage("compute", graph="g", flavor="unit") as record:
        _busy()
    assert len(profiler) == 1
    assert record.wall_s > 0
    assert record.calls > 0
    assert record.hot, "hot-function digest is empty"
    labels = [row["func"] for row in record.hot]
    assert any("_square" in label for label in labels)
    assert record.mem_peak_kb is not None
    assert record.attrs == {"flavor": "unit"}
    payload = record.to_dict()
    assert payload["stage"] == "compute"
    assert payload["graph"] == "g"
    assert payload["thread"] == threading.current_thread().name
    assert payload["attrs"] == {"flavor": "unit"}


def test_memory_false_skips_tracemalloc():
    profiler = Profiler(enabled=True, memory=False)
    with profiler.stage("compute"):
        _busy(200)
    record = profiler.profiles()[0]
    assert record.mem_peak_kb is None
    assert "mem_peak_kb" not in record.to_dict()


def test_stage_exception_still_records_partial_profile():
    profiler = Profiler(enabled=True)
    with pytest.raises(RuntimeError):
        with profiler.stage("broken"):
            raise RuntimeError("boom")
    record = profiler.profiles()[0]
    assert record.attrs["error"] == "RuntimeError: boom"
    assert record.wall_s >= 0


def test_max_profiles_rings_and_counts_drops():
    profiler = Profiler(enabled=True, memory=False, max_profiles=3)
    for i in range(5):
        with profiler.stage(f"s{i}"):
            pass
    assert len(profiler) == 3
    assert profiler.dropped == 2
    assert [p.name for p in profiler.profiles()] == ["s2", "s3", "s4"]
    assert profiler.to_dict()["dropped"] == 2


def test_nested_stage_is_timed_not_reprofiled():
    profiler = Profiler(enabled=True, memory=False)
    with profiler.stage("outer"):
        with profiler.stage("inner"):
            _busy(500)
    by_name = {p.name: p for p in profiler.profiles()}
    assert set(by_name) == {"outer", "inner"}
    # cProfile is per-thread exclusive: the nested stage keeps its wall
    # time but gets no call-graph of its own
    assert by_name["inner"].wall_s > 0
    assert by_name["inner"].hot == []
    assert by_name["outer"].hot


def test_counters_sum_and_peak_merge():
    profiler = Profiler(enabled=True, memory=False)
    with profiler.stage("sim"):
        profiler.add_counters(events=3, evals=1)
        profiler.add_counters(events=2)
        profiler.peak_counters(queue=5)
        profiler.peak_counters(queue=3)  # lower: must not win
    record = profiler.profiles()[0]
    assert record.counters == {"events": 5, "evals": 1, "queue": 5}
    # no active stage -> counters are dropped, not crashed
    profiler.add_counters(events=99)
    assert profiler.profiles()[0].counters["events"] == 5


def test_scoped_activation_is_thread_local():
    profiler = Profiler(enabled=True, memory=False)
    seen = {}

    def worker():
        seen["enabled"] = prof.enabled()

    with use(Context(profiler=profiler)):
        assert prof.enabled() is True
        assert current().profiler is profiler
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    assert seen["enabled"] is False, "scope leaked across threads"
    assert prof.enabled() is False


def test_overhead_estimate_accounts_machinery():
    profiler = Profiler(enabled=True)
    with profiler.stage("a"):
        _busy(500)
    estimate = profiler.overhead_estimate()
    assert estimate["machinery_s"] >= 0
    assert estimate["profiled_wall_s"] > 0
    # both terms are rounded independently of the stored fraction, so
    # the recomputation only matches loosely on a fast stage
    assert estimate["fraction"] == pytest.approx(
        estimate["machinery_s"] / estimate["profiled_wall_s"], abs=1e-2
    )


# ---------------------------------------------------------------------------
# Engine integration: stages profile under a scoped profiler
# ---------------------------------------------------------------------------

def _two_stage_graph():
    graph = FlowGraph("unit")
    graph.add(
        Stage(
            name="make",
            func=lambda inputs: _busy(2000),
            outputs=("value",),
        )
    )
    graph.add(
        Stage(
            name="consume",
            func=lambda inputs: inputs["value"] + 1,
            inputs=("value",),
            outputs=("final",),
        )
    )
    return graph


def test_engine_profiles_each_stage_under_scope():
    profiler = Profiler(enabled=True)
    with use(Context(profiler=profiler)):
        result = FlowEngine().run(_two_stage_graph())
    assert result.artifacts["final"] == _busy(2000) + 1
    names = {p.name for p in profiler.profiles()}
    assert names == {"make", "consume"}
    make_profile = next(
        p for p in profiler.profiles() if p.name == "make"
    )
    assert any("_square" in row["func"] for row in make_profile.hot)


def test_engine_without_scope_profiles_nothing():
    before = len(current().profiler)
    FlowEngine().run(_two_stage_graph())
    assert len(current().profiler) == before


def test_engine_attributes_independent_stages_to_the_scoped_profiler():
    """Independent stages all profile into the context's profiler."""
    graph = FlowGraph("branches")
    for i in range(4):
        graph.add(
            Stage(
                name=f"branch{i}",
                func=lambda inputs: _busy(500),
                outputs=(f"out{i}",),
            )
        )
    profiler = Profiler(enabled=True, memory=False)
    with use(Context(profiler=profiler)):
        FlowEngine().run(graph)
    assert {p.name for p in profiler.profiles()} == {
        "branch0", "branch1", "branch2", "branch3"
    }


# ---------------------------------------------------------------------------
# Exporters: speedscope, collapsed stacks, reports, write_profile
# ---------------------------------------------------------------------------

@pytest.fixture()
def profiled():
    profiler = Profiler(enabled=True)
    with profiler.stage("alpha"):
        _busy(2000)
    with profiler.stage("beta"):
        sorted(range(5000), key=lambda x: -x)
    return profiler


def test_speedscope_document_validates_shape(profiled):
    document = speedscope_document(profiled, name="unit")
    assert document["$schema"] == SPEEDSCOPE_SCHEMA
    assert document["name"] == "unit"
    assert document["activeProfileIndex"] == 0
    frames = document["shared"]["frames"]
    assert frames and all("name" in frame for frame in frames)
    assert len(document["profiles"]) == 2
    for profile in document["profiles"]:
        assert profile["type"] == "sampled"
        assert profile["unit"] == "seconds"
        assert profile["name"].startswith("stage:")
        assert len(profile["samples"]) == len(profile["weights"])
        assert profile["samples"], "stage profile has no samples"
        for stack in profile["samples"]:
            assert stack, "empty stack"
            assert all(0 <= idx < len(frames) for idx in stack)
        assert all(w > 0 for w in profile["weights"])
        assert profile["endValue"] == pytest.approx(
            sum(profile["weights"]), abs=1e-6
        )
    json.dumps(document)  # must be JSON-serialisable as-is


def test_collapsed_stacks_format(profiled):
    text = collapsed_stacks(profiled)
    lines = text.strip().splitlines()
    assert lines
    for line in lines:
        assert re.match(r"^(alpha|beta);.+ \d+$", line), line


def test_profile_document_schema_and_report(profiled):
    document = profile_document(profiled, name="unit")
    assert document["schema"] == "repro-profile/v1"
    assert document["stage_count"] == 2
    assert len(document["stages"]) == 2
    assert all(stage["hot"] for stage in document["stages"])
    assert document["speedscope"]["$schema"] == SPEEDSCOPE_SCHEMA
    report = profile_report(profiled)
    assert "stage alpha:" in report
    assert "profiler machinery overhead" in report


def test_write_profile_emits_all_artifacts(profiled, tmp_path):
    paths = write_profile(str(tmp_path / "prof"), profiled, name="unit")
    assert set(paths) == {"profile", "speedscope", "collapsed", "report"}
    with open(paths["profile"]) as handle:
        document = json.load(handle)
    assert document["schema"] == "repro-profile/v1"
    with open(paths["speedscope"]) as handle:
        assert json.load(handle)["$schema"] == SPEEDSCOPE_SCHEMA
    assert open(paths["collapsed"]).read().strip()
    assert "stage alpha:" in open(paths["report"]).read()


def test_summary_report_surfaces_drops_and_profiler_overhead(profiled):
    tracer = trace.Tracer(max_spans=2)
    for i in range(5):
        with tracer.span(f"s{i}"):
            pass
    report = summary_report(tracer, profiled)
    assert "dropped 3 span(s)" in report
    assert "max_spans=2" in report
    assert "profiler: 2 stage profile(s)" in report
    # a plain tracer and no profiler stays free of admissions
    clean = summary_report(trace.Tracer(), Profiler(enabled=False))
    assert "dropped" not in clean
    assert "profiler:" not in clean


# ---------------------------------------------------------------------------
# Sim-kernel introspection counters
# ---------------------------------------------------------------------------

def test_simulator_reports_counters_into_active_stage():
    library = core9_hs()
    ensure_controller_cells(library)
    module = Module("cm")
    for name in ("a", "b"):
        module.add_port(name, PortDirection.INPUT)
    module.add_port("z", PortDirection.OUTPUT)
    build_cmuller(module, ["a", "b"], "z", GateChooser(library))

    profiler = Profiler(enabled=True, memory=False)
    with use(Context(profiler=profiler)), profiler.stage("simulate"):
        sim = Simulator(module, library)
        for vector in ((0, 0), (1, 1), (0, 0)):
            sim.set_input("a", vector[0])
            sim.set_input("b", vector[1])
            sim.settle(max_time=50)
    record = profiler.profiles()[0]
    assert record.counters["sim_events"] > 0
    assert record.counters["sim_evaluations"] > 0
    assert record.counters["sim_queue_high_water"] >= 1
    assert "counters:" in profile_report(profiler)


# ---------------------------------------------------------------------------
# Bench schema: metadata and stamping
# ---------------------------------------------------------------------------

def test_machine_metadata_keys():
    meta = obs_bench.machine_metadata()
    assert set(meta) == {
        "platform", "machine", "python", "python_impl",
        "cpu_count", "git_rev", "timestamp_utc",
    }
    assert meta["python_impl"]
    assert meta["timestamp_utc"].endswith("+00:00")
    obs_bench.git_revision("/")  # outside a repo: returns None, no raise


def test_stamp_upgrades_legacy_payload_in_place():
    payload = {"bench": "x", "speedup": {"combined": 3.0}}
    returned = obs_bench.stamp(payload, "x", {"combined_speedup": 3.0})
    assert returned is payload
    assert payload["schema"] == obs_bench.SCHEMA
    assert payload["name"] == "x"
    assert payload["metrics"] == {"combined_speedup": 3.0}
    assert payload["speedup"] == {"combined": 3.0}  # legacy field kept
    assert "git_rev" in payload["meta"]


def test_structured_metric_values_are_unwrapped():
    # a committed baseline gates on its plain numbers; non-quantities
    # (bools, notes) are skipped, not crashed on
    payload = {
        "name": "unit",
        "metrics": {
            "speedup": 3.1,
            "stages": 7,
            "converged": True,
            "note": "warm cache",
        },
    }
    gateable = obs_bench.baseline_metrics(payload)
    assert gateable == {"speedup": 3.1, "stages": 7.0}
    with pytest.raises(ValueError):
        obs_bench.baseline_metrics({"bench": "no metrics block"})
    report = obs_bench.check_regression(gateable, gateable, name="unit")
    assert report.ok


# ---------------------------------------------------------------------------
# The regression detector
# ---------------------------------------------------------------------------

def test_legacy_gate_arithmetic_is_bit_identical():
    # the hand-rolled gates used strict '<' against base * (1 - tol):
    # landing exactly on the bound passes
    report = obs_bench.check_regression({"speedup": 3.0}, {"speedup": 4.0})
    assert report.ok
    assert report.checks[0].kind == "ratio"
    report = obs_bench.check_regression(
        {"speedup": 2.999999}, {"speedup": 4.0}
    )
    assert not report.ok
    assert report.exit_code() == 1


def test_floors_and_ceilings_are_absolute():
    report = obs_bench.check_regression(
        {"speedup": 7.9, "overhead_pct": 6.0},
        floors={"speedup": 8.0},
        ceilings={"overhead_pct": 5.0},
    )
    assert not report.ok
    kinds = {c.metric: c.kind for c in report.failures()}
    assert kinds == {"speedup": "floor", "overhead_pct": "ceiling"}
    # floors for metrics not in the fresh result are skipped, not failed
    report = obs_bench.check_regression({"other": 1.0}, floors={"speedup": 8})
    assert report.ok and not report.checks


def test_report_render_shape():
    report = obs_bench.check_regression(
        {"speedup": 9.0}, {"speedup": 10.0}, name="unit"
    )
    text = report.render()
    assert text.startswith("regression check: unit")
    assert "[ok] speedup:" in text
    empty = obs_bench.check_regression({}, name="unit")
    assert "(no gated metrics)" in empty.render()


# ---------------------------------------------------------------------------
# CLI --profile / --profile-out
# ---------------------------------------------------------------------------

def test_cli_profile_out_writes_artifacts(tmp_path):
    from repro.designs import figure22_circuit

    library = core9_hs()
    netlist = Netlist()
    netlist.add_module(figure22_circuit(library))
    src = tmp_path / "design.v"
    save_verilog(netlist, str(src))
    profile_dir = tmp_path / "prof"
    code = cli_main([
        str(src),
        "-o", str(tmp_path / "out.v"),
        "--no-cache",
        "--quiet",
        "--profile",
        "--profile-out", str(profile_dir),
    ])
    assert code == 0
    with open(profile_dir / "profile.json") as handle:
        document = json.load(handle)
    assert document["schema"] == "repro-profile/v1"
    assert document["stage_count"] > 0
    assert all(stage["hot"] for stage in document["stages"])
    assert len(document["speedscope"]["profiles"]) == document["stage_count"]
    assert (profile_dir / "profile.collapsed.txt").read_text().strip()
    # opt-in teardown restored the disabled default
    assert prof.enabled() is False


# ---------------------------------------------------------------------------
# Service: profiled jobs round-trip over HTTP, LRU bounding
# ---------------------------------------------------------------------------

@pytest.fixture()
def daemon(tmp_path):
    daemon = ServiceDaemon(run_dir=str(tmp_path / "svc"), workers=1)
    yield daemon
    daemon.close(timeout=30.0)


def test_profiled_job_round_trips_over_http(daemon):
    server = make_server(daemon).start_background()
    try:
        client = ServiceClient(server.url)
        ticket = client.submit(
            {"design": "counter", "params": {"width": 4}, "profile": True}
        )
        client.wait(ticket["id"], timeout=120.0)

        status = client.status(ticket["id"])
        assert status["profiled"] is True

        document = client.profile(ticket["id"])
        assert document["schema"] == "repro-profile/v1"
        assert document["job"] == ticket["id"]
        assert document["stage_count"] > 0
        assert document["stages"], "no per-stage profiles captured"
        assert all(stage["hot"] for stage in document["stages"])
        speedscope = document["speedscope"]
        assert speedscope["$schema"] == SPEEDSCOPE_SCHEMA
        assert len(speedscope["profiles"]) == document["stage_count"]
        frames = speedscope["shared"]["frames"]
        for profile in speedscope["profiles"]:
            assert len(profile["samples"]) == len(profile["weights"])
            for stack in profile["samples"]:
                assert all(0 <= idx < len(frames) for idx in stack)

        # re-submitting the same spec without --profile dedupes onto
        # the already-profiled job (observability options are not part
        # of the job identity)
        dup = client.submit({"design": "counter", "params": {"width": 4}})
        assert dup["id"] == ticket["id"]

        # an unprofiled job 404s instead of returning an empty document
        plain = client.submit({"design": "counter", "params": {"width": 5}})
        client.wait(plain["id"], timeout=120.0)
        assert client.status(plain["id"])["profiled"] is False
        with pytest.raises(ServiceClientError) as err:
            client.profile(plain["id"])
        assert err.value.status == 404
        with pytest.raises(ServiceClientError) as err:
            client.profile("ffffffffffff")
        assert err.value.status == 404
    finally:
        server.stop()


def test_daemon_job_profile_errors(daemon):
    with pytest.raises(KeyError):
        daemon.job_profile("ffffffffffff")
    job, _ = daemon.submit(JobSpec(design="counter", params={"width": 4}))
    daemon.queue.wait(job.id, timeout=120.0)
    with pytest.raises(LookupError):
        daemon.job_profile(job.id)


def test_profiled_jobs_count_service_metric(daemon):
    job, _ = daemon.submit(
        JobSpec(design="counter", params={"width": 4}, profile=True)
    )
    daemon.queue.wait(job.id, timeout=120.0)
    snapshot = daemon.registry.snapshot()
    assert snapshot["counters"]["service.profiles.captured"] >= 1
    assert daemon.job_status(job.id)["profiled"] is True


def test_daemon_bounds_profiler_retention(tmp_path):
    with ServiceDaemon(
        run_dir=str(tmp_path / "svc"), workers=1, max_traces=2
    ) as daemon:
        jobs = []
        for width in (4, 5, 6):
            job, _ = daemon.submit(
                JobSpec(design="counter", params={"width": width},
                        profile=True)
            )
            daemon.queue.wait(job.id, timeout=120.0)
            jobs.append(job)
        retention = daemon.trace_retention()
        assert (retention["jobs"], retention["evicted"]) == (2, 1)
        # oldest evicted first, profile and trace together
        assert daemon.job_status(jobs[0].id)["profiled"] is False
        with pytest.raises(LookupError):
            daemon.job_profile(jobs[0].id)
        assert daemon.job_profile(jobs[-1].id)["stage_count"] > 0


def test_job_spec_profile_field_serialization():
    spec = JobSpec(design="counter", profile=True)
    assert spec.to_dict()["profile"] is True
    again = JobSpec.from_dict(spec.to_dict())
    assert again.profile is True
    # the default stays out of the serialized form (byte-identical to
    # pre-profile job records)
    assert JobSpec(design="counter").to_dict().get("profile") is None
