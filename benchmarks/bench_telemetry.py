"""Per-job trace overhead gate + trace-registry soak for the service.

Every daemon job runs in its own observability context with a span
tracer (ring bounded, mirrored into the job's journal).  This measures
what that tracer costs: warm re-runs of one job body --
:func:`repro.service.execute_job` on a shared, already-filled artifact
cache -- alternate in paired rounds between an arm whose context has
tracing off and an arm under
``use(Context(tracer=Tracer(journal=..., max_spans=..., trace_id=...)))``,
exactly the tracer the daemon enters on its worker threads.  Which
arm goes first flips every round, and every timed job starts from a
collected heap: without the collection, whether a job ran first or
second in its pair moved its median time by up to ~2 ms, about the
size of the 5% bound.  The gated overhead is the median of the per-round
differences (traced minus untraced) over the untraced arm's median;
it must stay within ``--max-overhead`` (default 5%).

It then soaks a daemon with ``--soak`` jobs (default 50) and verifies
the flat-memory guarantees of its per-job trace LRU: at most
``max_traces`` jobs retained, evictions counted, a plateaued
retained-span count, and a Perfetto-valid ``/jobs/<id>/trace`` whose
stage spans match that job's journal.

Writes ``BENCH_telemetry.json`` and the fetched job trace
(``job_trace.json``) into the output directory.

Run directly (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_telemetry.py [OUT_DIR]
        [--max-overhead PCT] [--warm-jobs N] [--soak N]

The overhead ceiling goes through the shared
:func:`repro.obs.bench.check_regression` gate.
"""

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import uuid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.engine import ArtifactCache, FlowEngine, RunJournal  # noqa: E402
from repro.engine import read_journal  # noqa: E402
from repro.liberty import core9_hs  # noqa: E402
from repro.obs import bench as obs_bench  # noqa: E402
from repro.obs import Context, Tracer, use  # noqa: E402
from repro.service import (  # noqa: E402
    JobSpec,
    ServiceClient,
    ServiceDaemon,
    execute_job,
    make_server,
)

# A/B arm: the reduced DLX fixture.  Its ~40 ms warm latency keeps a
# 5% bound (~2 ms) well clear of the tracing cost of a warm job's
# handful of spans; the counter design (~5 ms warm) drowns the signal
# in scheduler noise.
AB_SPEC = {
    "design": "dlx",
    "params": {"registers": 8, "multiplier": False, "width": 16},
}
# soak arm: the cheapest design, so 50 sequential jobs stay fast
SOAK_SPEC = {"design": "counter", "params": {"width": 8}}
MAX_OVERHEAD_PCT = 5.0
# paired rounds: on a shared 2-vCPU host the paired median of 100
# rounds stays within about +-2% run to run, where the per-arm
# min-vs-min it replaced read -14 ... +22%
WARM_ROUNDS = 100
#: per-job span retention, as the daemon defaults it
MAX_TRACE_SPANS = 5000
#: the soak's LRU bound: small, so most of its jobs get evicted
SOAK_MAX_TRACES = 16


def _timed_job(spec: JobSpec, library, cache, run_dir: str,
               traced: bool) -> float:
    """One job body the way a daemon worker runs it; returns wall s."""
    trace_id = uuid.uuid4().hex[:16]
    journal = RunJournal(
        os.path.join(run_dir, f"{trace_id}.jsonl"), trace_id=trace_id
    )
    context = (
        Context(tracer=Tracer(
            journal=journal, max_spans=MAX_TRACE_SPANS, trace_id=trace_id
        ))
        if traced
        else Context()
    )
    gc.collect()
    start = time.perf_counter()
    with use(context):
        execute_job(spec, library, FlowEngine(cache=cache, journal=journal))
    wall = time.perf_counter() - start
    journal.close()
    return wall


def measure_overhead(warm_jobs: int) -> dict:
    """Paired warm-job A/B: tracing off vs a per-job tracer.

    Both arms share one library and one filled cache; rounds alternate
    which arm runs first.  The overhead is the median of the per-round
    differences (traced minus untraced) over the untraced median.
    """
    run_dir = tempfile.mkdtemp(prefix="repro-trace-bench-")
    try:
        spec = JobSpec.from_dict(dict(AB_SPEC))
        library = core9_hs()
        cache = ArtifactCache(os.path.join(run_dir, "cache"))
        cold = _timed_job(spec, library, cache, run_dir, traced=False)
        warm = {False: [], True: []}
        for round_index in range(warm_jobs):
            order = (False, True) if round_index % 2 == 0 else (True, False)
            for traced in order:
                warm[traced].append(
                    _timed_job(spec, library, cache, run_dir, traced)
                )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    def summary(traced: bool) -> dict:
        samples = warm[traced]
        return {
            "traced": traced,
            "warm_min_s": round(min(samples), 6),
            "warm_median_s": round(statistics.median(samples), 6),
            "warm_mean_s": round(statistics.fmean(samples), 6),
            "warm_jobs": warm_jobs,
        }

    paired_diff = statistics.median(
        on - off for off, on in zip(warm[False], warm[True])
    )
    return {
        "cold_s": round(cold, 6),
        "baseline": summary(False),
        "enabled": summary(True),
        "paired_median_diff_s": round(paired_diff, 6),
        "overhead_pct": round(
            100.0 * paired_diff / statistics.median(warm[False]), 3
        ),
    }


def validate_trace(document: dict, journal_path: str) -> list:
    """Perfetto schema checks + stage-set agreement with the journal."""
    problems = []
    complete = [
        e for e in document.get("traceEvents", []) if e.get("ph") == "X"
    ]
    if not complete:
        problems.append("trace has no complete events")
    for event in complete:
        if not {"name", "ts", "dur", "pid", "tid"} <= set(event):
            problems.append(f"malformed trace event: {event}")
            break
        if event["ts"] < 0 or event["dur"] < 0:
            problems.append(f"negative ts/dur in {event['name']}")
    # executed stages leave ``stage:<name>`` spans, cache-served ones
    # ``cache:<name>`` (hit); together they cover every settled stage
    trace_stages = {
        e["name"].split(":", 1)[1]
        for e in complete
        if e["name"].startswith(("stage:", "cache:"))
    }
    journal_stages = {
        e["stage"]
        for e in read_journal(journal_path)
        if e.get("event") == "stage_end"
    }
    if trace_stages != journal_stages:
        problems.append(
            f"trace stages {sorted(trace_stages)} != journal "
            f"stages {sorted(journal_stages)}"
        )
    return problems


def soak(out_dir: str, jobs: int) -> dict:
    """Soak one daemon and check its per-job trace LRU stays bounded."""
    run_dir = tempfile.mkdtemp(prefix="repro-trace-soak-")
    daemon = ServiceDaemon(
        run_dir=run_dir,
        workers=1,
        max_traces=SOAK_MAX_TRACES,
        max_trace_spans=500,
    )
    server = make_server(daemon).start_background()
    client = ServiceClient(server.url, timeout=60.0)
    problems = []
    try:
        span_counts = []
        last_ticket = None
        for _ in range(jobs):
            last_ticket = client.submit(dict(SOAK_SPEC), reuse=False)
            client.wait(last_ticket["id"], timeout=600.0, poll=0.002)
            span_counts.append(daemon.trace_retention()["spans"])

        retention = daemon.trace_retention()
        if retention["jobs"] > SOAK_MAX_TRACES:
            problems.append("trace LRU exceeded max_traces")
        if retention["evicted"] != max(0, jobs - SOAK_MAX_TRACES):
            problems.append(
                f"{retention['evicted']} evictions counted for {jobs} "
                f"jobs over a bound of {SOAK_MAX_TRACES}"
            )
        if max(span_counts[-5:]) > max(span_counts[: jobs // 2]):
            problems.append(
                f"retained spans still growing: {span_counts[-5:]} vs "
                f"first-half max {max(span_counts[:jobs // 2])}"
            )

        trace_doc = client.trace(last_ticket["id"])
        problems += validate_trace(
            trace_doc, daemon.job_journal_path(last_ticket["id"])
        )
        with open(os.path.join(out_dir, "job_trace.json"), "w") as handle:
            json.dump(trace_doc, handle, indent=1)
            handle.write("\n")

        return {
            "jobs": jobs,
            "retained_traces": retention["jobs"],
            "evicted_traces": retention["evicted"],
            "retained_spans_final": span_counts[-1],
            "retained_spans_peak": max(span_counts),
            "trace_events": len(trace_doc.get("traceEvents", [])),
            "problems": problems,
        }
    finally:
        server.stop()
        daemon.close(timeout=30.0)
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "out_dir",
        nargs="?",
        default=os.path.join(os.path.dirname(__file__), "results"),
    )
    parser.add_argument(
        "--max-overhead", type=float, default=MAX_OVERHEAD_PCT,
        help="max warm-job slowdown under a per-job tracer, in percent",
    )
    parser.add_argument("--warm-jobs", type=int, default=WARM_ROUNDS)
    parser.add_argument("--soak", type=int, default=50)
    args = parser.parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)

    for spec in (AB_SPEC, SOAK_SPEC):
        JobSpec(**spec).validate()
    measured = measure_overhead(warm_jobs=args.warm_jobs)
    baseline, enabled = measured["baseline"], measured["enabled"]
    print(
        f"untraced: warm min {baseline['warm_min_s'] * 1e3:.2f} ms "
        f"(median {baseline['warm_median_s'] * 1e3:.2f} ms)"
    )
    print(
        f"traced:   warm min {enabled['warm_min_s'] * 1e3:.2f} ms "
        f"(median {enabled['warm_median_s'] * 1e3:.2f} ms)"
    )
    overhead_pct = measured["overhead_pct"]
    print(
        f"per-job trace overhead: {overhead_pct:+.2f}% (median paired "
        f"difference {measured['paired_median_diff_s'] * 1e3:+.2f} ms)"
    )

    print(f"soaking {args.soak} sequential jobs ...")
    soak_result = soak(args.out_dir, args.soak)
    print(
        f"soak: {soak_result['retained_traces']} tracers retained, "
        f"{soak_result['evicted_traces']} evicted, "
        f"{soak_result['retained_spans_final']} spans"
    )

    payload = {
        "bench": "telemetry",
        "design": AB_SPEC,
        "soak_design": SOAK_SPEC,
        "cold_s": measured["cold_s"],
        "baseline": baseline,
        "enabled": enabled,
        "paired_median_diff_s": measured["paired_median_diff_s"],
        "overhead_pct": overhead_pct,
        "max_overhead_pct": args.max_overhead,
        "soak": soak_result,
    }
    obs_bench.stamp(
        payload,
        "telemetry",
        {"overhead_pct": payload["overhead_pct"]},
        cwd=ROOT,
    )
    out_path = os.path.join(args.out_dir, "BENCH_telemetry.json")
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out_path}")

    report = obs_bench.check_regression(
        payload["metrics"],
        name="telemetry",
        ceilings={"overhead_pct": args.max_overhead},
    )
    print(report.render())

    failures = list(soak_result["problems"])
    if not report.ok:
        failures.append(
            f"per-job trace overhead {overhead_pct:.2f}% exceeds "
            f"{args.max_overhead}%"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("telemetry bench ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
