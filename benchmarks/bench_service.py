"""Service throughput benchmark: cold vs warm DLX submissions.

Starts a :class:`repro.service.ServiceDaemon` with a FRESH artifact
cache, fronts it with the HTTP server, and submits the DLX fixture
(32 registers, 32-bit, with multiplier) twice over the wire with
``reuse=False`` -- so both submissions run the full flow, but the
second one resolves every stage from the daemon's shared cache.  The
cold/warm wall times (and the implied jobs/min throughput) land in
``BENCH_service.json``; the run fails when the warm submission is not
at least ``--min-speedup`` (default 5) times faster, when the warm run
is not fully cache-served, or when the daemon does not survive a
poison job and drain gracefully.

Also scrapes ``/metrics`` into the output directory and copies the
per-job journals next to it, the way the ``service-smoke`` CI job
uploads them.

Run directly (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_service.py [OUT_DIR]
        [--min-speedup X] [--workers N]

The speedup floor goes through the shared
:func:`repro.obs.bench.check_regression` gate.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.obs import bench as obs_bench  # noqa: E402
from repro.service import (  # noqa: E402
    ServiceClient,
    ServiceDaemon,
    make_server,
)

DLX_SPEC = {
    "design": "dlx",
    "params": {"registers": 32, "multiplier": True, "width": 32},
}
MIN_SPEEDUP = 5.0


def run_once(client: ServiceClient, label: str) -> dict:
    """Submit the DLX spec (forced re-run) and wait; returns timing."""
    start = time.perf_counter()
    ticket = client.submit(dict(DLX_SPEC), reuse=False)
    status = client.wait(ticket["id"], timeout=1800.0, poll=0.02)
    wall = time.perf_counter() - start
    if status["state"] != "done":
        raise SystemExit(
            f"{label} submission failed: {status.get('error')}"
        )
    return {
        "job": ticket["id"],
        "wall_s": round(wall, 6),
        "jobs_per_min": round(60.0 / wall, 3),
        "stages": status["stages"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "out_dir",
        nargs="?",
        default=os.path.join(os.path.dirname(__file__), "results"),
    )
    parser.add_argument("--min-speedup", type=float, default=MIN_SPEEDUP)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)

    run_dir = tempfile.mkdtemp(prefix="repro-service-bench-")
    daemon = ServiceDaemon(run_dir=run_dir, workers=args.workers)
    server = make_server(daemon).start_background()
    client = ServiceClient(server.url, timeout=60.0)
    try:
        print(f"daemon on {server.url} (cold cache at {daemon.cache.directory})")
        cold = run_once(client, "cold")
        print(
            f"cold: {cold['wall_s']:.3f}s "
            f"({cold['jobs_per_min']:.2f} jobs/min, "
            f"{cold['stages']['cached']}/{cold['stages']['total']} cached)"
        )
        warm = run_once(client, "warm")
        print(
            f"warm: {warm['wall_s']:.3f}s "
            f"({warm['jobs_per_min']:.2f} jobs/min, "
            f"{warm['stages']['cached']}/{warm['stages']['total']} cached)"
        )
        speedup = cold["wall_s"] / warm["wall_s"]
        print(f"cross-job cache speedup: {speedup:.1f}x")

        # failure isolation: a poison job must not take the daemon down
        poison = client.submit(
            {"design": "dlx", "params": {"bogus": True}}, reuse=False
        )
        poison_state = client.wait(poison["id"], timeout=120.0)["state"]
        health = client.health()["status"]
        print(f"poison job settled {poison_state!r}; daemon health {health!r}")

        metrics = client.metrics()
        dedupe_ticket = client.submit(dict(DLX_SPEC))  # reuse=True default
        payload = {
            "bench": "service",
            "design": DLX_SPEC,
            "cold": cold,
            "warm": warm,
            "speedup": round(speedup, 3),
            "min_speedup": args.min_speedup,
            "dedupe": {
                "deduped": dedupe_ticket["deduped"],
                "job": dedupe_ticket["id"],
            },
            "poison_job_state": poison_state,
            "health_after_poison": health,
            "jobs": metrics["service"]["jobs"],
            "cache": metrics["service"]["cache"],
        }

        # graceful drain: SIGTERM-equivalent shutdown over the API
        client.shutdown()
        deadline = time.monotonic() + 30.0
        while daemon.queue.accepting and time.monotonic() < deadline:
            time.sleep(0.05)
        payload["drained"] = not daemon.queue.accepting
        print(f"graceful drain: {payload['drained']}")
    finally:
        server.stop()
        daemon.close(timeout=30.0)

    # only the ratio is a gated metric -- jobs/min is machine-speed
    # bound and stays in the free-form payload (see DESIGN.md)
    obs_bench.stamp(payload, "service", {"speedup": payload["speedup"]},
                    cwd=ROOT)
    out_path = os.path.join(args.out_dir, "BENCH_service.json")
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out_path}")

    with open(os.path.join(args.out_dir, "service_metrics.json"), "w") as handle:
        json.dump(metrics, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # preserve the job journals the way the CI artifact upload expects
    jobs_dir = os.path.join(run_dir, "jobs")
    if os.path.isdir(jobs_dir):
        dest = os.path.join(args.out_dir, "service_journals")
        shutil.rmtree(dest, ignore_errors=True)
        shutil.copytree(jobs_dir, dest)
        daemon_journal = os.path.join(run_dir, "daemon.jsonl")
        if os.path.isfile(daemon_journal):
            shutil.copy(daemon_journal, dest)
        print(f"copied job journals to {dest}")
    shutil.rmtree(run_dir, ignore_errors=True)

    report = obs_bench.check_regression(
        payload["metrics"],
        name="service",
        floors={"speedup": args.min_speedup},
    )
    print(report.render())

    failures = []
    if not report.ok:
        failures.append(
            f"warm submission only {speedup:.1f}x faster "
            f"(target >= {args.min_speedup}x)"
        )
    if warm["stages"]["cached"] != warm["stages"]["total"]:
        failures.append("warm run was not fully cache-served")
    if not dedupe_ticket["deduped"]:
        failures.append("identical reuse=True submission did not dedupe")
    if poison_state != "failed" or health != "ok":
        failures.append("daemon did not isolate the poison job")
    if not payload["drained"]:
        failures.append("daemon did not drain gracefully on shutdown")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("service bench ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
