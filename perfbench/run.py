"""The repo benchmark: fresh-process ``drdesync`` conversions and a warm
ECO edit stream, closed loop with one client.

    python3 perfbench/run.py --workload dlx_convert|arm_convert|dlx_eco
                             [--seed N] [--seconds S] [--trace 0|1] [--tiny]

Untraced runs (``--trace 0``) print the end-to-end metrics, each op's
time scaled to a reference host speed by the probes run around and
through it (``hostspeed.py``); traced runs (``--trace 1``) wrap each
layer's public functions from the benchmark's own files and print the
per-layer metrics.  Every op's output is checked; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--tiny`` runs the same
workloads on small designs for the harness self-test.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import datetime
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from inputs import (
    HERE,
    ROOT,
    SRC,
    child_env,
    cli_args,
    design_key,
    recorded_digest,
    sha256_file,
    write_input,
)
from hostspeed import Sampler
from spans import layer_medians, load

WORKLOADS = ("dlx_convert", "arm_convert", "dlx_eco")

#: end-to-end metrics (untraced runs): name -> unit
END_TO_END = {
    "setup_s": "s",
    "cold_p50_s": "s",
    "warm_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (traced runs): name -> unit
PER_LAYER = {
    "cli.import_s": "s",
    "cli.main_s": "s",
    "liberty.build_s": "s",
    "liberty.gatefile_s": "s",
    "netlist.parse_s": "s",
    "netlist.write_s": "s",
    "netlist.cells_in": "count",
    "netlist.cells_out": "count",
    "netlist.nets_out": "count",
    "engine.overhead_s": "s",
    "engine.cache.put_s": "s",
    "engine.cache.load_s": "s",
    "engine.cache.bytes": "bytes",
    "engine.cache.hit_ratio": "ratio",
    "sta.min_clock_period_s": "s",
    "sta.region_delays_s": "s",
    "sta.eco_retime_s": "s",
    "desync.clean_logic_s": "s",
    "desync.group_regions_s": "s",
    "desync.validate_independence_s": "s",
    "desync.regions": "count",
    "desync.ffsub_s": "s",
    "desync.ffs_replaced": "count",
    "desync.ddg_s": "s",
    "desync.ladder_s": "s",
    "desync.network_s": "s",
    "desync.constraints_s": "s",
    "desync.other_s": "s",
    "desync.ddg_edges": "count",
    "desync.controllers": "count",
    "desync.delay_elements": "count",
    "flow.incremental.start_s": "s",
    "flow.incremental.apply_s": "s",
    "flow.incremental.regroup_s": "s",
    "flow.incremental.patch_ddg_s": "s",
    "flow.incremental.oracle_s": "s",
    "eco.path.splice": "count",
    "eco.path.network": "count",
    "eco.path.deep": "count",
    "eco.splice_ratio": "ratio",
    "eco.live_modules": "count",
    "eco.rss_growth_mb": "MB",
    "trace.cold_overhead_s": "s",
    "trace.warm_overhead_ms": "ms",
}

#: set-ups per run; setup_s is their median.  A convert set-up builds
#: the input netlist in-process (~0.2 s), a dlx_eco set-up starts a
#: fresh worker process (~5 s)
CONVERT_SETUPS = 5
ECO_SETUPS = 3
#: a run must end within this many seconds of its start
RUN_LIMIT_S = 170.0
#: seconds of work between two host-speed probes
SAMPLE_S = 0.5
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
TRACE_CLI = os.path.join(HERE, "trace_cli.py")
ECO_WORKER = os.path.join(HERE, "eco_worker.py")


class Children:
    """Starts the harness's child processes one at a time.

    One client, closed loop: a child starts only when no other child of
    the harness is alive, and every child is waited for before ``run``
    returns.
    """

    def __init__(self, deadline: float, work: str):
        self.deadline = deadline
        self.env = child_env()
        self.stderr_path = os.path.join(work, "stderr.txt")

    @staticmethod
    def assert_none_alive() -> None:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        raise RuntimeError(
            f"a child process (pid {pid or 'running'}) outlived its op"
        )

    def run(
        self,
        argv: List[str],
        sampler: Optional[Sampler] = None,
        sliced: bool = False,
    ):
        """Run ``argv``; returns (exit code or None on timeout, seconds,
        scaled seconds).

        With a ``sampler``, the op is scaled by the probes around it:
        one after it ends and, when ``sliced``, one every ``SAMPLE_S``
        seconds while the child is stopped, so a host that changes
        speed during a long op is tracked through it.  Probe time is
        not counted in the op's seconds.  Without a ``sampler`` the
        scaled seconds are 0.
        """
        self.assert_none_alive()
        with open(self.stderr_path, "w+", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv,
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            try:
                exited = os.pidfd_open(proc.pid)
                try:
                    while True:
                        left = self.deadline - time.monotonic()
                        if left <= 0:
                            return None, time.perf_counter() - start, 0.0
                        wait = min(SAMPLE_S, left) if sliced else left
                        if select.select([exited], [], [], wait)[0]:
                            break
                        if sliced:
                            os.kill(proc.pid, signal.SIGSTOP)
                            try:
                                sampler.sample()
                            finally:
                                os.kill(proc.pid, signal.SIGCONT)
                    end = time.perf_counter()
                finally:
                    os.close(exited)
                proc.wait()
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            if proc.returncode != 0:
                err.seek(0)
                sys.stderr.write(err.read()[-4000:])
        if sampler is None:
            return proc.returncode, end - start, 0.0
        sampler.sample()
        return (proc.returncode, *sampler.measure(start, end))

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: List[float]) -> Optional[tuple]:
    """(q, value) of the highest percentile with ten samples beyond it."""
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(values, n=100)[q - 1]
    return None


def describe(
    name: str, values: List[float], unit: str, scale: float = 1.0
) -> str:
    line = f"{name} {median(values) * scale:.6g} {unit} (n={len(values)})"
    found = tail(values)
    if found:
        line += f", p{found[0]} {found[1] * scale:.6g} {unit}"
    return line


def host_sample() -> Dict[str, object]:
    with open("/proc/stat", "r", encoding="ascii") as handle:
        cpu = handle.readline().split()
    return {
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "loadavg": list(os.getloadavg()),
        "steal_jiffies": int(cpu[8]),
    }


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _dirs, files in os.walk(path)
        for name in files
    )


def layer_metrics(processes, overhead_cold, overhead_warm) -> Dict[str, float]:
    """Per-layer metrics from traced processes' spans and counts."""
    times, counts, totals = layer_medians(processes)
    metrics = {name: 0.0 for name in PER_LAYER}
    for name, seconds in times.items():
        if name + "_s" in metrics:
            metrics[name + "_s"] = seconds
    for name, value in counts.items():
        if name in metrics:
            metrics[name] = value
    lookups = totals.get("engine.cache.lookups", 0)
    if lookups:
        hits = totals["engine.cache.hits"]
        metrics["engine.cache.hit_ratio"] = hits / lookups
    metrics["trace.cold_overhead_s"] = overhead_cold
    metrics["trace.warm_overhead_ms"] = overhead_warm * 1000
    return metrics


def overhead(ops: List[dict], kind: str) -> float:
    """Median traced minus median untraced scaled time of one op kind."""
    done = [op for op in ops if op["kind"] == kind and op["ok"]]
    traced = [op["scaled"] for op in done if op["traced"]]
    plain = [op["scaled"] for op in done if not op["traced"]]
    if not traced or not plain:
        return 0.0
    return median(traced) - median(plain)


# ----------------------------------------------------------------------
# convert workloads: one fresh drdesync process per op
# ----------------------------------------------------------------------
def convert_workload(args, work: str, children: Children) -> dict:
    expected = recorded_digest(design_key(args.workload, args.seed, args.tiny))
    netlist = os.path.join(work, "input.v")
    sampler = Sampler()
    sampler.start_timer(SAMPLE_S)
    bounds = []
    try:
        for _ in range(CONVERT_SETUPS):
            start = time.perf_counter()
            write_input(args.workload, args.seed, args.tiny, netlist)
            bounds.append((start, time.perf_counter()))
    finally:
        sampler.stop_timer()
    sampler.sample()
    raw_setups, setups = zip(*(sampler.measure(*span) for span in bounds))

    ops: List[dict] = []
    processes = []
    cache_bytes = []
    began = time.perf_counter()
    cycle = 0
    # traced runs alternate traced and plain cycles to measure the
    # tracing overhead, so they need at least one of each
    min_cycles = 2 if args.trace else 1
    while not children.expired() and (
        cycle < min_cycles or time.perf_counter() - began < args.seconds
    ):
        traced = bool(args.trace) and cycle % 2 == 0
        cache = os.path.join(work, f"cache-{cycle}")
        os.makedirs(cache)
        convert_digest = None
        for step, kind in enumerate(("convert", "rerun", "rerun")):
            op_id = f"{kind}-{cycle}-{step}"
            verilog = os.path.join(work, op_id + ".v")
            sdc = os.path.join(work, op_id + ".sdc")
            cli = cli_args(args.workload, netlist, verilog, sdc, cache)
            spans_path = os.path.join(work, op_id + ".spans.json")
            if traced:
                command = [sys.executable, TRACE_CLI, spans_path, op_id, "--"]
            else:
                command = [sys.executable, "-m", "repro.cli"]
            command += cli
            # traced runs stop no child, traced or plain: a stop would
            # land in a span, and both kinds must be timed alike
            code, seconds, scaled = children.run(
                command, sampler, sliced=not args.trace
            )
            digest = None
            if code == 0:
                digest = {
                    "verilog": sha256_file(verilog),
                    "sdc": sha256_file(sdc),
                }
                if kind == "convert":
                    convert_digest = digest
            ok = digest is not None and digest == expected == convert_digest
            ops.append(
                {
                    "kind": kind,
                    "seconds": seconds,
                    "scaled": scaled,
                    "ok": ok,
                    "traced": traced,
                }
            )
            if traced and os.path.exists(spans_path):
                processes.append(load(spans_path))
            if traced and kind == "convert" and code == 0:
                cache_bytes.append(dir_bytes(cache))
            for path in (verilog, sdc, spans_path):
                if os.path.exists(path):
                    os.remove(path)
        shutil.rmtree(cache)
        cycle += 1

    def times(kind, key="scaled"):
        return [op[key] for op in ops if op["kind"] == kind and op["ok"]]

    convert = times("convert")
    rerun = times("rerun")
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    lines = [
        describe("setup_s", setups, "s"),
        describe("convert_p50_s", convert, "s"),
        describe("rerun_p50_s", rerun, "s"),
        f"peak_rss_mb {peak:.1f} MB (largest conversion process)",
        describe("raw setup_s", raw_setups, "s"),
        describe("raw convert_p50_s", times("convert", "seconds"), "s"),
        describe("raw rerun_p50_s", times("rerun", "seconds"), "s"),
        describe("probe_s", sampler.probes, "s"),
    ]
    if args.trace:
        metrics = layer_metrics(
            processes, overhead(ops, "convert"), overhead(ops, "rerun")
        )
        metrics["engine.cache.bytes"] = median(cache_bytes)
    else:
        metrics = {
            "setup_s": median(setups),
            "cold_p50_s": median(convert),
            "warm_p50_ms": median(rerun) * 1000,
            "peak_rss_mb": peak,
        }
    return {
        "ops": ops,
        "probes": sampler.probes,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op["ok"]),
        "checks_ok": True,
        "metrics": metrics,
        "lines": lines,
    }


# ----------------------------------------------------------------------
# dlx_eco: one incremental session, edits applied in its process
# ----------------------------------------------------------------------
def eco_worker(args, work: str, children: Children, mode: str, index: int):
    out = os.path.join(work, f"eco-{index}.json")
    spans_path = os.path.join(work, f"eco-{index}.spans.json")
    config = {
        "mode": mode,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "index": index,
        "out": out,
        "spans": spans_path,
    }
    code, _seconds, _scaled = children.run(
        [sys.executable, ECO_WORKER, json.dumps(config)]
    )
    result = None
    if code == 0 and os.path.exists(out):
        with open(out, "r", encoding="utf-8") as handle:
            result = json.load(handle)
    processes = []
    if args.trace and os.path.exists(spans_path):
        processes.append(load(spans_path))
    return result, processes


def eco_workload(args, work: str, children: Children) -> dict:
    raw_setups, setups, probes = [], [], []
    processes = []
    for index in range(ECO_SETUPS):
        mode = "stream" if index == ECO_SETUPS - 1 else "setup"
        result, spans = eco_worker(args, work, children, mode, index)
        processes += spans
        if result is not None:
            raw_setups.append(result["setup_raw_s"])
            setups.append(result["setup_s"])
            probes += result["probes"]
    if result is None or "ops" not in result:
        names = PER_LAYER if args.trace else END_TO_END
        return {
            "ops": [],
            "attempted": 1,
            "failed": 1,
            "checks_ok": False,
            "metrics": {name: 0.0 for name in names},
            "lines": ["eco worker failed"],
        }
    ops = result["ops"]
    checks_ok = result["start_ok"] and result["oracle_ok"]
    if not checks_ok:
        # a wrong session output fails every edit that led to it
        for op in ops:
            op["ok"] = False

    def times(kind, key="scaled"):
        return [op[key] for op in ops if op["kind"] == kind and op["ok"]]

    paths = {
        path: sum(1 for op in ops if op["path"] == path)
        for path in ("splice", "network", "deep")
    }
    lines = [
        describe("setup_s", setups, "s"),
        describe("resize_p50_ms", times("resize"), "ms", 1000),
        describe("annotate_p50_ms", times("annotate"), "ms", 1000),
        describe("buffer_resize_p50_ms", times("buffer"), "ms", 1000),
        f"peak_rss_mb {result['peak_rss_mb']:.1f} MB "
        "(before the oracle check)",
        f"eco paths {paths}; live Modules {result['live_modules']}; "
        f"RSS growth {result['rss_growth_mb']:.1f} MB",
        f"checks: start digest {'ok' if result['start_ok'] else 'MISMATCH'}, "
        f"oracle {'ok' if result['oracle_ok'] else 'MISMATCH'}",
        describe("raw setup_s", raw_setups, "s"),
        describe("raw resize_p50_ms", times("resize", "seconds"), "ms", 1000),
        describe(
            "raw buffer_resize_p50_ms", times("buffer", "seconds"), "ms", 1000
        ),
        describe("probe_s", probes, "s"),
    ]
    if args.trace:
        metrics = layer_metrics(
            processes, overhead(ops, "buffer"), overhead(ops, "resize")
        )
        for path, count in paths.items():
            metrics[f"eco.path.{path}"] = count
        metrics["eco.splice_ratio"] = paths["splice"] / len(ops) if ops else 0
        metrics["eco.live_modules"] = result["live_modules"]
        metrics["eco.rss_growth_mb"] = result["rss_growth_mb"]
    else:
        metrics = {
            "setup_s": median(setups),
            "cold_p50_s": median(times("buffer")),
            "warm_p50_ms": median(times("resize")) * 1000,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    return {
        "ops": ops,
        "probes": probes,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op["ok"]),
        "checks_ok": checks_ok,
        "metrics": metrics,
        "lines": lines,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small designs (harness self-test)"
    )
    return parser.parse_args(argv)


def _terminate(signum, _frame):
    # unwind through the ``finally`` blocks that kill and reap the child
    # process and remove the work directory
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from repro.obs.bench import machine_metadata

    # the probes and the ops they scale must run on the same vCPU: the
    # vCPUs' speeds move independently from one second to the next.
    # Children inherit the mask; every op runs one process with one
    # thread (``--jobs 1``).
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    run_start = time.monotonic()
    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=1)
    host_before = host_sample()
    work = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    children = Children(run_start + RUN_LIMIT_S, work)
    try:
        if args.workload == "dlx_eco":
            outcome = eco_workload(args, work, children)
        else:
            outcome = convert_workload(args, work, children)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    Children.assert_none_alive()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": machine_metadata(cwd=ROOT),
        "nproc": len(cpus),
        "cpu": max(cpus),
        "host_before": host_before,
        "host_after": host_sample(),
        **outcome,
    }
    os.makedirs(RUNS_DIR, exist_ok=True)
    now = datetime.datetime.now(datetime.timezone.utc)
    name = (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-"
        f"{now:%Y%m%dT%H%M%S}-{os.getpid()}.json"
    )
    with open(os.path.join(RUNS_DIR, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    units = PER_LAYER if args.trace else END_TO_END
    print(
        f"perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    host = ("nproc", "host_before", "host_after")
    print("host:", json.dumps({key: record[key] for key in host}))
    for line in outcome["lines"]:
        print(line)
    for metric, value in outcome["metrics"].items():
        print(f"{metric} {value:.6g} {units[metric]}")
    correct = (
        outcome["checks_ok"]
        and outcome["failed"] == 0
        and outcome["attempted"] > 0
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    metric: {"value": value, "unit": units[metric]}
                    for metric, value in outcome["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
