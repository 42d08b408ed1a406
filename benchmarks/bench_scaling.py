"""Stage-scaling gate: how netlist edits and each convert stage grow.

Every measurement is reduced to a log-log slope, the exponent ``k`` of
``time ~ size**k`` fitted by least squares.  Slopes, unlike seconds,
compare across hosts: a stage that is linear in the design stays near
1 on any machine, and a per-edit rescan of a high-fanout net shows up
as a slope near 2.

1. **Netlist primitives**, in this process.  One net with F sinks
   (F = 1k/2k/4k/8k): detach every sink (``Module.disconnect``), and
   buffer the net with ``physical.cts.synthesize_tree``, which builds the
   control network's ``gm_*``/``gs_*`` enable trees and the backend's
   clock trees.  Best of up to fifteen timings per point, taken in
   interleaved rounds over the sizes, with the cyclic GC paused.
2. **Cold converts** of the scan ARM-class core (``arm9_core``, the
   ``perfbench`` ``arm_convert`` design; ``--library ll --group
   single``) at 4k/8k/16k cells, each a fresh ``drdesync`` process with
   ``--no-cache``.  Rounds interleave the sizes; a stage's time is the
   median over three rounds of its duration in the run journal
   (``--journal``).  Each child also records its cyclic-GC pauses
   (``gc.callbacks``), charged to the stage they fall in.

Gates, as ceilings through :func:`repro.obs.bench.check_regression`:
both primitive slopes <= 1.3; every stage taking >= 0.1 s at the
largest size, timed without the GC pauses that fell inside it, <= 1.5;
and the convert's total GC pause time at the largest size <= 8% of its
engine wall time.  GC is gated on its own because its pauses are lumpy:
a full collection lands in whichever stage happens to cross the
threshold, which would bend that stage's slope from run to run.  It is
gated as a share, not a slope, because under the CLI's collector
policy the smallest convert may not reach one collection at all; a
fit through that near-zero point rises when GC falls.  The stage
ceiling stays above the primitives' because a stage's time at 4k cells
is a few tenths of a second of wall time on a shared host.

Run directly (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_scaling.py [OUT_DIR]

The converts run the ``repro`` package this script imports, so
``PYTHONPATH=../old/src`` measures an older checkout's tree.  Writes
``BENCH_scaling.json`` into ``OUT_DIR``.
"""

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FANOUTS = (1000, 2000, 4000, 8000)
ARM_SIZES = (4000, 8000, 16000)
ARM_SEED = 1996
#: convert rounds (a stage's time is its median) and primitive rounds
#: (a point's time is the best)
ROUNDS = 3
REPEATS = 15
#: no further primitive round once one primitive's timings add up to
#: this (a quadratic tree takes seconds per round)
REPEAT_BUDGET_S = 3.0
MAX_PRIMITIVE_SLOPE = 1.3
MAX_STAGE_SLOPE = 1.5
#: GC pause time over engine wall time, at the largest size: the
#: CLI's policy spends ~4% there, the interpreter default ~15%
MAX_GC_SHARE = 0.08
#: stages faster than this at the largest size (GC pauses excluded)
#: are reported, not gated
MIN_STAGE_S = 0.1

#: the convert child: drdesync's main under a recorder of GC pauses
#: (wall-clock start/end, the journal's clock), dumped to argv[1]
CHILD = """\
import gc, json, sys, time
pauses = []
def on_gc(phase, info):
    if phase == "start":
        on_gc.start = time.time()
    else:
        pauses.append((on_gc.start, time.time()))
gc.callbacks.append(on_gc)
from repro.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as handle:
    json.dump(pauses, handle)
sys.exit(code)
"""


def loglog_slope(sizes, seconds):
    """Least-squares exponent ``k`` of ``seconds ~ sizes**k``."""
    xs = [math.log(size) for size in sizes]
    ys = [math.log(max(value, 1e-9)) for value in seconds]
    mean_x, mean_y = statistics.fmean(xs), statistics.fmean(ys)
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


# ----------------------------------------------------------------------
# netlist primitives
# ----------------------------------------------------------------------
def fanout_module(fanout):
    """A module whose net ``n`` feeds the A pin of ``fanout`` inverters."""
    from repro.netlist import Module

    module = Module("fanout")
    for index in range(fanout):
        module.add_instance(f"s{index}", "INVX1", {"A": "n"})
    return module


def detach_all(module, fanout, _library):
    for index in range(fanout):
        module.disconnect(f"s{index}", "A")


def buffer_net(module, _fanout, library):
    from repro.physical.cts import synthesize_tree

    synthesize_tree(module, library, "n")


def time_primitive(edit, fanout, library):
    """Wall time of ``edit`` on a fresh fanout module.

    The cyclic GC is paused while timing: a full collection that
    happens to fall inside one point scans the whole heap, which would
    bend a slope of a few milliseconds' work.  The converts below keep
    GC on and gate it on its own.
    """
    module = fanout_module(fanout)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        edit(module, fanout, library)
        return time.perf_counter() - start
    finally:
        gc.enable()


def measure_primitives():
    from repro.liberty import core9_hs

    library = core9_hs()
    out = {"fanouts": list(FANOUTS)}
    for name, edit in (("detach", detach_all), ("cts", buffer_net)):
        best = dict.fromkeys(FANOUTS, math.inf)
        spent = 0.0
        # rounds over every size, so a slow spell of the host is shared
        for _ in range(REPEATS):
            for fanout in FANOUTS:
                elapsed = time_primitive(edit, fanout, library)
                best[fanout] = min(best[fanout], elapsed)
                spent += elapsed
            if spent > REPEAT_BUDGET_S:
                break
        seconds = [best[fanout] for fanout in FANOUTS]
        for fanout, value in zip(FANOUTS, seconds):
            print(f"  {name:6s} F={fanout:5d}: {value * 1e3:8.2f} ms")
        out[f"{name}_s"] = [round(value, 6) for value in seconds]
        out[f"{name}_slope"] = round(loglog_slope(FANOUTS, seconds), 3)
    return out


# ----------------------------------------------------------------------
# cold ARM converts, one fresh process each
# ----------------------------------------------------------------------
def write_arm_inputs(work):
    """Generate the ARM core at each size; returns (cells, path) pairs."""
    from repro.designs import arm9_core
    from repro.liberty.core9 import core9_ll
    from repro.netlist.verilog import write_module

    library = core9_ll()
    inputs = []
    for size in ARM_SIZES:
        module = arm9_core(library, target_cells=size, seed=ARM_SEED)
        path = os.path.join(work, f"arm{size}.v")
        with open(path, "w") as handle:
            handle.write(write_module(module))
        inputs.append((len(module.instances), path))
    return inputs


def convert_once(src, netlist, work):
    """One cold convert; returns stage durations, GC pauses and wall."""
    from repro.engine import read_journal

    journal = os.path.join(work, "run.jsonl")
    pauses_path = os.path.join(work, "gc.json")
    command = [
        sys.executable, "-c", CHILD, pauses_path, netlist,
        "-o", os.path.join(work, "out.v"),
        "--sdc", os.path.join(work, "out.sdc"),
        "--library", "ll", "--group", "single",
        "--no-cache", "--journal", journal, "--quiet",
    ]
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    subprocess.run(command, check=True, cwd=work, env=env)
    wall = time.perf_counter() - start
    with open(pauses_path) as handle:
        pauses = json.load(handle)
    stages, gc_s, net_s = {}, {}, {}
    engine_s = None
    for event in read_journal(journal):
        if event["event"] == "run_end":
            engine_s = event["duration"]
        if event["event"] != "stage_end":
            continue
        name, end = event["stage"], event["ts"]
        begin = end - event["duration"]
        stages[name] = event["duration"]
        gc_s[name] = sum(
            stop - first
            for first, stop in pauses
            if begin <= (first + stop) / 2 <= end
        )
        net_s[name] = stages[name] - gc_s[name]
    return {
        "stages": stages,
        "gc_s": gc_s,
        "net_s": net_s,
        "gc_total_s": sum(stop - first for first, stop in pauses),
        "engine_s": engine_s,
        "wall_s": wall,
    }


def measure_converts(src, work):
    inputs = write_arm_inputs(work)
    runs = {cells: [] for cells, _path in inputs}
    for round_index in range(ROUNDS):
        # alternate the size order so host drift hits every size alike
        order = inputs if round_index % 2 == 0 else inputs[::-1]
        for cells, path in order:
            run = convert_once(src, path, work)
            runs[cells].append(run)
            print(
                f"  round {round_index + 1} ARM {cells:6d} cells: "
                f"engine {run['engine_s']:6.2f} s, "
                f"GC {run['gc_total_s']:5.2f} s"
            )
    cells = [cells for cells, _path in inputs]

    def medians(field, stage=None):
        return [
            statistics.median(
                run[field][stage] if stage else run[field]
                for run in runs[size]
            )
            for size in cells
        ]

    def rounded(values):
        return [round(value, 4) for value in values]

    stages = {}
    for name in runs[cells[-1]][0]["stages"]:
        seconds = medians("stages", name)
        net = medians("net_s", name)
        stages[name] = {
            "median_s": rounded(seconds),
            "gc_s": rounded(medians("gc_s", name)),
            "net_s": rounded(net),
            "raw_slope": round(loglog_slope(cells, seconds), 3),
            "slope": round(loglog_slope(cells, net), 3),
        }
    engine = medians("engine_s")
    gc_total = medians("gc_total_s")
    return {
        "cells": cells,
        "rounds": ROUNDS,
        "stages": stages,
        "engine_s": rounded(engine),
        "engine_slope": round(loglog_slope(cells, engine), 3),
        "gc_total_s": rounded(gc_total),
        "gc_slope": round(loglog_slope(cells, gc_total), 3),
        "gc_share": round(gc_total[-1] / engine[-1], 4),
        "wall_s": rounded(medians("wall_s")),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "out_dir",
        nargs="?",
        default=os.path.join(os.path.dirname(__file__), "results"),
    )
    args = parser.parse_args(argv)
    import repro
    from repro.obs import bench as obs_bench

    # the converts run in a temporary directory: hand the children the
    # tree this process imported
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

    print(f"netlist primitives ({src}):")
    primitives = measure_primitives()
    print(f"cold ARM converts, {ROUNDS} rounds:")
    with tempfile.TemporaryDirectory(prefix="bench-scaling-") as work:
        converts = measure_converts(src, work)

    metrics = {
        "primitive.detach_slope": primitives["detach_slope"],
        "primitive.cts_slope": primitives["cts_slope"],
    }
    ceilings = {
        "primitive.detach_slope": MAX_PRIMITIVE_SLOPE,
        "primitive.cts_slope": MAX_PRIMITIVE_SLOPE,
    }
    print(
        f"{'stage':12s} {'seconds per size':>26s} {'of which GC':>20s}"
        "   raw  w/o GC"
    )
    for name, stage in converts["stages"].items():
        gated = stage["net_s"][-1] >= MIN_STAGE_S
        stage["gated"] = gated
        if gated:
            metrics[f"stage.{name}_slope"] = stage["slope"]
            ceilings[f"stage.{name}_slope"] = MAX_STAGE_SLOPE
        print(
            f"{name:12s} "
            f"{' '.join(f'{s:8.3f}' for s in stage['median_s']):>26s} "
            f"{' '.join(f'{s:6.3f}' for s in stage['gc_s']):>20s} "
            f"{stage['raw_slope']:5.2f}  {stage['slope']:5.2f}"
            f"{'' if gated else ' (not gated)'}"
        )
    metrics["gc_share"] = converts["gc_share"]
    ceilings["gc_share"] = MAX_GC_SHARE
    print(
        f"engine wall {converts['engine_s']} s (slope "
        f"{converts['engine_slope']:.2f}), GC {converts['gc_total_s']} s "
        f"(slope {converts['gc_slope']:.2f}, "
        f"{converts['gc_share']:.1%} of the largest convert)"
    )

    payload = {
        "bench": "scaling",
        "primitives": primitives,
        "arm_convert": converts,
        "ceilings": ceilings,
        "min_stage_s": MIN_STAGE_S,
    }
    obs_bench.stamp(payload, "scaling", metrics, cwd=ROOT)
    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, "BENCH_scaling.json")
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out_path}")

    report = obs_bench.check_regression(
        metrics, name="scaling", ceilings=ceilings
    )
    print(report.render())
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
