"""Incremental re-flow benchmark: ECO edit vs from-scratch pipeline.

Measures the tentpole claim end to end on the full DLX core: a
single-cell drive swap pushed through ``repro.flow.incremental``
(mutation stamps -> dirty sets -> cached region partition -> DDG patch
-> warm compiled-STA delay re-selection -> spliced control network)
against re-running the whole desynchronization flow on the edited
netlist.

Bit-identity is asserted before any timing is reported: the
incremental result's Verilog and SDC must equal the from-scratch
(mode="full") flow's output exactly, every repeat.

The detail block also times one buffer resize, which logic cleaning
keeps off the splice path: ``deep_apply_s`` is the deep re-flow (edit
the import snapshot, re-run group/ffsub/ddg on a clone, re-insert the
network), checked against ``session.oracle()``.  It is reported next
to ``session_start_s`` and is not gated.

The regression metric is the speedup *ratio* (cold seconds /
incremental seconds) -- both paths run on the same machine, so the
ratio survives CI-runner noise.  The ratio is also gated absolutely:
below ``MIN_SPEEDUP`` (20x) the benchmark fails outright.

Run directly (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_incremental.py [OUT_DIR]
        [--check BASELINE_JSON] [--repeats N]

``--check`` gates the fresh speedup through
:func:`repro.obs.bench.check_regression` against a committed baseline
``BENCH_incr.json`` (a >25% drop fails).
"""

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.designs import dlx_core  # noqa: E402
from repro.desync import DesyncOptions, desynchronize  # noqa: E402
from repro.flow.incremental import (  # noqa: E402
    IncrementalSession,
    NetlistEdit,
    apply_edit,
)
from repro.liberty import core9_hs  # noqa: E402
from repro.netlist.verilog import write_module  # noqa: E402
from repro.obs import bench as obs_bench  # noqa: E402

MIN_SPEEDUP = 20.0  # hard floor from the acceptance criteria

SWAP_FROM = "AND2X1"
SWAP_TO = "AND2X4"
BUFFER_FROM = "BUFX1"
BUFFER_TO = "BUFX2"


def _signature(result):
    return write_module(result.module), result.export_sdc()


def _pick_target(module, cell):
    names = sorted(
        name for name, inst in module.instances.items() if inst.cell == cell
    )
    if not names:
        raise SystemExit(f"no {cell} instance in the DLX core")
    return names[0]


def run_bench(repeats=3):
    library = core9_hs()
    options = DesyncOptions()
    module = dlx_core(library)
    target = _pick_target(module, SWAP_FROM)
    edit_fwd = NetlistEdit("swap_cell", instance=target, cell=SWAP_TO)
    edit_back = NetlistEdit("swap_cell", instance=target, cell=SWAP_FROM)

    # -- cold: the whole pipeline from scratch on the edited input.
    # The first repeat doubles as the mode="full" parity oracle.
    cold_times = []
    oracle_sig = None
    for _ in range(repeats):
        edited = module.clone()
        apply_edit(edited, library, edit_fwd)
        start = time.perf_counter()
        full = desynchronize(edited, library, options)
        cold_times.append(time.perf_counter() - start)
        sig = _signature(full)
        if oracle_sig is None:
            oracle_sig = sig
        elif sig != oracle_sig:
            raise SystemExit("cold flow is non-deterministic across repeats")

    # -- incremental: one session, then the same swap through the
    # change-tracking layer (swap back between repeats, also timed --
    # both directions are single-cell ECO applies)
    session = IncrementalSession(library, options)
    start = time.perf_counter()
    session.start(module.clone())
    session_start_s = time.perf_counter() - start

    incr_times = []
    paths = set()
    for _ in range(repeats):
        start = time.perf_counter()
        outcome = session.apply(edit_fwd)
        incr_times.append(time.perf_counter() - start)
        paths.add(outcome.path)
        if _signature(outcome.result) != oracle_sig:
            raise SystemExit(
                "incremental result diverges from the from-scratch flow"
            )
        start = time.perf_counter()
        session.apply(edit_back)
        incr_times.append(time.perf_counter() - start)

    # one verified apply for the record (scoped re-simulation included)
    start = time.perf_counter()
    verified = session.apply(edit_fwd, verify="affected")
    verify_s = time.perf_counter() - start
    if _signature(verified.result) != oracle_sig:
        raise SystemExit("verified incremental apply diverges from oracle")
    if verified.report is None or verified.report.get("error"):
        raise SystemExit(
            f"scoped verification failed: {verified.report!r}"
        )

    # one deep re-flow: a buffer resize the splice guard refuses
    buffer = _pick_target(module, BUFFER_FROM)
    start = time.perf_counter()
    deep = session.apply(
        NetlistEdit("swap_cell", instance=buffer, cell=BUFFER_TO)
    )
    deep_apply_s = time.perf_counter() - start
    if deep.path != "deep":
        raise SystemExit(f"buffer resize took the {deep.path} path")
    if _signature(deep.result) != _signature(session.oracle()):
        raise SystemExit("deep re-flow diverges from the session oracle")

    cold_s = min(cold_times)
    incr_s = min(incr_times)
    speedup = cold_s / max(incr_s, 1e-12)
    if speedup < MIN_SPEEDUP:
        raise SystemExit(
            f"FAIL: incremental re-flow only {speedup:.1f}x faster than "
            f"cold (floor {MIN_SPEEDUP:.0f}x)"
        )

    bench = {
        "bench": "incremental_reflow",
        "design": "dlx (full core)",
        "edit": f"swap {target} {SWAP_FROM}->{SWAP_TO}",
        "repeats": repeats,
        "paths": sorted(paths),
        "cold_flow_s": round(cold_s, 6),
        "session_start_s": round(session_start_s, 6),
        "deep_apply_s": round(deep_apply_s, 6),
        "deep_edit": f"swap {buffer} {BUFFER_FROM}->{BUFFER_TO}",
        "incremental_apply_s": round(incr_s, 6),
        "verified_apply_s": round(verify_s, 6),
        "verified_regions": verified.verified_regions,
        "speedup": round(speedup, 3),
        "min_speedup": MIN_SPEEDUP,
        "identical_results": True,
    }
    obs_bench.stamp(
        bench,
        "incremental_reflow",
        {"speedup": bench["speedup"]},
        cwd=ROOT,
    )
    return bench


def check_regression(bench, baseline_path):
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    report = obs_bench.check_regression(
        bench["metrics"],
        obs_bench.baseline_metrics(baseline),
        name="incremental_reflow",
        floors={"speedup": MIN_SPEEDUP},
    )
    print(report.render())
    return report.exit_code()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "out_dir",
        nargs="?",
        default=os.path.join(os.path.dirname(__file__), "results"),
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE_JSON",
        help="fail when the speedup regresses >25%% vs this baseline",
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    bench = run_bench(repeats=args.repeats)

    os.makedirs(args.out_dir, exist_ok=True)
    out_file = os.path.join(args.out_dir, "BENCH_incr.json")
    with open(out_file, "w") as handle:
        json.dump(bench, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(
        "incremental re-flow: "
        f"cold {bench['cold_flow_s'] * 1000:.0f} ms, "
        f"apply {bench['incremental_apply_s'] * 1000:.1f} ms, "
        f"speedup {bench['speedup']:.1f}x "
        f"(floor {MIN_SPEEDUP:.0f}x, bit-identical to mode=\"full\"); "
        f"verified apply {bench['verified_apply_s'] * 1000:.0f} ms "
        f"over {len(bench['verified_regions'])} region(s); "
        f"session start {bench['session_start_s']:.2f} s, "
        f"deep apply {bench['deep_apply_s']:.2f} s"
    )
    print(f"wrote {out_file}")

    if args.check:
        return check_regression(bench, args.check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
