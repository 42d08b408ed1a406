"""STA engine benchmark: compiled vs reference backend.

Runs the timing workload of a full conversion-plus-signoff pass on the
reduced DLX under both STA backends:

1. **multi-corner** -- ``analyze`` (with slacks) and ``ssta_analyze``
   at every library corner on the synchronous core;
2. **regions** -- per-region cloud delays (``region_delays``) and
   per-region critical paths (``region_critical_path``) of the
   desynchronized core, per corner;
3. **ladder** -- delay-element ladder characterisation (100 levels)
   per corner, result memoisation off so the graph work is measured;
4. **ECO** -- repeated wire-parasitic annotation of a net subset
   followed by re-analysis at both corners plus region re-measurement
   (the chapter-6 calibration loop).

The reference backend rebuilds its dict graph per call per corner; the
compiled backend builds flat base graphs once, rescales per corner and
re-times annotation deltas incrementally.  Every number both backends
produce -- critical delays, endpoints, full critical paths, endpoint
slacks, region-delay maps, ladder delays, SSTA moments -- is asserted
*exactly equal* before any timing is reported.

Speedup ratios (not absolute seconds) are the regression metric: both
backends see the same machine, so the ratio survives CI-runner noise.

Run directly (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_sta_engine.py [OUT_DIR]
        [--check BASELINE_JSON] [--repeats N]

``--check`` gates the fresh combined speedup through
:func:`repro.obs.bench.check_regression` against a committed baseline
``BENCH_sta.json`` (a >25% drop fails).
"""

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.designs import dlx_core  # noqa: E402
from repro.desync import Drdesync  # noqa: E402
from repro.desync import delays as delays_mod  # noqa: E402
from repro.desync.delays import characterize_ladder  # noqa: E402
from repro.desync.network import region_delays  # noqa: E402
from repro.liberty import core9_hs  # noqa: E402
from repro.obs import bench as obs_bench  # noqa: E402
from repro.sta import (  # noqa: E402
    analyze,
    annotate_wires,
    invalidate_module,
    node_sort_key,
    region_critical_path,
    ssta_analyze,
)

CLOCK_PERIOD = 12.0
LADDER_LEVELS = 100
ECO_ITERATIONS = 6


def _eco_nets(module):
    """A deterministic ~10% slice of the desynchronized module's nets."""
    names = sorted(module.nets)
    return names[:: max(1, len(names) // max(1, len(names) // 10))][:64]


def _eco_annotation(nets, iteration):
    caps = {
        net: 0.003 + 0.0004 * ((iteration + k) % 5)
        for k, net in enumerate(nets)
    }
    wire_delays = {
        net: 0.01 + 0.002 * ((iteration + k) % 7)
        for k, net in enumerate(nets)
    }
    return caps, wire_delays


def _set_wires(module, caps, wire_delays, backend):
    """Annotate parasitics the way each backend's flow would."""
    if backend == "compiled":
        annotate_wires(module, caps, wire_delays, replace=True)
    else:
        module.attributes["net_wire_cap"] = dict(caps)
        module.attributes["net_wire_delay"] = dict(wire_delays)


def _report_signature(report):
    return (
        report.critical_delay,
        report.critical_endpoint,
        tuple((p.node, p.arrival) for p in report.path),
        tuple(sorted(report.endpoint_slacks.items(),
                     key=lambda kv: node_sort_key(kv[0]))),
    )


def _ssta_signature(report):
    return (
        report.worst.mean,
        report.worst.global_sens,
        report.worst.local_var,
        report.worst_endpoint,
    )


def run_workload(golden, result, library, backend):
    """One full timing pass; returns (phase timings, exact signature)."""
    corners = sorted(library.corners)
    region_map = result.region_map
    regions = {
        name: frozenset(region.instances)
        for name, region in sorted(region_map.regions.items())
    }
    eco_nets = _eco_nets(result.module)

    # cold start: both backends begin without annotations or caches
    for module in (golden, result.module):
        invalidate_module(module)
        _set_wires(module, {}, {}, backend)
    delays_mod._LADDER_MEMO.clear()
    delays_mod._CHAIN_GRAPHS.clear()

    timings = {}
    signature = {}

    start = time.perf_counter()
    for corner in corners:
        report = analyze(
            golden, library, corner, clock_period=CLOCK_PERIOD,
            backend=backend,
        )
        signature[f"sta:{corner}"] = _report_signature(report)
        stat = ssta_analyze(golden, library, corner, backend=backend)
        signature[f"ssta:{corner}"] = _ssta_signature(stat)
    timings["multi_corner"] = time.perf_counter() - start

    start = time.perf_counter()
    for corner in corners:
        clouds = region_delays(
            result.module, library, region_map, corner, backend=backend
        )
        signature[f"regions:{corner}"] = tuple(sorted(clouds.items()))
        signature[f"region_cp:{corner}"] = tuple(
            (name, region_critical_path(
                result.module, library, instances, corner, backend=backend
            ))
            for name, instances in regions.items()
        )
    timings["regions"] = time.perf_counter() - start

    start = time.perf_counter()
    for corner in corners:
        ladder = characterize_ladder(
            library, corner, max_length=LADDER_LEVELS,
            backend=backend, memoize=False,
        )
        signature[f"ladder:{corner}"] = tuple(ladder.rise_delays)
    timings["ladder"] = time.perf_counter() - start

    start = time.perf_counter()
    for iteration in range(ECO_ITERATIONS):
        caps, wire_delays = _eco_annotation(eco_nets, iteration)
        _set_wires(result.module, caps, wire_delays, backend)
        for corner in corners:
            report = analyze(result.module, library, corner,
                             backend=backend)
            signature[f"eco:{iteration}:{corner}"] = _report_signature(
                report
            )
            clouds = region_delays(
                result.module, library, region_map, corner, backend=backend
            )
            signature[f"eco_regions:{iteration}:{corner}"] = tuple(
                sorted(clouds.items())
            )
    timings["eco"] = time.perf_counter() - start

    timings["total"] = sum(timings.values())
    return timings, signature


def run_bench(repeats=3):
    library = core9_hs()
    module = dlx_core(library, registers=8, multiplier=False, width=16)
    golden = module.clone()
    result = Drdesync(library).run(module)

    best = {}
    signatures = {}
    for index in range(repeats):
        # interleave the backends, first one then the other, so a drift
        # in host speed over the run reaches both minimums alike
        order = ("reference", "compiled")
        for backend in order if index % 2 == 0 else reversed(order):
            timings, signature = run_workload(
                golden, result, library, backend
            )
            if backend in signatures and signatures[backend] != signature:
                raise SystemExit(f"{backend}: non-deterministic repeat")
            signatures[backend] = signature
            if backend not in best or timings["total"] < best[backend]["total"]:
                best[backend] = timings

    # -- backend parity: every reported number must be exactly equal
    ref_sig, cmp_sig = signatures["reference"], signatures["compiled"]
    if set(ref_sig) != set(cmp_sig):
        raise SystemExit("backends measured different quantities")
    mismatched = [key for key in ref_sig if ref_sig[key] != cmp_sig[key]]
    if mismatched:
        raise SystemExit(
            "compiled backend diverges from reference on: "
            + ", ".join(mismatched[:5])
        )

    phases = {}
    speedup = {}
    for phase in ("multi_corner", "regions", "ladder", "eco", "total"):
        ref_s = best["reference"][phase]
        cmp_s = best["compiled"][phase]
        phases[phase] = {
            "reference_s": round(ref_s, 6),
            "compiled_s": round(cmp_s, 6),
        }
        speedup[phase if phase != "total" else "combined"] = round(
            ref_s / max(cmp_s, 1e-12), 3
        )

    corners = sorted(library.corners)
    bench = {
        "bench": "sta_engine",
        "design": "dlx_small (8 regs, 16-bit, no multiplier)",
        "workload": (
            f"{len(corners)}-corner STA+SSTA, per-region delays/paths, "
            f"{LADDER_LEVELS}-level ladder x{len(corners)}, "
            f"{ECO_ITERATIONS}-iteration ECO annotate+retime loop"
        ),
        "repeats": repeats,
        "corners": corners,
        "regions": len(result.region_map.regions),
        "phases": phases,
        "speedup": speedup,
        "identical_results": True,
    }
    obs_bench.stamp(
        bench,
        "sta_engine",
        {"combined_speedup": speedup["combined"]},
        cwd=ROOT,
    )
    return bench


def check_regression(bench, baseline_path):
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    report = obs_bench.check_regression(
        bench["metrics"],
        obs_bench.baseline_metrics(baseline),
        name="sta_engine",
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
        help="fail when combined speedup regresses >25%% vs this baseline",
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    bench = run_bench(repeats=args.repeats)

    os.makedirs(args.out_dir, exist_ok=True)
    out_file = os.path.join(args.out_dir, "BENCH_sta.json")
    with open(out_file, "w") as handle:
        json.dump(bench, handle, indent=2, sort_keys=True)
        handle.write("\n")

    speedup = bench["speedup"]
    print(
        "sta engine: "
        f"multi-corner {speedup['multi_corner']:.2f}x, "
        f"regions {speedup['regions']:.2f}x, "
        f"ladder {speedup['ladder']:.2f}x, "
        f"eco {speedup['eco']:.2f}x, "
        f"combined {speedup['combined']:.2f}x "
        "(reference/compiled wall time, identical results)"
    )
    print(f"wrote {out_file}")

    if args.check:
        return check_regression(bench, args.check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
