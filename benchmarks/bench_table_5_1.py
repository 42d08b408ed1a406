"""Table 5.1: area results for synchronous and desynchronized DLX.

Implements the DLX twice through the same backend -- once conventional,
once desynchronized -- and prints the post-synthesis and post-layout
area comparison in the table's layout.  Absolute numbers come from the
synthetic CORE9-class library and the simplified P&R, so the *shape* is
what reproduces: the overhead is dominated by flip-flop substitution
(paper: sequential +17.66%, cell area +6.5%, core +13.4%).

The experiment runs on the flow engine: netlist generation, the
desynchronization stages (including the STA-characterised delay
ladder) and P&R all cache under ``.repro_cache/``, and the benchmark
re-runs the whole comparison warm to verify the cache actually short
circuits the flow -- the journal (``results/table_5_1_journal.jsonl``)
records the hits, and ``results/engine-stats.json`` keeps the cold and
warm seconds, the stage timings and the hit rate.  The result text
holds no wall-clock figure, so it regenerates byte-identical; CI's
``perf-gate`` job runs this bench on an empty cache and gates
``cold_s / warm_s >= 2`` from ``engine-stats.json``.
"""

import os
import time

from conftest import RESULTS_DIR, emit, run_once

from repro.engine import write_engine_stats
from repro.flow.implementation import implement_comparison
from repro.obs.bench import machine_metadata

PAPER = {
    "Post Synthesis": {
        "# nets": (14925, 16636, 11.46),
        "# cells": (14855, 16550, 11.41),
        "cell area (um2)": (188321.49, 200593.14, 6.52),
        "combinational logic (um2)": (134443.56, 137200.78, 2.05),
        "sequential logic (um2)": (53877.93, 63392.36, 17.66),
    },
    "Post Layout": {
        "core size (um2)": (207195.54, 235048.18, 13.44),
        "core utilization (%)": (95.06, 91.16, -4.10),
    },
}

#: stages the warm run must load from cache instead of re-running
MUST_HIT = ("generate.dlx", "desync:delays", "desync:import")


def _implement(engine, dlx_factory, library):
    sync_module = dlx_factory(engine=engine)
    desync_module = sync_module.clone()
    _sync, _desync, table = implement_comparison(
        "DLX",
        sync_module,
        desync_module,
        library,
        sync_utilization=0.95,
        desync_utilization=0.91,
        engine=engine,
    )
    return table


def test_table_5_1_dlx_area(benchmark, hs_library, dlx_factory, make_engine):
    journal_path = os.path.join(RESULTS_DIR, "table_5_1_journal.jsonl")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    engine = make_engine(journal_path=journal_path)

    def run():
        return _implement(engine, dlx_factory, hs_library)

    start = time.perf_counter()
    table = run_once(benchmark, run)
    cold_time = time.perf_counter() - start
    cold_events = engine.journal.select("stage_end")

    # -- warm re-run: same cache, fresh modules ------------------------
    start = time.perf_counter()
    warm_table = _implement(engine, dlx_factory, hs_library)
    warm_time = time.perf_counter() - start

    warm_events = engine.journal.select("stage_end")[len(cold_events):]
    warm_hits = {e["stage"] for e in warm_events if e.get("cache") == "hit"}
    for stage in MUST_HIT:
        assert stage in warm_hits, (
            f"warm run should load {stage!r} from cache, hits: "
            f"{sorted(warm_hits)}"
        )
    assert warm_table.phases == table.phases, "cache must not change results"

    write_engine_stats(
        os.path.join(RESULTS_DIR, "engine-stats.json"),
        engine.results,
        cache=engine.cache,
        extra={
            "benchmark": "table_5_1",
            "cold_s": round(cold_time, 3),
            "warm_s": round(warm_time, 3),
            "meta": machine_metadata(),
        },
    )
    engine.journal.close()

    lines = [table.to_text(), "", "paper reference (ST CORE9 90nm, Astro):"]
    for phase, rows in PAPER.items():
        lines.append(f"-- {phase} --")
        for name, (sync_v, desync_v, ovhd) in rows.items():
            lines.append(
                f"{name:28s} {sync_v:>14.2f} {desync_v:>14.2f} {ovhd:>8.2f}"
            )
    emit("table_5_1", "\n".join(lines))

    synthesis = table.phases["Post Synthesis"]
    layout = table.phases["Post Layout"]
    # shape assertions against the paper's findings
    seq = synthesis["sequential logic (um2)"]["overhead_pct"]
    assert 10 < seq < 30, "FF substitution drives the sequential overhead"
    assert abs(seq - 17.66) < 8, "close to the paper's +17.66%"
    # sequential overhead dominates the combinational one per unit area
    assert (
        layout["core size (um2)"]["overhead_pct"] > 0
    ), "desynchronized core is bigger"
    assert layout["core size (um2)"]["overhead_pct"] < 40
    # utilization drops for the desynchronized version (paper: -4.1%)
    assert layout["core utilization (%)"]["overhead_pct"] < 0
