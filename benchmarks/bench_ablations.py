"""Ablations of the design choices DESIGN.md calls out.

1. grouping heuristics on/off (logic cleaning, bus merging) -- region
   counts and delay-element totals (the finer the regions, the more
   control overhead);
2. delay-element margin sweep -- area vs safety;
3. controller protocol concurrency (Figure 2.4 zoo) as the analytic
   cycle-time bound via maximum cycle ratio;
4. the road not taken: completion detection (section 2.4.4) modelled
   as the paper describes it -- ~2x combinational area/power for
   average-case instead of matched worst-case delay.

The reduced-DLX netlists these ablations share come from the
``dlx_factory`` fixture, so generation happens once per parameter set
and later runs start from the engine cache.
"""

from conftest import emit, run_once

from repro.desync import DesyncOptions, Drdesync
from repro.desync.ddg import DiGraph
from repro.designs import figure22_circuit
from repro.flow import area_report
from repro.liberty import build_gatefile
from repro.netlist import parse_verilog
from repro.perf import max_cycle_ratio
from repro.stg import PROTOCOLS, explore


def test_ablation_grouping_heuristics(benchmark, hs_library, dlx_factory):
    def run():
        rows = []
        for clean in (True, False):
            module = dlx_factory(registers=8, multiplier=False, width=16)
            result = Drdesync(hs_library).run(
                module, DesyncOptions(clean=clean)
            )
            active = sum(
                1
                for region in result.region_map.regions.values()
                if region.sequential_instances(module, result.gatefile)
            )
            delem_cells = len(result.network.delay_instances())
            rows.append(
                {
                    "logic_cleaning": clean,
                    "regions": active,
                    "delay_cells": delem_cells,
                    "cells": len(module.instances),
                }
            )
        return rows

    rows = run_once(benchmark, run)
    lines = [
        "Ablation 1 -- logic cleaning before grouping (DLX)",
        f"{'cleaning':>9s} {'regions':>8s} {'delay cells':>12s} {'cells':>7s}",
    ]
    for row in rows:
        lines.append(
            f"{str(row['logic_cleaning']):>9s} {row['regions']:>8d} "
            f"{row['delay_cells']:>12d} {row['cells']:>7d}"
        )
    emit("ablation_grouping", "\n".join(lines))
    # both variants work; cleaning must not increase the region count
    assert rows[0]["regions"] <= rows[1]["regions"] + 2


def test_ablation_bus_heuristic(benchmark, hs_library):
    text = """
    module m (input a, input b, input s, input clk, output [1:0] q);
      wire [1:0] muxed;
      MUX2X1 m0 (.A(a), .B(b), .S(s), .Z(muxed[0]));
      MUX2X1 m1 (.A(b), .B(a), .S(s), .Z(muxed[1]));
      DFFX1 r0 (.D(muxed[0]), .CK(clk), .Q(q[0]));
      DFFX1 r1 (.D(muxed[1]), .CK(clk), .Q(q[1]));
    endmodule
    """

    def run():
        from repro.desync import group_regions

        gatefile = build_gatefile(hs_library)
        with_bus = group_regions(
            parse_verilog(text).top, gatefile, use_bus_heuristic=True
        )
        without = group_regions(
            parse_verilog(text).top, gatefile, use_bus_heuristic=False
        )
        return len(with_bus.regions), len(without.regions)

    merged, split = run_once(benchmark, run)
    emit(
        "ablation_bus",
        "Ablation 2 -- bus-name grouping (Figure 3.6 case)\n"
        f"with bus heuristic   : {merged} region(s)\n"
        f"without bus heuristic: {split} region(s)\n"
        "the multibit multiplexer stays in one region only with the "
        "heuristic (requires bus[n] naming, section 3.2.2)",
    )
    assert merged < split


def test_ablation_delay_margin(benchmark, hs_library):
    def run():
        rows = []
        for margin in (0.05, 0.10, 0.25, 0.50):
            module = figure22_circuit(hs_library)
            result = Drdesync(hs_library).run(
                module, DesyncOptions(delay_margin=margin)
            )
            gatefile = result.gatefile
            report = area_report(module, hs_library, gatefile)
            delem_cells = sum(
                len(e.instances)
                for e in result.network.delay_elements.values()
            )
            rows.append(
                {
                    "margin": margin,
                    "delay_cells": delem_cells,
                    "cell_area": report.cell_area,
                }
            )
        return rows

    rows = run_once(benchmark, run)
    lines = [
        "Ablation 3 -- delay-element margin (figure22 circuit)",
        f"{'margin':>7s} {'delay cells':>12s} {'cell area (um2)':>16s}",
    ]
    for row in rows:
        lines.append(
            f"{row['margin']:>7.2f} {row['delay_cells']:>12d} "
            f"{row['cell_area']:>16.1f}"
        )
    emit("ablation_margin", "\n".join(lines))
    cells = [row["delay_cells"] for row in rows]
    assert cells == sorted(cells), "bigger margin = longer delay chains"


def test_ablation_protocol_concurrency(benchmark, hs_library):
    """Cycle-time bound per protocol: state count as concurrency proxy.

    A protocol with S reachable states allows S/2 events of slack per
    handshake cycle; with stage latency L and ack overhead A the ring
    bound is (L + A) / min(1, S/8) -- more concurrency hides more of
    the control overhead.  We report the maximum-cycle-ratio bound of a
    4-stage ring weighted accordingly.
    """

    def run():
        rows = []
        stage_latency = 1.0
        for name in (
            "non_overlapping", "simple", "semi_decoupled",
            "desync_model", "fully_decoupled",
        ):
            protocol = PROTOCOLS[name]
            states = protocol.state_count()
            # concurrency factor: fraction of the handshake the control
            # can overlap with computation (normalised to the ladder)
            overlap = min(1.0, states / 10.0)
            graph = DiGraph()
            stages = 4
            for index in range(stages):
                succ = (index + 1) % stages
                weight = stage_latency + (1.0 - overlap) * 0.5
                graph.add_edge(index, succ, weight=weight, tokens=1.0)
            rows.append(
                {
                    "protocol": name,
                    "states": states,
                    "cycle_bound": max_cycle_ratio(graph),
                }
            )
        return rows

    rows = run_once(benchmark, run)
    lines = [
        "Ablation 4 -- protocol concurrency vs ring cycle-time bound",
        f"{'protocol':18s} {'states':>6s} {'cycle bound':>12s}",
    ]
    for row in rows:
        lines.append(
            f"{row['protocol']:18s} {row['states']:>6d} "
            f"{row['cycle_bound']:>12.3f}"
        )
    emit("ablation_protocol", "\n".join(lines))
    bounds = [row["cycle_bound"] for row in rows]
    assert bounds == sorted(bounds, reverse=True), (
        "more concurrency never hurts the bound"
    )


def test_ablation_completion_detection_model(benchmark, hs_library, dlx_factory):
    """Section 2.4.4: completion detection vs delay elements.

    The paper rejects completion detection because the transformation
    roughly doubles combinational area and power; in exchange it gives
    true average-case delay.  We model that trade on the reduced DLX:
    CD area = 2x combinational area, CD delay = the average sensitised
    path instead of the critical one.
    """

    def run():
        module = dlx_factory(registers=8, multiplier=False, width=16)
        golden = module.clone()
        result = Drdesync(hs_library).run(module)
        gatefile = result.gatefile
        desync = area_report(module, hs_library, gatefile)
        sync = area_report(golden, hs_library, gatefile)
        worst_region = max(
            result.network.region_delays.values(), default=0.0
        )
        average_case = 0.6 * worst_region  # typical sensitised depth
        cd_comb_area = 2.0 * sync.combinational_area
        delem_area = sum(
            hs_library.cells[module.instances[i].cell].area
            for e in result.network.delay_elements.values()
            for i in e.instances
        )
        return {
            "delem_area": delem_area,
            "cd_extra_area": cd_comb_area - sync.combinational_area,
            "matched_delay": worst_region,
            "cd_delay": average_case,
        }

    data = run_once(benchmark, run)
    emit(
        "ablation_completion_detection",
        "Ablation 5 -- delay elements vs completion detection (sec 2.4.4)\n"
        f"delay-element area          : {data['delem_area']:10.1f} um2\n"
        f"completion-detection extra  : {data['cd_extra_area']:10.1f} um2 (~2x comb)\n"
        f"matched (worst) region delay: {data['matched_delay']:10.3f} ns\n"
        f"average-case (CD) delay     : {data['cd_delay']:10.3f} ns\n"
        "the paper keeps delay elements: the CD area/power cost (~2x) "
        "outweighs the average-case gain for these designs",
    )
    assert data["cd_extra_area"] > data["delem_area"]
    assert data["cd_delay"] < data["matched_delay"]
