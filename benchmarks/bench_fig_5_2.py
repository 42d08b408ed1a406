"""Figure 5.2: block diagram of the (desynchronized) DLX.

The paper reports that "the automatically assigned desynchronization
regions matched the 4 pipeline stages of the processor" and draws the
synchronous pipeline next to its desynchronized twin where every stage
got its own controller pair and the C-elements join the stage-to-stage
requests.  This bench runs the automatic grouping on the DLX and
prints the recovered region structure and data-dependency graph.
"""

from conftest import emit, run_once

from repro.desync import Drdesync, fanin_fanout
from repro.designs import dlx_core
from repro.perf import simple_cycles


def test_fig_5_2_dlx_regions(benchmark, hs_library):
    def run():
        module = dlx_core(hs_library, registers=8, multiplier=False, width=16)
        tool = Drdesync(hs_library)
        return module, tool.run(module)

    module, result = run_once(benchmark, run)

    active = {
        name: region
        for name, region in result.region_map.regions.items()
        if region.sequential_instances(module, result.gatefile)
    }
    lines = [
        "Figure 5.2 -- automatically assigned DLX desynchronization regions",
        f"{'region':>8s} {'cells':>6s} {'latch pairs':>12s} "
        f"{'fanin':>6s} {'fanout':>7s}  representative registers",
    ]
    for name in sorted(active):
        region = active[name]
        seq = region.sequential_instances(module, result.gatefile)
        masters = [s for s in seq if s.endswith("_lm")]
        fanin, fanout = fanin_fanout(result.ddg, name)
        sample = ", ".join(sorted({m.rsplit("_", 2)[0] for m in masters})[:3])
        lines.append(
            f"{name:>8s} {len(region.instances):>6d} {len(masters):>12d} "
            f"{fanin:>6d} {fanout:>7d}  {sample}"
        )
    edges = sorted(
        (a, b) for a, b in result.ddg.edges() if a != "ENV" and b != "ENV"
    )
    lines.append("data-dependency edges: " + ", ".join(f"{a}->{b}" for a, b in edges))
    lines.append(
        "paper: the automatic regions matched the 4 pipeline stages "
        "(IF / ID / EX / MEM); each gets a master+slave controller pair"
    )
    emit("fig_5_2", "\n".join(lines))

    # a pipelined CPU decomposes into at least the 4 paper stages
    assert len(active) >= 4
    # every active region got exactly one master/slave controller pair
    for name in active:
        assert (name, "master") in result.network.controllers
        assert (name, "slave") in result.network.controllers
    # the PC loop shows up as a DDG cycle
    core = result.ddg.subgraph(n for n in result.ddg if n != "ENV")
    assert any(True for _ in simple_cycles(core))
