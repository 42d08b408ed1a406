"""Physical-design model tests: placement, routing, CTS, backend."""

import pytest

from repro.designs import figure22_circuit, pipeline3
from repro.liberty import core9_hs
from repro.netlist import Module, PortDirection
from repro.physical import (
    enable_nets_of,
    in_place_optimize,
    net_hpwl,
    place,
    route,
    run_backend,
    run_cts,
    synthesize_tree,
    total_wirelength,
)
from repro.sta import analyze, compute_net_loads
from repro.sta.graph import _compute_net_loads


@pytest.fixture(scope="module")
def lib():
    return core9_hs()


def test_placement_geometry(lib):
    mod = figure22_circuit(lib)
    placement = place(mod, lib, target_utilization=0.90)
    assert len(placement.locations) == len(mod.instances)
    assert placement.core_area > placement.cell_area
    assert 0.80 <= placement.utilization <= 0.99
    for x, y in placement.locations.values():
        assert 0 <= x <= placement.core_width + 1e-6
        assert 0 <= y <= placement.core_height + 1e-6


def test_lower_utilization_grows_core(lib):
    mod = figure22_circuit(lib)
    tight = place(mod, lib, target_utilization=0.95)
    loose = place(mod, lib, target_utilization=0.70)
    assert loose.core_area > tight.core_area
    assert abs(loose.cell_area - tight.cell_area) < 1e-6


def test_hpwl_and_wirelength(lib):
    mod = pipeline3(lib)
    placement = place(mod, lib)
    wl = total_wirelength(mod, placement)
    assert wl > 0
    some_net = next(iter(mod.nets))
    assert net_hpwl(mod, placement, some_net) >= 0


def test_routing_annotates_module(lib):
    mod = pipeline3(lib)
    placement = place(mod, lib)
    routing = route(mod, placement)
    assert routing.total_wirelength > 0
    assert "net_wire_cap" in mod.attributes
    assert "net_wire_delay" in mod.attributes
    # STA gets slower with parasitics than with zero wires
    zero_wire = mod.clone()
    zero_wire.attributes["net_wire_cap"] = {n: 0.0 for n in mod.nets}
    zero_wire.attributes["net_wire_delay"] = {}
    assert (
        analyze(mod, lib).critical_delay
        > analyze(zero_wire, lib).critical_delay
    )


def test_cts_bounds_clock_fanout(lib):
    mod = Module("m")
    mod.add_port("clk", PortDirection.INPUT)
    mod.add_port("d", PortDirection.INPUT)
    for i in range(100):
        mod.add_instance(
            f"r{i}", "DFFX1", {"D": "d", "CK": "clk", "Q": f"q{i}"}
        )
    tree = synthesize_tree(mod, lib, "clk", max_fanout=12)
    assert tree.sink_count == 100
    assert tree.buffers
    assert tree.levels >= 1
    # no net in the tree exceeds the fanout bound by much
    loads = compute_net_loads(mod, lib)
    buf_cap = lib.cell("CKBUFX4").pins["A"].capacitance
    for net, load in loads.items():
        assert load < 16 * 0.02 + 1  # sane bound


def test_enable_net_discovery(lib):
    mod = pipeline3(lib)
    nets = enable_nets_of(mod, lib)
    assert "clk" in nets


def test_ipo_fixes_max_cap_violation(lib):
    mod = Module("m")
    mod.add_port("a", PortDirection.INPUT)
    mod.add_port("y", PortDirection.OUTPUT)
    mod.add_instance("drv", "INVX1", {"A": "a", "Z": "big"})
    for i in range(40):
        mod.add_instance(f"u{i}", "INVX1", {"A": "big", "Z": f"n{i}"})
    mod.add_instance("last", "BUFX1", {"A": "n0", "Z": "y"})
    placement = place(mod, lib)
    routing = route(mod, placement)
    changes = in_place_optimize(mod, lib, routing)
    assert changes >= 1
    # driver was upsized or the net was split
    assert mod.instances["drv"].cell != "INVX1" or any(
        name.startswith("ipo_buf") for name in mod.instances
    )
    # an upsize loads the driver's input net more: the per-module load
    # cache that later passes and STA read must see the rebind
    assert compute_net_loads(mod, lib) == _compute_net_loads(mod, lib)


def test_ipo_respects_dont_touch(lib):
    mod = Module("m")
    mod.add_port("a", PortDirection.INPUT)
    mod.add_instance("drv", "INVX1", {"A": "a", "Z": "big"})
    mod.instances["drv"].attributes["dont_touch"] = True
    for i in range(40):
        mod.add_instance(f"u{i}", "INVX1", {"A": "big", "Z": f"n{i}"})
    placement = place(mod, lib)
    routing = route(mod, placement)
    in_place_optimize(mod, lib, routing)
    assert mod.instances["drv"].cell == "INVX1"


def test_full_backend_report(lib):
    mod = figure22_circuit(lib)
    result = run_backend(mod, lib, target_utilization=0.90)
    report = result.report
    assert report.cells >= 40
    assert report.core_size > report.standard_cell_area
    assert 0.5 < report.utilization <= 0.99
    assert report.wirelength > 0
    assert mod.check() == []
