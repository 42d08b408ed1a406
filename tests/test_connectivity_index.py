"""The shared connectivity index and the grouping pass's view of it.

``repro.netlist.index.connectivity_index`` keeps one
:class:`ConnectivityIndex` per (module, cell-info provider) pair for as
long as the module lives; every pass of a conversion reads that one
index, and the dirty log keeps it fresh across the edits between them.
``repro.desync.regions`` answers its grouping and independence queries
through one lazy view over it.
"""

import gc
import weakref

from repro.designs import dlx_core, pipeline3
from repro.desync import (
    Drdesync,
    analyze_clock_domains,
    group_regions,
    validate_independence,
)
from repro.desync.regions import Region, validate_independence_for
from repro.liberty import build_gatefile, core9_hs
from repro.netlist import Module, PortDirection, driver_of, sinks_of
from repro.netlist.cleanup import clean_logic, resolve_assigns, simplify_names
from repro.netlist.index import ConnectivityIndex, connectivity_index
from repro.sim.batch import _LibraryCellInfo

LIB = core9_hs()
GATEFILE = build_gatefile(LIB)


def _reduced_dlx():
    return dlx_core(LIB, registers=8, multiplier=False, width=16)


def _chain_module():
    mod = Module("m")
    mod.add_port("a", PortDirection.INPUT)
    mod.add_port("y", PortDirection.OUTPUT)
    mod.add_instance("u1", "INVX1", {"A": "a", "Z": "n1"})
    mod.add_instance("u2", "INVX1", {"A": "n1", "Z": "y"})
    return mod


def test_one_index_per_module_and_provider():
    mod = _chain_module()
    index = connectivity_index(mod, GATEFILE)
    assert connectivity_index(mod, GATEFILE) is index
    assert index.module is mod
    # an adapter rebuilt per call compares equal, so it shares one entry
    adapted = connectivity_index(mod, _LibraryCellInfo(LIB))
    assert connectivity_index(mod, _LibraryCellInfo(LIB)) is adapted
    assert adapted is not index
    clone = mod.clone()
    own = connectivity_index(clone, GATEFILE)
    assert own is not index and own.module is clone


def test_index_memo_does_not_keep_module_alive():
    module = pipeline3(LIB)
    result = Drdesync(LIB).run(module)
    assert connectivity_index(module, result.gatefile).misses > 0
    ref = weakref.ref(module)
    del module, result
    gc.collect()
    assert ref() is None


def test_cold_convert_builds_one_index_per_provider(monkeypatch):
    providers = []
    init = ConnectivityIndex.__init__

    def spy(self, module, cell_info):
        providers.append(cell_info)
        init(self, module, cell_info)

    monkeypatch.setattr(ConnectivityIndex, "__init__", spy)
    tool = Drdesync(LIB)
    tool.run(_reduced_dlx())
    assert providers == [tool.gatefile]


def test_shared_index_stays_fresh_across_the_group_stage():
    module = _reduced_dlx()
    resolve_assigns(module)
    simplify_names(module)
    clean_logic(module, GATEFILE)
    group_regions(module, GATEFILE)
    analyze_clock_domains(module, GATEFILE)
    index = connectivity_index(module, GATEFILE)
    assert index.hits > 0
    for net in module.nets:
        assert index.driver_of(net) == driver_of(module, net, GATEFILE)
        assert index.sinks_of(net) == sinks_of(module, net, GATEFILE)


def _comb_member(module, region):
    return next(
        name
        for name in sorted(region.instances)
        if not GATEFILE.info(module.instances[name].cell).is_sequential
        and any(
            GATEFILE.pin_direction(module.instances[name].cell, pin)
            == PortDirection.OUTPUT
            for pin in module.instances[name].pins
        )
    )


def _output_net(module, name):
    inst = module.instances[name]
    return next(
        net
        for pin, net in inst.pins.items()
        if GATEFILE.pin_direction(inst.cell, pin) == PortDirection.OUTPUT
    )


def test_scoped_and_whole_independence_checks_agree():
    module = pipeline3(LIB)
    region_map = group_regions(module, GATEFILE)
    names = sorted(
        name for name, region in region_map.regions.items()
        if any(
            not GATEFILE.info(module.instances[i].cell).is_sequential
            for i in region.instances
        )
    )
    assert len(names) >= 2
    src = _comb_member(module, region_map.regions[names[0]])
    dst = _comb_member(module, region_map.regions[names[1]])
    # a cross-region edge, and an edge out of an unassigned cell
    module.add_instance(
        "inj", "AND2X1",
        {"A": _output_net(module, src), "B": "inj_b", "Z": "inj_z"},
    )
    region_map.add(Region(names[1], region_map.regions[names[1]].instances
                          | {"inj"}))
    module.add_instance(
        "loose", "AND2X1",
        {"A": _output_net(module, dst), "B": "inj_b", "Z": "loose_z"},
    )
    module.add_instance("sink", "INVX1", {"A": "loose_z", "Z": "sink_z"})
    region_map.add(Region(names[0], region_map.regions[names[0]].instances
                          | {"sink"}))

    whole = validate_independence(module, GATEFILE, region_map)
    scoped = validate_independence_for(
        module, GATEFILE, region_map, region_map.regions
    )
    assert sorted(whole) == sorted(scoped)
    assert f"comb connection {src} ({names[0]}) -> inj ({names[1]})" in whole
    assert f"comb connection loose (None) -> sink ({names[0]})" in whole
    assert f"comb connection {dst} ({names[1]}) -> loose (None)" in whole
    assert len(whole) == 3
