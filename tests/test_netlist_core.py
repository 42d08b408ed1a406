"""Unit tests for the netlist object model."""

import pytest

from repro.netlist import (
    Module,
    Netlist,
    NetlistError,
    PinRef,
    PortDirection,
    bus_base,
    bus_index,
    driver_of,
    sinks_of,
)


class DictCellInfo:
    """Minimal CellInfoProvider backed by a dict for tests."""

    def __init__(self, table):
        self._table = table

    def pin_direction(self, cell, pin):
        return self._table[cell][pin]


AND_INFO = DictCellInfo(
    {
        "AND2": {
            "A": PortDirection.INPUT,
            "B": PortDirection.INPUT,
            "Z": PortDirection.OUTPUT,
        },
        "INV": {"A": PortDirection.INPUT, "Z": PortDirection.OUTPUT},
    }
)


def build_simple_module():
    mod = Module("m")
    mod.add_port("a", PortDirection.INPUT)
    mod.add_port("b", PortDirection.INPUT)
    mod.add_port("y", PortDirection.OUTPUT)
    mod.add_instance("u1", "AND2", {"A": "a", "B": "b", "Z": "n1"})
    mod.add_instance("u2", "INV", {"A": "n1", "Z": "y"})
    return mod


def test_bus_name_helpers():
    assert bus_base("data[3]") == "data"
    assert bus_index("data[3]") == 3
    assert bus_base("data_3") is None
    assert bus_index("scalar") is None


def test_vector_port_bits_msb_first():
    mod = Module("m")
    port = mod.add_port("d", PortDirection.INPUT, msb=3, lsb=0)
    assert port.width == 4
    assert port.bit_names() == ["d[3]", "d[2]", "d[1]", "d[0]"]
    assert "d[0]" in mod.nets


def test_connectivity_is_bidirectional():
    mod = build_simple_module()
    net = mod.nets["n1"]
    assert PinRef("u1", "Z") in net.connections
    assert PinRef("u2", "A") in net.connections
    assert mod.net_of("u1", "Z") == "n1"


def test_driver_and_sinks():
    mod = build_simple_module()
    assert driver_of(mod, "n1", AND_INFO) == PinRef("u1", "Z")
    assert sinks_of(mod, "n1", AND_INFO) == [PinRef("u2", "A")]
    # input port drives its net
    assert driver_of(mod, "a", AND_INFO) == PinRef(None, "a")
    # output port is a sink
    assert PinRef(None, "y") in sinks_of(mod, "y", AND_INFO)


def test_disconnect_and_remove_instance():
    mod = build_simple_module()
    mod.remove_instance("u2")
    assert "u2" not in mod.instances
    assert sinks_of(mod, "n1", AND_INFO) == []
    assert mod.check() == []


def test_reconnect_pin_replaces_old_binding():
    mod = build_simple_module()
    mod.connect("u2", "A", "a")
    assert mod.net_of("u2", "A") == "a"
    assert sinks_of(mod, "n1", AND_INFO) == []
    assert mod.check() == []


def test_disconnect_of_unlisted_binding_raises():
    mod = build_simple_module()
    # a binding its net does not list (a direct rewrite gone wrong)
    del mod.nets["n1"].connections[PinRef("u2", "A")]
    with pytest.raises(NetlistError, match=r"u2\.A .*'n1'"):
        mod.disconnect("u2", "A")
    assert mod.net_of("u2", "A") == "n1"  # left as it was
    mod.disconnect("u2", "B")  # an unbound pin is still a no-op


def test_merge_nets_moves_connections():
    mod = build_simple_module()
    mod.ensure_net("alias")
    mod.connect("u2", "A", "alias")
    mod.merge_nets("n1", "alias")
    assert mod.net_of("u2", "A") == "n1"
    assert "alias" not in mod.nets
    assert mod.check() == []


def test_merge_nets_refuses_to_eat_port_net():
    mod = build_simple_module()
    with pytest.raises(NetlistError):
        mod.merge_nets("n1", "a")


def test_rename_net_updates_pins():
    mod = build_simple_module()
    mod.rename_net("n1", "mid")
    assert mod.net_of("u1", "Z") == "mid"
    assert mod.check() == []


def test_duplicate_instance_rejected():
    mod = build_simple_module()
    with pytest.raises(NetlistError):
        mod.add_instance("u1", "INV")


def test_constant_nets_are_shared():
    mod = Module("m")
    one_a = mod.constant_net(1)
    one_b = mod.constant_net(1)
    zero = mod.constant_net(0)
    assert one_a is one_b
    assert one_a.constant_value == 1
    assert zero.constant_value == 0


def test_new_name_avoids_collisions():
    mod = build_simple_module()
    mod.ensure_net("x_1")
    name = mod.new_name("x")
    assert name not in mod.nets
    assert name not in mod.instances


def test_netlist_top_selection():
    netlist = Netlist()
    netlist.add_module(Module("first"))
    netlist.add_module(Module("second"))
    assert netlist.top.name == "first"
    netlist.set_top("second")
    assert netlist.top.name == "second"
    with pytest.raises(NetlistError):
        netlist.set_top("missing")


def test_check_detects_dangling_reference():
    mod = build_simple_module()
    # simulate corruption: pin bound to a net that doesn't exist
    mod.instances["u1"].pins["Z"] = "ghost"
    problems = mod.check()
    assert any("ghost" in p for p in problems)
