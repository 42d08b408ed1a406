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


# ---------------------------------------------------------------------------
# pickling: the flat state of ``Module.__reduce__``


def build_pickle_module():
    """A module with every feature the flat pickle state must carry."""
    mod = Module("m")
    mod.add_port("d", PortDirection.INPUT, msb=3, lsb=0)
    mod.add_port("q", PortDirection.OUTPUT, msb=0, lsb=1)
    mod.add_port("y", PortDirection.OUTPUT)
    # u1's sink pin joins n1 before u2's driver: connect order on the
    # net differs from instance order
    mod.add_instance("u1", "INV")
    mod.connect("u1", "Z", "y")
    mod.connect("u1", "A", "n1")
    mod.add_instance("u2", "AND2", {"A": "d[1]", "B": "d[0]", "Z": "n1"})
    # re-binding A moves it behind Z: pin order differs from A, B, Z
    mod.connect("u2", "A", "d[2]")
    tie = mod.constant_net(1).name
    mod.add_instance("u3", "AND2", {"A": tie, "B": "d[3]", "Z": "q[0]"})
    mod.instances["u2"].attributes.update(region="R1", size_only=True)
    mod.assigns.append(("q[1]", "d[2]"))
    mod.add_net("spare")  # a net with no pins
    mod.attributes["port_order"] = ["d", "q", "y"]
    mod.attributes["wire_caps"] = {"n1": 0.5}
    mod.new_name("n")
    return mod


def _assert_same_module(copy, mod):
    from repro.netlist.verilog import write_module

    assert copy.check() == []
    assert copy.name == mod.name
    assert list(copy.ports.items()) == list(mod.ports.items())
    assert list(copy.instances) == list(mod.instances)
    for name, inst in mod.instances.items():
        other = copy.instances[name]
        assert other.name == name and other.cell == inst.cell
        assert list(other.pins.items()) == list(inst.pins.items())
        assert other.attributes == inst.attributes
    assert list(copy.nets) == list(mod.nets)
    for name, net in mod.nets.items():
        other = copy.nets[name]
        assert other.name == name
        assert list(other.connections) == list(net.connections)
        assert all(type(ref) is PinRef for ref in other.connections)
        assert (other.is_constant, other.constant_value) == (
            net.is_constant, net.constant_value
        )
    assert copy.assigns == mod.assigns
    assert copy.attributes == mod.attributes
    assert write_module(copy) == write_module(mod)
    # a loaded module starts a fresh dirty log, as a clone does
    assert (copy.mutation_count, copy.dirty_token) == (0, 0)
    assert copy.new_name("n") == mod.new_name("n")


def test_module_pickle_round_trip_hand_built():
    import pickle

    mod = build_pickle_module()
    assert mod.check() == []
    assert list(mod.instances["u2"].pins) == ["B", "Z", "A"]
    assert list(mod.nets["n1"].connections) == [
        PinRef("u1", "A"), PinRef("u2", "Z")
    ]
    copy = pickle.loads(pickle.dumps(mod, protocol=pickle.HIGHEST_PROTOCOL))
    assert copy.nets["spare"].connections == {}
    assert copy.nets["__const1__"].is_constant
    assert PinRef(None, "d[0]") in copy.nets["d[0]"].connections
    _assert_same_module(copy, mod)


def test_module_pickle_round_trip_reduced_dlx():
    import pickle

    from repro.designs.dlx import dlx_core
    from repro.liberty import core9_hs

    mod = dlx_core(core9_hs(), registers=8, multiplier=False, width=16)
    copy = pickle.loads(pickle.dumps(mod, protocol=pickle.HIGHEST_PROTOCOL))
    _assert_same_module(copy, mod)


def test_module_pickles_no_netlist_objects():
    """The state is containers, strings and ints: not one ``Net``,
    ``Instance``, ``PinRef`` or ``Port`` object goes through the
    pickler."""
    import io
    import pickle

    from repro.netlist.core import Instance, Net, Port

    seen = set()

    class Spy(pickle.Pickler):
        def reducer_override(self, obj):
            seen.add(type(obj))
            return NotImplemented

    Spy(io.BytesIO(), pickle.HIGHEST_PROTOCOL).dump(build_pickle_module())
    assert Module in seen
    assert not seen & {Net, Instance, PinRef, Port}


def test_module_state_of_another_format_is_refused():
    import pickle

    from repro.netlist.core import MODULE_STATE_FORMAT

    blob = pickle.dumps(build_pickle_module())
    stale = blob.replace(MODULE_STATE_FORMAT.encode(), b"flat-0")
    with pytest.raises(NetlistError, match="flat-0"):
        pickle.loads(stale)
    with pytest.raises((EOFError, pickle.UnpicklingError)):
        pickle.loads(blob[: len(blob) // 2])
