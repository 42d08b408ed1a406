"""Tests for netlist cleanup rewrites and the technology mapper."""

import pytest

from repro.liberty import (
    ExpressionMapper,
    GateChooser,
    TechmapError,
    build_gatefile,
    core9_hs,
)
from repro.liberty.functions import parse_function
from repro.netlist import (
    Module,
    PortDirection,
    clean_logic,
    parse_verilog,
    resolve_assigns,
    simplify_names,
)
from repro.sim import Simulator


@pytest.fixture(scope="module")
def lib():
    return core9_hs()


@pytest.fixture(scope="module")
def gatefile(lib):
    return build_gatefile(lib)


# ----------------------------------------------------------------------
# design import hygiene (section 3.2.1)
# ----------------------------------------------------------------------

def test_resolve_assigns_collapses_aliases():
    text = """
    module m (a, y);
      input a; output y;
      wire n1, n2;
      assign n1 = a;
      assign n2 = n1;
      INVX1 u (.A(n2), .Z(y));
    endmodule
    """
    mod = parse_verilog(text).top
    eliminated = resolve_assigns(mod)
    assert eliminated >= 2
    # the inverter now reads the port net directly
    assert mod.net_of("u", "A") == "a"
    assert mod.check() == []


def test_resolve_assigns_keeps_port_to_port_wires():
    text = """
    module m (a, y);
      input a; output y;
      assign y = a;
    endmodule
    """
    mod = parse_verilog(text).top
    resolve_assigns(mod)
    assert ("y", "a") in mod.assigns  # both are ports: the wire stays


def test_resolve_assigns_constant_groups():
    text = """
    module m (y);
      output y;
      wire n;
      assign n = 1'b1;
      BUFX1 u (.A(n), .Z(y));
    endmodule
    """
    mod = parse_verilog(text).top
    resolve_assigns(mod)
    assert mod.net_of("u", "A") == "__const1__"


def test_simplify_names_rewrites_escaped_identifiers():
    text = r"""
    module m (a, y);
      input a; output y;
      wire \data.bus<3> ;
      BUFX1 \u/buf1 (.A(a), .Z(\data.bus<3> ));
      INVX1 u2 (.A(\data.bus<3> ), .Z(y));
      INVX1 u3 (.A(a), .Z(n3));
      INVX1 \u/inv4 (.A(a), .Z(n4));
    endmodule
    """
    mod = parse_verilog(text).top
    renames = simplify_names(mod)
    assert renames == 3
    assert "data.bus<3>" not in mod.nets
    assert all("/" not in name for name in mod.instances)
    assert mod.check() == []
    # renamed pins keep their place on the shared net
    def instance_driving(net):
        return next(
            name for name, inst in mod.instances.items()
            if inst.pins.get("Z") == net
        )

    buf1, inv4 = instance_driving(mod.net_of("u2", "A")), instance_driving("n4")
    assert [ref.instance for ref in mod.nets["a"].connections] == [
        None, buf1, "u3", inv4
    ]


def test_simplify_names_never_touches_ports():
    mod = Module("m")
    mod.add_port("weird$port", PortDirection.INPUT)
    simplify_names(mod)
    assert "weird$port" in mod.ports


# ----------------------------------------------------------------------
# logic cleaning (section 3.2.2, Figure 3.5)
# ----------------------------------------------------------------------

def test_clean_logic_removes_buffers_and_inverter_pairs(lib, gatefile):
    text = """
    module m (a, clk, q);
      input a, clk; output q;
      wire n1, n2, n3, n4;
      BUFX2 b1 (.A(a), .Z(n1));
      INVX1 i1 (.A(n1), .Z(n2));
      INVX1 i2 (.A(n2), .Z(n3));
      AND2X1 g (.A(n3), .B(a), .Z(n4));
      DFFX1 r (.D(n4), .CK(clk), .Q(q));
    endmodule
    """
    mod = parse_verilog(text).top
    removed = clean_logic(mod, gatefile)
    assert removed["buffers"] == 1
    assert removed["inverter_pairs"] == 2
    assert "b1" not in mod.instances
    assert mod.net_of("g", "A") == "a"
    assert mod.check() == []


def test_clean_logic_keeps_buffers_driving_ports(lib, gatefile):
    text = """
    module m (a, y);
      input a; output y;
      BUFX1 b (.A(a), .Z(y));
    endmodule
    """
    mod = parse_verilog(text).top
    removed = clean_logic(mod, gatefile)
    assert removed["buffers"] == 0
    assert "b" in mod.instances


def test_clean_logic_keeps_single_inverters(lib, gatefile):
    text = """
    module m (a, y);
      input a; output y;
      wire n;
      INVX1 i (.A(a), .Z(n));
      BUFX1 b (.A(n), .Z(y));
    endmodule
    """
    mod = parse_verilog(text).top
    clean_logic(mod, gatefile)
    assert "i" in mod.instances  # a lone inverter is real logic


def test_clean_logic_respects_protected_nets(lib, gatefile):
    text = """
    module m (a, y);
      input a; output y;
      wire n;
      BUFX1 b (.A(a), .Z(n));
      INVX1 i (.A(n), .Z(y));
    endmodule
    """
    mod = parse_verilog(text).top
    removed = clean_logic(mod, gatefile, protected_nets={"n"})
    assert removed["buffers"] == 0


# ----------------------------------------------------------------------
# the technology mapper
# ----------------------------------------------------------------------

def _map_and_simulate(lib, text, inputs):
    mod = Module("m")
    nets = {}
    for name in sorted({v for v in inputs[0]}):
        mod.add_port(name, PortDirection.INPUT)
        nets[name] = name
    mapper = ExpressionMapper(mod, GateChooser(lib))
    out = mapper.map_text(text, nets)
    sim = Simulator(mod, lib)
    results = []
    for vector in inputs:
        for name, value in vector.items():
            sim.set_input(name, value)
        sim.settle(max_time=100)
        results.append(sim.value(out))
    return results, mod


def test_techmap_simple_expressions(lib):
    from repro.liberty.functions import evaluate

    cases = ["D", "!D", "D * RN", "D + !SN", "(D * !SE) + (SI * SE)"]
    for text in cases:
        expr = parse_function(text)
        names = sorted(
            {v for v in ("D", "RN", "SN", "SE", "SI")}
        )
        import itertools

        vectors = [
            dict(zip(names, bits))
            for bits in itertools.product((0, 1), repeat=len(names))
        ]
        results, _ = _map_and_simulate(lib, text, vectors)
        for vector, got in zip(vectors, results):
            assert got == evaluate(expr, vector), (text, vector)


def test_techmap_detects_mux_pattern(lib):
    mod = Module("m")
    for name in ("A", "B", "S"):
        mod.add_port(name, PortDirection.INPUT)
    mapper = ExpressionMapper(mod, GateChooser(lib))
    mapper.map_text("(A * !S) + (B * S)", {"A": "A", "B": "B", "S": "S"})
    assert any(
        mod.instances[name].cell.startswith("MUX2") for name in mapper.added
    )


def test_techmap_unbound_input_raises(lib):
    mod = Module("m")
    mapper = ExpressionMapper(mod, GateChooser(lib))
    with pytest.raises(TechmapError):
        mapper.map_text("A * B", {"A": "a"})


def test_chooser_missing_cell_raises(lib):
    import copy

    stripped = copy.deepcopy(lib)
    for name in list(stripped.cells):
        if name.startswith("MAJ3"):
            del stripped.cells[name]
    chooser = GateChooser(stripped)
    with pytest.raises(TechmapError):
        chooser.gate("maj3")
