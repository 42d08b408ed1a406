"""Import-time checks: multi-driven nets and unknown cells."""

import pytest

from repro.cli import main as cli_main
from repro.designs import arm9_core, dlx_core, figure22_circuit, pipeline3
from repro.desync import Drdesync
from repro.liberty import core9_hs, core9_ll
from repro.liberty.gatefile import build_gatefile
from repro.netlist import NetlistError, parse_verilog
from repro.netlist.lint import (
    MultiDrivenNetError,
    UnknownCellError,
    check_drivers,
)

TWO_DRIVERS = """
module m (clk, a, y);
  input clk, a; output y;
  wire n1, q;
  INVX1 i1 (.A(a), .Z(n1));
  INVX1 i2 (.A(q), .Z(n1));
  DFFX1 r (.D(n1), .CK(clk), .Q(q));
  BUFX1 b (.A(q), .Z(y));
endmodule
"""


@pytest.fixture(scope="module")
def gatefile():
    return build_gatefile(core9_hs())


def test_two_drivers_are_refused_at_import(tmp_path, capsys):
    src = tmp_path / "two.v"
    src.write_text(TWO_DRIVERS)
    code = cli_main([
        str(src), "-o", str(tmp_path / "out.v"), "--no-cache", "--quiet",
    ])
    assert code == 2
    assert not (tmp_path / "out.v").exists()
    assert "net 'n1' in module 'm' has 2 drivers: i1.Z, i2.Z" in (
        capsys.readouterr().err
    )
    with pytest.raises(MultiDrivenNetError):
        Drdesync(core9_hs()).run(parse_verilog(TWO_DRIVERS).top)


def test_an_input_port_driven_by_a_cell_is_multi_driven(gatefile):
    module = parse_verilog("""
    module m (a, y); input a; output y;
      INVX1 i (.A(y), .Z(a));
      BUFX1 b (.A(a), .Z(y));
    endmodule
    """).top
    with pytest.raises(MultiDrivenNetError, match=r"<port a>, i\.Z"):
        check_drivers(module, gatefile)


def test_unknown_cells_and_pins_name_the_instance(gatefile):
    unknown_cell = parse_verilog(
        TWO_DRIVERS.replace("INVX1 i2 (.A(q), .Z(n1));", "")
        .replace("BUFX1 b", "FOOX1 b")
    ).top
    with pytest.raises(UnknownCellError) as caught:
        check_drivers(unknown_cell, gatefile)
    assert isinstance(caught.value, NetlistError)
    assert "instance 'b' (cell 'FOOX1')" in str(caught.value)
    unknown_pin = parse_verilog(
        TWO_DRIVERS.replace("INVX1 i2 (.A(q), .Z(n1));", "")
        .replace(".Z(y)", ".Q(y)")
    ).top
    with pytest.raises(UnknownCellError, match=r"instance 'b'.*BUFX1\.Q"):
        check_drivers(unknown_pin, gatefile)


def test_generated_designs_pass_the_check():
    hs, ll = core9_hs(), core9_ll()
    for library, module in [
        (hs, figure22_circuit(hs)),
        (hs, pipeline3(hs)),
        (hs, dlx_core(hs)),
        (hs, dlx_core(hs, registers=8, multiplier=False, width=16)),
        (ll, arm9_core(ll, target_cells=1200, seed=1996)),
    ]:
        check_drivers(module, build_gatefile(library))
