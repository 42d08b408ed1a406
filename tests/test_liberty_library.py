"""Tests for the library model, writer/parser round trip and core9."""

import pytest

from repro.liberty import (
    CellKind,
    build_gatefile,
    core9_hs,
    core9_ll,
    is_scan_cell,
    parse_liberty,
    write_liberty,
)
from repro.netlist import PortDirection


@pytest.fixture(scope="module")
def hs_library():
    return core9_hs()


def test_core9_has_expected_cell_families(hs_library):
    for name in (
        "INVX1",
        "BUFX2",
        "NAND2X1",
        "MUX2X1",
        "MAJ3X1",
        "FAX1",
        "DFFX1",
        "SDFFX1",
        "DFFCX1",
        "LDHX1",
        "CKGATEX1",
    ):
        assert name in hs_library, name


def test_cell_kinds(hs_library):
    assert hs_library.cell("NAND2X1").kind == CellKind.COMBINATIONAL
    assert hs_library.cell("DFFX1").kind == CellKind.FLIP_FLOP
    assert hs_library.cell("LDHX1").kind == CellKind.LATCH


def test_scan_detection(hs_library):
    assert is_scan_cell(hs_library.cell("SDFFX1"))
    assert is_scan_cell(hs_library.cell("SDFFRX1"))
    assert not is_scan_cell(hs_library.cell("DFFX1"))
    assert not is_scan_cell(hs_library.cell("NAND2X1"))


def test_latch_pair_area_overhead_band(hs_library):
    """Latch-pair vs DFF area drives the paper's ~17.7% sequential overhead."""
    dff = hs_library.cell("DFFX1").area
    latch = hs_library.cell("LDHX1").area
    overhead = (2 * latch - dff) / dff
    assert 0.10 < overhead < 0.30


def test_drive_strengths_scale_resistance(hs_library):
    x1 = hs_library.cell("INVX1").delay_arcs()[0]
    x4 = hs_library.cell("INVX4").delay_arcs()[0]
    assert x4.rise_resistance < x1.rise_resistance / 2
    # and input capacitance grows
    assert (
        hs_library.cell("INVX4").pins["A"].capacitance
        > hs_library.cell("INVX1").pins["A"].capacitance
    )


def test_arc_delay_linear_model(hs_library):
    arc = hs_library.cell("NAND2X1").delay_arcs()[0]
    d_small = arc.delay(0.01)
    d_big = arc.delay(0.02)
    assert d_big > d_small
    assert abs((d_big - d_small) - arc.rise_resistance * 0.01) < 1e-12


def test_corners_best_faster_than_worst(hs_library):
    assert hs_library.corner("best").derate < 1.0 < hs_library.corner("worst").derate
    with pytest.raises(KeyError):
        hs_library.corner("typical")  # paper: no typical corner in the library


def test_ll_library_slower_and_lower_leakage():
    hs, ll = core9_hs(), core9_ll()
    hs_arc = hs.cell("NAND2X1").delay_arcs()[0]
    ll_arc = ll.cell("NAND2X1").delay_arcs()[0]
    assert ll_arc.intrinsic_rise > hs_arc.intrinsic_rise
    assert ll.cell("NAND2X1").leakage < hs.cell("NAND2X1").leakage / 5


def test_liberty_round_trip(hs_library):
    text = write_liberty(hs_library)
    again = parse_liberty(text)
    assert set(again.cells) == set(hs_library.cells)
    assert set(again.corners) == set(hs_library.corners)
    for name in ("DFFRX1", "LDHX1", "MUX2X1", "CKGATEX1"):
        orig, back = hs_library.cell(name), again.cell(name)
        assert set(orig.pins) == set(back.pins)
        assert abs(orig.area - back.area) < 1e-9
        assert len(orig.arcs) == len(back.arcs)
        if orig.sequential:
            assert back.sequential is not None
            assert back.sequential.kind == orig.sequential.kind
            assert back.sequential.next_state == orig.sequential.next_state
            assert back.sequential.clear == orig.sequential.clear


def test_round_trip_preserves_setup_hold(hs_library):
    again = parse_liberty(write_liberty(hs_library))
    dff = again.cell("DFFX1")
    types = {arc.timing_type for arc in dff.arcs}
    assert "setup_rising" in types and "hold_rising" in types
    latch = again.cell("LDHX1")
    types = {arc.timing_type for arc in latch.arcs}
    assert "setup_falling" in types


def test_gatefile_classification(hs_library):
    gatefile = build_gatefile(hs_library)
    assert gatefile.is_flip_flop("DFFX1")
    assert gatefile.is_latch("LDHX1")
    assert gatefile.is_combinational("NAND2X1")
    assert gatefile.info("BUFX1").is_buffer
    assert gatefile.info("INVX1").is_inverter
    assert not gatefile.info("NAND2X1").is_buffer
    assert gatefile.info("SDFFX1").is_scan
    assert gatefile.pin_direction("DFFX1", "Q") == PortDirection.OUTPUT
    assert gatefile.pin_direction("DFFX1", "D") == PortDirection.INPUT
    assert "CK" in gatefile.info("DFFX1").clock_pins


def test_gatefile_replacement_rules(hs_library):
    gatefile = build_gatefile(hs_library)
    plain = gatefile.rule_for("DFFX1")
    assert plain.latch_cell == "LDHX1"
    assert plain.front_logic == "D"
    scan = gatefile.rule_for("SDFFX1")
    assert "SE" in scan.front_logic and "SI" in scan.front_logic
    clear = gatefile.rule_for("DFFCX1")
    assert clear.async_clear == "!CDN"
    assert gatefile.missing_latches() == set()


def test_gatefile_reports_missing_latches(hs_library):
    import copy

    stripped = copy.deepcopy(hs_library)
    for name in list(stripped.cells):
        cell = stripped.cells[name]
        if cell.kind == CellKind.LATCH and name != "CKGATEX1":
            del stripped.cells[name]
    gatefile = build_gatefile(stripped)
    assert gatefile.missing_latches() == {"GEN_LATCH"}
    assert gatefile.rule_for("DFFX1").latch_cell == "GEN_LATCH"


def test_gatefile_text_round_trip(hs_library):
    gatefile = build_gatefile(hs_library)
    text = gatefile.to_text()
    again = type(gatefile).from_text(text)
    assert set(again.cells) == set(gatefile.cells)
    assert set(again.rules) == set(gatefile.rules)
    for name, rule in gatefile.rules.items():
        back = again.rules[name]
        assert back.latch_cell == rule.latch_cell
        assert back.front_logic == rule.front_logic
        assert back.async_clear == rule.async_clear
    assert again.info("SDFFX1").is_scan
    assert again.pin_direction("NAND2X1", "Z") == PortDirection.OUTPUT


def test_malformed_values_name_the_group_and_attribute(hs_library):
    from repro.liberty.parser import LibertyParseError

    text = write_liberty(hs_library)
    for bad, message in [
        (text.replace("area : ", "area : abc", 1),
         r"cell \(\w+\): attribute 'area' is not a number: 'abc"),
        (text.replace("direction : input", "direction : inpt", 1),
         r"pin \(\w+\): attribute 'direction' is not input, output or "
         r"inout: 'inpt'"),
        (text.replace("cell (INVX1)", "cell ()", 1),
         r"cell group without a name"),
    ]:
        with pytest.raises(LibertyParseError, match=message):
            parse_liberty(bad)
