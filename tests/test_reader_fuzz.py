"""Mutation fuzzing of the Verilog and Liberty readers: a damaged file
is read or refused with a typed error, never a bare traceback."""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs import arm9_core, dlx_core
from repro.liberty import core9_hs, core9_ll
from repro.liberty.parser import LibertyParseError, parse_liberty
from repro.liberty.writer import write_liberty
from repro.netlist import NetlistError, VerilogParseError, parse_verilog
from repro.netlist.verilog import write_module

TYPED = (VerilogParseError, LibertyParseError, NetlistError)


@lru_cache(maxsize=None)
def source(kind: str) -> str:
    """The repo's own tiny DLX and ARM netlists and a written library."""
    if kind == "dlx":
        return write_module(
            dlx_core(core9_hs(), registers=8, multiplier=False, width=16)
        )
    if kind == "arm":
        return write_module(
            arm9_core(core9_ll(), target_cells=1200, seed=1996)
        )
    return write_liberty(core9_hs())


@st.composite
def mutated(draw, kind):
    """One character deleted, duplicated or replaced, or a truncation."""
    text = source(kind)
    pos = draw(st.integers(0, len(text) - 1))
    op = draw(st.sampled_from(["delete", "duplicate", "replace", "truncate"]))
    if op == "delete":
        return text[:pos] + text[pos + 1:]
    if op == "duplicate":
        return text[:pos] + text[pos] + text[pos:]
    if op == "truncate":
        return text[:pos]
    char = draw(st.one_of(
        st.sampled_from(list("\\;,()[]{}:.=#*-'`\" \n0123456789_$xz")),
        st.characters(),
    ))
    return text[:pos] + char + text[pos + 1:]


def _read_or_refuse(reader, text):
    try:
        reader(text)
    except TYPED:
        pass


@given(mutated("dlx"))
@settings(max_examples=150, deadline=None)
def test_mutated_dlx_netlist_reads_or_fails_typed(text):
    _read_or_refuse(parse_verilog, text)


@given(mutated("arm"))
@settings(max_examples=150, deadline=None)
def test_mutated_arm_netlist_reads_or_fails_typed(text):
    _read_or_refuse(parse_verilog, text)


@given(mutated("liberty"))
@settings(max_examples=300, deadline=None)
def test_mutated_liberty_reads_or_fails_typed(text):
    _read_or_refuse(parse_liberty, text)
