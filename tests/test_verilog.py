"""Verilog parser/writer round-trip tests."""

import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.netlist import (
    Module,
    NetlistError,
    PortDirection,
    VerilogParseError,
    parse_verilog,
    write_verilog,
)
from repro.netlist.verilog import write_module
from verilog_oracle import netlist_state, oracle_parse

SIMPLE = """
// a comment
module top (a, b, y);
  input a, b;
  output y;
  wire n1;
  AND2X1 u1 (.A(a), .B(b), .Z(n1));
  INVX1 u2 (.A(n1), .Z(y));
endmodule
"""


def test_parse_simple_module():
    netlist = parse_verilog(SIMPLE)
    top = netlist.top
    assert top.name == "top"
    assert set(top.ports) == {"a", "b", "y"}
    assert top.ports["a"].direction == PortDirection.INPUT
    assert top.instances["u1"].cell == "AND2X1"
    assert top.net_of("u1", "Z") == "n1"
    assert top.net_of("u2", "Z") == "y"


def test_parse_ansi_ports_and_vectors():
    text = """
    module m (input [3:0] d, output q);
      DFFX1 r0 (.D(d[0]), .CK(q), .Q(q));
    endmodule
    """
    top = parse_verilog(text).top
    assert top.ports["d"].width == 4
    assert "d[3]" in top.nets
    assert top.net_of("r0", "D") == "d[0]"


def test_parse_vector_wire_declaration():
    text = """
    module m (a, y);
      input a; output y;
      wire [1:0] w;
      BUFX1 u0 (.A(a), .Z(w[1]));
      BUFX1 u1 (.A(w[1]), .Z(y));
    endmodule
    """
    top = parse_verilog(text).top
    assert "w[0]" in top.nets and "w[1]" in top.nets


def test_parse_constants_become_constant_nets():
    text = """
    module m (y);
      output y;
      AND2X1 u (.A(1'b1), .B(1'b0), .Z(y));
    endmodule
    """
    top = parse_verilog(text).top
    assert top.net_of("u", "A") == "__const1__"
    assert top.net_of("u", "B") == "__const0__"


def test_parse_assign_alias_and_constant():
    text = """
    module m (a, y);
      input a; output y;
      wire n;
      assign y = n;
      assign n = a;
      wire t;
      assign t = 1'b1;
    endmodule
    """
    top = parse_verilog(text).top
    assert ("y", "n") in top.assigns
    assert ("t", "__const1__") in top.assigns


def test_parse_escaped_identifiers():
    text = r"""
    module m (a, y);
      input a; output y;
      wire \fancy.net[1] ;
      BUFX1 \u$0 (.A(a), .Z(\fancy.net[1] ));
      BUFX1 u1 (.A(\fancy.net[1] ), .Z(y));
    endmodule
    """
    top = parse_verilog(text).top
    assert "fancy.net[1]" in top.nets
    assert "u$0" in top.instances


def test_parse_unconnected_pin():
    text = """
    module m (a, y);
      input a; output y;
      DFFX1 r (.D(a), .CK(a), .Q(y), .QN());
    endmodule
    """
    top = parse_verilog(text).top
    assert "QN" not in top.instances["r"].pins


def test_behavioural_input_rejected():
    text = "module m (y); output y; always @(posedge c) y = 1; endmodule"
    with pytest.raises(VerilogParseError):
        parse_verilog(text)
    text = "module m (y); output y; initial begin end endmodule"
    with pytest.raises(VerilogParseError) as caught:
        parse_verilog(text)
    assert str(caught.value) == (
        "behavioural construct 'initial' in module 'm': "
        "only gate-level netlists are supported"
    )


def test_concatenation_rejected():
    text = """
    module m (a, y);
      input a; output y;
      BUFX1 u (.A({a, a}), .Z(y));
    endmodule
    """
    with pytest.raises(VerilogParseError) as caught:
        parse_verilog(text)
    assert str(caught.value) == (
        "concatenations in port connections are not supported"
    )


def test_round_trip_preserves_structure():
    netlist = parse_verilog(SIMPLE)
    text = write_verilog(netlist)
    again = parse_verilog(text)
    top_a, top_b = netlist.top, again.top
    assert set(top_a.ports) == set(top_b.ports)
    assert set(top_a.instances) == set(top_b.instances)
    for name, inst in top_a.instances.items():
        assert again.top.instances[name].pins == inst.pins


def test_round_trip_with_vectors_and_constants():
    text = """
    module m (input [2:0] d, output [1:0] q);
      AND2X1 u0 (.A(d[0]), .B(d[1]), .Z(q[0]));
      OR2X1 u1 (.A(d[2]), .B(1'b0), .Z(q[1]));
    endmodule
    """
    netlist = parse_verilog(text)
    again = parse_verilog(write_verilog(netlist))
    assert again.top.ports["d"].width == 3
    assert again.top.net_of("u1", "B") == "__const0__"


def test_multiple_modules_and_top_is_last_written():
    text = """
    module sub (a, z); input a; output z;
      BUFX1 u (.A(a), .Z(z));
    endmodule
    module top (a, z); input a; output z;
      sub s0 (.a(a), .z(z));
    endmodule
    """
    netlist = parse_verilog(text)
    assert set(netlist.modules) == {"sub", "top"}
    netlist.set_top("top")
    out = write_verilog(netlist)
    assert out.rstrip().endswith("endmodule")
    assert out.index("module sub") < out.index("module top")


# ----------------------------------------------------------------------
# the statement reader against the token-stream parser it replaced
# ----------------------------------------------------------------------

#: escaped names holding the characters a statement splits on
_ESCAPED = ["\\e;1 ", "\\f(x) ", "\\g,h ", "\\i.j[2] ", "\\k) "]
_NETS = ["a", "b", "y", "n1", "n2", "w[0]", "w[3]", "w [ 1 ]", "v[2]", "g"]
_CONSTANTS = ["1'b0", "1'b1", "4'b10x1", "1'bz", "3'b1_0", "2'B01"]


def _space(draw):
    """Whitespace, possibly a comment or nothing, between two tokens."""
    return draw(st.sampled_from(
        ["", " ", "\n  ", "\t", " /* c */ ", " // c\n"]
    ))


def _reference(constants=True):
    return st.sampled_from(
        _NETS + _ESCAPED + (_CONSTANTS if constants else [])
    )


@st.composite
def _params(draw, depth=0):
    items = []
    for _ in range(draw(st.integers(0, 2))):
        if depth < 2 and draw(st.booleans()):
            items.append(f".W{len(items)}(" + draw(_params(depth + 1)) + ")")
        else:
            items.append(draw(st.sampled_from(["8", "4'b1010", "x", ".P(3)"])))
    return ", ".join(items) if depth else "#(" + ", ".join(items) + ")"


@st.composite
def _instance(draw, index):
    cell = draw(st.sampled_from(["BUFX1", "NAND2X1", "DFFX1", "\\C$2 "]))
    name = draw(st.sampled_from([f"u{index}", f"u{index % 3}", "\\u;x "]))
    params = draw(_params()) + " " if draw(st.booleans()) else ""
    conns = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["named", "named", "open", "positional"]))
        pin = draw(st.sampled_from(["A", "B", "Z", "\\P(1) "]))
        if kind == "named":
            conns.append(f".{pin}({_space(draw)}{draw(_reference())})")
        elif kind == "open":
            conns.append(f".{pin}()")
        else:
            conns.append(draw(_reference()))
    sep = "," + _space(draw)
    return f"{cell} {params}{name}{_space(draw)}({sep.join(conns)});"


@st.composite
def _statement(draw, index):
    kind = draw(st.sampled_from([
        "instance", "instance", "instance", "wire", "port", "assign",
        "supply", "specify",
    ]))
    if kind == "instance":
        return draw(_instance(index))
    if kind == "specify":
        return "specify specparam t = 1 ; ( A , B ) = ( 1 , 2 ) ; endspecify"
    rng = draw(st.sampled_from(["", "[3:0] ", "[0:2] ", "[1:1] "]))
    names = ", ".join(draw(st.lists(
        st.sampled_from(["a", "b", "y", "n1", "n2", "w", "g", "v[2]"]
                        + _ESCAPED),
        min_size=1, max_size=3,
    )))
    if kind == "wire":
        return f"{draw(st.sampled_from(['wire', 'tri']))} {rng}{names};"
    if kind == "port":
        direction = draw(st.sampled_from(["input", "output", "inout"]))
        return f"{direction} {rng}{names};"
    if kind == "supply":
        supply = draw(st.sampled_from(["supply0", "supply1"]))
        return f"{supply} {names};"
    lhs = draw(_reference(constants=False))
    return f"assign {lhs}{_space(draw)}={_space(draw)}{draw(_reference())};"


@st.composite
def _module(draw, name):
    header = draw(st.sampled_from([
        "", " ()", " (a, b, y)", " (input [3:0] a, output y)",
        " (input a, b, output [1:0] \\q,r )",
    ]))
    body = [
        draw(_statement(index))
        for index in range(draw(st.integers(0, 7)))
    ]
    inner = "\n".join("  " + line for line in body)
    return f"module {name}{header};\n{inner}\nendmodule"


@st.composite
def verilog_sources(draw):
    """Structural Verilog within the statement reader's grammar: several
    modules, stray tokens between them, and the statement forms each
    with random names, spacing and comments."""
    parts = []
    for name in draw(st.lists(
        st.sampled_from(["top", "sub", "\\m.1 "]),
        min_size=1, max_size=3, unique=True,
    )):
        if draw(st.booleans()):
            parts.append(draw(st.sampled_from([
                "foo ;", "42", "endmodule", "( x )",
                "primitive p ; table 0 : 1 ; endtable endprimitive",
            ])))
        parts.append(draw(_module(name)))
    return "\n".join(parts)


@given(verilog_sources())
@settings(max_examples=400, deadline=None)
def test_reader_matches_the_token_stream_parser(text):
    """Where the old parser reads a file, the reader gives the same
    netlist: ports and their order, instances, pin order, net order,
    connection order, constants, assigns, attributes and ``_uid``.
    Where it raises, the reader raises a typed error."""
    try:
        expected = oracle_parse(text)
    except Exception:
        with pytest.raises((VerilogParseError, NetlistError)):
            parse_verilog(text)
    else:
        assert netlist_state(parse_verilog(text)) == netlist_state(expected)


@pytest.mark.parametrize("design", ["dlx", "arm"])
def test_benchmark_designs_read_as_the_old_parser_read_them(design):
    from repro.designs import arm9_core, dlx_core
    from repro.liberty.core9 import core9_hs, core9_ll

    if design == "dlx":
        module = dlx_core(core9_hs())
    else:
        module = arm9_core(core9_ll(), target_cells=8000, seed=1996)
    text = write_module(module)
    assert netlist_state(parse_verilog(text)) == netlist_state(
        oracle_parse(text)
    )


def test_a_read_module_starts_with_an_empty_dirty_log():
    top = parse_verilog(SIMPLE).top
    assert top.dirty_token == 0
    assert top.dirty_since(0) is not None and not top.dirty_since(0)
    assert top.check() == []


def test_supply_net_declared_before_use_binds_the_tie_net():
    before = parse_verilog("""
    module m (y); output y;
      supply0 g;
      BUFX1 u (.A(g), .Z(y));
    endmodule
    """).top
    after = parse_verilog("""
    module m (y); output y;
      BUFX1 u (.A(g), .Z(y));
      supply0 g;
    endmodule
    """).top
    for top in (before, after):
        assert top.net_of("u", "A") == "__const0__"
        assert "g" not in top.nets
        assert top.nets["__const0__"].is_constant
        assert top.nets["__const0__"].constant_value == 0


def test_supply_net_binds_wires_and_assigns_too():
    top = parse_verilog("""
    module m (y); output y;
      assign n = vdd;
      supply1 vdd;
      wire vdd;
      assign y = vdd;
    endmodule
    """).top
    assert top.assigns == [("n", "__const1__"), ("y", "__const1__")]
    assert "vdd" not in top.nets


def test_directives_and_specify_paths_are_skipped():
    text = """`timescale 1ns/1ps
    `define WIDTH 4
    module m (a, y);
      input a; output y;
      BUFX1 u (.A(a), .Z(y));
      specify
        (A => Z) = (0.1, 0.2);
        (A *> Z) = 1;
      endspecify
    `ifdef NEVER
    endmodule
    """
    top = parse_verilog(text).top
    assert top.net_of("u", "Z") == "y"
    assert set(top.instances) == {"u"}


def test_range_bound_errors_name_the_token():
    for text, token in [
        ("module m (x); input [a:0] x; endmodule", "'a'"),
        ("module m (input [3:b] x); endmodule", "'b'"),
        ("module m; wire [1_0:0] w; endmodule", "'1_0'"),
    ]:
        with pytest.raises(VerilogParseError, match=re.escape(token)):
            parse_verilog(text)


def test_malformed_statements_raise_typed_errors():
    for text in [
        "module m; BUFX1 u (.A(8'hFF)); endmodule",  # not a binary tie
        "module m; BUFX1 u (.A(1'b_)); endmodule",  # no digits
        "module m; BUFX1 u (.A(a) endmodule",  # unterminated
        "module m (a, a;",  # unterminated header
        "module m; BUFX1 u (); BUFX1 u (); endmodule",  # duplicate
        "module m (input a, input a); endmodule",  # duplicate port
        "module m (a); input a; supply0 a; endmodule",  # port tied
        "module m; specify (A => Z) = 1;",  # unterminated block
    ]:
        with pytest.raises((VerilogParseError, NetlistError)):
            parse_verilog(text)


# ----------------------------------------------------------------------
# unexpected characters: the reader flags what the tokenizer flagged
# ----------------------------------------------------------------------

_ORACLE_TOKEN_RE = re.compile(
    r"""
    (?P<escaped>\\[^ \t\r\n]+)      # escaped identifier
  | (?P<number>\d+'[bBdDhH][0-9a-fA-FxXzZ_]+|\d+)
  | (?P<id>[A-Za-z_$][A-Za-z0-9_$]*)
  | (?P<sym>[()\[\]{},;:.=#*]|\-)
    """,
    re.VERBOSE,
)

_ORACLE_COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)


def _oracle_tokenize(text):
    """The per-character tokenizer, kept as the oracle."""
    text = _ORACLE_COMMENT_RE.sub(" ", text)
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        match = _ORACLE_TOKEN_RE.match(text, pos)
        if match is None:
            raise VerilogParseError(
                f"unexpected character {text[pos]!r} at offset {pos}"
            )
        tokens.append(match.group(0))
        pos = match.end()
    return tokens


#: Verilog-flavoured pieces, plus characters no token starts with: a
#: quote, a tilde, a non-ASCII letter, an Arabic-Indic digit (a decimal,
#: so a number) and a non-breaking space (whitespace).  A backtick now
#: opens a directive, so it is left out.
_PIECES = st.sampled_from([
    "module", "endmodule", "u_1", "$sig", "n[3]", "\\a.b[0] ", "\\", "\\\t",
    "4'b10x1", "8'hFF", "1'b0", "12", "3_", "\u0663", "\u00a0", "\u00e9",
    "(", ")", "[", "]", "{", "}", ";", ",", ".", "=", "#", "*", "-", ":",
    "'", "~", " ", "\t", "\n", "\f", "input", "wire", "assign",
    "// note\n", "/* c */", "/*", "*/", "//",
])


@given(st.lists(
    st.one_of(
        _PIECES,
        st.characters(max_codepoint=0x7F, exclude_characters="`"),
    ),
    max_size=40,
).map("".join))
@settings(max_examples=400, deadline=None)
def test_tokenize_matches_per_character_oracle(text):
    """The reader reports a character no token starts with as the
    per-character tokenizer did, same character and same offset, before
    any other error; and it reports no other character."""
    assume("specify" not in text and "primitive" not in text)
    try:
        _oracle_tokenize(text)
    except VerilogParseError as exc:
        with pytest.raises(VerilogParseError) as caught:
            parse_verilog(text)
        assert str(caught.value) == str(exc)
    else:
        try:
            parse_verilog(text)
        except (VerilogParseError, NetlistError) as exc:
            assert not str(exc).startswith("unexpected character")


def test_tokenize_errors_name_the_character_and_offset():
    with pytest.raises(VerilogParseError,
                       match=r"unexpected character '~' at offset 4"):
        parse_verilog("a b ~c")
    # offsets count in the comment-stripped text
    with pytest.raises(VerilogParseError,
                       match=r"unexpected character \"'\" at offset 2"):
        parse_verilog("/**/ ' x")
    with pytest.raises(VerilogParseError,
                       match=r"unexpected character '\\\\' at offset 2"):
        parse_verilog("a \\ b")
    # a bad character outranks an earlier error, as when the whole file
    # was tokenized first
    with pytest.raises(VerilogParseError,
                       match=r"unexpected character '~' at offset 38"):
        parse_verilog("module m; initial begin end endmodule ~")
    # an escaped name runs to a blank (not a non-breaking space), and
    # Arabic-Indic digits are a number: stray tokens, no module
    assert parse_verilog("\\x\u00a0y \u0663\u0664").modules == {}


# ----------------------------------------------------------------------
# writer: one spelling per distinct name
# ----------------------------------------------------------------------

_OLD_SIMPLE_ID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_$]*$")
_OLD_BIT_ID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_$]*\[\d+\]$")


def _old_emit_id(name):
    if _OLD_SIMPLE_ID_RE.match(name) or _OLD_BIT_ID_RE.match(name):
        return name
    return f"\\{name} "


_WRITER_NAMES = st.one_of(
    st.sampled_from(["n1", "w[3]", "a.b", "x y", "q\n", "\u0663", "$z", "_"]),
    st.text(
        st.characters(codec="ascii", exclude_characters="\0"),
        min_size=1, max_size=5,
    ),
)


@given(st.lists(
    st.tuples(_WRITER_NAMES, _WRITER_NAMES, _WRITER_NAMES),
    min_size=1, max_size=8,
))
@settings(max_examples=200, deadline=None)
def test_writer_spells_every_name_as_before(gates):
    module = Module("m")
    module.add_port("a", PortDirection.INPUT)
    for index, (inst, pin, net) in enumerate(gates):
        name = f"{inst}{index}"
        module.add_instance(name, "BUFX1", {pin: net, "Z": f"{net}_o"})
    text = write_module(module)
    for inst in module.instances.values():
        assert (
            f"BUFX1 {_old_emit_id(inst.name)} (" in text
        )
        for pin, net in inst.pins.items():
            assert f".{_old_emit_id(pin)}({_old_emit_id(net)})" in text
    for net in module.nets:
        if net != "a":
            assert f"  wire {_old_emit_id(net)};\n" in text
