"""Verilog parser/writer round-trip tests."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import (
    PortDirection,
    VerilogParseError,
    parse_verilog,
    write_verilog,
)
from repro.netlist.verilog import tokenize

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


def test_concatenation_rejected():
    text = """
    module m (a, y);
      input a; output y;
      BUFX1 u (.A({a, a}), .Z(y));
    endmodule
    """
    with pytest.raises(VerilogParseError):
        parse_verilog(text)


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
# tokenizer: one findall against the per-character loop it replaced
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
#: backtick, a quote, a tilde, a non-ASCII letter, an Arabic-Indic digit
#: (a decimal, so a number) and a non-breaking space (whitespace)
_PIECES = st.sampled_from([
    "module", "endmodule", "u_1", "$sig", "n[3]", "\\a.b[0] ", "\\", "\\\t",
    "4'b10x1", "8'hFF", "1'b0", "12", "3_", "\u0663", "\u00a0", "\u00e9",
    "(", ")", "[", "]", "{", "}", ";", ",", ".", "=", "#", "*", "-", ":",
    "`timescale", "`", "'", "~", " ", "\t", "\n", "\f",
    "// note\n", "/* c */", "/*", "*/", "//",
])


@given(st.lists(
    st.one_of(_PIECES, st.characters(max_codepoint=0x7F)), max_size=40
).map("".join))
@settings(max_examples=400, deadline=None)
def test_tokenize_matches_per_character_oracle(text):
    try:
        expected = _oracle_tokenize(text)
    except VerilogParseError as exc:
        with pytest.raises(VerilogParseError) as caught:
            tokenize(text)
        assert str(caught.value) == str(exc)
    else:
        assert tokenize(text) == expected


def test_tokenize_errors_name_the_character_and_offset():
    with pytest.raises(VerilogParseError,
                       match=r"unexpected character '~' at offset 4"):
        tokenize("a b ~c")
    # offsets count in the comment-stripped text
    with pytest.raises(VerilogParseError,
                       match=r"unexpected character \"'\" at offset 2"):
        tokenize("/**/ ' x")
    with pytest.raises(VerilogParseError,
                       match=r"unexpected character '\\\\' at offset 2"):
        tokenize("a \\ b")
    assert tokenize("\\x\u00a0y \u0663\u0664") == [
        "\\x\u00a0y", "\u0663\u0664"
    ]
