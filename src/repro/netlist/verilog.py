"""Gate-level structural Verilog reader and writer.

The desynchronization tool operates on post-synthesis netlists, so only
the structural subset of Verilog is supported:

- module / endmodule with classic or ANSI port lists,
- ``input`` / ``output`` / ``inout`` / ``wire`` declarations (vectors ok),
- cell and submodule instantiations with named (``.A(n)``) or positional
  connections (positional only when the referenced module is known),
- ``assign a = b;`` aliases and ``assign a = 1'b0/1'b1;`` constants,
- escaped identifiers (``\\foo.bar ``), ``//`` and ``/* */`` comments.

Behavioural constructs (always blocks, expressions) are rejected with a
clear error: the paper's ``drdesync`` also consumes gate-level input only.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .core import Module, Netlist, PinRef, PortDirection


class VerilogParseError(Exception):
    """Raised when the input is not acceptable gate-level Verilog."""


_TOKEN_RE = re.compile(
    r"""
    \\[^ \t\r\n]+                  # escaped identifier
  | \d+'[bBdDhH][0-9a-fA-FxXzZ_]+|\d+ # number
  | [A-Za-z_$][A-Za-z0-9_$]*        # identifier
  | [()\[\]{},;:.=#*]|\-            # symbol
  | \S                              # anything else: rejected below
    """,
    re.VERBOSE,
)

#: characters a token other than an escaped identifier or a number
#: starts with
_TOKEN_STARTS = frozenset(
    "()[]{},;:.=#*-$_"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
)


def _is_token(token: str) -> bool:
    """Whether ``token`` matched a real alternative of :data:`_TOKEN_RE`
    rather than its one-character catch-all."""
    first = token[0]
    if first == "\\":
        return len(token) > 1  # a lone backslash escapes nothing
    return first in _TOKEN_STARTS or first.isdecimal()


_COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)

_DIRECTIONS = {
    "input": PortDirection.INPUT,
    "output": PortDirection.OUTPUT,
    "inout": PortDirection.INOUT,
}

_SKIP_KEYWORDS = {"specify", "endspecify", "primitive", "endprimitive"}


def tokenize(text: str) -> List[str]:
    """Split Verilog source into tokens, stripping comments."""
    text = _COMMENT_RE.sub(" ", text)
    tokens = _TOKEN_RE.findall(text)
    if not all(map(_is_token, set(tokens))):
        for match in _TOKEN_RE.finditer(text):
            if not _is_token(match.group(0)):
                raise VerilogParseError(
                    f"unexpected character {match.group(0)!r} "
                    f"at offset {match.start()}"
                )
    return tokens


class _TokenStream:
    def __init__(self, tokens: List[str]):
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> Optional[str]:
        if self._pos >= len(self._tokens):
            return None
        return self._tokens[self._pos]

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise VerilogParseError("unexpected end of input")
        self._pos += 1
        return tok

    def expect(self, token: str) -> str:
        tok = self.next()
        if tok != token:
            raise VerilogParseError(f"expected {token!r}, got {tok!r}")
        return tok

    def accept(self, token: str) -> bool:
        if self.peek() == token:
            self._pos += 1
            return True
        return False


def _ident(token: str) -> str:
    """Normalise an identifier token (strip the escape backslash)."""
    if token.startswith("\\"):
        return token[1:]
    return token


_CONST_RE = re.compile(r"^(\d+)'[bB]([01xXzZ_]+)$")


def _constant_bits(token: str) -> Optional[List[int]]:
    """Decode ``N'b...`` tokens to a list of bits (MSB first), else None."""
    match = _CONST_RE.match(token)
    if match is None:
        return None
    width = int(match.group(1))
    bits_text = match.group(2).replace("_", "")
    bits = [1 if b == "1" else 0 for b in bits_text]
    while len(bits) < width:
        bits.insert(0, bits[0] if bits_text[0] not in "01" else 0)
    return bits[-width:]


class VerilogParser:
    """Parses one or more modules into a :class:`Netlist`."""

    def __init__(self, text: str):
        self._stream = _TokenStream(tokenize(text))
        self.netlist = Netlist()

    def parse(self) -> Netlist:
        while self._stream.peek() is not None:
            tok = self._stream.next()
            if tok == "module":
                self._parse_module()
            elif tok in _SKIP_KEYWORDS:
                self._skip_until("end" + tok)
            elif tok == "`timescale":
                self._skip_line()
            # stray tokens between modules are tolerated
        return self.netlist

    # ------------------------------------------------------------------
    def _skip_until(self, terminator: str) -> None:
        while True:
            tok = self._stream.next()
            if tok == terminator:
                return

    def _skip_line(self) -> None:
        # tokens have no line info; consume until next ';' heuristically
        while self._stream.peek() not in (None, ";"):
            self._stream.next()
        self._stream.accept(";")

    # ------------------------------------------------------------------
    def _parse_module(self) -> None:
        stream = self._stream
        name = _ident(stream.next())
        module = Module(name)
        declared_order: List[str] = []

        if stream.accept("("):
            declared_order = self._parse_header_ports(module)
        stream.expect(";")

        while True:
            tok = stream.next()
            if tok == "endmodule":
                break
            if tok in _DIRECTIONS:
                self._parse_direction_decl(module, _DIRECTIONS[tok])
            elif tok in ("wire", "tri"):
                self._parse_wire_decl(module)
            elif tok in ("supply0", "supply1"):
                value = 1 if tok == "supply1" else 0
                for net_name in self._parse_name_list():
                    const = module.constant_net(value)
                    module.ensure_net(net_name)
                    module.merge_nets(const.name, net_name)
            elif tok == "assign":
                self._parse_assign(module)
            elif tok in _SKIP_KEYWORDS:
                self._skip_until("end" + tok)
            elif tok in ("always", "initial"):
                raise VerilogParseError(
                    f"behavioural construct {tok!r} in module {name!r}: "
                    "only gate-level netlists are supported"
                )
            else:
                self._parse_instance(module, cell=_ident(tok))

        module.attributes["port_order"] = declared_order
        self.netlist.add_module(module)

    def _parse_header_ports(self, module: Module) -> List[str]:
        """Parse the ``( ... )`` header, returning declared port order."""
        stream = self._stream
        order: List[str] = []
        if stream.accept(")"):
            return order
        while True:
            tok = stream.peek()
            if tok in _DIRECTIONS:  # ANSI style
                stream.next()
                direction = _DIRECTIONS[tok]
                msb, lsb = self._maybe_range()
                port_name = _ident(stream.next())
                module.add_port(port_name, direction, msb, lsb)
                order.append(port_name)
            else:
                order.append(_ident(stream.next()))
            if stream.accept(")"):
                return order
            stream.expect(",")

    def _maybe_range(self) -> Tuple[Optional[int], Optional[int]]:
        stream = self._stream
        if not stream.accept("["):
            return None, None
        msb = int(stream.next())
        stream.expect(":")
        lsb = int(stream.next())
        stream.expect("]")
        return msb, lsb

    def _parse_name_list(self) -> List[str]:
        stream = self._stream
        names = [self._decl_name()]
        while stream.accept(","):
            names.append(self._decl_name())
        stream.expect(";")
        return names

    def _decl_name(self) -> str:
        """A declared name, optionally a single-bit select (``w[3]``):
        our writer emits bus-member nets as individual scalar wires."""
        name = _ident(self._stream.next())
        if self._stream.accept("["):
            index = self._stream.next()
            self._stream.expect("]")
            name = f"{name}[{index}]"
        return name

    def _parse_direction_decl(
        self, module: Module, direction: PortDirection
    ) -> None:
        msb, lsb = self._maybe_range()
        for name in self._parse_name_list():
            if name in module.ports:
                port = module.ports[name]
                port.direction = direction
                port.msb, port.lsb = msb, lsb
                for bit in port.bit_names():
                    # a pin set: re-declaring a port adds no second pin
                    net = module.ensure_net(bit)
                    net.connections[PinRef(None, bit)] = None
            else:
                module.add_port(name, direction, msb, lsb)

    def _parse_wire_decl(self, module: Module) -> None:
        msb, lsb = self._maybe_range()
        for name in self._parse_name_list():
            if msb is None:
                module.ensure_net(name)
            else:
                step = -1 if msb >= lsb else 1
                for i in range(msb, lsb + step, step):
                    module.ensure_net(f"{name}[{i}]")

    def _parse_assign(self, module: Module) -> None:
        stream = self._stream
        lhs = self._parse_net_ref(module)
        stream.expect("=")
        rhs_tok = stream.peek()
        bits = _constant_bits(rhs_tok) if rhs_tok else None
        if bits is not None:
            stream.next()
            rhs = module.constant_net(bits[-1]).name
        else:
            rhs = self._parse_net_ref(module)
        stream.expect(";")
        module.ensure_net(lhs)
        module.ensure_net(rhs)
        module.assigns.append((lhs, rhs))

    def _parse_net_ref(self, module: Module) -> str:
        """Parse a scalar net reference, e.g. ``n1`` or ``data[3]``."""
        stream = self._stream
        name = _ident(stream.next())
        if stream.accept("["):
            index = stream.next()
            stream.expect("]")
            name = f"{name}[{index}]"
        return name

    def _parse_instance(self, module: Module, cell: str) -> None:
        stream = self._stream
        if stream.accept("#"):  # parameter override, skip balanced parens
            stream.expect("(")
            depth = 1
            while depth:
                tok = stream.next()
                if tok == "(":
                    depth += 1
                elif tok == ")":
                    depth -= 1
        inst_name = _ident(stream.next())
        stream.expect("(")
        inst = module.add_instance(inst_name, cell)
        if stream.accept(")"):
            stream.expect(";")
            return
        position = 0
        while True:
            if stream.accept("."):
                pin = _ident(stream.next())
                stream.expect("(")
                if stream.peek() == ")":  # unconnected pin
                    stream.next()
                else:
                    net = self._connection_net(module)
                    stream.expect(")")
                    module.connect(inst_name, pin, net)
            else:
                net = self._connection_net(module)
                module.connect(inst_name, f"__pos{position}__", net)
                inst.attributes["positional"] = True
                position += 1
            if stream.accept(")"):
                break
            stream.expect(",")
        stream.expect(";")

    def _connection_net(self, module: Module) -> str:
        tok = self._stream.peek()
        if tok == "{":
            raise VerilogParseError(
                "concatenations in port connections are not supported"
            )
        bits = _constant_bits(tok) if tok else None
        if bits is not None:
            self._stream.next()
            return module.constant_net(bits[-1]).name
        return self._parse_net_ref(module)


def parse_verilog(text: str) -> Netlist:
    """Parse gate-level Verilog source text into a :class:`Netlist`."""
    return VerilogParser(text).parse()


def read_verilog(path: str) -> Netlist:
    with open(path) as handle:
        return parse_verilog(handle.read())


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------

_SIMPLE_ID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_$]*$")
_BIT_ID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_$]*\[\d+\]$")


def _emit_id(name: str) -> str:
    if _SIMPLE_ID_RE.match(name) or _BIT_ID_RE.match(name):
        return name
    return f"\\{name} "


def write_module(module: Module) -> str:
    """Render one module as structural Verilog text."""
    lines: List[str] = []
    port_names = list(module.ports)
    lines.append(
        f"module {_emit_id(module.name)} ("
        + ", ".join(_emit_id(p) for p in port_names)
        + ");"
    )
    for port in module.ports.values():
        rng = f" [{port.msb}:{port.lsb}]" if port.is_vector else ""
        lines.append(f"  {port.direction.value}{rng} {_emit_id(port.name)};")

    port_bits = set(module.port_bits())
    for net in module.nets.values():
        if net.name in port_bits or net.is_constant:
            continue
        lines.append(f"  wire {_emit_id(net.name)};")
    for value in (0, 1):
        const_name = f"__const{value}__"
        if const_name in module.nets and module.nets[const_name].connections:
            lines.append(f"  wire {const_name};")
            lines.append(f"  assign {const_name} = 1'b{value};")

    for lhs, rhs in module.assigns:
        lines.append(f"  assign {_emit_id(lhs)} = {_emit_id(rhs)};")

    for inst in module.instances.values():
        conns = ", ".join(
            f".{_emit_id(pin)}({_emit_id(net)})"
            for pin, net in sorted(inst.pins.items())
        )
        lines.append(
            f"  {_emit_id(inst.cell)} {_emit_id(inst.name)} ({conns});"
        )
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def write_verilog(netlist: Netlist) -> str:
    """Render every module of a netlist, top module last."""
    chunks = []
    top_name = netlist.top.name
    for name, module in netlist.modules.items():
        if name != top_name:
            chunks.append(write_module(module))
    chunks.append(write_module(netlist.top))
    return "\n".join(chunks)


def save_verilog(netlist: Netlist, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(write_verilog(netlist))
