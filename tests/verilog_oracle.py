"""The token-stream Verilog parser the statement reader replaced, kept
as the oracle of ``test_verilog.py``.

It is the earlier parser verbatim except for one fix the reader also
makes: a reference to a ``supply0``/``supply1`` net after its
declaration binds the tie net (``_parse_net_ref``, ``_parse_wire_decl``
and the ``supply`` branch), where it used to recreate a floating net of
that name.  The ``\\`timescale`` branch of :meth:`VerilogParser.parse`
is kept although the tokenizer rejects a backtick before it can run.
"""

import re
from typing import List, Optional, Tuple

from repro.netlist import Module, Netlist, PinRef, PortDirection
from repro.netlist.verilog import VerilogParseError

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

_TOKEN_STARTS = frozenset(
    "()[]{},;:.=#*-$_"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
)


def _is_token(token: str) -> bool:
    first = token[0]
    if first == "\\":
        return len(token) > 1
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
    if token.startswith("\\"):
        return token[1:]
    return token


_CONST_RE = re.compile(r"^(\d+)'[bB]([01xXzZ_]+)$")


def _constant_bits(token: str) -> Optional[List[int]]:
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
        self._aliases = {}

    def parse(self) -> Netlist:
        while self._stream.peek() is not None:
            tok = self._stream.next()
            if tok == "module":
                self._parse_module()
            elif tok in _SKIP_KEYWORDS:
                self._skip_until("end" + tok)
            elif tok == "`timescale":
                self._skip_line()
        return self.netlist

    def _skip_until(self, terminator: str) -> None:
        while True:
            tok = self._stream.next()
            if tok == terminator:
                return

    def _skip_line(self) -> None:
        while self._stream.peek() not in (None, ";"):
            self._stream.next()
        self._stream.accept(";")

    def _parse_module(self) -> None:
        stream = self._stream
        name = _ident(stream.next())
        module = Module(name)
        self._aliases = {}
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
                    if net_name != const.name:  # the supply-net fix
                        self._aliases[net_name] = const.name
                        module.assigns = [
                            tuple(self._aliases.get(n, n) for n in pair)
                            for pair in module.assigns
                        ]
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
        stream = self._stream
        order: List[str] = []
        if stream.accept(")"):
            return order
        while True:
            tok = stream.peek()
            if tok in _DIRECTIONS:
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
                    net = module.ensure_net(bit)
                    net.connections[PinRef(None, bit)] = None
            else:
                module.add_port(name, direction, msb, lsb)

    def _parse_wire_decl(self, module: Module) -> None:
        msb, lsb = self._maybe_range()
        aliases = self._aliases
        for name in self._parse_name_list():
            if msb is None:
                module.ensure_net(aliases.get(name, name))
            else:
                step = -1 if msb >= lsb else 1
                for i in range(msb, lsb + step, step):
                    bit = f"{name}[{i}]"
                    module.ensure_net(aliases.get(bit, bit))

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
        stream = self._stream
        name = _ident(stream.next())
        if stream.accept("["):
            index = stream.next()
            stream.expect("]")
            name = f"{name}[{index}]"
        return self._aliases.get(name, name)

    def _parse_instance(self, module: Module, cell: str) -> None:
        stream = self._stream
        if stream.accept("#"):
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
                if stream.peek() == ")":
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


def oracle_parse(text: str) -> Netlist:
    return VerilogParser(text).parse()


def netlist_state(netlist: Netlist):
    """Everything a read netlist holds, in order, for an equality test:
    per module its ports, instances with pins in order and attributes,
    nets with connections in connect order and constants, assigns,
    attributes and ``_uid``."""
    out = []
    for name, module in netlist.modules.items():
        out.append((
            name,
            [
                (p.name, p.direction, p.msb, p.lsb)
                for p in module.ports.values()
            ],
            [
                (i.name, i.cell, list(i.pins.items()), i.attributes)
                for i in module.instances.values()
            ],
            [
                (
                    n.name,
                    list(n.connections),
                    n.is_constant,
                    n.constant_value,
                )
                for n in module.nets.values()
            ],
            list(module.assigns),
            module.attributes,
            module._uid,
        ))
    return out, netlist.top.name if netlist.modules else None
