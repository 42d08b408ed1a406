"""Gate-level structural Verilog reader and writer.

The desynchronization tool operates on post-synthesis netlists, so the
reader takes the structural subset of Verilog.  After ``//`` and
``/* */`` comments are stripped, a file reads as::

    file      := { module | block | directive | any other token }
    module    := "module" NAME [ "(" [ port { "," port } ] ")" ] ";"
                 { statement } "endmodule"
    port      := NAME | DIR [ RANGE ] NAME                  (ANSI)
    statement := DIR [ RANGE ] DECL { "," DECL } ";"
               | ( "wire" | "tri" ) [ RANGE ] DECL { "," DECL } ";"
               | ( "supply0" | "supply1" ) DECL { "," DECL } ";"
               | "assign" DECL "=" ( CONST | DECL ) ";"
               | NAME [ "#(" ... ")" ] NAME "(" [ conn { "," conn } ] ")" ";"
               | block | directive
    conn      := "." NAME "(" [ CONST | DECL ] ")" | CONST | DECL
    block     := "specify" ... "endspecify" | "primitive" ... "endprimitive"
    directive := "`" ... end of line                  (`timescale, `define)
    DIR       := "input" | "output" | "inout"
    RANGE     := "[" INT ":" INT "]"
    DECL      := NAME [ "[" INT "]" ]
    CONST     := INT "'" ( "b" | "B" ) { "0" | "1" | "x" | "z" | "_" }

- ``NAME`` is a simple identifier or an escaped one (``\\foo.bar`` up
  to the next blank), which may hold any other character, ``;``, ``(``,
  ``)`` and ``,`` included.
- Vector ports and wires become scalar nets ``name[i]``, MSB first.
- A named connection binds pin ``NAME``; ``.QN()`` leaves it unbound.
  A positional one binds ``__pos{n}__`` and marks the instance
  ``attributes["positional"]``.
- A constant binds the shared tie net ``__const0__`` or ``__const1__``
  (its least significant bit).  So does every reference to a
  ``supply0``/``supply1`` net after its declaration; the pins bound to
  it before are moved onto the tie net there.
- Parameter overrides (``#(...)``, up to five levels of parentheses),
  ``specify``/``primitive`` bodies and compiler directives are skipped.
- Behavioural constructs (``always``, ``initial``) and concatenations
  are refused with a :class:`VerilogParseError`, as is any character no
  token starts with: the paper's ``drdesync`` reads gate-level input
  only.

The reader matches one statement at a time with a regular expression
and collects the module as the flat state of
:data:`~repro.netlist.core.MODULE_STATE_FORMAT`: its ports, an instance
table, and each net's ``(instance index, pin)`` list in connect order.
It then builds the module with
:func:`~repro.netlist.core._module_from_state`, the constructor that
unpickling uses, so a read module and an unpickled one are built the
same way and a freshly read module starts with an empty dirty log.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .core import (
    MODULE_STATE_FORMAT,
    Module,
    Netlist,
    NetlistError,
    PortDirection,
    _module_from_state,
)


class VerilogParseError(Exception):
    """Raised when the input is not acceptable gate-level Verilog."""


class _Lazy:
    """A regular expression compiled on first use.  The reader's take
    several milliseconds to compile, which a process that reads and
    writes no Verilog, such as a re-run on a filled cache, should not
    pay on import."""

    def __init__(self, pattern: str, flags: int = 0):
        self.pattern = pattern
        self.flags = flags

    def __getattr__(self, name: str):
        method = getattr(re.compile(self.pattern, self.flags), name)
        setattr(self, name, method)  # later lookups skip this hook
        return method


_COMMENT_RE = _Lazy(r"//[^\n]*|/\*.*?\*/", re.DOTALL)

#: one token, or one character no token starts with (rejected by
#: :func:`_is_token`); the reader's unit between modules and in errors
_TOKEN_RE = _Lazy(
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


# -- statement grammar ------------------------------------------------
# Each piece matches a token one way only: a name or number that could
# be read shorter is followed by a lookahead wherever the shorter
# reading could go on to match, so a statement that fails to match
# fails in linear time.  Simple names come before escaped ones and
# references before numbers: the common case is tried first.
_END = r"(?![A-Za-z0-9_$])"
_ESCAPED = r"\\[^ \t\r\n]+(?![^ \t\r\n])"
#: a name that a "(", "[", ",", ";", "=" or ")" follows
_NAME = r"(?:[A-Za-z_$][A-Za-z0-9_$]*|" + _ESCAPED + ")"
#: a name that another name may follow
_WORD = r"(?:[A-Za-z_$][A-Za-z0-9_$]*" + _END + "|" + _ESCAPED + ")"
_NUMBER = (
    r"(?:\d+(?:'[bBdDhH][0-9a-fA-FxXzZ_]+(?![0-9a-fA-FxXzZ_])|(?![\d'])))"
)
_DECL = _NAME + r"(?:\s*\[\s*\d+\s*\])?"
_DECLS = _DECL + r"(?:\s*,\s*" + _DECL + ")*"
_REFERENCE = "(?:" + _DECL + "|" + _NUMBER + ")"
_CONN = (
    r"(?:\.\s*" + _NAME + r"\s*\(\s*(?:" + _REFERENCE + r"\s*)?\)|"
    + _REFERENCE + ")"
)
_CONNS = r"\s*(?:" + _CONN + r"\s*(?:,\s*" + _CONN + r"\s*)*)?"
#: range bounds are read loosely and checked by :func:`_range`, so a
#: bad one is named in the error
_BOUND = r"[^\s:\[\];]+"
_RANGE = r"\[\s*(" + _BOUND + r")\s*:\s*(" + _BOUND + r")\s*\]"
_PARAM_TOKEN = r"(?:\s|" + _WORD + "|" + _NUMBER + r"|[,.:=#*\[\]{}\-])"
_PARAMS = _PARAM_TOKEN + "*"
for _ in range(4):
    _PARAMS = r"(?:" + _PARAM_TOKEN + r"|\(" + _PARAMS + r"\))*"
_DIRECTION = r"(?:input|output|inout)" + _END
_PORT = (
    r"(?:" + _DIRECTION + r"\s*(?:\[\s*" + _BOUND + r"\s*:\s*" + _BOUND
    + r"\s*\]\s*)?)?(?!" + _DIRECTION + ")" + _NAME
)
#: words that open a statement other than an instance
_KEYWORD = (
    r"(?:input|output|inout|wire|tri|supply0|supply1|assign|always|initial"
    r"|endmodule|specify|primitive)" + _END
)

#: ``NAME [ "(" ports ")" ] ";"`` after ``module``
_HEADER_RE = _Lazy(
    r"\s*(" + _NAME + r")\s*(?:\((\s*(?:" + _PORT + r"(?:\s*,\s*" + _PORT
    + r")*)?\s*)\)\s*)?;"
)
#: one header port of a validated list: (direction, msb, lsb, name)
_PORT_RE = _Lazy(
    r"(?:(input|output|inout)" + _END + r"\s*(?:" + _RANGE + r"\s*)?)?("
    + _NAME + ")"
)

#: one statement of a module body; ``lastindex`` tells which kind
_STATEMENT_RE = _Lazy(
    r"\s*(?:(?!" + _KEYWORD + ")(" + _WORD + r")\s*(?:\#\s*\(" + _PARAMS
    + r"\)\s*)?(" + _NAME + r")\s*\((" + _CONNS + r")\)\s*;"
    + r"|(input|output|inout|wire|tri)" + _END + r"\s*(?:" + _RANGE
    + r"\s*)?(" + _DECL + r")((?:\s*,\s*" + _DECL + r")*)\s*;"
    + r"|assign" + _END + r"\s*(" + _DECL + r")\s*=\s*(" + _REFERENCE
    + r")\s*;"
    + r"|supply([01])" + _END + r"\s*(" + _DECLS + r")\s*;"
    + r"|(endmodule)" + _END
    + r"|(specify|primitive)" + _END
    + r"|(`)[^\n]*)"
)
# the last group of each kind; groups: instance 1 cell, 2 name, 3
# connections; declaration 4 keyword, 5-6 range, 7 first name, 8 the
# rest; assign 9-10; supply 11 value, 12 names; block 14 keyword
_INSTANCE, _DECLARATION, _ASSIGN, _SUPPLY = 3, 8, 10, 12
_ENDMODULE, _BLOCK, _DIRECTIVE = 13, 14, 15

_DECL_RE = _Lazy(_DECL)
_REFERENCE_RE = _Lazy(r"(" + _NAME + r")(?:\s*\[\s*(\d+)\s*\])?")
#: a reference that names its net as written
_PLAIN_RE = _Lazy(r"[A-Za-z_$][A-Za-z0-9_$]*(?:\[\d+\])?")
#: one connection of a validated list: (pin, net) or ("", positional net)
_CONNECTION_RE = _Lazy(
    r"\.\s*(" + _NAME + r")\s*\(\s*(" + _REFERENCE + r")?|(" + _REFERENCE
    + ")"
)
_CONST_RE = _Lazy(r"\d+'[bB]([01xXzZ_]+)")
_BLOCK_END_RE = {
    block: _Lazy(r"(?<![A-Za-z0-9_$\\])end" + block + _END)
    for block in ("specify", "primitive")
}

_DIRECTIONS = {
    "input": PortDirection.INPUT,
    "output": PortDirection.OUTPUT,
    "inout": PortDirection.INOUT,
}


def _unescape(name: str) -> str:
    """An identifier's name: an escaped one loses its backslash."""
    return name[1:] if name[0] == "\\" else name


def _canonical(text: str) -> str:
    """The net name a ``DECL`` text stands for, e.g. ``\\a.b `` ->
    ``a.b`` and ``w [ 3 ]`` -> ``w[3]``."""
    name, index = _REFERENCE_RE.fullmatch(text).groups()
    name = _unescape(name)
    return name if index is None else f"{name}[{index}]"


def _tie_value(text: str) -> int:
    """The value a constant ties its pin to: its least significant
    bit, with ``x`` and ``z`` read as 0."""
    match = _CONST_RE.fullmatch(text)
    digits = match.group(1).replace("_", "") if match else ""
    if not digits:
        raise VerilogParseError(
            f"constant {text!r} is not a binary tie-off such as 1'b0"
        )
    return 1 if digits[-1] == "1" else 0


def _range(msb: str, lsb: str, module: str) -> Tuple[Optional[int], ...]:
    if not msb:
        return None, None
    for bound in (msb, lsb):
        if not bound.isdecimal():
            raise VerilogParseError(
                f"range [{msb}:{lsb}] in module {module!r}: "
                f"bound {bound!r} is not a number"
            )
    return int(msb), int(lsb)


def _bits(name: str, msb: Optional[int], lsb: Optional[int]) -> List[str]:
    """The scalar nets of ``name`` declared over ``[msb:lsb]``."""
    if msb is None:
        return [name]
    step = -1 if msb >= lsb else 1
    return [f"{name}[{i}]" for i in range(msb, lsb + step, step)]


class _ModuleState:
    """One module as it is read, kept as the parts of its flat state."""

    def __init__(self, name: str):
        self.name = name
        #: port name -> [name, direction, msb, lsb]
        self.ports: Dict[str, list] = {}
        self.port_order: List[str] = []
        #: instance names and (cell, {pin: net}, attributes), in order
        self.names: List[str] = []
        self.instances: List[tuple] = []
        #: net -> [(instance index, or -1 for a port bit, pin)], nets in
        #: first-reference order and pins in connect order
        self.nets: Dict[str, List[Tuple[int, str]]] = {}
        #: tie net -> value
        self.constants: Dict[str, int] = {}
        #: supply net -> the tie net its references bind to
        self.aliases: Dict[str, str] = {}
        self.assigns: List[Tuple[str, str]] = []
        #: reference text -> the net it binds (a cache of :meth:`net`)
        self.resolved: Dict[str, str] = {}

    def net(self, text: str) -> str:
        """The net a ``CONST`` or ``DECL`` text binds, remembered."""
        if _PLAIN_RE.fullmatch(text):
            net = self.aliases.get(text, text)
        elif text[0].isdecimal():
            value = _tie_value(text)
            net = f"__const{value}__"
            self.constants[net] = value
        else:
            net = _canonical(text)
            net = self.aliases.get(net, net)
        self.resolved[text] = net
        return net

    def ensure(self, net: str) -> None:
        if net not in self.nets:
            self.nets[net] = []

    def add_port(self, name, direction, msb, lsb) -> None:
        if name in self.ports:
            raise NetlistError(
                f"duplicate port {name!r} in module {self.name!r}"
            )
        self.ports[name] = [name, direction, msb, lsb]
        self._attach_port(name)

    def _attach_port(self, name: str) -> None:
        _, _, msb, lsb = self.ports[name]
        for bit in _bits(name, msb, lsb):
            pins = self.nets.setdefault(bit, [])
            if (-1, bit) not in pins:
                pins.append((-1, bit))

    def declare(self, keyword, msb, lsb, first: str, rest: str) -> None:
        """A direction, ``wire`` or ``tri`` declaration of ``first`` and
        the names in ``rest``."""
        texts = (first, *_DECL_RE.findall(rest)) if rest else (first,)
        msb, lsb = _range(msb, lsb, self.name)
        direction = _DIRECTIONS.get(keyword)
        for text in texts:
            if direction is None:
                if msb is None:
                    self.ensure(self.resolved.get(text) or self.net(text))
                    continue
                for bit in _bits(_canonical(text), msb, lsb):
                    self.ensure(self.aliases.get(bit, bit))
                continue
            name = _canonical(text)
            port = self.ports.get(name)
            if port is None:
                self.add_port(name, direction, msb, lsb)
            else:  # re-declared: a new direction and range, no new pins
                port[1:] = direction, msb, lsb
                self._attach_port(name)

    def supply(self, value: int, names: str) -> None:
        """Tie each declared net to ``value``: its pins move onto the
        tie net, and later references bind to the tie net."""
        tie = f"__const{value}__"
        for text in _DECL_RE.findall(names):
            name = _canonical(text)
            self.constants[tie] = value
            self.ensure(tie)
            self.ensure(name)
            if name == tie:
                continue
            moved = self.nets.pop(name)
            for owner, pin in moved:
                if owner < 0:
                    raise NetlistError(
                        f"cannot merge port net {name!r} into {tie!r}"
                    )
                self.instances[owner][1][pin] = tie
            self.nets[tie].extend(moved)
            self.constants.pop(name, None)
            self.aliases[name] = tie
            self.assigns = [
                (tie if lhs == name else lhs, tie if rhs == name else rhs)
                for lhs, rhs in self.assigns
            ]
            self.resolved.clear()

    def assign(self, lhs: str, rhs: str) -> None:
        lhs_net = self.net(lhs)
        rhs_net = self.net(rhs)
        if rhs[0].isdecimal():  # the tie net is referenced first
            self.ensure(rhs_net)
        self.ensure(lhs_net)
        self.ensure(rhs_net)
        self.assigns.append((lhs_net, rhs_net))

    def disconnect(self, index: int, pin: str) -> None:
        """Unbind a pin bound twice in one instance (the later wins)."""
        pins = self.instances[index][1]
        self.nets[pins.pop(pin)].remove((index, pin))

    def build(self) -> Module:
        if len(set(self.names)) != len(self.names):
            seen: set = set()
            for name in self.names:
                if name in seen:
                    raise NetlistError(
                        f"duplicate instance {name!r} in {self.name!r}"
                    )
                seen.add(name)
        constants = self.constants
        return _module_from_state(
            MODULE_STATE_FORMAT,
            self.name,
            [tuple(port) for port in self.ports.values()],
            self.names,
            self.instances,
            [
                (net, pins, constants.get(net))
                for net, pins in self.nets.items()
            ],
            self.assigns,
            {"port_order": self.port_order},
            0,
        )


def _read_module(text: str, pos: int) -> Tuple[Module, int]:
    """Read the module whose ``module`` keyword ends at ``pos``; returns
    it and the position after its ``endmodule``."""
    header = _HEADER_RE.match(text, pos)
    if header is None:
        raise _statement_error(text, pos, None)
    name, ports = header.groups()
    state = _ModuleState(_unescape(name))
    for direction, msb, lsb, port in _PORT_RE.findall(ports or ""):
        port = _unescape(port)
        if direction:
            state.add_port(
                port, _DIRECTIONS[direction], *_range(msb, lsb, state.name)
            )
        state.port_order.append(port)
    pos = header.end()

    statement = _STATEMENT_RE.match
    connections = _CONNECTION_RE.findall
    resolved = state.resolved
    net_of = state.net
    nets = state.nets
    names = state.names
    instances = state.instances
    while True:
        match = statement(text, pos)
        if match is None:
            raise _statement_error(text, pos, state.name)
        pos = match.end()
        kind = match.lastindex
        if kind == _INSTANCE:
            cell, inst, conns = match.group(1, 2, 3)
            index = len(names)
            names.append(_unescape(inst))
            pins: Dict[str, str] = {}
            attributes: Dict[str, object] = {}
            instances.append((_unescape(cell), pins, attributes))
            position = 0
            for pin, named, positional in connections(conns):
                if pin:
                    if not named:
                        continue  # .QN(): left unbound
                    net = resolved.get(named) or net_of(named)
                    if pin[0] == "\\":
                        pin = pin[1:]
                    if pin in pins:
                        state.disconnect(index, pin)
                else:
                    net = resolved.get(positional) or net_of(positional)
                    pin = f"__pos{position}__"
                    position += 1
                    attributes["positional"] = True
                pins[pin] = net
                bound = nets.get(net)
                if bound is None:
                    nets[net] = [(index, pin)]
                else:
                    bound.append((index, pin))
        elif kind == _DECLARATION:
            state.declare(*match.group(4, 5, 6, 7, 8))
        elif kind == _ENDMODULE:
            return state.build(), pos
        elif kind == _ASSIGN:
            state.assign(*match.group(9, 10))
        elif kind == _SUPPLY:
            state.supply(int(match.group(11)), match.group(12))
        elif kind == _BLOCK:
            pos = _skip_block(text, match.group(14), pos)
        # a directive (kind == _DIRECTIVE) runs to the end of its line


def _skip_block(text: str, block: str, pos: int) -> int:
    """The position after the ``end<block>`` closing a block at ``pos``."""
    end = _BLOCK_END_RE[block].search(text, pos)
    if end is None:
        raise VerilogParseError("unexpected end of input")
    return end.end()


def _statement_error(
    text: str, pos: int, module: Optional[str]
) -> VerilogParseError:
    """The error for the statement at ``pos`` that no rule reads."""
    tokens = []
    for match in _TOKEN_RE.finditer(text, pos):
        tokens.append(match.group())
        if tokens[-1] == ";":
            break
    if module is None:
        what = "module header"
    elif tokens and tokens[0] in ("always", "initial"):
        return VerilogParseError(
            f"behavioural construct {tokens[0]!r} in module {module!r}: "
            "only gate-level netlists are supported"
        )
    elif "{" in tokens:
        return VerilogParseError(
            "concatenations in port connections are not supported"
        )
    else:
        what = f"statement in module {module!r}"
    if not tokens or tokens[-1] != ";":
        return VerilogParseError("unexpected end of input")
    return VerilogParseError(f"cannot read {what}: {' '.join(tokens)!r}")


def _next_token(text: str, pos: int) -> Tuple[Optional[str], int]:
    """The next file-level token at or after ``pos`` and the position
    after it, or ``(None, len(text))`` at the end.  Directives and
    ``specify``/``primitive`` blocks are skipped; a character no token
    starts with raises."""
    while True:
        match = _TOKEN_RE.search(text, pos)
        if match is None:
            return None, len(text)
        token = match.group()
        pos = match.end()
        if token == "`":
            newline = text.find("\n", pos)
            pos = len(text) if newline < 0 else newline
        elif token in _BLOCK_END_RE:
            pos = _skip_block(text, token, pos)
        elif not _is_token(token):
            raise VerilogParseError(
                f"unexpected character {token!r} at offset {match.start()}"
            )
        else:
            return token, pos


def parse_verilog(text: str) -> Netlist:
    """Parse gate-level Verilog source text into a :class:`Netlist`."""
    text = _COMMENT_RE.sub(" ", text)
    netlist = Netlist()
    try:
        token, pos = _next_token(text, 0)
        while token is not None:  # tokens between modules are skipped
            if token == "module":
                module, pos = _read_module(text, pos)
                netlist.add_module(module)
            token, pos = _next_token(text, pos)
    except (VerilogParseError, NetlistError):
        # a character no token starts with is reported first, wherever
        # it is, as when the whole file was tokenized up front
        token, pos = _next_token(text, 0)
        while token is not None:
            token, pos = _next_token(text, pos)
        raise
    return netlist


def read_verilog(path: str) -> Netlist:
    with open(path) as handle:
        return parse_verilog(handle.read())


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------

_SIMPLE_ID = r"[A-Za-z_][A-Za-z0-9_$]*(?:\[\d+\])?"
_SIMPLE_ID_RE = _Lazy("^" + _SIMPLE_ID + "$")
_SIMPLE_IDS_RE = _Lazy(_SIMPLE_ID + r"(?:\0" + _SIMPLE_ID + ")*")


class _Identifiers(dict):
    """Name -> its Verilog spelling, escaped unless it is a simple
    (optionally bit-selected) identifier; each name is looked at once.

    ``groups`` of names are checked in one match each: when all of a
    group's names are simple, as after name cleaning, they go in as
    they are."""

    def __init__(self, *groups):
        super().__init__()
        for names in groups:
            names = list(names)
            if _SIMPLE_IDS_RE.fullmatch("\0".join(names)):
                self.update(zip(names, names))

    def __missing__(self, name: str) -> str:
        spelled = name if _SIMPLE_ID_RE.match(name) else f"\\{name} "
        self[name] = spelled
        return spelled


def write_module(module: Module) -> str:
    """Render one module as structural Verilog text."""
    ids = _Identifiers(module.nets, module.instances)
    lines: List[str] = []
    port_names = list(module.ports)
    lines.append(
        f"module {ids[module.name]} ("
        + ", ".join([ids[p] for p in port_names])
        + ");"
    )
    for port in module.ports.values():
        rng = f" [{port.msb}:{port.lsb}]" if port.is_vector else ""
        lines.append(f"  {port.direction.value}{rng} {ids[port.name]};")

    port_bits = set(module.port_bits())
    for net in module.nets.values():
        if net.name in port_bits or net.is_constant:
            continue
        lines.append(f"  wire {ids[net.name]};")
    for value in (0, 1):
        const_name = f"__const{value}__"
        if const_name in module.nets and module.nets[const_name].connections:
            lines.append(f"  wire {const_name};")
            lines.append(f"  assign {const_name} = 1'b{value};")

    for lhs, rhs in module.assigns:
        lines.append(f"  assign {ids[lhs]} = {ids[rhs]};")

    for inst in module.instances.values():
        pins = inst.pins
        conns = ", ".join(
            [f".{ids[pin]}({ids[pins[pin]]})" for pin in sorted(pins)]
        )
        lines.append(f"  {ids[inst.cell]} {ids[inst.name]} ({conns});")
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
