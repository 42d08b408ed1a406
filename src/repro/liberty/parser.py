"""Liberty (.lib) subset parser.

A generic group/attribute tokenizer builds a syntax tree which is then
lowered to the :class:`~repro.liberty.model.Library` object model.  The
subset covers everything the gatefile generation needs: cells, pins,
directions, functions, capacitances, ff/latch groups, timing arcs and
operating conditions.  Unrecognised attributes and groups are ignored,
so real-world .lib fragments parse without errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..netlist.core import PortDirection
from .model import (
    Library,
    LibraryCell,
    LibraryPin,
    OperatingCorner,
    SequentialInfo,
    TimingArc,
)
from .model import CellKind


class LibertyParseError(Exception):
    """Raised on malformed .lib input."""


@dataclass
class Group:
    """A liberty group: ``name (args) { attributes; subgroups }``."""

    name: str
    args: List[str] = field(default_factory=list)
    attributes: Dict[str, str] = field(default_factory=dict)
    subgroups: List["Group"] = field(default_factory=list)

    def find_all(self, name: str) -> List["Group"]:
        return [g for g in self.subgroups if g.name == name]

    def find(self, name: str) -> Optional["Group"]:
        groups = self.find_all(name)
        if groups:
            return groups[0]
        return None


_LIB_TOKEN_RE = re.compile(
    r"""
    "(?P<string>[^"]*)"
  | (?P<word>[A-Za-z0-9_.+\-\[\]!*^']+)
  | (?P<sym>[(){}:;,])
    """,
    re.VERBOSE,
)

_LIB_COMMENT_RE = re.compile(r"/\*.*?\*/|//[^\n]*", re.DOTALL)


def _tokenize(text: str) -> List[Tuple[str, str]]:
    text = _LIB_COMMENT_RE.sub(" ", text)
    tokens: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace() or text[pos] == "\\":
            pos += 1
            continue
        match = _LIB_TOKEN_RE.match(text, pos)
        if match is None:
            raise LibertyParseError(
                f"unexpected character {text[pos]!r} at offset {pos}"
            )
        if match.lastgroup == "string":
            tokens.append(("string", match.group("string")))
        elif match.lastgroup == "word":
            tokens.append(("word", match.group("word")))
        else:
            tokens.append(("sym", match.group("sym")))
        pos = match.end()
    return tokens


class _GroupParser:
    def __init__(self, tokens: List[Tuple[str, str]]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> Optional[Tuple[str, str]]:
        if self._pos >= len(self._tokens):
            return None
        return self._tokens[self._pos]

    def _next(self) -> Tuple[str, str]:
        tok = self._peek()
        if tok is None:
            raise LibertyParseError("unexpected end of file")
        self._pos += 1
        return tok

    def _expect_sym(self, sym: str) -> None:
        kind, value = self._next()
        if kind != "sym" or value != sym:
            raise LibertyParseError(f"expected {sym!r}, got {value!r}")

    def parse_group(self) -> Group:
        kind, name = self._next()
        if kind != "word":
            raise LibertyParseError(f"expected group name, got {name!r}")
        self._expect_sym("(")
        args: List[str] = []
        while True:
            tok_kind, value = self._next()
            if tok_kind == "sym" and value == ")":
                break
            if tok_kind == "sym" and value == ",":
                continue
            args.append(value)
        self._expect_sym("{")
        group = Group(name, args)
        while True:
            tok = self._peek()
            if tok is None:
                raise LibertyParseError(f"unterminated group {name!r}")
            if tok == ("sym", "}"):
                self._next()
                break
            self._parse_statement(group)
        return group

    def _parse_statement(self, group: Group) -> None:
        kind, name = self._next()
        if kind != "word":
            raise LibertyParseError(f"expected statement, got {name!r}")
        tok = self._peek()
        if tok == ("sym", ":"):
            self._next()
            value_parts: List[str] = []
            while True:
                tok_kind, value = self._next()
                if tok_kind == "sym" and value == ";":
                    break
                if tok_kind == "sym" and value == "}":
                    # tolerate a missing semicolon before }
                    self._pos -= 1
                    break
                value_parts.append(value)
            group.attributes[name] = " ".join(value_parts)
        elif tok == ("sym", "("):
            self._pos -= 1
            group.subgroups.append(self.parse_group())
        else:
            raise LibertyParseError(
                f"expected ':' or '(' after {name!r}, got {tok!r}"
            )


def parse_groups(text: str) -> Group:
    """Parse .lib text into the raw group tree (root = library group)."""
    parser = _GroupParser(_tokenize(text))
    return parser.parse_group()


# ----------------------------------------------------------------------
# lowering to the object model
# ----------------------------------------------------------------------

def _where(group: Group) -> str:
    return f"{group.name} ({', '.join(group.args)})"


def _float(group: Group, name: str, default: float = 0.0) -> float:
    value = group.attributes.get(name)
    if value is None:
        return default
    try:
        return float(value)
    except ValueError:
        raise LibertyParseError(
            f"{_where(group)}: attribute {name!r} is not a number: {value!r}"
        ) from None


def _name(group: Group) -> str:
    """The first argument of a group that names something."""
    if not group.args:
        raise LibertyParseError(f"{group.name} group without a name")
    return group.args[0]


def _direction(group: Group) -> PortDirection:
    text = group.attributes.get("direction", "input")
    try:
        return PortDirection(text)
    except ValueError:
        raise LibertyParseError(
            f"{_where(group)}: attribute 'direction' is not input, output "
            f"or inout: {text!r}"
        ) from None


def _lower_arc(timing: Group, target_pin: str) -> Optional[TimingArc]:
    related = timing.attributes.get("related_pin")
    if related is None:
        return None
    return TimingArc(
        related_pin=related,
        pin=target_pin,
        timing_type=timing.attributes.get("timing_type", "combinational"),
        intrinsic_rise=_float(timing, "intrinsic_rise"),
        intrinsic_fall=_float(timing, "intrinsic_fall"),
        rise_resistance=_float(timing, "rise_resistance"),
        fall_resistance=_float(timing, "fall_resistance"),
    )


def _lower_cell(group: Group) -> LibraryCell:
    cell = LibraryCell(
        name=_name(group),
        area=_float(group, "area"),
        leakage=_float(group, "cell_leakage_power"),
        switch_energy=_float(group, "internal_energy"),
        dont_touch=group.attributes.get("dont_touch", "false") == "true",
    )
    for seq_name, seq_kind in (("ff", CellKind.FLIP_FLOP), ("latch", CellKind.LATCH)):
        seq_group = group.find(seq_name)
        if seq_group is None:
            continue
        data_attr = "next_state" if seq_name == "ff" else "data_in"
        clock_attr = "clocked_on" if seq_name == "ff" else "enable"
        cell.sequential = SequentialInfo(
            kind=seq_kind,
            state_pin=seq_group.args[0] if seq_group.args else "IQ",
            next_state=seq_group.attributes.get(data_attr),
            clocked_on=seq_group.attributes.get(clock_attr),
            clear=seq_group.attributes.get("clear"),
            preset=seq_group.attributes.get("preset"),
        )
    for pin_group in group.find_all("pin"):
        pin_name = _name(pin_group)
        direction = _direction(pin_group)
        pin = cell.pins.get(pin_name)
        if pin is None:
            pin = LibraryPin(pin_name, direction)
            cell.pins[pin_name] = pin
        else:
            pin.direction = direction
        pin.capacitance = _float(pin_group, "capacitance", pin.capacitance)
        if "function" in pin_group.attributes:
            pin.function = pin_group.attributes["function"]
        if "max_capacitance" in pin_group.attributes:
            pin.max_capacitance = _float(pin_group, "max_capacitance")
        if pin_group.attributes.get("clock") == "true":
            pin.is_clock = True
        for timing in pin_group.find_all("timing"):
            arc = _lower_arc(timing, pin_name)
            if arc is not None:
                cell.arcs.append(arc)
    # flag the enable/clock pin of sequential cells even when the .lib
    # omits the clock attribute
    if cell.sequential is not None and cell.sequential.clocked_on:
        clock_expr = cell.sequential.clocked_on.strip("!() ")
        if clock_expr in cell.pins:
            cell.pins[clock_expr].is_clock = True
    return cell


def lower_library(root: Group) -> Library:
    if root.name != "library":
        raise LibertyParseError(f"expected library group, got {root.name!r}")
    corners: Dict[str, OperatingCorner] = {}
    for cond in root.find_all("operating_conditions"):
        name = _name(cond)
        corners[name] = OperatingCorner(
            name=name,
            derate=_float(cond, "derate", 1.0),
            voltage=_float(cond, "voltage", 1.0),
            temperature=_float(cond, "temperature", 25.0),
        )
    library = Library(
        root.args[0] if root.args else "library",
        corners=corners or None,
        default_wire_cap=_float(root, "default_wire_cap", 0.002),
    )
    for cell_group in root.find_all("cell"):
        library.add_cell(_lower_cell(cell_group))
    return library


def parse_liberty(text: str) -> Library:
    """Parse .lib text straight to a :class:`Library`."""
    return lower_library(parse_groups(text))


def read_liberty(path: str) -> Library:
    with open(path) as handle:
        return parse_liberty(handle.read())
