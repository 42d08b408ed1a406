"""Import-time checks: refuse a netlist whose drivers or cells are wrong.

The engine's ``import`` stage runs :func:`check_drivers` before any
pass reads the design, so a net driven twice, an output pin bound to a
constant, or an instance of a cell the library does not define, fails
at the door with an error that names it, rather than later inside
grouping, timing or simulation.
"""

from __future__ import annotations

from typing import Dict, List

from .core import (
    CellInfoProvider,
    Module,
    NetlistError,
    PinRef,
    PortDirection,
    _port_of_bit,
)


#: the tie nets :meth:`Module.constant_net` creates
_TIE_NETS = ("__const0__", "__const1__")


class MultiDrivenNetError(NetlistError):
    """A net has more than one driver (a tie net's constant counts)."""


class UnknownCellError(NetlistError):
    """An instance is of a cell, or binds a pin, the library lacks."""


def check_drivers(module: Module, cell_info: CellInfoProvider) -> None:
    """Raise unless every instance's cell and pins are known and every
    net has at most one driver.

    Pins are classified as :class:`~repro.netlist.index.ConnectivityIndex`
    classifies them: a cell's output pins drive their nets, as do the
    bits of input ports and the constant of a tie net.
    """
    output = PortDirection.OUTPUT
    #: cell -> {pin: direction}, filled as pins are first seen
    directions: Dict[str, Dict[str, PortDirection]] = {}
    nets = module.nets
    driven = {n for n in _TIE_NETS if n in nets and nets[n].is_constant}
    multi: List[str] = []
    for inst in module.instances.values():
        known = directions.get(inst.cell)
        if known is None:
            known = directions[inst.cell] = {}
        for pin, net in inst.pins.items():
            direction = known.get(pin)
            if direction is None:
                try:
                    direction = cell_info.pin_direction(inst.cell, pin)
                except LookupError as error:
                    raise UnknownCellError(
                        f"instance {inst.name!r} (cell {inst.cell!r}) "
                        f"in module {module.name!r}: {error}"
                    ) from error
                known[pin] = direction
            if direction is output:
                if net in driven:
                    multi.append(net)
                driven.add(net)
    for bit in module.port_bits(PortDirection.INPUT):
        port = module.ports.get(_port_of_bit(bit))
        if port is not None and port.direction == PortDirection.INPUT:
            if bit in driven:
                multi.append(bit)
            driven.add(bit)
    if multi:
        net = multi[0]
        record = module.nets[net]
        drivers = [f"1'b{record.constant_value}"] if record.is_constant else []
        drivers += [
            str(ref) for ref in record.connections
            if _drives(module, ref, directions)
        ]
        others = len(set(multi)) - 1
        raise MultiDrivenNetError(
            f"net {net!r} in module {module.name!r} has "
            f"{len(drivers)} drivers: {', '.join(drivers)}"
            + (f" ({others} more multi-driven nets)" if others else "")
        )


def _drives(module: Module, ref: PinRef, directions) -> bool:
    if ref.instance is None:
        port = module.ports.get(_port_of_bit(ref.pin))
        return port is not None and port.direction == PortDirection.INPUT
    cell = module.instances[ref.instance].cell
    return directions[cell][ref.pin] is PortDirection.OUTPUT
