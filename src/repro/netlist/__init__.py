"""Gate-level netlist model, Verilog/BLIF I/O and cleanup rewrites."""

from .core import (
    CellInfoProvider,
    Instance,
    Module,
    Net,
    Netlist,
    NetlistError,
    PinRef,
    Port,
    PortDirection,
    bus_base,
    bus_index,
    driver_of,
    sinks_of,
)
from .verilog import (
    VerilogNameError,
    VerilogParseError,
    parse_verilog,
    read_verilog,
    save_verilog,
    write_verilog,
)
from .blif import save_blif, write_blif
from .cleanup import clean_logic, resolve_assigns, simplify_names
from .index import ConnectivityIndex

__all__ = [
    "CellInfoProvider",
    "ConnectivityIndex",
    "Instance",
    "Module",
    "Net",
    "Netlist",
    "NetlistError",
    "PinRef",
    "Port",
    "PortDirection",
    "VerilogNameError",
    "VerilogParseError",
    "bus_base",
    "bus_index",
    "clean_logic",
    "driver_of",
    "parse_verilog",
    "read_verilog",
    "resolve_assigns",
    "save_blif",
    "save_verilog",
    "simplify_names",
    "sinks_of",
    "write_blif",
    "write_verilog",
]
