"""The desynchronization methodology -- the paper's core contribution."""

from .cmuller import CMullerError, build_cmuller, cmuller_truth_table
from .controllers import (
    C_RESET_CELL,
    C_SET_CELL,
    CONTROL_OVERHEAD_GATES,
    ControllerInstance,
    controller_stg,
    ensure_controller_cell,
    ensure_controller_cells,
    place_controller,
)
from .ddg import (
    ENV,
    DiGraph,
    build_ddg,
    fanin_fanout,
    predecessors_of,
    successors_of,
)
from .delays import (
    DelayElement,
    DelayElementError,
    DelayLadder,
    build_delay_element,
    characterize_ladder,
    choose_length,
    mux_selection_delay,
)
from .ffsub import (
    SubstitutionError,
    SubstitutionResult,
    master_enable_net,
    slave_enable_net,
    substitute_flip_flops,
)
from .network import (
    ControlNetwork,
    NetworkError,
    insert_control_network,
    region_delays,
)
from .regions import (
    GroupingError,
    Region,
    RegionMap,
    group_regions,
    manual_regions,
    single_region,
    validate_independence,
)
from .constraints import disables_for_sta, generate_constraints
from .eco import EcoChange, EcoReport, eco_calibrate, measure_element_delay
from .domains import (
    ClockDomains,
    MultipleClockError,
    analyze_clock_domains,
    select_domain,
)
from .tool import DesyncOptions, DesyncResult, Drdesync, desynchronize

__all__ = [
    "CMullerError",
    "CONTROL_OVERHEAD_GATES",
    "C_RESET_CELL",
    "C_SET_CELL",
    "ControlNetwork",
    "ControllerInstance",
    "DelayElement",
    "DelayElementError",
    "DelayLadder",
    "DesyncOptions",
    "DesyncResult",
    "DiGraph",
    "Drdesync",
    "ENV",
    "GroupingError",
    "NetworkError",
    "Region",
    "RegionMap",
    "SubstitutionError",
    "SubstitutionResult",
    "build_cmuller",
    "build_ddg",
    "build_delay_element",
    "characterize_ladder",
    "choose_length",
    "cmuller_truth_table",
    "controller_stg",
    "desynchronize",
    "ClockDomains",
    "MultipleClockError",
    "analyze_clock_domains",
    "select_domain",
    "EcoChange",
    "EcoReport",
    "eco_calibrate",
    "measure_element_delay",
    "disables_for_sta",
    "ensure_controller_cell",
    "ensure_controller_cells",
    "fanin_fanout",
    "generate_constraints",
    "group_regions",
    "insert_control_network",
    "manual_regions",
    "master_enable_net",
    "mux_selection_delay",
    "place_controller",
    "predecessors_of",
    "region_delays",
    "single_region",
    "slave_enable_net",
    "substitute_flip_flops",
    "successors_of",
    "validate_independence",
]
