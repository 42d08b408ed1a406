"""Asynchronous performance analysis (effective period, cycle ratios)."""

from .cycle import (
    PeriodReport,
    control_overhead_delay,
    effective_period_model,
    latch_overhead_delay,
    max_cycle_ratio,
    measure_effective_period,
    simple_cycles,
)

__all__ = [
    "PeriodReport",
    "control_overhead_delay",
    "effective_period_model",
    "latch_overhead_delay",
    "max_cycle_ratio",
    "measure_effective_period",
    "simple_cycles",
]
