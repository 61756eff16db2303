"""Measurement utilities: the §7 timing protocol, eq. 5 metrics and
the table formatting the benchmark harness prints."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "AllocationReport": "metrics",
    "count_allocations": "metrics",
    "efficiency": "metrics",
    "format_series": "metrics",
    "format_table": "metrics",
    "speedup": "metrics",
    "StepTiming": "timing",
    "measure_node_speed": "timing",
    "time_stepper": "timing",
})

__all__ = [
    "speedup",
    "efficiency",
    "AllocationReport",
    "count_allocations",
    "format_table",
    "format_series",
    "StepTiming",
    "time_stepper",
    "measure_node_speed",
]
