"""Measurement utilities: §7 timing protocol, eq. 5 metrics, and the
per-figure parameter sweeps used by the benchmark harness."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "AllocationReport": "metrics",
    "count_allocations": "metrics",
    "efficiency": "metrics",
    "format_series": "metrics",
    "format_table": "metrics",
    "speedup": "metrics",
    "DEFAULT_2D_DECOMPS": "sweeps",
    "DEFAULT_2D_SIDES": "sweeps",
    "DEFAULT_3D_DECOMPS": "sweeps",
    "DEFAULT_3D_SIDES": "sweeps",
    "SweepPoint": "sweeps",
    "model_fig12": "sweeps",
    "model_fig13": "sweeps",
    "sweep_2d_grain": "sweeps",
    "sweep_3d_grain": "sweeps",
    "sweep_processors": "sweeps",
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
    "SweepPoint",
    "sweep_2d_grain",
    "sweep_3d_grain",
    "sweep_processors",
    "model_fig12",
    "model_fig13",
    "DEFAULT_2D_DECOMPS",
    "DEFAULT_3D_DECOMPS",
    "DEFAULT_2D_SIDES",
    "DEFAULT_3D_SIDES",
]
