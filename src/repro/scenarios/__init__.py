"""repro.scenarios — declarative scenario library and sweep engine.

A :class:`Scenario` packages one validated flow as *data*: a parameter
schema with defaults and ranges, a builder producing a
:class:`~repro.distrib.ProblemSpec` + run settings, and a ``score()``
contract comparing a finished run against analytic or literature
references.  The registry feeds ``repro scenarios`` and the
``repro sweep`` driver, which expands parameter grids into jobs and
fans them through the :mod:`repro.serve` layer (where identical points
hit the result cache) or a local executor.
"""

from .._lazy import lazy_exports
from . import library  # noqa: F401  (importing it registers the library)

__getattr__, __dir__ = lazy_exports(__name__, {
    "Case": "base",
    "Param": "base",
    "Scenario": "base",
    "Score": "base",
    "all_scenarios": "base",
    "diag_series": "base",
    "get": "base",
    "names": "base",
    "register": "base",
    "HOU_CAVITY_CENTERS": "library",
    "SweepPoint": "sweep",
    "expand_grid": "sweep",
    "parse_grid": "sweep",
    "run_case": "sweep",
    "run_sweep": "sweep",
    "write_report": "sweep",
})

__all__ = [
    "Case",
    "Param",
    "Scenario",
    "Score",
    "SweepPoint",
    "HOU_CAVITY_CENTERS",
    "all_scenarios",
    "diag_series",
    "expand_grid",
    "get",
    "names",
    "parse_grid",
    "register",
    "run_case",
    "run_sweep",
    "write_report",
]
