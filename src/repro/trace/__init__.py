"""Phase-level tracing of the compute/communicate cycle (paper §7).

The paper's entire evaluation is a decomposition of the time per
integration step into computation and communication — "the speed of a
workstation is the number of fluid nodes integrated per second" — yet a
runtime that can only be timed from the outside cannot say *where* a
step went.  This package threads a low-overhead span/counter tracer
through all four runtimes (serial, threaded, socket-distributed,
cluster-simulated):

* every compute phase, ghost exchange, collective, checkpoint write and
  migration pause becomes a **span** (name, start, duration, step);
* every channel send/recv increments per-peer **byte/message counters**;
* each rank streams a bounded ``trace-<rank>.jsonl``
  (:class:`Tracer`), which :func:`merge_traces` /
  :func:`write_chrome_trace` turn into one Chrome trace-event JSON that
  loads in ``chrome://tracing`` or Perfetto;
* :func:`summarize` reduces a set of rank traces to the §7
  T_comp/T_comm/efficiency table (:class:`TraceSummary`), printed by
  ``python -m repro.tools trace``.

The hot path is gated by :data:`NULL_TRACER`: a :class:`NullTracer`
whose ``begin``/``end``/``count`` are constant-returning no-ops, so the
instrumented runtimes stay allocation-free and within noise of the
un-instrumented kernels when tracing is disabled (guarded by a
``count_allocations`` test; ``bench/`` reports the enabled cost as
``trace.overhead_pct``).  Simulated runs emit spans with *simulated*
clocks through the same :class:`Tracer`, so real and simulated traces
are directly comparable in the same viewer and the same report.
"""

from .tracer import (
    CAT_COMM,
    CAT_COMPUTE,
    CAT_OTHER,
    NULL_TRACER,
    NullTracer,
    Tracer,
    span_category,
)
from .merge import load_trace, merge_traces, trace_files, write_chrome_trace
from .report import (
    RankBreakdown,
    TraceSummary,
    format_breakdown_table,
    summarize,
)

__all__ = [
    "NullTracer",
    "Tracer",
    "NULL_TRACER",
    "CAT_COMPUTE",
    "CAT_COMM",
    "CAT_OTHER",
    "span_category",
    "trace_files",
    "load_trace",
    "merge_traces",
    "write_chrome_trace",
    "RankBreakdown",
    "TraceSummary",
    "summarize",
    "format_breakdown_table",
]
