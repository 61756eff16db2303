"""Adaptive load balancing: weighted decomposition, live repartitioning.

The paper handles a busy workstation by migrating the whole process off
it (§5.1) and argues dynamic workload allocation is unnecessary for
static-geometry flow problems (§1.1).  This package builds that
alternative for real, closing the gap between the simulated
``"rebalance"`` policy and the live runtime:

* :class:`LoadEstimator` turns signals the monitor already collects
  (heartbeat step counters and per-step compute times, `HostDB` load
  averages) into smoothed per-rank effective speeds;
* :class:`RebalancePlanner` + :class:`BalancePolicy` decide *when* a
  re-cut pays for itself — imbalance threshold, cooldown hysteresis,
  and amortizing :func:`repro.cluster.allocation.repartition_cost`
  against the projected saving — shared verbatim by
  :class:`repro.cluster.ClusterSimulation` and
  :class:`repro.distrib.Monitor`;
* :func:`recut_problem` executes the decision: reassemble the dumped
  global state, cut it into new weighted slabs, rewrite the spec.

The wire protocol around it (sync to a step boundary, dump, restart
under a bumped generation) reuses the migration-epoch machinery in
:mod:`repro.distrib.worker` / :mod:`repro.distrib.monitor`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "LoadEstimator": "estimator",
    "BalancePolicy": "planner",
    "RebalancePlan": "planner",
    "RebalancePlanner": "planner",
    "RecutError": "recut",
    "check_rebalanceable": "recut",
    "recut_problem": "recut",
})

__all__ = [
    "LoadEstimator",
    "BalancePolicy",
    "RebalancePlan",
    "RebalancePlanner",
    "RecutError",
    "check_rebalanceable",
    "recut_problem",
]
