"""Chaos scenario: a worker SIGKILLed during a ``policy="rebalance"`` run.

The rebalance epoch is the run's most fragile window: workers leave
through a sync protocol, the global state is re-assembled and re-cut,
and the rewritten ``spec.json`` makes every pre-recut checkpoint (and
the initial ``state`` dumps) the wrong *shape* for a restart.  A kill
landing anywhere around that window used to be able to abort the run
with a ``MonitorError`` (mid-epoch death) or crash-loop it (restart
into decomposition-incompatible dumps).  Both paths now degrade to a
checkpoint restart, and the recovery ledger must close: every
``chaos:`` process-fault record of the run journal answered by a
``recover:`` record.
"""

import pytest

from repro.chaos.plan import FaultPlan
from repro.chaos.runner import check_recovery_ledger, run_scenario


def test_rebalance_kill_plan_shape():
    """The scenario schedules exactly one kill inside the run window."""
    plan = FaultPlan.scenario("rebalance_kill", 3, 2, 40, 10)
    assert len(plan.faults) == 1
    (fault,) = plan.faults
    assert fault.kind == "kill"
    assert 11 <= fault.step <= 38


@pytest.mark.slow
def test_rebalance_kill_recovers_with_closed_ledger(tmp_path):
    """The kill races a live rebalance epoch and the run still ends in
    a bit-for-bit match with every fault record answered in the
    ledger."""
    out = run_scenario(
        "rebalance_kill", 0, tmp_path / "run", steps=40, save_every=10
    )
    assert out.passed, f"{out.outcome}: {out.detail}"
    assert out.outcome == "match"
    assert out.restarts >= 1, "the kill never forced a restart"
    # the skewed synthetic load really drove the planner: the run
    # executed at least one rebalance epoch around the fault
    assert out.rebalances >= 1, "no rebalance epoch ever ran"
    # ledger closure, asserted directly on the run journal (the
    # classifier already audits this for "match", but the satellite's
    # contract is the ledger itself)
    assert check_recovery_ledger(tmp_path / "run", out.restarts) == []
