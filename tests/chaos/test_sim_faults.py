"""Simulated fault injection: the charged-cost model in the simulator."""

import pytest

from repro.chaos import Fault, FaultPlan
from repro.cluster import ClusterSimulation, NetworkParams


def _sim(plan=None, blocks=(4, 1), side=80, **kw):
    return ClusterSimulation(
        "lb", 2, blocks, side,
        network=NetworkParams(),
        fault_plan=plan,
        **kw,
    )


def _plan(*faults, seed=0):
    return FaultPlan(seed=seed, faults=tuple(faults))


class TestValidation:
    def test_rank_out_of_bounds(self):
        with pytest.raises(ValueError, match="targets rank"):
            _sim(_plan(Fault("kill", rank=9, step=5)))

    def test_process_faults_need_bsp(self):
        with pytest.raises(ValueError, match="BSP barrier"):
            _sim(_plan(Fault("kill", rank=0, step=5)), sync_mode="loose")

    def test_no_plan_is_fine(self):
        assert _sim().run(steps=5).faults == []

    def test_nan_fault_is_ignored(self):
        """The simulator models time, not fields: a ``nan`` fault, like
        a dump fault, has nothing to act on."""
        plan = _plan(Fault("nan", rank=1, step=5))
        assert _sim(plan).run(steps=20) == _sim().run(steps=20)


class TestChargedCosts:
    def test_kill_charges_restart_cost(self):
        clean = _sim().run(steps=20)
        faulted = _sim(_plan(Fault("kill", rank=1, step=10))).run(
            steps=20, restart_cost=45.0
        )
        assert len(faulted.faults) == 1
        ev = faulted.faults[0]
        assert ev.kind == "kill" and ev.rank == 1
        assert ev.cost == pytest.approx(45.0)
        assert faulted.elapsed == pytest.approx(clean.elapsed + 45.0,
                                                rel=0.05)

    def test_stall_costs_more_than_kill(self):
        kill = _sim(_plan(Fault("kill", rank=1, step=10))).run(
            steps=20, restart_cost=45.0, stall_detect=60.0
        )
        stall = _sim(_plan(Fault("stop", rank=1, step=10))).run(
            steps=20, restart_cost=45.0, stall_detect=60.0
        )
        assert stall.faults[0].cost == pytest.approx(
            kill.faults[0].cost + 60.0
        )

    def test_message_fault_retransmits_on_the_bus(self):
        clean = _sim().run(steps=20)
        faulted = _sim(_plan(Fault("msg_drop", rank=1, step=10))).run(
            steps=20
        )
        assert faulted.faults[0].kind == "msg_drop"
        assert faulted.bus.messages == clean.bus.messages + 1
        assert faulted.faults[0].cost >= 0.0

    def test_window_math_survives_a_fault(self):
        # Step counters are charged, not rewound: the §7 window average
        # still indexes cleanly and stays positive.
        res = _sim(_plan(Fault("kill", rank=0, step=8))).run(steps=15)
        assert res.processors == 4
        assert res.steps == 15
        assert res.time_per_step > 0

    def test_determinism_with_faults(self):
        plan = _plan(Fault("kill", rank=2, step=7),
                     Fault("msg_dup", rank=0, step=12))
        a = _sim(plan).run(steps=20)
        b = _sim(plan).run(steps=20)
        assert a.elapsed == b.elapsed
        assert [(e.time, e.kind, e.rank) for e in a.faults] == \
               [(e.time, e.kind, e.rank) for e in b.faults]


class TestLoadSpike:
    def test_spike_slows_the_victim_host(self):
        clean = _sim().run(steps=40)
        plan = _plan(Fault("load_spike", rank=1, at=1.0, load=3.0,
                           seconds=1e6))
        faulted = _sim(plan).run(steps=40)
        assert faulted.faults[0].kind == "load_spike"
        assert faulted.elapsed > clean.elapsed

    def test_spike_can_trigger_migration(self):
        # A long heavy spike with a monitor polling fast and spare
        # hosts available must end in a §5.1 migration.
        plan = _plan(Fault("load_spike", rank=1, at=5.0, load=3.0,
                           seconds=1e6))
        res = _sim(plan).run(steps=120, monitor_poll=10.0)
        assert len(res.migrations) >= 1
