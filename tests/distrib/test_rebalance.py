"""Live repartitioning: the rebalance epoch end-to-end, and the shared
planner contract between the cluster simulator and the runtime."""

import threading

import numpy as np
import pytest

from repro.balance import BalancePolicy, RebalancePlanner
from repro.core import Decomposition, Simulation
from repro.distrib import (
    DistributedRun,
    ProblemSpec,
    RunSettings,
    initial_fields,
)


def _spec():
    return ProblemSpec(
        method="lb",
        grid_shape=(48, 24),
        blocks=(4, 1),
        periodic=(True, False),
        params={"nu": 0.1, "gravity": (1e-5, 0.0), "filter_eps": 0.02},
        geometry={"kind": "channel"},
    )


def _serial(spec, fields, steps):
    solid, _, _ = spec.build_geometry()
    d = Decomposition(
        spec.grid_shape, (1,) * spec.ndim, periodic=spec.periodic,
        solid=solid,
    )
    sim = Simulation(spec.build_method(), d, fields, solid)
    sim.step(steps)
    return sim


@pytest.mark.slow
def test_rebalance_epoch_preserves_bitwise_equality(tmp_path):
    """A skewed host load triggers a rebalance epoch: all ranks dump,
    the monitor re-cuts the global state into weighted slabs, the
    workers restart — and the numerics never notice."""
    spec = _spec()
    fields = initial_fields(spec, "rest")
    serial = _serial(spec, fields, steps=60)
    run = DistributedRun(
        spec, fields, tmp_path / "run",
        RunSettings(
            steps=60,
            run_timeout=240,
            policy="rebalance",
            balance_cooldown=30.0,   # one epoch is enough for the test
            balance_min_gain=0.0,
            step_delays=[0.02, 0.02, 0.02, 0.02],
        ),
    )
    mon = run.start()
    # Load rank 0's host before run.wait() starts the monitor loop, so
    # the load is in the estimator at the planner's first decision: an
    # epoch cut from step-time jitter alone (min_gain=0) cannot come
    # first and use up the cooldown, however early the workers start.
    host = run.hostdb.host_of_rank(0)
    run.hostdb.set_load(host.name, load5=2.5)
    run.wait()
    out = run.collect()

    assert mon.rebalances >= 1
    # the sync-point dumps and the re-cut dumps are both on disk
    dumps = {p.name for p in (tmp_path / "run" / "dumps").iterdir()}
    assert "balance0000_rank0000.npz" in dumps
    assert "recut0000_rank0003.npz" in dumps
    # spec.json now carries the weighted decomposition...
    new_spec = ProblemSpec.load(tmp_path / "run" / "spec.json")
    assert new_spec.weights is not None
    shares = new_spec.weights[0]
    assert sum(shares) == 48
    # ...with the loaded rank's slab visibly thinner
    assert shares[0] == min(shares) and shares[0] < max(shares)
    # and the final state is bit-for-bit the serial program's
    for name in serial.method.field_names:
        assert np.array_equal(out[name], serial.global_field(name)), name


@pytest.mark.slow
def test_forced_rebalance_skips_gates_and_preserves_equality(tmp_path):
    """request_rebalance executes an epoch the amortization gate would
    reject (a short run cannot repay the repartition cost), cutting by
    the *measured* per-rank compute times — and the numerics hold."""
    spec = _spec()
    fields = initial_fields(spec, "rest")
    serial = _serial(spec, fields, steps=40)
    run = DistributedRun(
        spec, fields, tmp_path / "run",
        RunSettings(
            steps=40,
            run_timeout=240,
            policy="rebalance",
            balance_cooldown=60.0,
            # rank 2 computes 4x slower; an infinite threshold keeps
            # the planner from ever acting on its own, so the forced
            # request is the only epoch however early the workers
            # start (the default gates approve one when they see the
            # imbalance before the request lands)
            balance_threshold=float("inf"),
            step_delays=[0.01, 0.01, 0.04, 0.01],
        ),
    )
    mon = run.start()
    threading.Timer(0.7, mon.request_rebalance).start()
    run.wait()
    out = run.collect()
    assert mon.rebalances == 1
    shares = ProblemSpec.load(tmp_path / "run" / "spec.json").weights[0]
    assert shares[2] == min(shares)
    for name in serial.method.field_names:
        assert np.array_equal(out[name], serial.global_field(name)), name


class TestSharedPlanner:
    """ISSUE 4: the simulator's 'rebalance' policy and the live monitor
    must consult the *same* planner implementation."""

    def test_simulator_accepts_live_planner(self):
        from repro.cluster import (
            ClusterSimulation,
            LoadTrace,
            paper_sim_cluster,
        )

        planner = RebalancePlanner(BalancePolicy(
            threshold=0.05, cooldown=0.0, min_gain=0.0,
            state_bytes_per_node=72.0, bandwidth=1.25e6,
        ))
        sim = ClusterSimulation(
            "lb", 2, (4, 1), 120,
            hosts=paper_sim_cluster(
                {"hp715-01": LoadTrace.busy_from(5.0, load=2.0)}
            ),
        )
        sim.run(steps=60, monitor_poll=2.0, policy="rebalance",
                planner=planner)
        assert sim.planner is planner
        assert len(planner.history) == len(sim.rebalances) >= 1

    def test_monitor_imports_the_same_planner_class(self):
        from repro.distrib import monitor as monitor_mod

        assert monitor_mod.RebalancePlanner is RebalancePlanner
        assert monitor_mod.BalancePolicy is BalancePolicy

    def test_run_settings_build_the_policy(self):
        pol = RunSettings(steps=10, balance_threshold=0.1,
                          balance_min_gain=2.0).balance_policy()
        assert isinstance(pol, BalancePolicy)
        assert pol.threshold == 0.1
        assert pol.min_gain == 2.0
