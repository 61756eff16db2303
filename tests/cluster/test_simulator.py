"""The cluster simulator: efficiency behaviour and migration machinery."""

import pytest

from repro.cluster import (
    ClusterSimulation,
    LoadTrace,
    NetworkParams,
    paper_sim_cluster,
)


def _run(method="lb", ndim=2, blocks=(4, 1), side=100, steps=25, **kw):
    sim = ClusterSimulation(method, ndim, blocks, side,
                            hosts=kw.pop("hosts", None),
                            network=kw.pop("network", NetworkParams()),
                            sync_mode=kw.pop("sync_mode", "bsp"))
    return sim.run(steps=steps, **kw)


class TestBasics:
    def test_serial_is_perfectly_efficient(self):
        r = _run(blocks=(1, 1), side=100)
        assert r.processors == 1
        assert r.efficiency == pytest.approx(1.0, abs=1e-9)

    def test_determinism(self):
        a = _run(blocks=(4, 1), side=80)
        b = _run(blocks=(4, 1), side=80)
        assert a.time_per_step == b.time_per_step
        assert a.bus.messages == b.bus.messages

    def test_efficiency_below_one_with_communication(self):
        r = _run(blocks=(4, 1), side=100)
        assert 0.0 < r.efficiency < 1.0

    def test_message_accounting(self):
        """LB: one message per neighbour per step; a (4x1) chain has 6
        directed neighbour pairs."""
        r = _run(blocks=(4, 1), side=50, steps=10)
        assert r.bus.messages == 6 * 10

    def test_fd_doubles_messages(self):
        rl = _run(method="lb", blocks=(4, 1), side=50, steps=10)
        rf = _run(method="fd", blocks=(4, 1), side=50, steps=10)
        assert rf.bus.messages == 2 * rl.bus.messages

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSimulation("fem", 2, (2, 2), 50)
        with pytest.raises(ValueError):
            ClusterSimulation("lb", 2, (2, 2, 2), 50)
        with pytest.raises(ValueError):
            ClusterSimulation("lb", 2, (2, 2), 50, sync_mode="magic")
        with pytest.raises(ValueError):
            ClusterSimulation("lb", 3, (3, 3, 3), 20)  # 27 > 25 hosts

    def test_steps_positive(self):
        sim = ClusterSimulation("lb", 2, (2, 1), 50)
        with pytest.raises(ValueError):
            sim.run(steps=0)


class TestHybridMethods:
    """Per-rank method assignment in the discrete-event model."""

    def test_uniform_sequence_collapses_to_string(self):
        sim = ClusterSimulation(["lb", "lb"], 2, (2, 1), 50)
        assert sim.method == "lb"
        assert sim.methods == ("lb", "lb")

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            ClusterSimulation(["lb", "fd", "fd"], 2, (2, 1), 50)
        with pytest.raises(ValueError):
            ClusterSimulation(["lb", "fem"], 2, (2, 1), 50)

    def test_hybrid_run_completes(self):
        sim = ClusterSimulation(["lb", "lb", "fd", "fd"], 2, (4, 1), 80)
        r = sim.run(steps=25)
        assert 0.0 < r.efficiency < 1.0
        assert r.processors == 4

    def test_hybrid_determinism(self):
        mk = lambda: ClusterSimulation(
            ["lb", "fd"], 2, (2, 1), 80).run(steps=20)
        a, b = mk(), mk()
        assert a.time_per_step == b.time_per_step
        assert a.bus.messages == b.bus.messages

    def test_hybrid_message_accounting(self):
        """(4x1) chain lb,lb,fd,fd: the lb|lb edge exchanges once per
        step, the fd|fd edge twice (two phases), and the mixed seam
        edge once — the seam translation rides the phase-0 exchange."""
        sim = ClusterSimulation(["lb", "lb", "fd", "fd"], 2, (4, 1), 50)
        r = sim.run(steps=10)
        assert r.bus.messages == (2 + 2 + 4) * 10

    def test_hybrid_serial_time_prices_each_region(self):
        from repro.cluster.calibration import node_speed

        sim = ClusterSimulation(["lb", "fd"], 2, (2, 1), 50)
        expected = sum(
            50 * 50 / node_speed(m, 2, "715/50") for m in ("lb", "fd")
        )
        assert sim.serial_time_per_step() == pytest.approx(expected)


class TestEfficiencyShape:
    def test_monotone_in_grain(self):
        """Bigger subregions, better efficiency (figs. 5, 7, 10)."""
        effs = [
            _run(blocks=(4, 4), side=s).efficiency for s in (30, 80, 200)
        ]
        assert effs[0] < effs[1] < effs[2]

    def test_decreasing_in_processors(self):
        """Shared bus: more processors, more contention (fig. 9)."""
        effs = [
            _run(blocks=(p, 1), side=120).efficiency for p in (2, 8, 16)
        ]
        assert effs[0] > effs[1] > effs[2]

    def test_3d_worse_than_2d(self):
        """Fig. 9: comparable grains, 3D collapses on shared Ethernet."""
        e2 = _run(ndim=2, blocks=(16, 1), side=120).efficiency
        e3 = _run(ndim=3, blocks=(16, 1, 1), side=25).efficiency
        assert e3 < e2 - 0.1

    def test_fd_worse_than_lb_at_small_grain(self):
        """Fig. 5 vs fig. 7: two small messages per step lose to one."""
        ef = _run(method="fd", blocks=(4, 4), side=30).efficiency
        el = _run(method="lb", blocks=(4, 4), side=30).efficiency
        assert ef < el

    def test_loose_sync_beats_bsp(self):
        """Pipelined (switched-network-like) communication recovers
        efficiency the synchronized bursts lose."""
        bsp = _run(blocks=(8, 1), side=100, sync_mode="bsp").efficiency
        loose = _run(blocks=(8, 1), side=100, sync_mode="loose").efficiency
        assert loose >= bsp

    def test_slow_models_lower_efficiency_beyond_16(self):
        """P > 16 adds 720/710 machines (the paper normalizes to the
        715/50), so efficiency takes an extra hit at P = 17+."""
        e16 = _run(blocks=(16, 1), side=150).efficiency
        e20 = _run(blocks=(20, 1), side=150).efficiency
        assert e20 < e16

    def test_network_errors_under_3d_traffic(self):
        """Heavy 3D traffic overloads the bus; the error counter (TCP
        failures under excessive retransmissions, §7) must engage."""
        r = _run(ndim=3, blocks=(4, 2, 2), side=40, steps=12,
                 network=NetworkParams(error_wait_threshold=0.5))
        assert r.bus.network_errors > 0


class TestExternalLoad:
    def test_busy_host_slows_run(self):
        quiet = _run(blocks=(4, 1), side=100)
        hosts = paper_sim_cluster({"hp715-01": LoadTrace.busy_from(0.0, 2.0)})
        busy = _run(blocks=(4, 1), side=100, hosts=hosts)
        assert busy.time_per_step > 1.5 * quiet.time_per_step


class TestMigration:
    def test_migration_triggered_and_recorded(self):
        hosts = paper_sim_cluster(
            {"hp715-02": LoadTrace.busy_from(5.0, 2.0)}
        )
        sim = ClusterSimulation("lb", 2, (4, 1), 120, hosts=hosts)
        r = sim.run(steps=60, monitor_poll=2.0)
        assert len(r.migrations) == 1
        ev = r.migrations[0]
        assert ev.rank == 2
        assert ev.from_host == "hp715-02"
        assert ev.to_host != "hp715-02"
        assert ev.pause_duration == 30.0

    def test_migration_sync_step_is_reachable(self):
        hosts = paper_sim_cluster(
            {"hp715-00": LoadTrace.busy_from(3.0, 2.0)}
        )
        sim = ClusterSimulation("lb", 2, (4, 1), 100, hosts=hosts)
        r = sim.run(steps=40, monitor_poll=1.0)
        assert r.migrations
        assert r.migrations[0].sync_step <= 40

    def test_no_migration_without_monitor(self):
        hosts = paper_sim_cluster(
            {"hp715-00": LoadTrace.busy_from(3.0, 2.0)}
        )
        sim = ClusterSimulation("lb", 2, (4, 1), 100, hosts=hosts)
        r = sim.run(steps=40, monitor_poll=0.0)
        assert r.migrations == []

    def test_migration_pays_for_itself(self):
        """§5.1: migrations are worth it — a run that escapes a busy
        host beats one stuck sharing it."""
        traces = {"hp715-01": LoadTrace.busy_from(10.0, 2.0)}
        stuck = ClusterSimulation(
            "lb", 2, (4, 1), 150, hosts=paper_sim_cluster(dict(traces))
        ).run(steps=200, monitor_poll=0.0)
        rescued = ClusterSimulation(
            "lb", 2, (4, 1), 150, hosts=paper_sim_cluster(dict(traces))
        ).run(steps=200, monitor_poll=5.0)
        assert rescued.migrations
        assert rescued.elapsed < stuck.elapsed

    def test_migration_cost_visible(self):
        """The 30 s pause shows up in elapsed time but is amortized
        over a long run (§5.1: 'the cost of migration is
        insignificant')."""
        traces = {"hp715-03": LoadTrace.busy_from(1.0, 2.0)}
        short = ClusterSimulation(
            "lb", 2, (4, 1), 120, hosts=paper_sim_cluster(dict(traces))
        ).run(steps=30, monitor_poll=1.0)
        assert short.migrations
        # the pause dominates a 30-step run
        assert short.elapsed > 30.0


class TestEq12Identity:
    """Eq. 12: for a completely parallelizable computation with
    non-overlapping communication, efficiency equals processor
    utilization — the simulator satisfies the paper's two assumptions
    by construction on homogeneous hosts, so f = g must hold exactly."""

    def test_utilization_equals_efficiency_2d(self):
        r = _run(blocks=(8, 1), side=120, steps=30)
        assert r.utilization == pytest.approx(r.efficiency, rel=0.03)

    def test_utilization_equals_efficiency_3d(self):
        r = _run(ndim=3, blocks=(8, 1, 1), side=25, steps=30)
        assert r.utilization == pytest.approx(r.efficiency, rel=0.05)

    def test_identity_breaks_with_heterogeneous_hosts(self):
        """With mixed machine speeds the 'completely parallelizable'
        assumption (T_calc = T_1/P on every host) fails and f != g —
        the boundary of eq. 12's validity, made visible."""
        r = _run(blocks=(20, 1), side=120, steps=30)
        # hosts 17-20 are slower 720/710 models: utilization now
        # exceeds efficiency (slow hosts are busy, not useful)
        assert r.utilization > r.efficiency + 0.01
